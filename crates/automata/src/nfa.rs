//! Nondeterministic finite automata (Definition 1 of the paper) and their
//! construction from a regular-expression AST.
//!
//! The compiler follows the classic Thompson/McNaughton–Yamada approach:
//! every AST node becomes a small fragment with one entry and one exit
//! state, glued together with ε-transitions. The resulting NFA has `O(m)`
//! states for a pattern of size `m` (Table II of the paper).

use crate::error::CompileError;
use crate::pattern::PatternId;
use crate::stateset::StateSet;
use sfa_regex_syntax::ast::Ast;
use sfa_regex_syntax::class::ByteSet;

/// Identifier of an automaton state.
pub type StateId = u32;

/// One NFA state: byte-labelled transitions plus ε-transitions.
#[derive(Clone, Debug, Default)]
pub struct NfaState {
    /// Transitions on byte sets: reading any byte of the set moves to the
    /// target state.
    pub transitions: Vec<(ByteSet, StateId)>,
    /// ε-transitions (taken without consuming input).
    pub epsilon: Vec<StateId>,
}

/// A nondeterministic finite automaton over bytes.
///
/// Matches the paper's quintuple `N = (Q, Σ, δ, I, F)` with `Σ = 0..=255`,
/// `I = {start}` (the Thompson construction always yields a single initial
/// state) and `F` the accepting-state set.
#[derive(Clone, Debug)]
pub struct Nfa {
    states: Vec<NfaState>,
    start: StateId,
    accepting: Vec<StateId>,
    /// The pattern each accepting state belongs to (parallel to
    /// `accepting`). Single-pattern constructions tag everything with
    /// pattern 0.
    accept_pattern: Vec<PatternId>,
    /// Number of original patterns this NFA was compiled from (1 for the
    /// single-pattern constructors, 0 for the empty pattern list — the
    /// void language).
    pattern_count: usize,
}

impl Nfa {
    /// Compiles an AST into an NFA.
    pub fn from_ast(ast: &Ast) -> Result<Nfa, CompileError> {
        Compiler::new().compile(ast)
    }

    /// Convenience: parse a pattern and compile it.
    pub fn from_pattern(pattern: &str) -> Result<Nfa, CompileError> {
        let ast = sfa_regex_syntax::parse(pattern)?;
        Nfa::from_ast(&ast)
    }

    /// Compiles a list of pattern ASTs into **one** NFA whose accept
    /// states remember which pattern they came from.
    ///
    /// Structurally this is the alternation of the patterns (a fresh
    /// start state with an ε-transition into each branch), but unlike
    /// compiling `p0|p1|…` the accept state of branch `i` is tagged with
    /// [`PatternId`] `i`, so the subset construction can carry per-DFA-state
    /// pattern accept sets ([`crate::PatternSet`]) and a downstream
    /// matcher can report *which* patterns matched, not just whether any
    /// did.
    ///
    /// An empty list yields the void language: one state, nothing
    /// accepting, [`pattern_count`](Nfa::pattern_count) 0 — the union of
    /// zero languages is empty.
    pub fn from_asts(asts: &[Ast]) -> Result<Nfa, CompileError> {
        Compiler::new().compile_set(asts)
    }

    /// Convenience: parse each pattern with default syntax settings and
    /// compile the tagged union (see [`Nfa::from_asts`]).
    pub fn from_patterns<'a, I>(patterns: I) -> Result<Nfa, CompileError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let asts =
            patterns.into_iter().map(sfa_regex_syntax::parse).collect::<Result<Vec<_>, _>>()?;
        Nfa::from_asts(&asts)
    }

    /// Builds an NFA directly from parts (used by tests and by the
    /// explosion-family constructors in `sfa-monoid`). The result is a
    /// single-pattern automaton: every accepting state is tagged with
    /// pattern 0.
    pub fn from_parts(states: Vec<NfaState>, start: StateId, accepting: Vec<StateId>) -> Nfa {
        assert!((start as usize) < states.len(), "start state out of range");
        for &q in &accepting {
            assert!((q as usize) < states.len(), "accepting state out of range");
        }
        let accept_pattern = vec![0; accepting.len()];
        Nfa { states, start, accepting, accept_pattern, pattern_count: 1 }
    }

    /// Number of states (`|N|` in the paper).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The accepting states.
    pub fn accepting(&self) -> &[StateId] {
        &self.accepting
    }

    /// Accepting states as a [`StateSet`].
    pub fn accepting_set(&self) -> StateSet {
        StateSet::from_iter(self.num_states(), self.accepting.iter().copied())
    }

    /// Number of original patterns this NFA was compiled from (see
    /// [`Nfa::from_asts`]). Single-pattern constructions report 1.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The pattern tag of each accepting state, parallel to
    /// [`accepting`](Nfa::accepting).
    pub fn accept_patterns(&self) -> &[PatternId] {
        &self.accept_pattern
    }

    /// For every pattern, the set of NFA states accepting it (indexed by
    /// [`PatternId`]; length [`pattern_count`](Nfa::pattern_count)).
    /// The subset construction intersects DFA subset states against these
    /// to compute per-state pattern accept sets.
    pub fn pattern_accept_sets(&self) -> Vec<StateSet> {
        let mut sets = vec![StateSet::new(self.num_states()); self.pattern_count];
        for (&q, &p) in self.accepting.iter().zip(&self.accept_pattern) {
            sets[p as usize].insert(q);
        }
        sets
    }

    /// Returns the state with the given id.
    pub fn state(&self, id: StateId) -> &NfaState {
        &self.states[id as usize]
    }

    /// All states.
    pub fn states(&self) -> &[NfaState] {
        &self.states
    }

    /// Total number of byte-set transitions (a size measure used in
    /// reports).
    pub fn num_transitions(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }

    /// Total number of ε-transitions.
    pub fn num_epsilon_transitions(&self) -> usize {
        self.states.iter().map(|s| s.epsilon.len()).sum()
    }

    /// Computes the ε-closure of `set` in place: adds every state reachable
    /// through ε-transitions alone.
    pub fn epsilon_closure_into(&self, set: &mut StateSet) {
        let mut stack: Vec<StateId> = set.iter().collect();
        while let Some(q) = stack.pop() {
            for &next in &self.states[q as usize].epsilon {
                if set.insert(next) {
                    stack.push(next);
                }
            }
        }
    }

    /// Returns the ε-closure of a single state.
    pub fn epsilon_closure(&self, state: StateId) -> StateSet {
        let mut set = StateSet::singleton(self.num_states(), state);
        self.epsilon_closure_into(&mut set);
        set
    }

    /// The initial *configuration*: ε-closure of the start state.
    pub fn start_closure(&self) -> StateSet {
        self.epsilon_closure(self.start)
    }

    /// One step of the subset simulation: all states reachable from `set`
    /// by reading `byte` (followed by ε-closure).
    pub fn step(&self, set: &StateSet, byte: u8) -> StateSet {
        let mut next = StateSet::new(self.num_states());
        for q in set.iter() {
            for (bytes, target) in &self.states[q as usize].transitions {
                if bytes.contains(byte) {
                    next.insert(*target);
                }
            }
        }
        self.epsilon_closure_into(&mut next);
        next
    }

    /// Direct NFA membership test by subset simulation (`O(|N| · n)`,
    /// Table II). Used as the semantic oracle in tests.
    pub fn accepts(&self, input: &[u8]) -> bool {
        let accepting = self.accepting_set();
        let mut current = self.start_closure();
        for &b in input {
            if current.is_empty() {
                return false;
            }
            current = self.step(&current, b);
        }
        current.intersects(&accepting)
    }

    /// Per-pattern membership by subset simulation: the set of patterns
    /// whose branch accepts `input`. The multi-pattern analogue of
    /// [`accepts`](Nfa::accepts), used as the semantic oracle for the
    /// per-pattern pipeline tests.
    pub fn matching_patterns(&self, input: &[u8]) -> crate::PatternSet {
        let mut current = self.start_closure();
        for &b in input {
            if current.is_empty() {
                break;
            }
            current = self.step(&current, b);
        }
        let sets = self.pattern_accept_sets();
        crate::PatternSet::from_iter(
            self.pattern_count,
            sets.iter()
                .enumerate()
                .filter(|(_, s)| current.intersects(s))
                .map(|(p, _)| p as PatternId),
        )
    }

    /// Returns the set of bytes that have an outgoing transition anywhere in
    /// the automaton (useful for alphabet statistics).
    pub fn used_bytes(&self) -> ByteSet {
        let mut used = ByteSet::new();
        for s in &self.states {
            for (set, _) in &s.transitions {
                used = used.union(set);
            }
        }
        used
    }
}

/// Thompson-style compiler from AST to NFA.
struct Compiler {
    states: Vec<NfaState>,
}

/// A fragment under construction: one entry state and one exit state.
#[derive(Clone, Copy)]
struct Frag {
    start: StateId,
    end: StateId,
}

impl Compiler {
    fn new() -> Compiler {
        Compiler { states: Vec::new() }
    }

    fn add_state(&mut self) -> StateId {
        let id = self.states.len() as StateId;
        self.states.push(NfaState::default());
        id
    }

    fn add_epsilon(&mut self, from: StateId, to: StateId) {
        self.states[from as usize].epsilon.push(to);
    }

    fn add_byte_transition(&mut self, from: StateId, bytes: ByteSet, to: StateId) {
        self.states[from as usize].transitions.push((bytes, to));
    }

    fn compile(mut self, ast: &Ast) -> Result<Nfa, CompileError> {
        let frag = self.compile_node(ast)?;
        let nfa = Nfa {
            states: self.states,
            start: frag.start,
            accepting: vec![frag.end],
            accept_pattern: vec![0],
            pattern_count: 1,
        };
        Ok(nfa)
    }

    /// Compiles each AST as its own branch under a shared start state,
    /// tagging branch `i`'s accept state with pattern `i` (the
    /// pattern-preserving alternation behind [`Nfa::from_asts`]).
    fn compile_set(mut self, asts: &[Ast]) -> Result<Nfa, CompileError> {
        let start = self.add_state();
        let mut accepting = Vec::with_capacity(asts.len());
        let mut accept_pattern = Vec::with_capacity(asts.len());
        for (i, ast) in asts.iter().enumerate() {
            let frag = self.compile_node(ast)?;
            self.add_epsilon(start, frag.start);
            accepting.push(frag.end);
            accept_pattern.push(i as PatternId);
        }
        Ok(Nfa { states: self.states, start, accepting, accept_pattern, pattern_count: asts.len() })
    }

    fn compile_node(&mut self, ast: &Ast) -> Result<Frag, CompileError> {
        match ast {
            Ast::Empty => {
                let s = self.add_state();
                let e = self.add_state();
                self.add_epsilon(s, e);
                Ok(Frag { start: s, end: e })
            }
            Ast::Class(set) => {
                let s = self.add_state();
                let e = self.add_state();
                self.add_byte_transition(s, *set, e);
                Ok(Frag { start: s, end: e })
            }
            Ast::Concat(parts) => {
                let mut frags = Vec::with_capacity(parts.len());
                for p in parts {
                    frags.push(self.compile_node(p)?);
                }
                let first = frags[0];
                let mut prev = first;
                for f in &frags[1..] {
                    self.add_epsilon(prev.end, f.start);
                    prev = *f;
                }
                Ok(Frag { start: first.start, end: prev.end })
            }
            Ast::Alternation(parts) => {
                let s = self.add_state();
                let e = self.add_state();
                for p in parts {
                    let f = self.compile_node(p)?;
                    self.add_epsilon(s, f.start);
                    self.add_epsilon(f.end, e);
                }
                Ok(Frag { start: s, end: e })
            }
            Ast::Repeat { node, min, max } => self.compile_repeat(node, *min, *max),
        }
    }

    fn compile_repeat(
        &mut self,
        node: &Ast,
        min: u32,
        max: Option<u32>,
    ) -> Result<Frag, CompileError> {
        const MAX_UNROLL: u64 = 20_000;
        let copies = match max {
            Some(m) => m as u64,
            None => min as u64 + 1,
        };
        if copies.saturating_mul(node.size() as u64) > MAX_UNROLL {
            return Err(CompileError::RepetitionTooLarge {
                copies: copies as usize,
                node_size: node.size(),
            });
        }

        match max {
            // node{min,} = node^min node*
            None => {
                let star = self.compile_star(node)?;
                if min == 0 {
                    Ok(star)
                } else {
                    let mut prefix = self.compile_exactly(node, min)?;
                    self.add_epsilon(prefix.end, star.start);
                    prefix.end = star.end;
                    Ok(prefix)
                }
            }
            // node{min,max} = node^min (node?)^(max-min)
            Some(max) => {
                debug_assert!(min <= max);
                let s = self.add_state();
                let mut frag = Frag { start: s, end: s };
                if min > 0 {
                    let prefix = self.compile_exactly(node, min)?;
                    self.add_epsilon(frag.end, prefix.start);
                    frag.end = prefix.end;
                }
                for _ in min..max {
                    let f = self.compile_node(node)?;
                    let join = self.add_state();
                    self.add_epsilon(frag.end, f.start);
                    self.add_epsilon(frag.end, join);
                    self.add_epsilon(f.end, join);
                    frag.end = join;
                }
                Ok(frag)
            }
        }
    }

    fn compile_exactly(&mut self, node: &Ast, count: u32) -> Result<Frag, CompileError> {
        debug_assert!(count >= 1);
        let first = self.compile_node(node)?;
        let mut frag = first;
        for _ in 1..count {
            let f = self.compile_node(node)?;
            self.add_epsilon(frag.end, f.start);
            frag.end = f.end;
        }
        Ok(frag)
    }

    fn compile_star(&mut self, node: &Ast) -> Result<Frag, CompileError> {
        let s = self.add_state();
        let e = self.add_state();
        let inner = self.compile_node(node)?;
        self.add_epsilon(s, inner.start);
        self.add_epsilon(s, e);
        self.add_epsilon(inner.end, inner.start);
        self.add_epsilon(inner.end, e);
        Ok(Frag { start: s, end: e })
    }
}

#[cfg(test)]
impl Nfa {
    /// The tagged union of whole automata, shaped like
    /// [`Nfa::from_asts`]: a fresh ε-start, then each part's states, its
    /// pattern tags shifted past the parts before it. Lets tests build
    /// the union of hand-made automata, whose start states may recur.
    pub(crate) fn tagged_union(parts: &[&Nfa]) -> Nfa {
        let mut states = vec![NfaState::default()];
        let (mut accepting, mut accept_pattern, mut pattern_count) = (vec![], vec![], 0);
        for part in parts {
            let offset = states.len() as StateId;
            states[0].epsilon.push(part.start + offset);
            states.extend(part.states.iter().map(|s| NfaState {
                transitions: s.transitions.iter().map(|&(set, t)| (set, t + offset)).collect(),
                epsilon: s.epsilon.iter().map(|&t| t + offset).collect(),
            }));
            accepting.extend(part.accepting.iter().map(|&q| q + offset));
            accept_pattern
                .extend(part.accept_pattern.iter().map(|&p| p + pattern_count as PatternId));
            pattern_count += part.pattern_count;
        }
        Nfa { states, start: 0, accepting, accept_pattern, pattern_count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nfa(pattern: &str) -> Nfa {
        Nfa::from_pattern(pattern).unwrap()
    }

    #[test]
    fn literal_acceptance() {
        let n = nfa("abc");
        assert!(n.accepts(b"abc"));
        assert!(!n.accepts(b"ab"));
        assert!(!n.accepts(b"abcd"));
        assert!(!n.accepts(b""));
        assert!(!n.accepts(b"abd"));
    }

    #[test]
    fn empty_pattern_accepts_only_empty() {
        let n = nfa("");
        assert!(n.accepts(b""));
        assert!(!n.accepts(b"a"));
    }

    #[test]
    fn alternation_and_star() {
        let n = nfa("(ab)*");
        assert!(n.accepts(b""));
        assert!(n.accepts(b"ab"));
        assert!(n.accepts(b"abab"));
        assert!(!n.accepts(b"aba"));
        assert!(!n.accepts(b"ba"));

        let n = nfa("a|bc|d");
        assert!(n.accepts(b"a"));
        assert!(n.accepts(b"bc"));
        assert!(n.accepts(b"d"));
        assert!(!n.accepts(b"b"));
        assert!(!n.accepts(b"ad"));
    }

    #[test]
    fn plus_and_optional() {
        let n = nfa("a+b?");
        assert!(n.accepts(b"a"));
        assert!(n.accepts(b"aa"));
        assert!(n.accepts(b"aab"));
        assert!(!n.accepts(b""));
        assert!(!n.accepts(b"b"));
        assert!(!n.accepts(b"abb"));
    }

    #[test]
    fn counted_repetitions() {
        let n = nfa("a{3}");
        assert!(n.accepts(b"aaa"));
        assert!(!n.accepts(b"aa"));
        assert!(!n.accepts(b"aaaa"));

        let n = nfa("a{2,4}");
        assert!(!n.accepts(b"a"));
        assert!(n.accepts(b"aa"));
        assert!(n.accepts(b"aaa"));
        assert!(n.accepts(b"aaaa"));
        assert!(!n.accepts(b"aaaaa"));

        let n = nfa("a{2,}");
        assert!(!n.accepts(b"a"));
        assert!(n.accepts(b"aa"));
        assert!(n.accepts(b"aaaaaaa"));

        let n = nfa("(ab){0,2}");
        assert!(n.accepts(b""));
        assert!(n.accepts(b"ab"));
        assert!(n.accepts(b"abab"));
        assert!(!n.accepts(b"ababab"));
    }

    #[test]
    fn classes_and_dot() {
        let n = nfa("[0-4]{2}[5-9]{2}");
        assert!(n.accepts(b"0459"));
        assert!(n.accepts(b"4455"));
        assert!(!n.accepts(b"0945"));
        assert!(!n.accepts(b"045"));

        let n = nfa("a.c");
        assert!(n.accepts(b"abc"));
        assert!(n.accepts(b"axc"));
        assert!(n.accepts(b"a\xffc"));
        assert!(!n.accepts(b"a\nc"), "dot must not match newline by default");
    }

    #[test]
    fn paper_running_example() {
        // L((ab)*) from Fig. 1 of the paper.
        let n = nfa("(ab)*");
        for (input, expected) in [
            (&b""[..], true),
            (b"ab", true),
            (b"abab", true),
            (b"ababab", true),
            (b"a", false),
            (b"b", false),
            (b"ba", false),
            (b"abb", false),
        ] {
            assert_eq!(n.accepts(input), expected, "input {:?}", input);
        }
    }

    #[test]
    fn rn_family() {
        // r_n = ([0-4]{n}[5-9]{n})* — the scalability family of Sect. VI-B.
        let n = nfa("([0-4]{2}[5-9]{2})*");
        assert!(n.accepts(b""));
        assert!(n.accepts(b"0055"));
        assert!(n.accepts(b"00550459"));
        assert!(!n.accepts(b"005"));
        assert!(!n.accepts(b"5500"));
    }

    #[test]
    fn nfa_size_linear_in_pattern() {
        // Table II: |N| = O(m).
        let small = nfa("([0-4]{5}[5-9]{5})*");
        let large = nfa("([0-4]{50}[5-9]{50})*");
        assert!(large.num_states() > small.num_states());
        assert!(large.num_states() < 20 * small.num_states());
    }

    #[test]
    fn epsilon_closure_reaches_through_chains() {
        let n = nfa("(a*)*b");
        let closure = n.start_closure();
        // The closure must contain the start and at least the state that can
        // read `a` and the one that can read `b`.
        assert!(closure.len() >= 3);
        assert!(closure.contains(n.start()));
    }

    #[test]
    fn too_large_repetition_rejected() {
        let ast = sfa_regex_syntax::parse("(abcdefghij){2000}").unwrap();
        let err = Nfa::from_ast(&ast).unwrap_err();
        assert!(matches!(err, CompileError::RepetitionTooLarge { .. }));
    }

    #[test]
    fn used_bytes_reports_alphabet() {
        let n = nfa("[ab]c");
        let used = n.used_bytes();
        assert!(used.contains(b'a') && used.contains(b'b') && used.contains(b'c'));
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn from_asts_tags_accept_states_per_pattern() {
        let n = Nfa::from_patterns(["(ab)*", "a+", "b"]).unwrap();
        assert_eq!(n.pattern_count(), 3);
        assert_eq!(n.accepting().len(), 3);
        assert_eq!(n.accept_patterns(), &[0, 1, 2]);
        // Any-match semantics are the union of the branches.
        assert!(n.accepts(b""));
        assert!(n.accepts(b"ab"));
        assert!(n.accepts(b"aaa"));
        assert!(n.accepts(b"b"));
        assert!(!n.accepts(b"ba"));
        // Per-pattern semantics distinguish the branches.
        let hits = n.matching_patterns(b"ab");
        assert!(hits.contains(0) && !hits.contains(1) && !hits.contains(2));
        let hits = n.matching_patterns(b"a");
        assert!(!hits.contains(0) && hits.contains(1));
        let hits = n.matching_patterns(b"b");
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![2]);
        let hits = n.matching_patterns(b"");
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![0], "only (ab)* is nullable");
        assert!(n.matching_patterns(b"ba").is_empty());
    }

    #[test]
    fn from_asts_overlapping_patterns_all_fire() {
        // "a" is accepted by patterns 0 and 2 simultaneously.
        let n = Nfa::from_patterns(["a", "aa", "[ab]"]).unwrap();
        let hits = n.matching_patterns(b"a");
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(n.matching_patterns(b"aa").iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn empty_pattern_list_is_void() {
        let n = Nfa::from_asts(&[]).unwrap();
        assert_eq!(n.pattern_count(), 0);
        assert_eq!(n.num_states(), 1);
        assert!(!n.accepts(b""));
        assert!(!n.accepts(b"a"));
        assert!(n.matching_patterns(b"").is_empty());
        assert!(n.pattern_accept_sets().is_empty());
    }

    #[test]
    fn single_pattern_constructors_report_one_pattern() {
        let n = nfa("(ab)*");
        assert_eq!(n.pattern_count(), 1);
        assert_eq!(n.accept_patterns(), &[0]);
        assert_eq!(n.matching_patterns(b"abab").iter().collect::<Vec<_>>(), vec![0]);
        assert!(n.matching_patterns(b"aba").is_empty());
    }

    #[test]
    fn from_parts_roundtrip() {
        // A tiny hand-built NFA accepting `a+`.
        let states = vec![
            NfaState { transitions: vec![(ByteSet::singleton(b'a'), 1)], epsilon: vec![] },
            NfaState { transitions: vec![(ByteSet::singleton(b'a'), 1)], epsilon: vec![] },
        ];
        let n = Nfa::from_parts(states, 0, vec![1]);
        assert!(n.accepts(b"a"));
        assert!(n.accepts(b"aaa"));
        assert!(!n.accepts(b""));
        assert_eq!(n.num_states(), 2);
        assert_eq!(n.num_transitions(), 2);
        assert_eq!(n.num_epsilon_transitions(), 0);
    }
}
