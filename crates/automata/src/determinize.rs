//! Subset construction (Algorithm 1 of the paper): building a DFA from an
//! NFA.

use crate::byteclass::ByteClasses;
use crate::dfa::Dfa;
use crate::error::CompileError;
use crate::nfa::{Nfa, StateId};
use crate::pattern::{PatternId, PatternSet};
use crate::stateset::StateSet;
use sfa_regex_syntax::ast::Ast;
use std::collections::HashMap;

/// Configuration of the subset construction.
#[derive(Clone, Debug)]
pub struct DfaConfig {
    /// Upper bound on the number of DFA states; construction fails with
    /// [`CompileError::TooManyStates`] when exceeded.
    pub max_states: usize,
    /// Compress the alphabet into byte classes (on by default). With
    /// `false` the transition table uses the paper's fixed 256-entry rows.
    pub compress_alphabet: bool,
}

impl Default for DfaConfig {
    fn default() -> Self {
        DfaConfig { max_states: 100_000, compress_alphabet: true }
    }
}

/// Runs the subset construction on an NFA.
///
/// The resulting DFA is *complete*: the empty subset becomes an ordinary
/// dead state, so every state has a successor for every byte class. The
/// construction only ever creates accessible states, mirroring Algorithm 1
/// which starts from `{I}` and explores outward.
pub fn determinize(nfa: &Nfa, config: &DfaConfig) -> Result<Dfa, CompileError> {
    let classes = if config.compress_alphabet {
        let sets: Vec<&sfa_regex_syntax::ByteSet> =
            nfa.states().iter().flat_map(|s| s.transitions.iter().map(|(set, _)| set)).collect();
        if sets.is_empty() {
            ByteClasses::single()
        } else {
            ByteClasses::from_sets(sets)
        }
    } else {
        ByteClasses::identity()
    };
    let stride = classes.count();
    let reps = classes.representatives();

    let mut table: Vec<StateId> = Vec::new();
    let mut accept_index: Vec<u32> = Vec::new();
    let mut ids: HashMap<StateSet, StateId> = HashMap::new();
    let mut worklist: Vec<StateSet> = Vec::new();

    // Per-pattern NFA accept sets: a DFA subset state accepts pattern `p`
    // iff it contains one of pattern p's accept states. Distinct pattern
    // accept sets are interned so states sharing one share an allocation.
    let pattern_count = nfa.pattern_count();
    let pattern_sets = nfa.pattern_accept_sets();
    let mut accept_sets: Vec<PatternSet> = vec![PatternSet::new(pattern_count)];
    let mut accept_set_ids: HashMap<PatternSet, u32> = HashMap::new();
    accept_set_ids.insert(accept_sets[0].clone(), 0);

    let intern = |set: StateSet,
                  accept_index: &mut Vec<u32>,
                  worklist: &mut Vec<StateSet>,
                  ids: &mut HashMap<StateSet, StateId>,
                  accept_sets: &mut Vec<PatternSet>,
                  accept_set_ids: &mut HashMap<PatternSet, u32>|
     -> Result<StateId, CompileError> {
        if let Some(&id) = ids.get(&set) {
            return Ok(id);
        }
        let id = accept_index.len() as StateId;
        if accept_index.len() >= config.max_states {
            return Err(CompileError::TooManyStates { limit: config.max_states });
        }
        let pats = PatternSet::from_iter(
            pattern_count,
            pattern_sets
                .iter()
                .enumerate()
                .filter(|(_, ps)| set.intersects(ps))
                .map(|(p, _)| p as PatternId),
        );
        // get-then-insert rather than entry(): nearly every state hits an
        // already-interned set, and entry() would clone the key per call.
        let set_id = match accept_set_ids.get(&pats) {
            Some(&id) => id,
            None => {
                let id = accept_sets.len() as u32;
                accept_sets.push(pats.clone());
                accept_set_ids.insert(pats, id);
                id
            }
        };
        accept_index.push(set_id);
        ids.insert(set.clone(), id);
        worklist.push(set);
        Ok(id)
    };

    let start_set = nfa.start_closure();
    let start = intern(
        start_set,
        &mut accept_index,
        &mut worklist,
        &mut ids,
        &mut accept_sets,
        &mut accept_set_ids,
    )?;
    debug_assert_eq!(start, 0);

    let mut processed = 0usize;
    while processed < worklist.len() {
        let current = worklist[processed].clone();
        processed += 1;
        // Rows are appended in state order, so the table stays row-major.
        debug_assert_eq!(table.len(), (processed - 1) * stride);
        for &rep in reps.iter().take(stride) {
            let next_set = nfa.step(&current, rep);
            let next_id = intern(
                next_set,
                &mut accept_index,
                &mut worklist,
                &mut ids,
                &mut accept_sets,
                &mut accept_set_ids,
            )?;
            table.push(next_id);
        }
    }

    Ok(Dfa::from_parts_with_patterns(
        classes,
        table,
        accept_index,
        accept_sets,
        start,
        pattern_count,
    ))
}

/// Determinizes the tagged union of two branch lists from their own
/// DFAs, without building or stepping the union's NFA.
///
/// `a` and `b` are each the subset construction of one branch list: a
/// single branch's [`Nfa::from_ast`], several branches'
/// [`Nfa::from_asts`], or an earlier `determinize_union`. The result is
/// exactly what `determinize(&Nfa::from_asts(a's branches ++ b's))`
/// returns: the same byte classes, transitions, start and accept sets
/// (`b`'s pattern ids shifted by `a.pattern_count()`), and
/// [`CompileError::TooManyStates`] under the same `config.max_states`.
/// Both operands must have been built under `config`'s alphabet setting.
///
/// Why the product is exact: the union NFA is a fresh ε-start plus the
/// disjoint states of both branch lists. After a nonempty word its
/// subset is the union of what each side reached, and each side's DFA
/// gives every subset it reaches its own id, so union subsets and
/// reachable pairs `(δ_a(w), δ_b(w))` correspond one to one. The start
/// subset alone holds the fresh ε-start, which no word returns to: it
/// stays its own state 0 even where the pair of the two start states
/// recurs. The union's byte sets are both sides' sets, so its classes
/// are the [common refinement](ByteClasses::refine) of theirs. States
/// are explored breadth-first by id and class, the order of
/// [`determinize`], so the ids coincide too.
pub fn determinize_union(a: &Dfa, b: &Dfa, config: &DfaConfig) -> Result<Dfa, CompileError> {
    let classes = a.classes().refine(b.classes());
    debug_assert!(config.compress_alphabet || classes.count() == 256);
    let stride = classes.count();
    let (class_a, class_b): (Vec<u16>, Vec<u16>) = classes
        .representatives()
        .iter()
        .map(|&r| (a.classes().class_of(r), b.classes().class_of(r)))
        .unzip();
    let shift = a.pattern_count() as PatternId;
    let pattern_count = a.pattern_count() + b.pattern_count();

    // `pairs[s]` is the pair of operand states that state `s` stands for.
    // State 0's pair, the two start states, never enters `ids`, so the
    // pair recurring after a nonempty word becomes a state of its own.
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();
    let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut table: Vec<StateId> = Vec::new();
    let mut accept_index: Vec<u32> = Vec::new();
    // A pair's accept set is determined by its operands' accept-set
    // indices, and distinct index pairs give distinct unions (the two
    // sides' pattern ids are disjoint), so interning by index pair hands
    // out the ids `determinize` gives the sets themselves.
    let mut accept_sets: Vec<PatternSet> = vec![PatternSet::new(pattern_count)];
    let mut accept_set_ids: HashMap<(u32, u32), u32> = HashMap::from([((0, 0), 0)]);
    let mut add_state = |pair: (StateId, StateId),
                         pairs: &mut Vec<(StateId, StateId)>,
                         accept_index: &mut Vec<u32>|
     -> Result<StateId, CompileError> {
        let id = pairs.len() as StateId;
        if pairs.len() >= config.max_states {
            return Err(CompileError::TooManyStates { limit: config.max_states });
        }
        let key = (a.accept_indices()[pair.0 as usize], b.accept_indices()[pair.1 as usize]);
        let set_id = *accept_set_ids.entry(key).or_insert_with(|| {
            let pats =
                a.accept_set(pair.0).iter().chain(b.accept_set(pair.1).iter().map(|p| p + shift));
            accept_sets.push(PatternSet::from_iter(pattern_count, pats));
            (accept_sets.len() - 1) as u32
        });
        accept_index.push(set_id);
        pairs.push(pair);
        Ok(id)
    };

    add_state((a.start(), b.start()), &mut pairs, &mut accept_index)?;
    let mut processed = 0usize;
    while processed < pairs.len() {
        let (p, q) = pairs[processed];
        processed += 1;
        for (&ca, &cb) in class_a.iter().zip(&class_b) {
            let next = (a.next_by_class(p, ca), b.next_by_class(q, cb));
            let id = match ids.get(&next) {
                Some(&id) => id,
                None => {
                    let id = add_state(next, &mut pairs, &mut accept_index)?;
                    ids.insert(next, id);
                    id
                }
            };
            table.push(id);
        }
    }
    debug_assert_eq!(table.len(), pairs.len() * stride);
    Ok(Dfa::from_parts_with_patterns(classes, table, accept_index, accept_sets, 0, pattern_count))
}

/// Convenience: AST → NFA → DFA.
pub fn dfa_from_ast(ast: &Ast, config: &DfaConfig) -> Result<Dfa, CompileError> {
    let nfa = Nfa::from_ast(ast)?;
    determinize(&nfa, config)
}

/// Convenience: pattern → NFA → DFA with the default configuration.
pub fn dfa_from_pattern(pattern: &str) -> Result<Dfa, CompileError> {
    let ast = sfa_regex_syntax::parse(pattern)?;
    dfa_from_ast(&ast, &DfaConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfa(pattern: &str) -> Dfa {
        dfa_from_pattern(pattern).unwrap()
    }

    #[test]
    fn dfa_agrees_with_nfa_on_examples() {
        for pattern in [
            "(ab)*",
            "a|bc|d",
            "[0-4]{2}[5-9]{2}",
            "(a|b)*abb",
            "a{2,4}b*",
            "([0-4]{2}[5-9]{2})*",
            "(?i)select\\s+.*from",
        ] {
            let nfa = Nfa::from_pattern(pattern).unwrap();
            let dfa = dfa(pattern);
            for input in [
                &b""[..],
                b"ab",
                b"abab",
                b"abb",
                b"aabb",
                b"0459",
                b"00559955",
                b"SELECT  x FROM",
                b"select from",
                b"zzzz",
            ] {
                assert_eq!(
                    nfa.accepts(input),
                    dfa.accepts(input),
                    "pattern {:?} input {:?}",
                    pattern,
                    input
                );
            }
        }
    }

    #[test]
    fn dfa_is_complete() {
        let d = dfa("abc");
        for q in 0..d.num_states() as StateId {
            for b in [0u8, b'a', b'z', 255] {
                let t = d.next_state(q, b);
                assert!((t as usize) < d.num_states());
            }
        }
    }

    #[test]
    fn paper_sizes_for_rn_family() {
        // Sect. VI-B: the minimal DFA of r_n has 2n (live) states.
        // Subset construction alone may give a few more; the live count
        // after minimization is asserted in minimize.rs. Here we check the
        // subset construction already yields a small automaton and the right
        // language.
        let d = dfa("([0-4]{2}[5-9]{2})*");
        assert!(d.accepts(b""));
        assert!(d.accepts(b"0055"));
        assert!(d.accepts(b"04590459"));
        assert!(!d.accepts(b"0459045"));
        assert!(d.num_states() <= 8);
        assert_eq!(d.num_classes(), 3);
    }

    #[test]
    fn uncompressed_alphabet_uses_256_classes() {
        let ast = sfa_regex_syntax::parse("(ab)*").unwrap();
        let d = dfa_from_ast(&ast, &DfaConfig { compress_alphabet: false, ..Default::default() })
            .unwrap();
        assert_eq!(d.num_classes(), 256);
        assert!(d.accepts(b"abab"));
        assert!(!d.accepts(b"abba"));
        // Identity layout matches the paper's 1 KB/state with 4-byte entries.
        assert_eq!(d.table_bytes(), d.num_states() * 1024);
    }

    #[test]
    fn state_limit_enforced() {
        // An expression with an exponentially sized DFA: (a|b)*a(a|b){12}
        let err = dfa_from_ast(
            &sfa_regex_syntax::parse("(a|b)*a(a|b){12}").unwrap(),
            &DfaConfig { max_states: 100, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(err, CompileError::TooManyStates { limit: 100 });
    }

    #[test]
    fn exponential_blowup_succeeds_with_generous_limit() {
        // |DFA| ≈ 2^13 for this classic family.
        let d = dfa("(a|b)*a(a|b){12}");
        assert!(d.num_states() > 4096);
        assert!(d.accepts(b"abbbbbbbbbbbb"));
        assert!(!d.accepts(b"abbbbbbbbbbbba"));
        assert!(!d.accepts(b"b"));
    }

    #[test]
    fn empty_language_dfa() {
        // `a` intersected with nothing — simplest empty-ish case is a class
        // that cannot match anything beyond its mandatory part; use a void
        // pattern built from an empty class via AST.
        use sfa_regex_syntax::ast::Ast;
        use sfa_regex_syntax::ByteSet;
        let ast = Ast::Class(ByteSet::EMPTY);
        let d = dfa_from_ast(&ast, &DfaConfig::default()).unwrap();
        assert!(d.is_empty_language());
        assert!(!d.accepts(b""));
        assert!(!d.accepts(b"a"));
    }

    #[test]
    fn empty_pattern_dfa() {
        let d = dfa("");
        assert!(d.accepts(b""));
        assert!(!d.accepts(b"x"));
        assert_eq!(d.num_classes(), 1);
    }

    #[test]
    fn multi_pattern_accept_sets_follow_the_nfa() {
        let nfa = Nfa::from_patterns(["(ab)*", "a+", "[ab]{2}"]).unwrap();
        let d = determinize(&nfa, &DfaConfig::default()).unwrap();
        assert_eq!(d.pattern_count(), 3);
        for input in [&b""[..], b"a", b"ab", b"aa", b"ba", b"abab", b"aaa", b"b"] {
            let via_nfa = nfa.matching_patterns(input);
            let via_dfa = d.matching_patterns(input);
            assert_eq!(&via_nfa, via_dfa, "input {:?}", input);
            assert_eq!(d.accepts(input), !via_dfa.is_empty(), "input {:?}", input);
        }
        // "ab" fires (ab)* and [ab]{2} simultaneously.
        let hits = d.matching_patterns(b"ab");
        assert_eq!(hits.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn single_pattern_accept_sets_are_zero_or_singleton() {
        let d = dfa("(ab)*");
        assert_eq!(d.pattern_count(), 1);
        for q in 0..d.num_states() as StateId {
            let set = d.accept_set(q);
            assert_eq!(d.is_accepting(q), !set.is_empty());
            assert_eq!(set.len(), d.is_accepting(q) as usize);
        }
    }

    /// `(ab)*` built by hand with its start state as the accept state:
    /// "ab" returns its DFA to state 0, which the AST compiler never does.
    fn recurring_start(accept: StateId) -> Nfa {
        use crate::nfa::NfaState;
        use sfa_regex_syntax::ByteSet;
        let state = |byte, to| NfaState {
            transitions: vec![(ByteSet::singleton(byte), to)],
            ..Default::default()
        };
        Nfa::from_parts(vec![state(b'a', 1), state(b'b', 0)], 0, vec![accept])
    }

    #[test]
    fn union_product_keeps_the_fresh_start_apart_from_a_recurring_pair() {
        let cfg = DfaConfig::default();
        let (left, right) = (recurring_start(0), recurring_start(1));
        let a = determinize(&left, &cfg).unwrap();
        let b = determinize(&right, &cfg).unwrap();
        assert_eq!(a.run(b"ab"), a.start(), "the left operand's start recurs");
        let product = determinize_union(&a, &b, &cfg).unwrap();
        let expected = determinize(&Nfa::tagged_union(&[&left, &right]), &cfg).unwrap();
        assert_eq!(product, expected);
        let identity = DfaConfig { compress_alphabet: false, ..DfaConfig::default() };
        let (a256, b256) = (determinize(&left, &identity), determinize(&right, &identity));
        assert_eq!(
            determinize_union(&a256.unwrap(), &b256.unwrap(), &identity),
            determinize(&Nfa::tagged_union(&[&left, &right]), &identity)
        );
        // The pair of start states after "ab" is a state of its own.
        assert_ne!(product.run(b"ab"), product.start());
        assert_eq!(product.matching_patterns(b"ab").iter().collect::<Vec<_>>(), [0]);
        assert_eq!(product.matching_patterns(b"a").iter().collect::<Vec<_>>(), [1]);

        // A one-branch AST operand on the right, and the limit edge: the
        // exact state count passes, one less fails like `determinize`.
        let ast = sfa_regex_syntax::parse("b(ab)*").unwrap();
        let c = determinize(&Nfa::from_ast(&ast).unwrap(), &cfg).unwrap();
        let union = Nfa::tagged_union(&[&left, &Nfa::from_ast(&ast).unwrap()]);
        let expected = determinize(&union, &cfg).unwrap();
        let n = expected.num_states();
        let at = |limit| DfaConfig { max_states: limit, ..DfaConfig::default() };
        assert_eq!(determinize_union(&a, &c, &at(n)), Ok(expected));
        let err = CompileError::TooManyStates { limit: n - 1 };
        assert_eq!(determinize_union(&a, &c, &at(n - 1)), Err(err.clone()));
        assert_eq!(determinize(&union, &at(n - 1)), Err(err));
    }

    #[test]
    fn empty_pattern_list_determinizes_to_void() {
        let nfa = Nfa::from_asts(&[]).unwrap();
        let d = determinize(&nfa, &DfaConfig::default()).unwrap();
        assert_eq!(d.pattern_count(), 0);
        assert!(d.is_empty_language());
        assert!(!d.accepts(b""));
        assert!(d.matching_patterns(b"anything").is_empty());
    }
}
