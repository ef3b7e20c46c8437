//! # sfa-analysis
//!
//! Offline convergence analysis of compiled [`Dfa`]s.
//!
//! The paper's speculative baseline (Algorithm 3) simulates every chunk
//! from **all** `|Q|` states, which is where its `O(|Q| · n / p)` cost
//! comes from. Real scanning automata are usually far better behaved:
//! after a short window of arbitrary input most start states have either
//! died or collapsed together (they are *synchronizing* in the sense of
//! Gusev, Maslennikova & Pribavkina, "Principal ideal languages and
//! synchronizing automata"). This crate computes that structure **once,
//! offline**, so the matcher can exploit it on every match:
//!
//! * **k-step reach sets** `R_k ⊆ Q` — the states reachable after `k`
//!   bytes of *arbitrary* input, computed as a shrinking fixpoint over
//!   byte classes (`R_0 = Q`, `R_{k+1} = δ(R_k, Σ)`). Any chunk that
//!   starts at offset `≥ k` can only be entered in a state from `R_k`,
//!   so a speculative worker never needs to simulate the rest.
//! * **Merging/reset words** — a short word sending *every* state to one
//!   state, found by greedy Eppstein-style pair-merging over the pair
//!   automaton (backward BFS from the merged diagonal, then greedily
//!   merging the current set pair by pair).
//! * **Dead/unreachable-state and sink-distance maps** — which states
//!   cannot reach an accepting state, which are unreachable from the
//!   start, and how many bytes each state needs to fall into an
//!   absorbing sink.
//! * A [`ConvergenceClass`] verdict per automaton, reported to callers
//!   and in size reports. It does not choose a strategy: the matcher's
//!   `Strategy::Auto` runs SFA composition (the paper's Algorithm 5)
//!   whatever the class, and the guided speculative matcher is the
//!   explicit `Strategy::Speculative`.
//!
//! The analysis is advisory for performance but **sound for entry sets**:
//! `R_k` over-approximates every state a chunk boundary can be in, so the
//! guided matcher's restricted tables always contain the true state.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use sfa_automata::{ByteClasses, Dfa, StateId};
use std::collections::VecDeque;

/// Caps on the analysis cost. The defaults keep the pass cheap enough to
/// run lazily on first use inside a compiled regex.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Maximum number of reach-fixpoint iterations (`R_k` levels) before
    /// giving up on stabilization. Real scanning automata stabilize in a
    /// handful of steps; bounded-length whole-match automata need about
    /// their maximum word length.
    pub depth_cap: usize,
    /// Pair-automaton analysis (merging/reset words) is skipped for
    /// automata with more states than this — it costs `O(|Q|² · |Σ|)`
    /// time and `O(|Q|²)` memory. Skipping is conservative: the automaton
    /// classifies as [`Converging`](ConvergenceClass::Converging) or
    /// [`NonConverging`](ConvergenceClass::NonConverging) from the reach
    /// fixpoint alone.
    pub pair_state_cap: usize,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig { depth_cap: 64, pair_state_cap: 256 }
    }
}

/// The per-automaton convergence verdict (see [`ConvergenceReport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvergenceClass {
    /// A reset word exists: some word drives **every** state to the same
    /// state. Contains-mode scanning automata are almost always here —
    /// the needle itself is a reset word (every state that sees the full
    /// needle lands in the absorbing accept sink).
    Synchronizing {
        /// Length in bytes of the reset word the greedy merger found (an
        /// upper bound on the shortest one).
        horizon: usize,
        /// `|R_∞|` — how many states remain reachable under arbitrary
        /// input, i.e. the worst-case entry-set size for a late chunk.
        survivors: usize,
    },
    /// No reset word was found, but the reach fixpoint shrank: only
    /// `survivors < |Q|` states are reachable after long arbitrary input
    /// (the rest are transient), so restricted speculation still pays.
    Converging {
        /// `|R_∞|`, as above.
        survivors: usize,
    },
    /// Neither analysis found structure to exploit (e.g. permutation
    /// automata, where no two states ever merge): speculation must pay
    /// the full `O(|Q|)` per byte, so the SFA composition path wins.
    NonConverging,
}

/// The result of analyzing one [`Dfa`]: reach sets, reset word, dead /
/// unreachable / sink maps and the [`ConvergenceClass`] verdict. Built by
/// [`ConvergenceReport::analyze`]; all queries afterwards are cheap.
#[derive(Clone, Debug)]
pub struct ConvergenceReport {
    num_states: usize,
    classes: ByteClasses,
    /// `levels[k]` = sorted ids of `R_k`; `levels[0]` is all of `Q` and
    /// the sets only shrink. The last level is the fixpoint (or the
    /// depth-capped frontier).
    levels: Vec<Vec<StateId>>,
    stabilized: bool,
    reset_word: Option<Vec<u8>>,
    pair_analysis_ran: bool,
    unreachable: Vec<bool>,
    dead: Vec<bool>,
    sink_distance: Vec<Option<u32>>,
    /// Per byte class: `|δ(R_∞, c)|`, the entry-set size a chunk boundary
    /// placed right after a byte of that class would see.
    class_image_sizes: Vec<usize>,
    min_class_image: usize,
    class: ConvergenceClass,
}

/// Inverse transition lists in CSR form, one row group per byte class.
struct InverseEdges {
    num_states: usize,
    /// `offsets[c * (n + 1) + s]` .. next entry = predecessor range.
    offsets: Vec<u32>,
    data: Vec<StateId>,
}

impl InverseEdges {
    fn build(dfa: &Dfa) -> InverseEdges {
        let n = dfa.num_states();
        let nc = dfa.num_classes();
        let mut counts = vec![0u32; nc * (n + 1)];
        for q in 0..n as StateId {
            for c in 0..nc as u16 {
                let t = dfa.next_by_class(q, c) as usize;
                counts[c as usize * (n + 1) + t + 1] += 1;
            }
        }
        let mut offsets = counts;
        for c in 0..nc {
            let row = &mut offsets[c * (n + 1)..(c + 1) * (n + 1)];
            for i in 1..row.len() {
                row[i] += row[i - 1];
            }
        }
        let base: Vec<u32> = (0..nc).map(|c| (c * n) as u32).collect();
        let mut cursor = offsets.clone();
        let mut data = vec![0 as StateId; nc * n];
        for q in 0..n as StateId {
            for c in 0..nc as u16 {
                let t = dfa.next_by_class(q, c) as usize;
                let slot = &mut cursor[c as usize * (n + 1) + t];
                data[(base[c as usize] + *slot) as usize] = q;
                *slot += 1;
            }
        }
        InverseEdges { num_states: n, offsets, data }
    }

    fn preds(&self, class: u16, state: StateId) -> &[StateId] {
        let n = self.num_states;
        let row = class as usize * (n + 1) + state as usize;
        let start = (class as usize * n) + self.offsets[row] as usize;
        let end = (class as usize * n) + self.offsets[row + 1] as usize;
        &self.data[start..end]
    }
}

impl ConvergenceReport {
    /// Analyzes a DFA with the default [`AnalysisConfig`].
    pub fn analyze(dfa: &Dfa) -> ConvergenceReport {
        ConvergenceReport::analyze_with(dfa, &AnalysisConfig::default())
    }

    /// Analyzes a DFA under explicit cost caps.
    pub fn analyze_with(dfa: &Dfa, config: &AnalysisConfig) -> ConvergenceReport {
        let n = dfa.num_states();
        let nc = dfa.num_classes() as u16;
        let classes = dfa.classes().clone();

        // (a) The reach fixpoint R_0 ⊇ R_1 ⊇ … (images only shrink, so a
        // level with the same cardinality as its predecessor *is* the
        // fixpoint).
        let mut levels: Vec<Vec<StateId>> = vec![(0..n as StateId).collect()];
        let mut stabilized = false;
        for _ in 0..config.depth_cap {
            let prev = levels.last().expect("at least R_0");
            let mut mark = vec![false; n];
            let mut next: Vec<StateId> = Vec::with_capacity(prev.len());
            for &q in prev {
                for c in 0..nc {
                    let t = dfa.next_by_class(q, c);
                    if !mark[t as usize] {
                        mark[t as usize] = true;
                        next.push(t);
                    }
                }
            }
            if next.len() == prev.len() {
                stabilized = true;
                break;
            }
            next.sort_unstable();
            levels.push(next);
        }

        let inverse = InverseEdges::build(dfa);

        // (c) Dead / unreachable / sink-distance maps.
        let dead: Vec<bool> = dfa.live_states().iter().map(|&l| !l).collect();
        let unreachable = unreachable_states(dfa);
        let sink_distance = sink_distances(dfa, &inverse);

        // (b) Greedy Eppstein pair-merging, capped by automaton size.
        let (reset_word, pair_analysis_ran) = if n == 1 {
            (Some(Vec::new()), true)
        } else if n <= config.pair_state_cap {
            (find_reset_word(dfa, &inverse), true)
        } else {
            (None, false)
        };

        let survivors_set = levels.last().expect("at least R_0");
        let survivors = survivors_set.len();
        let mut class_image_sizes = Vec::with_capacity(nc as usize);
        let mut mark = vec![false; n];
        for c in 0..nc {
            let mut size = 0usize;
            for &q in survivors_set {
                let t = dfa.next_by_class(q, c) as usize;
                if !mark[t] {
                    mark[t] = true;
                    size += 1;
                }
            }
            for &q in survivors_set {
                mark[dfa.next_by_class(q, c) as usize] = false;
            }
            class_image_sizes.push(size);
        }
        let min_class_image = class_image_sizes.iter().copied().min().unwrap_or(n);

        let class = match &reset_word {
            Some(word) => ConvergenceClass::Synchronizing { horizon: word.len(), survivors },
            None if survivors < n => ConvergenceClass::Converging { survivors },
            None => ConvergenceClass::NonConverging,
        };

        ConvergenceReport {
            num_states: n,
            classes,
            levels,
            stabilized,
            reset_word,
            pair_analysis_ran,
            unreachable,
            dead,
            sink_distance,
            class_image_sizes,
            min_class_image,
            class,
        }
    }

    /// Number of states of the analyzed DFA.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The convergence verdict.
    pub fn class(&self) -> ConvergenceClass {
        self.class
    }

    /// `R_k` — the sorted ids of every state reachable after `k` bytes of
    /// arbitrary input. `k` past the computed depth clamps to the last
    /// level (sound: the sets only shrink).
    pub fn reach_set(&self, k: usize) -> &[StateId] {
        &self.levels[k.min(self.levels.len() - 1)]
    }

    /// The deepest computed reach level: the fixpoint depth when
    /// [`stabilized`](ConvergenceReport::stabilized) is true, the depth
    /// cap otherwise.
    pub fn reach_horizon(&self) -> usize {
        self.levels.len() - 1
    }

    /// Whether the reach fixpoint stabilized before the depth cap.
    pub fn stabilized(&self) -> bool {
        self.stabilized
    }

    /// `R_∞` (really the last computed level): the worst-case entry set
    /// of a chunk starting after at least
    /// [`reach_horizon`](ConvergenceReport::reach_horizon) bytes.
    pub fn survivors(&self) -> &[StateId] {
        self.levels.last().expect("at least R_0")
    }

    /// `|R_∞|`.
    pub fn survivor_count(&self) -> usize {
        self.survivors().len()
    }

    /// The reset word found by greedy pair-merging: a word sending every
    /// state to one state. `None` when the automaton is not synchronizing
    /// (or the pair analysis was skipped by
    /// [`AnalysisConfig::pair_state_cap`]).
    pub fn reset_word(&self) -> Option<&[u8]> {
        self.reset_word.as_deref()
    }

    /// Whether the pair-automaton analysis ran (false when skipped by the
    /// state cap — `None` reset words are then inconclusive).
    pub fn pair_analysis_ran(&self) -> bool {
        self.pair_analysis_ran
    }

    /// Per-state map: true when the state cannot be reached from the
    /// start state (minimized automata have none).
    pub fn unreachable_states(&self) -> &[bool] {
        &self.unreachable
    }

    /// Per-state map: true when the state can no longer reach an
    /// accepting state (the complement of [`Dfa::live_states`]).
    pub fn dead_states(&self) -> &[bool] {
        &self.dead
    }

    /// Per-state map: the minimum number of bytes driving the state into
    /// an absorbing sink (a state whose every transition self-loops);
    /// `None` when no sink is reachable from it. Sinks themselves are
    /// `Some(0)`.
    pub fn sink_distance(&self) -> &[Option<u32>] {
        &self.sink_distance
    }

    /// `|δ(R_∞, class_of(byte))|` — how many states survive a chunk
    /// boundary placed right after this byte. The guided chunk splitter
    /// nudges boundaries to sit after bytes minimizing this.
    pub fn boundary_image_size(&self, byte: u8) -> usize {
        self.class_image_sizes[self.classes.class_of(byte) as usize]
    }

    /// True for bytes whose class achieves the minimum boundary image —
    /// and that minimum actually shrinks the survivor set. These are the
    /// "likely synchronizing" positions worth nudging a chunk boundary
    /// behind.
    pub fn is_synchronizing_byte(&self, byte: u8) -> bool {
        self.min_class_image < self.survivor_count()
            && self.boundary_image_size(byte) == self.min_class_image
    }

    /// The byte horizon after which a speculative worker should first try
    /// to compact its state table: the reset-word length for
    /// synchronizing automata, the reach fixpoint depth otherwise.
    pub fn compaction_horizon(&self) -> usize {
        match self.class {
            ConvergenceClass::Synchronizing { horizon, .. } => horizon,
            _ => self.reach_horizon(),
        }
    }

    /// The sound entry set for a chunk preceded by `prev_len` bytes of
    /// input ending in `prev_byte`: `δ(R_{prev_len − 1}, class_of(prev_byte))`,
    /// sorted. Whatever state the *true* run is in at that boundary — and
    /// whatever states a worst-case upstream chunk map could produce — is
    /// in this set, because any state at the boundary was reached by at
    /// least `prev_len − 1` arbitrary bytes followed by `prev_byte`.
    ///
    /// `dfa` must be the automaton this report was computed from.
    pub fn entry_set(&self, dfa: &Dfa, prev_len: usize, prev_byte: u8) -> Vec<StateId> {
        let level = self.reach_set(prev_len.saturating_sub(1));
        let class = self.classes.class_of(prev_byte);
        let mut mark = vec![false; self.num_states];
        let mut out = Vec::with_capacity(level.len());
        for &q in level {
            let t = dfa.next_by_class(q, class);
            if !mark[t as usize] {
                mark[t as usize] = true;
                out.push(t);
            }
        }
        out.sort_unstable();
        out
    }

    /// The durable projection of this report: the four facts worth
    /// shipping inside a compiled-automaton artifact (see
    /// [`ConvergenceSummary`]).
    pub fn summary(&self) -> ConvergenceSummary {
        ConvergenceSummary {
            class: self.class,
            horizon: self.compaction_horizon(),
            survivors: self.survivor_count(),
            reset_word: self.reset_word.clone(),
        }
    }
}

/// The durable projection of a [`ConvergenceReport`]: class, horizon,
/// survivor count and reset word — everything size reporting consumes,
/// in a form cheap enough to travel inside a serialized automaton
/// artifact. A worker that loads an artifact reads the verdict from here
/// instead of re-running the analysis; only an actual guided speculative
/// *run* (which needs the full reach-set levels) recomputes the report,
/// lazily.
///
/// The wire encoding is a little-endian byte string (see
/// [`to_bytes`](ConvergenceSummary::to_bytes)); it is embedded verbatim
/// in `sfa-serialize` artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceSummary {
    class: ConvergenceClass,
    horizon: usize,
    survivors: usize,
    reset_word: Option<Vec<u8>>,
}

impl ConvergenceSummary {
    /// The convergence verdict ([`ConvergenceReport::class`]).
    pub fn class(&self) -> ConvergenceClass {
        self.class
    }

    /// The compaction horizon ([`ConvergenceReport::compaction_horizon`]).
    pub fn compaction_horizon(&self) -> usize {
        self.horizon
    }

    /// `|R_∞|` ([`ConvergenceReport::survivor_count`]).
    pub fn survivor_count(&self) -> usize {
        self.survivors
    }

    /// The reset word, when the automaton is synchronizing
    /// ([`ConvergenceReport::reset_word`]).
    pub fn reset_word(&self) -> Option<&[u8]> {
        self.reset_word.as_deref()
    }

    /// Serializes the summary to a self-delimiting little-endian byte
    /// string: class tag (`0` non-converging / `1` converging / `2`
    /// synchronizing), horizon, survivors, then the optional reset word
    /// as a length-prefixed tail.
    pub fn to_bytes(&self) -> Vec<u8> {
        let tag: u8 = match self.class {
            ConvergenceClass::NonConverging => 0,
            ConvergenceClass::Converging { .. } => 1,
            ConvergenceClass::Synchronizing { .. } => 2,
        };
        let word = self.reset_word.as_deref().unwrap_or(&[]);
        let mut out = Vec::with_capacity(14 + word.len());
        out.push(tag);
        out.push(u8::from(self.reset_word.is_some()));
        out.extend_from_slice(&(self.horizon as u32).to_le_bytes());
        out.extend_from_slice(&(self.survivors as u32).to_le_bytes());
        out.extend_from_slice(&(word.len() as u32).to_le_bytes());
        out.extend_from_slice(word);
        out
    }

    /// Parses a byte string produced by
    /// [`to_bytes`](ConvergenceSummary::to_bytes). Returns `None` on any
    /// truncation or structural inconsistency (an unknown class tag, a
    /// synchronizing verdict without its reset word, trailing garbage) —
    /// corrupt convergence metadata must fail closed, never steer a
    /// matcher with fabricated facts.
    pub fn from_bytes(bytes: &[u8]) -> Option<ConvergenceSummary> {
        if bytes.len() < 14 {
            return None;
        }
        let tag = bytes[0];
        let has_word = match bytes[1] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let horizon = le32(2);
        let survivors = le32(6);
        let word_len = le32(10);
        if bytes.len() != 14 + word_len || (word_len > 0 && !has_word) {
            return None;
        }
        let reset_word = has_word.then(|| bytes[14..].to_vec());
        let class = match tag {
            0 => ConvergenceClass::NonConverging,
            1 => ConvergenceClass::Converging { survivors },
            2 => ConvergenceClass::Synchronizing { horizon, survivors },
            _ => return None,
        };
        if matches!(class, ConvergenceClass::Synchronizing { .. }) != has_word {
            return None;
        }
        Some(ConvergenceSummary { class, horizon, survivors, reset_word })
    }
}

/// Forward BFS from the start state over all byte classes.
fn unreachable_states(dfa: &Dfa) -> Vec<bool> {
    let n = dfa.num_states();
    let nc = dfa.num_classes() as u16;
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[dfa.start() as usize] = true;
    queue.push_back(dfa.start());
    while let Some(q) = queue.pop_front() {
        for c in 0..nc {
            let t = dfa.next_by_class(q, c);
            if !seen[t as usize] {
                seen[t as usize] = true;
                queue.push_back(t);
            }
        }
    }
    seen.into_iter().map(|s| !s).collect()
}

/// Multi-source backward BFS from the absorbing sinks.
fn sink_distances(dfa: &Dfa, inverse: &InverseEdges) -> Vec<Option<u32>> {
    let n = dfa.num_states();
    let nc = dfa.num_classes() as u16;
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut queue = VecDeque::new();
    for q in 0..n as StateId {
        if (0..nc).all(|c| dfa.next_by_class(q, c) == q) {
            dist[q as usize] = Some(0);
            queue.push_back(q);
        }
    }
    while let Some(q) = queue.pop_front() {
        let d = dist[q as usize].expect("queued states have distances");
        for c in 0..nc {
            for &p in inverse.preds(c, q) {
                if dist[p as usize].is_none() {
                    dist[p as usize] = Some(d + 1);
                    queue.push_back(p);
                }
            }
        }
    }
    dist
}

/// Index of the unordered pair `{p, q}` (`p < q`) in a triangular array.
#[inline]
fn pair_index(p: StateId, q: StateId) -> usize {
    debug_assert!(p < q);
    let (p, q) = (p as usize, q as usize);
    q * (q - 1) / 2 + p
}

/// Greedy Eppstein merging: a backward BFS over the pair automaton labels
/// every mergeable pair with its shortest merging-word length and the
/// first class of one such word; the greedy loop then repeatedly merges
/// one pair of the current set until a single state (reset word found) or
/// a pairwise-unmergeable core (not synchronizing) remains.
fn find_reset_word(dfa: &Dfa, inverse: &InverseEdges) -> Option<Vec<u8>> {
    let n = dfa.num_states();
    let nc = dfa.num_classes() as u16;
    let npairs = n * (n - 1) / 2;
    const UNMERGEABLE: u32 = u32::MAX;
    let mut dist = vec![UNMERGEABLE; npairs];
    let mut via = vec![0u16; npairs];
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();

    // Pairs that merge in one byte seed the BFS.
    for q in 1..n as StateId {
        for p in 0..q {
            for c in 0..nc {
                if dfa.next_by_class(p, c) == dfa.next_by_class(q, c) {
                    let i = pair_index(p, q);
                    dist[i] = 1;
                    via[i] = c;
                    queue.push_back((p, q));
                    break;
                }
            }
        }
    }
    // Backward closure: a predecessor pair of a mergeable pair is
    // mergeable in one more byte.
    while let Some((p, q)) = queue.pop_front() {
        let d = dist[pair_index(p, q)];
        for c in 0..nc {
            for &a in inverse.preds(c, p) {
                for &b in inverse.preds(c, q) {
                    if a == b {
                        continue;
                    }
                    let i = pair_index(a.min(b), a.max(b));
                    if dist[i] == UNMERGEABLE {
                        dist[i] = d + 1;
                        via[i] = c;
                        queue.push_back((a.min(b), a.max(b)));
                    }
                }
            }
        }
    }

    let reps = dfa.classes().representatives();
    let mut set: Vec<StateId> = (0..n as StateId).collect();
    let mut word: Vec<u8> = Vec::new();
    while set.len() > 1 {
        // Any mergeable pair will do (Eppstein picks the closest for a
        // tighter bound; any choice still terminates in ≤ |Q| − 1 merges).
        let mut found = None;
        'scan: for j in 1..set.len() {
            for i in 0..j {
                let (p, q) = (set[i].min(set[j]), set[i].max(set[j]));
                if dist[pair_index(p, q)] != UNMERGEABLE {
                    found = Some((p, q));
                    break 'scan;
                }
            }
        }
        let (mut p, mut q) = found?;
        // Walk the merging word forward; each step strictly decreases the
        // pair distance, so this loop runs exactly dist(p, q) times.
        let steps = dist[pair_index(p, q)];
        for _ in 0..steps {
            let c = via[pair_index(p.min(q), p.max(q))];
            word.push(reps[c as usize]);
            for s in set.iter_mut() {
                *s = dfa.next_by_class(*s, c);
            }
            p = dfa.next_by_class(p, c);
            q = dfa.next_by_class(q, c);
            if p == q {
                break;
            }
        }
        debug_assert_eq!(p, q, "merging word must merge its pair");
        set.sort_unstable();
        set.dedup();
    }
    Some(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_automata::minimal_dfa_from_pattern;
    use sfa_regex_syntax::class::ByteSet;

    /// Builds a DFA over bytes `a`, `b` (everything else a third class)
    /// from explicit per-class successor rows `[on_a, on_b, on_other]`.
    fn dfa_from_rows(rows: &[[StateId; 3]], accepting: Vec<bool>, start: StateId) -> Dfa {
        let classes =
            ByteClasses::from_sets([&ByteSet::singleton(b'a'), &ByteSet::singleton(b'b')]);
        assert_eq!(classes.count(), 3);
        let ca = classes.class_of(b'a') as usize;
        let cb = classes.class_of(b'b') as usize;
        let co = (0..3).find(|&c| c != ca && c != cb).unwrap();
        let mut table = vec![0 as StateId; rows.len() * 3];
        for (q, row) in rows.iter().enumerate() {
            table[q * 3 + ca] = row[0];
            table[q * 3 + cb] = row[1];
            table[q * 3 + co] = row[2];
        }
        Dfa::from_parts(classes, table, accepting, start)
    }

    /// Černý's automaton C_n: `a` is the cyclic shift, `b` maps state 0
    /// to 1 and fixes the rest ("other" bytes are the identity so they
    /// cannot help synchronize).
    fn cerny(n: usize) -> Dfa {
        let rows: Vec<[StateId; 3]> = (0..n)
            .map(|i| {
                let shift = ((i + 1) % n) as StateId;
                let b = if i == 0 { 1 } else { i as StateId };
                [shift, b, i as StateId]
            })
            .collect();
        dfa_from_rows(&rows, vec![false; n], 0)
    }

    fn assert_reset_word_resets(dfa: &Dfa, word: &[u8]) {
        let mut targets: Vec<StateId> =
            (0..dfa.num_states() as StateId).map(|q| dfa.run_from(q, word)).collect();
        targets.dedup();
        assert_eq!(targets.len(), 1, "reset word must send every state to one state");
    }

    #[test]
    fn whole_mode_literal_is_synchronizing_with_one_survivor() {
        let dfa = minimal_dfa_from_pattern("abc").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        assert!(report.stabilized());
        // Arbitrary long input kills a bounded-length whole-match
        // automaton: only the failure sink survives.
        assert_eq!(report.survivor_count(), 1);
        match report.class() {
            ConvergenceClass::Synchronizing { horizon, survivors } => {
                assert_eq!(survivors, 1);
                assert_eq!(horizon, report.reset_word().unwrap().len());
            }
            other => panic!("expected Synchronizing, got {other:?}"),
        }
        assert_reset_word_resets(&dfa, report.reset_word().unwrap());
        // The failure sink is the one absorbing state: distance 0 from
        // itself, finite from everywhere (the language is finite).
        assert!(report.sink_distance().iter().all(|d| d.is_some()));
        assert!(report.unreachable_states().iter().all(|&u| !u), "minimal DFA is trim");
    }

    #[test]
    fn cerny_automaton_synchronizes_without_shrinking_reach() {
        let n = 5;
        let dfa = cerny(n);
        let report = ConvergenceReport::analyze(&dfa);
        // Permutation letter `a` keeps every state reachable forever…
        assert_eq!(report.survivor_count(), n);
        // …but the defect letter `b` still synchronizes the automaton.
        let word = report.reset_word().expect("Černý automata are synchronizing");
        assert!(!word.is_empty());
        assert_reset_word_resets(&dfa, word);
        assert!(matches!(
            report.class(),
            ConvergenceClass::Synchronizing { survivors, .. } if survivors == n
        ));
        // The greedy bound: never more than |Q|³ bytes.
        assert!(word.len() <= n * n * n);
    }

    #[test]
    fn permutation_automaton_never_converges() {
        // `a` rotates, `b` swaps 0↔1, everything else is the identity:
        // all letters are permutations, so no pair of states ever merges
        // and every state stays reachable.
        let n = 4;
        let rows: Vec<[StateId; 3]> = (0..n)
            .map(|i| {
                let rot = ((i + 1) % n) as StateId;
                let swap = match i {
                    0 => 1,
                    1 => 0,
                    _ => i as StateId,
                };
                [rot, swap, i as StateId]
            })
            .collect();
        let dfa = dfa_from_rows(&rows, vec![false, true, false, true], 0);
        let report = ConvergenceReport::analyze(&dfa);
        assert_eq!(report.class(), ConvergenceClass::NonConverging);
        assert_eq!(report.reset_word(), None);
        assert!(report.pair_analysis_ran());
        assert_eq!(report.survivor_count(), n);
        // No absorbing sink anywhere in a permutation automaton.
        assert!(report.sink_distance().iter().all(|d| d.is_none()));
    }

    #[test]
    fn transient_state_feeding_a_permutation_core_is_converging() {
        // State 0 falls into the {1, 2} core on any byte; the core is a
        // permutation (`a` swaps, the rest fix), so it never merges — but
        // the transient state still shrinks the reach set.
        let rows = vec![[1, 1, 1], [2, 1, 1], [1, 2, 2]];
        let dfa = dfa_from_rows(&rows, vec![false, true, false], 0);
        let report = ConvergenceReport::analyze(&dfa);
        assert_eq!(report.class(), ConvergenceClass::Converging { survivors: 2 });
        assert_eq!(report.reset_word(), None);
        assert_eq!(report.survivors(), &[1, 2]);
        assert_eq!(report.reach_horizon(), 1);
        assert!(report.stabilized());
    }

    #[test]
    fn reach_sets_shrink_and_clamp() {
        // Whole-match `abc`: R_k loses one state per step until only the
        // sink remains.
        let dfa = minimal_dfa_from_pattern("abc").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        let n = dfa.num_states();
        assert_eq!(report.reach_set(0).len(), n);
        for k in 1..=report.reach_horizon() {
            assert!(report.reach_set(k).len() <= report.reach_set(k - 1).len());
        }
        // Past the computed depth the query clamps to the fixpoint.
        assert_eq!(report.reach_set(10_000), report.survivors());
        // Every reach set is sorted (binary-searchable).
        for k in 0..=report.reach_horizon() {
            assert!(report.reach_set(k).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn entry_sets_cover_the_true_boundary_state() {
        let dfa = minimal_dfa_from_pattern("(a|b)*abb").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        // Brute-force check: for every short word, the state the word
        // actually reaches is inside the entry set computed from the
        // word's length and last byte.
        let alphabet = [b'a', b'b', b'x'];
        let mut words: Vec<Vec<u8>> = alphabet.iter().map(|&b| vec![b]).collect();
        for _ in 0..3 {
            let mut longer = Vec::new();
            for w in &words {
                for &b in &alphabet {
                    let mut v = w.clone();
                    v.push(b);
                    longer.push(v);
                }
            }
            words.extend(longer);
        }
        for w in &words {
            let truth = dfa.run(w);
            let entry = report.entry_set(&dfa, w.len(), w[w.len() - 1]);
            assert!(entry.binary_search(&truth).is_ok(), "word {w:?} escaped its entry set");
            // And the entry set is never larger than the plain reach set.
            assert!(entry.len() <= report.reach_set(w.len().saturating_sub(1)).len());
        }
    }

    #[test]
    fn pair_cap_skips_pair_analysis_but_keeps_reach() {
        let dfa = minimal_dfa_from_pattern("abc").unwrap();
        let capped = AnalysisConfig { pair_state_cap: 1, ..AnalysisConfig::default() };
        let report = ConvergenceReport::analyze_with(&dfa, &capped);
        assert!(!report.pair_analysis_ran());
        assert_eq!(report.reset_word(), None);
        // Reach still shrinks to the sink, so the verdict degrades to
        // Converging, not NonConverging.
        assert_eq!(report.class(), ConvergenceClass::Converging { survivors: 1 });
    }

    #[test]
    fn single_state_automaton_is_trivially_synchronizing() {
        let dfa = minimal_dfa_from_pattern("(?s).*").unwrap();
        assert_eq!(dfa.num_states(), 1);
        let report = ConvergenceReport::analyze(&dfa);
        assert_eq!(report.class(), ConvergenceClass::Synchronizing { horizon: 0, survivors: 1 });
        assert_eq!(report.reset_word(), Some(&[][..]));
    }

    #[test]
    fn boundary_image_sizes_reflect_class_collapse() {
        // Whole-match `a{3}`: the byte `x` (any non-`a`) sends every
        // state straight to the sink — boundary image 1 — while `a`
        // advances the chain.
        let dfa = minimal_dfa_from_pattern("a{3}").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        // At the fixpoint only the sink survives, so every boundary image
        // is 1 and no byte is a *strict* synchronizer.
        assert_eq!(report.survivor_count(), 1);
        assert!(!report.is_synchronizing_byte(b'x'));

        // A Contains-style automaton keeps all states reachable; benign
        // bytes collapse more than needle bytes.
        let dfa = minimal_dfa_from_pattern("(?s).*abc.*").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        if report.survivor_count() > report.boundary_image_size(b'x') {
            assert!(report.is_synchronizing_byte(b'x') || report.boundary_image_size(b'x') > 1);
        }
    }

    #[test]
    fn dead_map_complements_live_states() {
        let dfa = minimal_dfa_from_pattern("ab|cd").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        let live = dfa.live_states();
        assert_eq!(report.dead_states().len(), dfa.num_states());
        for (dead, live) in report.dead_states().iter().zip(live) {
            assert_eq!(*dead, !live);
        }
    }

    #[test]
    fn summary_round_trips_across_classes() {
        for pattern in ["(?s).*abc.*", "a{3}", "(ab)*"] {
            let dfa = minimal_dfa_from_pattern(pattern).unwrap();
            let report = ConvergenceReport::analyze(&dfa);
            let summary = report.summary();
            assert_eq!(summary.class(), report.class());
            assert_eq!(summary.compaction_horizon(), report.compaction_horizon());
            assert_eq!(summary.survivor_count(), report.survivor_count());
            assert_eq!(summary.reset_word(), report.reset_word());
            let decoded = ConvergenceSummary::from_bytes(&summary.to_bytes()).unwrap();
            assert_eq!(decoded, summary);
        }
    }

    #[test]
    fn summary_decode_fails_closed() {
        let dfa = minimal_dfa_from_pattern("(?s).*abc.*").unwrap();
        let good = ConvergenceReport::analyze(&dfa).summary().to_bytes();
        assert!(ConvergenceSummary::from_bytes(&good).is_some());
        // Truncation at every prefix length.
        for len in 0..good.len() {
            assert!(ConvergenceSummary::from_bytes(&good[..len]).is_none(), "prefix {len}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(ConvergenceSummary::from_bytes(&long).is_none());
        // Unknown class tag.
        let mut bad = good.clone();
        bad[0] = 7;
        assert!(ConvergenceSummary::from_bytes(&bad).is_none());
        // A synchronizing verdict whose reset word went missing.
        let mut bad = good;
        bad[1] = 0;
        assert!(ConvergenceSummary::from_bytes(&bad).is_none());
    }
}
