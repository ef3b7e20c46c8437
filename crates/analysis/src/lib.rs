//! # sfa-analysis
//!
//! Offline convergence analysis of compiled [`Dfa`]s.
//!
//! The paper's speculative baseline (Algorithm 3) simulates every chunk
//! from **all** `|Q|` states, which is where its `O(|Q| · n / p)` cost
//! comes from. Real scanning automata are usually far better behaved:
//! after a short window of input most start states have collapsed
//! together (they are *synchronizing* in the sense of Gusev, Maslennikova
//! & Pribavkina, "Principal ideal languages and synchronizing automata").
//! This crate measures that structure **once, offline**:
//!
//! * **The reach fixpoint** — `R_0 = Q`, `R_{k+1} = δ(R_k, Σ)`, iterated
//!   until it stops shrinking (or for at most 64 levels). Its size is the
//!   survivor count: how many states can still be occupied after long
//!   arbitrary input.
//! * **A merging/reset word** — a short word sending *every* state to one
//!   state, found by greedy Eppstein-style pair-merging over the pair
//!   automaton (backward BFS from the merged diagonal, then greedily
//!   merging the current set pair by pair). Skipped past 256 states.
//! * A [`ConvergenceClass`] verdict per automaton, reported to callers
//!   and in size reports, and the
//!   [`compaction_horizon`](ConvergenceReport::compaction_horizon) derived
//!   from it.
//!
//! The matcher reads one number from a report: the convergence-guided
//! `SpeculativeDfaMatcher` starts deduplicating each chunk's state vector
//! at the compaction horizon. Deduplication is exact whatever the horizon,
//! so the analysis steers only speed, never a verdict. It does not choose
//! a strategy either: `Strategy::Auto` runs SFA composition (the paper's
//! Algorithm 5) whatever the class.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use sfa_automata::{Dfa, StateId};
use std::collections::VecDeque;

/// Maximum number of reach-fixpoint levels computed before the analysis
/// stops waiting for `R_k` to stabilize. Real scanning automata stabilize
/// in a handful of steps; bounded-length whole-match automata need about
/// their maximum word length.
const DEPTH_CAP: usize = 64;

/// The pair-automaton analysis (merging/reset words) is skipped for
/// automata with more states than this — it costs `O(|Q|² · |Σ|)` time
/// and `O(|Q|²)` memory. Skipping is conservative: the automaton then
/// classifies as [`Converging`](ConvergenceClass::Converging) or
/// [`NonConverging`](ConvergenceClass::NonConverging) from the reach
/// fixpoint alone.
const PAIR_STATE_CAP: usize = 256;

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
        /// `|R_∞|` — how many states remain reachable under arbitrarily
        /// long input.
        survivors: usize,
    },
    /// No reset word was found, but the reach fixpoint shrank: only
    /// `survivors < |Q|` states are reachable after long arbitrary input
    /// (the rest are transient).
    Converging {
        /// `|R_∞|`, as above.
        survivors: usize,
    },
    /// Neither analysis found structure to exploit (e.g. permutation
    /// automata, where no two states ever merge): speculation must pay
    /// the full `O(|Q|)` per byte, so the SFA composition path wins.
    NonConverging,
}

/// The result of analyzing one [`Dfa`]: survivor count, reset word,
/// compaction horizon and the [`ConvergenceClass`] verdict. Built by
/// [`ConvergenceReport::analyze`]; all queries afterwards are cheap.
#[derive(Clone, Debug)]
pub struct ConvergenceReport {
    num_states: usize,
    /// `|R_∞|`: the size of the last computed reach level.
    survivors: usize,
    /// The fixpoint depth of the reach chain (the depth cap when it did
    /// not stabilize).
    reach_depth: usize,
    reset_word: Option<Vec<u8>>,
    pair_analysis_ran: bool,
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
    /// Analyzes a DFA: the reach fixpoint (at most 64 levels) and, for
    /// automata of at most 256 states, the pair analysis.
    pub fn analyze(dfa: &Dfa) -> ConvergenceReport {
        let n = dfa.num_states();
        let nc = dfa.num_classes() as u16;

        // The reach fixpoint R_0 ⊇ R_1 ⊇ … (images only shrink, so a
        // level with the same cardinality as its predecessor *is* the
        // fixpoint). Only the current level is kept.
        let mut reach: Vec<StateId> = (0..n as StateId).collect();
        let mut reach_depth = 0;
        let mut mark = vec![false; n];
        while reach_depth < DEPTH_CAP {
            let mut next: Vec<StateId> = Vec::with_capacity(reach.len());
            for &q in &reach {
                for c in 0..nc {
                    let t = dfa.next_by_class(q, c);
                    if !mark[t as usize] {
                        mark[t as usize] = true;
                        next.push(t);
                    }
                }
            }
            for &t in &next {
                mark[t as usize] = false;
            }
            if next.len() == reach.len() {
                break;
            }
            reach = next;
            reach_depth += 1;
        }
        let survivors = reach.len();

        // Greedy Eppstein pair-merging, capped by automaton size.
        let (reset_word, pair_analysis_ran) = if n == 1 {
            (Some(Vec::new()), true)
        } else if n <= PAIR_STATE_CAP {
            (find_reset_word(dfa, &InverseEdges::build(dfa)), true)
        } else {
            (None, false)
        };

        let class = match &reset_word {
            Some(word) => ConvergenceClass::Synchronizing { horizon: word.len(), survivors },
            None if survivors < n => ConvergenceClass::Converging { survivors },
            None => ConvergenceClass::NonConverging,
        };

        ConvergenceReport {
            num_states: n,
            survivors,
            reach_depth,
            reset_word,
            pair_analysis_ran,
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

    /// `|R_∞|`: how many states remain reachable after arbitrarily long
    /// input (really after the last computed reach level).
    pub fn survivor_count(&self) -> usize {
        self.survivors
    }

    /// The reset word found by greedy pair-merging: a word sending every
    /// state to one state. `None` when the automaton is not synchronizing
    /// (or the pair analysis was skipped past 256 states).
    pub fn reset_word(&self) -> Option<&[u8]> {
        self.reset_word.as_deref()
    }

    /// Whether the pair-automaton analysis ran (false when skipped by the
    /// state cap — `None` reset words are then inconclusive).
    pub fn pair_analysis_ran(&self) -> bool {
        self.pair_analysis_ran
    }

    /// The byte offset at which a speculative worker first deduplicates
    /// its state vector: the reset-word length for synchronizing
    /// automata, the reach fixpoint depth otherwise.
    pub fn compaction_horizon(&self) -> usize {
        match self.class {
            ConvergenceClass::Synchronizing { horizon, .. } => horizon,
            _ => self.reach_depth,
        }
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
/// *run* recomputes the report, lazily.
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
    use sfa_automata::{minimal_dfa_from_pattern, ByteClasses};
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
        // Arbitrary long input kills a bounded-length whole-match
        // automaton: only the failure sink survives.
        assert_eq!(report.survivor_count(), 1);
        match report.class() {
            ConvergenceClass::Synchronizing { horizon, survivors } => {
                assert_eq!(survivors, 1);
                assert_eq!(horizon, report.reset_word().unwrap().len());
                assert_eq!(report.compaction_horizon(), horizon);
            }
            other => panic!("expected Synchronizing, got {other:?}"),
        }
        assert_reset_word_resets(&dfa, report.reset_word().unwrap());
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
        // R_1 = Q already: the reach chain is stable at depth 0.
        assert_eq!(report.compaction_horizon(), 0);
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
        assert_eq!(report.survivor_count(), 2);
        // Without a reset word the horizon is the reach fixpoint depth.
        assert_eq!(report.compaction_horizon(), 1);
    }

    #[test]
    fn pair_cap_skips_pair_analysis_but_keeps_reach() {
        // Whole-match `a{300}`: a 301-state chain plus the failure sink,
        // past the pair cap. Each reach level drops one chain state, so
        // the depth cap stops the fixpoint before it stabilizes.
        let dfa = minimal_dfa_from_pattern("a{300}").unwrap();
        assert!(dfa.num_states() > PAIR_STATE_CAP);
        let report = ConvergenceReport::analyze(&dfa);
        assert!(!report.pair_analysis_ran());
        assert_eq!(report.reset_word(), None);
        // Reach still shrinks, so the verdict degrades to Converging, not
        // NonConverging.
        let survivors = dfa.num_states() - DEPTH_CAP;
        assert_eq!(report.class(), ConvergenceClass::Converging { survivors });
        assert_eq!(report.compaction_horizon(), DEPTH_CAP);
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
