//! **Algorithm 3** — the parallel DFA matcher based on speculative
//! simulation (Section III of the paper) — plus its convergence-guided
//! form, which deduplicates each chunk's state vector as it runs.
//!
//! The baseline form has every worker process its chunk by maintaining a
//! full vector `T_i : Q → Q` ("from every possible state, where would the
//! DFA be now?"), updated for *every* state on *every* byte — which is
//! where the `O(|D| · n / p)` term of Table II comes from and why this
//! approach loses to the sequential matcher as soon as the DFA is large.
//!
//! [`with_analysis`](SpeculativeDfaMatcher::with_analysis) attaches an
//! offline [`ConvergenceReport`] and changes one thing: the first chunk
//! runs from the start state alone, and every other chunk **compacts** its
//! state vector at doubling checkpoints, starting at the report's
//! [`compaction_horizon`](ConvergenceReport::compaction_horizon). Scanning
//! automata collapse on their own — a `Contains` language is an ideal, so
//! any occurrence of the pattern resets its automaton (Gusev, Maslennikova
//! & Pribavkina) — so once the states of a chunk merge, usually into one
//! or two, its per-byte cost drops from `|D|` to the number of distinct
//! states left. Each chunk still returns a full `Transformation`, so both
//! forms share the reduction, and compaction never changes a verdict: it
//! only stops advancing duplicates.
//!
//! Like [`ParallelSfaMatcher`](crate::ParallelSfaMatcher), chunks run on a
//! persistent [`Engine`] — the `threads` argument caps the chunk count at
//! the pool's worker count and never spawns threads.
//!
//! Unlike the SFA matchers, this matcher is independent of the
//! [`SfaBackend`](crate::SfaBackend) choice: it simulates the *DFA*
//! directly (recomputing per chunk what an SFA pre-computes), so a
//! `Regex` on the lazy backend still exposes it unchanged. For the same
//! reason it is untouched by the packed
//! [`StateIdRepr`](sfa_core::StateIdRepr) tables — its per-chunk state
//! vectors are over the DFA's `u32` state space, and the SIMD transition
//! kernel and intra-chunk lane interleaving
//! ([`ChunkPlan::lanes`](crate::pool::ChunkPlan::lanes)) likewise do not
//! apply here: a speculative worker already advances many states per
//! byte, so it has no idle lanes to fill.

use crate::chunk::split_chunks;
use crate::pool::Engine;
use crate::Reduction;
use sfa_analysis::ConvergenceReport;
use sfa_automata::{Dfa, StateId};
use sfa_core::Transformation;
use std::cell::RefCell;
use std::collections::HashMap;

/// The speculative-simulation parallel DFA matcher — Algorithm 3 as-is,
/// or its compacting form when an analysis is attached.
#[derive(Clone, Debug)]
pub struct SpeculativeDfaMatcher<'a> {
    dfa: &'a Dfa,
    engine: Engine,
    /// The first compaction checkpoint (a byte offset into each chunk)
    /// when an analysis is attached; `None` for the all-states baseline.
    first_checkpoint: Option<usize>,
}

thread_local! {
    /// Per-worker identity-table template: a worker thread keeps it alive
    /// across chunks and `memcpy`s it into each chunk's state vector
    /// instead of re-deriving `0..n`.
    static IDENTITY_SCRATCH: RefCell<Vec<StateId>> = const { RefCell::new(Vec::new()) };
}

impl<'a> SpeculativeDfaMatcher<'a> {
    /// Creates a matcher over the given DFA, running on the shared
    /// [global engine](Engine::global).
    pub fn new(dfa: &'a Dfa) -> SpeculativeDfaMatcher<'a> {
        SpeculativeDfaMatcher::with_engine(dfa, Engine::global().clone())
    }

    /// Creates a matcher over the given DFA, running on a specific engine.
    pub fn with_engine(dfa: &'a Dfa, engine: Engine) -> SpeculativeDfaMatcher<'a> {
        SpeculativeDfaMatcher { dfa, engine, first_checkpoint: None }
    }

    /// Attaches an offline convergence analysis: `run` switches from the
    /// all-states baseline to compacting simulation, whose first
    /// checkpoint is the report's
    /// [`compaction_horizon`](ConvergenceReport::compaction_horizon)
    /// (clamped to 8..=4096 bytes). The report must have been computed
    /// from this matcher's DFA.
    pub fn with_analysis(mut self, report: &'a ConvergenceReport) -> SpeculativeDfaMatcher<'a> {
        assert_eq!(
            report.num_states(),
            self.dfa.num_states(),
            "convergence report does not describe this DFA"
        );
        self.first_checkpoint = Some(report.compaction_horizon().clamp(8, 4096));
        self
    }

    /// Whether a convergence analysis is attached (the guided path).
    pub fn is_guided(&self) -> bool {
        self.first_checkpoint.is_some()
    }

    /// The identity state vector `0..n`, copied from a per-worker template.
    fn identity(&self) -> Vec<StateId> {
        let n = self.dfa.num_states();
        IDENTITY_SCRATCH.with(|scratch| {
            let mut template = scratch.borrow_mut();
            let have = template.len();
            if have < n {
                template.extend(have as StateId..n as StateId);
            }
            template[..n].to_vec()
        })
    }

    /// Simulates one chunk from **all** states simultaneously (lines 1–7
    /// of Algorithm 3) and returns the resulting mapping `T_i`.
    pub fn simulate_chunk(&self, chunk: &[u8]) -> Transformation {
        let mut table = self.identity();
        for &byte in chunk {
            let class = self.dfa.classes().class_of(byte);
            for entry in table.iter_mut() {
                *entry = self.dfa.next_by_class(*entry, class);
            }
        }
        Transformation::from_vec(table)
    }

    /// The same mapping as [`simulate_chunk`](Self::simulate_chunk), but
    /// advancing only the distinct states: the state vector is
    /// deduplicated once `c`, `2c`, `4c`, … bytes have been read, where
    /// `c` is `first_checkpoint`.
    fn simulate_compacting(&self, chunk: &[u8], first_checkpoint: usize) -> Transformation {
        // `uniq` holds the distinct current states; `slot[q]` says which
        // of them start state `q` currently sits in.
        let mut uniq = self.identity();
        let mut slot: Vec<u32> = (0..uniq.len() as u32).collect();
        let mut checkpoint = first_checkpoint;
        for (pos, &byte) in chunk.iter().enumerate() {
            let class = self.dfa.classes().class_of(byte);
            for u in uniq.iter_mut() {
                *u = self.dfa.next_by_class(*u, class);
            }
            if pos + 1 == checkpoint {
                checkpoint = checkpoint.saturating_mul(2);
                if uniq.len() > 1 {
                    compact(&mut uniq, &mut slot);
                }
            }
        }
        Transformation::from_vec(slot.iter().map(|&s| uniq[s as usize]).collect())
    }

    /// Runs the parallel computation and returns the final DFA state
    /// reached from the start state. The input is cut into at most
    /// `threads.min(workers)` chunks. With an attached analysis the first
    /// chunk runs from the start state and the others compact; without
    /// one, every chunk runs the faithful Algorithm 3 baseline.
    pub fn run(&self, input: &[u8], threads: usize, reduction: Reduction) -> StateId {
        let plan = self.engine.plan_chunks(input.len(), threads);
        let chunks = split_chunks(input, plan.chunks);
        let partials = self.engine.map_chunks(chunks, plan.use_pool, |i, chunk| {
            match self.first_checkpoint {
                None => self.simulate_chunk(chunk),
                // Only the start state enters the first chunk, so its
                // mapping is the constant one.
                Some(_) if i == 0 => {
                    Transformation::from_vec(vec![self.dfa.run(chunk); self.dfa.num_states()])
                }
                Some(first) => self.simulate_compacting(chunk, first),
            }
        });
        match reduction {
            Reduction::Sequential => {
                // qfinal ← q0; for i: qfinal ← T_i[qfinal]
                let mut q = self.dfa.start();
                for t in &partials {
                    q = t.apply(q);
                }
                q
            }
            Reduction::Tree => {
                let combined = self
                    .engine
                    .tree_reduce(partials, plan.use_pool, |a, b| a.then(b))
                    .expect("at least one chunk");
                combined.apply(self.dfa.start())
            }
        }
    }

    /// Whole-input membership test.
    pub fn accepts(&self, input: &[u8], threads: usize, reduction: Reduction) -> bool {
        self.dfa.is_accepting(self.run(input, threads, reduction))
    }
}

/// Dedupes `uniq` in place and remaps `slot` indices accordingly.
fn compact(uniq: &mut Vec<StateId>, slot: &mut [u32]) {
    let mut first_slot: HashMap<StateId, u32> = HashMap::with_capacity(uniq.len());
    let mut kept: Vec<StateId> = Vec::with_capacity(uniq.len());
    let mut remap: Vec<u32> = Vec::with_capacity(uniq.len());
    for &state in uniq.iter() {
        let next = kept.len() as u32;
        let idx = *first_slot.entry(state).or_insert_with(|| {
            kept.push(state);
            next
        });
        remap.push(idx);
    }
    if kept.len() < uniq.len() {
        for s in slot.iter_mut() {
            *s = remap[*s as usize];
        }
        *uniq = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfa_automata::minimal_dfa_from_pattern;

    fn test_engine() -> Engine {
        Engine::new(8)
    }

    fn check(pattern: &str, inputs: &[&[u8]]) {
        let dfa = minimal_dfa_from_pattern(pattern).unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        let baseline = SpeculativeDfaMatcher::with_engine(&dfa, test_engine());
        let guided = SpeculativeDfaMatcher::with_engine(&dfa, test_engine()).with_analysis(&report);
        assert!(guided.is_guided() && !baseline.is_guided());
        for &input in inputs {
            let expected = dfa.accepts(input);
            for threads in [1usize, 2, 3, 4, 7] {
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    for matcher in [&baseline, &guided] {
                        assert_eq!(
                            matcher.accepts(input, threads, reduction),
                            expected,
                            "pattern {:?}, input len {}, {} threads, {:?}, guided: {}",
                            pattern,
                            input.len(),
                            threads,
                            reduction,
                            matcher.is_guided(),
                        );
                        assert_eq!(matcher.run(input, threads, reduction), dfa.run(input));
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_sequential_dfa() {
        check("(ab)*", &[b"", b"ab", b"abab", b"aba", b"abababababab", b"abx"]);
        check("([0-4]{2}[5-9]{2})*", &[b"", b"0055", b"005504590459", b"00550", b"555500"]);
        check("(a|b)*abb", &[b"abb", b"aababb", b"ab", b"abba"]);
    }

    #[test]
    fn chunk_simulation_is_the_word_transformation() {
        let dfa = minimal_dfa_from_pattern("(ab)*").unwrap();
        let matcher = SpeculativeDfaMatcher::new(&dfa);
        let t = matcher.simulate_chunk(b"ab");
        // From the start (accepting) state, "ab" loops back to it.
        assert_eq!(t.apply(dfa.start()), dfa.start());
        // The empty chunk is the identity.
        assert!(matcher.simulate_chunk(b"").is_identity());
        // The identity-template reuse never leaks a previous chunk's
        // state: a second simulation still starts from the identity.
        let t2 = matcher.simulate_chunk(b"ab");
        assert_eq!(t.as_slice(), t2.as_slice());
    }

    #[test]
    fn scratch_template_survives_differently_sized_automata() {
        // Simulate with a large automaton first, then a small one, on the
        // same thread: the template is longer than the small |Q| and must
        // be truncated per use, not reused wholesale.
        let big = minimal_dfa_from_pattern("([0-4]{3}[5-9]{3})*").unwrap();
        let small = minimal_dfa_from_pattern("a").unwrap();
        assert!(big.num_states() > small.num_states());
        let t_big = SpeculativeDfaMatcher::new(&big).simulate_chunk(b"01");
        assert_eq!(t_big.degree(), big.num_states());
        let t_small = SpeculativeDfaMatcher::new(&small).simulate_chunk(b"a");
        assert_eq!(t_small.degree(), small.num_states());
    }

    #[test]
    fn compacting_chunks_match_the_dense_transformation() {
        // Long chunks cross many doubling checkpoints; whatever the first
        // checkpoint, the compacted mapping equals the all-states one on
        // every state.
        let chunk: Vec<u8> = b"abbaababxabbbab".iter().copied().cycle().take(3000).collect();
        for pattern in ["(a|b)*abb", "(?s).*abab(?s).*", "([ab]{3}x)*"] {
            let dfa = minimal_dfa_from_pattern(pattern).unwrap();
            let matcher = SpeculativeDfaMatcher::with_engine(&dfa, test_engine());
            for len in [0usize, 1, 7, 8, 9, 100, 3000] {
                let dense = matcher.simulate_chunk(&chunk[..len]);
                for first in [1usize, 8, 13, 4096] {
                    let compacted = matcher.simulate_compacting(&chunk[..len], first);
                    assert_eq!(
                        compacted.as_slice(),
                        dense.as_slice(),
                        "pattern {pattern:?}, {len} bytes, first checkpoint {first}"
                    );
                }
            }
        }
    }

    #[test]
    fn compaction_collapses_duplicate_states() {
        let mut uniq = vec![3, 1, 3, 2, 1];
        let mut slot: Vec<u32> = (0..5).collect();
        compact(&mut uniq, &mut slot);
        assert_eq!(uniq, vec![3, 1, 2]);
        let resolved: Vec<StateId> = slot.iter().map(|&s| uniq[s as usize]).collect();
        assert_eq!(resolved, vec![3, 1, 3, 2, 1]);
        // Compacting an already-unique vector is a no-op.
        let mut uniq = vec![5, 7];
        let mut slot = vec![1u32, 0];
        compact(&mut uniq, &mut slot);
        assert_eq!(uniq, vec![5, 7]);
        assert_eq!(slot, vec![1, 0]);
    }

    #[test]
    fn more_threads_than_bytes() {
        let dfa = minimal_dfa_from_pattern("a{3}").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        let matcher = SpeculativeDfaMatcher::with_engine(&dfa, test_engine());
        assert!(matcher.accepts(b"aaa", 64, Reduction::Tree));
        assert!(!matcher.accepts(b"aa", 64, Reduction::Sequential));
        let guided = SpeculativeDfaMatcher::with_engine(&dfa, test_engine()).with_analysis(&report);
        assert!(guided.accepts(b"aaa", 64, Reduction::Tree));
        assert!(!guided.accepts(b"aa", 64, Reduction::Sequential));
    }

    #[test]
    fn pool_sized_inputs_agree_with_sequential_dfa() {
        let dfa = minimal_dfa_from_pattern("([0-4]{2}[5-9]{2})*").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        let text = b"00550459".repeat(8 * 1024); // 64 KiB
        for guided in [false, true] {
            let matcher = SpeculativeDfaMatcher::with_engine(&dfa, test_engine());
            let matcher = if guided { matcher.with_analysis(&report) } else { matcher };
            for threads in [2usize, 8, 1_000_000] {
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    assert!(matcher.accepts(&text, threads, reduction), "guided: {guided}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not describe this DFA")]
    fn mismatched_report_is_rejected() {
        let a = minimal_dfa_from_pattern("(ab)*").unwrap();
        let b = minimal_dfa_from_pattern("([0-4]{3}[5-9]{3})*").unwrap();
        assert_ne!(a.num_states(), b.num_states());
        let report = ConvergenceReport::analyze(&b);
        let _ = SpeculativeDfaMatcher::new(&a).with_analysis(&report);
    }
}
