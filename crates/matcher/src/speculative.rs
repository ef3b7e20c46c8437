//! **Algorithm 3** — the parallel DFA matcher based on speculative
//! simulation (Section III of the paper) — plus the convergence-guided
//! variant built on `sfa-analysis`.
//!
//! The baseline form has every worker process its chunk by maintaining a
//! full vector `T_i : Q → Q` ("from every possible state, where would the
//! DFA be now?"), updated for *every* state on *every* byte — which is
//! where the `O(|D| · n / p)` term of Table II comes from and why this
//! approach loses to the sequential matcher as soon as the DFA is large.
//!
//! [`with_analysis`](SpeculativeDfaMatcher::with_analysis) attaches an
//! offline [`ConvergenceReport`] and turns the same matcher into the
//! convergence-guided version:
//!
//! * chunk boundaries are nudged after likely-synchronizing bytes
//!   ([`split_chunks_guided`]), so downstream entry sets start minimal;
//! * each non-first chunk simulates only from its **entry set**
//!   `δ(R_{len-1}, last byte)` — the analysis-proven superset of every
//!   state the boundary can be in — instead of from all of `Q`;
//! * within a chunk the state vector is **compacted** at doubling
//!   checkpoints seeded by the analysis horizon: once the survivors of a
//!   synchronizing automaton collapse (usually to one or two states), the
//!   per-byte cost drops from `|entry|` to `|image|` transitions.
//!
//! Guided partial results are [`ChunkMap`]s — sparse domain-restricted
//! mappings with the dense [`Transformation`] kept as fallback when the
//! entry set is close to `|Q|`. Soundness does not depend on the analysis
//! being *tight*: entry sets only over-approximate, so the composed
//! verdict is exactly Algorithm 3's (asserted by the crate proptests).
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
//! apply here: a speculative worker already advances `|entry|` states per
//! byte, so it has no idle lanes to fill.

use crate::chunk::{split_chunks, split_chunks_guided};
use crate::pool::Engine;
use crate::Reduction;
use sfa_analysis::ConvergenceReport;
use sfa_automata::{Dfa, StateId};
use sfa_core::Transformation;
use std::cell::RefCell;
use std::collections::HashMap;

/// How far past the even split point [`split_chunks_guided`] searches for
/// a synchronizing byte. Small: a boundary nudge only saves the entry-set
/// difference, so long hunts cannot pay for the imbalance they create.
const BOUNDARY_WINDOW: usize = 64;

/// The speculative-simulation parallel DFA matcher — Algorithm 3 as-is,
/// or its convergence-guided refinement when an analysis is attached.
#[derive(Clone, Debug)]
pub struct SpeculativeDfaMatcher<'a> {
    dfa: &'a Dfa,
    engine: Engine,
    report: Option<&'a ConvergenceReport>,
}

thread_local! {
    /// Per-worker identity-table template (satellite of the guided work:
    /// `simulate_chunk` used to collect `0..n` afresh for every chunk; a
    /// worker thread now keeps the template alive across chunks and
    /// `memcpy`s it into the output instead of re-deriving it).
    static IDENTITY_SCRATCH: RefCell<Vec<StateId>> = const { RefCell::new(Vec::new()) };
}

/// The partial result of one guided chunk: where the chunk's bytes send
/// every state the boundary can actually be in.
///
/// `Sparse` restricts the domain to the analysis entry set (`keys`,
/// sorted); `Dense` is the full Algorithm 3 transformation, kept for
/// chunks whose entry set is close to `|Q|` (a sparse map would then cost
/// more in binary searches than it saves in simulation).
#[derive(Clone, Debug)]
pub enum ChunkMap {
    /// Full-domain mapping, as in the baseline algorithm.
    Dense(Transformation),
    /// Domain-restricted mapping: `keys[i] ↦ vals[i]`, `keys` sorted.
    Sparse {
        /// The sorted entry set this chunk was simulated from.
        keys: Vec<StateId>,
        /// `vals[i]` = state reached from `keys[i]` after the chunk.
        vals: Vec<StateId>,
    },
}

impl ChunkMap {
    /// Where the chunk sends state `q`.
    ///
    /// Panics if `q` is outside a sparse map's domain — the guided runner
    /// never lets that happen (entry sets over-approximate every state an
    /// upstream composition can produce; see
    /// [`ConvergenceReport::entry_set`]).
    pub fn apply(&self, q: StateId) -> StateId {
        match self {
            ChunkMap::Dense(t) => t.apply(q),
            ChunkMap::Sparse { keys, vals } => {
                let i = keys
                    .binary_search(&q)
                    .expect("analysis entry set covers every reachable boundary state");
                vals[i]
            }
        }
    }

    /// Functional composition `self ∘ then other`: a map with `self`'s
    /// domain sending `q` to `other.apply(self.apply(q))`. Sound because
    /// every value of `self` lies in `other`'s entry set (the sets are
    /// built from worst-case predecessors, so composition order cannot
    /// escape them).
    pub fn then(&self, other: &ChunkMap) -> ChunkMap {
        match self {
            ChunkMap::Dense(t) => ChunkMap::Dense(Transformation::from_vec(
                t.as_slice().iter().map(|&v| other.apply(v)).collect(),
            )),
            ChunkMap::Sparse { keys, vals } => ChunkMap::Sparse {
                keys: keys.clone(),
                vals: vals.iter().map(|&v| other.apply(v)).collect(),
            },
        }
    }

    /// Number of states this map was actually simulated for — the guided
    /// win is this being far below `|Q|`.
    pub fn domain_len(&self) -> usize {
        match self {
            ChunkMap::Dense(t) => t.degree(),
            ChunkMap::Sparse { keys, .. } => keys.len(),
        }
    }
}

/// One guided work item: a chunk plus what the analysis needs to know
/// about its left context.
struct GuidedJob<'b> {
    chunk: &'b [u8],
    /// Length and final byte of the previous chunk; `None` for the first
    /// chunk (which runs from the start state, no speculation at all).
    prev: Option<(usize, u8)>,
}

impl<'a> SpeculativeDfaMatcher<'a> {
    /// Creates a matcher over the given DFA, running on the shared
    /// [global engine](Engine::global).
    pub fn new(dfa: &'a Dfa) -> SpeculativeDfaMatcher<'a> {
        SpeculativeDfaMatcher::with_engine(dfa, Engine::global().clone())
    }

    /// Creates a matcher over the given DFA, running on a specific engine.
    pub fn with_engine(dfa: &'a Dfa, engine: Engine) -> SpeculativeDfaMatcher<'a> {
        SpeculativeDfaMatcher { dfa, engine, report: None }
    }

    /// Attaches an offline convergence analysis: `run` switches from the
    /// all-states baseline to entry-set-restricted simulation with
    /// guided chunk boundaries. The report must have been computed from
    /// this matcher's DFA.
    pub fn with_analysis(mut self, report: &'a ConvergenceReport) -> SpeculativeDfaMatcher<'a> {
        assert_eq!(
            report.num_states(),
            self.dfa.num_states(),
            "convergence report does not describe this DFA"
        );
        self.report = Some(report);
        self
    }

    /// Whether a convergence analysis is attached (the guided path).
    pub fn is_guided(&self) -> bool {
        self.report.is_some()
    }

    /// Simulates one chunk from **all** states simultaneously (lines 1–7
    /// of Algorithm 3) and returns the resulting mapping `T_i`.
    pub fn simulate_chunk(&self, chunk: &[u8]) -> Transformation {
        let n = self.dfa.num_states();
        // The output vector must be owned, but its identity initialization
        // needn't be re-derived per chunk: copy a per-worker template.
        let mut table: Vec<StateId> = IDENTITY_SCRATCH.with(|scratch| {
            let mut template = scratch.borrow_mut();
            let have = template.len();
            if have < n {
                template.extend(have as StateId..n as StateId);
            }
            template[..n].to_vec()
        });
        for &byte in chunk {
            let class = self.dfa.classes().class_of(byte);
            for entry in table.iter_mut() {
                *entry = self.dfa.next_by_class(*entry, class);
            }
        }
        Transformation::from_vec(table)
    }

    /// Simulates one chunk from the given entry set only, compacting the
    /// state vector at doubling checkpoints starting at the analysis
    /// horizon. Returns the reached state per entry state.
    fn simulate_from(&self, entry: &[StateId], chunk: &[u8], horizon: usize) -> Vec<StateId> {
        // `uniq` holds the distinct current states; `slot[j]` says which
        // of them entry state `j` currently sits in. Compaction dedupes
        // `uniq` once states start collapsing, so a synchronizing chunk
        // quickly costs ~1 transition per byte instead of `|entry|`.
        let mut uniq: Vec<StateId> = entry.to_vec();
        let mut slot: Vec<u32> = (0..entry.len() as u32).collect();
        let mut checkpoint = horizon.clamp(8, 4096);
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
        slot.iter().map(|&s| uniq[s as usize]).collect()
    }

    /// Builds the [`ChunkMap`] for one guided job: the first chunk runs
    /// sequentially from the start state; later chunks simulate from
    /// their analysis entry set, falling back to the dense all-states
    /// table when the set covers most of `Q` anyway.
    fn simulate_job(&self, job: &GuidedJob<'_>, report: &ConvergenceReport) -> ChunkMap {
        let n = self.dfa.num_states();
        match job.prev {
            None => {
                let start = self.dfa.start();
                ChunkMap::Sparse { keys: vec![start], vals: vec![self.dfa.run(job.chunk)] }
            }
            Some((prev_len, prev_byte)) => {
                let entry = report.entry_set(self.dfa, prev_len, prev_byte);
                if entry.len() * 4 >= n * 3 {
                    ChunkMap::Dense(self.simulate_chunk(job.chunk))
                } else {
                    let vals = self.simulate_from(&entry, job.chunk, report.compaction_horizon());
                    ChunkMap::Sparse { keys: entry, vals }
                }
            }
        }
    }

    /// The convergence-guided run: boundary nudging, entry-set-restricted
    /// simulation, sparse composition.
    fn run_guided(
        &self,
        input: &[u8],
        threads: usize,
        reduction: Reduction,
        report: &ConvergenceReport,
    ) -> StateId {
        let plan = self.engine.plan_chunks(input.len(), threads);
        if plan.chunks <= 1 {
            return self.dfa.run(input);
        }
        let chunks = split_chunks_guided(input, plan.chunks, BOUNDARY_WINDOW, |b| {
            report.is_synchronizing_byte(b)
        });
        let mut jobs: Vec<GuidedJob<'_>> = Vec::with_capacity(chunks.len());
        let mut prev: Option<(usize, u8)> = None;
        for &(_, chunk) in &chunks {
            jobs.push(GuidedJob { chunk, prev });
            prev = chunk.last().map(|&b| (chunk.len(), b));
        }
        let partials =
            self.engine.map_chunks(jobs, plan.use_pool, |_, job| self.simulate_job(&job, report));
        match reduction {
            Reduction::Sequential => {
                let mut q = self.dfa.start();
                for map in &partials {
                    q = map.apply(q);
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

    /// Runs the parallel computation and returns the final DFA state
    /// reached from the start state. The input is cut into at most
    /// `threads.min(workers)` chunks. With an attached analysis this is
    /// the guided variant; without one, the faithful Algorithm 3
    /// baseline.
    pub fn run(&self, input: &[u8], threads: usize, reduction: Reduction) -> StateId {
        if let Some(report) = self.report {
            return self.run_guided(input, threads, reduction, report);
        }
        let plan = self.engine.plan_chunks(input.len(), threads);
        let chunks = split_chunks(input, plan.chunks);
        let partials =
            self.engine.map_chunks(chunks, plan.use_pool, |_, chunk| self.simulate_chunk(chunk));
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
    use sfa_analysis::ConvergenceClass;
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
    fn guided_chunk_maps_match_the_dense_transformation() {
        let dfa = minimal_dfa_from_pattern("(a|b)*abb").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        let matcher = SpeculativeDfaMatcher::with_engine(&dfa, test_engine());
        // For any synthetic boundary context, the sparse map agrees with
        // the dense transformation on its whole domain.
        let chunk = b"abbaabab";
        let dense = matcher.simulate_chunk(chunk);
        for (prev_len, prev_byte) in [(1usize, b'a'), (3, b'b'), (100, b'x')] {
            let entry = report.entry_set(&dfa, prev_len, prev_byte);
            let vals = matcher.simulate_from(&entry, chunk, report.compaction_horizon());
            for (k, v) in entry.iter().zip(&vals) {
                assert_eq!(dense.apply(*k), *v, "entry state {k} diverged");
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
    fn guided_entry_sets_shrink_the_simulated_domain() {
        // A Contains-style needle automaton: entry sets after an ordinary
        // byte are tiny compared to |Q|.
        let dfa = minimal_dfa_from_pattern("(?s).*coffee(?s).*").unwrap();
        let report = ConvergenceReport::analyze(&dfa);
        assert!(matches!(report.class(), ConvergenceClass::Synchronizing { .. }));
        let entry = report.entry_set(&dfa, 1000, b'x');
        assert!(
            entry.len() * 4 < dfa.num_states() * 3,
            "entry set {} of |Q| = {} states should take the sparse path",
            entry.len(),
            dfa.num_states()
        );
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
