//! # sfa-core
//!
//! Simultaneous finite automata (SFA) — the central contribution of
//! *"Simultaneous Finite Automata: An Efficient Data-Parallel Model for
//! Regular Expression Matching"* (Sin'ya, Matsuzaki, Sassa — ICPP 2013).
//!
//! An SFA extends a finite automaton so that each state *is* a mapping from
//! states to (sets of) states of the original automaton — i.e. the
//! speculative simulation of all possible start states, evaluated once at
//! construction time instead of on every byte at match time. Because the
//! composition of those mappings is associative, the input can be split at
//! arbitrary points and matched in parallel (Theorem 3), which is what
//! `sfa-matcher` exploits.
//!
//! This crate provides:
//!
//! * [`mapping::Transformation`] / [`mapping::Correspondence`] — the state
//!   mappings and their associative composition (`⋄`),
//! * [`DSfa`] — the SFA built from a DFA via the correspondence
//!   construction (Algorithm 4), or loaded zero-copy from an artifact
//!   buffer in the same [table layout](table), plus [`LazyDSfa`] for
//!   on-the-fly construction (Section V-A),
//! * [`SfaBackend`] — the pluggable-backend abstraction the matcher layer
//!   runs on: eager or lazy behind one surface,
//! * [`NSfa`] — the SFA built directly from an NFA,
//! * [`stats`] — the size reports behind Figure 3 of the paper.
//!
//! ## Which knobs apply to which backend
//!
//! | [`SfaConfig`] knob | [`DSfa`] (eager) | [`LazyDSfa`] | [`NSfa`] |
//! |---|---|---|---|
//! | `max_states` | enforced: construction fails with `TooManyStates` | **ignored** — the cache is bounded by the states actually visited (≤ one per input byte) | enforced |
//! | `premultiply` | builds the dense 256-column byte table (≤ 64 MiB packed) | **ignored** — states may never materialize, so no dense table (the class rows hold premultiplied row offsets regardless) | ignored (states are correspondences, not table rows) |
//! | `repr` | overrides the packed state-id width (never narrower than `\|S_d\|` requires) | **ignored** — the cache grows while matchers hold ids, so it stays `u32` (see [`LazyDSfa`]) | ignored (states are correspondences, not table rows) |
//!
//! ## Example
//!
//! ```
//! use sfa_core::DSfa;
//!
//! // Fig. 2 of the paper: the D-SFA of (ab)* has 6 states.
//! let sfa = DSfa::from_pattern("(ab)*").unwrap();
//! assert_eq!(sfa.num_states(), 6);
//! assert!(sfa.accepts(b"abab"));
//! assert!(!sfa.accepts(b"aba"));
//! ```

#![deny(missing_docs)]
// Without the `simd` feature this crate contains no unsafe code at all.
// With it, the only unsafe lives in `simd` (`core::arch` intrinsics behind
// `#[target_feature]` + runtime detection); everything else stays checked,
// so the lint is `deny` there and each use carries an explicit `allow` +
// safety comment.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]

pub mod backend;
pub mod dsfa;
pub mod lazy;
pub mod mapping;
pub mod nsfa;
#[cfg(feature = "simd")]
pub(crate) mod simd;
pub mod stats;
pub mod table;

pub use backend::{BackendKind, SfaBackend};
pub use dsfa::{DSfa, SfaStateId, StateIdRepr};
pub use lazy::LazyDSfa;
pub use mapping::{Correspondence, Transformation};
pub use nsfa::NSfa;
pub use stats::{GrowthClass, SizeReport};
pub use table::{ArtifactBytes, ArtifactTables, RawTables};

/// Configuration of the correspondence construction (Algorithm 4).
#[derive(Clone, Debug)]
pub struct SfaConfig {
    /// Upper bound on the number of SFA states in the **eager**
    /// constructions: [`DSfa`] and [`NSfa`] fail with
    /// [`sfa_automata::CompileError::TooManyStates`] when exceeded.
    /// [`LazyDSfa`] does not consult it — the on-the-fly cache is bounded
    /// by the states an input actually visits (at most one per byte), so
    /// capping it would defeat the construction's purpose (see the
    /// [knob matrix](crate) above).
    ///
    /// The default (1 000 000) accommodates the largest automaton used in
    /// the paper's evaluation (`r_500`, with 1 000 999 states, needs the
    /// limit raised explicitly — the benchmark harness does so).
    pub max_states: usize,
    /// Build a premultiplied dense `256 × |S_d|` byte→state transition
    /// table at construction time, fusing the byte-class indirection out of
    /// the hot matching loop (one true table lookup per byte, exactly the
    /// paper's fixed-row layout). Costs `256 × |S_d|` **packed** entries of
    /// extra memory on top of the class-compressed rows — one, two or four
    /// bytes per entry depending on the selected [`StateIdRepr`] — so it is
    /// skipped, regardless of this flag, once that packed table would
    /// exceed [`SfaConfig::PREMULTIPLY_MAX_BYTES`]. Memory-constrained
    /// builds can set this to `false` to keep class rows only.
    ///
    /// Only [`DSfa`] consumes this flag; [`LazyDSfa`] (whose states may
    /// never materialize, so a dense table over them cannot be built up
    /// front) and [`NSfa`] (whose states are correspondences, not table
    /// rows) ignore it — see the [knob matrix](crate) above.
    pub premultiply: bool,
    /// Override of the packed state-id width used by the **eager**
    /// [`DSfa`] transition tables. `None` (the default) selects the
    /// narrowest width that fits `|S_d|`: `u8` up to 256 states, `u16` up
    /// to 65 536, `u32` beyond. A `Some` override *wider* than required is
    /// honored (useful to measure packing against a `u32` baseline); one
    /// narrower than `|S_d|` requires is silently widened to the automatic
    /// choice, so a forced repr can never truncate a state id.
    ///
    /// [`LazyDSfa`] ignores this knob: its table grows concurrently while
    /// matcher threads hold state ids, so repacking the cache to a
    /// narrower width mid-run would invalidate ids or serialize every
    /// worker behind the write lock — the lazy cache deliberately stays
    /// `u32` (see the [knob matrix](crate) above).
    pub repr: Option<StateIdRepr>,
}

impl SfaConfig {
    /// Hard ceiling on the premultiplied table size in **packed** bytes
    /// (64 MiB): the dense table is not built — even when
    /// [`SfaConfig::premultiply`] is set — once
    /// `256 × |S_d| × state_id_bytes` exceeds it. The state count it
    /// admits therefore depends on the selected [`StateIdRepr`]: every
    /// `u8`/`u16` automaton fits (their packed tables top out at 16 KiB
    /// and 32 MiB respectively), while `u32` automata premultiply up to
    /// 65 536 states.
    pub const PREMULTIPLY_MAX_BYTES: usize = 64 << 20;
}

impl Default for SfaConfig {
    fn default() -> Self {
        SfaConfig { max_states: 1_000_000, premultiply: true, repr: None }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfa_automata::equivalence::equivalent;
    use sfa_automata::{determinize, minimize, CompileError, DfaConfig, Nfa};
    use sfa_regex_syntax::generator::{AstGenerator, GeneratorConfig};
    use sfa_regex_syntax::{Ast, ByteSet};

    fn small_generator() -> AstGenerator {
        AstGenerator::with_config(GeneratorConfig {
            max_depth: 3,
            max_width: 3,
            max_repeat: 3,
            alphabet: ByteSet::range(b'a', b'd'),
            repeat_bias: 0.35,
        })
    }

    fn random_small_dfa(seed: u64) -> Option<sfa_automata::Dfa> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ast = small_generator().generate(&mut rng);
        let nfa = Nfa::from_ast(&ast).ok()?;
        let dfa = determinize(&nfa, &DfaConfig { max_states: 300, ..Default::default() }).ok()?;
        Some(minimize(&dfa))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Theorem 2: the D-SFA accepts exactly the language of its source
        /// DFA (checked by full product equivalence).
        #[test]
        fn dsfa_equivalent_to_dfa(seed in any::<u64>()) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let Ok(sfa) = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 200_000, ..SfaConfig::default() }) else { return Ok(()) };
            prop_assert!(equivalent(&dfa, &sfa.as_dfa()));
        }

        /// Theorem 3 / Lemma 1: for any split of the input, composing the
        /// chunk mappings yields the mapping of the whole input.
        #[test]
        fn any_split_composes_to_whole(seed in any::<u64>(), input in "[a-d]{0,30}", cut in any::<prop::sample::Index>()) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let Ok(sfa) = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 200_000, ..SfaConfig::default() }) else { return Ok(()) };
            let bytes = input.as_bytes();
            let cut = cut.index(bytes.len() + 1).min(bytes.len());
            let (w1, w2) = bytes.split_at(cut);
            let f1 = sfa.run(w1);
            let f2 = sfa.run(w2);
            let whole = sfa.run(bytes);
            prop_assert_eq!(sfa.compose(f1, f2), sfa.mapping(whole));
            // The composed mapping decides acceptance identically to the
            // sequential DFA run.
            let accept_via_composition =
                sfa.dfa_is_accepting(sfa.compose(f1, f2).apply(sfa.dfa_start()));
            prop_assert_eq!(accept_via_composition, dfa.accepts(bytes));
        }

        /// The lazy SFA agrees with the eager SFA and never materializes
        /// more states.
        #[test]
        fn lazy_agrees_with_eager(seed in any::<u64>(), inputs in prop::collection::vec("[a-d]{0,16}", 1..6)) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let Ok(eager) = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 200_000, ..SfaConfig::default() }) else { return Ok(()) };
            let lazy = LazyDSfa::new(dfa.clone());
            for input in &inputs {
                prop_assert_eq!(eager.accepts(input.as_bytes()), lazy.accepts(input.as_bytes()));
            }
            prop_assert!(lazy.num_states_constructed() <= eager.num_states());
        }

        /// Every packed table representation — forced via the
        /// [`SfaConfig::repr`] override, with and without the
        /// premultiplied byte table — produces the same verdicts and the
        /// same final state ids as the forced-`u32` baseline and as the
        /// lazy backend.
        #[test]
        fn packed_reprs_agree_with_u32(seed in any::<u64>(), inputs in prop::collection::vec("[a-d]{0,24}", 1..5)) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let base_cfg = SfaConfig {
                max_states: 200_000,
                repr: Some(StateIdRepr::U32),
                ..SfaConfig::default()
            };
            let Ok(baseline) = DSfa::from_dfa(&dfa, &base_cfg) else { return Ok(()) };
            prop_assert_eq!(baseline.repr(), StateIdRepr::U32);
            let lazy = LazyDSfa::new(dfa.clone());
            for repr in [None, Some(StateIdRepr::U8), Some(StateIdRepr::U16), Some(StateIdRepr::U32)] {
                for premultiply in [true, false] {
                    let cfg = SfaConfig { max_states: 200_000, premultiply, repr };
                    let sfa = DSfa::from_dfa(&dfa, &cfg).unwrap();
                    for input in &inputs {
                        let bytes = input.as_bytes();
                        prop_assert_eq!(sfa.run(bytes), baseline.run(bytes));
                        prop_assert_eq!(sfa.accepts(bytes), dfa.accepts(bytes));
                        prop_assert_eq!(sfa.accepts(bytes), lazy.accepts(bytes));
                    }
                }
            }
        }

        /// The SIMD kernel (when the `simd` feature and the CPU enable
        /// it — without either, dispatch and scalar are the same code
        /// path and this degenerates to a smoke test) returns exactly the
        /// states of the scalar loops: single scans via `run_from` vs
        /// `run_from_scalar`, batches via `run_from_many` vs
        /// `run_from_many_scalar`, across every repr × premultiply
        /// combination, input lengths including 0/1/lane-remainder tails,
        /// and mid-input sink entry (the `z` bytes leave most sampled
        /// alphabets).
        #[test]
        fn simd_kernels_agree_with_scalar(seed in any::<u64>(), input in "[a-dz]{0,300}", cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..10)) {
            let Some(dfa) = random_small_dfa(seed) else { return Ok(()) };
            let bytes = input.as_bytes();
            for repr in [None, Some(StateIdRepr::U8), Some(StateIdRepr::U16), Some(StateIdRepr::U32)] {
                for premultiply in [true, false] {
                    let cfg = SfaConfig { max_states: 200_000, premultiply, repr };
                    let Ok(sfa) = DSfa::from_dfa(&dfa, &cfg) else { return Ok(()) };
                    prop_assert_eq!(
                        sfa.run_from(sfa.initial(), bytes),
                        sfa.run_from_scalar(sfa.initial(), bytes)
                    );
                    // A batch of prefixes/suffixes at random cuts (plus
                    // the empty and whole input) hits the lane-grouped
                    // path with unequal tails.
                    let mut jobs: Vec<(SfaStateId, &[u8])> =
                        vec![(sfa.initial(), &bytes[..0]), (sfa.initial(), bytes)];
                    for cut in &cuts {
                        let cut = cut.index(bytes.len() + 1).min(bytes.len());
                        jobs.push((sfa.initial(), &bytes[..cut]));
                        jobs.push((sfa.run(&bytes[..cut]), &bytes[cut..]));
                    }
                    prop_assert_eq!(sfa.run_from_many(&jobs), sfa.run_from_many_scalar(&jobs));
                }
            }
        }

        /// The probe bound is sound: it never exceeds the eager state
        /// count, is exact on DFAs of at most 32 states, and whenever it
        /// passes a cap the eager build under that cap fails. Raw subset
        /// constructions of tagged unions, whole-input or
        /// `Contains`-wrapped, often reach past 32 states, so the probes
        /// are exercised.
        #[test]
        fn states_lower_bound_is_sound(
            seed in any::<u64>(),
            branches in 1usize..4,
            contains in any::<bool>(),
            cap_pick in any::<prop::sample::Index>(),
        ) {
            let cap = [8usize, 60, 500, 2_000][cap_pick.index(4)];
            let mut rng = StdRng::seed_from_u64(seed);
            let any_star = || Ast::star(Ast::Class(sfa_regex_syntax::class::perl::any()));
            let asts: Vec<Ast> = (0..branches)
                .map(|_| small_generator().generate(&mut rng))
                .map(|ast| if contains { Ast::concat(vec![any_star(), ast, any_star()]) } else { ast })
                .collect();
            let cfg = DfaConfig { max_states: 400, ..Default::default() };
            let Ok(dfa) = Nfa::from_asts(&asts).and_then(|nfa| determinize(&nfa, &cfg)) else {
                return Ok(());
            };
            let bound = DSfa::states_lower_bound(&dfa, cap);
            prop_assert!(bound <= cap + 1);
            match DSfa::from_dfa(&dfa, &SfaConfig { max_states: cap, ..SfaConfig::default() }) {
                Ok(sfa) if dfa.num_states() <= dsfa::BOUND_PROBES => prop_assert_eq!(bound, sfa.num_states()),
                Ok(sfa) => prop_assert!(bound <= sfa.num_states()),
                Err(e) => prop_assert_eq!(e, CompileError::TooManyStates { limit: cap }),
            }
        }

        /// The N-SFA accepts exactly the language of its source NFA on the
        /// tested inputs.
        #[test]
        fn nsfa_matches_nfa(seed in any::<u64>(), inputs in prop::collection::vec("[a-d]{0,12}", 1..6)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let Ok(nfa) = Nfa::from_ast(&ast) else { return Ok(()) };
            let Ok(nsfa) = NSfa::from_nfa(&nfa, &SfaConfig { max_states: 50_000, ..SfaConfig::default() }) else { return Ok(()) };
            for input in &inputs {
                prop_assert_eq!(nfa.accepts(input.as_bytes()), nsfa.accepts(input.as_bytes()));
            }
        }
    }
}
