//! # sfa-matcher
//!
//! Sequential and data-parallel regular-expression matching on top of the
//! SFA pipeline — the executable half of *"Simultaneous Finite Automata: An
//! Efficient Data-Parallel Model for Regular Expression Matching"*
//! (Sin'ya, Matsuzaki, Sassa — ICPP 2013).
//!
//! Three matchers are provided, matching the paper's algorithms — all
//! selected through one composable [`Strategy`] value consumed by the
//! single [`Regex::run`] execution core:
//!
//! | Paper | [`Strategy`] | Implementation | Work per byte |
//! |---|---|---|---|
//! | Algorithm 2 | `Sequential` | [`sfa_automata::Dfa::accepts`] | 1 lookup |
//! | Algorithm 3 | `Speculative { .. }` | [`SpeculativeDfaMatcher`] | `|D|` lookups |
//! | Algorithm 5 | `Parallel { .. }` | [`ParallelSfaMatcher`] | 1 lookup |
//!
//! plus the chunking and reduction machinery they share, a high-level
//! [`Regex`] / [`RegexSet`] front end, and two request-serving workload
//! shapes built on the same decomposition property: streaming matching
//! over arriving blocks ([`stream::StreamMatcher`]) and batched matching
//! of many small haystacks ([`Regex::is_match_batch`]).
//!
//! ## Per-pattern (rule-set) verdicts
//!
//! A [`RegexSet`] compiles many rules into **one** automaton and reports
//! *which* rules matched, not just whether any did:
//! [`RegexSet::matches`] returns a [`SetMatches`] bitset from a single
//! pass over the input, [`RegexSet::matches_batch`] does it for a whole
//! batch, and [`StreamMatcher::set_matches`] /
//! [`StreamMatcher::set_verdict`] report it incrementally over a stream.
//! The rule identities are threaded through compilation (every layer
//! from the NFA down carries pattern accept sets — see
//! [`sfa_automata::pattern`]), so the verdict costs one interned-bitset
//! lookup at the final state and is identical under every [`Strategy`]
//! and both backends: only the accept predicate got richer, the
//! Theorem 3 chunk composition is untouched.
//!
//! Tracking makes the combined product DFA grow with up to `2^rules`;
//! for large rulesets, [`RegexBuilder::shard_state_budget`] splits the
//! set into budget-bounded [`Shard`]s gated behind a multi-literal
//! [`Prefilter`] — same verdicts, bounded compile (see the
//! [`shard`] module docs).
//!
//! ## Backends
//!
//! Every SFA matcher in this crate runs over the pluggable
//! [`SfaBackend`]: the eager
//! [`DSfa`](sfa_core::DSfa) tables, or the on-the-fly
//! [`LazyDSfa`](sfa_core::LazyDSfa) of the paper's Section V-A, which
//! materializes at most one state per input byte and therefore stays
//! feasible on patterns whose eager D-SFA explodes.
//! [`RegexBuilder::backend`] picks one — or [`BackendChoice::Auto`],
//! which compiles eagerly and falls back to lazy when
//! [`RegexBuilder::max_sfa_states`] is exceeded, or proven to be by a
//! cheap lower bound before any eager build. Which builder knobs each
//! backend honors is tabulated in the [`sfa_core`] crate docs; the
//! README's "Backends & state explosion" section walks through the
//! trade-off on a real ruleset.
//!
//! ## Execution model
//!
//! Parallel matching runs on a persistent worker pool (the
//! [`pool::Engine`]): `p` long-lived threads parked on a condvar — the
//! paper's pthread model — created once and reused for every call, so a
//! server issuing millions of `is_match` calls keeps a constant thread
//! count. A `threads` argument caps the number of chunks (itself capped at
//! the pool's worker count); it never spawns threads. Inputs too small to
//! amortize the pool hand-off run inline on the calling thread.
//!
//! ## The `0 ⇒ 1` parallelism clamp
//!
//! One rule applies crate-wide, everywhere a degree of parallelism is
//! requested: **requesting `0` units of parallelism means `1`** —
//! sequential execution, never an error and never "no work at all". The
//! rule is enforced (and its tests live) at every entry point that takes a
//! count: [`RegexBuilder::threads`], [`split_chunks`],
//! [`Engine::plan_chunks`](pool::Engine::plan_chunks) and
//! [`WorkerPool::new`](pool::WorkerPool::new); their docs link back here
//! rather than restating the rule.
//!
//! The same rule governs the *intra-chunk lane* knob: each pool worker
//! may split its slice of one haystack into `L` sub-chunks and drive
//! them through a single interleaved batched scan
//! ([`SfaBackend::run_from_many`]), recombining with `compose_states`
//! so verdicts are bit-for-bit those of a sequential scan.
//! [`Engine::plan_chunks_interleaved`](pool::Engine::plan_chunks_interleaved)
//! clamps the requested lane count (the backend's
//! [`preferred_lanes`](SfaBackend::preferred_lanes): 4 for the scalar
//! lockstep loop, 1 otherwise) against the same
//! [`MIN_POOL_CHUNK_BYTES`] floor that gates pool hand-off —
//! a lane below ~4 KiB costs more in per-lane tail handling and state
//! composition than the interleaving recovers, so the lane count
//! degrades toward `1` (never `0`) exactly like the thread count does.
//!
//! ## Example
//!
//! ```
//! use sfa_matcher::{Regex, Strategy};
//!
//! let re = Regex::new("([0-4]{2}[5-9]{2})*").unwrap();
//! let text = b"00550459".repeat(1000);
//! assert!(re.is_match_with(&text, Strategy::Sequential));  // Algorithm 2
//! assert!(re.is_match_with(&text, Strategy::parallel(4))); // Algorithm 5
//! ```

#![deny(missing_docs)]
// The only unsafe code in the crate is the scoped-job lifetime erasure in
// `pool` (see the safety comment there); everything else stays checked.
#![deny(unsafe_code)]

pub mod chunk;
pub mod error;
pub mod matches;
pub mod parallel;
pub mod pool;
pub mod prefilter;
pub mod regex;
pub mod shard;
pub mod speculative;
pub mod strategy;
pub mod stream;

pub use chunk::{pack_by_bytes_lanes, split_chunks};
pub use error::Error;
pub use matches::SetMatches;
pub use parallel::{ParallelNSfaMatcher, ParallelSfaMatcher};
pub use pool::{ChunkPlan, Engine, WorkerPool, MIN_POOL_CHUNK_BYTES};
pub use prefilter::Prefilter;
pub use regex::{default_threads, BackendChoice, MatchMode, Regex, RegexBuilder, RegexSet};
// Re-exported so `Regex::backend_kind` / `Regex::sfa` /
// `RegexBuilder::state_id_repr` / `SetMatches::as_pattern_set` types are
// nameable from this crate alone.
pub use sfa_analysis::{ConvergenceClass, ConvergenceReport};
pub use sfa_automata::{PatternId, PatternSet};
pub use sfa_core::{BackendKind, SfaBackend, StateIdRepr};
pub use shard::Shard;
pub use speculative::SpeculativeDfaMatcher;
pub use strategy::Strategy;
pub use stream::{SetStream, StreamMatcher};

/// How the per-chunk partial results are combined (Section V-B of the
/// paper: "we reduce the results either in parallel with associative binary
/// operator ⋄ or in sequential").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// `O(p)` sequential walk over the partial results: start from the
    /// DFA's start state and look the state up in each chunk's mapping.
    Sequential,
    /// Logarithmic-depth tree of mapping compositions
    /// (`O(|D| log p)` for D-SFA, `O(|N|³ log p)` for N-SFA).
    Tree,
}

#[cfg(test)]
mod proptests {
    use super::*;
    // `proptest::prelude::Strategy` (the generator trait) shadows our
    // execution-strategy enum inside this module; alias ours.
    use crate::strategy::Strategy as Exec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfa_automata::{determinize, minimize, DfaConfig, Nfa};
    use sfa_core::{DSfa, SfaBackend, SfaConfig};
    use sfa_regex_syntax::generator::{AstGenerator, GeneratorConfig};
    use sfa_regex_syntax::ByteSet;

    fn small_generator() -> AstGenerator {
        AstGenerator::with_config(GeneratorConfig {
            max_depth: 3,
            max_width: 3,
            max_repeat: 3,
            alphabet: ByteSet::range(b'a', b'c'),
            repeat_bias: 0.4,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// All matchers agree with the sequential DFA on random patterns,
        /// random inputs, random thread counts and both reductions.
        #[test]
        fn all_matchers_agree(
            seed in any::<u64>(),
            input in "[a-c]{0,60}",
            threads in 1usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let Ok(nfa) = Nfa::from_ast(&ast) else { return Ok(()) };
            let Ok(dfa) = determinize(&nfa, &DfaConfig { max_states: 400, ..Default::default() }) else { return Ok(()) };
            let dfa = minimize(&dfa);
            let Ok(sfa) = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 100_000, ..SfaConfig::default() }) else { return Ok(()) };
            let backend = SfaBackend::from(sfa);

            let expected = dfa.accepts(input.as_bytes());
            let spec = SpeculativeDfaMatcher::new(&dfa);
            let par = ParallelSfaMatcher::new(&backend);
            for reduction in [Reduction::Sequential, Reduction::Tree] {
                prop_assert_eq!(spec.accepts(input.as_bytes(), threads, reduction), expected);
                prop_assert_eq!(par.accepts(input.as_bytes(), threads, reduction), expected);
            }
        }

        /// The convergence-guided speculative matcher reaches exactly the
        /// sequential DFA's end state on random automata × thread counts
        /// × reductions, whatever the automaton's convergence class:
        /// compaction only drops duplicate states, so it can never change
        /// the verdict. Inputs run to 2 000 bytes, so chunks cross several
        /// doubling checkpoints. A reset word, when the analysis claims
        /// one, is checked to really reset.
        #[test]
        fn convergence_guided_speculation_agrees_with_sequential(
            seed in any::<u64>(),
            input in "[a-c]{0,2000}",
            threads in 1usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let Ok(nfa) = Nfa::from_ast(&ast) else { return Ok(()) };
            let Ok(dfa) = determinize(&nfa, &DfaConfig { max_states: 400, ..Default::default() }) else { return Ok(()) };
            let dfa = minimize(&dfa);
            prop_assert_eq!(dfa.validate(), Ok(()));
            let report = ConvergenceReport::analyze(&dfa);

            if let Some(word) = report.reset_word() {
                let mut targets: Vec<_> =
                    (0..dfa.num_states() as u32).map(|q| dfa.run_from(q, word)).collect();
                targets.sort_unstable();
                targets.dedup();
                prop_assert_eq!(targets.len(), 1);
            }

            // A dedicated multi-worker engine, so the input is cut into
            // up to four chunks even on a one-CPU machine.
            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| Engine::new(4));
            let bytes = input.as_bytes();
            let expected = dfa.run(bytes);
            let guided =
                SpeculativeDfaMatcher::with_engine(&dfa, engine.clone()).with_analysis(&report);
            for reduction in [Reduction::Sequential, Reduction::Tree] {
                prop_assert_eq!(guided.run(bytes, threads, reduction), expected);
            }
        }

        /// Pool-based execution agrees with inline execution for random
        /// patterns and inputs: the same chunk batch, mapped through a
        /// multi-worker pool and through the calling thread, produces
        /// identical partial states and identical verdicts.
        #[test]
        fn pool_and_inline_execution_agree(
            seed in any::<u64>(),
            input in "[a-c]{0,200}",
            chunks in 1usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let Ok(nfa) = Nfa::from_ast(&ast) else { return Ok(()) };
            let Ok(dfa) = determinize(&nfa, &DfaConfig { max_states: 400, ..Default::default() }) else { return Ok(()) };
            let dfa = minimize(&dfa);
            let Ok(sfa) = DSfa::from_dfa(&dfa, &SfaConfig { max_states: 100_000, ..SfaConfig::default() }) else { return Ok(()) };
            let backend = SfaBackend::from(sfa);

            // One shared engine across all generated cases — spawning a
            // fresh pool per case would be pure thread-creation churn.
            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| Engine::new(4));
            let pieces = split_chunks(input.as_bytes(), chunks);
            let pooled = engine.map_chunks(pieces.clone(), true, |_, c| backend.run(c));
            let inline = engine.map_chunks(pieces, false, |_, c| backend.run(c));
            prop_assert_eq!(pooled, inline);

            // End to end: a matcher on the dedicated pool agrees with the
            // sequential DFA whatever the plan decides.
            let matcher = ParallelSfaMatcher::with_engine(&backend, engine.clone());
            let expected = dfa.accepts(input.as_bytes());
            for reduction in [Reduction::Sequential, Reduction::Tree] {
                prop_assert_eq!(matcher.accepts(input.as_bytes(), chunks, reduction), expected);
            }
        }

        /// Chunking never loses or duplicates bytes.
        #[test]
        fn chunking_partitions_input(input in prop::collection::vec(any::<u8>(), 0..200), threads in 1usize..20) {
            let chunks = split_chunks(&input, threads);
            let glued: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            prop_assert_eq!(glued, input);
        }

        /// Sequential, parallel, speculative and streaming matching agree
        /// in `Contains` mode under adversarial chunk and feed boundaries —
        /// including every split through the middle of a planted match
        /// occurrence (the paper's Theorem 3: any division of the word
        /// works, so a boundary inside the needle must not lose the match).
        #[test]
        fn contains_mode_all_matchers_and_streaming_agree(
            needle in "[a-c]{2,5}",
            prefix in "[a-c]{0,30}",
            suffix in "[a-c]{0,30}",
            plant in any::<bool>(),
            threads in 1usize..9,
            extra_cut in any::<prop::sample::Index>(),
        ) {
            // A shared multi-worker engine so the parallel paths exercise
            // real chunking even on single-CPU CI machines.
            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| Engine::new(4));
            let re = Regex::builder()
                .mode(MatchMode::Contains)
                .threads(threads)
                .engine(engine.clone())
                .build(&needle)
                .unwrap();

            let mut haystack = prefix.clone().into_bytes();
            let needle_at = haystack.len();
            if plant {
                haystack.extend_from_slice(needle.as_bytes());
            }
            haystack.extend_from_slice(suffix.as_bytes());

            let expected = re.is_match_with(&haystack, Exec::Sequential);
            if plant {
                // The needle is literally present, so Contains must hit.
                prop_assert!(expected);
            }
            for reduction in [Reduction::Sequential, Reduction::Tree] {
                let parallel = Exec::Parallel { threads, reduction };
                let speculative = Exec::Speculative { threads, reduction };
                prop_assert_eq!(re.is_match_with(&haystack, parallel), expected);
                prop_assert_eq!(re.is_match_with(&haystack, speculative), expected);
            }

            // Streaming: cut at every boundary through the needle's
            // occurrence (splitting the match mid-pattern), plus one
            // arbitrary extra cut elsewhere.
            let other = extra_cut.index(haystack.len() + 1);
            for cut in needle_at..=(needle_at + needle.len()).min(haystack.len()) {
                let cuts = [cut.min(other), cut.max(other)];
                let mut stream = re.stream();
                let mut start = 0;
                for &c in &cuts {
                    if c > start {
                        stream.feed(&haystack[start..c]);
                        start = c;
                    }
                }
                stream.feed(&haystack[start..]);
                prop_assert_eq!(stream.finish(), expected);
            }

            // Byte-at-a-time feeding is the most adversarial split of all.
            let mut stream = re.stream();
            for b in &haystack {
                stream.feed(std::slice::from_ref(b));
            }
            prop_assert_eq!(stream.finish(), expected);
        }

        /// Packed table widths are invisible to every execution surface:
        /// a forced-`u8`/`u16` regex reaches the same final DFA state as
        /// the forced-`u32` baseline and the lazy backend under every
        /// strategy, and streams to the same verdict across arbitrary
        /// feed boundaries.
        #[test]
        fn packed_reprs_agree_across_strategies_and_streams(
            seed in any::<u64>(),
            input in "[a-c]{0,60}",
            threads in 1usize..7,
            cut in any::<prop::sample::Index>(),
        ) {
            use sfa_core::StateIdRepr;
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let pattern = sfa_regex_syntax::to_pattern(&ast);
            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| Engine::new(4));
            let build = |b: RegexBuilder| {
                b.engine(engine.clone())
                    .threads(threads)
                    .max_dfa_states(400)
                    .max_sfa_states(100_000)
                    .build(&pattern)
            };
            let Ok(baseline) = build(Regex::builder().state_id_repr(StateIdRepr::U32)) else {
                return Ok(());
            };
            let bytes = input.as_bytes();
            let expected = baseline.run(bytes, Exec::Sequential);
            // The packed sequential path lands exactly where Algorithm 2
            // does (Lemma 1).
            prop_assert_eq!(expected, baseline.dfa().run(bytes));
            let variants = [
                build(Regex::builder()).unwrap(), // auto: narrowest fit
                build(Regex::builder().state_id_repr(StateIdRepr::U8)).unwrap(),
                build(Regex::builder().state_id_repr(StateIdRepr::U16)).unwrap(),
                build(Regex::builder().backend(BackendChoice::Lazy)).unwrap(),
            ];
            for re in &variants {
                prop_assert_eq!(re.run(bytes, Exec::Sequential), expected);
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    prop_assert_eq!(re.run(bytes, Exec::Parallel { threads, reduction }), expected);
                    prop_assert_eq!(
                        re.run(bytes, Exec::Speculative { threads, reduction }),
                        expected
                    );
                }
                let c = cut.index(bytes.len() + 1).min(bytes.len());
                let mut stream = re.stream();
                stream.feed(&bytes[..c]).feed(&bytes[c..]);
                prop_assert_eq!(stream.finish(), baseline.dfa().is_accepting(expected));
            }
        }

        /// The eager and lazy backends agree everywhere: same verdicts on
        /// the sequential, parallel (both reductions), speculative and
        /// streaming paths for random patterns and inputs; the lazy cache
        /// never materializes more states than the eager `|S_d|`, and
        /// once driven to a fixpoint it materializes exactly `|S_d|`.
        #[test]
        fn eager_and_lazy_backends_agree(
            seed in any::<u64>(),
            inputs in prop::collection::vec("[a-c]{0,40}", 1..5),
            threads in 1usize..9,
            cut in any::<prop::sample::Index>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ast = small_generator().generate(&mut rng);
            let pattern = sfa_regex_syntax::to_pattern(&ast);
            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| Engine::new(4));
            let builder = Regex::builder()
                .threads(threads)
                .engine(engine.clone())
                .max_dfa_states(400)
                .max_sfa_states(100_000);
            let Ok(eager) = builder.clone().backend(BackendChoice::Eager).build(&pattern) else { return Ok(()) };
            let lazy = builder.backend(BackendChoice::Lazy).build(&pattern).unwrap();
            prop_assert_eq!(lazy.backend_kind(), sfa_core::BackendKind::Lazy);

            for input in &inputs {
                let bytes = input.as_bytes();
                let expected = eager.is_match_with(bytes, Exec::Sequential);
                prop_assert_eq!(lazy.is_match_with(bytes, Exec::Sequential), expected);
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    let parallel = Exec::Parallel { threads, reduction };
                    let speculative = Exec::Speculative { threads, reduction };
                    prop_assert_eq!(eager.is_match_with(bytes, parallel), expected);
                    prop_assert_eq!(lazy.is_match_with(bytes, parallel), expected);
                    prop_assert_eq!(lazy.is_match_with(bytes, speculative), expected);
                }
                // Streaming: one arbitrary cut, then byte-at-a-time.
                let cut = cut.index(bytes.len() + 1).min(bytes.len());
                let mut se = eager.stream();
                let mut sl = lazy.stream();
                se.feed(&bytes[..cut]).feed(&bytes[cut..]);
                sl.feed(&bytes[..cut]).feed(&bytes[cut..]);
                prop_assert_eq!(se.finish(), expected);
                prop_assert_eq!(sl.finish(), expected);
                let mut sl = lazy.stream();
                for b in bytes {
                    sl.feed(std::slice::from_ref(b));
                }
                prop_assert_eq!(sl.finish(), expected);
            }

            // The lazy cache is bounded by the eager state count…
            let full = eager.sfa().num_states();
            prop_assert!(lazy.sfa().num_states() <= full);
            // …and driving every transition of every materialized state
            // to a fixpoint materializes exactly the eager SFA.
            let cache = lazy.sfa().lazy().expect("lazy backend");
            let mut done = 0;
            while done < cache.num_states_constructed() {
                for class in 0..cache.num_classes() as u16 {
                    cache.next_by_class(done as sfa_core::SfaStateId, class);
                }
                done += 1;
            }
            prop_assert_eq!(cache.num_states_constructed(), full);
        }

        /// `RegexSet::matches` agrees with compiling each pattern
        /// individually — for random pattern sets and inputs, in both
        /// match modes, across the sequential / parallel / speculative
        /// strategies (both reductions) and both backends, and through
        /// streaming under adversarial feed boundaries (an arbitrary cut
        /// plus byte-at-a-time).
        #[test]
        fn set_matches_agree_with_individual_patterns(
            seed in any::<u64>(),
            num_patterns in 1usize..5,
            inputs in prop::collection::vec("[a-c]{0,30}", 1..4),
            threads in 1usize..9,
            contains in any::<bool>(),
            lazy_backend in any::<bool>(),
            cut in any::<prop::sample::Index>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let generator = small_generator();
            let patterns: Vec<String> = (0..num_patterns)
                .map(|_| sfa_regex_syntax::to_pattern(&generator.generate(&mut rng)))
                .collect();
            let pattern_refs: Vec<&str> = patterns.iter().map(|s| s.as_str()).collect();

            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let engine = ENGINE.get_or_init(|| Engine::new(4));
            let mode = if contains { MatchMode::Contains } else { MatchMode::Whole };
            let backend =
                if lazy_backend { BackendChoice::Lazy } else { BackendChoice::Eager };
            let builder = Regex::builder()
                .mode(mode)
                .threads(threads)
                .engine(engine.clone())
                .max_dfa_states(20_000)
                .max_sfa_states(500_000);
            // The combined automaton can explode where the singles fit
            // (or vice versa); skip such cases — agreement is only
            // defined when everything compiles.
            let Ok(set) = RegexSet::new(pattern_refs.iter().copied(), &builder.clone().backend(backend)) else { return Ok(()) };
            let Ok(singles) = pattern_refs
                .iter()
                .map(|p| builder.build(p))
                .collect::<Result<Vec<_>, _>>() else { return Ok(()) };
            prop_assert_eq!(set.len(), num_patterns);

            for input in &inputs {
                let bytes = input.as_bytes();
                let expected: Vec<bool> =
                    singles.iter().map(|re| re.is_match_with(bytes, Exec::Sequential)).collect();

                let mut strategies = vec![Exec::Auto, Exec::Sequential];
                for reduction in [Reduction::Sequential, Reduction::Tree] {
                    strategies.push(Exec::Parallel { threads, reduction });
                    strategies.push(Exec::Speculative { threads, reduction });
                }
                for strategy in strategies {
                    let m = set.matches_with(bytes, strategy);
                    prop_assert_eq!(m.pattern_count(), num_patterns);
                    for (i, &want) in expected.iter().enumerate() {
                        prop_assert_eq!(
                            m.matched(i), want,
                            "pattern {} ({:?}) input {:?} strategy {:?} mode {:?} backend {:?}",
                            i, &patterns[i], input, strategy, mode, backend
                        );
                    }
                    prop_assert_eq!(m.matched_any(), set.is_match(bytes));
                }

                // The batch form agrees with the per-call form.
                let batch = set.matches_batch(&[bytes, bytes]);
                prop_assert_eq!(&batch[0], &set.matches(bytes));
                prop_assert_eq!(&batch[1], &batch[0]);

                // Streaming: an arbitrary cut, then byte-at-a-time — the
                // per-rule verdict must survive any feed boundary.
                let cut = cut.index(bytes.len() + 1).min(bytes.len());
                let mut stream = set.stream();
                stream.feed(&bytes[..cut]).feed(&bytes[cut..]);
                let streamed = stream.set_matches();
                for (i, &want) in expected.iter().enumerate() {
                    prop_assert_eq!(streamed.matched(i), want, "stream cut {} pattern {}", cut, i);
                }
                // A decided set verdict must equal the final verdict.
                if let Some(final_set) = stream.set_verdict() {
                    prop_assert_eq!(&final_set, &streamed);
                }
                let mut stream = set.stream();
                for b in bytes {
                    stream.feed(std::slice::from_ref(b));
                }
                prop_assert_eq!(&stream.set_matches(), &streamed);
            }
        }
    }
}
