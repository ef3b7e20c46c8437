//! Convergence-guided speculation vs. the all-states baseline.
//!
//! Both subjects are Contains-mode needle automata, which the offline
//! [`ConvergenceReport`] proves synchronizing (any word containing the
//! needle resets every state into the accept sink), so the guided
//! [`SpeculativeDfaMatcher`] simulates each chunk from a tiny entry set
//! and compacts the survivors instead of dragging all of `Q` across
//! every byte the way Algorithm 3 does.
//!
//! * `convergence_speculative` — the raw matcher, guided vs. baseline,
//!   on a 12-keyword IDS rule (47 states, so the baseline's `O(|Q|)`
//!   per byte really bites) over the 4 MiB HTTP log, with and without
//!   planted attacks.
//! * `convergence_auto` — the `Regex`-level view of the pinned
//!   streaming scan rule ([`sfa_workloads::LOG_SCAN_RULE`], the
//!   `reproduce convergence` subject): `Strategy::Auto` (the paper's
//!   Algorithm 5, chunk-parallel SFA matching, whatever the convergence
//!   class) vs. an explicit sequential scan of the same corpus.
//!
//! Acceptance checks (always on): the analysis classifies the rule as
//! `Synchronizing` and finds a reset word, `Strategy::Auto` still
//! resolves to `Parallel`, and the guided, baseline and sequential
//! verdicts agree on every corpus.
//! Non-smoke only: guided speculation must beat the all-states baseline
//! by ≥ 2× on the same engine and thread count.
//!
//! `SFA_BENCH_SMOKE=1` shrinks everything to a single iteration so CI can
//! run this bench as a smoke test.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sfa_matcher::{
    BackendChoice, ConvergenceClass, Engine, MatchMode, Reduction, Regex, RegexBuilder,
    SpeculativeDfaMatcher, Strategy,
};
use sfa_workloads as workloads;
use std::time::Duration;

const THREADS: usize = 4;

/// The margin subject: an IDS-style keyword rule whose minimal
/// Contains-mode DFA has 47 states. Baseline speculation pays all 47 on
/// every byte; the analysis-guided path pays the entry set (2 states
/// after any benign byte) until compaction collapses it, so the gap
/// scales with `|Q|` and the ≥ 2× floor has wide headroom (~7× here).
const KEYWORD_RULE: &str =
    "(?i)(select|union|insert|delete|update|drop|create|alter|exec|script|passwd|admin)[a-z0-9_]{0,8}";

fn smoke() -> bool {
    std::env::var_os("SFA_BENCH_SMOKE").is_some()
}

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    if smoke() {
        group.sample_size(1);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(1));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(1500));
    }
}

fn builder() -> RegexBuilder {
    Regex::builder().mode(MatchMode::Contains).backend(BackendChoice::Auto).threads(THREADS)
}

/// The raw speculative matcher: analysis-guided entry sets vs. the
/// faithful all-states Algorithm 3, same DFA, same engine, same chunks.
fn bench_speculative(c: &mut Criterion) {
    let re = builder().build(KEYWORD_RULE).expect("keyword rule compiles");
    let dfa = re.dfa();
    let report = re.convergence_report();

    // Acceptance: the offline analysis proves what the guided path
    // relies on — a reset word and a synchronizing class — and the class
    // does not steer Auto, which stays on Algorithm 5.
    assert!(
        matches!(report.class(), ConvergenceClass::Synchronizing { .. }),
        "the Contains-mode keyword rule must be synchronizing, got {:?}",
        report.class()
    );
    assert!(report.reset_word().is_some(), "synchronizing ⇒ a reset word was found");
    assert!(
        matches!(re.auto_strategy(), Strategy::Parallel { threads: THREADS, .. }),
        "Strategy::Auto must resolve to Parallel here, got {:?}",
        re.auto_strategy()
    );

    // The benign log never carries a keyword; the attack corpus plants
    // one injection line so the accept sink actually fires.
    let lines = if smoke() { 2_000 } else { 80_000 };
    let mut attacks = workloads::http_log(lines, 0, 0xC0FFEE);
    attacks.extend_from_slice(b"GET /q?u=union  select name, pass from users HTTP/1.1 200 17\n");
    let benign = workloads::http_log(lines, 0, 0xC0FFEE);

    let engine = Engine::new(THREADS);
    let baseline = SpeculativeDfaMatcher::with_engine(dfa, engine.clone());
    let guided = SpeculativeDfaMatcher::with_engine(dfa, engine).with_analysis(report);
    assert!(guided.is_guided() && !baseline.is_guided());

    // Acceptance: guided == baseline == sequential on both corpora, for
    // both reductions.
    for corpus in [&attacks, &benign] {
        let expected = dfa.run(corpus);
        for reduction in [Reduction::Sequential, Reduction::Tree] {
            assert_eq!(baseline.run(corpus, THREADS, reduction), expected);
            assert_eq!(guided.run(corpus, THREADS, reduction), expected);
        }
    }
    assert!(dfa.is_accepting(dfa.run(&attacks)), "planted attacks must fire");
    assert!(!dfa.is_accepting(dfa.run(&benign)));

    // Acceptance (non-smoke): the issue's margin — guided speculation
    // ≥ 2× over the all-states baseline.
    if !smoke() {
        let time = |f: &dyn Fn()| {
            let start = std::time::Instant::now();
            for _ in 0..3 {
                f();
            }
            start.elapsed()
        };
        let t_guided = time(&|| {
            assert!(dfa.is_accepting(guided.run(&attacks, THREADS, Reduction::Tree)));
        });
        let t_baseline = time(&|| {
            assert!(dfa.is_accepting(baseline.run(&attacks, THREADS, Reduction::Tree)));
        });
        let speedup = t_baseline.as_secs_f64() / t_guided.as_secs_f64();
        assert!(
            speedup >= 2.0,
            "guided speculation must be ≥2× the all-states baseline, got {speedup:.2}× \
             ({t_baseline:?} vs {t_guided:?})"
        );
        println!("convergence_speculative: speedup {speedup:.1}× ({t_baseline:?} → {t_guided:?})");
    }

    let mut group = c.benchmark_group("convergence_speculative");
    configure(&mut group);
    group.throughput(Throughput::Bytes(attacks.len() as u64));
    group.bench_function("all_states_baseline", |b| {
        b.iter(|| {
            assert!(dfa.is_accepting(baseline.run(&attacks, THREADS, Reduction::Tree)));
        })
    });
    group.bench_function("analysis_guided", |b| {
        b.iter(|| {
            assert!(dfa.is_accepting(guided.run(&attacks, THREADS, Reduction::Tree)));
        })
    });
    group.bench_function("analysis_guided_benign", |b| {
        b.iter(|| {
            assert!(!dfa.is_accepting(guided.run(&benign, THREADS, Reduction::Tree)));
        })
    });
    group.finish();
}

/// The `Regex`-level view of the same workload: `Strategy::Auto` — the
/// chunk-parallel SFA scan (Algorithm 5) — vs. an explicit sequential
/// scan.
fn bench_auto(c: &mut Criterion) {
    let re = builder().build(workloads::LOG_SCAN_RULE).expect("scan rule compiles");
    let lines = if smoke() { 2_000 } else { 80_000 };
    let corpus = workloads::http_log(lines, 97, 0xC0FFEE);

    // Acceptance: Auto verdicts equal sequential verdicts, and the size
    // report carries the analysis results it promises.
    assert!(re.is_match_with(&corpus, Strategy::Auto));
    assert_eq!(
        re.is_match_with(&corpus, Strategy::Auto),
        re.is_match_with(&corpus, Strategy::Sequential)
    );
    let sizes = re.size_report();
    assert_eq!(sizes.survivor_states, re.convergence_report().survivor_count());
    assert_eq!(sizes.convergence_horizon, re.convergence_report().compaction_horizon());

    let mut group = c.benchmark_group("convergence_auto");
    configure(&mut group);
    group.throughput(Throughput::Bytes(corpus.len() as u64));
    group.bench_function("auto_parallel", |b| {
        b.iter(|| {
            assert!(re.is_match_with(&corpus, Strategy::Auto));
        })
    });
    group.bench_function("sequential", |b| {
        b.iter(|| {
            assert!(re.is_match_with(&corpus, Strategy::Sequential));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_speculative, bench_auto);
criterion_main!(benches);
