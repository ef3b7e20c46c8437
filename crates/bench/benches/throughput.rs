//! Throughput of repeated `is_match` calls — the server workload that
//! motivated the persistent pool engine.
//!
//! Measures matches/sec at 1 KB / 64 KB / 4 MB inputs across 1–16 workers,
//! comparing three executions of Algorithm 5:
//!
//! * `pool`  — the persistent worker-pool [`Engine`] (long-lived threads
//!   parked on a condvar; tiny inputs run inline),
//! * `spawn` — the old executor's behavior, reproduced here as a baseline:
//!   one fresh scoped OS thread per chunk on **every call**,
//! * `dfa_sequential` — Algorithm 2 as the single-thread reference.
//!
//! A fourth group, `throughput_packed`, measures the single-thread D-SFA
//! scan with the auto-packed `u8`/`u16` transition tables against the same
//! automata forced to the `u32` interface width, on the same corpus — the
//! cache-consciousness payoff of [`StateIdRepr`].
//!
//! A fifth group, `throughput_simd`, measures the feature-gated SIMD
//! transition kernels against the scalar reference loops: the `pshufb`
//! shuffle kernel on a ≤16-state `u8` automaton, and the 8-lane
//! intra-haystack interleaved scan (AVX2 gather when available) against
//! the straight-line scalar scan on the 128-state window automaton. The
//! group always runs — without the `simd` feature (or on CPUs without
//! SSSE3/AVX2) it simply measures the scalar fallback against itself.
//!
//! Acceptance checks run alongside the timings: the pool must beat
//! the thread-per-call baseline by ≥ 5× on 1 KB inputs at 8 workers, the
//! `/proc`-observed thread count must stay constant across 10 000
//! `is_match` calls, and the packed tables must not scan slower than the
//! u32 baseline (≥ 0.9× each, ≥ 1.05× on at least one width). When the
//! SIMD kernels are actually engaged (`scan_kernel()` reports `shuffle`
//! / `gather`), the shuffle kernel must deliver ≥ 1.5× the scalar u8
//! scan and the interleaved scan ≥ 1.15× the non-interleaved one.
//!
//! `SFA_BENCH_SMOKE=1` shrinks everything to a single iteration so CI can
//! run the bench as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sfa_matcher::{split_chunks, Engine, Reduction, Regex, StateIdRepr, Strategy};
use std::time::{Duration, Instant};

const KB: usize = 1024;
const PATTERN: &str = "([0-4]{2}[5-9]{2})*";
const WORKER_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

fn smoke() -> bool {
    std::env::var_os("SFA_BENCH_SMOKE").is_some()
}

fn accepted_text(len: usize) -> Vec<u8> {
    let mut text = b"00550459".repeat(len / 8 + 1);
    text.truncate(len & !7); // keep a multiple of the period → accepted
    text
}

/// The pre-pool executor, kept as the measurement baseline: split, spawn
/// one scoped OS thread per chunk, join, reduce sequentially.
fn spawn_per_call_is_match(re: &Regex, input: &[u8], threads: usize) -> bool {
    let sfa = re.sfa();
    let chunks = split_chunks(input, threads);
    let partials: Vec<_> = if chunks.len() <= 1 {
        chunks.into_iter().map(|c| sfa.run(c)).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                chunks.into_iter().map(|c| scope.spawn(move || sfa.run(c))).collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        })
    };
    let mut q = sfa.dfa_start();
    for &f in &partials {
        q = sfa.apply(f, q);
    }
    sfa.dfa_is_accepting(q)
}

fn bench_input_size(c: &mut Criterion, re: &Regex, engines: &[Engine], len: usize, label: &str) {
    let text = accepted_text(len);
    let mut group = c.benchmark_group(format!("throughput_{label}"));
    group.throughput(Throughput::Elements(1)); // elem/s == matches/sec
    if smoke() {
        group.sample_size(1);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(1));
    } else {
        group.sample_size(20);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(800));
    }

    group.bench_function("dfa_sequential", |b| {
        b.iter(|| assert!(re.is_match_with(&text, Strategy::Sequential)))
    });
    for (engine, &workers) in engines.iter().zip(WORKER_SWEEP.iter()) {
        let matcher = sfa_matcher::ParallelSfaMatcher::with_engine(re.sfa(), engine.clone());
        group.bench_with_input(BenchmarkId::new("pool", workers), &workers, |b, &w| {
            b.iter(|| assert!(matcher.accepts(&text, w, Reduction::Sequential)))
        });
        group.bench_with_input(BenchmarkId::new("spawn", workers), &workers, |b, &w| {
            b.iter(|| assert!(spawn_per_call_is_match(re, &text, w)))
        });
    }
    group.finish();
}

/// Times `calls` repetitions of `f` and returns calls per second.
fn rate(calls: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    calls as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// Acceptance check: at 1 KB inputs and 8 requested workers, the pool
/// engine must deliver ≥ 5× the matches/sec of the thread-per-call
/// baseline (it avoids 8 thread spawns per call).
fn acceptance_small_input_speedup(c: &mut Criterion) {
    let _ = &c;
    let engine = Engine::new(8);
    let re = Regex::builder().engine(engine).threads(8).build(PATTERN).unwrap();
    let text = accepted_text(KB);
    let (pool_calls, spawn_calls) = if smoke() { (200, 20) } else { (20_000, 2_000) };
    // Warm both paths (pool creation, allocator).
    assert!(re.is_match(&text));
    assert!(spawn_per_call_is_match(&re, &text, 8));
    let pool_rate = rate(pool_calls, || assert!(re.is_match(&text)));
    let spawn_rate = rate(spawn_calls, || assert!(spawn_per_call_is_match(&re, &text, 8)));
    let speedup = pool_rate / spawn_rate;
    println!(
        "acceptance/1kb_8workers: pool {pool_rate:.0} matches/s, \
         spawn-per-call {spawn_rate:.0} matches/s, speedup {speedup:.1}x\n"
    );
    if !smoke() {
        assert!(speedup >= 5.0, "pool must be ≥5x the thread-per-call baseline, got {speedup:.1}x");
    }
}

/// Single-thread scan throughput of the packed `u8`/`u16` byte tables vs.
/// the same automaton forced to `u32` ids, over one random-digit corpus.
///
/// The sliding-window family `[0-9]*[5-9][0-9]{k}` is the cache-adversarial
/// workload: its D-SFA random-walks `~2^(k+1)` constant mappings on digit
/// input (see `sfa_workloads::window_pattern`), so the touched-row
/// footprint scales with the packed width — `k = 5` packs to `u8`
/// (32 KiB table vs. 128 KiB at u32), `k = 12` to `u16` (8 MiB vs. 16 MiB).
fn bench_packed_repr(c: &mut Criterion) {
    let len = if smoke() { 64 * KB } else { 4 * KB * KB };
    let text = sfa_workloads::digit_text(len, 0x5FA);
    let mut group = c.benchmark_group("throughput_packed");
    group.throughput(Throughput::Bytes(len as u64));
    if smoke() {
        group.sample_size(1);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(1));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(1500));
    }
    let mut speedups = Vec::new();
    for (k, want) in [(5usize, StateIdRepr::U8), (12, StateIdRepr::U16)] {
        let pattern = sfa_workloads::window_pattern(k);
        let build = |repr: Option<StateIdRepr>| {
            let mut b = Regex::builder().max_sfa_states(100_000);
            if let Some(r) = repr {
                b = b.state_id_repr(r);
            }
            b.build(&pattern).unwrap()
        };
        let (packed, wide) = (build(None), build(Some(StateIdRepr::U32)));
        assert_eq!(packed.sfa().repr(), want, "auto width for {pattern}");
        let expected = wide.sfa().run(&text);
        let scan = |re: &Regex| assert_eq!(re.sfa().run(&text), expected);
        group.bench_function(BenchmarkId::new(want.as_str(), "packed"), |b| {
            b.iter(|| scan(&packed))
        });
        group.bench_function(BenchmarkId::new(want.as_str(), "u32"), |b| b.iter(|| scan(&wide)));
        // The acceptance measurement, outside Criterion so it can assert.
        let runs = if smoke() { 1 } else { 5 };
        let best = |re: &Regex| (0..runs).map(|_| rate(1, || scan(re))).fold(f64::MIN, f64::max);
        let speedup = best(&packed) / best(&wide);
        println!("acceptance/packed_{}: {speedup:.2}x over u32\n", want.as_str());
        speedups.push(speedup);
    }
    group.finish();
    if !smoke() {
        for s in &speedups {
            assert!(*s >= 0.9, "packed table must not scan slower than u32, got {s:.2}x");
        }
        let best = speedups.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            best >= 1.05,
            "at least one packed width must beat the u32 baseline, best {best:.2}x"
        );
    }
}

/// SIMD transition kernels vs the scalar reference loops.
///
/// Two subjects, chosen to exercise both kernels:
///
/// * **shuffle** — `(ab)*` minimizes to a handful of states and packs to
///   `u8`, so with the `simd` feature on an SSSE3 CPU `run` dispatches to
///   the nibble-indexed `pshufb` kernel; `run_from_scalar` is the same
///   automaton through the monomorphized scalar loop.
/// * **interleave/gather** — the 128-state `k = 5` window automaton is too
///   big for the shuffle kernel, so a single scan is scalar either way;
///   the payoff comes from cutting the haystack into 8 identity-seeded
///   lanes, driving them through one `run_from_many` batch (the AVX2
///   gather kernel when available, the lockstep scalar loop otherwise)
///   and composing the lane states back (Lemma 1) — exactly what each
///   pool worker does when `ChunkPlan::lanes > 1`.
fn bench_simd_kernels(c: &mut Criterion) {
    let len = if smoke() { 64 * KB } else { 8 * KB * KB };
    let runs = if smoke() { 1 } else { 5 };
    let best = |scan: &dyn Fn()| (0..runs).map(|_| rate(1, scan)).fold(f64::MIN, f64::max);
    let mut group = c.benchmark_group("throughput_simd");
    group.throughput(Throughput::Bytes(len as u64));
    if smoke() {
        group.sample_size(1);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(1));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(1500));
    }

    // Shuffle kernel subject: tiny u8 automaton, periodic accepted input.
    let ab_re = Regex::new("(ab)*").unwrap();
    let ab = ab_re.sfa().eager().expect("default backend is eager");
    assert_eq!(ab.repr(), StateIdRepr::U8);
    let ab_text = {
        let mut t = b"ab".repeat(len / 2 + 1);
        t.truncate(len & !1);
        t
    };
    let ab_expected = ab.run_from_scalar(ab.initial(), &ab_text);
    group.bench_function("shuffle/dispatch", |b| {
        b.iter(|| assert_eq!(ab.run(&ab_text), ab_expected))
    });
    group.bench_function("shuffle/scalar", |b| {
        b.iter(|| assert_eq!(ab.run_from_scalar(ab.initial(), &ab_text), ab_expected))
    });
    let shuffle_speedup = best(&|| assert_eq!(ab.run(&ab_text), ab_expected))
        / best(&|| assert_eq!(ab.run_from_scalar(ab.initial(), &ab_text), ab_expected));
    println!(
        "acceptance/simd_shuffle: kernel {:?}, {shuffle_speedup:.2}x over scalar u8 scan\n",
        ab.scan_kernel()
    );

    // Interleave subject: the 128-state window automaton on digit text.
    let win_re =
        Regex::builder().max_sfa_states(100_000).build(&sfa_workloads::window_pattern(5)).unwrap();
    let win = win_re.sfa();
    let win_sfa = win.eager().expect("default backend is eager");
    assert_eq!(win.repr(), StateIdRepr::U8);
    let text = sfa_workloads::digit_text(len, 0x5FA);
    let win_expected = win_sfa.run_from_scalar(win_sfa.initial(), &text);
    let lanes = 8;
    let interleaved_scan = || {
        let id = win.initial();
        let jobs: Vec<_> = split_chunks(&text, lanes).into_iter().map(|s| (id, s)).collect();
        let got =
            win.run_from_many(&jobs).into_iter().fold(id, |acc, f| win.compose_states(acc, f));
        assert_eq!(got, win_expected);
    };
    let plain_scan = || assert_eq!(win_sfa.run_from_scalar(win_sfa.initial(), &text), win_expected);
    group.bench_function("interleave/8lanes", |b| b.iter(interleaved_scan));
    group.bench_function("interleave/scalar", |b| b.iter(plain_scan));
    let interleave_speedup = best(&interleaved_scan) / best(&plain_scan);
    println!(
        "acceptance/simd_interleave: kernel {:?}, {interleave_speedup:.2}x over \
         non-interleaved scan\n",
        win.scan_kernel()
    );
    group.finish();

    if !smoke() {
        if ab.scan_kernel() == "shuffle" {
            assert!(
                shuffle_speedup >= 1.5,
                "shuffle kernel must be ≥1.5x the scalar u8 scan, got {shuffle_speedup:.2}x"
            );
        }
        if win.scan_kernel() == "gather" {
            assert!(
                interleave_speedup >= 1.15,
                "interleaved scan must be ≥1.15x the non-interleaved scan, \
                 got {interleave_speedup:.2}x"
            );
        }
    }
}

fn proc_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

/// Acceptance check: the process thread count stays constant across 10 000
/// `is_match` calls — the pool is created once and only ever reused.
fn acceptance_constant_thread_count(c: &mut Criterion) {
    let _ = &c;
    let re = Regex::builder().engine(Engine::new(8)).threads(8).build(PATTERN).unwrap();
    let text = accepted_text(64 * KB); // large enough to engage the pool
    assert!(re.is_match(&text)); // materialize the pool
    let Some(before) = proc_thread_count() else {
        println!("acceptance/thread_count: /proc unavailable, skipped\n");
        return;
    };
    let calls = if smoke() { 500 } else { 10_000 };
    for _ in 0..calls {
        assert!(re.is_match(&text));
    }
    let after = proc_thread_count().expect("/proc vanished mid-run");
    println!("acceptance/thread_count: {before} before, {after} after {calls} is_match calls\n");
    assert_eq!(before, after, "thread count must not grow with is_match calls");
}

fn benches(c: &mut Criterion) {
    let engines: Vec<Engine> = WORKER_SWEEP.iter().map(|&w| Engine::new(w)).collect();
    let re = Regex::new(PATTERN).unwrap();
    for (len, label) in [(KB, "1kb"), (64 * KB, "64kb"), (4 * KB * KB, "4mb")] {
        bench_input_size(c, &re, &engines, len, label);
    }
    bench_packed_repr(c);
    bench_simd_kernels(c);
    acceptance_small_input_speedup(c);
    acceptance_constant_thread_count(c);
}

criterion_group!(throughput, benches);
criterion_main!(throughput);
