//! `reproduce` — regenerates every table and figure of the paper's
//! evaluation section and prints them as text tables.
//!
//! Usage:
//!
//! ```text
//! reproduce [all|fig3|fig45|fig6|fig7|fig8|fig9|fig10|table2|table3|facts|backends|multimatch|throughput|convergence|server] ...
//! ```
//!
//! Input sizes are scaled for a laptop-class machine; set `SFA_SCALE=64`
//! (or higher) to approach the paper's 1 GB inputs, and `SFA_SNORT_COUNT`
//! to raise the Figure 3 corpus to the paper's 20 000+ patterns.

use sfa_bench::{measure, scale, thread_sweep};
use sfa_core::{DSfa, GrowthClass, SfaConfig, SizeReport};
use sfa_matcher::{ParallelSfaMatcher, Reduction, Regex, SpeculativeDfaMatcher, Strategy};
use sfa_monoid::{fact2_dfa, pow_self, TransitionMonoid};
use sfa_workloads as workloads;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&str> =
        if args.is_empty() { vec!["all"] } else { args.iter().map(|s| s.as_str()).collect() };
    let run = |name: &str| targets.iter().any(|&t| t == "all" || t == name);

    println!("SFA reproduction harness (scale = {}, cores = {})", scale(), num_cpus());
    println!("================================================================");

    if run("fig3") {
        fig3();
    }
    if run("fig45") {
        fig45();
    }
    if run("table2") {
        table2();
    }
    if run("fig6") {
        scalability_figure("Figure 6", 5, false);
    }
    if run("fig7") {
        scalability_figure("Figure 7", 50, false);
    }
    if run("fig8") {
        // The paper uses n = 500 (|S_d| ≈ 10^6, 1 GB tables). We default to
        // n = 100 which already produces a multi-MB footprint; SFA_SCALE ≥ 8
        // switches to larger n.
        let n = if scale() >= 8 { 300 } else { 100 };
        scalability_figure("Figure 8", n, false);
    }
    if run("fig9") {
        scalability_figure("Figure 9", 50, true);
    }
    if run("fig10") {
        fig10();
    }
    if run("table3") {
        table3();
    }
    if run("facts") {
        facts();
    }
    if run("backends") {
        backends();
    }
    if run("multimatch") {
        multimatch();
    }
    if run("throughput") {
        throughput();
    }
    if run("convergence") {
        convergence();
    }
    if run("server") {
        server();
    }
}

/// Detected logical-CPU count — what the benchmark summaries record as
/// `"cores"` (as opposed to `"workers"`, the requested pool size).
fn num_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Detected SIMD capability, recorded as `"cpu_features"` in the
/// throughput summary. Joined with `+` rather than a comma because the
/// baseline checkers' naive `field()` parser cuts values at the next
/// comma; `"none"` when the host offers nothing the kernels use.
fn cpu_features() -> String {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            features.push("ssse3");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
    }
    if features.is_empty() {
        "none".into()
    } else {
        features.join("+")
    }
}

/// Figure 3: D-SFA size vs. minimal-DFA size over a SNORT-like ruleset,
/// plus the Section VI-A counts (patterns > 10 000 states, over-square,
/// over-cube, over-quartic).
fn fig3() {
    let count: usize =
        std::env::var("SFA_SNORT_COUNT").ok().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    println!(
        "\n## Figure 3 — D-SFA size vs. minimal DFA size ({count} synthetic SNORT-like patterns)"
    );
    let rules = workloads::ruleset(&workloads::SnortConfig { count, ..Default::default() });
    let start = Instant::now();
    let mut reports: Vec<SizeReport> = Vec::new();
    let mut skipped = 0usize;
    for pattern in &rules {
        // The paper's cut-off: skip patterns whose DFA exceeds 1000 states.
        let built = Regex::builder()
            .mode(sfa_matcher::MatchMode::Whole)
            .max_dfa_states(1000)
            .max_sfa_states(200_000)
            .build(pattern);
        match built {
            Ok(re) => reports.push(re.size_report()),
            Err(_) => skipped += 1,
        }
    }
    let elapsed = start.elapsed();
    let total = reports.len();
    let big = reports.iter().filter(|r| r.sfa_states > 10_000).count();
    let over_square = reports
        .iter()
        .filter(|r| {
            matches!(
                r.growth,
                GrowthClass::OverSquare | GrowthClass::OverCube | GrowthClass::OverQuartic
            )
        })
        .count();
    let over_cube = reports
        .iter()
        .filter(|r| matches!(r.growth, GrowthClass::OverCube | GrowthClass::OverQuartic))
        .count();
    let over_quartic = reports.iter().filter(|r| r.growth == GrowthClass::OverQuartic).count();
    println!(
        "patterns built: {total} (skipped {skipped}, e.g. DFA > 1000 states) in {:.1?}",
        elapsed
    );
    println!("|S_d| > 10000 states  : {:5}  ({:.2}%)   [paper: 0.5%]", big, pct(big, total));
    println!(
        "over-square  |S|>|D|^2: {:5}  ({:.2}%)   [paper: 1.4%]",
        over_square,
        pct(over_square, total)
    );
    println!(
        "over-cube    |S|>|D|^3: {:5}  ({:.2}%)   [paper: 6 patterns]",
        over_cube,
        pct(over_cube, total)
    );
    println!(
        "over-quartic |S|>|D|^4: {:5}  ({:.2}%)   [paper: 0 patterns]",
        over_quartic,
        pct(over_quartic, total)
    );
    // A compact scatter summary: per DFA-size decade, min/median/max SFA size.
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>12}",
        "DFA states", "#patterns", "min |S_d|", "median", "max |S_d|"
    );
    for (lo, hi) in [(1usize, 10usize), (11, 100), (101, 1000)] {
        let mut sizes: Vec<usize> = reports
            .iter()
            .filter(|r| r.dfa_states >= lo && r.dfa_states <= hi)
            .map(|r| r.sfa_states)
            .collect();
        if sizes.is_empty() {
            continue;
        }
        sizes.sort_unstable();
        println!(
            "{:>12} {:>10} {:>12} {:>12} {:>12}",
            format!("{lo}-{hi}"),
            sizes.len(),
            sizes[0],
            sizes[sizes.len() / 2],
            sizes[sizes.len() - 1]
        );
    }
}

/// Figures 4 & 5: the DFA and D-SFA of r_2, emitted as Graphviz plus size
/// check.
fn fig45() {
    println!("\n## Figures 4 & 5 — DFA and D-SFA of r_2 = ([0-4]{{2}}[5-9]{{2}})*");
    let re = Regex::new(&workloads::rn_pattern(2)).unwrap();
    println!(
        "|D| = {} live states (+1 dead), |S_d| = {} states",
        re.dfa().num_live_states(),
        re.sfa().num_states()
    );
    let dot_dir = std::path::Path::new("target/reproduce");
    std::fs::create_dir_all(dot_dir).ok();
    let dfa_dot = sfa_automata::dot::dfa_to_dot(re.dfa(), "fig4_r2_dfa");
    let eager = re.sfa().eager().expect("default builds are eager");
    let sfa_dot = sfa_automata::dot::dfa_to_dot(&eager.as_dfa(), "fig5_r2_dsfa");
    std::fs::write(dot_dir.join("fig4_r2_dfa.dot"), &dfa_dot).ok();
    std::fs::write(dot_dir.join("fig5_r2_dsfa.dot"), &sfa_dot).ok();
    println!("Graphviz written to target/reproduce/fig4_r2_dfa.dot and fig5_r2_dsfa.dot");
}

/// Table II: measured state counts for NFA / DFA / D-SFA / N-SFA of the
/// r_n family (the asymptotic columns are validated by the growth rates).
fn table2() {
    println!("\n## Table II — state complexity (measured on r_n)");
    println!("{:>6} {:>10} {:>10} {:>10} {:>12}", "n", "|N|", "|D| live", "|S_d|", "|S_n|");
    for n in [2usize, 3, 5] {
        let pattern = workloads::rn_pattern(n);
        let nfa = sfa_automata::Nfa::from_pattern(&pattern).unwrap();
        let re = Regex::new(&pattern).unwrap();
        let nsfa = sfa_core::NSfa::from_nfa(
            &nfa,
            &SfaConfig { max_states: 2_000_000, ..SfaConfig::default() },
        );
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>12}",
            n,
            nfa.num_states(),
            re.dfa().num_live_states(),
            re.sfa().num_states(),
            nsfa.map(|s| s.num_states().to_string()).unwrap_or_else(|_| "limit".into())
        );
    }
}

/// Figures 6–9: throughput (GB/s) of sequential DFA matching (1 thread) and
/// parallel SFA matching as the thread count grows.
fn scalability_figure(name: &str, n: usize, fig9_repeated_a: bool) {
    let pattern =
        if fig9_repeated_a { workloads::rn_or_a_pattern(n) } else { workloads::rn_pattern(n) };
    // Quick default: 8 MiB of accepted text, scaled by SFA_SCALE.
    let len = 8 * 1024 * 1024 * scale();
    println!("\n## {name} — {pattern}  (input {} MiB)", len / (1024 * 1024));
    let build_start = Instant::now();
    let re = Regex::builder().max_sfa_states(2_000_000).build(&pattern).unwrap();
    let report = re.size_report();
    println!(
        "|D| = {} live, |S_d| = {}, SFA table {} KiB, mappings {} KiB (built in {:.2?}, {} backend, {} states materialized)",
        re.dfa().num_live_states(),
        re.sfa().num_states(),
        re.sfa().table_bytes() / 1024,
        re.sfa().mapping_bytes() / 1024,
        build_start.elapsed(),
        report.backend,
        report.materialized_states,
    );
    let text = if fig9_repeated_a {
        workloads::repeated_a_text(len)
    } else {
        workloads::rn_text(n, len, 0x5FA)
    };
    let runs = 3;
    let seq = measure(text.len(), runs, || {
        assert!(re.is_match_with(&text, Strategy::Sequential));
    });
    println!("{:>8} {:>14} {:>14}", "threads", "DFA seq GB/s", "SFA par GB/s");
    println!("{:>8} {:>14.3} {:>14}", 1, seq.gb_per_sec(), "-");
    for threads in thread_sweep().into_iter().filter(|&t| t > 1) {
        // A dedicated pool per sweep point so the scan really runs on
        // `threads` workers (the shared global engine caps the chunk
        // count at the machine's CPU count).
        let matcher = ParallelSfaMatcher::with_engine(re.sfa(), sfa_matcher::Engine::new(threads));
        let par = measure(text.len(), runs, || {
            assert!(re.dfa().is_accepting(matcher.run(&text, threads, Reduction::Sequential)));
        });
        println!("{:>8} {:>14} {:>14.3}", threads, "-", par.gb_per_sec());
    }
}

/// Figure 10: execution time of sequential DFA vs. 2-thread SFA matching on
/// small inputs (the crossover experiment).
fn fig10() {
    println!("\n## Figure 10 — small-input overhead, {}", workloads::fig10_pattern());
    let re = Regex::new(workloads::fig10_pattern()).unwrap();
    println!("|D| = {} live, |S| = {}", re.dfa().num_live_states(), re.sfa().num_states());
    let matcher = ParallelSfaMatcher::new(re.sfa());
    println!(
        "{:>12} {:>16} {:>20} {:>10}",
        "input (KB)", "DFA seq (µs)", "SFA 2 threads (µs)", "winner"
    );
    for kb in [100usize, 200, 400, 600, 800, 1000] {
        let text = workloads::fig10_text(kb * 1000, 42);
        let seq = measure(text.len(), 5, || {
            assert!(re.is_match_with(&text, Strategy::Sequential));
        });
        let par = measure(text.len(), 5, || {
            assert!(re.dfa().is_accepting(matcher.run(&text, 2, Reduction::Sequential)));
        });
        println!(
            "{:>12} {:>16.1} {:>20.1} {:>10}",
            kb,
            seq.elapsed.as_secs_f64() * 1e6,
            par.elapsed.as_secs_f64() * 1e6,
            if par.elapsed < seq.elapsed { "SFA" } else { "DFA" }
        );
    }
}

/// Table III: construction time of the DFA and the D-SFA for r_n.
fn table3() {
    println!("\n## Table III — construction times for r_n = ([0-4]{{n}}[5-9]{{n}})*");
    let ns: Vec<usize> = if scale() >= 8 { vec![5, 50, 500] } else { vec![5, 50, 200] };
    println!("{:>6} {:>12} {:>10} {:>14} {:>12}", "n", "DFA (s)", "|D|", "D-SFA (s)", "|S_d|");
    for n in ns {
        let pattern = workloads::rn_pattern(n);
        let t0 = Instant::now();
        let dfa = sfa_automata::minimal_dfa_from_pattern(&pattern).unwrap();
        let dfa_time = t0.elapsed();
        let t1 = Instant::now();
        let sfa =
            DSfa::from_dfa(&dfa, &SfaConfig { max_states: 2_000_000, ..SfaConfig::default() })
                .unwrap();
        let sfa_time = t1.elapsed();
        println!(
            "{:>6} {:>12.4} {:>10} {:>14.4} {:>12}",
            n,
            dfa_time.as_secs_f64(),
            dfa.num_live_states(),
            sfa_time.as_secs_f64(),
            sfa.num_states()
        );
    }
}

/// Section VII: Facts 1 and 2 (state explosion families) and the syntactic
/// monoid bridge, plus a sanity comparison of Algorithm 3 vs Algorithm 5.
fn facts() {
    println!("\n## Section VII — explosion families and the syntactic monoid");
    println!("Fact 1 (|D| ~ 2^n for [ap]*[al][alp]{{n-2}}):");
    for n in [4usize, 6, 8] {
        let dfa = sfa_monoid::explosion::example3_dfa(n).unwrap();
        println!("  n = {:>2}: |D| live = {:>5} (2^n = {})", n, dfa.num_live_states(), 1usize << n);
    }
    println!("Fact 2 (|S_d| = |D|^|D| witness):");
    for n in [2usize, 3, 4] {
        let dfa = fact2_dfa(n);
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        println!(
            "  n = {:>2}: |D| live = {:>2}, |S_d| = {:>5} (n^n + 1 = {})",
            n,
            dfa.num_live_states(),
            sfa.num_states(),
            pow_self(n) + 1
        );
    }
    println!("Syntactic monoid size = |minimal SFA| (Sect. VII-A):");
    for pattern in ["(ab)*", "([0-4]{2}[5-9]{2})*", "(a|b)*abb"] {
        let dfa = sfa_automata::minimal_dfa_from_pattern(pattern).unwrap();
        let monoid = TransitionMonoid::of_dfa(&dfa, 1_000_000).unwrap();
        let sfa = DSfa::from_dfa(&dfa, &SfaConfig::default()).unwrap();
        println!("  {:<24} monoid = {:>4}, SFA = {:>4}", pattern, monoid.len(), sfa.num_states());
    }
    // Algorithm 3 vs Algorithm 5 on a medium automaton: the speculative
    // matcher pays O(|D|) per byte.
    let re = Regex::new(&workloads::rn_pattern(20)).unwrap();
    let text = workloads::rn_text(20, 2 * 1024 * 1024, 1);
    let spec = SpeculativeDfaMatcher::new(re.dfa());
    let sfa_m = ParallelSfaMatcher::new(re.sfa());
    let t_spec = measure(text.len(), 3, || {
        assert!(spec.accepts(&text, 2, Reduction::Sequential));
    });
    let t_sfa = measure(text.len(), 3, || {
        assert!(re.dfa().is_accepting(sfa_m.run(&text, 2, Reduction::Sequential)));
    });
    println!(
        "Algorithm 3 (speculative, 2 threads): {:>8.3} GB/s   Algorithm 5 (SFA, 2 threads): {:>8.3} GB/s   (|D| = {})",
        t_spec.gb_per_sec(),
        t_sfa.gb_per_sec(),
        re.dfa().num_live_states()
    );
}

/// Backends: the Section V-A on-the-fly construction on the repo's
/// explosion witness — the untamed ids_scan SQLi rule, whose *eager*
/// D-SFA exceeds 750 000 states while lazy matching materializes a few
/// dozen. Prints the full size report, backend kind and live
/// materialized-state count included.
fn backends() {
    use sfa_matcher::{BackendChoice, MatchMode};
    println!("\n## Backends — eager explosion vs. on-the-fly construction (Sect. V-A)");
    println!("rule: {}", workloads::SQLI_RULE);
    let builder = Regex::builder().mode(MatchMode::Contains).max_sfa_states(20_000);
    let t0 = Instant::now();
    let eager_err = builder.clone().backend(BackendChoice::Eager).build(workloads::SQLI_RULE);
    println!(
        "eager backend : {} (after {:.2?}; the full automaton exceeds 750k states)",
        eager_err.err().map(|e| e.to_string()).unwrap_or_else(|| "unexpectedly fit".into()),
        t0.elapsed()
    );
    let t1 = Instant::now();
    let re = builder.backend(BackendChoice::Auto).build(workloads::SQLI_RULE).unwrap();
    println!("auto backend  : fell back to {} in {:.2?}", re.backend_kind(), t1.elapsed());
    let log = workloads::http_log(20_000, 97, 0xBEEF);
    let mut attack = log.clone();
    attack.extend_from_slice(b"GET /q?u=union select name, pass from users HTTP/1.1\n");
    let t2 = Instant::now();
    assert!(!re.is_match_with(
        &log,
        Strategy::Parallel { threads: num_cpus(), reduction: Reduction::Sequential }
    ));
    assert!(re.is_match_with(
        &attack,
        Strategy::Parallel { threads: num_cpus(), reduction: Reduction::Sequential }
    ));
    println!(
        "scanned 2 × {} KiB in {:.2?} (clean log: no match; injected log: match)",
        log.len() / 1024,
        t2.elapsed()
    );
    println!("size report   : {}", re.size_report().to_json());
}

/// Multi-pattern (rule-set) matching: compile the ids_scan ruleset as one
/// automaton, scan the 2.4 MiB HTTP log, and report **which rules fired**
/// — the per-pattern verdicts that make the combined automaton usable as
/// an IDS engine — plus the cost of one combined pass vs. N individual
/// scans.
fn multimatch() {
    use sfa_matcher::{BackendChoice, MatchMode, RegexSet, Strategy};
    println!("\n## Multi-pattern matching — which rules fired (RegexSet::matches)");
    let builder = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_dfa_states(50_000)
        .max_sfa_states(2_000);
    let t0 = Instant::now();
    let set = RegexSet::new(workloads::IDS_SCAN_RULES.iter().copied(), &builder).unwrap();
    println!(
        "compiled {} rules into one automaton in {:.2?} (DFA = {} states, {} backend)",
        set.len(),
        t0.elapsed(),
        set.regex().dfa().num_states(),
        set.regex().backend_kind()
    );
    let mut log = workloads::http_log(50_000, 97, 0xBEEF);
    log.extend_from_slice(b"GET /q?u=union  select name, pass from users HTTP/1.1 200 17\n");
    log.extend_from_slice(b"GET /../../etc/passwd HTTP/1.1 403 0\n");

    // Sequential on both sides so the printed ratio isolates the
    // multi-pattern gain (one combined pass vs N passes), not the worker
    // pool — matching what benches/multimatch.rs measures.
    let t1 = Instant::now();
    let fired = set.matches_with(&log, Strategy::Sequential);
    let combined = t1.elapsed();
    println!("scanned {} KiB in {:.2?}; rules fired:", log.len() / 1024, combined);
    for (i, pattern) in set.patterns().iter().enumerate() {
        println!("  rule {i} [{}] {}", if fired.matched(i) { "FIRED" } else { "  -  " }, pattern);
    }

    // The baseline an IDS would otherwise run: N individual automata.
    let singles: Vec<Regex> =
        workloads::IDS_SCAN_RULES.iter().map(|p| builder.build(p).unwrap()).collect();
    let t2 = Instant::now();
    for (i, re) in singles.iter().enumerate() {
        assert_eq!(re.is_match_with(&log, Strategy::Sequential), fired.matched(i));
    }
    let individual = t2.elapsed();
    let combined_over_individual = individual.as_secs_f64() / combined.as_secs_f64();
    println!(
        "one combined pass: {:.2?}   vs. {} individual scans: {:.2?}  ({:.1}x)",
        combined,
        singles.len(),
        individual,
        combined_over_individual
    );

    // ---- sharded vs. unsharded: the 2^rules blowup, fixed --------------
    // Same ruleset and corpus as `benches/multimatch.rs::bench_sharded`:
    // eight encoded-injection rules whose required literals all start
    // with `%`, `<` or `'` (bytes benign traffic never carries), scanned
    // over 40-line request records so the byte scan dominates dispatch.
    println!("\n## Auto-sharded set + literal prefilter vs. one tracked product automaton");
    let kw_rules: [&str; 8] = [
        "%27[a-zA-Z0-9%]{0,4}",
        "%3[Cc]script",
        "<script[ >]",
        "'--",
        "' or 1=1",
        "%00[a-f0-9]{0,4}",
        "%2e%2e%2f",
        "%27union.{0,12}%20from",
    ];
    let kw_builder = builder.clone().max_dfa_states(2_000_000);
    let unsharded = RegexSet::new(kw_rules.iter().copied(), &kw_builder).unwrap();
    let sharded =
        RegexSet::new(kw_rules.iter().copied(), &kw_builder.clone().shard_state_budget(256))
            .unwrap();
    println!(
        "{} rules | unsharded tracked DFA: {} states | sharded: {} shards, largest {} states, \
         prefilter {} literals",
        kw_rules.len(),
        unsharded.size_report().dfa_states,
        sharded.shards().len(),
        sharded.size_report().max_shard_dfa_states,
        sharded.prefilter().map_or(0, |p| p.literal_count()),
    );
    let mut kw_log = workloads::http_log(10_000, 41, 11);
    kw_log.extend_from_slice(b"GET /search?q=%27union%20a%20from%20t HTTP/1.1 200 7\n");
    kw_log.extend_from_slice(b"GET /p?x=<script>alert(%00ff)</script> HTTP/1.1 403 0\n");
    let kw_raw: Vec<&[u8]> = kw_log.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let kw_grouped: Vec<Vec<u8>> = kw_raw.chunks(40).map(|c| c.join(&b' ')).collect();
    let kw_lines: Vec<&[u8]> = kw_grouped.iter().map(|g| g.as_slice()).collect();
    assert_eq!(
        sharded.matches_batch(&kw_lines),
        unsharded.matches_batch(&kw_lines),
        "sharded and unsharded verdicts must be identical"
    );
    let time3 = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..3 {
            f();
        }
        start.elapsed()
    };
    let t_sharded = time3(&|| {
        assert_eq!(sharded.matches_batch(&kw_lines).len(), kw_lines.len());
    });
    let t_unsharded = time3(&|| {
        assert_eq!(unsharded.matches_batch(&kw_lines).len(), kw_lines.len());
    });
    let sharded_over_unsharded = t_unsharded.as_secs_f64() / t_sharded.as_secs_f64();
    println!(
        "batch scan of {} lines — unsharded: {:.2?}   sharded+prefiltered: {:.2?}  ({:.1}x)",
        kw_lines.len(),
        t_unsharded,
        t_sharded,
        sharded_over_unsharded
    );

    // ---- the pinned 1k-rule corpus, packed under a state budget --------
    let corpus = workloads::corpus_1k();
    let fingerprint = fnv1a(corpus.join("\n").as_bytes());
    let budget = 2_000usize;
    let t3 = Instant::now();
    let big =
        RegexSet::new(corpus.iter().map(|s| s.as_str()), &kw_builder.shard_state_budget(budget))
            .unwrap();
    let packed = t3.elapsed();
    let fallback_shards = big.shards().iter().filter(|s| s.is_fallback()).count();
    let gated_shards = big.shards().iter().filter(|s| s.is_gated()).count();
    let big_report = big.size_report();
    for shard in big.shards() {
        assert!(
            shard.is_fallback() || shard.regex().dfa().num_states() <= budget,
            "non-fallback shard exceeds the budget"
        );
    }
    // The next-fit-decreasing packing order (largest solo trial DFA first)
    // must keep the corpus under the 550 shards the naive arrival-order
    // packing produced; the committed baseline pins the exact count (494).
    assert!(
        big.shards().len() < 550,
        "packing-order regression: corpus_1k needs {} shards (< 550 expected)",
        big.shards().len()
    );
    println!(
        "corpus_1k ({} rules, fingerprint {fingerprint:#x}) packed in {:.2?}: {} shards \
         ({} gated, {} fallback), largest non-fallback DFA ≤ {budget} states, total {} DFA states",
        corpus.len(),
        packed,
        big.shards().len(),
        gated_shards,
        fallback_shards,
        big_report.dfa_states,
    );

    // ---- machine-readable summary + regression gate --------------------
    let json = format!(
        concat!(
            "{{\"workload\":\"multimatch\",\"corpus\":\"corpus_1k\",\"corpus_rules\":{},",
            "\"corpus_fingerprint\":\"{:#x}\",\"shard_budget\":{},\"shards\":{},",
            "\"gated_shards\":{},\"fallback_shards\":{},\"max_shard_dfa_states\":{},",
            "\"total_dfa_states\":{},\"combined_over_individual\":{:.3},",
            "\"sharded_over_unsharded\":{:.3},\"cores\":{},\"scale\":{}}}"
        ),
        corpus.len(),
        fingerprint,
        budget,
        big.shards().len(),
        gated_shards,
        fallback_shards,
        big_report.max_shard_dfa_states,
        big_report.dfa_states,
        combined_over_individual,
        sharded_over_unsharded,
        num_cpus(),
        scale(),
    );
    let out = std::env::var("SFA_BENCH_OUT").unwrap_or_else(|_| "BENCH_multimatch.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark summary");
    println!("wrote {out}");
    if let Ok(baseline_path) = std::env::var("SFA_BENCH_BASELINE") {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read benchmark baseline");
        check_multimatch_baseline(&json, &baseline, &baseline_path);
    }
}

/// Packed state-id throughput: single-thread scan speed of the `u8`- and
/// `u16`-packed premultiplied byte tables against the same automaton forced
/// to the `u32` interface width, on the same pinned corpus, plus an
/// 8-worker parallel scan of the larger automaton and the SIMD kernel
/// ratios (`shuffle_over_scalar` on a ≤16-state rule, `gather_over_scalar`
/// for the 8-lane interleaved scan of the 128-state window automaton).
/// Writes `BENCH_throughput.json` (or `SFA_BENCH_OUT`) and, when
/// `SFA_BENCH_BASELINE` names a committed baseline, gates against it the
/// same way the multimatch target does.
///
/// Summary-field semantics worth spelling out (this bit the committed
/// baseline once): `workers` is the *requested* pool size of the parallel
/// scan (always 8), `cores` is the *detected* logical-CPU count of the
/// machine the file was generated on (`available_parallelism`), and
/// `cpu_features` / `simd` record the detected SIMD capability and
/// whether the binary was built with the `simd` feature — so a baseline
/// generated on a 1-core scalar box is distinguishable from an 8-core
/// AVX2 one without guessing.
fn throughput() {
    use sfa_core::StateIdRepr;
    println!("\n## Packed-table throughput — u8/u16 state ids vs. the u32 baseline");
    // Fixed 8 MiB corpora, deliberately *not* scaled by SFA_SCALE: the
    // committed baseline pins their fingerprints and the automaton sizes,
    // so the gate's structural fields must not depend on the environment.
    const LEN: usize = 8 * 1024 * 1024;
    let runs = 5;
    let builder = Regex::builder().max_sfa_states(2_000_000);

    // (k, expected packed width) for the sliding-window (de Bruijn) family
    // `[0-9]*[5-9][0-9]{k}` — see `workloads::window_pattern`: on random
    // digits the scan random-walks the whole table, so the touched-row
    // footprint is what the packed width shrinks. `k = 5` stays under 256
    // SFA states (u8 ids); `k = 12` needs u16. Both premultiply.
    let mut stats: Vec<(StateIdRepr, usize, u64, f64, f64)> = Vec::new();
    let mut small: Option<Regex> = None;
    let mut small_text: Vec<u8> = Vec::new();
    let mut large: Option<Regex> = None;
    let mut large_text: Vec<u8> = Vec::new();
    for (k, want) in [(5usize, StateIdRepr::U8), (12, StateIdRepr::U16)] {
        let pattern = workloads::window_pattern(k);
        let text = workloads::digit_text(LEN, 0x5FA);
        let fingerprint = fnv1a(&text);
        let packed = builder.clone().build(&pattern).unwrap();
        let wide = builder.clone().state_id_repr(StateIdRepr::U32).build(&pattern).unwrap();
        assert_eq!(packed.sfa().repr(), want, "auto-selected width for {pattern}");
        assert_eq!(wide.sfa().repr(), StateIdRepr::U32, "forced baseline width");
        assert!(packed.sfa().premultiplied() && wide.sfa().premultiplied());
        let scan = |re: &Regex| {
            let expected = re.sfa().run(&text);
            measure(text.len(), runs, || {
                assert_eq!(re.sfa().run(&text), expected);
            })
        };
        let t_packed = scan(&packed);
        let t_wide = scan(&wide);
        println!(
            "{}: |S_d| = {} ({} KiB packed vs. {} KiB u32 byte table) — {:.0} MB/s packed, \
             {:.0} MB/s u32  ({:.2}x)",
            want.as_str(),
            packed.sfa().num_states(),
            packed.sfa().byte_table_bytes() / 1024,
            wide.sfa().byte_table_bytes() / 1024,
            t_packed.mb_per_sec(),
            t_wide.mb_per_sec(),
            t_packed.mb_per_sec() / t_wide.mb_per_sec()
        );
        stats.push((
            want,
            packed.sfa().num_states(),
            fingerprint,
            t_packed.mb_per_sec(),
            t_wide.mb_per_sec(),
        ));
        if k == 5 {
            small = Some(packed);
            small_text = text;
        } else {
            large = Some(packed);
            large_text = text;
        }
    }

    // Algorithm 5 on the packed u16 automaton across a dedicated 8-worker
    // pool. The repr is orthogonal to the chunking, so this mostly tracks
    // core count — recorded for trend-watching, not gated.
    let workers = 8usize;
    let large = large.expect("the k = 12 window automaton was benchmarked above");
    let matcher = ParallelSfaMatcher::with_engine(large.sfa(), sfa_matcher::Engine::new(workers));
    let expected_final = large.dfa().run(&large_text);
    let t_par = measure(large_text.len(), runs, || {
        assert_eq!(matcher.run(&large_text, workers, Reduction::Sequential), expected_final);
    });
    println!(
        "parallel (u16 automaton, {workers} workers requested): {:.0} MB/s on {} detected \
         logical cores",
        t_par.mb_per_sec(),
        num_cpus()
    );

    // ---- SIMD kernels: dispatched scan vs. the scalar reference ---------
    // Both ratios pit `run`/`run_from_many` (which dispatch to the SIMD
    // kernels when the `simd` feature is built and the CPU qualifies)
    // against `run_from_scalar` on the same automaton and corpus, so on a
    // scalar build or CPU they hover around 1.0 and the baseline gate
    // skips them (see `check_throughput_baseline`).
    let features = cpu_features();
    println!(
        "simd: feature {}, cpu features {features}",
        if cfg!(feature = "simd") { "on" } else { "off" }
    );

    // Shuffle subject: `(ab)*` minimizes to a handful of states and packs
    // to u8 — the shape the nibble-indexed `pshufb` kernel accepts.
    let ab = builder.clone().build("(ab)*").unwrap();
    let ab_sfa = ab.sfa().eager().expect("default backend is eager");
    assert_eq!(ab_sfa.repr(), StateIdRepr::U8);
    let ab_text = b"ab".repeat(LEN / 2);
    let ab_expected = ab_sfa.run_from_scalar(ab_sfa.initial(), &ab_text);
    let t_shuffle = measure(ab_text.len(), runs, || {
        assert_eq!(ab_sfa.run(&ab_text), ab_expected);
    });
    let t_shuffle_scalar = measure(ab_text.len(), runs, || {
        assert_eq!(ab_sfa.run_from_scalar(ab_sfa.initial(), &ab_text), ab_expected);
    });
    let shuffle_kernel = ab_sfa.scan_kernel();
    let shuffle_over_scalar = t_shuffle.mb_per_sec() / t_shuffle_scalar.mb_per_sec();
    println!(
        "shuffle ({} states, kernel = {shuffle_kernel}): {:.0} MB/s vs. {:.0} MB/s scalar  \
         ({shuffle_over_scalar:.2}x)",
        ab_sfa.num_states(),
        t_shuffle.mb_per_sec(),
        t_shuffle_scalar.mb_per_sec(),
    );

    // Gather subject: the 128-state k = 5 window automaton is too big for
    // the shuffle kernel, so the win comes from interleaving — cut the
    // haystack into 8 identity-seeded lanes, drive them through one
    // `run_from_many` batch (the AVX2 gather kernel when available) and
    // compose the lane states back, exactly what a pool worker does when
    // its chunk plan carries `lanes > 1`.
    let small = small.expect("the k = 5 window automaton was benchmarked above");
    let win = small.sfa();
    let win_sfa = win.eager().expect("default backend is eager");
    let win_expected = win_sfa.run_from_scalar(win_sfa.initial(), &small_text);
    let lanes = 8usize;
    let t_gather = measure(small_text.len(), runs, || {
        let id = win.initial();
        let jobs: Vec<_> =
            sfa_matcher::split_chunks(&small_text, lanes).into_iter().map(|s| (id, s)).collect();
        let got =
            win.run_from_many(&jobs).into_iter().fold(id, |acc, f| win.compose_states(acc, f));
        assert_eq!(got, win_expected);
    });
    let t_gather_scalar = measure(small_text.len(), runs, || {
        assert_eq!(win_sfa.run_from_scalar(win_sfa.initial(), &small_text), win_expected);
    });
    let gather_kernel = win.scan_kernel();
    let gather_over_scalar = t_gather.mb_per_sec() / t_gather_scalar.mb_per_sec();
    println!(
        "interleaved x{lanes} ({} states, kernel = {gather_kernel}): {:.0} MB/s vs. {:.0} MB/s \
         non-interleaved  ({gather_over_scalar:.2}x)",
        win.num_states(),
        t_gather.mb_per_sec(),
        t_gather_scalar.mb_per_sec(),
    );

    // ---- machine-readable summary + regression gate --------------------
    let (u8s, u16s) = (&stats[0], &stats[1]);
    let json = format!(
        concat!(
            "{{\"workload\":\"throughput\",\"input_bytes\":{},",
            "\"u8_states\":{},\"u8_fingerprint\":\"{:#x}\",",
            "\"u8_mb_per_sec\":{:.1},\"u8_u32_mb_per_sec\":{:.1},\"u8_over_u32\":{:.3},",
            "\"u16_states\":{},\"u16_fingerprint\":\"{:#x}\",",
            "\"u16_mb_per_sec\":{:.1},\"u16_u32_mb_per_sec\":{:.1},\"u16_over_u32\":{:.3},",
            "\"workers\":{},\"parallel_mb_per_sec\":{:.1},",
            "\"simd\":{},\"cpu_features\":\"{}\",",
            "\"shuffle_kernel\":\"{}\",\"shuffle_over_scalar\":{:.3},",
            "\"gather_kernel\":\"{}\",\"gather_over_scalar\":{:.3},",
            "\"cores\":{},\"scale\":{}}}"
        ),
        LEN,
        u8s.1,
        u8s.2,
        u8s.3,
        u8s.4,
        u8s.3 / u8s.4,
        u16s.1,
        u16s.2,
        u16s.3,
        u16s.4,
        u16s.3 / u16s.4,
        workers,
        t_par.mb_per_sec(),
        cfg!(feature = "simd"),
        features,
        shuffle_kernel,
        shuffle_over_scalar,
        gather_kernel,
        gather_over_scalar,
        num_cpus(),
        scale(),
    );
    let out = std::env::var("SFA_BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark summary");
    println!("wrote {out}");
    if let Ok(baseline_path) = std::env::var("SFA_BENCH_BASELINE") {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read benchmark baseline");
        check_throughput_baseline(&json, &baseline, &baseline_path);
    }
}

/// Offline convergence analysis steering speculation: the full
/// [`ConvergenceReport`](sfa_matcher::ConvergenceReport) of two pinned
/// subjects — the streaming attack-scan rule
/// ([`workloads::LOG_SCAN_RULE`], Contains mode) over the log-replay
/// corpus, and the sliding-window family `[0-9]*[5-9][0-9]{5}` (Whole
/// mode) over random digits — plus the measured guided-over-baseline
/// speculation ratio for each. Writes `BENCH_convergence.json` (or
/// `SFA_BENCH_OUT`) and, when `SFA_BENCH_BASELINE` names a committed
/// baseline, gates against it: the analysis verdicts are deterministic
/// and must match exactly, the timing ratios within a noise margin.
fn convergence() {
    use sfa_matcher::{BackendChoice, ConvergenceClass, MatchMode};
    println!("\n## Convergence analysis — offline automaton reports steering speculation");
    let threads = 4usize;

    let class_name = |c: &ConvergenceClass| match c {
        ConvergenceClass::Synchronizing { .. } => "synchronizing",
        ConvergenceClass::Converging { .. } => "converging",
        ConvergenceClass::NonConverging => "non_converging",
    };
    let strategy_name = |s: Strategy| match s {
        Strategy::Auto => "auto",
        Strategy::Sequential => "sequential",
        Strategy::Parallel { .. } => "parallel",
        Strategy::Speculative { .. } => "speculative",
    };

    // Per subject: compile, analyze, and race the guided speculative
    // matcher against the all-states baseline on a dedicated pool.
    let summarize = |label: &str, re: &Regex, corpus: &[u8]| -> (String, f64) {
        let report = re.convergence_report();
        let auto = strategy_name(re.auto_strategy());
        let fingerprint = fnv1a(corpus);
        let engine = sfa_matcher::Engine::new(threads);
        let baseline = SpeculativeDfaMatcher::with_engine(re.dfa(), engine.clone());
        let guided = SpeculativeDfaMatcher::with_engine(re.dfa(), engine).with_analysis(report);
        let expected = re.dfa().run(corpus);
        assert_eq!(baseline.run(corpus, threads, Reduction::Sequential), expected);
        assert_eq!(guided.run(corpus, threads, Reduction::Sequential), expected);
        let t_baseline = measure(corpus.len(), 3, || {
            assert_eq!(baseline.run(corpus, threads, Reduction::Tree), expected);
        });
        let t_guided = measure(corpus.len(), 3, || {
            assert_eq!(guided.run(corpus, threads, Reduction::Tree), expected);
        });
        let ratio = t_baseline.elapsed.as_secs_f64() / t_guided.elapsed.as_secs_f64();
        println!(
            "{label}: |D| = {} states, class = {}, survivors = {}, horizon = {}, reset word = \
             {}, auto → {auto}",
            report.num_states(),
            class_name(&report.class()),
            report.survivor_count(),
            report.compaction_horizon(),
            report.reset_word().map_or("none".into(), |w| format!("{} bytes", w.len())),
        );
        println!(
            "  guided {:.3} GB/s vs. all-states baseline {:.3} GB/s  ({ratio:.1}x, {} KiB corpus)",
            t_guided.gb_per_sec(),
            t_baseline.gb_per_sec(),
            corpus.len() / 1024
        );
        let json = format!(
            concat!(
                "\"{l}_states\":{},\"{l}_class\":\"{}\",\"{l}_survivors\":{},",
                "\"{l}_horizon\":{},\"{l}_reset_len\":{},\"{l}_auto\":\"{}\",",
                "\"{l}_corpus_fingerprint\":\"{:#x}\",\"{l}_guided_over_baseline\":{:.3}"
            ),
            report.num_states(),
            class_name(&report.class()),
            report.survivor_count(),
            report.compaction_horizon(),
            report.reset_word().map_or(0, |w| w.len()),
            auto,
            fingerprint,
            ratio,
            l = label,
        );
        (json, ratio)
    };

    // Subject 1 — the streaming log-replay scan rule, Contains mode: a
    // small synchronizing needle automaton, the case the guided matcher
    // was built for. Fixed corpus size (not SFA_SCALE-scaled): the
    // committed baseline pins its fingerprint.
    let scan = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .threads(threads)
        .build(workloads::LOG_SCAN_RULE)
        .unwrap();
    let stream_config = workloads::StreamConfig {
        lines: 40_000,
        attack_every: 97,
        mean_block: 512,
        seed: 0xC0FFEE,
    };
    let scan_corpus = workloads::log_stream_bytes(&stream_config);
    assert!(scan.is_match_with(&scan_corpus, Strategy::Auto), "planted attacks must fire");
    let (scan_json, _) = summarize("scan", &scan, &scan_corpus);

    // Subject 2 — the sliding-window family in Whole mode over random
    // digits: any non-digit byte drives every state into the dead sink,
    // so the analysis still proves synchronization, but from a very
    // different automaton shape than the needle scan.
    let window = Regex::builder().threads(threads).build(&workloads::window_pattern(5)).unwrap();
    let window_corpus = workloads::digit_text(4 * 1024 * 1024, 0x5FA);
    let (window_json, _) = summarize("window", &window, &window_corpus);

    // ---- machine-readable summary + regression gate --------------------
    let json = format!(
        "{{\"workload\":\"convergence\",\"threads\":{threads},{scan_json},{window_json},\
         \"cores\":{},\"scale\":{}}}",
        num_cpus(),
        scale(),
    );
    let out = std::env::var("SFA_BENCH_OUT").unwrap_or_else(|_| "BENCH_convergence.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark summary");
    println!("wrote {out}");
    if let Ok(baseline_path) = std::env::var("SFA_BENCH_BASELINE") {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read benchmark baseline");
        check_convergence_baseline(&json, &baseline, &baseline_path);
    }
}

/// Durable artifacts + the match server: (a) cold start — loading the
/// `ids_scan` rules zero-copy from memory-mapped `.sfa` artifacts vs.
/// recompiling them through the full NFA → DFA → D-SFA pipeline — (b)
/// loopback service throughput — concurrent clients streaming the
/// [`workloads::service_requests`] batches through a TCP server
/// cold-started from the artifact, whose dispatcher flattens them into
/// batched scans, vs. one in-process `matches_batch` over the same
/// haystacks — and (c) Algorithm 5 per haystack on the artifact-loaded
/// vs. the compiled automaton. Writes `BENCH_server.json` (or
/// `SFA_BENCH_OUT`) and, when `SFA_BENCH_BASELINE` names a committed
/// baseline, gates against it: artifact sizes and corpus bytes are
/// deterministic and must match exactly, the cold-start ratio must stay
/// above the hard 10x floor, the loopback ratio within a noise margin of
/// the committed value, and the loaded-over-compiled ratio above its
/// floor.
fn server() {
    use sfa_matcher::{BackendChoice, MatchMode, RegexSet};
    use sfa_server::{Client, RegisterSource, Server, ServerConfig};

    println!("\n## Artifacts & the match server — mmap cold starts, loopback throughput");

    // ---- cold start: mmap'd artifact vs. full recompile ----------------
    // The subject is the server's own register path on the ids_scan
    // namespace: tier 3 (a fresh `RegexSet` compile of the whole pattern
    // list) vs. tier 1 (one `Regex::load_artifact` of the namespace's
    // durable union automaton). Rules whose eager D-SFA explodes (the
    // untamed SQLI rule) fall back to the lazy backend, which has no
    // durable form — `to_artifact` refuses them typed-ly and they are
    // excluded up front; the committed baseline pins how many remain.
    let capped = Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_dfa_states(50_000)
        .max_sfa_states(2_000);
    let eager_rules: Vec<&str> = workloads::IDS_SCAN_RULES
        .iter()
        .filter(|rule| {
            let durable = capped.clone().build(rule).unwrap().to_artifact().is_ok();
            if !durable {
                println!("  excluded (lazy-only, no durable form): {rule}");
            }
            durable
        })
        .copied()
        .collect();
    let dir = std::env::temp_dir().join(format!("sfa-reproduce-art-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    // The server's register builder: Contains mode, defaults otherwise.
    let namespace = || {
        RegexSet::new(eager_rules.iter().copied(), &Regex::builder().mode(MatchMode::Contains))
            .unwrap()
    };
    let set = namespace();
    assert!(!set.is_sharded(), "the ids_scan namespace compiles to one union automaton");
    let artifact = set.regex().to_artifact().expect("the union automaton is eager");
    let artifact_bytes = artifact.len();
    let path = dir.join("ids_scan.sfa");
    std::fs::write(&path, &artifact).expect("write artifact");
    let t_compile = measure(1, 3, || {
        assert_eq!(namespace().len(), eager_rules.len());
    });
    let t_load = measure(1, 5, || {
        assert_eq!(Regex::load_artifact(&path).unwrap().pattern_count(), eager_rules.len());
    });
    // Verdict agreement between the compiled and the artifact-loaded
    // namespace, on traffic that fires the rules.
    let mut probe = workloads::http_log(2_000, 97, 0xBEEF);
    probe.extend_from_slice(b"GET /../../etc/passwd from 10.1.2.3 HTTP/1.1 403 0\n");
    let lines: Vec<&[u8]> = probe.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let loaded = Regex::load_artifact(&path).unwrap();
    let from_set: Vec<Vec<usize>> =
        set.matches_batch(&lines).iter().map(|m| m.iter().collect()).collect();
    let from_artifact: Vec<Vec<usize>> =
        loaded.try_matches_batch(&lines).unwrap().iter().map(|m| m.iter().collect()).collect();
    assert_eq!(from_set, from_artifact, "artifact verdicts must equal the fresh compile's");
    // A loaded automaton is the compiled one with borrowed tables: it must
    // scan with the same kernel and lanes.
    let scan_kernel = set.regex().sfa().scan_kernel();
    assert_eq!(loaded.sfa().scan_kernel(), scan_kernel, "the loaded automaton lost its kernel");
    assert_eq!(loaded.sfa().preferred_lanes(), set.regex().sfa().preferred_lanes());
    let cold_start_ratio = t_compile.elapsed.as_secs_f64() / t_load.elapsed.as_secs_f64();
    println!(
        "cold start of the {}-rule namespace ({} KiB artifact): compile {:.2?} vs. mmap load \
         {:.2?}  ({cold_start_ratio:.0}x)",
        eager_rules.len(),
        artifact_bytes / 1024,
        t_compile.elapsed,
        t_load.elapsed,
    );

    // ---- loopback service throughput vs. in-process batch scan ---------
    let traffic = workloads::ServiceConfig { requests: 32, batch: 64, ..Default::default() };
    let stream = workloads::service_requests(&traffic);
    let total_bytes = workloads::service_bytes(&stream);
    let corpus_fingerprint = {
        let flat: Vec<u8> = stream.iter().flatten().flat_map(|h| h.iter().copied()).collect();
        fnv1a(&flat)
    };
    let rules: Vec<String> = eager_rules.iter().map(|s| s.to_string()).collect();

    // The in-process baseline: the namespace automaton compiled above
    // (the server's own register output), one `matches_batch` over every
    // haystack of the stream.
    let flat: Vec<&[u8]> = stream.iter().flatten().map(|h| h.as_slice()).collect();
    let expected: Vec<Vec<u32>> =
        set.matches_batch(&flat).iter().map(|m| m.iter().map(|id| id as u32).collect()).collect();
    let t_inprocess = measure(total_bytes, 3, || {
        assert_eq!(set.matches_batch(&flat).len(), flat.len());
    });
    // Algorithm 5 per haystack on every core, on the compiled and on the
    // artifact-loaded automaton: the path the scan kernel and lanes decide
    // inside one haystack (batches of these small haystacks instead scan
    // groups of whole haystacks through the lanes, one per lane).
    let parallel = Strategy::Parallel { threads: num_cpus(), reduction: Reduction::Sequential };
    let scan_each = |re: &Regex| -> Vec<Vec<u32>> {
        flat.iter()
            .map(|h| re.try_matches_with(h, parallel).unwrap().iter().map(|id| id as u32).collect())
            .collect()
    };
    assert_eq!(scan_each(&loaded), expected, "loaded Algorithm 5 verdicts must equal the batch's");
    let t_compiled_parallel = measure(total_bytes, 3, || {
        assert_eq!(scan_each(set.regex()).len(), flat.len());
    });
    let t_loaded_parallel = measure(total_bytes, 3, || {
        assert_eq!(scan_each(&loaded).len(), flat.len());
    });

    // The loopback run: a real TCP server on 127.0.0.1 cold-started from
    // the namespace's artifact (a warm-up server compiles the namespace
    // once into the artifact directory), so its scans run on tables
    // borrowed from the mapped file. Four concurrent connections split
    // the request stream, every reply checked against the in-process
    // verdicts.
    let config = ServerConfig {
        queue_depth: 1024,
        artifact_dir: Some(dir.join("tenants")),
        ..Default::default()
    };
    let warm = Server::bind_tcp("127.0.0.1:0", config.clone()).unwrap();
    warm.register("ids", &rules).expect("compile the ids namespace");
    warm.shutdown();
    let server = Server::bind_tcp("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let (_, source) = server.register("ids", &rules).expect("register the ids namespace");
    assert_eq!(source, RegisterSource::Artifact, "the loopback server must cold-start");
    let connections = 4usize;
    let per = stream.len().div_ceil(connections);
    // Persistent workers, one connection each, established *before* the
    // timed region — the measurement is the steady-state request/reply
    // traffic, not TCP handshakes or thread spawns.
    let (result_tx, result_rx) = std::sync::mpsc::channel::<(usize, Vec<Vec<u32>>)>();
    let mut triggers = Vec::new();
    let mut workers = Vec::new();
    for (index, chunk) in stream.chunks(per).enumerate() {
        let chunk = chunk.to_vec();
        let (trigger_tx, trigger_rx) = std::sync::mpsc::channel::<()>();
        triggers.push(trigger_tx);
        let result_tx = result_tx.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(addr).unwrap();
            while trigger_rx.recv().is_ok() {
                let mut verdicts = Vec::new();
                for request in &chunk {
                    let hay: Vec<&[u8]> = request.iter().map(|h| h.as_slice()).collect();
                    verdicts.extend(client.matches_batch_retrying("ids", &hay, 200).unwrap());
                }
                result_tx.send((index, verdicts)).unwrap();
            }
        }));
    }
    let worker_count = workers.len();
    let loopback_once = || {
        for trigger in &triggers {
            trigger.send(()).unwrap();
        }
        let mut per_worker: Vec<Vec<Vec<u32>>> = vec![Vec::new(); worker_count];
        for _ in 0..worker_count {
            let (index, verdicts) = result_rx.recv().unwrap();
            per_worker[index] = verdicts;
        }
        let got: Vec<Vec<u32>> = per_worker.into_iter().flatten().collect();
        assert_eq!(got, expected, "loopback verdicts must equal the in-process scan");
    };
    loopback_once(); // warm-up: connections, tenant automaton, page cache
    let t_loopback = measure(total_bytes, 3, loopback_once);
    drop(triggers);
    for worker in workers {
        let _ = worker.join();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let loopback_over_inprocess = t_loopback.mb_per_sec() / t_inprocess.mb_per_sec();
    let loaded_over_compiled = t_loaded_parallel.mb_per_sec() / t_compiled_parallel.mb_per_sec();
    println!(
        "loopback ({connections} connections, {} requests x {} haystacks, artifact tenant): \
         {:.0} MB/s vs. in-process batch {:.0} MB/s  ({loopback_over_inprocess:.2}x)",
        traffic.requests,
        traffic.batch,
        t_loopback.mb_per_sec(),
        t_inprocess.mb_per_sec(),
    );
    println!(
        "Algorithm 5 per haystack ({scan_kernel} kernel): artifact-loaded {:.0} MB/s vs. \
         compiled {:.0} MB/s  ({loaded_over_compiled:.2}x)",
        t_loaded_parallel.mb_per_sec(),
        t_compiled_parallel.mb_per_sec(),
    );

    // ---- machine-readable summary + regression gate --------------------
    let json = format!(
        concat!(
            "{{\"workload\":\"server\",\"artifact_rules\":{},\"artifact_bytes\":{},",
            "\"cold_compile_ms\":{:.2},\"cold_load_ms\":{:.2},\"cold_start_ratio\":{:.1},",
            "\"requests\":{},\"batch\":{},\"service_bytes\":{},",
            "\"corpus_fingerprint\":\"{:#x}\",\"connections\":{},",
            "\"loopback_mb_per_sec\":{:.1},\"inprocess_mb_per_sec\":{:.1},",
            "\"loopback_over_inprocess\":{:.3},\"loaded_parallel_mb_per_sec\":{:.1},",
            "\"compiled_parallel_mb_per_sec\":{:.1},\"loaded_over_compiled\":{:.3},",
            "\"scan_kernel\":\"{}\",\"cores\":{},\"scale\":{}}}"
        ),
        eager_rules.len(),
        artifact_bytes,
        t_compile.elapsed.as_secs_f64() * 1e3,
        t_load.elapsed.as_secs_f64() * 1e3,
        cold_start_ratio,
        traffic.requests,
        traffic.batch,
        total_bytes,
        corpus_fingerprint,
        connections,
        t_loopback.mb_per_sec(),
        t_inprocess.mb_per_sec(),
        loopback_over_inprocess,
        t_loaded_parallel.mb_per_sec(),
        t_compiled_parallel.mb_per_sec(),
        loaded_over_compiled,
        scan_kernel,
        num_cpus(),
        scale(),
    );
    let out = std::env::var("SFA_BENCH_OUT").unwrap_or_else(|_| "BENCH_server.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark summary");
    println!("wrote {out}");
    if let Ok(baseline_path) = std::env::var("SFA_BENCH_BASELINE") {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read benchmark baseline");
        check_server_baseline(&json, &baseline, &baseline_path);
    }
}

/// The server counterpart of [`check_multimatch_baseline`]: artifact
/// structure (how many rules serialize, their total encoded bytes) and the
/// service corpus (request/batch shape, byte total, fingerprint) are
/// deterministic and must match the committed baseline exactly. The
/// cold-start ratio is timing, but the gap is so wide (full pipeline vs.
/// mmap + validation) that a hard 10x floor holds on any hardware; the
/// loopback-over-in-process ratio is genuinely noisy across machines and
/// only needs to stay within a generous margin of the committed value.
/// Algorithm 5 on the artifact-loaded automaton must keep pace with the
/// compiled one (a hard floor, whatever the baseline says).
fn check_server_baseline(current: &str, baseline: &str, baseline_path: &str) {
    fn field<'a>(json: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\":");
        let start =
            json.find(&needle).unwrap_or_else(|| panic!("missing field {key}")) + needle.len();
        let rest = &json[start..];
        rest[..rest.find([',', '}']).unwrap()].trim()
    }
    let mut failed = false;
    for key in [
        "artifact_rules",
        "artifact_bytes",
        "requests",
        "batch",
        "service_bytes",
        "corpus_fingerprint",
    ] {
        let (now, was) = (field(current, key), field(baseline, key));
        if now != was {
            eprintln!("REGRESSION: {key} = {now}, baseline {was} ({baseline_path})");
            failed = true;
        }
    }
    {
        let key = "cold_start_ratio";
        let now: f64 = field(current, key).parse().unwrap();
        let was: f64 = field(baseline, key).parse().unwrap();
        // mmap-vs-recompile is orders of magnitude; anything under 10x
        // means the zero-copy loader started doing real work.
        let min = (0.1 * was).max(10.0);
        if now < min {
            eprintln!(
                "REGRESSION: {key} = {now:.1}, needs ≥ {min:.1} (baseline {was:.1}, {baseline_path})"
            );
            failed = true;
        }
    }
    {
        let key = "loopback_over_inprocess";
        let now: f64 = field(current, key).parse().unwrap();
        let was: f64 = field(baseline, key).parse().unwrap();
        // Protocol + dispatch overhead varies with core count and loopback
        // stack; accept anything at or above 40 % of the committed ratio,
        // but never below the hard floor.
        let min = (0.4 * was).max(0.3);
        if now < min {
            eprintln!(
                "REGRESSION: {key} = {now:.2}, needs ≥ {min:.2} (baseline {was:.2}, {baseline_path})"
            );
            failed = true;
        }
    }
    {
        // A loaded automaton runs the compiled one's code on borrowed
        // tables, so only noise separates the two; a drop below the floor
        // means the loaded path lost its kernel or lanes.
        let key = "loaded_over_compiled";
        let now: f64 = field(current, key).parse().unwrap();
        let min = 0.85;
        if now < min {
            eprintln!("REGRESSION: {key} = {now:.2}, needs ≥ {min:.2} ({baseline_path})");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("baseline check passed against {baseline_path}");
}

/// The convergence counterpart of [`check_multimatch_baseline`]: every
/// analysis verdict (state counts, class names, survivors, horizons,
/// reset-word lengths, the Auto resolution) and corpus fingerprint is
/// deterministic and must match the committed baseline exactly; the
/// guided-over-baseline timing ratio of the synchronizing scan subject
/// only needs to stay within a generous noise margin — but never below
/// the hard floor, which asserts the guided path keeps genuinely beating
/// the all-states baseline.
fn check_convergence_baseline(current: &str, baseline: &str, baseline_path: &str) {
    fn field<'a>(json: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\":");
        let start =
            json.find(&needle).unwrap_or_else(|| panic!("missing field {key}")) + needle.len();
        let rest = &json[start..];
        rest[..rest.find([',', '}']).unwrap()].trim()
    }
    let mut failed = false;
    for key in [
        "threads",
        "scan_states",
        "scan_class",
        "scan_survivors",
        "scan_horizon",
        "scan_reset_len",
        "scan_auto",
        "scan_corpus_fingerprint",
        "window_states",
        "window_class",
        "window_survivors",
        "window_horizon",
        "window_reset_len",
        "window_auto",
        "window_corpus_fingerprint",
    ] {
        let (now, was) = (field(current, key), field(baseline, key));
        if now != was {
            eprintln!("REGRESSION: {key} = {now}, baseline {was} ({baseline_path})");
            failed = true;
        }
    }
    // Only the synchronizing scan subject's ratio is gated — the window
    // subject's is recorded for trend-watching.
    let (key, floor) = ("scan_guided_over_baseline", 1.3);
    let now: f64 = field(current, key).parse().unwrap();
    let was: f64 = field(baseline, key).parse().unwrap();
    // Timing is noisy across machines: accept anything at or above
    // 40 % of the committed ratio, but never below the hard floor.
    let min = (0.4 * was).max(floor);
    if now < min {
        eprintln!(
            "REGRESSION: {key} = {now:.2}, needs ≥ {min:.2} (baseline {was:.2}, {baseline_path})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("baseline check passed against {baseline_path}");
}

/// The throughput counterpart of [`check_multimatch_baseline`]: automaton
/// sizes and corpus fingerprints must match the committed baseline exactly
/// (construction is deterministic), while the packed-over-u32 ratios only
/// need to stay within a generous noise margin — but never below the hard
/// floors, which assert that packing the tables does not *cost* throughput.
fn check_throughput_baseline(current: &str, baseline: &str, baseline_path: &str) {
    fn field<'a>(json: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\":");
        let start =
            json.find(&needle).unwrap_or_else(|| panic!("missing field {key}")) + needle.len();
        let rest = &json[start..];
        rest[..rest.find([',', '}']).unwrap()].trim()
    }
    let mut failed = false;
    for key in ["input_bytes", "u8_states", "u8_fingerprint", "u16_states", "u16_fingerprint"] {
        let (now, was) = (field(current, key), field(baseline, key));
        if now != was {
            eprintln!("REGRESSION: {key} = {now}, baseline {was} ({baseline_path})");
            failed = true;
        }
    }
    for (key, floor) in [("u8_over_u32", 0.8), ("u16_over_u32", 0.8)] {
        let now: f64 = field(current, key).parse().unwrap();
        let was: f64 = field(baseline, key).parse().unwrap();
        // Timing is noisy across machines: accept anything at or above
        // 40 % of the committed ratio, but never below the hard floor.
        let min = (0.4 * was).max(floor);
        if now < min {
            eprintln!(
                "REGRESSION: {key} = {now:.2}, needs ≥ {min:.2} (baseline {was:.2}, {baseline_path})"
            );
            failed = true;
        }
    }
    // The SIMD ratios are gated only when this run actually engaged the
    // kernel (a scalar build or CPU measures scalar-vs-scalar noise around
    // 1.0x, which must not fail the gate) and the committed baseline is
    // new enough to carry the field (legacy baselines predate it).
    for (kernel_key, ratio_key, floor) in [
        ("shuffle_kernel", "shuffle_over_scalar", 1.2),
        ("gather_kernel", "gather_over_scalar", 1.05),
    ] {
        let engaged = field(current, kernel_key).trim_matches('"');
        if engaged == "scalar" || !baseline.contains(&format!("\"{ratio_key}\":")) {
            continue;
        }
        let now: f64 = field(current, ratio_key).parse().unwrap();
        let was: f64 = field(baseline, ratio_key).parse().unwrap();
        let min = (0.4 * was).max(floor);
        if now < min {
            eprintln!(
                "REGRESSION: {ratio_key} = {now:.2}, needs ≥ {min:.2} (baseline {was:.2}, {baseline_path})"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("baseline check passed against {baseline_path}");
}

/// FNV-1a, the corpus fingerprint also pinned by the workloads tests.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fails the run (exit 1) when the current multimatch summary regresses
/// against the committed baseline: structural fields (corpus fingerprint,
/// shard budget and counts, state totals) must match exactly — packing is
/// deterministic — while the timing ratios only need to stay within a
/// generous noise margin of the baseline.
fn check_multimatch_baseline(current: &str, baseline: &str, baseline_path: &str) {
    fn field<'a>(json: &'a str, key: &str) -> &'a str {
        let needle = format!("\"{key}\":");
        let start =
            json.find(&needle).unwrap_or_else(|| panic!("missing field {key}")) + needle.len();
        let rest = &json[start..];
        rest[..rest.find([',', '}']).unwrap()].trim()
    }
    let mut failed = false;
    for key in [
        "corpus_rules",
        "corpus_fingerprint",
        "shard_budget",
        "shards",
        "gated_shards",
        "fallback_shards",
        "max_shard_dfa_states",
        "total_dfa_states",
    ] {
        let (now, was) = (field(current, key), field(baseline, key));
        if now != was {
            eprintln!("REGRESSION: {key} = {now}, baseline {was} ({baseline_path})");
            failed = true;
        }
    }
    for (key, floor) in [("combined_over_individual", 1.0), ("sharded_over_unsharded", 3.0)] {
        let now: f64 = field(current, key).parse().unwrap();
        let was: f64 = field(baseline, key).parse().unwrap();
        // Timing is noisy across machines: accept anything at or above
        // 40 % of the committed ratio, but never below the hard floor.
        let min = (0.4 * was).max(floor);
        if now < min {
            eprintln!(
                "REGRESSION: {key} = {now:.2}, needs ≥ {min:.2} (baseline {was:.2}, {baseline_path})"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("baseline check passed against {baseline_path}");
}

fn pct(part: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}
