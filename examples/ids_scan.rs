//! Intrusion-detection-style scanning: compile a small ruleset of
//! SNORT-like patterns into one automaton, scan an HTTP log, and report
//! **which rules fired and how often** — the per-pattern verdicts of
//! `RegexSet::matches` / `matches_batch`, not just a single any-match
//! boolean.
//!
//! The ruleset ([`sfa::workloads::IDS_SCAN_RULES`]) is the *full* one,
//! untamed SQLi rule included: its eager D-SFA exceeds 750 000 states
//! (an earlier revision had to weaken the rule to keep eager
//! construction feasible), so the set is compiled with
//! `backend(BackendChoice::Auto)` — the builder tries the eager tables,
//! overflows the state cap, and falls back to the paper's Section V-A
//! on-the-fly construction, which materializes only the states the log
//! actually visits.
//!
//! Run with: `cargo run --release --example ids_scan`

use sfa::prelude::*;
use sfa::workloads;

fn main() {
    // A dedicated 4-worker pool so the "4 threads" figure below is honest
    // even on machines with fewer CPUs (the default engine caps the chunk
    // count at available_parallelism). Under the 2k-state cap Auto's lower
    // bound proves the explosion and goes lazy without an eager attempt;
    // the full construction would blow through 750k states (each interned
    // SFA state costs O(|D|), and the per-rule DFA is 5 668 states).
    let set = RegexSet::new(
        workloads::IDS_SCAN_RULES.iter().copied(),
        &Regex::builder()
            .mode(MatchMode::Contains)
            .backend(BackendChoice::Auto)
            .max_dfa_states(50_000)
            .max_sfa_states(2_000)
            .engine(Engine::new(4))
            .threads(4),
    )
    .expect("ruleset compiles (Auto falls back to the lazy backend)");

    let report = set.regex().size_report();
    println!(
        "combined automaton: {} rules, DFA = {} states, backend = {} ({} SFA states materialized)",
        set.len(),
        set.regex().dfa().num_states(),
        report.backend,
        report.materialized_states
    );
    assert_eq!(report.backend, BackendKind::Lazy, "the untamed ruleset needs the lazy fallback");

    // A synthetic HTTP log with a /cgi-bin probe every 97 lines, plus a
    // handful of injected SQLi and path-traversal lines so several rules
    // have something to fire on.
    let mut log = workloads::http_log(50_000, 97, 0xBEEF);
    log.extend_from_slice(b"GET /q?u=union  select name, pass from users HTTP/1.1 200 17\n");
    log.extend_from_slice(b"GET /../../etc/passwd HTTP/1.1 403 0\n");
    log.extend_from_slice(b"GET /q?u=UNION SELECT card, cvv FROM payments HTTP/1.1 200 9\n");
    println!("scanning {} KiB of log data against {} rules", log.len() / 1024, set.len());

    // Which rules fired anywhere in the log — one pass, all verdicts.
    let t0 = std::time::Instant::now();
    let fired_seq = set.matches_with(&log, Strategy::Sequential);
    let t_seq = t0.elapsed();

    let t1 = std::time::Instant::now();
    let fired_par =
        set.matches_with(&log, Strategy::Parallel { threads: 4, reduction: Reduction::Sequential });
    let t_par = t1.elapsed();
    assert_eq!(fired_seq, fired_par, "per-rule verdicts are strategy-independent");

    // Streaming: the same log arriving in 8 KiB blocks must agree; the
    // boolean verdict freezes at the first hit, and once every rule's
    // fate is frozen the full per-rule verdict is final too.
    let mut stream = set.stream();
    let mut any_hit_at_block = None;
    for (i, block) in log.chunks(8 * 1024).enumerate() {
        stream.feed(block);
        if any_hit_at_block.is_none() && stream.verdict() == Some(true) {
            any_hit_at_block = Some(i);
        }
    }
    let fired_stream = stream.set_matches();
    assert_eq!(fired_seq, fired_stream, "feed boundaries cannot change which rules fired");
    println!(
        "any-match verdict was final after block {} of {}",
        any_hit_at_block.expect("the log plants attacks"),
        log.len().div_ceil(8 * 1024)
    );

    // Per-rule hit counts over the request lines, matched as one batch.
    let lines: Vec<&[u8]> = log.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let verdicts = set.matches_batch(&lines);
    let mut hits = vec![0usize; set.len()];
    for verdict in &verdicts {
        for rule in verdict {
            hits[rule] += 1;
        }
    }
    println!("per-rule hits over {} request lines:", lines.len());
    for (i, pattern) in set.patterns().iter().enumerate() {
        println!(
            "  rule {i} [{}] {:>6} hits  {}",
            if fired_seq.matched(i) { "FIRED" } else { "  -  " },
            hits[i],
            pattern
        );
    }
    // The /cgi-bin probes and both injected attack families must fire;
    // a line count is the sum of its rules' verdicts.
    assert!(fired_seq.matched(0), "/cgi-bin rule fires on the planted probes");
    assert!(fired_seq.matched(1), "etc/passwd rule fires on the injected traversal");
    assert!(fired_seq.matched(3), "the untamed SQLi rule fires on the injected queries");
    assert_eq!(hits[0], 50_000 / 97, "one /cgi-bin probe every 97 lines");
    assert_eq!(hits[3], 2, "two injected SQLi lines");

    println!("sequential DFA scan : {t_seq:>10.2?}");
    println!("parallel SFA scan   : {t_par:>10.2?} (4 threads)");

    let after = set.regex().size_report();
    println!(
        "lazy backend materialized {} states scanning the log \
         (eager construction needed > 750 000)",
        after.materialized_states
    );
    assert!(after.materialized_states < 2_000, "on-the-fly construction stays bounded");

    // A clean log must not fire any rule — including the untamed SQLi one.
    let clean = workloads::http_log(10_000, 0, 0xBEEF);
    assert!(!set.matches(&clean).matched_any());
    println!("clean log correctly reports no rule hits");
}
