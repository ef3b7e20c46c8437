//! A miniature version of the paper's Figures 6–8: throughput of
//! sequential DFA matching vs. parallel SFA matching over the
//! `r_n = ([0-4]{n}[5-9]{n})*` family as the thread count grows.
//!
//! Run with: `cargo run --release --example scalability -- [n] [MiB]`

use sfa::prelude::*;
use sfa::workloads;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let mib: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    let pattern = workloads::rn_pattern(n);
    println!("pattern: {pattern}");
    let re = Regex::builder().max_sfa_states(2_000_000).build(&pattern).expect("compiles");
    println!(
        "|D| = {} live states, |S_d| = {} states, SFA byte table = {:.1} KiB",
        re.dfa().num_live_states(),
        re.sfa().num_states(),
        re.sfa().byte_table_bytes() as f64 / 1024.0
    );

    let text = workloads::rn_text(n, mib * 1024 * 1024, 0x5FA);
    println!(
        "input: {:.2} MiB of text accepted by the pattern",
        text.len() as f64 / (1024.0 * 1024.0)
    );

    let best = |f: &mut dyn FnMut()| {
        let mut best = std::time::Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        best
    };

    let mut run_seq = || assert!(re.is_match_with(&text, Strategy::Sequential));
    let seq = best(&mut run_seq);
    println!("{:>8}  {:>12}  {:>10}", "threads", "time", "GB/s");
    println!(
        "{:>8}  {:>12.2?}  {:>10.3}  (Algorithm 2, sequential DFA)",
        1,
        seq,
        text.len() as f64 / 1e9 / seq.as_secs_f64()
    );

    for threads in [2usize, 4, 8] {
        // A dedicated pool per sweep point so the scan really runs on
        // `threads` workers regardless of the machine's CPU count (the
        // default engine caps the chunk count at available_parallelism).
        let matcher = ParallelSfaMatcher::with_engine(re.sfa(), Engine::new(threads));
        let mut run_par =
            || assert!(re.dfa().is_accepting(matcher.run(&text, threads, Reduction::Sequential)));
        let par = best(&mut run_par);
        println!(
            "{:>8}  {:>12.2?}  {:>10.3}  (Algorithm 5, parallel SFA)",
            threads,
            par,
            text.len() as f64 / 1e9 / par.as_secs_f64()
        );
    }
}
