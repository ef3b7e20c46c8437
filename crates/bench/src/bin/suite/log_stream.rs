//! `log_stream`: the log-scan rule fed through `StreamMatcher::feed` in
//! arrival blocks, flows of 16 blocks separated by `reset` — millions of
//! sub-KiB calls with no pool and no lanes.

use crate::harness::{
    contains, mb_s, secs, verify, Ctx, Deadline, MemWatch, Outcome, SetupSampler, ATTACK_NEEDLE,
};
use crate::layers::{self, produced, ProbeSubject};
use crate::metrics::Metric;
use crate::stats::Reservoir;
use sfa_matcher::{MatchMode, Reduction, Regex, Strategy, StreamMatcher};
use sfa_workloads as workloads;
use std::borrow::Cow;
use std::time::Instant;

const FLOW_BLOCKS: usize = 16;
/// Flows per round of the loop; each round runs all three paths over
/// them, so every path runs a few milliseconds at a stretch.
const ROUND_FLOWS: usize = 512;
/// Mean arrival-block size in bytes.
const MEAN_BLOCK: usize = 512;
/// Flow latencies kept per run (a uniform sample of all flows).
const LATENCY_SAMPLES: usize = 1 << 16;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(ctx.trace);
    let blocks = workloads::log_stream(&workloads::StreamConfig {
        lines: ctx.sizes.log_lines,
        attack_every: ctx.sizes.log_attack_every,
        mean_block: MEAN_BLOCK,
        seed: ctx.seed,
    });
    let flows: Vec<&[Vec<u8>]> = blocks.chunks(FLOW_BLOCKS).collect();
    let joined: Vec<Vec<u8>> = flows.iter().map(|f| f.concat()).collect();
    // Millions of flows per run: their latencies are sampled into memory
    // taken before the memory baseline.
    let mut latency = Reservoir::new(LATENCY_SAMPLES, ctx.seed);
    let mut mem = MemWatch::start()?;

    let compile = || {
        Regex::builder()
            .mode(MatchMode::Contains)
            .build(workloads::LOG_SCAN_RULE)
            .map_err(|e| format!("compile: {e}"))
    };
    let mut times = Vec::new();
    let mut compiled = None;
    for _ in 0..ctx.sizes.setup_reps {
        let t = Instant::now();
        compiled = Some(compile()?);
        times.push(secs(t));
    }
    let re = compiled.expect("at least one set-up");
    let mut setup = SetupSampler::new(times);

    // The reference: each flow's sequential verdict over its whole bytes.
    let expected: Vec<bool> =
        joined.iter().map(|f| re.is_match_with(f, Strategy::Sequential)).collect();
    for (i, f) in joined.iter().enumerate() {
        verify(expected[i] || !contains(f, ATTACK_NEEDLE), || {
            format!("flow {i}: a planted /cgi-bin/ph attack did not fire")
        })?;
    }
    let parallel = Strategy::Parallel { threads: ctx.cores, reduction: Reduction::Sequential };
    // Warm-up: every flow through the stream and Algorithm 5 once.
    let mut stream = re.stream();
    for (i, flow) in flows.iter().enumerate() {
        let fed = feed_flow(&mut stream, flow);
        verify(fed == expected[i], || format!("flow {i}: the stream verdict differs"))?;
        let v = re.is_match_with(&joined[i], parallel);
        verify(v == expected[i], || format!("flow {i}: Parallel differs"))?;
    }
    outcome.notes.push(format!(
        "log_stream: {} KiB in {} blocks, {} flows ({} with a hit); {} D-SFA states, {} kernel",
        joined.iter().map(Vec::len).sum::<usize>() >> 10,
        blocks.len(),
        flows.len(),
        expected.iter().filter(|&&v| v).count(),
        re.sfa().num_states(),
        re.sfa().scan_kernel(),
    ));

    let mut saturated = (0usize, 0usize);
    let e2e = layers::measure_loops(ctx, &mut outcome, |seconds, tracer, outcome| {
        let mut speeds: [Vec<f64>; 3] = Default::default();
        latency.clear();
        let mut deadline = Deadline::new(seconds);
        let mut round = 0usize;
        while deadline.next() {
            setup.maybe(|| compile().map(drop))?;
            let ids: Vec<usize> =
                (0..ROUND_FLOWS).map(|k| (round * ROUND_FLOWS + k) % flows.len()).collect();
            let bytes: usize = ids.iter().map(|&i| joined[i].len()).sum();
            let t = Instant::now();
            tracer.span("matcher", "StreamMatcher::feed[round]", round as u64, |_| {
                for &i in &ids {
                    let t = Instant::now();
                    let verdict = feed_flow(&mut stream, flows[i]);
                    latency.push(secs(t) * 1e3);
                    saturated.0 += usize::from(stream.is_saturated());
                    saturated.1 += 1;
                    verify(verdict == expected[i], || {
                        format!("flow {i}: the stream verdict differs")
                    })?;
                }
                Ok::<(), String>(())
            })?;
            speeds[0].push(mb_s(bytes, secs(t)));
            for (k, strategy, name) in [
                (1, parallel, "Regex::is_match_with[parallel]"),
                (2, Strategy::Sequential, "Regex::is_match_with[sequential]"),
            ] {
                let t = Instant::now();
                let got: Vec<bool> = tracer.span("matcher", name, round as u64, |_| {
                    ids.iter().map(|&i| re.is_match_with(&joined[i], strategy)).collect()
                });
                speeds[k].push(mb_s(bytes, secs(t)));
                for (&i, v) in ids.iter().zip(got) {
                    verify(v == expected[i], || format!("flow {i}: {name} differs"))?;
                }
            }
            outcome.attempted += 3 * ROUND_FLOWS as u64;
            round += 1;
        }
        mem.mark()?;
        let [fed, sfa, seq] = speeds;
        Ok(vec![
            Metric::new("scan_mb_s", fed),
            Metric::new("sfa_scan_mb_s", sfa),
            Metric::new("seq_scan_mb_s", seq),
            Metric::new("p50_ms", latency.kept().to_vec()),
        ])
    })?;
    outcome.e2e =
        [Metric::new("setup_s", setup.samples), mem.metric()].into_iter().chain(e2e).collect();

    if ctx.trace {
        outcome.set_extra(
            "matcher.saturated_flow_ratio",
            saturated.0 as f64 / saturated.1.max(1) as f64,
            "ratio",
        );
        let mut unit = Vec::new();
        for f in &joined {
            if unit.len() >= layers::SAMPLE_BYTES {
                break;
            }
            unit.extend_from_slice(f);
        }
        let requests: Vec<Vec<&[u8]>> =
            joined.chunks(32).take(8).map(|r| r.iter().map(Vec::as_slice).collect()).collect();
        let subject = ProbeSubject {
            mode: MatchMode::Contains,
            automata: vec![vec![workloads::LOG_SCAN_RULE]],
            dfa: Default::default(),
            sfa: Default::default(),
            produced: vec![produced(&re)],
            compile: Box::new(|| compile().map(drop)),
            compile_name: "RegexBuilder::build",
            compile_includes_analysis: false,
            enforce_stage_sum: false,
            regex: re.clone(),
            eager: None,
            unit: Cow::Owned(unit),
            blocks: blocks.iter().take(20_000).map(Vec::as_slice).collect(),
            server_patterns: vec![workloads::LOG_SCAN_RULE.to_string()],
            requests,
        };
        layers::probe_layers(ctx, &mut outcome, subject)?;
    }
    Ok(outcome)
}

/// One flow: `reset`, then every block through `feed`; the verdict.
fn feed_flow(stream: &mut StreamMatcher, flow: &[Vec<u8>]) -> bool {
    stream.reset();
    for block in flow {
        stream.feed(block);
    }
    stream.finish()
}
