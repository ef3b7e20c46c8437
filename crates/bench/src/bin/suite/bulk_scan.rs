//! `bulk_scan`: one large random-digit haystack against the 128-state
//! sliding-window automaton, under `Auto`, `Parallel` (the paper's
//! Algorithm 5) and `Sequential` in rotation — the Fig. 6–9 experiment.

use crate::harness::{mb_s, secs, verify, Ctx, Deadline, MemWatch, Outcome, SetupSampler};
use crate::layers::{self, produced, ProbeSubject};
use crate::metrics::Metric;
use sfa_matcher::{MatchMode, Reduction, Regex, Strategy};
use sfa_workloads as workloads;
use std::borrow::Cow;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(ctx.trace);
    let text = workloads::digit_text(ctx.sizes.bulk_bytes, ctx.seed);
    let mut mem = MemWatch::start()?;

    // Set-up is the compile plus the first convergence report, which
    // `Strategy::Auto` computes on its first call.
    let pattern = workloads::window_pattern(5);
    let compile = || -> Result<Regex, String> {
        let re = Regex::builder().build(&pattern).map_err(|e| format!("{pattern}: {e}"))?;
        re.convergence_report();
        Ok(re)
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

    // Every timed run must land on Algorithm 2's final state.
    let expected = re.dfa().run(&text);
    let parallel = Strategy::Parallel { threads: ctx.cores, reduction: Reduction::Sequential };
    let paths = [
        ("Regex::run[auto]", Strategy::Auto),
        ("Regex::run[parallel]", parallel),
        ("Regex::run[sequential]", Strategy::Sequential),
    ];
    for (name, strategy) in paths {
        let q = re.run(&text, strategy);
        verify(q == expected, || format!("{name} ends in {q}, Algorithm 2 in {expected}"))?;
    }
    outcome.notes.push(format!(
        "bulk_scan: {} KiB of digits, {pattern}: {} DFA / {} D-SFA states, {} kernel, {} lanes; \
         Auto resolves to {:?}",
        text.len() >> 10,
        re.dfa().num_states(),
        re.sfa().num_states(),
        re.sfa().scan_kernel(),
        re.sfa().preferred_lanes(),
        re.auto_strategy(),
    ));

    let e2e = layers::measure_loops(ctx, &mut outcome, |seconds, tracer, outcome| {
        let mut speeds: [Vec<f64>; 3] = Default::default();
        let mut latency = Vec::new();
        let mut deadline = Deadline::new(seconds);
        let mut op = 0u64;
        while deadline.next() {
            setup.maybe(|| compile().map(drop))?;
            for (i, (name, strategy)) in paths.iter().enumerate() {
                let t = Instant::now();
                let q = tracer.span("matcher", name, op, |_| re.run(&text, *strategy));
                let dt = secs(t);
                verify(q == expected, || format!("{name} ends in {q}, Algorithm 2 in {expected}"))?;
                speeds[i].push(mb_s(text.len(), dt));
                if i == 0 {
                    latency.push(dt * 1e3);
                }
                outcome.attempted += 1;
                op += 1;
            }
        }
        mem.mark()?;
        let [auto, sfa, seq] = speeds;
        Ok(vec![
            Metric::new("scan_mb_s", auto),
            Metric::new("sfa_scan_mb_s", sfa),
            Metric::new("seq_scan_mb_s", seq),
            Metric::new("p50_ms", latency),
        ])
    })?;
    outcome.e2e =
        [Metric::new("setup_s", setup.samples), mem.metric()].into_iter().chain(e2e).collect();

    if ctx.trace {
        let requests: Vec<Vec<&[u8]>> =
            text.chunks(32 * 2048).take(8).map(|r| r.chunks(2048).collect()).collect();
        let subject = ProbeSubject {
            mode: MatchMode::Whole,
            automata: vec![vec![pattern.as_str()]],
            dfa: Default::default(),
            sfa: Default::default(),
            produced: vec![produced(&re)],
            compile: Box::new(|| compile().map(drop)),
            compile_name: "RegexBuilder::build+convergence_report",
            compile_includes_analysis: true,
            // Debug builds validate every DFA inside the builder, so only
            // optimized builds compare the stage sum with the compile.
            enforce_stage_sum: !cfg!(debug_assertions),
            regex: re.clone(),
            eager: None,
            unit: Cow::Borrowed(&text),
            blocks: Vec::new(),
            server_patterns: vec![pattern.clone()],
            requests,
        };
        layers::probe_layers(ctx, &mut outcome, subject)?;
    }
    Ok(outcome)
}
