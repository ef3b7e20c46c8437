//! `ids_batch`: a rule draw from `corpus_1k` compiled as a sharded
//! `RegexSet` behind the literal prefilter (the `reproduce multimatch`
//! builder), answering batches of grouped HTTP-log haystacks — the IDS
//! rule-set case.

use crate::harness::{
    contains, group_lines, mb_s, secs, time_median, verify, Ctx, Deadline, MemWatch, Outcome,
    SplitMix, ATTACK_NEEDLE,
};
use crate::layers::{self, produced, ProbeSubject};
use crate::metrics::Metric;
use sfa_automata::DfaConfig;
use sfa_core::SfaConfig;
use sfa_matcher::{
    BackendChoice, BackendKind, MatchMode, Reduction, Regex, RegexBuilder, RegexSet, SetMatches,
    Strategy,
};
use sfa_regex_syntax::{parse, Ast};
use sfa_workloads as workloads;
use std::borrow::Cow;
use std::collections::HashSet;
use std::time::Instant;

const SHARD_BUDGET: usize = 2_000;
const MAX_DFA_STATES: usize = 2_000_000;
const MAX_SFA_STATES: usize = 2_000;
/// Log lines grouped into one haystack.
const LINES_PER_HAYSTACK: usize = 40;
/// One planted attack line every this many lines.
const ATTACK_EVERY: usize = 97;
/// `matches_batch` calls per round of the loop, before one batch through
/// each per-haystack path.
const BATCH_RUN: usize = 4;

fn builder() -> RegexBuilder {
    Regex::builder()
        .mode(MatchMode::Contains)
        .backend(BackendChoice::Auto)
        .max_dfa_states(MAX_DFA_STATES)
        .max_sfa_states(MAX_SFA_STATES)
        .shard_state_budget(SHARD_BUDGET)
}

/// `n` distinct rules of `corpus_1k`, the log-scan rule first so every
/// planted attack has a rule that must fire. The draw is pinned to the
/// corpus seed rather than the run's seed: which rules are drawn moves
/// compile time and scan speed by tens of percent, more than any bound
/// could absorb, so the run's seed drives the traffic only.
fn draw_rules(n: usize) -> Result<Vec<String>, String> {
    let corpus = workloads::corpus_1k();
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    let mut rng = SplitMix(workloads::CORPUS_1K_SEED);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut seen: HashSet<Ast> = HashSet::new();
    let mut rules = Vec::with_capacity(n);
    let candidates =
        std::iter::once(workloads::LOG_SCAN_RULE).chain(order.iter().map(|&i| corpus[i].as_str()));
    for rule in candidates {
        if rules.len() == n {
            break;
        }
        // Identical ASTs would share one verdict bit; keep rule indices
        // and shard members in one numbering.
        if seen.insert(parse(rule).map_err(|e| format!("{rule}: {e}"))?) {
            rules.push(rule.to_string());
        }
    }
    Ok(rules)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(ctx.trace);
    let sizes = &ctx.sizes;
    let rules = draw_rules(sizes.ids_rules)?;
    let lines = sizes.ids_batches * sizes.ids_batch_len * LINES_PER_HAYSTACK;
    let haystacks =
        group_lines(&workloads::http_log(lines, ATTACK_EVERY, ctx.seed), LINES_PER_HAYSTACK);
    let batches: Vec<Vec<&[u8]>> = haystacks
        .chunks(sizes.ids_batch_len)
        .map(|b| b.iter().map(Vec::as_slice).collect())
        .collect();
    let bytes: Vec<usize> = batches.iter().map(|b| b.iter().map(|h| h.len()).sum()).collect();
    let mut mem = MemWatch::start()?;

    let mut setup = Vec::new();
    let mut compiled = None;
    for _ in 0..sizes.slow_setup_reps {
        let t = Instant::now();
        let set = RegexSet::new(rules.iter().map(String::as_str), &builder())
            .map_err(|e| format!("compile: {e}"))?;
        setup.push(secs(t));
        compiled = Some(set);
    }
    let set = compiled.expect("at least one set-up");

    // The reference: every haystack's sequential per-rule verdict.
    let mut expected: Vec<Vec<SetMatches>> = Vec::with_capacity(batches.len());
    for batch in &batches {
        let mut per = Vec::with_capacity(batch.len());
        for h in batch {
            let m = set.matches_with(h, Strategy::Sequential);
            verify(!contains(h, ATTACK_NEEDLE) || m.matched(0), || {
                "a planted /cgi-bin/ph attack did not fire the log-scan rule".into()
            })?;
            per.push(m);
        }
        expected.push(per);
    }
    let parallel = Strategy::Parallel { threads: ctx.cores, reduction: Reduction::Sequential };
    let per_haystack = |batch: &[&[u8]], strategy: Strategy| -> Vec<SetMatches> {
        batch.iter().map(|h| set.matches_with(h, strategy)).collect()
    };
    // Warm-up: every batch through the batched and the Algorithm 5 path
    // once, so the lazy shards' caches reach their working set.
    for (b, batch) in batches.iter().enumerate() {
        verify(set.matches_batch(batch) == expected[b], || format!("batch {b}: matches_batch"))?;
        verify(per_haystack(batch, parallel) == expected[b], || format!("batch {b}: Parallel"))?;
    }
    let shards = set.shards();
    outcome.notes.push(format!(
        "ids_batch: {} rules in {} shards ({} gated, {} lazy), prefilter of {} literals; {} \
         batches of {} haystacks ({} KiB each)",
        rules.len(),
        shards.len(),
        shards.iter().filter(|s| s.is_gated()).count(),
        shards.iter().filter(|s| s.regex().backend_kind() == BackendKind::Lazy).count(),
        set.prefilter().map_or(0, |p| p.literal_count()),
        batches.len(),
        sizes.ids_batch_len,
        bytes[0] >> 10,
    ));

    let e2e = layers::measure_loops(ctx, &mut outcome, |seconds, tracer, outcome| {
        let mut speeds: [Vec<f64>; 3] = Default::default();
        let mut latency = Vec::new();
        let mut deadline = Deadline::new(seconds);
        let mut op = 0usize;
        while deadline.next() {
            // A run of batches back to back, as an IDS takes them, then one
            // batch through each per-haystack path.
            for _ in 0..BATCH_RUN {
                let b = op % batches.len();
                let t = Instant::now();
                let got = tracer.span("matcher", "RegexSet::matches_batch", op as u64, |_| {
                    set.matches_batch(&batches[b])
                });
                let dt = secs(t);
                verify(got == expected[b], || format!("batch {b}: matches_batch differs"))?;
                speeds[0].push(mb_s(bytes[b], dt));
                latency.push(dt * 1e3);
                op += 1;
            }
            let b = op % batches.len();
            for (i, strategy, name) in [
                (1, parallel, "RegexSet::matches_with[parallel]"),
                (2, Strategy::Sequential, "RegexSet::matches_with[sequential]"),
            ] {
                let t = Instant::now();
                let got = tracer
                    .span("matcher", name, op as u64, |_| per_haystack(&batches[b], strategy));
                speeds[i].push(mb_s(bytes[b], secs(t)));
                verify(got == expected[b], || format!("batch {b}: {name} differs"))?;
            }
            outcome.attempted += BATCH_RUN as u64 + 2;
        }
        mem.mark()?;
        let [batched, sfa, seq] = speeds;
        Ok(vec![
            Metric::new("scan_mb_s", batched),
            Metric::new("sfa_scan_mb_s", sfa),
            Metric::new("seq_scan_mb_s", seq),
            Metric::new("p50_ms", latency),
        ])
    })?;
    outcome.e2e = [Metric::new("setup_s", setup), mem.metric()].into_iter().chain(e2e).collect();

    if ctx.trace {
        gating_probe(ctx, &set, &batches[0], bytes[0], &mut outcome);
        // Scans probe the first (largest) shard; the serialize and server
        // probes need a durable automaton, which most shards are not
        // (they fall back to lazy), so they take the log-scan rule alone.
        let rule0 = builder().build(&rules[0]).map_err(|e| format!("compile: {e}"))?;
        let subject = ProbeSubject {
            mode: MatchMode::Contains,
            automata: shards
                .iter()
                .map(|s| s.members().iter().map(|&m| rules[m as usize].as_str()).collect())
                .collect(),
            dfa: DfaConfig { max_states: MAX_DFA_STATES, ..Default::default() },
            sfa: SfaConfig { max_states: MAX_SFA_STATES, ..Default::default() },
            produced: shards.iter().map(|s| produced(s.regex())).collect(),
            compile: Box::new(|| {
                RegexSet::new(rules.iter().map(String::as_str), &builder())
                    .map(drop)
                    .map_err(|e| format!("compile: {e}"))
            }),
            compile_name: "RegexSet::new",
            compile_includes_analysis: false,
            enforce_stage_sum: false,
            regex: shards[0].regex().clone(),
            eager: Some(rule0),
            unit: Cow::Owned(batches[0].concat()),
            blocks: Vec::new(),
            server_patterns: vec![rules[0].clone()],
            requests: batches.iter().take(4).cloned().collect(),
        };
        layers::probe_layers(ctx, &mut outcome, subject)?;
    }
    Ok(outcome)
}

/// Prefilter and shard-gating detail on one batch (`layers.json` only):
/// how fast the prefilter runs, how much scanning the gates save against
/// running every shard on every haystack, and how often a shard hits.
fn gating_probe(ctx: &Ctx, set: &RegexSet, batch: &[&[u8]], bytes: usize, outcome: &mut Outcome) {
    // Few repetitions: the ungated pass runs every shard over the batch.
    let reps = ctx.sizes.probe_reps.min(5);
    let tracer = &mut outcome.tracer;
    let shards = set.shards();
    let gated = shards.iter().filter(|s| s.is_gated()).count();
    let (literals, prefilter_mb_s) = match set.prefilter() {
        Some(p) => {
            let (t, _) = time_median(reps, || {
                tracer.span("matcher", "Prefilter::find", 0, |_| {
                    batch.iter().map(|h| p.find(h).len()).sum::<usize>()
                })
            });
            (p.literal_count(), mb_s(bytes, t))
        }
        None => (0, 0.0),
    };
    let (gated_s, _) = time_median(reps, || {
        tracer.span("matcher", "RegexSet::matches_batch", 0, |_| set.matches_batch(batch))
    });
    let mut ungated_s = 0.0;
    let mut hits = 0usize;
    for shard in shards {
        let (t, verdicts) = time_median(reps, || {
            tracer.span("matcher", "Shard matches_batch (ungated)", 0, |_| {
                shard.regex().matches_batch(batch)
            })
        });
        ungated_s += t;
        hits += verdicts.iter().filter(|m| m.matched_any()).count();
    }
    let pairs = (shards.len() * batch.len()).max(1);
    for (name, value, unit) in [
        ("matcher.gated_shards", gated as f64, "count"),
        ("matcher.prefilter_literals", literals as f64, "count"),
        ("matcher.prefilter_mb_s", prefilter_mb_s, "MB/s"),
        ("matcher.gate_saving_ratio", 1.0 - gated_s / ungated_s, "ratio"),
        ("matcher.shard_hit_ratio", hits as f64 / pairs as f64, "ratio"),
    ] {
        outcome.set_extra(name, value, unit);
    }
}
