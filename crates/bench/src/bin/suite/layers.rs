//! Per-layer probes for the traced run: each times the benchmark's own
//! calls into one layer's public functions, on the workload's own
//! automata and inputs, inside spans tagged with that layer.
//!
//! Every workload runs every probe (a layer is light on some workloads,
//! heavy on others), so each traced run reports every per-layer metric.

use crate::harness::{mb_s, secs, time_median, verify, Ctx, Outcome};
use crate::metrics::Metric;
use crate::stats;
use crate::trace::Tracer;
use sfa_automata::{determinize, minimize, CompileError, DfaConfig, Nfa};
use sfa_core::{BackendKind, DSfa, SfaBackend, SfaConfig, SfaStateId};
use sfa_matcher::{
    split_chunks, ConvergenceReport, MatchMode, ParallelSfaMatcher, Reduction, Regex,
    SpeculativeDfaMatcher, Strategy,
};
use sfa_regex_syntax::class::perl;
use sfa_regex_syntax::{parse, required_literal_clauses, Ast};
use std::borrow::Cow;
use std::path::Path;
use std::time::Instant;

/// What a workload hands the layer probes: its production compile (to
/// replay stage by stage), one automaton with the workload's bytes (for
/// the scan, parallel, stream and serialize probes) and a namespace with
/// requests (for the server probe).
pub struct ProbeSubject<'a> {
    pub mode: MatchMode,
    /// The final automata the production compile built, each as its
    /// member patterns (one automaton for a plain regex or an unsharded
    /// set, one per shard for a sharded set).
    pub automata: Vec<Vec<&'a str>>,
    pub dfa: DfaConfig,
    pub sfa: SfaConfig,
    /// Per automaton, what the production compile built (see [`produced`]).
    pub produced: Vec<(usize, Option<usize>)>,
    /// The production compile (`RegexBuilder::build`, `RegexSet::new`),
    /// timed alternately with its replay so both see the same machine.
    pub compile: Box<dyn Fn() -> Result<(), String> + 'a>,
    pub compile_name: &'static str,
    /// Whether `compile` includes the convergence analysis (the first
    /// `convergence_report`, as `Strategy::Auto` triggers it).
    pub compile_includes_analysis: bool,
    /// Fail the run unless the stages sum to within
    /// [`STAGE_SUM_SLACK`] of the production compile.
    pub enforce_stage_sum: bool,
    /// The automaton the scan, parallel and stream probes run.
    pub regex: Regex,
    /// An eager automaton for the serialize probe when `regex` is lazy
    /// (only eager automata have a durable form).
    pub eager: Option<Regex>,
    /// The production unit of work as one buffer: the parallel probe runs
    /// on all of it, the scan probes on its first [`SAMPLE_BYTES`].
    pub unit: Cow<'a, [u8]>,
    /// Arrival blocks for the stream probe; empty means 512-byte blocks
    /// of the sample.
    pub blocks: Vec<&'a [u8]>,
    /// The server probe's namespace and requests.
    pub server_patterns: Vec<String>,
    pub requests: Vec<Vec<&'a [u8]>>,
}

/// Bytes the single-automaton scan probes walk.
pub const SAMPLE_BYTES: usize = 4 << 20;

/// What a compiled automaton is, as the replay must rebuild it: minimal
/// DFA states, and D-SFA states unless the eager construction exceeded
/// its limit and the backend fell back to lazy (`None`).
pub fn produced(re: &Regex) -> (usize, Option<usize>) {
    let sfa = match re.backend_kind() {
        BackendKind::Lazy => None,
        _ => Some(re.sfa().num_states()),
    };
    (re.dfa().num_states(), sfa)
}

/// How far the standalone stage chain may drift from the production
/// compile it replays.
pub const STAGE_SUM_SLACK: f64 = 0.15;

/// Times `f` inside a span and adds its wall time to `acc`.
fn stage<R>(
    tracer: &mut Tracer,
    acc: &mut f64,
    layer: &'static str,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = tracer.span(layer, name, op, |_| f());
    *acc += secs(t);
    out
}

/// `(?s:.)* ast (?s:.)*` — the `Contains`-mode wrap the builder applies
/// to every branch.
fn wrap(ast: Ast, mode: MatchMode) -> Ast {
    match mode {
        MatchMode::Whole => ast,
        MatchMode::Contains => Ast::concat(vec![
            Ast::star(Ast::Class(perl::any())),
            ast,
            Ast::star(Ast::Class(perl::any())),
        ]),
    }
}

/// Replays parse → NFA → determinize → minimize → `DSfa::from_dfa` →
/// analysis for every automaton of `subject`, checks the replay rebuilt
/// exactly the production state counts, and reports the stage metrics.
pub fn compile_probe(
    subject: &ProbeSubject,
    reps: usize,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    // A sharded set replays once: its stages already sum over many shards.
    let reps = if subject.automata.len() > 1 { 1 } else { reps.max(1) };
    let mut stages: Vec<[f64; 7]> = Vec::with_capacity(reps);
    let mut compiles: Vec<f64> = Vec::with_capacity(reps);
    let mut counts = [0usize; 6];
    let mut survivors = (0usize, 0usize);
    for rep in 0..reps {
        let t = Instant::now();
        tracer.span("matcher", subject.compile_name, rep as u64, |_| (subject.compile)())?;
        compiles.push(secs(t));
        let mut t = [0.0f64; 7];
        counts = [0; 6];
        survivors = (0, 0);
        for (i, members) in subject.automata.iter().enumerate() {
            let op = i as u64;
            let asts = stage(tracer, &mut t[0], "regex_syntax", "parse", op, || {
                members.iter().map(|p| parse(p)).collect::<Result<Vec<Ast>, _>>()
            })
            .map_err(|e| format!("replay parse: {e}"))?;
            stage(tracer, &mut t[1], "regex_syntax", "required_literal_clauses", op, || {
                asts.iter().filter_map(required_literal_clauses).count()
            });
            let branches: Vec<Ast> = asts.into_iter().map(|a| wrap(a, subject.mode)).collect();
            let nfa = stage(tracer, &mut t[2], "automata", "Nfa::from_asts", op, || match branches
                .as_slice()
            {
                [only] => Nfa::from_ast(only),
                many => Nfa::from_asts(many),
            })
            .map_err(|e| format!("replay NFA: {e}"))?;
            let raw = stage(tracer, &mut t[3], "automata", "determinize", op, || {
                determinize(&nfa, &subject.dfa)
            })
            .map_err(|e| format!("replay determinize: {e}"))?;
            let dfa = stage(tracer, &mut t[4], "automata", "minimize", op, || minimize(&raw));
            let sfa = stage(tracer, &mut t[5], "core", "DSfa::from_dfa", op, || {
                DSfa::from_dfa(&dfa, &subject.sfa)
            });
            let sfa = match sfa {
                Ok(sfa) => Some(sfa),
                Err(CompileError::TooManyStates { .. }) => None,
                Err(e) => return Err(format!("replay D-SFA: {e}")),
            };
            let report =
                stage(tracer, &mut t[6], "analysis", "ConvergenceReport::analyze", op, || {
                    ConvergenceReport::analyze(&dfa)
                });
            counts[0] += nfa.num_states();
            counts[1] += raw.num_states();
            counts[2] += dfa.num_states();
            counts[3] += sfa.as_ref().map_or(0, DSfa::num_states);
            counts[4] += sfa.as_ref().map_or(0, |s| s.table_bytes() + s.byte_table_bytes());
            counts[5] += 1;
            survivors.0 += report.survivor_count();
            survivors.1 += report.num_states();
            if rep == 0 {
                let replayed = (dfa.num_states(), sfa.as_ref().map(DSfa::num_states));
                verify(replayed == subject.produced[i], || {
                    format!(
                        "automaton {i}: replay built (DFA, SFA) = {replayed:?}, the production \
                         compile {:?}",
                        subject.produced[i]
                    )
                })?;
            }
        }
        stages.push(t);
    }
    let med = |k: usize| stats::median(&stages.iter().map(|t| t[k]).collect::<Vec<_>>());
    let [parse_s, literals_s, nfa_s, det_s, min_s, sfa_s, analyze_s] =
        [0, 1, 2, 3, 4, 5, 6].map(med);
    let mut stage_sum = parse_s + nfa_s + det_s + min_s + sfa_s;
    if subject.compile_includes_analysis {
        stage_sum += analyze_s;
    }
    let compile_s = stats::median(&compiles);
    let drift = stage_sum / compile_s - 1.0;
    let eager = subject.produced.iter().filter(|p| p.1.is_some()).count();
    notes.push(format!(
        "stage replay: {} automata ({eager} eager) rebuilt with identical DFA/SFA state counts",
        subject.automata.len()
    ));
    notes.push(format!(
        "stage sum: parse {:.3} + nfa {:.3} + determinize {:.3} + minimize {:.3} + sfa {:.3}{} \
         = {:.3} ms vs. production compile {:.3} ms ({:+.1}%)",
        parse_s * 1e3,
        nfa_s * 1e3,
        det_s * 1e3,
        min_s * 1e3,
        sfa_s * 1e3,
        if subject.compile_includes_analysis {
            format!(" + analyze {:.3}", analyze_s * 1e3)
        } else {
            String::new()
        },
        stage_sum * 1e3,
        compile_s * 1e3,
        100.0 * drift,
    ));
    if subject.enforce_stage_sum {
        verify(drift.abs() <= STAGE_SUM_SLACK, || {
            format!(
                "stage sum {:.3} ms is {:+.1}% off the production compile {:.3} ms (slack ±{}%)",
                stage_sum * 1e3,
                100.0 * drift,
                compile_s * 1e3,
                100.0 * STAGE_SUM_SLACK
            )
        })?;
    }
    out.extend([
        Metric::one("regex_syntax.parse_ms", parse_s * 1e3),
        Metric::one("regex_syntax.literals_ms", literals_s * 1e3),
        Metric::one("automata.nfa_ms", nfa_s * 1e3),
        Metric::one("automata.nfa_states", counts[0] as f64),
        Metric::one("automata.determinize_ms", det_s * 1e3),
        Metric::one("automata.dfa_states", counts[1] as f64),
        Metric::one("automata.minimize_ms", min_s * 1e3),
        Metric::one("automata.min_dfa_states", counts[2] as f64),
        Metric::one("analysis.analyze_ms", analyze_s * 1e3),
        Metric::one("analysis.survivor_ratio", survivors.0 as f64 / survivors.1.max(1) as f64),
        Metric::one("core.sfa_build_ms", sfa_s * 1e3),
        Metric::one("core.sfa_states", counts[3] as f64),
        Metric::one("core.table_kib", counts[4] as f64 / 1024.0),
        Metric::new("matcher.set_compile_s", compiles),
        Metric::one("matcher.shards", counts[5] as f64),
        Metric::one("matcher.pack_useful_ratio", stage_sum / compile_s),
    ]);
    Ok(())
}

/// Scans one chunk the way a pool worker does under a plan with `lanes`
/// interleaved sub-chunks.
fn scan_chunk(sfa: &SfaBackend, chunk: &[u8], lanes: usize) -> SfaStateId {
    if lanes <= 1 || chunk.len() < lanes {
        return sfa.run(chunk);
    }
    let id = sfa.initial();
    let jobs: Vec<(SfaStateId, &[u8])> =
        split_chunks(chunk, lanes).into_iter().map(|c| (id, c)).collect();
    sfa.run_from_many(&jobs).into_iter().fold(id, |acc, f| sfa.compose_states(acc, f))
}

/// The single-automaton scan kernels over `sample`: the DFA walk, the
/// D-SFA scan, the interleaved lanes plus compose fold, compose itself,
/// block-chained `run_from` and small independent scans.
pub fn scan_probe(
    re: &Regex,
    sample: &[u8],
    reps: usize,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let sfa = re.sfa();
    let len = sample.len();
    let expected = sfa.run(sample);
    let expected_q = re.dfa().run(sample);

    let (t, q) =
        time_median(reps, || tracer.span("automata", "Dfa::run", 0, |_| re.dfa().run(sample)));
    verify(q == expected_q, || "Dfa::run is not deterministic".into())?;
    out.push(Metric::one("automata.dfa_scan_mb_s", mb_s(len, t)));
    verify(sfa.apply(expected, sfa.dfa_start()) == expected_q, || {
        "the D-SFA scan disagrees with the DFA (Algorithm 2)".into()
    })?;

    let (t, s) =
        time_median(reps, || tracer.span("core", "SfaBackend::run", 0, |_| sfa.run(sample)));
    verify(s == expected, || "SfaBackend::run is not deterministic".into())?;
    out.push(Metric::one("core.scan_mb_s", mb_s(len, t)));

    let lanes = sfa.preferred_lanes();
    let (t, s) = time_median(reps, || {
        tracer.span("core", "run_from_many+compose", 0, |_| scan_chunk(sfa, sample, lanes))
    });
    verify(s == expected, || format!("{lanes}-lane interleaved scan disagrees with run"))?;
    out.push(Metric::one("core.lanes_scan_mb_s", mb_s(len, t)));
    out.push(Metric::one("core.kernel_lanes", lanes as f64));

    // Compose on the transformations of 64 slices, folded many times over.
    let id = sfa.initial();
    let jobs: Vec<(SfaStateId, &[u8])> =
        split_chunks(sample, 64).into_iter().map(|c| (id, c)).collect();
    let parts = sfa.run_from_many(&jobs);
    const COMPOSES: usize = 4096;
    let (t, _) = time_median(reps, || {
        tracer.span("core", "compose_states", 0, |_| {
            (0..COMPOSES).fold(id, |acc, i| sfa.compose_states(acc, parts[i % parts.len()]))
        })
    });
    out.push(Metric::one("core.compose_ns", t * 1e9 / COMPOSES as f64));

    let (t, s) = time_median(reps, || {
        tracer.span("core", "run_from[512 B blocks]", 0, |_| {
            sample.chunks(512).fold(sfa.initial(), |s, block| sfa.run_from(s, block))
        })
    });
    verify(s == expected, || "block-chained run_from disagrees with run".into())?;
    out.push(Metric::one("core.block_scan_mb_s", mb_s(len, t)));

    let (t, _) = time_median(reps, || {
        tracer.span("core", "run[2 KiB haystacks]", 0, |_| {
            sample.chunks(2048).map(|h| sfa.run(h)).fold(0u64, |a, s| a ^ u64::from(s))
        })
    });
    out.push(Metric::one("core.small_scan_mb_s", mb_s(len, t)));
    Ok(())
}

/// Algorithm 5 taken apart on the production unit of work: the chunk
/// plan, the map phase, the reduction, the pool's own share of the map
/// phase, and guided speculation (Algorithm 3) for comparison.
pub fn parallel_probe(
    re: &Regex,
    unit: &[u8],
    cores: usize,
    reps: usize,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let sfa = re.sfa();
    let engine = re.engine();
    let plan = engine.plan_chunks_interleaved(unit.len(), cores, sfa.preferred_lanes());
    let expected = re.dfa().run(unit);
    let matcher = ParallelSfaMatcher::with_engine(sfa, engine.clone());
    let (map_s, partials) = time_median(reps, || {
        tracer.span("matcher", "ParallelSfaMatcher::chunk_states", 0, |_| {
            matcher.chunk_states(unit, cores)
        })
    });
    let (reduce_s, q) = time_median(reps, || {
        tracer.span("matcher", "sequential reduction", 0, |_| {
            partials.iter().fold(sfa.dfa_start(), |q, &f| sfa.apply(f, q))
        })
    });
    verify(q == expected, || "Algorithm 5 disagrees with Algorithm 2".into())?;
    let slowest_chunk = split_chunks(unit, plan.chunks)
        .into_iter()
        .map(|chunk| {
            time_median(reps, || {
                tracer.span("core", "chunk scan (standalone)", 0, |_| {
                    scan_chunk(sfa, chunk, plan.lanes)
                })
            })
            .0
        })
        .fold(0.0, f64::max);
    let report = re.convergence_report();
    let spec = SpeculativeDfaMatcher::with_engine(re.dfa(), engine.clone()).with_analysis(report);
    let (spec_s, q) = time_median(reps, || {
        tracer.span("matcher", "SpeculativeDfaMatcher::run", 0, |_| {
            spec.run(unit, cores, Reduction::Sequential)
        })
    });
    verify(q == expected, || "guided speculation disagrees with Algorithm 2".into())?;
    out.extend([
        Metric::one("matcher.plan_chunks", plan.chunks as f64),
        Metric::one("matcher.plan_lanes", plan.lanes as f64),
        Metric::one("matcher.map_ms", map_s * 1e3),
        Metric::one("matcher.reduce_ms", reduce_s * 1e3),
        Metric::one("matcher.pool_self_ms", (map_s - slowest_chunk) * 1e3),
        Metric::one("matcher.spec_ms", spec_s * 1e3),
    ]);
    Ok(())
}

/// `StreamMatcher::feed` per block, in flows of 16 blocks separated by
/// `reset`, against the same blocks chained through `run_from` alone;
/// the flows repeat until the p99 has enough feeds beyond it.
pub fn stream_probe(
    re: &Regex,
    blocks: &[&[u8]],
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let sfa = re.sfa();
    let mut stream = re.stream();
    let flows = blocks.chunks(16).count().max(1);
    let needed = stats::samples_for(0.99).div_ceil(blocks.len().max(1));
    let mut feeds = Vec::with_capacity(blocks.len());
    let mut scans = Vec::with_capacity(blocks.len());
    for (flow_id, flow) in blocks.chunks(16).cycle().take(flows * needed).enumerate() {
        stream.reset();
        tracer.span("matcher", "StreamMatcher::feed[flow]", flow_id as u64, |_| {
            for block in flow {
                let t = Instant::now();
                stream.feed(block);
                feeds.push(secs(t));
            }
        });
        let mut state = sfa.initial();
        tracer.span("core", "run_from[flow]", flow_id as u64, |_| {
            for block in flow {
                let t = Instant::now();
                state = sfa.run_from(state, block);
                scans.push(secs(t));
            }
        });
        verify(stream.finish() == sfa.is_accepting(state), || {
            format!("flow {flow_id}: the stream verdict disagrees with run_from")
        })?;
    }
    let feed_total: f64 = feeds.iter().sum();
    let scan_total: f64 = scans.iter().sum();
    let feeds_us: Vec<f64> = feeds.iter().map(|s| s * 1e6).collect();
    out.extend([
        Metric::new("matcher.feed_us_p50", feeds_us.clone()),
        Metric::quantile("matcher.feed_us_p99", feeds_us, 0.99),
        Metric::one("matcher.stream_self_ratio", (feed_total - scan_total) / feed_total),
    ]);
    Ok(())
}

/// Artifact encode and memory-mapped load of an eager regex, with the
/// loaded copy checked verdict for verdict on `probes`.
pub fn serialize_probe(
    re: &Regex,
    probes: &[&[u8]],
    dir: &Path,
    reps: usize,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let (encode_s, bytes) = time_median(reps, || {
        tracer.span("serialize", "Regex::to_artifact", 0, |_| re.to_artifact())
    });
    let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("probe-{}.sfa", std::process::id()));
    std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    let (load_s, loaded) = time_median(reps, || {
        tracer.span("serialize", "Regex::load_artifact", 0, |_| Regex::load_artifact(&path))
    });
    let loaded = loaded.map_err(|e| format!("load: {e}"))?;
    for (i, h) in probes.iter().enumerate() {
        verify(loaded.run(h, Strategy::Sequential) == re.run(h, Strategy::Sequential), || {
            format!("haystack {i}: the artifact-loaded regex disagrees with its source")
        })?;
    }
    let _ = std::fs::remove_file(&path);
    out.extend([
        Metric::one("serialize.encode_ms", encode_s * 1e3),
        Metric::one("serialize.load_ms", load_s * 1e3),
        Metric::one("serialize.artifact_kib", bytes.len() as f64 / 1024.0),
    ]);
    Ok(())
}

/// Repetitions for probes over `bytes` of input: fewer for big inputs,
/// so each probe costs about the same.
fn reps_for(bytes: usize, max_reps: usize) -> usize {
    ((96usize << 20) / bytes.max(1)).clamp(3, max_reps.max(3))
}

/// Runs every probe on `s`, appending to the outcome's per-layer metrics.
pub fn probe_layers(ctx: &Ctx, outcome: &mut Outcome, s: ProbeSubject) -> Result<(), String> {
    let reps = ctx.sizes.probe_reps;
    let (tracer, out, notes) = (&mut outcome.tracer, &mut outcome.layers, &mut outcome.notes);
    compile_probe(&s, reps, tracer, out, notes)?;
    let sample = &s.unit[..s.unit.len().min(SAMPLE_BYTES)];
    let sample_reps = reps_for(sample.len(), reps);
    scan_probe(&s.regex, sample, sample_reps, tracer, out)?;
    parallel_probe(&s.regex, &s.unit, ctx.cores, reps_for(s.unit.len(), reps), tracer, out)?;
    let blocks: Vec<&[u8]> =
        if s.blocks.is_empty() { sample.chunks(512).collect() } else { s.blocks.clone() };
    stream_probe(&s.regex, &blocks, tracer, out)?;
    let pieces: Vec<&[u8]> = sample.chunks(2048).take(64).collect();
    let eager = s.eager.as_ref().unwrap_or(&s.regex);
    serialize_probe(eager, &pieces, &ctx.out, sample_reps, tracer, out)?;
    crate::serve::server_probe(ctx, s.mode, &s.server_patterns, s.requests, tracer, out)
}

/// Runs a workload's measured loop `f(seconds, tracer, outcome)`: once
/// over the whole budget untraced; or, in a traced run, once untraced and
/// once traced over half the budget each, recording the traced/untraced
/// ratio of every end-to-end metric as the tracing overhead. Returns the
/// untraced metrics.
pub fn measure_loops(
    ctx: &Ctx,
    outcome: &mut Outcome,
    mut f: impl FnMut(f64, &mut Tracer, &mut Outcome) -> Result<Vec<Metric>, String>,
) -> Result<Vec<Metric>, String> {
    if !ctx.trace {
        return f(ctx.seconds, &mut Tracer::new(false), outcome);
    }
    let untraced = f(ctx.seconds / 2.0, &mut Tracer::new(false), outcome)?;
    let mut tracer = std::mem::replace(&mut outcome.tracer, Tracer::new(false));
    let traced = f(ctx.seconds / 2.0, &mut tracer, outcome);
    outcome.tracer = tracer;
    for m in traced? {
        let base = untraced.iter().find(|u| u.def.name == m.def.name);
        if let Some(base) = base.filter(|b| b.value() != 0.0) {
            let ratio = m.value() / base.value();
            if m.def.name == "scan_mb_s" {
                outcome.layers.push(Metric::one("bench.trace_overhead", ratio));
            }
            outcome.extra_layers.push((
                format!("bench.trace_overhead.{}", m.def.name),
                ratio,
                "ratio",
            ));
        }
    }
    Ok(untraced)
}
