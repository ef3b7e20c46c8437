//! `suite` — one benchmark for the whole SFA stack: four workloads,
//! end-to-end metrics, and per-layer metrics from a separate traced run.
//! See `README.md` beside this file.
//!
//! ```text
//! suite run [--seed S] [--out DIR] [--seconds N] [--trace] [--workload W]...
//! suite compare A B [--benchmark BENCHMARK.json]
//! suite --workload W --seed S --seconds N --trace 0|1 [--out DIR]
//! ```
//!
//! `run` starts one child process per workload (the third form), prints
//! every metric and appends each workload's record to `DIR/results.jsonl`.
//! The third form runs one workload in-process; its last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}`, its exit code non-zero
//! on any wrong verdict.

mod bulk_scan;
mod harness;
mod ids_batch;
mod json;
mod layers;
mod log_stream;
mod metrics;
mod serve;
mod stats;
mod trace;

use harness::{Ctx, Outcome, Sizes};
use json::Json;
use metrics::{Metric, Record, RunHeader, END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The workloads, in the order `suite run` runs them.
pub const WORKLOADS: [&str; 4] = ["bulk_scan", "ids_batch", "serve", "log_stream"];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_OUT: &str = "target/suite";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_opts(&args[1..]).and_then(|o| cmd_run(&o)),
        Some("compare") => cmd_compare(&args[1..]),
        Some("-h" | "--help") | None => Err(usage()),
        Some(_) => parse_opts(&args).and_then(|o| cmd_workload(&o)),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("suite: {message}");
            std::process::exit(2);
        }
    }
}

fn usage() -> String {
    "usage: suite run [--seed S] [--out DIR] [--seconds N] [--trace] [--workload W]...\n       \
     suite compare A B [--benchmark BENCHMARK.json]\n       \
     suite --workload W --seed S --seconds N --trace 0|1 [--out DIR]"
        .to_string()
}

#[derive(Clone, Debug)]
struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {}", WORKLOADS.join(", ")));
                }
                opts.workloads.push(w);
            }
            "--seed" => opts.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            // `--trace` alone is a flag; the one-workload form passes 0 or 1.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn header(workload: &str, opts: &Opts) -> RunHeader {
    RunHeader {
        workload: workload.to_string(),
        seed: opts.seed,
        trace: opts.trace,
        seconds: opts.seconds.round() as u64,
        cores: harness::cores(),
        cpu_features: harness::cpu_features(),
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "bulk_scan" => bulk_scan::run(ctx),
        "ids_batch" => ids_batch::run(ctx),
        "serve" => serve::run(ctx),
        "log_stream" => log_stream::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The metrics of `outcome` a run must report, in declaration order:
/// every end-to-end metric untraced, every per-layer metric traced.
fn reported(outcome: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    let (declared, have) =
        if trace { (PER_LAYER, &outcome.layers) } else { (END_TO_END, &outcome.e2e) };
    declared
        .iter()
        .map(|d| {
            let m = have
                .iter()
                .find(|m| m.def.name == d.name)
                .ok_or_else(|| format!("the run did not measure {}", d.name))?;
            if !m.value().is_finite() {
                Err(format!("{} is not a finite number", d.name))
            } else if !m.tail_supported() {
                Err(format!(
                    "{}: too few samples ({}) beyond the percentile",
                    d.name,
                    m.samples.len()
                ))
            } else {
                Ok(m.clone())
            }
        })
        .collect()
}

/// One workload in this process: the benchmark contract's entry point.
fn cmd_workload(opts: &Opts) -> Result<i32, String> {
    let [workload] = opts.workloads.as_slice() else {
        return Err(format!("give exactly one --workload\n{}", usage()));
    };
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let header = header(workload, opts);
    println!(
        "# suite {workload} seed={} seconds={} trace={} cores={} cpu_features={} simd={}",
        header.seed,
        opts.seconds,
        u8::from(opts.trace),
        header.cores,
        header.cpu_features,
        if cfg!(feature = "simd") { "on" } else { "off" },
    );
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        sizes: Sizes::full(),
        out: opts.out.clone(),
        cores: header.cores,
    };
    let outcome = match run_workload(workload, &ctx) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("suite: {workload}: {message}");
            return Ok(1);
        }
    };
    let reported = match reported(&outcome, opts.trace) {
        Ok(m) => m,
        Err(message) => {
            eprintln!("suite: {workload}: {message}");
            return Ok(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let shown = if opts.trace { &outcome.layers } else { &outcome.e2e };
    for m in shown {
        println!("{}", m.line(workload));
    }
    let record = Record::new(&header, outcome.attempted, outcome.failed, shown);
    append_line(&opts.out.join("results.jsonl"), &record.to_json().to_string())?;
    if opts.trace {
        write_trace_files(&opts.out, workload, &outcome)?;
    }
    println!("{}", metrics::result_line(outcome.attempted, outcome.failed, &reported));
    Ok(0)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))
}

/// `DIR/trace-<workload>.json` (every span) and this workload's entry of
/// `DIR/layers.json` (per-layer metrics, layer busy and self times, and
/// the traced/untraced overhead of each end-to-end metric).
fn write_trace_files(out: &Path, workload: &str, outcome: &Outcome) -> Result<(), String> {
    let write = |path: PathBuf, j: &Json| {
        std::fs::write(&path, format!("{j}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(out.join(format!("trace-{workload}.json")), &outcome.tracer.to_json())?;
    let times = trace::layer_times(outcome.tracer.spans());
    let entry = Json::obj([
        ("metrics", metrics::metrics_json(&outcome.layers)),
        (
            "workload_metrics",
            Json::obj(outcome.extra_layers.iter().map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
        (
            "layer_ms",
            Json::obj(times.iter().map(|(layer, (total, own))| {
                (
                    layer.to_string(),
                    Json::obj([
                        ("span_ms", Json::Num(*total as f64 / 1e6)),
                        ("self_ms", Json::Num(*own as f64 / 1e6)),
                    ]),
                )
            })),
        ),
    ]);
    let path = out.join("layers.json");
    let mut all: Vec<(String, Json)> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| j.as_object().map(<[(String, Json)]>::to_vec))
        .unwrap_or_default();
    all.retain(|(w, _)| w != workload);
    all.push((workload.to_string(), entry));
    write(path, &Json::Obj(all))
}

/// `suite run`: every requested workload in its own child process.
fn cmd_run(opts: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let workloads: Vec<&str> = if opts.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        opts.workloads.iter().map(String::as_str).collect()
    };
    println!(
        "# suite run seed={} seconds={} trace={} cores={} cpu_features={} out={}",
        opts.seed,
        opts.seconds,
        opts.trace,
        harness::cores(),
        harness::cpu_features(),
        opts.out.display()
    );
    let mut failed = Vec::new();
    for workload in workloads {
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("{workload} output: {e}"))?;
            if let Some(prev) = last.replace(line) {
                println!("{prev}");
            }
        }
        let status = child.wait().map_err(|e| format!("wait for {workload}: {e}"))?;
        let result = last.as_deref().and_then(|l| Json::parse(l).ok());
        match result {
            Some(r) if status.success() && r.get("correct") == Some(&Json::Bool(true)) => {
                let count = |k| r.get(k).and_then(Json::as_u64).unwrap_or(0);
                println!("{workload} attempted {} failed {}", count("attempted"), count("failed"));
            }
            _ => {
                if let Some(l) = last {
                    println!("{l}");
                }
                eprintln!("suite: {workload} failed ({status})");
                failed.push(workload);
            }
        }
    }
    if failed.is_empty() {
        Ok(0)
    } else {
        eprintln!("suite: failed workloads: {}", failed.join(", "));
        Ok(1)
    }
}

/// `suite compare A B`: every workload × end-to-end metric row, judged
/// against the bounds of `BENCHMARK.json`. Exits 1 on any worse row
/// (a higher failure ratio included).
fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let mut dirs = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            spec_path = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err(format!("compare needs two result directories\n{}", usage()));
    };
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("read {}: {e}", spec_path.display()))?;
    let spec = metrics::Spec::parse(&text)?;
    let rows = metrics::compare(&spec, &metrics::read_results(a)?, &metrics::read_results(b)?);
    for line in metrics::render(&rows) {
        println!("{line}");
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(metrics::Verdict::Worse), count(metrics::Verdict::Unresolved));
    println!(
        "{} rows: {} better, {} same, {worse} worse, {unresolved} unresolved",
        rows.len(),
        count(metrics::Verdict::Better),
        count(metrics::Verdict::Same)
    );
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// Every workload end to end at tiny sizes, untraced and traced:
    /// every path, every verdict check, every declared metric.
    #[test]
    fn every_workload_reports_every_metric_at_tiny_sizes() {
        let out = std::env::temp_dir().join(format!("sfa-suite-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 3,
                    seconds: 0.3,
                    trace,
                    sizes: Sizes::tiny(),
                    out: out.clone(),
                    cores: harness::cores(),
                };
                let outcome = run_workload(workload, &ctx)
                    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
                let metrics = reported(&outcome, trace)
                    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
                assert!(outcome.attempted > 0 && outcome.failed == 0, "{workload}");
                let line = Json::parse(&metrics::result_line(1, 0, &metrics)).unwrap();
                let declared = if trace { PER_LAYER } else { END_TO_END };
                let keys = line.get("metrics").and_then(Json::as_object).unwrap();
                assert_eq!(keys.len(), declared.len(), "{workload}");
                if trace {
                    assert!(!outcome.tracer.spans().is_empty(), "{workload}: no spans");
                    write_trace_files(&out, workload, &outcome).unwrap();
                }
            }
        }
        let layers = Json::parse(&std::fs::read_to_string(out.join("layers.json")).unwrap());
        assert_eq!(layers.unwrap().as_object().map(<[_]>::len), Some(WORKLOADS.len()));
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn options_parse_both_command_forms() {
        let args: Vec<String> =
            ["--workload", "serve", "--seed", "9", "--seconds", "4", "--trace", "0"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let o = parse_opts(&args).unwrap();
        assert_eq!(
            (o.workloads.as_slice(), o.seed, o.seconds, o.trace),
            (&["serve".to_string()][..], 9, 4.0, false)
        );
        let o =
            parse_opts(&["--trace".to_string(), "--seed".to_string(), "2".to_string()]).unwrap();
        assert!(o.trace && o.seed == 2);
        assert!(parse_opts(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
