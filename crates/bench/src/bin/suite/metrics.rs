//! Metric definitions, measured metrics, the results log and
//! `suite compare`.
//!
//! The end-to-end and per-layer names, units and directions below are
//! the ones `BENCHMARK.json` declares (a test keeps the two in step);
//! `BENCHMARK.json` alone holds the end-to-end bounds.

use crate::json::Json;
use crate::stats::{self, Tail};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (see the README for what
/// each one measures on each workload).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("peak_mem_mb", "MB", Lower),
    def("scan_mb_s", "MB/s", Higher),
    def("sfa_scan_mb_s", "MB/s", Higher),
    def("seq_scan_mb_s", "MB/s", Higher),
    def("p50_ms", "ms", Lower),
];

/// End-to-end rows only `serve` reports, printed and recorded but not
/// compared: their run-to-run spread on a shared 2-core machine is wider
/// than any useful bound (see the README).
pub const SERVE_ONLY: &[Def] = &[
    def("p50_ms_1krps", "ms", Lower),
    def("p99_ms_1krps", "ms", Lower),
    def("p99_ms_3krps", "ms", Lower),
    def("max_rps", "req/s", Higher),
];

/// Per-layer metrics every workload's traced run reports.
pub const PER_LAYER: &[Def] = &[
    def("regex_syntax.parse_ms", "ms", Lower),
    def("regex_syntax.literals_ms", "ms", Lower),
    def("automata.nfa_ms", "ms", Lower),
    def("automata.nfa_states", "count", Lower),
    def("automata.determinize_ms", "ms", Lower),
    def("automata.dfa_states", "count", Lower),
    def("automata.minimize_ms", "ms", Lower),
    def("automata.min_dfa_states", "count", Lower),
    def("automata.dfa_scan_mb_s", "MB/s", Higher),
    def("analysis.analyze_ms", "ms", Lower),
    def("analysis.survivor_ratio", "ratio", Lower),
    def("core.sfa_build_ms", "ms", Lower),
    def("core.sfa_states", "count", Lower),
    def("core.table_kib", "KiB", Lower),
    def("core.scan_mb_s", "MB/s", Higher),
    def("core.lanes_scan_mb_s", "MB/s", Higher),
    def("core.compose_ns", "ns", Lower),
    def("core.kernel_lanes", "count", Higher),
    def("core.block_scan_mb_s", "MB/s", Higher),
    def("core.small_scan_mb_s", "MB/s", Higher),
    def("matcher.set_compile_s", "s", Lower),
    def("matcher.pack_useful_ratio", "ratio", Higher),
    def("matcher.shards", "count", Lower),
    def("matcher.plan_chunks", "count", Higher),
    def("matcher.plan_lanes", "count", Higher),
    def("matcher.map_ms", "ms", Lower),
    def("matcher.reduce_ms", "ms", Lower),
    def("matcher.pool_self_ms", "ms", Lower),
    def("matcher.spec_ms", "ms", Lower),
    def("matcher.feed_us_p50", "us", Lower),
    def("matcher.feed_us_p99", "us", Lower),
    def("matcher.stream_self_ratio", "ratio", Lower),
    def("matcher.batch_scan_ms_p50", "ms", Lower),
    def("serialize.encode_ms", "ms", Lower),
    def("serialize.load_ms", "ms", Lower),
    def("serialize.artifact_kib", "KiB", Lower),
    def("server.register_ms", "ms", Lower),
    def("server.round_trip_ms_p50", "ms", Lower),
    def("server.round_trip_ms_p99", "ms", Lower),
    def("server.frame_encode_us", "us", Lower),
    def("server.frame_decode_us", "us", Lower),
    def("server.self_ms_p50", "ms", Lower),
    def("bench.trace_overhead", "ratio", Higher),
];

/// Looks a metric up among every definition the suite knows.
pub fn find_def(name: &str) -> Option<Def> {
    END_TO_END.iter().chain(SERVE_ONLY).chain(PER_LAYER).find(|d| d.name == name).copied()
}

/// A measured metric: its within-run samples. The reported value is
/// their median, or for a percentile metric such as `p99_ms_3krps` that
/// percentile.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub def: Def,
    pub samples: Vec<f64>,
    quantile: Option<f64>,
}

impl Metric {
    /// A metric from its samples. Panics on an unknown name: every name
    /// the workloads emit is declared above.
    pub fn new(name: &str, samples: Vec<f64>) -> Metric {
        let def = find_def(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        Metric { def, samples, quantile: None }
    }

    /// A metric reporting the nearest-rank `q`-quantile of its samples.
    pub fn quantile(name: &str, samples: Vec<f64>, q: f64) -> Metric {
        Metric { quantile: Some(q), ..Metric::new(name, samples) }
    }

    pub fn one(name: &str, value: f64) -> Metric {
        Metric::new(name, vec![value])
    }

    pub fn value(&self) -> f64 {
        match self.quantile {
            Some(q) => stats::percentile(&self.samples, q),
            None => stats::median(&self.samples),
        }
    }

    /// For a percentile metric, whether at least [`stats::TAIL_BEYOND`]
    /// samples lie beyond the reported percentile (the rule every reported
    /// tail follows); other metrics always pass.
    pub fn tail_supported(&self) -> bool {
        self.quantile.is_none_or(|q| stats::beyond(q, self.samples.len()) >= stats::TAIL_BEYOND)
    }

    pub fn tail(&self) -> Option<Tail> {
        stats::tail(&self.samples, self.def.better == Better::Higher)
    }

    /// `name value unit (n samples, median, tail pXX)` — one line of
    /// `suite run` output.
    pub fn line(&self, workload: &str) -> String {
        let tail = match self.tail() {
            Some(t) => format!(", p{:.1} {}", t.percentile, fmt_num(t.value)),
            None => String::new(),
        };
        format!(
            "{workload} {} {} {} ({} samples, median {}{tail})",
            self.def.name,
            fmt_num(self.value()),
            self.def.unit,
            self.samples.len(),
            fmt_num(stats::median(&self.samples)),
        )
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value())),
            ("unit", Json::str(self.def.unit)),
            ("n", self.samples.len().into()),
        ];
        if let Some(t) = self.tail() {
            pairs.push(("tail_pct", t.percentile.into()));
            pairs.push(("tail", t.value.into()));
        }
        Json::obj(pairs)
    }
}

/// Four significant digits for humans; the JSON keeps every digit.
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

/// One workload run: what `suite` appends to `results.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    pub cores: usize,
    pub cpu_features: String,
    pub simd: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → reported (median) value and unit.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    pub fn new(header: &RunHeader, attempted: u64, failed: u64, metrics: &[Metric]) -> Record {
        Record {
            workload: header.workload.clone(),
            seed: header.seed,
            trace: header.trace,
            seconds: header.seconds,
            cores: header.cores,
            cpu_features: header.cpu_features.clone(),
            simd: cfg!(feature = "simd"),
            attempted,
            failed,
            metrics: metrics
                .iter()
                .map(|m| (m.def.name.to_string(), m.value(), m.def.unit.to_string()))
                .collect(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", self.seed.into()),
            ("trace", self.trace.into()),
            ("seconds", self.seconds.into()),
            ("cores", self.cores.into()),
            ("cpu_features", Json::str(&self.cpu_features)),
            ("simd", self.simd.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Record, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("result record lacks {k}"));
        let num = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("{k} is not a count"));
        let text = |k: &str| {
            field(k)?.as_str().map(str::to_string).ok_or_else(|| format!("{k} is not a string"))
        };
        let flag = |k: &str| field(k)?.as_bool().ok_or_else(|| format!("{k} is not a boolean"));
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.as_object().ok_or("metrics is not an object")? {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks a value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("metric lacks a unit")?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(Record {
            workload: text("workload")?,
            seed: num("seed")?,
            trace: flag("trace")?,
            seconds: num("seconds")?,
            cores: num("cores")? as usize,
            cpu_features: text("cpu_features")?,
            simd: flag("simd")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics,
        })
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload process knows about its own run.
#[derive(Clone, Debug)]
pub struct RunHeader {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    pub cores: usize,
    pub cpu_features: String,
}

/// The last stdout line of a workload process (the benchmark contract):
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.def.name,
                    Json::obj([("value", Json::Num(m.value())), ("unit", Json::str(m.def.unit))]),
                )
            })),
        ),
    ])
    .to_string()
}

/// The full per-run metric detail (samples summarized), for `layers.json`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| (m.def.name, m.to_json())))
}

/// How far a metric may worsen before `suite compare` calls it worse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Relative(f64),
    /// An amount in the metric's own unit.
    Absolute(f64),
}

/// The parts of `BENCHMARK.json` the suite reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<(Def, f64)>,
    pub per_layer: Vec<Def>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let j = Json::parse(text)?;
        let list = |k: &str| {
            j.get(k).and_then(Json::as_array).ok_or_else(|| format!("BENCHMARK.json lacks {k}"))
        };
        let def_of = |m: &Json| -> Result<Def, String> {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("metric without a unit")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: better must be lower or higher"))?;
            let known = find_def(name).ok_or_else(|| format!("unknown metric {name}"))?;
            if known.unit != unit || known.better != better {
                return Err(format!("{name}: unit or direction differs from the suite's"));
            }
            Ok(known)
        };
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            end_to_end.push((def_of(m)?, bound));
        }
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            run_seconds: j.get("run_seconds").and_then(Json::as_u64).ok_or("bad run_seconds")?,
            end_to_end,
            per_layer: list("per_layer")?.iter().map(def_of).collect::<Result<_, _>>()?,
        })
    }
}

/// Reads every untraced record of a results directory.
pub fn read_results(dir: &Path) -> Result<Vec<Record>, String> {
    let path = dir.join("results.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Record::from_json(&Json::parse(line)?)?;
        if !record.trace {
            out.push(record);
        }
    }
    if out.is_empty() {
        return Err(format!("{} holds no untraced runs", path.display()));
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric row of `suite compare`.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub def: Def,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub bound: Bound,
    /// Share of all (A run, B run) pairs in which B reads better (ties
    /// count for neither side).
    pub won: f64,
    pub verdict: Verdict,
}

/// Judges B against A (choosing-metrics §8): worse when B's median is
/// worse by more than the bound; unresolved when A's own spread exceeds
/// the bound and not every B run beats every A run; better when B wins
/// nine tenths of all pairs and the medians differ by more than A's
/// interquartile range; same otherwise.
pub fn judge(def: Def, bound: Bound, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let sign = if def.better == Better::Higher { 1.0 } else { -1.0 };
    let pairs = (a.len() * b.len()).max(1) as f64;
    let wins = a.iter().flat_map(|&x| b.iter().map(move |&y| sign * (y - x) > 0.0)).filter(|&w| w);
    let won = wins.count() as f64 / pairs;
    let (ma, mb) = (stats::median(a), stats::median(b));
    let [q1, _, q3] = stats::quartiles(a);
    let allowed = match bound {
        Bound::Relative(share) => share * ma.abs(),
        Bound::Absolute(amount) => amount,
    };
    let worsening = sign * (ma - mb);
    let every_b_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) > 0.0));
    let verdict = if worsening > allowed {
        Verdict::Worse
    } else if (q3 - q1) > allowed && !every_b_better {
        Verdict::Unresolved
    } else if won >= 0.9 && (mb - ma).abs() > (q3 - q1) {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (won, verdict)
}

/// Judges one row, including rows one side lacks: a metric A measured
/// and B did not (a workload that aborted writes no record) is worse; one
/// only B measured has nothing to be judged against.
fn judge_row(def: Def, bound: Bound, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    match (a.is_empty(), b.is_empty()) {
        (false, true) => (0.0, Verdict::Worse),
        (true, _) => (0.0, Verdict::Unresolved),
        (false, false) => judge(def, bound, a, b),
    }
}

/// Compares two sets of runs workload by workload and metric by metric.
/// Each workload also gets a `fail_ratio` row, worse when B's ratio is
/// worse by the median rule or when any B run failed more than every A
/// run did: one failing run among many is still a regression.
pub fn compare(spec: &Spec, a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> =
        a.iter().chain(b).map(|r| r.workload.as_str()).collect::<Vec<_>>();
    workloads.sort_unstable();
    workloads.dedup();
    let values = |runs: &[Record], workload: &str, name: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v))
            .collect()
    };
    let mut rows = Vec::new();
    for workload in workloads {
        let mut row = |def: Def, bound: Bound, a: Vec<f64>, b: Vec<f64>| {
            let (won, mut verdict) = judge_row(def, bound, &a, &b);
            let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if def.name == "fail_ratio" && !a.is_empty() && max(&b) > max(&a) {
                verdict = Verdict::Worse;
            }
            rows.push(Row { workload: workload.to_string(), def, a, b, bound, won, verdict });
        };
        for &(def, bound) in &spec.end_to_end {
            let (va, vb) = (values(a, workload, def.name), values(b, workload, def.name));
            if !(va.is_empty() && vb.is_empty()) {
                row(def, Bound::Relative(bound), va, vb);
            }
        }
        let fails = |runs: &[Record]| -> Vec<f64> {
            runs.iter().filter(|r| r.workload == workload).map(Record::fail_ratio).collect()
        };
        row(def("fail_ratio", "ratio", Lower), Bound::Absolute(0.0), fails(a), fails(b));
    }
    rows
}

/// The table `suite compare` prints, one line per row.
pub fn render(rows: &[Row]) -> Vec<String> {
    let summary = |xs: &[f64]| {
        if xs.is_empty() {
            return "missing".to_string();
        }
        let [q1, q2, q3] = stats::quartiles(xs);
        format!("{} [{}, {}] n={}", fmt_num(q2), fmt_num(q1), fmt_num(q3), xs.len())
    };
    let mut out = vec![format!(
        "{:<11} {:<15} {:<6} {:<38} {:<38} {:>7} {:>9}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "bound"
    )];
    for r in rows {
        let bound = match r.bound {
            Bound::Relative(s) => format!("{:.1}%", 100.0 * s),
            Bound::Absolute(x) => format!("±{}", fmt_num(x)),
        };
        out.push(format!(
            "{:<11} {:<15} {:<6} {:<38} {:<38} {:>6.0}% {:>9}  {}",
            r.workload,
            r.def.name,
            r.def.unit,
            summary(&r.a),
            summary(&r.b),
            100.0 * r.won,
            bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn benchmark_json_declares_exactly_the_suites_metrics() {
        let spec = Spec::parse(BENCHMARK_JSON).unwrap();
        let e2e: Vec<Def> = spec.end_to_end.iter().map(|(d, _)| *d).collect();
        assert_eq!(e2e, END_TO_END);
        assert_eq!(spec.per_layer, PER_LAYER);
        assert_eq!(spec.workloads, crate::WORKLOADS);
        assert_eq!(spec.run_seconds as f64, crate::DEFAULT_SECONDS);
        for (d, bound) in &spec.end_to_end {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}: bound {bound}", d.name);
        }
        let setup = spec.end_to_end.iter().find(|(d, _)| d.name == "setup_s").unwrap().1;
        assert!(spec.end_to_end.iter().all(|(_, b)| *b <= setup), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_round_trips() {
        let j = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn result_records_round_trip() {
        let header = RunHeader {
            workload: "bulk_scan".into(),
            seed: 7,
            trace: false,
            seconds: 3,
            cores: 2,
            cpu_features: "ssse3+avx2".into(),
        };
        let metrics =
            vec![Metric::new("scan_mb_s", vec![1.5, 2.5, 3.25]), Metric::one("setup_s", 0.001)];
        let record = Record::new(&header, 10, 1, &metrics);
        let back = Record::from_json(&Json::parse(&record.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.metrics[0].1, 2.5);
        assert!((back.fail_ratio() - 0.1).abs() < 1e-12);
        let line = Json::parse(&result_line(10, 1, &metrics)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let scan = line.get("metrics").and_then(|m| m.get("scan_mb_s")).unwrap();
        assert_eq!(scan.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(scan.get("unit").and_then(Json::as_str), Some("MB/s"));
    }

    #[test]
    fn judging_follows_the_bound_and_the_pair_rule() {
        let d = def("scan_mb_s", "MB/s", Higher);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within a 5% bound, overlapping: same.
        assert_eq!(judge(d, Bound::Relative(0.05), &a, &[100.2, 99.8, 100.1]).1, Verdict::Same);
        // 10% slower: worse.
        assert_eq!(judge(d, Bound::Relative(0.05), &a, &[90.0, 89.0, 91.0]).1, Verdict::Worse);
        // Every B run faster and beyond A's spread: better.
        let (won, v) = judge(d, Bound::Relative(0.05), &a, &[110.0, 111.0, 109.0]);
        assert_eq!((won, v), (1.0, Verdict::Better));
        // A's own spread wider than the bound: unresolved.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(d, Bound::Relative(0.05), &noisy, &[99.0]).1, Verdict::Unresolved);
        // Lower-is-better metrics flip the direction.
        let lat = def("p50_ms", "ms", Lower);
        assert_eq!(judge(lat, Bound::Relative(0.05), &a, &[120.0]).1, Verdict::Worse);
        // Absolute bound of zero: any higher failure ratio is worse.
        let fail = def("fail_ratio", "ratio", Lower);
        assert_eq!(judge(fail, Bound::Absolute(0.0), &[0.0, 0.0], &[0.0, 0.01]).1, Verdict::Worse);
        assert_eq!(judge(fail, Bound::Absolute(0.0), &[0.0], &[0.0]).1, Verdict::Same);
    }

    fn record(workload: &str, failed: u64, scan: f64) -> Record {
        Record {
            workload: workload.into(),
            seed: 1,
            trace: false,
            seconds: 1,
            cores: 2,
            cpu_features: "none".into(),
            simd: false,
            attempted: 100,
            failed,
            metrics: vec![("scan_mb_s".into(), scan, "MB/s".into())],
        }
    }

    #[test]
    fn compare_fails_missing_rows_and_any_run_failing_more() {
        let spec = Spec {
            workloads: vec!["w".into(), "v".into()],
            run_seconds: 1,
            end_to_end: vec![(def("scan_mb_s", "MB/s", Higher), 0.05)],
            per_layer: Vec::new(),
        };
        let verdicts = |a: &[Record], b: &[Record]| -> Vec<(String, &'static str, Verdict)> {
            compare(&spec, a, b).into_iter().map(|r| (r.workload, r.def.name, r.verdict)).collect()
        };
        let a: Vec<Record> = (0..5).map(|_| record("w", 0, 100.0)).collect();
        // Same runs: every row the same.
        assert!(verdicts(&a, &a).iter().all(|(_, _, v)| *v == Verdict::Same));
        // One B run of five failing, though the median fail ratio is 0.
        let mut b = a.clone();
        b[2].failed = 1;
        let got = verdicts(&a, &b);
        assert_eq!(got[1], ("w".into(), "fail_ratio", Verdict::Worse), "{got:?}");
        assert_eq!(got[0].2, Verdict::Same);
        // A workload A ran and B did not (it aborted): its rows are worse.
        let mut a2 = a.clone();
        a2.push(record("v", 0, 50.0));
        let got = verdicts(&a2, &a);
        assert_eq!(
            got[..2],
            [("v".into(), "scan_mb_s", Verdict::Worse), ("v".into(), "fail_ratio", Verdict::Worse)]
        );
        // A metric B's runs no longer report is worse too.
        let mut b = a.clone();
        b.iter_mut().for_each(|r| r.metrics.clear());
        assert_eq!(verdicts(&a, &b)[0], ("w".into(), "scan_mb_s", Verdict::Worse));
        // Only B ran it: nothing to judge against.
        assert_eq!(verdicts(&a, &a2)[0], ("v".into(), "scan_mb_s", Verdict::Unresolved));
        let lines = render(&compare(&spec, &a2, &a));
        assert!(lines[1].contains("missing"), "{}", lines[1]);
    }
}
