//! What every workload shares: its context, input sizes, result,
//! verdict checks, clocks and memory readings.

use crate::metrics::Metric;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input sizes. [`Sizes::full`] is the benchmark; `Sizes::tiny` drives
/// every path of every workload in a few seconds of a debug build, for
/// the smoke test.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `bulk_scan`: bytes of the digit haystack.
    pub bulk_bytes: usize,
    /// `ids_batch`: rules drawn from `corpus_1k`.
    pub ids_rules: usize,
    /// `ids_batch`: distinct batches the loop cycles through.
    pub ids_batches: usize,
    /// `ids_batch`: haystacks per `matches_batch` call.
    pub ids_batch_len: usize,
    /// `log_stream`: lines of the replayed log.
    pub log_lines: usize,
    /// `log_stream`: one planted attack line every this many lines.
    pub log_attack_every: usize,
    /// `serve`: distinct requests the generator cycles through.
    pub serve_requests: usize,
    /// `serve`: how many of the eager `IDS_SCAN_RULES` the namespace holds.
    pub serve_rules: usize,
    /// Cold-start repetitions before the measured loop (sub-second
    /// set-ups are also sampled throughout the loop).
    pub setup_reps: usize,
    /// Set-up repetitions of the multi-second `ids_batch` compile.
    pub slow_setup_reps: usize,
    /// Repetitions of each timed call in the traced run's layer probes.
    pub probe_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            bulk_bytes: 32 << 20,
            ids_rules: 100,
            ids_batches: 16,
            ids_batch_len: 256,
            log_lines: 300_000,
            // Rare enough that most flows never saturate.
            log_attack_every: 4099,
            serve_requests: 256,
            serve_rules: 3,
            setup_reps: 5,
            slow_setup_reps: 3,
            probe_reps: 21,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            bulk_bytes: 64 << 10,
            ids_rules: 3,
            ids_batches: 2,
            ids_batch_len: 8,
            log_lines: 600,
            log_attack_every: 97,
            serve_requests: 4,
            serve_rules: 1,
            setup_reps: 3,
            slow_setup_reps: 1,
            probe_reps: 3,
        }
    }
}

/// Everything a workload run is told.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time of the run (split between the untraced and the
    /// traced loop when tracing).
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where artifacts and trace files go.
    pub out: PathBuf,
    /// Logical CPUs: the generator's thread/connection cap and the
    /// `Parallel` strategy's thread count.
    pub cores: usize,
}

/// What a workload run produces.
pub struct Outcome {
    /// End-to-end metrics (untraced loop).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Workload-specific per-layer detail, written to `layers.json` only.
    pub extra_layers: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            e2e: Vec::new(),
            layers: Vec::new(),
            extra_layers: Vec::new(),
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(trace),
            notes: Vec::new(),
        }
    }

    /// Sets (or replaces) a workload-specific per-layer value.
    pub fn set_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra_layers.retain(|(n, _, _)| n != name);
        self.extra_layers.push((name.to_string(), value, unit));
    }
}

/// A wrong verdict aborts the run: the suite exits non-zero without a
/// result line.
pub fn verify(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("verdict mismatch: {}", what()))
    }
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// MB/s for `bytes` processed in `seconds`.
pub fn mb_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

/// A closed loop's stopping rule: run until `seconds` have passed, but at
/// least once so even a tiny budget yields samples.
pub struct Deadline {
    end: Instant,
    first: bool,
}

impl Deadline {
    pub fn new(seconds: f64) -> Deadline {
        Deadline { end: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)), first: true }
    }

    /// True while another round should run.
    pub fn next(&mut self) -> bool {
        std::mem::replace(&mut self.first, false) || Instant::now() < self.end
    }
}

/// Set-up timings taken throughout a run rather than in one burst at its
/// start: the machine's speed drifts over seconds, and a median over
/// samples spread across the whole run follows the same conditions as
/// the run's other metrics.
pub struct SetupSampler {
    every: Duration,
    last: Instant,
    pub samples: Vec<f64>,
}

impl SetupSampler {
    pub fn new(samples: Vec<f64>) -> SetupSampler {
        SetupSampler { every: Duration::from_millis(200), last: Instant::now(), samples }
    }

    /// Whether the next sample is due; restarts the interval if so.
    pub fn due(&mut self) -> bool {
        let due = self.last.elapsed() >= self.every;
        if due {
            self.last = Instant::now();
        }
        due
    }

    /// Times one more set-up with `f` if one is due.
    pub fn maybe<E>(&mut self, f: impl FnOnce() -> Result<(), E>) -> Result<(), E> {
        if self.due() {
            let t = Instant::now();
            f()?;
            self.samples.push(secs(t));
        }
        Ok(())
    }
}

/// Median wall time of `reps` calls of `f`, in seconds; also returns the
/// last call's result.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        times.push(secs(t));
        out = Some(r);
    }
    (crate::stats::median(&times), out.expect("at least one repetition"))
}

/// One `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`), in MB
/// (10^6 bytes).
fn status_mb(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim_start_matches(':').trim().trim_end_matches("kB").trim().parse().ok())
        .map(|kib: f64| kib * 1024.0 / 1e6)
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

/// The memory a workload's system calls add on top of its generated
/// inputs: the process's resident high-water mark (`VmHWM`) when the run
/// ends, minus its resident size right after input generation. Starting
/// resets the high-water mark, so the generators' transient buffers do
/// not count, while a buffer the system allocates and frees again during
/// the run counts at its peak. The benchmark's own sample buffers stay
/// small or are allocated before the start (see `stats::Reservoir`).
pub struct MemWatch {
    base: f64,
    peak: Option<f64>,
}

impl MemWatch {
    pub fn start() -> Result<MemWatch, String> {
        // "5" resets the high-water mark to the current resident size.
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the memory high-water mark: {e}"))?;
        Ok(MemWatch { base: status_mb("VmRSS")?, peak: None })
    }

    /// Reads the high-water mark when the measured work is done, before
    /// the metrics copy their samples; later calls (the traced loop's)
    /// keep the first reading.
    pub fn mark(&mut self) -> Result<(), String> {
        if self.peak.is_none() {
            self.peak = Some(status_mb("VmHWM")?);
        }
        Ok(())
    }

    pub fn metric(&self) -> Metric {
        Metric::one("peak_mem_mb", self.peak.expect("marked after the measured loop") - self.base)
    }
}

/// Detected SIMD capability ('+'-joined, `none` when the CPU offers
/// nothing the kernels use).
pub fn cpu_features() -> String {
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

pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A small deterministic generator (SplitMix64) for the suite's own
/// draws; the workload generators bring their own.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Haystacks of `lines` grouped log records (space-joined), the shape the
/// service and IDS scenarios scan.
pub fn group_lines(log: &[u8], lines: usize) -> Vec<Vec<u8>> {
    let raw: Vec<&[u8]> = log.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    raw.chunks(lines.max(1)).map(|c| c.join(&b' ')).collect()
}

/// The needle of the planted `http_log` attack lines.
pub const ATTACK_NEEDLE: &[u8] = b"/cgi-bin/ph";

pub fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}
