//! # sfa-bench
//!
//! Shared helpers for the `reproduce` binary, which regenerates every
//! table and figure of the paper, plus the flat summary record and
//! baseline gate of its CI-gated targets ([`summary`]). The whole-stack
//! benchmark is the separate `suite` package under `src/bin/suite`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod summary;

use std::time::{Duration, Instant};

/// Result of one throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Bytes processed per run.
    pub bytes: usize,
    /// Best-of-N wall-clock time.
    pub elapsed: Duration,
}

impl Throughput {
    /// Gigabytes per second (the unit of Figures 6–9).
    pub fn gb_per_sec(&self) -> f64 {
        self.bytes as f64 / 1e9 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Megabytes per second.
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Runs `work` `runs` times over an input of `bytes` bytes and keeps the
/// best (minimum) time, which is the conventional way to report throughput
/// for in-memory matching.
pub fn measure<F: FnMut()>(bytes: usize, runs: usize, mut work: F) -> Throughput {
    let mut best = Duration::MAX;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed());
    }
    Throughput { bytes, elapsed: best }
}

/// Scale factor for the reproduction experiments, settable with the
/// `SFA_SCALE` environment variable (1 = the quick defaults of the
/// `reproduce` binary; larger values enlarge inputs proportionally, e.g.
/// 64 approaches the paper's 1 GB inputs).
pub fn scale() -> usize {
    std::env::var("SFA_SCALE").ok().and_then(|s| s.parse().ok()).filter(|&s| s > 0).unwrap_or(1)
}

/// The thread counts swept by the scalability figures: 1, 2, 4, … up to the
/// machine (the paper sweeps 1–12 on dual hexa-core hardware).
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut sweep = vec![1usize, 2, 4, 6, 8, 12];
    sweep.retain(|&t| t <= max.max(2) * 2);
    if !sweep.contains(&max) {
        sweep.push(max);
        sweep.sort_unstable();
    }
    sweep.dedup();
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_units() {
        let t = Throughput { bytes: 2_000_000_000, elapsed: Duration::from_secs(1) };
        assert!((t.gb_per_sec() - 2.0).abs() < 1e-9);
        assert!((t.mb_per_sec() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn measure_keeps_best_time() {
        let mut calls = 0;
        let t = measure(100, 3, || calls += 1);
        assert_eq!(calls, 3);
        assert_eq!(t.bytes, 100);
        assert!(t.elapsed > Duration::ZERO);
    }

    #[test]
    fn thread_sweep_starts_at_one() {
        let sweep = thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }
}
