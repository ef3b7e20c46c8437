//! Sample statistics: medians, quartiles and the tail percentile rule.

/// Sorted copy of `xs` (NaNs sort last; the suite never produces them).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the suite's spreads match what other tools report.
/// A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The reported tail of a sample set: the highest percentile (at most
/// p99) that still has at least [`TAIL_BEYOND`] samples beyond it, on the
/// bad side of the metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile in `0..=100`, counted from the good side: for a
    /// lower-is-better metric `99` is the slow end, for a
    /// higher-is-better metric `1` is.
    pub percentile: f64,
    pub value: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs` under the [`TAIL_BEYOND`] rule, or `None` when there
/// are too few samples to report any percentile beyond the median.
pub fn tail(xs: &[f64], higher_is_better: bool) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return None;
    }
    // Nearest rank k keeps n - k samples beyond it; p99 itself once it
    // keeps enough.
    let p99 = (0.99 * n as f64).ceil() as usize;
    let (k, pct) = if n - p99 >= TAIL_BEYOND {
        (p99, 99.0)
    } else {
        (n - TAIL_BEYOND, 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
    };
    Some(if higher_is_better {
        Tail { percentile: 100.0 - pct, value: v[n - k] }
    } else {
        Tail { percentile: pct, value: v[k - 1] }
    })
}

/// The 1-based nearest rank of the `q`-quantile among `n > 0` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n => v[rank(q, n) - 1],
    }
}

/// Samples ranked beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// The fewest samples that leave [`TAIL_BEYOND`] beyond the `q`-quantile:
/// 100 for p90, 1000 for p99.
pub fn samples_for(q: f64) -> usize {
    (1..).find(|&n| beyond(q, n) >= TAIL_BEYOND).expect("q < 1")
}

/// A uniform random sample of at most `cap` values out of a stream
/// (reservoir sampling), in memory allocated and touched up front: a
/// closed loop taking millions of samples keeps a fixed footprint, so the
/// benchmark's own buffers do not grow into the memory it measures.
pub struct Reservoir {
    kept: Vec<f64>,
    seen: u64,
    cap: usize,
    rng: crate::harness::SplitMix,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        let mut kept = vec![f64::NAN; cap.max(1)];
        kept.clear();
        Reservoir { kept, seen: 0, cap: cap.max(1), rng: crate::harness::SplitMix(seed) }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(x);
        } else {
            let j = (self.rng.next() % self.seen) as usize;
            if j < self.cap {
                self.kept[j] = x;
            }
        }
    }

    /// Empties the sample, keeping its memory.
    pub fn clear(&mut self) {
        self.kept.clear();
        self.seen = 0;
    }

    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            (percentile(&xs, 0.9), percentile(&xs, 0.99), percentile(&xs, 1.0)),
            (90.0, 99.0, 100.0)
        );
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        for n in [21usize, 25, 50, 99, 100, 200, 999, 1000, 1001, 5000, 12345] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let low = tail(&xs, false).unwrap();
            let beyond = xs.iter().filter(|&&x| x > low.value).count();
            assert!(beyond >= TAIL_BEYOND, "n = {n}: {beyond} samples beyond p{}", low.percentile);
            assert!(low.percentile <= 99.0 + 1e-9, "n = {n}: capped at p99");
            let high = tail(&xs, true).unwrap();
            let below = xs.iter().filter(|&&x| x < high.value).count();
            assert!(below >= TAIL_BEYOND, "n = {n}: {below} samples below p{}", high.percentile);
            assert!((low.percentile + high.percentile - 100.0).abs() < 1e-9);
        }
        // With many samples the rule reports p99 itself.
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&xs, false).unwrap().percentile, 99.0);
        // Too few samples: no percentile beyond the median is supported.
        assert_eq!(tail(&[1.0; 20], false), None);
        // A fixed percentile needs enough samples of its own.
        assert_eq!((samples_for(0.9), samples_for(0.99)), (100, 1000));
        assert_eq!((beyond(0.9, 99), beyond(0.9, 100), beyond(0.9, 88)), (9, 10, 8));
    }

    #[test]
    fn reservoir_keeps_a_fixed_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        let before = r.kept.as_ptr();
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!((r.kept().len(), r.kept.as_ptr()), (1000, before), "no reallocation");
        // A uniform draw from 0..100 000 has its median near 50 000.
        assert!((median(r.kept()) - 50_000.0).abs() < 5_000.0, "{}", median(r.kept()));
        r.clear();
        r.push(3.0);
        assert_eq!(r.kept(), &[3.0]);
    }
}
