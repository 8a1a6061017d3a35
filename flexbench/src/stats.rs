//! Order statistics and failure accounting for the benchmark's samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples,
/// `ceil(p/100 · n)`. The product is rounded to 1e-9 first, so that a
/// decimal `p` such as 99.9 does not gain a rank from binary rounding.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let x = ((p / 100.0) * n as f64 * 1e9).round() / 1e9;
    (x.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of `xs`, the definition the chaos
/// runner's reaction percentiles use. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Minimum samples beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of `candidates` (percentiles in `[0, 100]`) that has at
/// least [`TAIL_SAMPLES`] samples beyond it among `n`, or `None` when
/// none qualifies.
pub fn highest_tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
        .max_by(f64::total_cmp)
}

/// Failed operations as a share of attempted ones; 0 when nothing was
/// attempted.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}
