//! Medians, quartiles and percentiles for the benchmark's samples.
//!
//! Quartiles use the same method as Python's
//! `statistics.quantiles(values, n=4)` (exclusive), so the spread printed
//! here is the spread the driver computes over whole runs.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric measured once (no spread to report).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 < q < 1) of an ascending sample by the exclusive
/// method: position `q·(n+1)` (1-based), linearly interpolated, clamped to
/// the sample's ends.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = q * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    v[lo - 1] + (v[lo] - v[lo - 1]) * frac
}

/// Median and quartiles of `values`; `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(Summary {
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    })
}

/// Median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.median)
}

/// Geometric mean of positive values; `None` for an empty sample.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) in a sample of `n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether a sample of `n` has at least [`MIN_BEYOND`] samples beyond
/// percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n >= nearest_rank(n, p) + MIN_BEYOND
}

/// Percentiles tried, highest first, when the wanted one is unsupported.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile not above `wanted` that a sample of `n` supports
/// (the median when it supports none).
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .find(|p| *p <= wanted && supports(n, *p))
        .unwrap_or(0.50)
}

/// The [`supported_percentile`] of `values`, as `(value, percentile
/// used)`. `None` for an empty sample.
pub fn tail(values: &[f64], wanted: f64) -> Option<(f64, f64)> {
    let p = supported_percentile(values.len(), wanted);
    Some((nearest_rank_percentile(values, p)?, p))
}

/// Nearest-rank percentile `p` of `values`, whatever their number. `None`
/// for an empty sample.
pub fn nearest_rank_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(v[nearest_rank(v.len(), p) - 1])
}
