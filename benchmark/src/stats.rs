//! The one reducer: every number the benchmark reports is a sample list
//! reduced here, so a median or a spread means the same thing in a
//! workload's result, in `compare` and in the driver that re-checks them.

/// Reducing an empty sample list is an error, never a silent zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Empty;

impl std::fmt::Display for Empty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("no samples to reduce")
    }
}

impl std::error::Error for Empty {}

/// What a sample list reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The cut point `i`/4 of a sorted list, as Python's
/// `statistics.quantiles(values, n=4)` (its default, exclusive method)
/// gives it: the driver computes spreads that way, so we do too.
fn quartile_of_sorted(s: &[f64], i: usize) -> f64 {
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

pub fn summarize(values: &[f64]) -> Result<Summary, Empty> {
    if values.is_empty() {
        return Err(Empty);
    }
    let s = sorted(values);
    let median = median_of_sorted(&s);
    let dev = sorted(&s.iter().map(|v| (v - median).abs()).collect::<Vec<_>>());
    Ok(Summary {
        n: s.len(),
        min: s[0],
        q1: quartile_of_sorted(&s, 1),
        median,
        q3: quartile_of_sorted(&s, 3),
        max: s[s.len() - 1],
        mad: median_of_sorted(&dev),
    })
}

pub fn median(values: &[f64]) -> Result<f64, Empty> {
    summarize(values).map(|s| s.median)
}

/// The `p`-th percentile (0–100) by linear interpolation between the two
/// nearest ranks.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, Empty> {
    if values.is_empty() {
        return Err(Empty);
    }
    let s = sorted(values);
    let h = (s.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(s[lo] + (s[hi] - s[lo]) * (h - lo as f64))
}

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond it; `None` when not even the median does (n < 20).
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(summarize(&[]), Err(Empty));
        assert_eq!(median(&[]), Err(Empty));
        assert_eq!(percentile(&[], 50.0), Err(Empty));
    }

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[7.0]), Ok(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = summarize(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[5.0]).unwrap();
        assert_eq!((s.q1, s.q3, s.spread()), (5.0, 5.0, 0.0));
    }

    #[test]
    fn mad_and_spread() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0);
        assert_eq!((s.min, s.max), (1.0, 100.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().spread(), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Ok(1.5));
        assert_eq!(percentile(&[1.0, 2.0], 100.0), Ok(2.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(9), None);
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }
}
