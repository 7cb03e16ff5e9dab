//! Summaries of timing samples: the median, and the highest percentile
//! that still has at least ten samples beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median and supported tail of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// `(percentile in 0..100, value)` of the highest percentile with at
    /// least [`TAIL_SAMPLES`] samples beyond it; `None` below 11 samples.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// The supported tail's value, or the median when too few samples
    /// support any.
    pub fn tail(&self) -> f64 {
        self.top.map_or(self.median, |(_, v)| v)
    }
}

/// Median of `values` (0.0 when empty), NaN-safe via `total_cmp`.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Summarize `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    // `n - TAIL_SAMPLES` samples lie at or below index `n - TAIL_SAMPLES - 1`,
    // and exactly TAIL_SAMPLES beyond it.
    let top = (n > TAIL_SAMPLES).then(|| {
        let below = n - TAIL_SAMPLES;
        (100.0 * below as f64 / n as f64, v[below - 1])
    });
    Summary { n, median, top }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
