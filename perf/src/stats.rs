//! Order statistics over a run's repetitions.

/// Extremes, median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A count or a single reading: no spread to report.
    pub fn single(value: f64) -> Self {
        Summary {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The better quartile: the first where lower is better, else the third.
    pub fn better_quartile(&self, lower_is_better: bool) -> f64 {
        if lower_is_better {
            self.q1
        } else {
            self.q3
        }
    }

    /// `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            median: quantile(&sorted, 0.5)?,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: quantile(&sorted, 0.25)?,
            q3: quantile(&sorted, 0.75)?,
            n: sorted.len(),
        })
    }
}

/// The `p` quantile of a sorted slice as Python's
/// `statistics.quantiles` gives it (the "exclusive" method: position
/// `p * (n + 1)` counted from 1, clamped to the ends, interpolated
/// linearly). The benchmark's acceptance computes its quartiles this way,
/// so everything here does.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = (p * (sorted.len() + 1) as f64 - 1.0).clamp(0.0, last as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The distance between the first and third quartile of `values` as a
/// share of their median: the spread the benchmark's acceptance holds every
/// end-to-end metric to, over ten runs.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match Summary::of(values) {
        Some(s) if s.median != 0.0 => (s.q3 - s.q1) / s.median,
        _ => 0.0,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_median_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (1.0, 1.5, 3.0, 4.5, 5));
        assert_eq!((s.better_quartile(true), s.better_quartile(false)), (1.5, 4.5));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[7.0]).unwrap(), Summary::single(7.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }
}
