//! Sample quantiles over `f64`.

use crate::error::{Result, StatsError};

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of the sample using linear
/// interpolation between order statistics.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64> {
    if samples.is_empty() {
        return Err(StatsError::EmptyData);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            name: "q",
            value: q,
            constraint: "must be in [0, 1]",
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median shorthand.
pub fn median(samples: &[f64]) -> Result<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 5.0);
        assert_eq!(median(&xs).unwrap(), 3.0);
        assert_eq!(quantile(&xs, 0.25).unwrap(), 2.0);
        // Interpolated quantile on an even-length sample.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
        assert!(quantile(&xs, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
    }
}
