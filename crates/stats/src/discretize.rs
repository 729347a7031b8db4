//! Discretization of continuous distributions and continuous samples into a
//! fixed number of categories.
//!
//! The paper's synthetic workloads (Section VI.C) draw 10,000 records whose
//! category probabilities "follow a specific distribution" (normal, gamma,
//! discrete uniform). We support two ways to obtain such category
//! distributions:
//!
//! * **Analytic binning** — partition the distribution's support window into
//!   `n` equal-width bins and take each bin's probability mass from the CDF.
//! * **Sample binning** — draw continuous samples and histogram them into
//!   `n` equal-width bins (this is what one would do with a real continuous
//!   attribute such as Adult's `age`).

use crate::categorical::Categorical;
use crate::continuous::ContinuousDistribution;
use crate::error::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// An equal-width binning of the interval `[lo, hi]` into `n` bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EqualWidthBins {
    lo: f64,
    hi: f64,
    n: usize,
}

impl EqualWidthBins {
    /// Creates a binning of `[lo, hi]` into `n` bins.
    pub fn new(lo: f64, hi: f64, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(StatsError::InvalidParameter {
                name: "n",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
                constraint: "bounds must be finite with lo < hi",
            });
        }
        Ok(Self { lo, hi, n })
    }

    /// Lower bound of the binned interval.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the binned interval.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each bin.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.n as f64
    }

    /// The `[lo, hi)` edges of bin `i` (the last bin is closed on the right).
    pub fn edges(&self, i: usize) -> Result<(f64, f64)> {
        if i >= self.n {
            return Err(StatsError::InvalidParameter {
                name: "i",
                value: i as f64,
                constraint: "must be < number of bins",
            });
        }
        let w = self.width();
        Ok((self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w))
    }

    /// Maps a value to its bin index; values outside the interval clamp to
    /// the first or last bin (the standard treatment for tail mass).
    pub fn bin_of(&self, x: f64) -> usize {
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return self.n - 1;
        }
        let idx = ((x - self.lo) / self.width()).floor() as usize;
        idx.min(self.n - 1)
    }
}

/// Discretizes a continuous distribution into `n` categories by analytic
/// binning over its support window, assigning any tail mass outside the
/// window to the first and last bins.
pub fn discretize_distribution<D: ContinuousDistribution>(
    dist: &D,
    n: usize,
) -> Result<Categorical> {
    let (lo, hi) = dist.support_window();
    discretize_distribution_over(dist, n, lo, hi)
}

/// Discretizes a continuous distribution into `n` categories over an
/// explicit interval `[lo, hi]`.
pub fn discretize_distribution_over<D: ContinuousDistribution>(
    dist: &D,
    n: usize,
    lo: f64,
    hi: f64,
) -> Result<Categorical> {
    let bins = EqualWidthBins::new(lo, hi, n)?;
    let mut probs = Vec::with_capacity(n);
    for i in 0..n {
        let (a, b) = bins.edges(i)?;
        let mut mass = dist.cdf(b) - dist.cdf(a);
        if i == 0 {
            mass += dist.cdf(a); // left tail
        }
        if i == n - 1 {
            mass += 1.0 - dist.cdf(b); // right tail
        }
        probs.push(mass.max(0.0));
    }
    // Numerical slack: renormalize exactly.
    let total: f64 = probs.iter().sum();
    if total <= 0.0 {
        return Err(StatsError::InvalidDistribution {
            reason: "distribution has no mass in window",
        });
    }
    Categorical::new(probs.into_iter().map(|p| p / total).collect())
}

/// Maps each continuous sample to its category index under the supplied
/// binning — the per-record discretization used to turn a continuous
/// attribute (e.g. Adult's `age`) into categorical data before applying RR.
pub fn assign_bins(samples: &[f64], bins: &EqualWidthBins) -> Vec<usize> {
    samples.iter().map(|&x| bins.bin_of(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{Gamma, Normal};

    #[test]
    fn bins_validation() {
        assert!(EqualWidthBins::new(0.0, 1.0, 0).is_err());
        assert!(EqualWidthBins::new(1.0, 1.0, 3).is_err());
        assert!(EqualWidthBins::new(2.0, 1.0, 3).is_err());
        assert!(EqualWidthBins::new(f64::NAN, 1.0, 3).is_err());
        assert!(EqualWidthBins::new(0.0, 1.0, 3).is_ok());
    }

    #[test]
    fn bins_geometry() {
        let b = EqualWidthBins::new(0.0, 10.0, 5).unwrap();
        assert_eq!(b.lo(), 0.0);
        assert_eq!(b.hi(), 10.0);
        assert_eq!(b.width(), 2.0);
        assert_eq!(b.edges(0).unwrap(), (0.0, 2.0));
        assert_eq!(b.edges(4).unwrap(), (8.0, 10.0));
        assert!(b.edges(5).is_err());
    }

    #[test]
    fn bin_of_clamps_out_of_range() {
        let b = EqualWidthBins::new(0.0, 10.0, 5).unwrap();
        assert_eq!(b.bin_of(-3.0), 0);
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(1.9), 0);
        assert_eq!(b.bin_of(2.0), 1);
        assert_eq!(b.bin_of(9.999), 4);
        assert_eq!(b.bin_of(10.0), 4);
        assert_eq!(b.bin_of(42.0), 4);
    }

    #[test]
    fn discretized_normal_is_symmetric_and_unimodal() {
        let d = discretize_distribution(&Normal::new(0.0, 1.0).unwrap(), 10).unwrap();
        assert_eq!(d.num_categories(), 10);
        // Symmetric: bin i and bin n-1-i carry the same mass.
        for i in 0..5 {
            assert!(
                (d.prob(i) - d.prob(9 - i)).abs() < 1e-6,
                "bin {i} vs {}",
                9 - i
            );
        }
        // Unimodal: central bins carry the most mass.
        assert!(d.prob(4) > d.prob(0));
        assert!(d.prob(5) > d.prob(9));
    }

    #[test]
    fn discretized_gamma_is_right_skewed() {
        // The paper's gamma(1, 2) workload: mass concentrated in the low bins.
        let d = discretize_distribution(&Gamma::new(1.0, 2.0).unwrap(), 10).unwrap();
        assert!(d.prob(0) > d.prob(1));
        assert!(d.prob(1) > d.prob(3));
        assert!(d.prob(0) > 0.3);
        let total: f64 = d.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_window_discretization_collects_tail_mass() {
        let n = Normal::new(0.0, 1.0).unwrap();
        // A window covering only one standard deviation either side: the
        // first and last bins absorb the tails so mass still sums to one.
        let d = discretize_distribution_over(&n, 4, -1.0, 1.0).unwrap();
        let total: f64 = d.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(d.prob(0) > 0.2); // left tail + first bin
    }

    #[test]
    fn assign_bins_maps_each_sample_to_its_bin() {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 10) as f64 + 0.5).collect();
        let bins = EqualWidthBins::new(0.0, 10.0, 10).unwrap();
        let assigned = assign_bins(&samples, &bins);
        assert_eq!(assigned.len(), samples.len());
        assert!(assigned
            .iter()
            .zip(&samples)
            .all(|(&b, &x)| b == x as usize));
    }

    #[test]
    fn discretize_distribution_zero_bins_rejected() {
        assert!(discretize_distribution(&Normal::standard(), 0).is_err());
    }
}
