//! Categorical (discrete) distributions over a finite domain
//! `C = {c_0, ..., c_{n-1}}`.
//!
//! The OptRR paper works with single-attribute categorical data; both the
//! original-data distribution `P(X)` and the disguised-data distribution
//! `P(Y)` are values of this type.

use crate::error::{Result, StatsError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Tolerance used when validating that probabilities sum to one.
pub const PROBABILITY_TOLERANCE: f64 = 1e-9;

/// A probability distribution over `n` categories, indexed `0..n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Categorical {
    probs: Vec<f64>,
    /// Cumulative distribution, cached for O(log n) sampling.
    cdf: Vec<f64>,
}

impl Categorical {
    /// Builds a distribution from the given probabilities.
    ///
    /// The probabilities must be non-negative, non-empty, and sum to one
    /// within [`PROBABILITY_TOLERANCE`].
    pub fn new(mut probs: Vec<f64>) -> Result<Self> {
        normalize_probabilities(&mut probs)?;
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        // Guard against floating-point shortfall at the end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Self { probs, cdf })
    }

    /// Builds a distribution from unnormalized non-negative weights.
    pub fn from_weights(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(StatsError::InvalidDistribution {
                reason: "no categories",
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(StatsError::InvalidDistribution {
                reason: "weights must be finite and non-negative",
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::InvalidDistribution {
                reason: "weights sum to zero",
            });
        }
        Self::new(weights.iter().map(|w| w / total).collect())
    }

    /// Builds a distribution from observed category counts.
    pub fn from_counts(counts: &[u64]) -> Result<Self> {
        let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Self::from_weights(&weights)
    }

    /// The uniform distribution over `n` categories.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(StatsError::InvalidDistribution {
                reason: "no categories",
            });
        }
        Self::new(vec![1.0 / n as f64; n])
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.probs.len()
    }

    /// Probability of category `i` (0.0 when out of range).
    pub fn prob(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// Borrow the probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The largest single-category probability, `max_X P(X)`.
    ///
    /// Theorem 5 of the paper shows the worst-case adversary accuracy bound
    /// `δ` can never be pushed below this value.
    pub fn max_prob(&self) -> f64 {
        self.probs.iter().copied().fold(0.0, f64::max)
    }

    /// Index of the most probable category (smallest index on ties).
    pub fn mode(&self) -> usize {
        let mut best = 0;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > self.probs[best] {
                best = i;
            }
        }
        best
    }

    /// Draws one category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // Binary search in the cached CDF.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(idx) => (idx + 1).min(self.probs.len() - 1),
            Err(idx) => idx.min(self.probs.len() - 1),
        }
    }

    /// Draws `count` category indices.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// True when the two distributions agree within `tol` on every category.
    pub fn approx_eq(&self, other: &Categorical, tol: f64) -> bool {
        self.num_categories() == other.num_categories()
            && self
                .probs
                .iter()
                .zip(other.probs.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// The validation and exact renormalization of [`Categorical::new`], in
/// place, for callers that need the probabilities but not the sampler:
/// the probabilities must be non-empty, finite, no lower than
/// `−`[`PROBABILITY_TOLERANCE`] and sum to one within `1e-6`; then every
/// entry is clamped at zero and divided by the clamped sum, taken in
/// order. On error the slice is untouched.
pub fn normalize_probabilities(probs: &mut [f64]) -> Result<()> {
    if probs.is_empty() {
        return Err(StatsError::InvalidDistribution {
            reason: "no categories",
        });
    }
    if probs.iter().any(|p| !p.is_finite()) {
        return Err(StatsError::InvalidDistribution {
            reason: "non-finite probability",
        });
    }
    if probs.iter().any(|&p| p < -PROBABILITY_TOLERANCE) {
        return Err(StatsError::InvalidDistribution {
            reason: "negative probability",
        });
    }
    let sum: f64 = probs.iter().sum();
    if (sum - 1.0).abs() > 1e-6 {
        return Err(StatsError::InvalidDistribution {
            reason: "probabilities do not sum to 1",
        });
    }
    // Clamp tiny negatives and renormalize exactly so the cached CDF ends at 1.
    for p in probs.iter_mut() {
        *p = p.max(0.0);
    }
    let s: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= s;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A point mass on category `i` of `n`.
    fn point_mass(n: usize, i: usize) -> Categorical {
        let mut probs = vec![0.0; n];
        probs[i] = 1.0;
        Categorical::new(probs).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Categorical::new(vec![]).is_err());
        assert!(Categorical::new(vec![0.5, 0.6]).is_err());
        assert!(Categorical::new(vec![-0.1, 1.1]).is_err());
        assert!(Categorical::new(vec![f64::NAN, 1.0]).is_err());
        assert!(Categorical::new(vec![0.25; 4]).is_ok());
    }

    #[test]
    fn from_weights_and_counts() {
        let d = Categorical::from_weights(&[2.0, 3.0, 5.0]).unwrap();
        assert!((d.prob(2) - 0.5).abs() < 1e-12);
        assert!(Categorical::from_weights(&[]).is_err());
        assert!(Categorical::from_weights(&[0.0, 0.0]).is_err());
        assert!(Categorical::from_weights(&[-1.0, 2.0]).is_err());

        let c = Categorical::from_counts(&[10, 30, 60]).unwrap();
        assert!((c.prob(2) - 0.6).abs() < 1e-12);
        assert!(Categorical::from_counts(&[0, 0]).is_err());
    }

    #[test]
    fn uniform_and_point_mass() {
        let u = Categorical::uniform(4).unwrap();
        assert_eq!(u.num_categories(), 4);
        assert!((u.prob(0) - 0.25).abs() < 1e-12);
        assert!(Categorical::uniform(0).is_err());

        let p = point_mass(3, 1);
        assert_eq!(p.mode(), 1);
        assert_eq!(p.max_prob(), 1.0);
    }

    #[test]
    fn prob_out_of_range_is_zero() {
        let d = Categorical::uniform(3).unwrap();
        assert_eq!(d.prob(10), 0.0);
    }

    #[test]
    fn mode_and_max_prob() {
        let d = Categorical::new(vec![0.2, 0.5, 0.3]).unwrap();
        assert_eq!(d.mode(), 1);
        assert!((d.max_prob() - 0.5).abs() < 1e-12);
        // Tie goes to the smallest index.
        let t = Categorical::new(vec![0.4, 0.4, 0.2]).unwrap();
        assert_eq!(t.mode(), 0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let d = Categorical::new(vec![0.1, 0.2, 0.7]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples = d.sample_many(&mut rng, n);
        let mut counts = [0usize; 3];
        for s in samples {
            counts[s] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - d.prob(i)).abs() < 0.01,
                "category {i}: freq {freq} vs prob {}",
                d.prob(i)
            );
        }
    }

    #[test]
    fn sampling_point_mass_is_constant() {
        let d = point_mass(5, 3);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(d.sample_many(&mut rng, 100).iter().all(|&s| s == 3));
    }

    #[test]
    fn sampling_handles_zero_probability_categories() {
        let d = Categorical::new(vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.sample_many(&mut rng, 100).iter().all(|&s| s == 1));
    }

    #[test]
    fn approx_eq_compares_supports() {
        let a = Categorical::uniform(3).unwrap();
        let b = Categorical::new(vec![0.3334, 0.3333, 0.3333]).unwrap();
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-6));
        assert!(!a.approx_eq(&Categorical::uniform(4).unwrap(), 1.0));
    }

    #[test]
    fn tiny_negative_probabilities_are_clamped() {
        let d = Categorical::new(vec![1.0 + 1e-12, -1e-12]).unwrap();
        assert!(d.prob(1) >= 0.0);
        assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
