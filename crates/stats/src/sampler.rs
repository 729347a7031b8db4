//! Random-variate samplers implemented from scratch on top of the base
//! uniform RNG provided by `rand`.
//!
//! The offline dependency set does not include `rand_distr`, so the
//! non-uniform samplers the workload generators need (normal via Box–Muller,
//! gamma via Marsaglia–Tsang) are implemented here and validated against
//! their analytic moments in the tests, beside the Zipf law's rank
//! probabilities.

use crate::continuous::{Gamma, Normal};
use crate::error::{Result, StatsError};
use rand::Rng;

/// A source of i.i.d. draws from a continuous distribution.
pub trait Sampler {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `count` values.
    fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<f64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

impl Sampler for Normal {
    /// Box–Muller transform. One of the two generated variates is discarded
    /// for simplicity; the workloads here are small enough that the extra
    /// uniform draw is irrelevant.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u1: f64 = rng.gen();
            let u2: f64 = rng.gen();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            let z = r * theta.cos();
            return self.mu + self.sigma * z;
        }
    }
}

impl Sampler for Gamma {
    /// Marsaglia–Tsang "squeeze" method for shape >= 1; for shape < 1 the
    /// standard boost `Gamma(alpha+1) * U^{1/alpha}` is applied.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let alpha = self.alpha;
        if alpha < 1.0 {
            // Boost: draw from Gamma(alpha + 1) and scale by U^{1/alpha}.
            let boosted = Gamma {
                alpha: alpha + 1.0,
                beta: self.beta,
            };
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            return boosted.sample(rng) * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let std_normal = Normal::standard();
        loop {
            let x = std_normal.sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            // Squeeze check followed by the full acceptance check.
            if u < 1.0 - 0.0331 * x * x * x * x || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * self.beta;
            }
        }
    }
}

/// Zipf (discrete power-law) distribution over ranks `0..n` with exponent
/// `s`: `P(rank k) ∝ 1 / (k+1)^s`. Used as an additional skewed workload in
/// the extended experiments and by the mining examples.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: usize,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Result<Self> {
        if n == 0 {
            return Err(StatsError::InvalidParameter {
                name: "n",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        if !(s >= 0.0) || !s.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "s",
                value: s,
                constraint: "must be finite and non-negative",
            });
        }
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Self { n, cdf })
    }

    /// Probability of rank `k`.
    pub fn prob(&self, k: usize) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_sampler_matches_moments() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let samples = d.sample_many(&mut rng, 100_000);
        let (mean, var) = moments(&samples);
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gamma_sampler_matches_moments_paper_parameters() {
        // The paper's Figure 5(a) uses alpha = 1.0, beta = 2.0.
        let d = Gamma::new(1.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let samples = d.sample_many(&mut rng, 100_000);
        let (mean, var) = moments(&samples);
        assert!((mean - d.mean()).abs() < 0.06, "mean {mean}");
        assert!((var - d.variance()).abs() < 0.3, "var {var}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_sampler_large_shape() {
        let d = Gamma::new(7.5, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let samples = d.sample_many(&mut rng, 100_000);
        let (mean, var) = moments(&samples);
        assert!((mean - d.mean()).abs() < 0.1, "mean {mean}");
        assert!((var - d.variance()).abs() < 0.3, "var {var}");
    }

    #[test]
    fn gamma_sampler_shape_below_one() {
        let d = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(16);
        let samples = d.sample_many(&mut rng, 200_000);
        let (mean, var) = moments(&samples);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((var - 0.5).abs() < 0.1, "var {var}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn zipf_validation() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
        assert!(Zipf::new(5, 1.0).is_ok());
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let z = Zipf::new(10, 1.2).unwrap();
        let total: f64 = (0..10).map(|k| z.prob(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..10 {
            assert!(z.prob(k) <= z.prob(k - 1) + 1e-12);
        }
        assert_eq!(z.prob(10), 0.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.prob(k) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn samplers_are_deterministic_given_a_seed() {
        let d = Normal::standard();
        let a = d.sample_many(&mut StdRng::seed_from_u64(99), 10);
        let b = d.sample_many(&mut StdRng::seed_from_u64(99), 10);
        assert_eq!(a, b);
    }
}
