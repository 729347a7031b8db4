//! Continuous probability distributions (density, CDF, moments) used as
//! *sources* for the synthetic categorical workloads of the paper's
//! evaluation (Section VI): normal and gamma.
//!
//! Samplers live in [`crate::sampler`]; this module holds the analytic side
//! (pdf / cdf / quantile helpers) so that discretization can be done either
//! from analytic mass (exact bin probabilities) or from samples.

use crate::error::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// A continuous distribution with a density and a CDF.
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Mean of the distribution.
    fn mean(&self) -> f64;
    /// Variance of the distribution.
    fn variance(&self) -> f64;
    /// A range `[lo, hi]` containing essentially all probability mass
    /// (used as the default discretization window).
    fn support_window(&self) -> (f64, f64);
}

/// Normal (Gaussian) distribution `N(mu, sigma^2)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    /// Mean.
    pub mu: f64,
    /// Standard deviation (must be positive).
    pub sigma: f64,
}

impl Normal {
    /// Creates a normal distribution, validating `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !(sigma > 0.0) || !sigma.is_finite() || !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                constraint: "must be finite and positive",
            });
        }
        Ok(Self { mu, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mu: 0.0,
            sigma: 1.0,
        }
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26), accurate to
/// about 1.5e-7 — ample for building discretized workloads.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

impl ContinuousDistribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        0.5 * (1.0 + erf((x - self.mu) / (self.sigma * std::f64::consts::SQRT_2)))
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn support_window(&self) -> (f64, f64) {
        (self.mu - 4.0 * self.sigma, self.mu + 4.0 * self.sigma)
    }
}

/// Gamma distribution with shape `alpha` and scale `beta`
/// (mean `alpha * beta`), matching the parameterization used in the paper's
/// Figure 5(a) (`alpha = 1.0`, `beta = 2.0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    /// Shape parameter (must be positive).
    pub alpha: f64,
    /// Scale parameter (must be positive).
    pub beta: f64,
}

impl Gamma {
    /// Creates a gamma distribution, validating both parameters.
    pub fn new(alpha: f64, beta: f64) -> Result<Self> {
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and positive",
            });
        }
        if !(beta > 0.0) || !beta.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "beta",
                value: beta,
                constraint: "must be finite and positive",
            });
        }
        Ok(Self { alpha, beta })
    }
}

/// Natural log of the gamma function via the Lanczos approximation.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`, via the series
/// expansion for `x < a + 1` and the continued fraction otherwise.
pub fn regularized_lower_gamma(a: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
    } else {
        // Continued fraction for the upper function, then complement.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let upper = (a * x.ln() - x - ln_gamma(a)).exp() * h;
        1.0 - upper
    }
}

impl ContinuousDistribution for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Density at 0 for alpha < 1 diverges; for alpha == 1 it is 1/beta.
            return if self.alpha < 1.0 {
                f64::INFINITY
            } else if self.alpha == 1.0 {
                1.0 / self.beta
            } else {
                0.0
            };
        }
        let a = self.alpha;
        let b = self.beta;
        ((a - 1.0) * x.ln() - x / b - ln_gamma(a) - a * b.ln()).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            regularized_lower_gamma(self.alpha, x / self.beta).clamp(0.0, 1.0)
        }
    }

    fn mean(&self) -> f64 {
        self.alpha * self.beta
    }

    fn variance(&self) -> f64 {
        self.alpha * self.beta * self.beta
    }

    fn support_window(&self) -> (f64, f64) {
        (0.0, self.mean() + 6.0 * self.variance().sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn normal_validation() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 1.0).is_ok());
    }

    #[test]
    fn standard_normal_moments_and_pdf() {
        let n = Normal::standard();
        assert_eq!(n.mean(), 0.0);
        assert_eq!(n.variance(), 1.0);
        assert_close(n.pdf(0.0), 0.398942, 1e-5);
        assert_close(n.cdf(0.0), 0.5, 1e-7);
        assert_close(n.cdf(1.96), 0.975, 1e-3);
        assert_close(n.cdf(-1.96), 0.025, 1e-3);
        let (lo, hi) = n.support_window();
        assert!(lo < -3.9 && hi > 3.9);
    }

    #[test]
    fn erf_reference_values() {
        assert_close(erf(0.0), 0.0, 1e-8);
        assert_close(erf(1.0), 0.842700, 2e-6);
        assert_close(erf(-1.0), -0.842700, 2e-6);
        assert_close(erf(2.0), 0.995322, 2e-6);
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Gamma(1) = 1, Gamma(2) = 1, Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
        assert_close(ln_gamma(1.0), 0.0, 1e-10);
        assert_close(ln_gamma(2.0), 0.0, 1e-10);
        assert_close(ln_gamma(5.0), 24.0f64.ln(), 1e-9);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-9);
    }

    #[test]
    fn gamma_validation_and_moments() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        let g = Gamma::new(1.0, 2.0).unwrap();
        assert_eq!(g.mean(), 2.0);
        assert_eq!(g.variance(), 4.0);
    }

    #[test]
    fn gamma_alpha_one_matches_exponential() {
        // Gamma(alpha=1, beta) is Exponential(rate = 1/beta).
        let g = Gamma::new(1.0, 2.0).unwrap();
        for &x in &[0.1f64, 0.5, 1.0, 2.0, 5.0] {
            assert_close(g.pdf(x), 0.5 * (-0.5 * x).exp(), 1e-9);
            assert_close(g.cdf(x), 1.0 - (-0.5 * x).exp(), 1e-9);
        }
        assert_close(g.pdf(0.0), 0.5, 1e-12);
    }

    #[test]
    fn gamma_cdf_reference_values() {
        // For Gamma(shape=2, scale=1): CDF(x) = 1 - e^{-x}(1+x).
        let g = Gamma::new(2.0, 1.0).unwrap();
        for &x in &[0.5f64, 1.0, 2.0, 4.0] {
            let expected = 1.0 - (-x).exp() * (1.0 + x);
            assert_close(g.cdf(x), expected, 1e-8);
        }
        assert_eq!(g.cdf(-1.0), 0.0);
        assert_eq!(g.cdf(0.0), 0.0);
        assert_eq!(g.pdf(-1.0), 0.0);
        assert_eq!(g.pdf(0.0), 0.0);
    }

    #[test]
    fn gamma_pdf_alpha_below_one_diverges_at_zero() {
        let g = Gamma::new(0.5, 1.0).unwrap();
        assert!(g.pdf(0.0).is_infinite());
    }

    #[test]
    fn gamma_cdf_is_monotone_and_bounded() {
        let g = Gamma::new(3.0, 1.5).unwrap();
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.3;
            let c = g.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        // Essentially all mass inside the support window.
        let (_, hi) = g.support_window();
        assert!(g.cdf(hi) > 0.995);
    }

    #[test]
    fn regularized_lower_gamma_edge_cases() {
        assert_eq!(regularized_lower_gamma(2.0, 0.0), 0.0);
        assert_eq!(regularized_lower_gamma(2.0, -1.0), 0.0);
        // P(1, x) = 1 - e^-x.
        assert_close(
            regularized_lower_gamma(1.0, 1.0),
            1.0 - (-1.0f64).exp(),
            1e-10,
        );
        // Large x saturates to 1.
        assert_close(regularized_lower_gamma(2.0, 100.0), 1.0, 1e-9);
    }
}
