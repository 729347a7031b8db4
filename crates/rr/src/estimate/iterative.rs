//! The iterative (EM-style) estimator of Equation (3).
//!
//! Starting from any strictly positive initial guess summing to one, each
//! iteration redistributes the observed disguised mass according to the
//! current posterior:
//!
//! ```text
//! P_{k+1}(X = c_j) = Σ_i  P*(Y = c_i) · θ_{i,j} P_k(X = c_j) / Σ_l θ_{i,l} P_k(X = c_l)
//! ```
//!
//! and the iteration stops when two consecutive estimates are close enough.
//! Unlike the inversion estimator this never needs `M⁻¹` (so it works for
//! singular matrices too) and always stays on the probability simplex, but
//! it has no closed-form error — which is exactly why the paper's optimizer
//! uses the inversion estimator during the search and only re-validates the
//! final Pareto set with this estimator (Figure 5(d)).

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use datagen::CategoricalDataset;
use serde::{Deserialize, Serialize};
use stats::Categorical;

/// Configuration of the iterative estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterativeConfig {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on the L1 distance between consecutive
    /// estimates.
    pub tolerance: f64,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        Self {
            max_iterations: 10_000,
            tolerance: 1e-10,
        }
    }
}

/// The outcome of an iterative estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterativeOutcome {
    /// The estimated original distribution.
    pub distribution: Categorical,
    /// Number of iterations performed.
    pub iterations: usize,
    /// L1 distance between the last two iterates (convergence residual).
    pub residual: f64,
}

/// Runs the iterative estimator on a disguised data set.
pub fn iterative_estimate(
    m: &RrMatrix,
    disguised: &CategoricalDataset,
    config: &IterativeConfig,
) -> Result<IterativeOutcome> {
    if disguised.num_categories() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: disguised.num_categories(),
        });
    }
    if disguised.is_empty() {
        return Err(RrError::EmptyData);
    }
    let p_star = disguised.empirical_distribution()?;
    iterative_estimate_from_frequencies(m, &p_star, config)
}

/// Runs the iterative estimator directly on the disguised distribution,
/// starting from the uniform distribution.
pub fn iterative_estimate_from_frequencies(
    m: &RrMatrix,
    p_star: &Categorical,
    config: &IterativeConfig,
) -> Result<IterativeOutcome> {
    let n = m.num_categories();
    iterative_estimate_with_start(m, p_star, &vec![1.0 / n as f64; n], config)
}

/// Uniform blend weight applied to warm-start probabilities. A zero entry
/// is absorbing under the EM update (it can never regain mass), and an
/// entry merely *close* to zero moves so slowly that the residual can
/// fall under the tolerance before the iterate escapes the degenerate
/// corner. Blending the start with the uniform distribution at a weight
/// several orders of magnitude above the default tolerance fixes both:
/// every category starts with enough mass to move at full speed.
pub const WARM_START_BLEND: f64 = 1e-4;

/// Prepares an estimated posterior for handoff as an *optimization
/// target* (or as any other downstream prior): blends it with the uniform
/// distribution at weight `blend`, so every category keeps at least
/// `blend / n` mass.
///
/// A projected inversion estimate can contain exact zeros (a drifted
/// stream concentrated on one category produces them routinely), and a
/// zero-probability category is degenerate as an optimization prior: the
/// closed-form MSE stops weighing that category's reconstruction error,
/// so the optimizer is free to garble it. The blend is the same remedy
/// [`WARM_START_BLEND`] applies to warm-started EM runs, exposed for the
/// serving layer's drift-driven re-optimization, where the refresh run
/// targets the estimated distribution instead of the registered prior.
/// `blend` is clamped to `[0, 1]`; 0 returns the posterior unchanged.
pub fn handoff_posterior(posterior: &Categorical, blend: f64) -> Categorical {
    let blend = blend.clamp(0.0, 1.0);
    let n = posterior.num_categories() as f64;
    let floored: Vec<f64> = posterior
        .probs()
        .iter()
        .map(|p| (1.0 - blend) * p + blend / n)
        .collect();
    Categorical::new(floored).expect("a blend of two distributions is a distribution")
}

/// Runs the iterative estimator warm-started from a previous posterior.
///
/// This is the incremental mode of the streaming pipeline: after new
/// batches arrive, re-estimating resumes from the last estimate instead of
/// restarting from uniform, which converges in a handful of iterations
/// when the new batches only perturb the disguised distribution slightly.
/// The log-likelihood the update climbs is concave, so warm and cold runs
/// reach the same fixed point (to within the configured tolerance) — the
/// start only changes how far there is to travel.
pub fn iterative_estimate_warm(
    m: &RrMatrix,
    p_star: &Categorical,
    start: &Categorical,
    config: &IterativeConfig,
) -> Result<IterativeOutcome> {
    if start.num_categories() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: start.num_categories(),
        });
    }
    let n = start.num_categories() as f64;
    let start: Vec<f64> = start
        .probs()
        .iter()
        .map(|p| (1.0 - WARM_START_BLEND) * p + WARM_START_BLEND / n)
        .collect();
    iterative_estimate_with_start(m, p_star, &start, config)
}

/// The shared EM loop behind the cold and warm entry points.
fn iterative_estimate_with_start(
    m: &RrMatrix,
    p_star: &Categorical,
    start: &[f64],
    config: &IterativeConfig,
) -> Result<IterativeOutcome> {
    if p_star.num_categories() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: p_star.num_categories(),
        });
    }
    if config.max_iterations == 0 {
        return Err(RrError::InvalidParameter {
            name: "max_iterations",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if !(config.tolerance > 0.0) {
        return Err(RrError::InvalidParameter {
            name: "tolerance",
            value: config.tolerance,
            constraint: "must be positive",
        });
    }

    let n = m.num_categories();
    let mut current = start.to_vec();
    let mut residual = f64::INFINITY;

    for iteration in 1..=config.max_iterations {
        // Denominators: (M P_k)_i = Σ_l θ_{i,l} P_k(l).
        let mut denom = vec![0.0_f64; n];
        for (i, d) in denom.iter_mut().enumerate() {
            for (l, cl) in current.iter().enumerate() {
                *d += m.theta(i, l) * cl;
            }
        }
        // Update each category j.
        let mut next = vec![0.0_f64; n];
        for (j, slot) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in 0..n {
                if denom[i] > 0.0 {
                    acc += p_star.prob(i) * (m.theta(i, j) * current[j]) / denom[i];
                }
            }
            *slot = acc;
        }
        // Normalize to protect against accumulated round-off.
        let total: f64 = next.iter().sum();
        if total > 0.0 {
            for v in &mut next {
                *v /= total;
            }
        }
        residual = current
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        current = next;
        if residual <= config.tolerance {
            return Ok(IterativeOutcome {
                distribution: Categorical::new(current)?,
                iterations: iteration,
                residual,
            });
        }
    }
    // The update is a contraction for reasonable matrices; failing to reach
    // the tolerance is still useful information, so report it as an error
    // the caller can downgrade if it wants the last iterate.
    Err(RrError::NoConvergence {
        iterations: config.max_iterations,
    })
    .map_err(|e| {
        // Preserve residual information in debug logs if ever needed.
        let _ = residual;
        e
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::disguise_dataset;
    use crate::estimate::inversion::estimate_distribution;
    use crate::schemes::{uniform_perturbation, warner};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stats::divergence::total_variation;

    /// A point mass on category `i` of `n`.
    fn point_mass(n: usize, i: usize) -> Categorical {
        let mut probs = vec![0.0; n];
        probs[i] = 1.0;
        Categorical::new(probs).unwrap()
    }

    fn sample_dataset(p: &Categorical, n: usize, seed: u64) -> CategoricalDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        CategoricalDataset::new(p.num_categories(), p.sample_many(&mut rng, n)).unwrap()
    }

    #[test]
    fn recovers_distribution_with_analytic_frequencies() {
        let m = warner(4, 0.7).unwrap();
        let p = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let p_star = m.disguised_distribution(&p).unwrap();
        let out =
            iterative_estimate_from_frequencies(&m, &p_star, &IterativeConfig::default()).unwrap();
        assert!(
            out.distribution.approx_eq(&p, 1e-6),
            "estimate {:?}",
            out.distribution
        );
        assert!(out.iterations > 0);
        assert!(out.residual <= 1e-10);
    }

    #[test]
    fn agrees_with_inversion_estimator_on_sampled_data() {
        let m = uniform_perturbation(5, 0.6).unwrap();
        let p = Categorical::new(vec![0.35, 0.25, 0.2, 0.15, 0.05]).unwrap();
        let original = sample_dataset(&p, 50_000, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let disguised = disguise_dataset(&m, &original, &mut rng).unwrap().disguised;

        let inv = estimate_distribution(&m, &disguised).unwrap();
        let itr = iterative_estimate(&m, &disguised, &IterativeConfig::default()).unwrap();
        let d = total_variation(&inv.distribution, &itr.distribution).unwrap();
        assert!(d < 0.02, "inversion vs iterative distance {d}");
        // Both close to the truth.
        assert!(total_variation(&itr.distribution, &p).unwrap() < 0.03);
    }

    #[test]
    fn works_for_singular_matrices_where_inversion_fails() {
        // The uniform matrix is singular: inversion fails, the iterative
        // estimator still returns a (noninformative) distribution.
        let m = RrMatrix::uniform(4).unwrap();
        let p = Categorical::new(vec![0.7, 0.1, 0.1, 0.1]).unwrap();
        let data = sample_dataset(&p, 5_000, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let disguised = disguise_dataset(&m, &data, &mut rng).unwrap().disguised;
        assert!(estimate_distribution(&m, &disguised).is_err());
        let itr = iterative_estimate(&m, &disguised, &IterativeConfig::default()).unwrap();
        // With all information destroyed, the fixed point is the uniform start.
        assert!(itr
            .distribution
            .approx_eq(&Categorical::uniform(4).unwrap(), 1e-6));
    }

    #[test]
    fn identity_matrix_converges_immediately_to_empirical() {
        let m = RrMatrix::identity(3).unwrap();
        let data = CategoricalDataset::new(3, vec![0, 0, 1, 1, 1, 2]).unwrap();
        let out = iterative_estimate(&m, &data, &IterativeConfig::default()).unwrap();
        let emp = data.empirical_distribution().unwrap();
        assert!(out.distribution.approx_eq(&emp, 1e-9));
    }

    #[test]
    fn validation_errors() {
        let m = warner(3, 0.8).unwrap();
        let wrong = CategoricalDataset::new(4, vec![0, 1]).unwrap();
        assert!(matches!(
            iterative_estimate(&m, &wrong, &IterativeConfig::default()),
            Err(RrError::DimensionMismatch { .. })
        ));
        let empty = CategoricalDataset::new(3, vec![]).unwrap();
        assert!(matches!(
            iterative_estimate(&m, &empty, &IterativeConfig::default()),
            Err(RrError::EmptyData)
        ));
        let data = CategoricalDataset::new(3, vec![0, 1, 2]).unwrap();
        assert!(iterative_estimate(
            &m,
            &data,
            &IterativeConfig {
                max_iterations: 0,
                tolerance: 1e-9
            }
        )
        .is_err());
        assert!(iterative_estimate(
            &m,
            &data,
            &IterativeConfig {
                max_iterations: 10,
                tolerance: 0.0
            }
        )
        .is_err());
    }

    #[test]
    fn warm_start_resumes_and_agrees_with_the_cold_run() {
        let m = uniform_perturbation(5, 0.55).unwrap();
        let p = Categorical::new(vec![0.35, 0.25, 0.2, 0.15, 0.05]).unwrap();
        let p_star = m.disguised_distribution(&p).unwrap();
        let config = IterativeConfig::default();
        let cold = iterative_estimate_from_frequencies(&m, &p_star, &config).unwrap();
        // Resuming from the converged posterior is a handful of iterations,
        // strictly fewer than the cold run, and lands on the same answer.
        let warm = iterative_estimate_warm(&m, &p_star, &cold.distribution, &config).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.distribution.approx_eq(&cold.distribution, 1e-8));
        assert!(warm.residual <= config.tolerance);
    }

    #[test]
    fn warm_start_tolerates_zero_probability_entries() {
        // A projected inversion estimate can contain exact zeros; a zero is
        // absorbing under the EM update, so the warm path must floor it.
        let m = warner(4, 0.7).unwrap();
        let p = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let p_star = m.disguised_distribution(&p).unwrap();
        let degenerate = point_mass(4, 0);
        let out =
            iterative_estimate_warm(&m, &p_star, &degenerate, &IterativeConfig::default()).unwrap();
        assert!(
            out.distribution.approx_eq(&p, 1e-6),
            "estimate {:?}",
            out.distribution
        );
    }

    #[test]
    fn handoff_posterior_floors_zeros_and_preserves_the_simplex() {
        let degenerate = point_mass(4, 2);
        let target = handoff_posterior(&degenerate, 1e-3);
        assert!((target.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (i, &p) in target.probs().iter().enumerate() {
            assert!(p >= 1e-3 / 4.0, "category {i} lost its floor: {p}");
        }
        assert!(
            target.prob(2) > 0.99,
            "the mass stays where the estimate put it"
        );
        // blend 0 is the identity; out-of-range blends are clamped.
        let p = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        assert!(handoff_posterior(&p, 0.0).approx_eq(&p, 1e-12));
        assert!(handoff_posterior(&p, 7.0).approx_eq(&Categorical::uniform(4).unwrap(), 1e-12));
        assert!(handoff_posterior(&p, -3.0).approx_eq(&p, 1e-12));
    }

    #[test]
    fn warm_start_validates_dimensions() {
        let m = warner(3, 0.8).unwrap();
        let p_star = Categorical::uniform(3).unwrap();
        let wrong = Categorical::uniform(4).unwrap();
        assert!(matches!(
            iterative_estimate_warm(&m, &p_star, &wrong, &IterativeConfig::default()),
            Err(RrError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reports_no_convergence_when_budget_is_tiny() {
        let m = warner(6, 0.55).unwrap();
        let p = Categorical::new(vec![0.3, 0.25, 0.2, 0.1, 0.1, 0.05]).unwrap();
        let p_star = m.disguised_distribution(&p).unwrap();
        let result = iterative_estimate_from_frequencies(
            &m,
            &p_star,
            &IterativeConfig {
                max_iterations: 1,
                tolerance: 1e-14,
            },
        );
        assert!(matches!(
            result,
            Err(RrError::NoConvergence { iterations: 1 })
        ));
    }
}
