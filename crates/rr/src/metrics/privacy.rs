//! The privacy metric (Section IV.A of the paper).
//!
//! Privacy quantifies how well an adversary can recover individual records
//! from their disguised values. Theorems 3 and 4 show the best the
//! adversary can do — with the 0/1 accuracy function of Equation (6) — is
//! the MAP estimate `X̂_Y = argmax_X P(X | Y)`, whether or not the adversary
//! is allowed to be inconsistent. The expected accuracy of that estimate is
//!
//! ```text
//! A = Σ_Y P(Y | X̂_Y) · P(X̂_Y)
//! ```
//!
//! and privacy is defined as `1 − A` (Equation 8). This module also exposes
//! an empirical adversary simulation used to validate the closed form.

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use crate::metrics::bounds::{checked_order, posterior_matrix, posterior_row};
use serde::{Deserialize, Serialize};
use stats::Categorical;

/// The full privacy analysis of an RR matrix against a prior distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyAnalysis {
    /// The MAP estimate `X̂_Y` for each observed value `Y` (index = observed
    /// category, value = estimated original category).
    pub map_estimates: Vec<usize>,
    /// The expected adversary accuracy `A` of Equation (8)'s derivation.
    pub adversary_accuracy: f64,
    /// Privacy `= 1 − A`.
    pub privacy: f64,
    /// The worst-case posterior `max_Y P(X̂_Y | Y)` that the δ bound of
    /// Equation (9) constrains.
    pub max_posterior: f64,
}

/// Computes the MAP estimate `X̂_Y` for every observed value `Y`.
pub fn map_estimates(m: &RrMatrix, prior: &Categorical) -> Result<Vec<usize>> {
    let q = posterior_matrix(m, prior)?;
    let n = m.num_categories();
    let mut estimates = Vec::with_capacity(n);
    for i in 0..n {
        let row = q.row(i).map_err(RrError::from)?;
        estimates.push(row.argmax().unwrap_or(0));
    }
    Ok(estimates)
}

/// Computes privacy `= 1 − A`.
pub fn privacy(m: &RrMatrix, prior: &Categorical) -> Result<f64> {
    Ok(score(m, prior)?.privacy)
}

/// Computes the full privacy analysis in one pass.
pub fn analyze(m: &RrMatrix, prior: &Categorical) -> Result<PrivacyAnalysis> {
    let mut estimates = Vec::with_capacity(m.num_categories());
    let (accuracy, max_posterior) = map_pass(m, prior, |x_hat| estimates.push(x_hat))?;
    Ok(PrivacyAnalysis {
        map_estimates: estimates,
        adversary_accuracy: accuracy,
        privacy: 1.0 - accuracy,
        max_posterior,
    })
}

/// Privacy and the worst-case posterior, the two numbers of
/// [`analyze`] the optimizer's evaluation reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyScore {
    /// Privacy `= 1 − A`, as in [`PrivacyAnalysis::privacy`].
    pub privacy: f64,
    /// `max_Y P(X̂_Y | Y)`, as in [`PrivacyAnalysis::max_posterior`].
    pub max_posterior: f64,
}

/// [`analyze`] without the per-value MAP estimates, so it allocates
/// nothing: the same pass, the same bits and the same errors.
pub fn score(m: &RrMatrix, prior: &Categorical) -> Result<PrivacyScore> {
    let (accuracy, max_posterior) = map_pass(m, prior, |_| {})?;
    Ok(PrivacyScore {
        privacy: 1.0 - accuracy,
        max_posterior,
    })
}

/// The one MAP pass: hands each observed value's estimate `X̂_Y` to
/// `on_estimate`, in observed-value order, and returns the adversary
/// accuracy `A` and the worst-case posterior.
fn map_pass(
    m: &RrMatrix,
    prior: &Categorical,
    mut on_estimate: impl FnMut(usize),
) -> Result<(f64, f64)> {
    let n = checked_order(m, prior)?;
    let mut accuracy = 0.0;
    let mut max_post: f64 = 0.0;

    for (i, theta_row) in m.as_matrix().as_slice().chunks_exact(n).enumerate() {
        // MAP estimate for observed value Y = c_i: the first largest entry
        // of its posterior row, read straight from the row kernel.
        let mut posteriors = posterior_row(theta_row, prior.probs()).enumerate();
        let (mut x_hat, mut best) = posteriors.next().expect("n >= 2 categories");
        for (j, q) in posteriors {
            if q > best {
                x_hat = j;
                best = q;
            }
        }
        on_estimate(x_hat);
        max_post = max_post.max(best);
        // A contribution: P(Y = c_i | X = x_hat) * P(X = x_hat)
        //              = θ_{i, x_hat} * P(x_hat)
        // which equals P(x_hat | Y = c_i) * P(Y = c_i) by Bayes' rule.
        accuracy += m.theta(i, x_hat) * prior.prob(x_hat);
    }
    Ok((accuracy, max_post))
}

/// Simulates the MAP adversary on actual paired (original, disguised)
/// records and returns the empirical accuracy — used by tests and the
/// experiment harness to validate the closed-form `A`.
pub fn empirical_adversary_accuracy(
    m: &RrMatrix,
    prior: &Categorical,
    pairs: &[(usize, usize)],
) -> Result<f64> {
    if pairs.is_empty() {
        return Err(RrError::EmptyData);
    }
    let estimates = map_estimates(m, prior)?;
    let n = m.num_categories();
    let mut correct = 0usize;
    for &(original, disguised) in pairs {
        if original >= n || disguised >= n {
            return Err(RrError::DimensionMismatch {
                matrix: n,
                data: original.max(disguised) + 1,
            });
        }
        if estimates[disguised] == original {
            correct += 1;
        }
    }
    Ok(correct as f64 / pairs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::disguise_paired;
    use crate::schemes::{uniform_perturbation, warner};
    use datagen::CategoricalDataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prior() -> Categorical {
        Categorical::new(vec![0.5, 0.3, 0.2]).unwrap()
    }

    #[test]
    fn identity_matrix_has_zero_privacy() {
        // M1 from the paper: no disguise, adversary always right.
        let m = RrMatrix::identity(3).unwrap();
        let a = analyze(&m, &prior()).unwrap();
        assert!((a.adversary_accuracy - 1.0).abs() < 1e-12);
        assert!(a.privacy.abs() < 1e-12);
        assert_eq!(a.map_estimates, vec![0, 1, 2]);
        assert!((a.max_posterior - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_matrix_has_maximal_privacy_for_the_prior() {
        // M2 from the paper: all information destroyed. The adversary's
        // best move is to always guess the mode of the prior, so accuracy
        // equals max_X P(X) and privacy equals 1 - max_X P(X).
        let m = RrMatrix::uniform(3).unwrap();
        let p = prior();
        let a = analyze(&m, &p).unwrap();
        assert!((a.adversary_accuracy - p.max_prob()).abs() < 1e-12);
        assert!((a.privacy - (1.0 - p.max_prob())).abs() < 1e-12);
        assert!(a.map_estimates.iter().all(|&e| e == p.mode()));
    }

    #[test]
    fn privacy_decreases_as_retention_grows() {
        let p = prior();
        let mut last = f64::INFINITY;
        for &param in &[0.34, 0.5, 0.7, 0.9, 1.0] {
            let m = warner(3, param).unwrap();
            let priv_val = privacy(&m, &p).unwrap();
            assert!(
                priv_val <= last + 1e-12,
                "privacy should not increase with p: {priv_val} after {last}"
            );
            last = priv_val;
        }
    }

    #[test]
    fn privacy_is_within_bounds() {
        let p = Categorical::new(vec![0.4, 0.25, 0.2, 0.1, 0.05]).unwrap();
        for k in 1..=10 {
            let m = warner(5, 0.2 + 0.08 * k as f64).unwrap();
            let a = analyze(&m, &p).unwrap();
            assert!(a.privacy >= -1e-12);
            // Privacy can never exceed 1 - max prior (Theorem 5 corollary).
            assert!(a.privacy <= 1.0 - p.max_prob() + 1e-9);
            assert!(a.adversary_accuracy >= p.max_prob() - 1e-9);
            assert!(a.adversary_accuracy <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn hand_computed_accuracy_for_warner() {
        // Warner p=0.7, prior (0.5, 0.3, 0.2). Posterior argmax for every
        // observed value is category 0? Check: for Y=c1, numerators are
        // 0.15*0.5=0.075 (X=0), 0.7*0.3=0.21 (X=1), 0.15*0.2=0.03 -> MAP=1.
        // For Y=c2: 0.075, 0.045, 0.14 -> MAP=2. For Y=c0: 0.35, .045, .03 -> 0.
        // A = θ_{0,0} P(0) + θ_{1,1} P(1) + θ_{2,2} P(2) = 0.7*(0.5+0.3+0.2) = 0.7
        let m = warner(3, 0.7).unwrap();
        let a = analyze(&m, &prior()).unwrap();
        assert_eq!(a.map_estimates, vec![0, 1, 2]);
        assert!((a.adversary_accuracy - 0.7).abs() < 1e-12);
        assert!((a.privacy - 0.3).abs() < 1e-12);
    }

    #[test]
    fn skewed_prior_pulls_map_estimates_to_the_mode() {
        // With a strongly skewed prior and heavy disguise, the MAP estimate
        // ignores the observation and always answers the mode.
        let p = Categorical::new(vec![0.9, 0.05, 0.05]).unwrap();
        let m = warner(3, 0.4).unwrap();
        let a = analyze(&m, &p).unwrap();
        assert!(a.map_estimates.iter().all(|&e| e == 0));
        // Accuracy is then P(Y | X=0 chosen) summed = Σ_Y θ_{Y,0} * 0.9 = 0.9.
        assert!((a.adversary_accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn closed_form_accuracy_matches_simulation() {
        let p = Categorical::new(vec![0.45, 0.3, 0.15, 0.1]).unwrap();
        let m = uniform_perturbation(4, 0.5).unwrap();
        // Draw originals from the prior, disguise them, run the MAP attacker.
        let mut rng = StdRng::seed_from_u64(31);
        let originals = CategoricalDataset::new(4, p.sample_many(&mut rng, 100_000)).unwrap();
        let pairs = disguise_paired(&m, &originals, &mut rng).unwrap();
        let empirical = empirical_adversary_accuracy(&m, &p, &pairs).unwrap();
        let closed = analyze(&m, &p).unwrap().adversary_accuracy;
        assert!(
            (empirical - closed).abs() < 0.01,
            "empirical {empirical} vs closed-form {closed}"
        );
    }

    #[test]
    fn validation_errors() {
        let m = warner(3, 0.8).unwrap();
        assert!(matches!(
            analyze(&m, &Categorical::uniform(4).unwrap()),
            Err(RrError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            empirical_adversary_accuracy(&m, &prior(), &[]),
            Err(RrError::EmptyData)
        ));
        assert!(empirical_adversary_accuracy(&m, &prior(), &[(0, 7)]).is_err());
    }

    /// The loop `analyze` ran before it read the row kernel directly: a
    /// full posterior matrix, one `Vector` and `argmax` per row. Kept as
    /// the bitwise oracle.
    fn analyze_by_rows(m: &RrMatrix, prior: &Categorical) -> PrivacyAnalysis {
        let q = posterior_matrix(m, prior).unwrap();
        let mut estimates = Vec::new();
        let mut accuracy = 0.0;
        let mut max_post: f64 = 0.0;
        for i in 0..m.num_categories() {
            let row = q.row(i).unwrap();
            let x_hat = row.argmax().unwrap_or(0);
            estimates.push(x_hat);
            max_post = max_post.max(row[x_hat]);
            accuracy += m.theta(i, x_hat) * prior.prob(x_hat);
        }
        PrivacyAnalysis {
            map_estimates: estimates,
            adversary_accuracy: accuracy,
            privacy: 1.0 - accuracy,
            max_posterior: max_post,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn analyze_is_bitwise_row_analysis_and_max_posterior(
            raw in (2usize..=16).prop_flat_map(|n| proptest::collection::vec(0.0f64..1.0, n)),
            seed in 0u64..u64::MAX,
            zeros in 0usize..4,
        ) {
            // Priors with up to three zero entries; random and Warner
            // matrices, and the identity, whose rows for zero-prior
            // categories are unreachable.
            let n = raw.len();
            let mut weights = raw;
            for k in 0..zeros.min(n - 1) {
                weights[(seed as usize + 5 * k) % n] = 0.0;
            }
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let total: f64 = weights.iter().sum();
            let prior = Categorical::new(weights.iter().map(|w| w / total).collect()).unwrap();
            let m = match seed % 3 {
                0 => RrMatrix::identity(n).unwrap(),
                1 => warner(n, (seed >> 8) as f64 / (1u64 << 56) as f64).unwrap(),
                _ => RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap(),
            };
            let got = analyze(&m, &prior).unwrap();
            let oracle = analyze_by_rows(&m, &prior);
            prop_assert_eq!(&got.map_estimates, &oracle.map_estimates);
            prop_assert_eq!(got.adversary_accuracy.to_bits(), oracle.adversary_accuracy.to_bits());
            prop_assert_eq!(got.privacy.to_bits(), oracle.privacy.to_bits());
            prop_assert_eq!(got.max_posterior.to_bits(), oracle.max_posterior.to_bits());
            let max_post = crate::metrics::bounds::max_posterior(&m, &prior).unwrap();
            prop_assert_eq!(got.max_posterior.to_bits(), max_post.to_bits());
            let score = score(&m, &prior).unwrap();
            prop_assert_eq!(score.privacy.to_bits(), oracle.privacy.to_bits());
            prop_assert_eq!(score.max_posterior.to_bits(), oracle.max_posterior.to_bits());
        }
    }

    use crate::matrix::RrMatrix;
}
