//! The utility metric (Section IV.B of the paper).
//!
//! Utility quantifies how accurately the original distribution can be
//! reconstructed from the disguised data. The paper uses the mean squared
//! error of the (unbiased) inversion estimator, which Theorem 6 expresses
//! in closed form from the entries `β_{k,i}` of `M⁻¹` and the multinomial
//! variance/covariance of the disguised-category frequencies:
//!
//! ```text
//! MSE(X = c_k) = Σ_i β_{k,i}² Var(N_i/N)
//!              + Σ_{i≠j} 2 β_{k,i} β_{k,j} Cov(N_i/N, N_j/N)
//! ```
//!
//! and overall utility is the per-category average (Equation 10). Because
//! utility is an error, **lower is better** throughout the workspace.
//!
//! The closed form runs once per candidate matrix in the optimizer, so it
//! is written for speed without moving a bit. The covariance table and `βᵀ`
//! are built once, and the `n` per-category sums advance in lockstep over
//! `i`. Each sum is its own dependency chain: it still adds exactly the
//! terms of the textbook triple loop, each associated as
//! `(β_{k,i}·β_{k,j})·Cov_{i,j}`, in the same order. Only the interleaving
//! *across* the independent sums changes, and floating-point addition into
//! one accumulator does not see the others, so every result is
//! bit-identical to the per-category loop while the `n` chains overlap.

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use serde::{Deserialize, Serialize};
use stats::multinomial::frequency_covariance;
use stats::Categorical;

/// Per-category and averaged closed-form MSE of the inversion estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilityAnalysis {
    /// `MSE(X = c_k)` for every category `k` (Theorem 6).
    pub per_category: Vec<f64>,
    /// The average MSE over categories (Equation 10); lower is better.
    pub mean: f64,
}

/// Computes the closed-form per-category MSE of Theorem 6 for a data set of
/// `n_records` records whose original distribution is `original`.
pub fn theoretical_mse_per_category(
    m: &RrMatrix,
    original: &Categorical,
    n_records: u64,
) -> Result<Vec<f64>> {
    let n = m.num_categories();
    if original.num_categories() != n {
        return Err(RrError::DimensionMismatch {
            matrix: n,
            data: original.num_categories(),
        });
    }
    if n_records == 0 {
        return Err(RrError::EmptyData);
    }
    // β = M⁻¹ (fails for singular matrices, as the paper requires).
    let beta = m.inverse()?;
    // The disguised distribution P(Y) = M P(X) feeds the multinomial moments.
    let disguised = m.disguised_distribution(original)?;

    // The n×n table of Cov(N_i/N, N_j/N), with Var(N_i/N) on the
    // diagonal: n² divisions, once.
    let mut cov = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            cov.push(frequency_covariance(&disguised, i, j, n_records)?);
        }
    }
    // Row i of βᵀ is column i of β: β_{k,i} for every k, contiguous.
    let beta_t = beta.transpose();
    let beta_cols = || beta_t.as_slice().chunks_exact(n);

    // All n sums accumulate in lockstep over i. Each sum k still adds
    // (β_{k,i}·β_{k,i})·Var_i and then (β_{k,i}·β_{k,j})·Cov_{i,j} for
    // ascending j ≠ i, for ascending i: the term order of the per-k loop.
    let mut per_category = vec![0.0; n];
    for (i, (b_i, cov_i)) in beta_cols().zip(cov.chunks_exact(n)).enumerate() {
        let var_i = cov_i[i];
        for (mse, &b_ki) in per_category.iter_mut().zip(b_i) {
            *mse += b_ki * b_ki * var_i;
        }
        for (j, (b_j, &cov_ij)) in beta_cols().zip(cov_i).enumerate() {
            if j == i {
                continue;
            }
            for ((mse, &b_ki), &b_kj) in per_category.iter_mut().zip(b_i).zip(b_j) {
                *mse += b_ki * b_kj * cov_ij;
            }
        }
    }
    for mse in &mut per_category {
        *mse = mse.max(0.0);
    }
    Ok(per_category)
}

/// Computes the full utility analysis (per-category MSE plus the average of
/// Equation 10).
pub fn theoretical_mse(
    m: &RrMatrix,
    original: &Categorical,
    n_records: u64,
) -> Result<UtilityAnalysis> {
    let per_category = theoretical_mse_per_category(m, original, n_records)?;
    let mean = per_category.iter().sum::<f64>() / per_category.len() as f64;
    Ok(UtilityAnalysis { per_category, mean })
}

/// The utility value used by the optimizer: the average closed-form MSE
/// (lower is better).
pub fn utility(m: &RrMatrix, original: &Categorical, n_records: u64) -> Result<f64> {
    Ok(theoretical_mse(m, original, n_records)?.mean)
}

/// Empirically measures the average MSE of an arbitrary estimator by Monte
/// Carlo: repeatedly samples an original data set from `original`, disguises
/// it with `m`, runs `estimator` on the disguised counts, and averages the
/// squared reconstruction error per category.
///
/// This is how Figure 5(d) re-scores the optimal set under the iterative
/// estimator, and how the tests validate Theorem 6's closed form against
/// simulation (using the inversion estimator).
pub fn empirical_mse<R, F>(
    m: &RrMatrix,
    original: &Categorical,
    n_records: u64,
    trials: usize,
    rng: &mut R,
    mut estimator: F,
) -> Result<f64>
where
    R: rand::Rng + ?Sized,
    F: FnMut(&RrMatrix, &[u64]) -> Result<Vec<f64>>,
{
    if trials == 0 {
        return Err(RrError::InvalidParameter {
            name: "trials",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if n_records == 0 {
        return Err(RrError::EmptyData);
    }
    let n = m.num_categories();
    if original.num_categories() != n {
        return Err(RrError::DimensionMismatch {
            matrix: n,
            data: original.num_categories(),
        });
    }
    // Pre-build the per-category randomization distributions once.
    let columns: Vec<Categorical> = (0..n)
        .map(|i| m.randomization_distribution(i))
        .collect::<Result<_>>()?;

    let mut total_sq_err = 0.0;
    for _ in 0..trials {
        // Draw an original data set and disguise it record by record.
        let mut disguised_counts = vec![0u64; n];
        for _ in 0..n_records {
            let x = original.sample(rng);
            let y = columns[x].sample(rng);
            disguised_counts[y] += 1;
        }
        let estimate = estimator(m, &disguised_counts)?;
        if estimate.len() != n {
            return Err(RrError::DimensionMismatch {
                matrix: n,
                data: estimate.len(),
            });
        }
        for k in 0..n {
            let err = estimate[k] - original.prob(k);
            total_sq_err += err * err;
        }
    }
    Ok(total_sq_err / (trials as f64 * n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::inversion::estimate_from_counts;
    use crate::schemes::warner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn original() -> Categorical {
        Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap()
    }

    #[test]
    fn identity_matrix_mse_is_pure_sampling_error() {
        // With the identity matrix, β = I and the MSE of category k is just
        // Var(N_k / N) = P(k)(1-P(k))/N.
        let m = RrMatrix::identity(4).unwrap();
        let p = original();
        let n_records = 1_000u64;
        let analysis = theoretical_mse(&m, &p, n_records).unwrap();
        for k in 0..4 {
            let expected = p.prob(k) * (1.0 - p.prob(k)) / n_records as f64;
            assert!(
                (analysis.per_category[k] - expected).abs() < 1e-15,
                "category {k}"
            );
        }
        let expected_mean: f64 = (0..4)
            .map(|k| p.prob(k) * (1.0 - p.prob(k)) / n_records as f64)
            .sum::<f64>()
            / 4.0;
        assert!((analysis.mean - expected_mean).abs() < 1e-15);
    }

    #[test]
    fn mse_grows_as_disguise_strengthens() {
        // Heavier disguise (p closer to 1/n) means a worse-conditioned M and
        // a larger reconstruction error.
        let p = original();
        let mut last = 0.0;
        for &param in &[1.0, 0.9, 0.7, 0.5, 0.35] {
            let m = warner(4, param).unwrap();
            let u = utility(&m, &p, 10_000).unwrap();
            assert!(
                u >= last - 1e-15,
                "utility (MSE) should grow as p decreases: {u} after {last}"
            );
            last = u;
        }
    }

    #[test]
    fn mse_shrinks_linearly_with_record_count() {
        let m = warner(4, 0.7).unwrap();
        let p = original();
        let mse_small = utility(&m, &p, 1_000).unwrap();
        let mse_large = utility(&m, &p, 10_000).unwrap();
        assert!((mse_small / mse_large - 10.0).abs() < 1e-6);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let m = RrMatrix::uniform(4).unwrap();
        assert!(matches!(
            utility(&m, &original(), 1_000),
            Err(RrError::SingularMatrix)
        ));
    }

    #[test]
    fn validation_errors() {
        let m = warner(4, 0.8).unwrap();
        assert!(matches!(
            utility(&m, &Categorical::uniform(3).unwrap(), 100),
            Err(RrError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            utility(&m, &original(), 0),
            Err(RrError::EmptyData)
        ));
    }

    #[test]
    fn closed_form_matches_monte_carlo_for_inversion_estimator() {
        // Theorem 6 validation: the analytic MSE agrees with simulation.
        let m = warner(4, 0.65).unwrap();
        let p = original();
        let n_records = 2_000u64;
        let closed = utility(&m, &p, n_records).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let simulated = empirical_mse(&m, &p, n_records, 800, &mut rng, |m, counts| {
            Ok(estimate_from_counts(m, counts)?.raw)
        })
        .unwrap();
        let rel = (simulated - closed).abs() / closed;
        assert!(
            rel < 0.15,
            "closed-form {closed} vs simulated {simulated} (rel err {rel})"
        );
    }

    #[test]
    fn empirical_mse_validation() {
        let m = warner(3, 0.8).unwrap();
        let p = Categorical::uniform(3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(empirical_mse(&m, &p, 100, 0, &mut rng, |_, _| Ok(vec![0.0; 3])).is_err());
        assert!(empirical_mse(&m, &p, 0, 10, &mut rng, |_, _| Ok(vec![0.0; 3])).is_err());
        assert!(empirical_mse(
            &m,
            &Categorical::uniform(4).unwrap(),
            100,
            10,
            &mut rng,
            |_, _| Ok(vec![0.0; 4])
        )
        .is_err());
        // Estimator returning the wrong length is rejected.
        assert!(empirical_mse(&m, &p, 100, 2, &mut rng, |_, _| Ok(vec![0.0; 2])).is_err());
    }

    #[test]
    fn per_category_mse_is_nonnegative() {
        let p = Categorical::new(vec![0.55, 0.25, 0.1, 0.06, 0.04]).unwrap();
        for &param in &[0.3, 0.5, 0.75, 0.95] {
            let m = warner(5, param).unwrap();
            let analysis = theoretical_mse(&m, &p, 5_000).unwrap();
            assert!(analysis.per_category.iter().all(|&v| v >= 0.0));
            assert!(analysis.mean >= 0.0);
            assert_eq!(analysis.per_category.len(), 5);
        }
    }

    /// The per-category triple loop Theorem 6 ran before the lockstep
    /// form, one `frequency_variance`/`frequency_covariance` call per term.
    /// Kept as the bitwise oracle.
    fn theoretical_mse_by_category(
        m: &RrMatrix,
        original: &Categorical,
        n_records: u64,
    ) -> Vec<f64> {
        use stats::multinomial::frequency_variance;
        let n = m.num_categories();
        let beta = m.inverse().unwrap();
        let disguised = m.disguised_distribution(original).unwrap();
        let mut per_category = Vec::with_capacity(n);
        for k in 0..n {
            let mut mse = 0.0;
            for i in 0..n {
                let b_ki = beta[(k, i)];
                mse += b_ki * b_ki * frequency_variance(&disguised, i, n_records).unwrap();
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let b_kj = beta[(k, j)];
                    mse += b_ki * b_kj * frequency_covariance(&disguised, i, j, n_records).unwrap();
                }
            }
            per_category.push(mse.max(0.0));
        }
        per_category
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lockstep_theorem6_is_bitwise_triple_loop(
            raw in (2usize..=16).prop_flat_map(|n| proptest::collection::vec(0.01f64..1.0, n)),
            seed in 0u64..u64::MAX,
            n_records in 1u64..1_000_000,
        ) {
            let n = raw.len();
            let total: f64 = raw.iter().sum();
            let prior = Categorical::new(raw.iter().map(|w| w / total).collect()).unwrap();
            let m = if seed % 2 == 0 {
                warner(n, 0.05 + 0.95 * (seed >> 8) as f64 / (1u64 << 56) as f64).unwrap()
            } else {
                RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap()
            };
            prop_assume!(m.inverse().is_ok());
            let got = theoretical_mse_per_category(&m, &prior, n_records).unwrap();
            let oracle = theoretical_mse_by_category(&m, &prior, n_records);
            prop_assert_eq!(got.len(), oracle.len());
            for (a, b) in got.iter().zip(&oracle) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    use crate::matrix::RrMatrix;
}
