//! Posterior probabilities `P(X | Y)` and the worst-case privacy bound
//! `max_Y P(X̂_Y | Y) ≤ δ` (Equation 9 of the paper).
//!
//! For a disguised value `Y = c_i`, Bayes' rule gives
//!
//! ```text
//! P(X = c_j | Y = c_i) = θ_{i,j} P(X = c_j) / Σ_l θ_{i,l} P(X = c_l)
//! ```
//!
//! The matrix of those posteriors drives both the privacy metric (the MAP
//! estimate picks the largest entry of each row) and the δ-bound repair
//! step of the optimizer. Theorem 5 shows the bound can never be pushed
//! below `max_X P(X)`, the largest prior probability.

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use linalg::Matrix;
use stats::Categorical;

/// The posterior row `P(X = · | Y = c_i)` for one row `θ_{i,·}` of an RR
/// matrix, computed on the fly without allocating. Entry `j` is
/// `θ_{i,j} P(X = c_j) / P(Y = c_i)`, with the evidence
/// `P(Y = c_i) = Σ_l θ_{i,l} P(X = c_l)` summed in ascending `l`. A row
/// whose evidence is not positive (an unreachable disguised value) is all
/// zeros.
///
/// This is the one posterior kernel: [`posterior_matrix`],
/// [`max_posterior_of`] and the privacy analysis all read their entries
/// from it.
pub(crate) fn posterior_row<'a>(
    theta_row: &'a [f64],
    prior: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    let mut p_y = 0.0;
    for (&t, &p) in theta_row.iter().zip(prior) {
        p_y += t * p;
    }
    let unreachable = p_y <= 0.0;
    theta_row
        .iter()
        .zip(prior)
        .map(move |(&t, &p)| if unreachable { 0.0 } else { t * p / p_y })
}

/// The number of categories `n` of `m`, or a dimension error when `prior`
/// does not have one probability per category.
pub(crate) fn checked_order(m: &RrMatrix, prior: &Categorical) -> Result<usize> {
    let n = m.num_categories();
    if prior.num_categories() != n {
        return Err(RrError::DimensionMismatch {
            matrix: n,
            data: prior.num_categories(),
        });
    }
    Ok(n)
}

/// Computes the posterior matrix `Q` with `Q[(i, j)] = P(X = c_j | Y = c_i)`.
///
/// Rows correspond to observed (disguised) values, columns to original
/// values; each row sums to one unless the observed value has zero
/// probability under the prior and matrix (in which case the row is all
/// zeros).
pub fn posterior_matrix(m: &RrMatrix, prior: &Categorical) -> Result<Matrix> {
    let n = checked_order(m, prior)?;
    let mut q = Matrix::zeros(n, n);
    let rows = m.as_matrix().as_slice().chunks_exact(n);
    for (theta_row, q_row) in rows.zip(q.as_mut_slice().chunks_exact_mut(n)) {
        for (out, v) in q_row
            .iter_mut()
            .zip(posterior_row(theta_row, prior.probs()))
        {
            *out = v;
        }
    }
    Ok(q)
}

/// The largest posterior probability over all observed values and original
/// values: `max_{Y, X} P(X | Y)`. This is the quantity the paper bounds by
/// `δ` (Equation 9).
pub fn max_posterior(m: &RrMatrix, prior: &Categorical) -> Result<f64> {
    checked_order(m, prior)?;
    Ok(max_posterior_of(m.as_matrix(), prior))
}

/// [`max_posterior`] of a raw column-stochastic square matrix `theta`,
/// without building `Q`: the fold `max |Q[(i, j)]|` in row-major order.
/// For callers that hold a validated scratch buffer rather than an
/// [`RrMatrix`]. The caller guarantees `prior` has one probability per row
/// of `theta`.
pub fn max_posterior_of(theta: &Matrix, prior: &Categorical) -> f64 {
    debug_assert_eq!(theta.rows(), prior.num_categories());
    let mut max = 0.0_f64;
    for theta_row in theta.as_slice().chunks_exact(theta.rows()) {
        for q in posterior_row(theta_row, prior.probs()) {
            max = max.max(q.abs());
        }
    }
    max
}

/// Whether the RR matrix satisfies the worst-case bound
/// `max P(X | Y) ≤ δ` for the given prior (within `tol`).
pub fn satisfies_delta_bound(
    m: &RrMatrix,
    prior: &Categorical,
    delta: f64,
    tol: f64,
) -> Result<bool> {
    if !(0.0 < delta && delta <= 1.0) {
        return Err(RrError::InvalidParameter {
            name: "delta",
            value: delta,
            constraint: "must be in (0, 1]",
        });
    }
    Ok(max_posterior(m, prior)? <= delta + tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::warner;

    fn prior() -> Categorical {
        Categorical::new(vec![0.5, 0.3, 0.2]).unwrap()
    }

    #[test]
    fn posterior_rows_sum_to_one() {
        let m = warner(3, 0.7).unwrap();
        let q = posterior_matrix(&m, &prior()).unwrap();
        for i in 0..3 {
            let s: f64 = (0..3).map(|j| q[(i, j)]).sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn posterior_matches_hand_computation() {
        // Warner p=0.7 on 3 categories, prior (0.5, 0.3, 0.2).
        // P(Y=c0) = 0.7*0.5 + 0.15*0.3 + 0.15*0.2 = 0.425
        // P(X=c0 | Y=c0) = 0.7*0.5 / 0.425
        let m = warner(3, 0.7).unwrap();
        let q = posterior_matrix(&m, &prior()).unwrap();
        assert!((q[(0, 0)] - 0.35 / 0.425).abs() < 1e-12);
        assert!((q[(0, 1)] - 0.045 / 0.425).abs() < 1e-12);
        assert!((q[(0, 2)] - 0.03 / 0.425).abs() < 1e-12);
    }

    #[test]
    fn identity_matrix_has_certain_posteriors() {
        let m = RrMatrix::identity(3).unwrap();
        let q = posterior_matrix(&m, &prior()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((q[(i, j)] - expected).abs() < 1e-12);
            }
        }
        assert!((max_posterior(&m, &prior()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_matrix_posterior_equals_prior() {
        // With all information destroyed the posterior is just the prior,
        // so max posterior equals max prior (the Theorem 5 lower bound).
        let m = RrMatrix::uniform(3).unwrap();
        let p = prior();
        let q = posterior_matrix(&m, &p).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((q[(i, j)] - p.prob(j)).abs() < 1e-12);
            }
        }
        assert!((max_posterior(&m, &p).unwrap() - p.max_prob()).abs() < 1e-12);
    }

    #[test]
    fn theorem5_max_posterior_at_least_max_prior() {
        // For a spread of Warner parameters the maximum posterior never
        // drops below the maximum prior probability.
        let p = Categorical::new(vec![0.6, 0.25, 0.1, 0.05]).unwrap();
        for k in 0..=20 {
            let param = k as f64 / 20.0;
            let m = warner(4, param).unwrap();
            let mp = max_posterior(&m, &p).unwrap();
            assert!(
                mp >= p.max_prob() - 1e-9,
                "p={param}: max posterior {mp} < max prior {}",
                p.max_prob()
            );
        }
    }

    #[test]
    fn zero_probability_disguised_values_yield_zero_rows() {
        // A prior concentrated on category 0 and an identity matrix: the
        // disguised values 1 and 2 are unreachable.
        let m = RrMatrix::identity(3).unwrap();
        let p = Categorical::new(vec![1.0, 0.0, 0.0]).unwrap();
        let q = posterior_matrix(&m, &p).unwrap();
        for j in 0..3 {
            assert_eq!(q[(1, j)], 0.0);
            assert_eq!(q[(2, j)], 0.0);
        }
    }

    #[test]
    fn delta_bound_checks() {
        let p = prior();
        let strong_disguise = warner(3, 0.45).unwrap();
        let weak_disguise = warner(3, 0.95).unwrap();
        assert!(satisfies_delta_bound(&strong_disguise, &p, 0.8, 1e-9).unwrap());
        assert!(!satisfies_delta_bound(&weak_disguise, &p, 0.8, 1e-9).unwrap());
        // Invalid delta values rejected.
        assert!(satisfies_delta_bound(&weak_disguise, &p, 0.0, 1e-9).is_err());
        assert!(satisfies_delta_bound(&weak_disguise, &p, 1.5, 1e-9).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let m = warner(3, 0.7).unwrap();
        let wrong = Categorical::uniform(4).unwrap();
        assert!(matches!(
            posterior_matrix(&m, &wrong),
            Err(RrError::DimensionMismatch { .. })
        ));
    }

    /// The posterior construction `posterior_matrix` ran before the row
    /// kernel, and `max_posterior` as the `max_abs` of its result. Kept as
    /// the bitwise oracle.
    fn posterior_matrix_by_index(m: &RrMatrix, prior: &Categorical) -> Matrix {
        let n = m.num_categories();
        let mut q = Matrix::zeros(n, n);
        for i in 0..n {
            let mut p_y = 0.0;
            for l in 0..n {
                p_y += m.theta(i, l) * prior.prob(l);
            }
            if p_y <= 0.0 {
                continue;
            }
            for j in 0..n {
                q[(i, j)] = m.theta(i, j) * prior.prob(j) / p_y;
            }
        }
        q
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn posterior_kernel_is_bitwise_indexed_posterior(
            raw in (2usize..=16).prop_flat_map(|n| proptest::collection::vec(0.0f64..1.0, n)),
            seed in 0u64..u64::MAX,
            zeros in 0usize..4,
        ) {
            // Priors with up to three zero entries; random matrices, with
            // the identity now and then so unreachable rows occur.
            let n = raw.len();
            let mut weights = raw;
            for k in 0..zeros.min(n - 1) {
                weights[(seed as usize + 3 * k) % n] = 0.0;
            }
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let total: f64 = weights.iter().sum();
            let prior = Categorical::new(weights.iter().map(|w| w / total).collect()).unwrap();
            let m = if seed % 4 == 0 {
                RrMatrix::identity(n).unwrap()
            } else {
                RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap()
            };
            let oracle = posterior_matrix_by_index(&m, &prior);
            let q = posterior_matrix(&m, &prior).unwrap();
            for (a, b) in q.as_slice().iter().zip(oracle.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(
                max_posterior(&m, &prior).unwrap().to_bits(),
                oracle.max_abs().to_bits()
            );
        }
    }

    use crate::matrix::RrMatrix;
}
