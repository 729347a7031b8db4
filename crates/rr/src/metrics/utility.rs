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
//! is written for speed without moving a bit. [`Theorem6`] is a reusable
//! workspace: the LU factors, `β = M⁻¹`, `βᵀ`, `q = M p`, the covariance
//! table and the sums live in buffers it keeps, so an evaluation
//! allocates nothing once the workspace has seen the matrix order. `β`
//! and `βᵀ` rows are padded to whole blocks of [`linalg::LANES`]
//! categories, and the sums run one block of categories at a time, each
//! block's `LANES` sums held in a register array over the whole `(i, j)`
//! sweep instead of going through memory on every term.
//!
//! Why the bits cannot move: each category's sum still adds exactly the
//! terms of the textbook triple loop, `(β_{k,i}·β_{k,i})·Var_i` then
//! `(β_{k,i}·β_{k,j})·Cov_{i,j}` for ascending `j ≠ i`, for ascending `i`,
//! into its own accumulator. Lanes never read each other, so only the
//! interleaving across independent sums changes. `β` comes from the same
//! factorization and substitution order as [`RrMatrix::inverse`], and `q`
//! from the same product, projection and normalization as
//! [`RrMatrix::disguised_distribution`]. The allocating [`utility`] is a
//! thin wrapper over a fresh workspace.

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use linalg::{lane_block, padded_width, LuDecomposition, LANES};
use stats::multinomial::frequency_covariance_into;
use stats::Categorical;

/// A reusable, allocation-free evaluator of Theorem 6: every buffer the
/// closed form needs, kept between calls. One workspace serves matrices
/// of any order; it grows its buffers to the largest order it has seen.
#[derive(Debug, Clone, Default)]
pub struct Theorem6 {
    /// The LU factors of `M`.
    lu: LuDecomposition,
    /// `β = M⁻¹`, `n` rows padded to [`padded_width`]`(n)`.
    beta: Vec<f64>,
    /// `βᵀ`: row `i` holds `β_{k,i}` for every category `k`, padded alike.
    beta_t: Vec<f64>,
    /// The disguised distribution `q = M p`.
    disguised: Vec<f64>,
    /// `Cov(N_i/N, N_j/N)`, `n × n`, variances on the diagonal.
    cov: Vec<f64>,
    /// `MSE(X = c_k)`, padded alike.
    per_category: Vec<f64>,
}

impl Theorem6 {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the closed-form per-category MSE of Theorem 6 for a data
    /// set of `n_records` records whose original distribution is
    /// `original`, and borrows it from the workspace.
    ///
    /// Fails like the allocating functions do: a dimension mismatch, zero
    /// records, a singular or non-finite `M`, or a disguised distribution
    /// `Categorical::new` would reject, checked in that order.
    pub fn per_category(
        &mut self,
        m: &RrMatrix,
        original: &Categorical,
        n_records: u64,
    ) -> Result<&[f64]> {
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
        self.lu.factor(m.as_matrix())?;
        let stride = padded_width(n);
        self.beta.resize(n * stride, 0.0);
        self.lu.inverse_into(&mut self.beta);
        // The disguised distribution P(Y) = M P(X) feeds the multinomial
        // moments: the n×n table of Cov(N_i/N, N_j/N), built once.
        m.disguised_probs_into(original, &mut self.disguised)?;
        frequency_covariance_into(&self.disguised, n_records, &mut self.cov)?;
        // Row i of βᵀ is column i of β: β_{k,i} for every k, contiguous,
        // the padding lanes zero.
        self.beta_t.clear();
        self.beta_t.resize(n * stride, 0.0);
        for (i, row) in self.beta_t.chunks_exact_mut(stride).enumerate() {
            for (b, beta_row) in row.iter_mut().zip(self.beta.chunks_exact(stride)) {
                *b = beta_row[i];
            }
        }

        // One block of LANES categories at a time, over every (i, j):
        // sum k adds (β_{k,i}·β_{k,i})·Var_i and then
        // (β_{k,i}·β_{k,j})·Cov_{i,j} for ascending j ≠ i, for ascending i,
        // the term order of the per-k loop.
        self.per_category.resize(stride, 0.0);
        let (beta_t, cov) = (&self.beta_t, &self.cov);
        for block in (0..stride).step_by(LANES) {
            let mut acc = [0.0; LANES];
            for (i, cov_i) in cov.chunks_exact(n).enumerate() {
                let b = |j: usize| lane_block(beta_t, j * stride + block);
                let b_i = b(i);
                add_lanes(&mut acc, b_i, b_i, cov_i[i]);
                for (j, &cov_ij) in cov_i[..i].iter().enumerate() {
                    add_lanes(&mut acc, b_i, b(j), cov_ij);
                }
                for (j, &cov_ij) in cov_i.iter().enumerate().skip(i + 1) {
                    add_lanes(&mut acc, b_i, b(j), cov_ij);
                }
            }
            self.per_category[block..block + LANES].copy_from_slice(&acc);
        }
        let per_category = &mut self.per_category[..n];
        for mse in per_category.iter_mut() {
            *mse = mse.max(0.0);
        }
        Ok(per_category)
    }

    /// The average of [`per_category`](Self::per_category) (Equation 10):
    /// the utility value the optimizer minimizes.
    pub fn mean(&mut self, m: &RrMatrix, original: &Categorical, n_records: u64) -> Result<f64> {
        Ok(mean_of(self.per_category(m, original, n_records)?))
    }
}

/// One Theorem 6 term per lane: `acc_k += (β_{k,i}·β_{k,j})·c`.
#[inline(always)]
fn add_lanes(acc: &mut [f64; LANES], b_i: &[f64; LANES], b_j: &[f64; LANES], c: f64) {
    for ((a, &b_ki), &b_kj) in acc.iter_mut().zip(b_i).zip(b_j) {
        *a += b_ki * b_kj * c;
    }
}

/// The average of Equation 10, summed in category order.
fn mean_of(per_category: &[f64]) -> f64 {
    per_category.iter().sum::<f64>() / per_category.len() as f64
}

/// The utility value used by the optimizer: the average closed-form MSE
/// (lower is better), through a fresh [`Theorem6`] workspace. Callers that
/// evaluate many matrices keep one workspace instead.
pub fn utility(m: &RrMatrix, original: &Categorical, n_records: u64) -> Result<f64> {
    Theorem6::new().mean(m, original, n_records)
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
        let per_category = Theorem6::new()
            .per_category(&m, &p, n_records)
            .unwrap()
            .to_vec();
        for k in 0..4 {
            let expected = p.prob(k) * (1.0 - p.prob(k)) / n_records as f64;
            assert!((per_category[k] - expected).abs() < 1e-15, "category {k}");
        }
        let expected_mean: f64 = (0..4)
            .map(|k| p.prob(k) * (1.0 - p.prob(k)) / n_records as f64)
            .sum::<f64>()
            / 4.0;
        assert!((utility(&m, &p, n_records).unwrap() - expected_mean).abs() < 1e-15);
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
            let per_category = Theorem6::new()
                .per_category(&m, &p, 5_000)
                .unwrap()
                .to_vec();
            assert!(per_category.iter().all(|&v| v >= 0.0));
            assert!(utility(&m, &p, 5_000).unwrap() >= 0.0);
            assert_eq!(per_category.len(), 5);
        }
    }

    /// The per-category triple loop Theorem 6 ran before the blocked
    /// form, one `frequency_variance`/`frequency_covariance` call per term.
    /// Kept as the bitwise oracle.
    fn theoretical_mse_by_category(
        m: &RrMatrix,
        original: &Categorical,
        n_records: u64,
    ) -> Vec<f64> {
        use stats::multinomial::{frequency_covariance, frequency_variance};
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

    /// The error the allocating steps Theorem 6 used to chain return, in
    /// their order: the dimension and record checks, then `M⁻¹`, then the
    /// disguised distribution. `None` when they all succeed.
    fn oracle_error(m: &RrMatrix, original: &Categorical, n_records: u64) -> Option<RrError> {
        if original.num_categories() != m.num_categories() {
            return Some(RrError::DimensionMismatch {
                matrix: m.num_categories(),
                data: original.num_categories(),
            });
        }
        if n_records == 0 {
            return Some(RrError::EmptyData);
        }
        m.inverse()
            .err()
            .or_else(|| m.disguised_distribution(original).err())
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    use proptest::prelude::*;

    /// A prior over `n` categories from raw positive weights.
    fn prior_of(raw: &[f64]) -> Categorical {
        let total: f64 = raw.iter().sum();
        Categorical::new(raw.iter().map(|w| w / total).collect()).unwrap()
    }

    /// An RR matrix of order `n` drawn from `seed`: Warner, random, or
    /// (one time in eight) a singular one with two equal columns.
    fn matrix_of(n: usize, seed: u64) -> RrMatrix {
        match seed % 8 {
            0 => {
                let mut m = RrMatrix::random(n, &mut StdRng::seed_from_u64(seed))
                    .unwrap()
                    .as_matrix()
                    .clone();
                for i in 0..n {
                    m[(i, n - 1)] = m[(i, 0)];
                }
                RrMatrix::new(m).unwrap()
            }
            1 | 3 | 5 => warner(n, 0.05 + 0.95 * (seed >> 8) as f64 / (1u64 << 56) as f64).unwrap(),
            _ => RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap(),
        }
    }

    /// One problem: a matrix, a prior (of another order one time in
    /// eight), and a record count (zero one time in sixteen).
    fn problem() -> impl Strategy<Value = (RrMatrix, Categorical, u64)> {
        (2usize..=33).prop_flat_map(|n| {
            (
                proptest::collection::vec(0.01f64..1.0, n + 1),
                0u64..u64::MAX,
                1u64..1_000_000,
            )
                .prop_map(move |(raw, seed, n_records)| {
                    let m = matrix_of(n, seed);
                    let prior = if (seed >> 3) % 8 == 0 {
                        prior_of(&raw)
                    } else {
                        prior_of(&raw[..n])
                    };
                    let n_records = if (seed >> 6) % 16 == 0 { 0 } else { n_records };
                    (m, prior, n_records)
                })
        })
    }

    proptest! {
        #[test]
        fn blocked_theorem6_is_bitwise_triple_loop(
            raw in (2usize..=33).prop_flat_map(|n| proptest::collection::vec(0.01f64..1.0, n)),
            seed in 0u64..u64::MAX,
            n_records in 1u64..1_000_000,
        ) {
            let n = raw.len();
            let prior = prior_of(&raw);
            let m = if seed % 2 == 0 {
                warner(n, 0.05 + 0.95 * (seed >> 8) as f64 / (1u64 << 56) as f64).unwrap()
            } else {
                RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap()
            };
            prop_assume!(m.inverse().is_ok());
            let got = Theorem6::new().per_category(&m, &prior, n_records).unwrap().to_vec();
            let oracle = theoretical_mse_by_category(&m, &prior, n_records);
            prop_assert_eq!(bits(&got), bits(&oracle));
            let mean = oracle.iter().sum::<f64>() / n as f64;
            prop_assert_eq!(utility(&m, &prior, n_records).unwrap().to_bits(), mean.to_bits());
        }

        #[test]
        fn reused_theorem6_workspace_is_bitwise_a_fresh_one(
            problems in proptest::collection::vec(problem(), 1..8),
        ) {
            let mut reused = Theorem6::new();
            for (m, prior, n_records) in &problems {
                let fresh = Theorem6::new()
                    .per_category(m, prior, *n_records)
                    .map(<[f64]>::to_vec);
                let again = reused.per_category(m, prior, *n_records).map(<[f64]>::to_vec);
                match (&fresh, &again) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(bits(a), bits(b)),
                    _ => prop_assert_eq!(&fresh, &again),
                }
            }
        }

        #[test]
        fn theorem6_errors_are_bitwise_the_allocating_steps_errors(
            (m, prior, n_records) in problem(),
        ) {
            let expected = oracle_error(&m, &prior, n_records);
            let got = Theorem6::new().per_category(&m, &prior, n_records).err();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(&utility(&m, &prior, n_records).err(), &expected);
            if expected.is_none() {
                let oracle = theoretical_mse_by_category(&m, &prior, n_records);
                let got = Theorem6::new().per_category(&m, &prior, n_records).unwrap().to_vec();
                prop_assert_eq!(bits(&got), bits(&oracle));
            }
        }
    }

    use crate::matrix::RrMatrix;
}
