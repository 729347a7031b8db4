//! The randomized-response (RR) matrix type.
//!
//! Section III of the paper: the RR technique replaces each original value
//! `c_i` with a value `c_j` with probability `θ_{j,i}`. Collecting those
//! probabilities gives the column-stochastic matrix `M` with
//! `M[j][i] = θ_{j,i} = P[output = c_j | input = c_i]`, and the disguised
//! distribution satisfies `P* = M · P` (Equation 1).

use crate::error::{Result, RrError};
use linalg::{invert, project_to_simplex_in_place, Matrix, Vector};
use rand::Rng;
use serde::{Deserialize, Serialize};
use stats::{normalize_probabilities, Categorical};

/// Tolerance used when validating column stochasticity.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-7;

/// A validated randomized-response matrix.
///
/// Invariants enforced at construction and preserved by every method:
/// * square, with `n >= 2` categories;
/// * every entry in `[0, 1]` (up to [`STOCHASTIC_TOLERANCE`]);
/// * every column sums to one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RrMatrix {
    inner: Matrix,
}

impl RrMatrix {
    /// Wraps a raw matrix after validating the RR-matrix invariants.
    pub fn new(matrix: Matrix) -> Result<Self> {
        if !matrix.is_square() {
            return Err(RrError::InvalidMatrix {
                reason: "matrix must be square",
            });
        }
        if matrix.rows() < 2 {
            return Err(RrError::InvalidMatrix {
                reason: "need at least two categories",
            });
        }
        let mut inner = matrix;
        renormalize_columns(&mut inner)?;
        Ok(Self { inner })
    }

    /// Builds an RR matrix from per-category columns (each column is the
    /// randomization distribution of one original category).
    pub fn from_columns(columns: &[Vector]) -> Result<Self> {
        let matrix = Matrix::from_columns(columns).map_err(RrError::from)?;
        Self::new(matrix)
    }

    /// The identity RR matrix: no disguise at all (the paper's `M1`
    /// example — best utility, worst privacy).
    pub fn identity(n: usize) -> Result<Self> {
        Self::new(Matrix::identity(n))
    }

    /// The uniform RR matrix with every entry `1/n` (the paper's `M2`
    /// example — perfect privacy, zero utility). Note this matrix is
    /// singular, so distribution reconstruction is impossible.
    pub fn uniform(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(RrError::InvalidMatrix {
                reason: "need at least two categories",
            });
        }
        Self::new(Matrix::filled(n, n, 1.0 / n as f64))
    }

    /// Number of categories `n`.
    pub fn num_categories(&self) -> usize {
        self.inner.rows()
    }

    /// `θ_{j,i} = P[output = c_j | input = c_i]`.
    pub fn theta(&self, output: usize, input: usize) -> f64 {
        self.inner[(output, input)]
    }

    /// Borrow the underlying matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.inner
    }

    /// The randomization distribution of original category `i`
    /// (column `i` of the matrix).
    pub fn randomization_distribution(&self, input: usize) -> Result<Categorical> {
        if input >= self.num_categories() {
            return Err(RrError::InvalidParameter {
                name: "input",
                value: input as f64,
                constraint: "must be < number of categories",
            });
        }
        let col = self.inner.column(input).map_err(RrError::from)?;
        Categorical::new(col.into_vec()).map_err(RrError::from)
    }

    /// Applies the matrix to an original distribution: `P* = M P`
    /// (Equation 1).
    pub fn disguised_distribution(&self, original: &Categorical) -> Result<Categorical> {
        let mut p_star = Vec::new();
        self.project_disguised_into(original, &mut p_star)?;
        Categorical::new(p_star).map_err(RrError::from)
    }

    /// The probabilities of [`disguised_distribution`](Self::disguised_distribution),
    /// written into `out` without allocating when it has room: the same
    /// product and projection, then the validation and normalization
    /// `Categorical::new` runs ([`stats::normalize_probabilities`]), so
    /// every bit and every error is the same.
    pub(crate) fn disguised_probs_into(
        &self,
        original: &Categorical,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.project_disguised_into(original, out)?;
        normalize_probabilities(out).map_err(RrError::from)
    }

    /// `M P` projected onto the simplex, into `out`.
    fn project_disguised_into(&self, original: &Categorical, out: &mut Vec<f64>) -> Result<()> {
        let n = self.num_categories();
        if original.num_categories() != n {
            return Err(RrError::DimensionMismatch {
                matrix: n,
                data: original.num_categories(),
            });
        }
        out.clear();
        out.resize(n, 0.0);
        self.inner
            .mul_vector_into(original.probs(), out)
            .map_err(RrError::from)?;
        project_to_simplex_in_place(out);
        Ok(())
    }

    /// The inverse matrix `M⁻¹` needed by Theorem 1 and Theorem 6, or
    /// [`RrError::SingularMatrix`] when the matrix is not invertible.
    pub fn inverse(&self) -> Result<Matrix> {
        invert(&self.inner).map_err(RrError::from)
    }

    /// Whether the matrix is invertible (determinant bounded away from
    /// zero), i.e. whether the inversion estimator applies.
    pub fn is_invertible(&self) -> bool {
        self.inverse().is_ok()
    }

    /// Whether the matrix is symmetric. The FRAPP work of Agrawal & Haritsa
    /// searches only symmetric matrices; OptRR searches both.
    pub fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric(STOCHASTIC_TOLERANCE)
    }

    /// Largest absolute difference with another RR matrix of the same size.
    pub fn max_abs_difference(&self, other: &RrMatrix) -> Result<f64> {
        if self.num_categories() != other.num_categories() {
            return Err(RrError::DimensionMismatch {
                matrix: self.num_categories(),
                data: other.num_categories(),
            });
        }
        let diff = self.inner.sub_matrix(&other.inner).map_err(RrError::from)?;
        Ok(diff.max_abs())
    }

    /// True when the two matrices agree entry-wise within `tol`.
    pub fn approx_eq(&self, other: &RrMatrix, tol: f64) -> bool {
        self.inner.approx_eq(&other.inner, tol)
    }

    /// Generates a random RR matrix by drawing each column uniformly from
    /// the probability simplex (via normalized exponential draws). Used to
    /// seed the evolutionary search's initial population.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<Self> {
        if n < 2 {
            return Err(RrError::InvalidMatrix {
                reason: "need at least two categories",
            });
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            // Exponential draws normalized to one give a uniform Dirichlet(1,...,1) sample.
            let draws: Vec<f64> = (0..n)
                .map(|_| {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    -u.ln()
                })
                .collect();
            let s: f64 = draws.iter().sum();
            columns.push(Vector::from_vec(draws.into_iter().map(|x| x / s).collect()));
        }
        Self::from_columns(&columns)
    }
}

/// Validates the entries of a square matrix the way [`RrMatrix::new`] does
/// (finite, at least `−`[`STOCHASTIC_TOLERANCE`], every column summing to
/// one within it), then renormalizes each column exactly in place: entries
/// are clipped at zero and divided by the clipped column's sum, taken in
/// row order. On error the matrix is left untouched.
///
/// This is the one renormalization kernel: [`RrMatrix::new`] runs it, and
/// so does any caller that re-validates a reused scratch buffer instead of
/// building a fresh [`RrMatrix`] (the optimizer's δ-bound repair).
pub fn renormalize_columns(matrix: &mut Matrix) -> Result<()> {
    if !matrix.is_finite() {
        return Err(RrError::InvalidMatrix {
            reason: "entries must be finite",
        });
    }
    if !matrix.is_column_stochastic(STOCHASTIC_TOLERANCE) {
        return Err(RrError::InvalidMatrix {
            reason: "columns must be non-negative and sum to one",
        });
    }
    let n = matrix.rows();
    let data = matrix.as_mut_slice();
    for j in 0..n {
        let s: f64 = data[j..].iter().step_by(n).map(|&x| x.max(0.0)).sum();
        for x in data[j..].iter_mut().step_by(n) {
            *x = x.max(0.0) / s;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An RR matrix from nested rows.
    fn from_rows(rows: &[Vec<f64>]) -> Result<RrMatrix> {
        RrMatrix::new(Matrix::from_rows(rows).unwrap())
    }

    fn warner3(p: f64) -> RrMatrix {
        let off = (1.0 - p) / 2.0;
        from_rows(&[vec![p, off, off], vec![off, p, off], vec![off, off, p]]).unwrap()
    }

    #[test]
    fn validation_rejects_malformed_matrices() {
        // Not square.
        assert!(RrMatrix::new(Matrix::zeros(2, 3)).is_err());
        // Too small.
        assert!(RrMatrix::new(Matrix::identity(1)).is_err());
        // Negative entry.
        assert!(from_rows(&[vec![1.1, 0.0], vec![-0.1, 1.0]]).is_err());
        // Columns not summing to one.
        assert!(from_rows(&[vec![0.5, 0.5], vec![0.4, 0.5]]).is_err());
        // Non-finite entries.
        let mut m = Matrix::identity(2);
        m[(0, 0)] = f64::NAN;
        assert!(RrMatrix::new(m).is_err());
        // A valid matrix passes.
        assert!(from_rows(&[vec![0.9, 0.2], vec![0.1, 0.8]]).is_ok());
    }

    #[test]
    fn construction_renormalizes_small_slack() {
        let m = from_rows(&[vec![0.7 + 1e-9, 0.3], vec![0.3, 0.7 - 1e-9]]).unwrap();
        for j in 0..2 {
            let col: f64 = (0..2).map(|i| m.theta(i, j)).sum();
            assert!((col - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_and_uniform_special_matrices() {
        let id = RrMatrix::identity(4).unwrap();
        assert_eq!(id.num_categories(), 4);
        assert_eq!(id.theta(2, 2), 1.0);
        assert_eq!(id.theta(0, 2), 0.0);
        assert!(id.is_invertible());
        assert!(id.is_symmetric());
        assert!(id.as_matrix().is_column_diagonally_dominant());

        let u = RrMatrix::uniform(4).unwrap();
        assert!((u.theta(1, 3) - 0.25).abs() < 1e-12);
        assert!(!u.is_invertible());
        assert!(u.is_symmetric());
        assert!(RrMatrix::uniform(1).is_err());
        assert!(RrMatrix::identity(1).is_err());
    }

    #[test]
    fn columns_are_randomization_distributions() {
        let m = warner3(0.8);
        let d = m.randomization_distribution(1).unwrap();
        assert!((d.prob(1) - 0.8).abs() < 1e-12);
        assert!((d.prob(0) - 0.1).abs() < 1e-12);
        assert!(m.randomization_distribution(5).is_err());
    }

    #[test]
    fn disguised_distribution_follows_equation_1() {
        let m = warner3(0.8);
        let p = Categorical::new(vec![0.6, 0.3, 0.1]).unwrap();
        let p_star = m.disguised_distribution(&p).unwrap();
        // P*(c0) = 0.8*0.6 + 0.1*0.3 + 0.1*0.1 = 0.52
        assert!((p_star.prob(0) - 0.52).abs() < 1e-12);
        assert!((p_star.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Mismatched dimensions rejected.
        assert!(m
            .disguised_distribution(&Categorical::uniform(4).unwrap())
            .is_err());
    }

    #[test]
    fn identity_matrix_leaves_distribution_unchanged() {
        let id = RrMatrix::identity(3).unwrap();
        let p = Categorical::new(vec![0.5, 0.2, 0.3]).unwrap();
        let p_star = id.disguised_distribution(&p).unwrap();
        assert!(p_star.approx_eq(&p, 1e-12));
    }

    #[test]
    fn uniform_matrix_maps_everything_to_uniform() {
        let u = RrMatrix::uniform(5).unwrap();
        let p = Categorical::new(vec![0.9, 0.05, 0.02, 0.02, 0.01]).unwrap();
        let p_star = u.disguised_distribution(&p).unwrap();
        assert!(p_star.approx_eq(&Categorical::uniform(5).unwrap(), 1e-12));
    }

    #[test]
    fn inverse_round_trip() {
        let m = warner3(0.75);
        let inv = m.inverse().unwrap();
        // M times column j of the inverse is e_j.
        for j in 0..3 {
            let column = m.as_matrix().mul_vector(&inv.column(j).unwrap()).unwrap();
            for (i, &x) in column.iter().enumerate() {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((x - expected).abs() <= 1e-10, "({i}, {j}): {x}");
            }
        }
        assert!(matches!(
            RrMatrix::uniform(3).unwrap().inverse(),
            Err(RrError::SingularMatrix)
        ));
    }

    #[test]
    fn symmetry_and_dominance_predicates() {
        let asym = from_rows(&[vec![0.9, 0.3], vec![0.1, 0.7]]).unwrap();
        assert!(!asym.is_symmetric());
        assert!(asym.as_matrix().is_column_diagonally_dominant());
        let off = from_rows(&[vec![0.2, 0.6], vec![0.8, 0.4]]).unwrap();
        assert!(!off.as_matrix().is_column_diagonally_dominant());
    }

    #[test]
    fn max_abs_difference_and_approx_eq() {
        let a = warner3(0.8);
        let b = warner3(0.7);
        let d = a.max_abs_difference(&b).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
        assert!(a.approx_eq(&warner3(0.8), 1e-12));
        assert!(!a.approx_eq(&b, 1e-3));
        assert!(a
            .max_abs_difference(&RrMatrix::identity(4).unwrap())
            .is_err());
    }

    #[test]
    fn random_matrices_are_valid_and_seeded() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = RrMatrix::random(6, &mut rng).unwrap();
        assert_eq!(m.num_categories(), 6);
        assert!(m.as_matrix().is_column_stochastic(1e-9));
        // Deterministic for a fixed seed.
        let again = RrMatrix::random(6, &mut StdRng::seed_from_u64(9)).unwrap();
        assert!(m.approx_eq(&again, 1e-15));
        assert!(RrMatrix::random(1, &mut rng).is_err());
    }

    /// The column renormalization `RrMatrix::new` ran before it went in
    /// place: three `Vec`s per column. Kept as the bitwise oracle.
    fn renormalize_columns_by_vec(matrix: &Matrix) -> Matrix {
        let mut inner = matrix.clone();
        for j in 0..inner.rows() {
            let col = inner.column(j).unwrap();
            let clipped: Vec<f64> = col.iter().map(|&x| x.max(0.0)).collect();
            let s: f64 = clipped.iter().sum();
            let normalized = Vector::from_vec(clipped.into_iter().map(|x| x / s).collect());
            inner.set_column(j, &normalized).unwrap();
        }
        inner
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn in_place_renormalization_is_bitwise_vec_renormalization(
            n in 2usize..=16,
            seed in 0u64..u64::MAX,
            slack in -2e-7f64..2e-7,
        ) {
            // A random stochastic matrix with one slightly negative entry
            // per column (its mass moved to the diagonal), then every entry
            // shifted by slack/n: column sums land on both sides of the
            // tolerance, and the negative entries get clipped.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut raw = RrMatrix::random(n, &mut rng).unwrap().as_matrix().clone();

            for j in 0..n {
                let k = (j + 1) % n;
                let negative = -0.5 * slack.abs();
                raw[(j, j)] += raw[(k, j)] - negative;
                raw[(k, j)] = negative;
            }
            for x in raw.as_mut_slice() {
                *x += slack / n as f64;
            }
            let mut got = raw.clone();
            let accepted = renormalize_columns(&mut got).is_ok();
            prop_assert_eq!(accepted, raw.is_finite() && raw.is_column_stochastic(STOCHASTIC_TOLERANCE));
            if accepted {
                let oracle = renormalize_columns_by_vec(&raw);
                for (a, b) in got.as_slice().iter().zip(oracle.as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                let renormalized = RrMatrix::new(raw).unwrap();
                prop_assert_eq!(renormalized.as_matrix(), &got);
            } else {
                prop_assert_eq!(got, raw);
            }
        }
    }
}
