//! The classical randomized-response schemes the paper compares against
//! (Section III.B): Warner, Uniform Perturbation (UP), and FRAPP, plus the
//! identity and uniform degenerate matrices of Section III.C.
//!
//! * **Warner** — diagonal `p`, off-diagonal `(1-p)/(n-1)`.
//! * **Uniform Perturbation (UP)** — retain with probability `q`, otherwise
//!   replace with a uniformly random category: diagonal `q + (1-q)/n`,
//!   off-diagonal `(1-q)/n`.
//! * **FRAPP** — diagonal `λ/(λ+n-1)`, off-diagonal `1/(λ+n-1)`.
//!
//! Theorem 2 of the paper states the three parametrized families describe
//! the same set of matrices; `theorem2` below gives the explicit parameter
//! maps, and the tests (plus the `exp_theorem2` experiment binary) verify
//! the equivalence.

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Which classical scheme a matrix was generated from (used for labeling
/// experiment output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Warner (1965) scheme.
    Warner,
    /// Uniform Perturbation (Agrawal, Srikant & Thomas, SIGMOD'05).
    UniformPerturbation,
    /// FRAPP (Agrawal & Haritsa, ICDE'05).
    Frapp,
}

/// Builds the Warner RR matrix for `n` categories with retention
/// probability `p` on the diagonal.
///
/// `p` must lie in `[0, 1]`. With `p = 1` this is the identity matrix;
/// with `p = 1/n` it is the uniform (singular) matrix.
pub fn warner(n: usize, p: f64) -> Result<RrMatrix> {
    if n < 2 {
        return Err(RrError::InvalidMatrix {
            reason: "need at least two categories",
        });
    }
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(RrError::InvalidParameter {
            name: "p",
            value: p,
            constraint: "must be in [0, 1]",
        });
    }
    let off = (1.0 - p) / (n as f64 - 1.0);
    let mut m = Matrix::filled(n, n, off);
    for i in 0..n {
        m[(i, i)] = p;
    }
    RrMatrix::new(m)
}

/// Builds the Uniform Perturbation RR matrix for `n` categories with
/// retention probability `q`.
///
/// Each value is retained with probability `q` and otherwise replaced by a
/// category drawn uniformly from the whole domain (which may reproduce the
/// original value), so the diagonal is `q + (1-q)/n`.
pub fn uniform_perturbation(n: usize, q: f64) -> Result<RrMatrix> {
    if n < 2 {
        return Err(RrError::InvalidMatrix {
            reason: "need at least two categories",
        });
    }
    if !(0.0..=1.0).contains(&q) || !q.is_finite() {
        return Err(RrError::InvalidParameter {
            name: "q",
            value: q,
            constraint: "must be in [0, 1]",
        });
    }
    let off = (1.0 - q) / n as f64;
    let mut m = Matrix::filled(n, n, off);
    for i in 0..n {
        m[(i, i)] = q + off;
    }
    RrMatrix::new(m)
}

/// Builds the FRAPP RR matrix for `n` categories with diagonal weight `λ`.
///
/// Entries are `λ/(λ+n-1)` on the diagonal and `1/(λ+n-1)` elsewhere.
/// `λ` must be non-negative; `λ = 1` gives the uniform matrix, large `λ`
/// approaches the identity.
pub fn frapp(n: usize, lambda: f64) -> Result<RrMatrix> {
    if n < 2 {
        return Err(RrError::InvalidMatrix {
            reason: "need at least two categories",
        });
    }
    if !(lambda >= 0.0) || !lambda.is_finite() {
        return Err(RrError::InvalidParameter {
            name: "lambda",
            value: lambda,
            constraint: "must be finite and non-negative",
        });
    }
    let denom = lambda + n as f64 - 1.0;
    let mut m = Matrix::filled(n, n, 1.0 / denom);
    for i in 0..n {
        m[(i, i)] = lambda / denom;
    }
    RrMatrix::new(m)
}

/// Parameter conversions proving Theorem 2: for any Warner parameter `p`
/// there exist `q` (UP) and `λ` (FRAPP) producing the *same* matrix, and
/// vice versa.
pub mod theorem2 {
    /// The UP parameter `q` whose matrix equals the Warner matrix with
    /// parameter `p` on `n` categories: `q = (p·n − 1) / (n − 1)`.
    ///
    /// Note `q` is only a valid probability when `p ≥ 1/n`; Warner matrices
    /// with `p < 1/n` (off-diagonal exceeding the diagonal) have no UP
    /// counterpart with `q ∈ [0, 1]`, which is why the paper's Theorem 2
    /// concerns the *solution sets* over the full parameter ranges rather
    /// than a pointwise bijection over `[0, 1]`.
    pub fn warner_to_up(n: usize, p: f64) -> f64 {
        (p * n as f64 - 1.0) / (n as f64 - 1.0)
    }

    /// The FRAPP parameter `λ` whose matrix equals the Warner matrix with
    /// parameter `p`: `λ = p (n−1) / (1 − p)` (infinite at `p = 1`).
    pub fn warner_to_frapp(n: usize, p: f64) -> f64 {
        if p >= 1.0 {
            f64::INFINITY
        } else {
            p * (n as f64 - 1.0) / (1.0 - p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warner_matrix_entries() {
        let m = warner(4, 0.7).unwrap();
        assert!((m.theta(0, 0) - 0.7).abs() < 1e-12);
        assert!((m.theta(1, 0) - 0.1).abs() < 1e-12);
        assert!(m.is_symmetric());
        assert!(warner(4, 1.2).is_err());
        assert!(warner(4, -0.1).is_err());
        assert!(warner(1, 0.5).is_err());
        assert!(warner(4, f64::NAN).is_err());
    }

    #[test]
    fn warner_extremes_match_identity_and_uniform() {
        let id = warner(3, 1.0).unwrap();
        assert!(id.approx_eq(&RrMatrix::identity(3).unwrap(), 1e-12));
        let unif = warner(3, 1.0 / 3.0).unwrap();
        assert!(unif.approx_eq(&RrMatrix::uniform(3).unwrap(), 1e-12));
    }

    #[test]
    fn up_matrix_entries() {
        let m = uniform_perturbation(5, 0.5).unwrap();
        // diagonal q + (1-q)/n = 0.5 + 0.1 = 0.6; off-diagonal 0.1.
        assert!((m.theta(0, 0) - 0.6).abs() < 1e-12);
        assert!((m.theta(1, 0) - 0.1).abs() < 1e-12);
        assert!(uniform_perturbation(5, 1.5).is_err());
        assert!(uniform_perturbation(1, 0.5).is_err());
    }

    #[test]
    fn up_extremes() {
        // q = 1 retains everything: identity.
        assert!(uniform_perturbation(4, 1.0)
            .unwrap()
            .approx_eq(&RrMatrix::identity(4).unwrap(), 1e-12));
        // q = 0 replaces everything uniformly: the uniform matrix.
        assert!(uniform_perturbation(4, 0.0)
            .unwrap()
            .approx_eq(&RrMatrix::uniform(4).unwrap(), 1e-12));
    }

    #[test]
    fn frapp_matrix_entries() {
        let m = frapp(3, 4.0).unwrap();
        // denom = 4 + 2 = 6: diagonal 4/6, off 1/6.
        assert!((m.theta(0, 0) - 4.0 / 6.0).abs() < 1e-12);
        assert!((m.theta(2, 0) - 1.0 / 6.0).abs() < 1e-12);
        assert!(frapp(3, -1.0).is_err());
        assert!(frapp(3, f64::INFINITY).is_err());
        assert!(frapp(1, 2.0).is_err());
    }

    #[test]
    fn frapp_lambda_one_is_uniform() {
        assert!(frapp(5, 1.0)
            .unwrap()
            .approx_eq(&RrMatrix::uniform(5).unwrap(), 1e-12));
    }

    #[test]
    fn theorem2_warner_up_equivalence() {
        // For p >= 1/n the UP matrix with q = (p n - 1)/(n - 1) equals the
        // Warner matrix with parameter p.
        let n = 6;
        for &p in &[1.0 / 6.0, 0.3, 0.5, 0.75, 0.9, 1.0] {
            let q = theorem2::warner_to_up(n, p);
            assert!((0.0..=1.0).contains(&q), "q={q} for p={p}");
            let w = warner(n, p).unwrap();
            let u = uniform_perturbation(n, q).unwrap();
            assert!(w.approx_eq(&u, 1e-12), "p={p}, q={q}");
        }
    }

    #[test]
    fn theorem2_warner_frapp_equivalence() {
        let n = 6;
        for &p in &[0.2, 1.0 / 6.0, 0.4, 0.6, 0.85] {
            let lambda = theorem2::warner_to_frapp(n, p);
            let w = warner(n, p).unwrap();
            let f = frapp(n, lambda).unwrap();
            assert!(w.approx_eq(&f, 1e-12), "p={p}, lambda={lambda}");
        }
        // p = 1 maps to infinite lambda.
        assert!(theorem2::warner_to_frapp(n, 1.0).is_infinite());
    }
}
