//! A thin, owned dense vector of `f64` with the operations the OptRR
//! pipeline needs: arithmetic, dot products, norms, and probability-vector
//! helpers (simplex projection, normalization, total-variation distance).

use crate::error::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense column vector of `f64`.
///
/// Probability distributions over the category domain `C = {c_1, ..., c_n}`
/// are represented as `Vector`s throughout the workspace (the paper's `P`
/// and `P*` vectors of Equation (1)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Self {
            data: vec![1.0; len],
        }
    }

    /// Creates a vector of `len` entries all equal to `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates the `i`-th standard basis vector of dimension `len`.
    pub fn basis(len: usize, i: usize) -> Result<Self> {
        if i >= len {
            return Err(LinalgError::IndexOutOfBounds {
                index: i,
                extent: len,
            });
        }
        let mut v = Self::zeros(len);
        v.data[i] = 1.0;
        Ok(v)
    }

    /// Length (dimension) of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying `Vec`.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns element `i` or an error if out of bounds.
    pub fn get(&self, i: usize) -> Result<f64> {
        self.data
            .get(i)
            .copied()
            .ok_or(LinalgError::IndexOutOfBounds {
                index: i,
                extent: self.data.len(),
            })
    }

    /// Sets element `i` or returns an error if out of bounds.
    pub fn set(&mut self, i: usize, value: f64) -> Result<()> {
        let len = self.data.len();
        match self.data.get_mut(i) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(LinalgError::IndexOutOfBounds {
                index: i,
                extent: len,
            }),
        }
    }

    /// Dot product with another vector.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0.0 for an empty vector).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Minimum entry (None for an empty vector).
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.min(x)),
        })
    }

    /// Maximum entry (None for an empty vector).
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, x| match acc {
            None => Some(m_or(acc, x)),
            Some(m) => Some(m.max(x)),
        })
    }

    /// Index of the maximum entry (ties resolved to the smallest index).
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// L1 norm (sum of absolute values).
    pub fn norm1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// L-infinity norm (maximum absolute value).
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Element-wise scaling by a scalar, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, s: f64) -> Vector {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True when every entry is non-negative (within `-tol`).
    pub fn is_nonnegative(&self, tol: f64) -> bool {
        self.data.iter().all(|&x| x >= -tol)
    }

    /// True when the entries form a probability distribution: non-negative
    /// and summing to one within `tol`.
    pub fn is_probability(&self, tol: f64) -> bool {
        !self.is_empty() && self.is_nonnegative(tol) && (self.sum() - 1.0).abs() <= tol
    }

    /// Normalizes the entries so they sum to one. Returns an error when the
    /// sum is zero or non-finite.
    pub fn normalize_to_probability(&self) -> Result<Vector> {
        let s = self.sum();
        if !s.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        if s <= 0.0 {
            return Err(LinalgError::Singular { pivot: 0 });
        }
        Ok(self.scaled(1.0 / s))
    }

    /// Projects the vector onto the probability simplex: clamps negative
    /// entries to zero and renormalizes. This is the repair used when an
    /// estimated distribution (`M⁻¹ P̂*`) leaves the simplex because of
    /// sampling noise. A copy run through [`project_to_simplex_in_place`].
    pub fn project_to_simplex(&self) -> Vector {
        let mut projected = self.clone();
        project_to_simplex_in_place(&mut projected.data);
        projected
    }

    /// Total-variation distance between two probability vectors:
    /// `0.5 * Σ |p_i - q_i|`.
    pub fn total_variation(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "total_variation",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(0.5
            * self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>())
    }

    /// Mean squared error against another vector of the same length.
    pub fn mse(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "mse",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        if self.is_empty() {
            return Err(LinalgError::Empty);
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / self.len() as f64)
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Returns true when `self` and `other` agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// Helper used by `max` to keep clippy quiet about the fold seed.
fn m_or(acc: Option<f64>, x: f64) -> f64 {
    acc.unwrap_or(x)
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self::from_vec(data)
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self::from_vec(data.to_vec())
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition dimension mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector subtraction dimension mismatch"
        );
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector += dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector -= dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

/// [`Vector::project_to_simplex`] in place: every entry is clamped at
/// zero, then divided by the clamped entries' sum taken in order. A
/// slice whose clamped sum is not positive becomes uniform.
pub fn project_to_simplex_in_place(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
    let s: f64 = x.iter().sum();
    if s <= 0.0 {
        // Degenerate input: fall back to the uniform distribution.
        let uniform = 1.0 / x.len().max(1) as f64;
        x.fill(uniform);
        return;
    }
    for v in x.iter_mut() {
        *v /= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let v = Vector::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.sum(), 0.0);

        let o = Vector::ones(3);
        assert_eq!(o.sum(), 3.0);

        let f = Vector::filled(5, 0.2);
        assert!((f.sum() - 1.0).abs() < 1e-12);

        let e = Vector::zeros(0);
        assert!(e.is_empty());
    }

    #[test]
    fn basis_vectors() {
        let b = Vector::basis(3, 1).unwrap();
        assert_eq!(b.as_slice(), &[0.0, 1.0, 0.0]);
        assert!(Vector::basis(3, 3).is_err());
    }

    #[test]
    fn get_set_and_index() {
        let mut v = Vector::zeros(3);
        v.set(1, 2.5).unwrap();
        assert_eq!(v.get(1).unwrap(), 2.5);
        assert_eq!(v[1], 2.5);
        v[2] = -1.0;
        assert_eq!(v.get(2).unwrap(), -1.0);
        assert!(v.get(5).is_err());
        assert!(v.set(5, 1.0).is_err());
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        let c = Vector::zeros(2);
        assert!(a.dot(&c).is_err());
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0, -4.0]);
        assert!((v.norm1() - 7.0).abs() < 1e-12);
        assert!((v.norm_inf() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_argmax() {
        let v = Vector::from_vec(vec![0.1, 0.7, 0.2]);
        assert_eq!(v.min().unwrap(), 0.1);
        assert_eq!(v.max().unwrap(), 0.7);
        assert_eq!(v.argmax().unwrap(), 1);
        assert_eq!(Vector::zeros(0).argmax(), None);
        assert_eq!(Vector::zeros(0).min(), None);
        assert_eq!(Vector::zeros(0).max(), None);
    }

    #[test]
    fn argmax_ties_pick_smallest_index() {
        let v = Vector::from_vec(vec![0.4, 0.4, 0.2]);
        assert_eq!(v.argmax().unwrap(), 0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);

        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn probability_checks() {
        let p = Vector::from_vec(vec![0.2, 0.3, 0.5]);
        assert!(p.is_probability(1e-9));
        let q = Vector::from_vec(vec![0.2, 0.3, 0.6]);
        assert!(!q.is_probability(1e-9));
        let neg = Vector::from_vec(vec![-0.1, 1.1]);
        assert!(!neg.is_probability(1e-9));
        assert!(!Vector::zeros(0).is_probability(1e-9));
    }

    #[test]
    fn normalize_to_probability() {
        let v = Vector::from_vec(vec![2.0, 3.0, 5.0]);
        let p = v.normalize_to_probability().unwrap();
        assert!(p.is_probability(1e-12));
        assert!((p[2] - 0.5).abs() < 1e-12);
        assert!(Vector::zeros(3).normalize_to_probability().is_err());
        assert!(Vector::from_vec(vec![f64::NAN])
            .normalize_to_probability()
            .is_err());
    }

    #[test]
    fn simplex_projection_clips_and_renormalizes() {
        let v = Vector::from_vec(vec![-0.1, 0.6, 0.5]);
        let p = v.project_to_simplex();
        assert!(p.is_probability(1e-12));
        assert_eq!(p[0], 0.0);
        // Degenerate input falls back to uniform.
        let z = Vector::from_vec(vec![-1.0, -2.0]);
        let u = z.project_to_simplex();
        assert!(u.approx_eq(&Vector::filled(2, 0.5), 1e-12));
    }

    #[test]
    fn total_variation_and_mse() {
        let p = Vector::from_vec(vec![0.5, 0.5]);
        let q = Vector::from_vec(vec![0.9, 0.1]);
        assert!((p.total_variation(&q).unwrap() - 0.4).abs() < 1e-12);
        assert!((p.mse(&q).unwrap() - 0.16).abs() < 1e-12);
        assert!(p.total_variation(&Vector::zeros(3)).is_err());
        assert!(p.mse(&Vector::zeros(3)).is_err());
        assert!(Vector::zeros(0).mse(&Vector::zeros(0)).is_err());
    }

    #[test]
    fn finiteness() {
        assert!(Vector::ones(3).is_finite());
        assert!(!Vector::from_vec(vec![1.0, f64::INFINITY]).is_finite());
        assert!(!Vector::from_vec(vec![f64::NAN]).is_finite());
    }

    #[test]
    fn conversions_and_iteration() {
        let v: Vector = vec![1.0, 2.0].into();
        let s: Vector = [3.0, 4.0].as_slice().into();
        assert_eq!(v.len(), 2);
        assert_eq!(s.len(), 2);
        let total: f64 = (&s).into_iter().sum();
        assert_eq!(total, 7.0);
        assert_eq!(v.clone().into_vec(), vec![1.0, 2.0]);
        let collected: Vec<f64> = v.iter().copied().collect();
        assert_eq!(collected, vec![1.0, 2.0]);
    }

    #[test]
    fn scale_and_mean() {
        let mut v = Vector::from_vec(vec![1.0, 3.0]);
        assert_eq!(v.mean(), 2.0);
        v.scale_mut(2.0);
        assert_eq!(v.as_slice(), &[2.0, 6.0]);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_panics_on_mismatch() {
        let _ = &Vector::zeros(2) + &Vector::zeros(3);
    }
}
