//! A thin, owned dense vector of `f64` with the operations the OptRR
//! pipeline needs: indexing, sums, argmax and projection onto the
//! probability simplex.

use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

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

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
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

    /// Projects the vector onto the probability simplex: clamps negative
    /// entries to zero and renormalizes. This is the repair used when an
    /// estimated distribution (`M⁻¹ P̂*`) leaves the simplex because of
    /// sampling noise. A copy run through [`project_to_simplex_in_place`].
    pub fn project_to_simplex(&self) -> Vector {
        let mut projected = self.clone();
        project_to_simplex_in_place(&mut projected.data);
        projected
    }

    /// Iterator over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
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

        let e = Vector::zeros(0);
        assert!(e.is_empty());
    }

    #[test]
    fn get_set_and_index() {
        let mut v = Vector::zeros(3);
        v[1] = 2.5;
        assert_eq!(v[1], 2.5);
        assert_eq!(v.as_slice(), &[0.0, 2.5, 0.0]);
    }

    #[test]
    fn argmax() {
        let v = Vector::from_vec(vec![0.1, 0.7, 0.2]);
        assert_eq!(v.argmax().unwrap(), 1);
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn argmax_ties_pick_smallest_index() {
        let v = Vector::from_vec(vec![0.4, 0.4, 0.2]);
        assert_eq!(v.argmax().unwrap(), 0);
    }

    #[test]
    fn simplex_projection_clips_and_renormalizes() {
        let v = Vector::from_vec(vec![-0.1, 0.6, 0.5]);
        let p = v.project_to_simplex();
        assert!(p.iter().all(|&x| x >= 0.0));
        assert!((p.sum() - 1.0).abs() < 1e-12);
        assert_eq!(p[0], 0.0);
        // Degenerate input falls back to uniform.
        let z = Vector::from_vec(vec![-1.0, -2.0]);
        let u = z.project_to_simplex();
        assert_eq!(u.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn conversions_and_iteration() {
        let v = Vector::from_vec(vec![1.0, 2.0]);
        assert_eq!(v.clone().into_vec(), vec![1.0, 2.0]);
        let collected: Vec<f64> = v.iter().copied().collect();
        assert_eq!(collected, vec![1.0, 2.0]);
    }
}
