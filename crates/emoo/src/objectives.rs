//! Objective vectors for multi-objective minimization.
//!
//! The OptRR search has two objectives — "adversary accuracy" (so that
//! higher privacy = lower objective) and "mean squared error" — but the
//! EMOO substrate is generic over any number of objectives, all treated as
//! *minimization* targets. Callers with maximization objectives negate or
//! complement them before constructing an [`Objectives`] value.

use serde::{Deserialize, Serialize};

/// A point in objective space. All objectives are minimized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objectives {
    values: Vec<f64>,
}

impl Objectives {
    /// Creates an objective vector. Panics in debug builds if any value is
    /// NaN (comparisons with NaN would silently corrupt dominance ranking),
    /// so callers must sanitize infeasible evaluations into large-but-finite
    /// penalties first.
    pub fn new(values: Vec<f64>) -> Self {
        debug_assert!(
            values.iter().all(|v| !v.is_nan()),
            "objective values must not be NaN"
        );
        Self { values }
    }

    /// Two-objective convenience constructor (the OptRR case).
    pub fn pair(a: f64, b: f64) -> Self {
        Self::new(vec![a, b])
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no objectives (never true for valid problems).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value of objective `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Borrow all objective values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Euclidean distance to another point in objective space (used by the
    /// SPEA2 density estimator and the archive truncation).
    pub fn distance(&self, other: &Objectives) -> f64 {
        debug_assert_eq!(self.len(), other.len(), "objective dimension mismatch");
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let o = Objectives::pair(0.3, 1e-4);
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
        assert_eq!(o.value(0), 0.3);
        assert_eq!(o.values(), &[0.3, 1e-4]);
    }

    #[test]
    fn distances() {
        let a = Objectives::pair(0.0, 0.0);
        let b = Objectives::pair(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not be NaN")]
    fn nan_is_rejected_in_debug() {
        let _ = Objectives::pair(f64::NAN, 0.0);
    }
}
