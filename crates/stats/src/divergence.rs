//! Distances between categorical distributions.
//!
//! Utility in the paper is measured by the mean squared error between the
//! reconstructed and the true distribution; total variation is used by the
//! extended experiments and the mining integration tests to characterize
//! reconstruction quality.

use crate::categorical::Categorical;
use crate::error::{Result, StatsError};

fn check_support(p: &Categorical, q: &Categorical) -> Result<()> {
    if p.num_categories() != q.num_categories() {
        return Err(StatsError::SupportMismatch {
            left: p.num_categories(),
            right: q.num_categories(),
        });
    }
    Ok(())
}

/// Mean squared error between two distributions:
/// `(1/n) Σ_i (p_i - q_i)²` — the per-category average used by Eq. (10).
pub fn mean_squared_error(p: &Categorical, q: &Categorical) -> Result<f64> {
    check_support(p, q)?;
    let n = p.num_categories() as f64;
    Ok(p.probs()
        .iter()
        .zip(q.probs().iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / n)
}

/// Total-variation distance `0.5 Σ_i |p_i - q_i|` in `[0, 1]`.
pub fn total_variation(p: &Categorical, q: &Categorical) -> Result<f64> {
    check_support(p, q)?;
    Ok(0.5
        * p.probs()
            .iter()
            .zip(q.probs().iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(p: &[f64]) -> Categorical {
        Categorical::new(p.to_vec()).unwrap()
    }

    #[test]
    fn all_divergences_are_zero_for_identical_distributions() {
        let p = dist(&[0.2, 0.3, 0.5]);
        assert_eq!(mean_squared_error(&p, &p).unwrap(), 0.0);
        assert_eq!(total_variation(&p, &p).unwrap(), 0.0);
    }

    #[test]
    fn support_mismatch_is_rejected_everywhere() {
        let p = dist(&[0.5, 0.5]);
        let q = dist(&[0.2, 0.3, 0.5]);
        assert!(mean_squared_error(&p, &q).is_err());
        assert!(total_variation(&p, &q).is_err());
    }

    #[test]
    fn mse_known_value() {
        let p = dist(&[0.5, 0.5]);
        let q = dist(&[0.9, 0.1]);
        assert!((mean_squared_error(&p, &q).unwrap() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn total_variation_known_value_and_symmetry() {
        let p = dist(&[0.5, 0.5]);
        let q = dist(&[0.9, 0.1]);
        let d1 = total_variation(&p, &q).unwrap();
        let d2 = total_variation(&q, &p).unwrap();
        assert!((d1 - 0.4).abs() < 1e-12);
        assert!((d1 - d2).abs() < 1e-15);
    }

    #[test]
    fn divergences_increase_with_separation() {
        let base = dist(&[0.25, 0.25, 0.25, 0.25]);
        let near = dist(&[0.3, 0.25, 0.25, 0.2]);
        let far = dist(&[0.7, 0.1, 0.1, 0.1]);
        assert!(
            mean_squared_error(&base, &far).unwrap() > mean_squared_error(&base, &near).unwrap()
        );
        assert!(total_variation(&base, &far).unwrap() > total_variation(&base, &near).unwrap());
    }
}
