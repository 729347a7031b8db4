//! The inversion estimator of Theorem 1: `P̂ = M⁻¹ P̂*`.
//!
//! `P̂*` is the MLE of the disguised distribution — the vector of relative
//! frequencies `N_i / N` of the disguised data. When `M` is invertible the
//! resulting `P̂` is an unbiased MLE of the original distribution. Because
//! of sampling noise the raw estimate can leave the probability simplex;
//! the estimator therefore reports both the raw vector (used by the
//! closed-form utility analysis) and a simplex-projected distribution (used
//! by downstream mining).

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use datagen::CategoricalDataset;
use linalg::Vector;
use serde::{Deserialize, Serialize};
use stats::Categorical;

/// The result of an inversion estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InversionEstimate {
    /// The raw estimate `M⁻¹ P̂*` (may have entries slightly outside `[0,1]`
    /// because of sampling noise).
    pub raw: Vec<f64>,
    /// The estimate projected back onto the probability simplex.
    pub distribution: Categorical,
}

/// Estimates the original distribution from a disguised data set.
pub fn estimate_distribution(
    m: &RrMatrix,
    disguised: &CategoricalDataset,
) -> Result<InversionEstimate> {
    if disguised.num_categories() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: disguised.num_categories(),
        });
    }
    if disguised.is_empty() {
        return Err(RrError::EmptyData);
    }
    let p_star = disguised.empirical_distribution()?;
    estimate_from_disguised_frequencies(m, &p_star)
}

/// Estimates the original distribution from disguised category counts.
pub fn estimate_from_counts(m: &RrMatrix, counts: &[u64]) -> Result<InversionEstimate> {
    if counts.len() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: counts.len(),
        });
    }
    if counts.iter().sum::<u64>() == 0 {
        return Err(RrError::EmptyData);
    }
    estimate_from_disguised_frequencies(m, &Categorical::from_counts(counts)?)
}

/// Estimates the original distribution from the disguised distribution
/// `P̂*` directly (Equation 2 of the paper).
pub fn estimate_from_disguised_frequencies(
    m: &RrMatrix,
    p_star: &Categorical,
) -> Result<InversionEstimate> {
    if p_star.num_categories() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: p_star.num_categories(),
        });
    }
    let inverse = m.inverse()?;
    let raw = inverse
        .mul_vector(&Vector::from_vec(p_star.probs().to_vec()))
        .map_err(RrError::from)?;
    let distribution = Categorical::new(raw.project_to_simplex().into_vec())?;
    Ok(InversionEstimate {
        raw: raw.into_vec(),
        distribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::disguise_dataset;
    use crate::schemes::warner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stats::divergence::total_variation;

    fn skewed_dataset(n_records: usize, seed: u64) -> (Categorical, CategoricalDataset) {
        let p = Categorical::new(vec![0.45, 0.25, 0.15, 0.10, 0.05]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let records = p.sample_many(&mut rng, n_records);
        (p, CategoricalDataset::new(5, records).unwrap())
    }

    #[test]
    fn exact_inversion_with_population_frequencies() {
        // When P* is computed analytically (no sampling noise), the
        // inversion recovers P exactly.
        let m = warner(5, 0.7).unwrap();
        let p = Categorical::new(vec![0.4, 0.3, 0.15, 0.1, 0.05]).unwrap();
        let p_star = m.disguised_distribution(&p).unwrap();
        let est = estimate_from_disguised_frequencies(&m, &p_star).unwrap();
        assert!(est.distribution.approx_eq(&p, 1e-9));
        for (raw, expected) in est.raw.iter().zip(p.probs()) {
            assert!((raw - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn estimate_converges_with_sample_size() {
        let m = warner(5, 0.6).unwrap();
        let (p, small) = skewed_dataset(500, 1);
        let (_, large) = skewed_dataset(200_000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let disguised_small = disguise_dataset(&m, &small, &mut rng).unwrap().disguised;
        let disguised_large = disguise_dataset(&m, &large, &mut rng).unwrap().disguised;
        let est_small = estimate_distribution(&m, &disguised_small).unwrap();
        let est_large = estimate_distribution(&m, &disguised_large).unwrap();
        let err_small = total_variation(&est_small.distribution, &p).unwrap();
        let err_large = total_variation(&est_large.distribution, &p).unwrap();
        assert!(
            err_large < err_small,
            "large-sample error {err_large} should beat small-sample error {err_small}"
        );
        assert!(err_large < 0.02, "large-sample error {err_large}");
    }

    #[test]
    fn identity_matrix_estimate_is_the_empirical_distribution() {
        let m = RrMatrix::identity(5).unwrap();
        let (_, data) = skewed_dataset(10_000, 4);
        // With the identity matrix the "disguised" data are the original data.
        let est = estimate_distribution(&m, &data).unwrap();
        let emp = data.empirical_distribution().unwrap();
        assert!(est.distribution.approx_eq(&emp, 1e-12));
    }

    #[test]
    fn estimate_from_counts_matches_dataset_estimate() {
        let m = warner(3, 0.8).unwrap();
        let data = CategoricalDataset::new(3, vec![0, 0, 1, 2, 2, 2, 1, 0, 0, 2]).unwrap();
        let counts = [4, 2, 4];
        let a = estimate_distribution(&m, &data).unwrap();
        let b = estimate_from_counts(&m, &counts).unwrap();
        assert!(a.distribution.approx_eq(&b.distribution, 1e-12));
    }

    #[test]
    fn validation_errors() {
        let m = warner(3, 0.8).unwrap();
        let wrong_dim = CategoricalDataset::new(4, vec![0, 1, 2, 3]).unwrap();
        assert!(matches!(
            estimate_distribution(&m, &wrong_dim),
            Err(RrError::DimensionMismatch { .. })
        ));
        let empty = CategoricalDataset::new(3, vec![]).unwrap();
        assert!(matches!(
            estimate_distribution(&m, &empty),
            Err(RrError::EmptyData)
        ));
        assert!(matches!(
            estimate_from_counts(&m, &[1, 2]),
            Err(RrError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            estimate_from_counts(&m, &[0, 0, 0]),
            Err(RrError::EmptyData)
        ));
        assert!(matches!(
            estimate_from_disguised_frequencies(&m, &Categorical::uniform(4).unwrap()),
            Err(RrError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn singular_matrix_is_reported() {
        let m = RrMatrix::uniform(3).unwrap();
        let data = CategoricalDataset::new(3, vec![0, 1, 2, 0]).unwrap();
        assert!(matches!(
            estimate_distribution(&m, &data),
            Err(RrError::SingularMatrix)
        ));
    }

    #[test]
    fn raw_estimate_can_leave_simplex_but_projection_fixes_it() {
        // With heavy disguise and a tiny sample the raw inverse estimate
        // frequently has negative components; the projected distribution
        // must still be a valid probability vector.
        let m = warner(5, 0.35).unwrap();
        let (_, data) = skewed_dataset(40, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let disguised = disguise_dataset(&m, &data, &mut rng).unwrap().disguised;
        let est = estimate_distribution(&m, &disguised).unwrap();
        assert!((est.distribution.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(est.distribution.probs().iter().all(|&p| p >= 0.0));
        // The raw estimate sums to one as well (M⁻¹ preserves the total),
        // even if individual entries stray outside [0, 1].
        let raw_sum: f64 = est.raw.iter().sum();
        assert!((raw_sum - 1.0).abs() < 1e-9);
    }
}
