//! The per-record disguise operator: applying an RR matrix to a data set.
//!
//! The randomized-response technique replaces each original record `x_i`
//! with a reported value drawn from column `x_i` of the RR matrix. This
//! module applies that operation to whole data sets and keeps the pairing
//! between original and disguised records so privacy experiments can score
//! adversarial estimates against the ground truth.

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use crate::sample::ColumnSamplers;
use datagen::CategoricalDataset;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The outcome of disguising a data set: the disguised records plus summary
/// counts of how many records kept their original value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisguiseOutcome {
    /// The disguised data set `Y_s` (same length and domain as the input).
    pub disguised: CategoricalDataset,
    /// Number of records whose reported value equals the original value.
    pub retained: usize,
}

impl DisguiseOutcome {
    /// Fraction of records that kept their original value.
    pub fn retention_rate(&self) -> f64 {
        if self.disguised.is_empty() {
            0.0
        } else {
            self.retained as f64 / self.disguised.len() as f64
        }
    }
}

fn validate_disguise_input(m: &RrMatrix, original: &CategoricalDataset) -> Result<()> {
    if original.num_categories() != m.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: m.num_categories(),
            data: original.num_categories(),
        });
    }
    if original.is_empty() {
        return Err(RrError::EmptyData);
    }
    Ok(())
}

fn collect_outcome(
    original: &CategoricalDataset,
    disguised: Vec<usize>,
    retained: usize,
) -> Result<DisguiseOutcome> {
    let disguised = CategoricalDataset::new(original.num_categories(), disguised)?;
    Ok(DisguiseOutcome {
        disguised,
        retained,
    })
}

/// Disguises every record of `original` using the RR matrix `m`.
///
/// The per-column [`crate::sample::AliasTable`]s are built once (O(n²) for
/// the whole matrix), then each record costs O(1): one uniform draw per
/// record, exactly the draw budget of the inverse-CDF reference path its
/// tests keep (`disguise_dataset_reference`).
pub fn disguise_dataset<R: Rng + ?Sized>(
    m: &RrMatrix,
    original: &CategoricalDataset,
    rng: &mut R,
) -> Result<DisguiseOutcome> {
    validate_disguise_input(m, original)?;
    let samplers = ColumnSamplers::new(m)?;
    disguise_with_samplers(&samplers, original, rng)
}

/// Disguises every record of `original` through pre-built alias tables.
///
/// Building [`ColumnSamplers`] is the O(n²) part of a disguise call and is
/// a pure function of the matrix — it consumes no randomness — so a caller
/// that pins one matrix (a serving pipeline) builds the tables once and
/// streams every batch through this entry point. For the same RNG state
/// the output is bit-identical to [`disguise_dataset`] on the same matrix.
pub fn disguise_dataset_with<R: Rng + ?Sized>(
    samplers: &ColumnSamplers,
    original: &CategoricalDataset,
    rng: &mut R,
) -> Result<DisguiseOutcome> {
    if original.num_categories() != samplers.num_categories() {
        return Err(RrError::DimensionMismatch {
            matrix: samplers.num_categories(),
            data: original.num_categories(),
        });
    }
    if original.is_empty() {
        return Err(RrError::EmptyData);
    }
    disguise_with_samplers(samplers, original, rng)
}

fn disguise_with_samplers<R: Rng + ?Sized>(
    samplers: &ColumnSamplers,
    original: &CategoricalDataset,
    rng: &mut R,
) -> Result<DisguiseOutcome> {
    let mut disguised = Vec::with_capacity(original.len());
    let mut retained = 0usize;
    for &x in original.records() {
        let y = samplers.disguise_record(x, rng)?;
        if y == x {
            retained += 1;
        }
        disguised.push(y);
    }
    collect_outcome(original, disguised, retained)
}

/// The seed implementation kept as the distributional reference: per-column
/// cached-CDF samplers with an O(log n) binary search per record.
///
/// Kept as the test oracle for the alias-table path: the equivalence tests
/// below check that [`disguise_dataset`] matches it. Production callers go
/// through [`disguise_dataset`]. The two paths draw different streams for
/// the same seed but the same *number* of RNG values, and both match `M·P`
/// distributionally.
#[cfg(test)]
fn disguise_dataset_reference<R: Rng + ?Sized>(
    m: &RrMatrix,
    original: &CategoricalDataset,
    rng: &mut R,
) -> Result<DisguiseOutcome> {
    validate_disguise_input(m, original)?;
    let columns: Vec<_> = (0..m.num_categories())
        .map(|i| m.randomization_distribution(i))
        .collect::<Result<_>>()?;
    let mut disguised = Vec::with_capacity(original.len());
    let mut retained = 0usize;
    for &x in original.records() {
        let y = columns[x].sample(rng);
        if y == x {
            retained += 1;
        }
        disguised.push(y);
    }
    collect_outcome(original, disguised, retained)
}

/// Disguises a data set and returns the original/disguised record pairs —
/// the view an attacker-evaluation harness needs.
pub fn disguise_paired<R: Rng + ?Sized>(
    m: &RrMatrix,
    original: &CategoricalDataset,
    rng: &mut R,
) -> Result<Vec<(usize, usize)>> {
    let outcome = disguise_dataset(m, original, rng)?;
    Ok(original
        .records()
        .iter()
        .copied()
        .zip(outcome.disguised.records().iter().copied())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::warner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> CategoricalDataset {
        // 3 categories, strongly skewed toward category 0.
        let mut records = vec![0usize; 6000];
        records.extend(vec![1usize; 3000]);
        records.extend(vec![2usize; 1000]);
        CategoricalDataset::new(3, records).unwrap()
    }

    #[test]
    fn dimension_and_empty_validation() {
        let m = warner(4, 0.8).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            disguise_dataset(&m, &d, &mut rng),
            Err(RrError::DimensionMismatch { .. })
        ));
        let empty = CategoricalDataset::new(3, vec![]).unwrap();
        let m3 = warner(3, 0.8).unwrap();
        assert!(matches!(
            disguise_dataset(&m3, &empty, &mut rng),
            Err(RrError::EmptyData)
        ));
    }

    #[test]
    fn identity_matrix_retains_everything() {
        let m = RrMatrix::identity(3).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let out = disguise_dataset(&m, &d, &mut rng).unwrap();
        assert_eq!(out.retained, d.len());
        assert!((out.retention_rate() - 1.0).abs() < 1e-12);
        assert_eq!(out.disguised, d);
    }

    #[test]
    fn warner_retention_matches_p() {
        let m = warner(3, 0.7).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let out = disguise_dataset(&m, &d, &mut rng).unwrap();
        assert_eq!(out.disguised.len(), d.len());
        assert!(
            (out.retention_rate() - 0.7).abs() < 0.02,
            "retention {}",
            out.retention_rate()
        );
    }

    #[test]
    fn disguised_distribution_tracks_m_times_p() {
        let m = warner(3, 0.6).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let out = disguise_dataset(&m, &d, &mut rng).unwrap();
        let expected = m
            .disguised_distribution(&d.empirical_distribution().unwrap())
            .unwrap();
        let observed = out.disguised.empirical_distribution().unwrap();
        for i in 0..3 {
            assert!(
                (observed.prob(i) - expected.prob(i)).abs() < 0.02,
                "category {i}: observed {} expected {}",
                observed.prob(i),
                expected.prob(i)
            );
        }
    }

    #[test]
    fn paired_output_preserves_order_and_originals() {
        let m = warner(3, 0.5).unwrap();
        let d = CategoricalDataset::new(3, vec![0, 1, 2, 2, 1, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = disguise_paired(&m, &d, &mut rng).unwrap();
        assert_eq!(pairs.len(), 6);
        for (i, (orig, disguised)) in pairs.iter().enumerate() {
            assert_eq!(*orig, d.record(i).unwrap());
            assert!(*disguised < 3);
        }
    }

    #[test]
    fn disguise_is_deterministic_for_a_seed() {
        let m = warner(3, 0.5).unwrap();
        let d = dataset();
        let a = disguise_dataset(&m, &d, &mut StdRng::seed_from_u64(11)).unwrap();
        let b = disguise_dataset(&m, &d, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(a, b);
        let c = disguise_dataset(&m, &d, &mut StdRng::seed_from_u64(12)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn cached_samplers_match_the_per_call_build_bitwise() {
        let m = warner(3, 0.55).unwrap();
        let d = dataset();
        let samplers = ColumnSamplers::new(&m).unwrap();
        let fresh = disguise_dataset(&m, &d, &mut StdRng::seed_from_u64(31)).unwrap();
        let cached = disguise_dataset_with(&samplers, &d, &mut StdRng::seed_from_u64(31)).unwrap();
        assert_eq!(fresh, cached, "table construction consumes no randomness");
        // The cached path validates like the building path.
        let wrong = CategoricalDataset::new(4, vec![0, 1, 2, 3]).unwrap();
        assert!(matches!(
            disguise_dataset_with(&samplers, &wrong, &mut StdRng::seed_from_u64(31)),
            Err(RrError::DimensionMismatch { .. })
        ));
        let empty = CategoricalDataset::new(3, vec![]).unwrap();
        assert!(matches!(
            disguise_dataset_with(&samplers, &empty, &mut StdRng::seed_from_u64(31)),
            Err(RrError::EmptyData)
        ));
    }

    #[test]
    fn alias_and_reference_paths_agree_distributionally() {
        // The alias path replaced the inverse-CDF path on the hot route;
        // they draw different streams for a seed but must land on the same
        // disguised distribution and retention rate.
        let m = warner(3, 0.6).unwrap();
        let d = dataset();
        let alias = disguise_dataset(&m, &d, &mut StdRng::seed_from_u64(21)).unwrap();
        let reference = disguise_dataset_reference(&m, &d, &mut StdRng::seed_from_u64(21)).unwrap();
        assert_eq!(alias.disguised.len(), reference.disguised.len());
        assert!(
            (alias.retention_rate() - reference.retention_rate()).abs() < 0.03,
            "retention alias {} vs reference {}",
            alias.retention_rate(),
            reference.retention_rate()
        );
        let oa = alias.disguised.empirical_distribution().unwrap();
        let ob = reference.disguised.empirical_distribution().unwrap();
        for i in 0..3 {
            assert!(
                (oa.prob(i) - ob.prob(i)).abs() < 0.03,
                "category {i}: alias {} vs reference {}",
                oa.prob(i),
                ob.prob(i)
            );
        }
    }

    #[test]
    fn reference_path_validates_like_the_alias_path() {
        let m = warner(4, 0.8).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            disguise_dataset_reference(&m, &d, &mut rng),
            Err(RrError::DimensionMismatch { .. })
        ));
        let empty = CategoricalDataset::new(3, vec![]).unwrap();
        let m3 = warner(3, 0.8).unwrap();
        assert!(matches!(
            disguise_dataset_reference(&m3, &empty, &mut rng),
            Err(RrError::EmptyData)
        ));
    }

    #[test]
    fn retention_rate_of_empty_outcome_is_zero() {
        // Construct the struct directly to cover the guard.
        let out = DisguiseOutcome {
            disguised: CategoricalDataset::new(2, vec![]).unwrap(),
            retained: 0,
        };
        assert_eq!(out.retention_rate(), 0.0);
    }
}
