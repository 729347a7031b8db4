//! Single-attribute categorical data sets.
//!
//! The paper (Section IV) treats the whole data set as instances of one
//! categorical attribute: `X_s = {x_1, ..., x_N}` for the original data and
//! `Y_s = {y_1, ..., y_N}` for the disguised data. A [`CategoricalDataset`]
//! carries the records plus the size of the category domain so downstream
//! code never has to guess `n` from the observed values.

use serde::{Deserialize, Serialize};
use stats::{Categorical, CountSet, Result as StatsResult, StatsError};

/// A single-attribute categorical data set over the domain `0..num_categories`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoricalDataset {
    num_categories: usize,
    records: Vec<usize>,
}

impl CategoricalDataset {
    /// Creates a data set, validating that every record is inside the domain.
    pub fn new(num_categories: usize, records: Vec<usize>) -> StatsResult<Self> {
        if num_categories == 0 {
            return Err(StatsError::InvalidParameter {
                name: "num_categories",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        if let Some(&bad) = records.iter().find(|&&r| r >= num_categories) {
            return Err(StatsError::InvalidParameter {
                name: "record",
                value: bad as f64,
                constraint: "must be < num_categories",
            });
        }
        Ok(Self {
            num_categories,
            records,
        })
    }

    /// Number of categories in the attribute domain.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Number of records `N`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the data set has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Borrow the records.
    pub fn records(&self) -> &[usize] {
        &self.records
    }

    /// The records, moved out of the data set.
    pub fn into_records(self) -> Vec<usize> {
        self.records
    }

    /// Record at position `i`.
    pub fn record(&self, i: usize) -> Option<usize> {
        self.records.get(i).copied()
    }

    /// Empirical distribution (relative frequencies). Errs on an empty set.
    pub fn empirical_distribution(&self) -> StatsResult<Categorical> {
        let mut counts = CountSet::new(self.num_categories)?;
        counts.add_records(&self.records)?;
        counts.empirical_distribution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_domain() {
        assert!(CategoricalDataset::new(0, vec![]).is_err());
        assert!(CategoricalDataset::new(3, vec![0, 1, 3]).is_err());
        let d = CategoricalDataset::new(3, vec![0, 1, 2, 2]).unwrap();
        assert_eq!(d.num_categories(), 3);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.record(2), Some(2));
        assert_eq!(d.record(9), None);
        assert_eq!(d.into_records(), vec![0, 1, 2, 2]);
    }

    #[test]
    fn empty_dataset_is_allowed_but_has_no_distribution() {
        let d = CategoricalDataset::new(3, vec![]).unwrap();
        assert!(d.is_empty());
        assert!(d.empirical_distribution().is_err());
    }

    #[test]
    fn histogram_and_distribution() {
        let d = CategoricalDataset::new(4, vec![0, 1, 1, 3, 3, 3]).unwrap();
        let p = d.empirical_distribution().unwrap();
        assert!((p.prob(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.prob(3) - 0.5).abs() < 1e-12);
        assert_eq!(p.prob(2), 0.0);
    }
}
