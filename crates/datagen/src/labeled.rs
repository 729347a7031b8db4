//! Labeled categorical data for the decision-tree mining application.
//!
//! Du & Zhan's KDD'03 work (cited in the paper's related work) builds
//! decision trees over randomized-response data. The `ppdm_decision_tree`
//! example and the mining crate need multi-attribute labeled records with a
//! known generative structure so that a tree learned from *disguised* data
//! can be compared against one learned from the original data.

use crate::dataset::CategoricalDataset;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use stats::{Result as StatsResult, StatsError};

/// A labeled data set: several categorical attributes plus a categorical
/// class label, all over per-column domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledDataset {
    /// Attribute columns (each a data set over its own domain), all with the
    /// same number of records.
    attributes: Vec<CategoricalDataset>,
    /// Class label column.
    labels: CategoricalDataset,
}

impl LabeledDataset {
    /// Creates a labeled data set, validating that all columns have the same
    /// number of records.
    pub fn new(
        attributes: Vec<CategoricalDataset>,
        labels: CategoricalDataset,
    ) -> StatsResult<Self> {
        if attributes.is_empty() {
            return Err(StatsError::EmptyData);
        }
        let n = labels.len();
        if attributes.iter().any(|a| a.len() != n) {
            return Err(StatsError::SupportMismatch {
                left: attributes.iter().map(|a| a.len()).max().unwrap_or(0),
                right: n,
            });
        }
        Ok(Self { attributes, labels })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the data set has no records.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of attribute columns.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Borrow an attribute column.
    pub fn attribute(&self, i: usize) -> Option<&CategoricalDataset> {
        self.attributes.get(i)
    }

    /// Borrow the label column.
    pub fn labels(&self) -> &CategoricalDataset {
        &self.labels
    }

    /// The record at row `i`: attribute values plus label.
    pub fn row(&self, i: usize) -> Option<(Vec<usize>, usize)> {
        let label = self.labels.record(i)?;
        let mut values = Vec::with_capacity(self.attributes.len());
        for a in &self.attributes {
            values.push(a.record(i)?);
        }
        Some((values, label))
    }

    /// Replaces attribute column `i`, keeping the rest (used when a single
    /// column is disguised by randomized response).
    pub fn with_attribute(&self, i: usize, column: CategoricalDataset) -> StatsResult<Self> {
        if i >= self.attributes.len() {
            return Err(StatsError::InvalidParameter {
                name: "attribute index",
                value: i as f64,
                constraint: "must be < num_attributes",
            });
        }
        if column.len() != self.len() {
            return Err(StatsError::SupportMismatch {
                left: column.len(),
                right: self.len(),
            });
        }
        let mut attributes = self.attributes.clone();
        attributes[i] = column;
        Ok(Self {
            attributes,
            labels: self.labels.clone(),
        })
    }
}

/// Configuration for the synthetic labeled-data generator.
///
/// The generative model is a simple noisy rule: the label is a function of
/// the first two attributes with probability `rule_strength`, and uniform
/// noise otherwise. This gives a learnable but non-trivial structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledConfig {
    /// Number of records.
    pub num_records: usize,
    /// Domain sizes of the attribute columns (at least two columns).
    pub attribute_domains: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Probability that a record follows the planted rule rather than noise.
    pub rule_strength: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LabeledConfig {
    fn default() -> Self {
        Self {
            num_records: 5_000,
            attribute_domains: vec![4, 3, 5, 2],
            num_classes: 2,
            rule_strength: 0.85,
            seed: 101,
        }
    }
}

/// Generates a labeled data set whose class is determined (with probability
/// `rule_strength`) by the parity of the first two attribute values.
pub fn generate(config: &LabeledConfig) -> StatsResult<LabeledDataset> {
    if config.num_records == 0 {
        return Err(StatsError::InvalidParameter {
            name: "num_records",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if config.attribute_domains.len() < 2 {
        return Err(StatsError::InvalidParameter {
            name: "attribute_domains",
            value: config.attribute_domains.len() as f64,
            constraint: "need at least two attributes",
        });
    }
    if config.attribute_domains.contains(&0) {
        return Err(StatsError::InvalidParameter {
            name: "attribute domain",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if config.num_classes == 0 {
        return Err(StatsError::InvalidParameter {
            name: "num_classes",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if !(0.0..=1.0).contains(&config.rule_strength) {
        return Err(StatsError::InvalidParameter {
            name: "rule_strength",
            value: config.rule_strength,
            constraint: "must be in [0, 1]",
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut columns: Vec<Vec<usize>> =
        vec![Vec::with_capacity(config.num_records); config.attribute_domains.len()];
    let mut labels = Vec::with_capacity(config.num_records);

    for _ in 0..config.num_records {
        let values: Vec<usize> = config
            .attribute_domains
            .iter()
            .map(|&d| rng.gen_range(0..d))
            .collect();
        let label = if rng.gen::<f64>() < config.rule_strength {
            (values[0] + values[1]) % config.num_classes
        } else {
            rng.gen_range(0..config.num_classes)
        };
        for (col, &v) in columns.iter_mut().zip(values.iter()) {
            col.push(v);
        }
        labels.push(label);
    }

    let attributes: Vec<CategoricalDataset> = columns
        .into_iter()
        .zip(config.attribute_domains.iter())
        .map(|(records, &domain)| CategoricalDataset::new(domain, records))
        .collect::<StatsResult<_>>()?;
    let labels = CategoricalDataset::new(config.num_classes, labels)?;
    LabeledDataset::new(attributes, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_lengths() {
        let a = CategoricalDataset::new(2, vec![0, 1, 0]).unwrap();
        let b = CategoricalDataset::new(3, vec![0, 1]).unwrap();
        let labels = CategoricalDataset::new(2, vec![0, 1, 1]).unwrap();
        assert!(LabeledDataset::new(vec![], labels.clone()).is_err());
        assert!(LabeledDataset::new(vec![a.clone(), b], labels.clone()).is_err());
        let ok = LabeledDataset::new(vec![a], labels).unwrap();
        assert_eq!(ok.len(), 3);
        assert_eq!(ok.num_attributes(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn row_access() {
        let a = CategoricalDataset::new(2, vec![0, 1]).unwrap();
        let b = CategoricalDataset::new(3, vec![2, 0]).unwrap();
        let labels = CategoricalDataset::new(2, vec![1, 0]).unwrap();
        let d = LabeledDataset::new(vec![a, b], labels).unwrap();
        assert_eq!(d.row(0).unwrap(), (vec![0, 2], 1));
        assert_eq!(d.row(1).unwrap(), (vec![1, 0], 0));
        assert!(d.row(2).is_none());
        assert!(d.attribute(0).is_some());
        assert!(d.attribute(5).is_none());
        assert_eq!(d.labels().len(), 2);
    }

    #[test]
    fn with_attribute_replaces_one_column() {
        let d = generate(&LabeledConfig {
            num_records: 10,
            ..Default::default()
        })
        .unwrap();
        let replacement =
            CategoricalDataset::new(d.attribute(0).unwrap().num_categories(), vec![0; 10]).unwrap();
        let swapped = d.with_attribute(0, replacement).unwrap();
        assert!(swapped
            .attribute(0)
            .unwrap()
            .records()
            .iter()
            .all(|&r| r == 0));
        // Other columns and labels untouched.
        assert_eq!(swapped.attribute(1), d.attribute(1));
        assert_eq!(swapped.labels(), d.labels());
        // Bad index or length rejected.
        assert!(d
            .with_attribute(99, CategoricalDataset::new(2, vec![0; 10]).unwrap())
            .is_err());
        assert!(d
            .with_attribute(0, CategoricalDataset::new(2, vec![0; 3]).unwrap())
            .is_err());
    }

    #[test]
    fn generator_validates_config() {
        assert!(generate(&LabeledConfig {
            num_records: 0,
            ..Default::default()
        })
        .is_err());
        assert!(generate(&LabeledConfig {
            attribute_domains: vec![3],
            ..Default::default()
        })
        .is_err());
        assert!(generate(&LabeledConfig {
            attribute_domains: vec![3, 0],
            ..Default::default()
        })
        .is_err());
        assert!(generate(&LabeledConfig {
            num_classes: 0,
            ..Default::default()
        })
        .is_err());
        assert!(generate(&LabeledConfig {
            rule_strength: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn generated_data_has_learnable_structure() {
        let cfg = LabeledConfig::default();
        let d = generate(&cfg).unwrap();
        assert_eq!(d.len(), cfg.num_records);
        assert_eq!(d.num_attributes(), 4);
        // The planted rule: label == (a0 + a1) mod 2 for most records.
        let mut agree = 0usize;
        for i in 0..d.len() {
            let (values, label) = d.row(i).unwrap();
            if (values[0] + values[1]) % cfg.num_classes == label {
                agree += 1;
            }
        }
        let rate = agree as f64 / d.len() as f64;
        assert!(rate > 0.8, "rule agreement {rate}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&LabeledConfig::default()).unwrap();
        let b = generate(&LabeledConfig::default()).unwrap();
        assert_eq!(a, b);
        let c = generate(&LabeledConfig {
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a, c);
    }
}
