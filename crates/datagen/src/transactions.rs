//! Synthetic transaction (market-basket) data.
//!
//! The paper's related work (Rizvi–Haritsa, Evfimievski et al.) motivates
//! randomized response through privacy-preserving association rule mining.
//! The mining crate and the `ppdm_association_rules` example need binary
//! transaction data; this module generates it with controllable ground-truth
//! itemset correlations so tests can verify that mining over disguised data
//! recovers the planted patterns.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use stats::{Result as StatsResult, StatsError};

/// A binary transaction data set: each transaction is the set of item
/// indices it contains, over a fixed universe of `num_items` items.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionDataset {
    num_items: usize,
    transactions: Vec<Vec<usize>>,
}

impl TransactionDataset {
    /// Creates a transaction data set, validating item indices.
    pub fn new(num_items: usize, transactions: Vec<Vec<usize>>) -> StatsResult<Self> {
        if num_items == 0 {
            return Err(StatsError::InvalidParameter {
                name: "num_items",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        for t in &transactions {
            if let Some(&bad) = t.iter().find(|&&i| i >= num_items) {
                return Err(StatsError::InvalidParameter {
                    name: "item",
                    value: bad as f64,
                    constraint: "must be < num_items",
                });
            }
        }
        Ok(Self {
            num_items,
            transactions,
        })
    }

    /// Number of distinct items in the universe.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the data set is empty.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The support (fraction of transactions containing every item of
    /// `itemset`) of an itemset.
    pub fn support(&self, itemset: &[usize]) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        let count = self
            .transactions
            .iter()
            .filter(|t| itemset.iter().all(|i| t.contains(i)))
            .count();
        count as f64 / self.transactions.len() as f64
    }

    /// The per-item bit vector of one transaction.
    pub fn bitmap(&self, idx: usize) -> Option<Vec<bool>> {
        self.transactions.get(idx).map(|t| {
            let mut bits = vec![false; self.num_items];
            for &i in t {
                bits[i] = true;
            }
            bits
        })
    }
}

/// Configuration for the synthetic transaction generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionConfig {
    /// Universe size (number of distinct items).
    pub num_items: usize,
    /// Number of transactions.
    pub num_transactions: usize,
    /// Baseline probability that an item appears in a transaction,
    /// independent of the planted patterns.
    pub background_prob: f64,
    /// Planted frequent itemsets: each `(items, probability)` pair makes the
    /// whole itemset appear jointly with the given probability.
    pub planted_itemsets: Vec<(Vec<usize>, f64)>,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a synthetic transaction data set with planted frequent
/// itemsets over independent background noise.
pub fn generate(config: &TransactionConfig) -> StatsResult<TransactionDataset> {
    if config.num_items == 0 {
        return Err(StatsError::InvalidParameter {
            name: "num_items",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if config.num_transactions == 0 {
        return Err(StatsError::InvalidParameter {
            name: "num_transactions",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if !(0.0..=1.0).contains(&config.background_prob) {
        return Err(StatsError::InvalidParameter {
            name: "background_prob",
            value: config.background_prob,
            constraint: "must be in [0, 1]",
        });
    }
    for (items, p) in &config.planted_itemsets {
        if !(0.0..=1.0).contains(p) {
            return Err(StatsError::InvalidParameter {
                name: "planted probability",
                value: *p,
                constraint: "must be in [0, 1]",
            });
        }
        if let Some(&bad) = items.iter().find(|&&i| i >= config.num_items) {
            return Err(StatsError::InvalidParameter {
                name: "planted item",
                value: bad as f64,
                constraint: "must be < num_items",
            });
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut transactions = Vec::with_capacity(config.num_transactions);
    for _ in 0..config.num_transactions {
        let mut present = vec![false; config.num_items];
        for bit in present.iter_mut() {
            if rng.gen::<f64>() < config.background_prob {
                *bit = true;
            }
        }
        for (items, p) in &config.planted_itemsets {
            if rng.gen::<f64>() < *p {
                for &i in items {
                    present[i] = true;
                }
            }
        }
        let t: Vec<usize> = present
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| if b { Some(i) } else { None })
            .collect();
        transactions.push(t);
    }
    TransactionDataset::new(config.num_items, transactions)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two planted itemsets over 20 items and 5,000 transactions.
    fn config() -> TransactionConfig {
        TransactionConfig {
            num_items: 20,
            num_transactions: 5_000,
            background_prob: 0.05,
            planted_itemsets: vec![(vec![0, 1], 0.30), (vec![2, 3, 4], 0.20)],
            seed: 7,
        }
    }

    #[test]
    fn dataset_construction_validates() {
        assert!(TransactionDataset::new(0, vec![]).is_err());
        assert!(TransactionDataset::new(3, vec![vec![0, 3]]).is_err());
        let d = TransactionDataset::new(3, vec![vec![0, 1], vec![2]]).unwrap();
        assert_eq!(d.num_items(), 3);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn support_counts_containing_transactions() {
        let d = TransactionDataset::new(4, vec![vec![0, 1], vec![0, 1, 2], vec![2, 3]]).unwrap();
        assert!((d.support(&[0, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.support(&[2]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.support(&[0, 3]), 0.0);
        assert_eq!(d.support(&[]), 1.0);
        let empty = TransactionDataset::new(2, vec![]).unwrap();
        assert_eq!(empty.support(&[0]), 0.0);
    }

    #[test]
    fn bitmap_expands_items() {
        let d = TransactionDataset::new(4, vec![vec![1, 3]]).unwrap();
        assert_eq!(d.bitmap(0).unwrap(), vec![false, true, false, true]);
        assert!(d.bitmap(7).is_none());
    }

    #[test]
    fn generator_validates_config() {
        assert!(generate(&TransactionConfig {
            num_items: 0,
            ..config()
        })
        .is_err());
        assert!(generate(&TransactionConfig {
            num_transactions: 0,
            ..config()
        })
        .is_err());
        assert!(generate(&TransactionConfig {
            background_prob: 1.5,
            ..config()
        })
        .is_err());
        assert!(generate(&TransactionConfig {
            planted_itemsets: vec![(vec![99], 0.5)],
            ..config()
        })
        .is_err());
        assert!(generate(&TransactionConfig {
            planted_itemsets: vec![(vec![0], 1.5)],
            ..config()
        })
        .is_err());
    }

    #[test]
    fn planted_itemsets_are_frequent() {
        let cfg = config();
        let d = generate(&cfg).unwrap();
        assert_eq!(d.len(), cfg.num_transactions);
        // The planted pair {0,1} should appear in at least ~30% of
        // transactions (background adds a little more).
        assert!(d.support(&[0, 1]) > 0.28, "support {}", d.support(&[0, 1]));
        // The planted triple appears in at least ~20%.
        assert!(d.support(&[2, 3, 4]) > 0.18);
        // An unplanted pair of background items is rare.
        assert!(d.support(&[10, 11]) < 0.05);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = config();
        assert_eq!(generate(&cfg).unwrap(), generate(&cfg).unwrap());
        let other = generate(&TransactionConfig { seed: 8, ..cfg }).unwrap();
        assert_ne!(generate(&config()).unwrap(), other);
    }
}
