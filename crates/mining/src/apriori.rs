//! Apriori frequent-itemset and association-rule mining, over original or
//! disguised transaction data.
//!
//! This implements the classical level-wise Apriori algorithm with a
//! pluggable support oracle, so the same mining code runs:
//!
//! * directly on original transactions (exact supports), and
//! * on randomized-response-disguised transactions, where supports are
//!   *estimated* through the RR reconstruction of
//!   [`crate::transactions::estimate_support`] — the privacy-preserving
//!   setting of Rizvi & Haritsa / Evfimievski et al. that motivates the
//!   paper.

use crate::error::{MiningError, Result};
use crate::transactions::estimate_support;
use datagen::TransactionDataset;
use rr::RrMatrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A frequent itemset with its (estimated) support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Vec<usize>,
    /// The (estimated) fraction of transactions containing all the items.
    pub support: f64,
}

/// An association rule `antecedent => consequent` with its support and
/// confidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssociationRule {
    /// Items on the left-hand side.
    pub antecedent: Vec<usize>,
    /// Items on the right-hand side.
    pub consequent: Vec<usize>,
    /// Support of the full itemset.
    pub support: f64,
    /// Confidence `support(antecedent ∪ consequent) / support(antecedent)`.
    pub confidence: f64,
}

/// A source of itemset supports: either the original transactions or a
/// disguised data set paired with the RR matrix used to disguise it.
pub enum SupportOracle<'a> {
    /// Exact supports from undisguised transactions.
    Exact(&'a TransactionDataset),
    /// Estimated supports reconstructed from disguised transactions.
    Reconstructed {
        /// The 2-category RR matrix each bit was disguised with.
        matrix: &'a RrMatrix,
        /// The disguised transactions.
        disguised: &'a TransactionDataset,
    },
}

impl SupportOracle<'_> {
    /// Number of distinct items in the universe.
    pub fn num_items(&self) -> usize {
        match self {
            SupportOracle::Exact(d) => d.num_items(),
            SupportOracle::Reconstructed { disguised, .. } => disguised.num_items(),
        }
    }

    /// The (estimated) support of an itemset.
    pub fn support(&self, itemset: &[usize]) -> Result<f64> {
        match self {
            SupportOracle::Exact(d) => Ok(d.support(itemset)),
            SupportOracle::Reconstructed { matrix, disguised } => {
                estimate_support(matrix, disguised, itemset)
            }
        }
    }
}

/// Configuration of the Apriori run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AprioriConfig {
    /// Minimum support for an itemset to be considered frequent.
    pub min_support: f64,
    /// Minimum confidence for a rule to be reported.
    pub min_confidence: f64,
    /// Maximum itemset size explored (bounds the exponential reconstruction
    /// cost in the disguised setting).
    pub max_itemset_size: usize,
}

impl AprioriConfig {
    fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.min_support) {
            return Err(MiningError::InvalidParameter {
                name: "min_support",
                value: self.min_support,
                constraint: "must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(MiningError::InvalidParameter {
                name: "min_confidence",
                value: self.min_confidence,
                constraint: "must be in [0, 1]",
            });
        }
        if self.max_itemset_size == 0 {
            return Err(MiningError::InvalidParameter {
                name: "max_itemset_size",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        Ok(())
    }
}

/// Runs level-wise Apriori against the given support oracle, returning all
/// frequent itemsets up to `max_itemset_size`.
pub fn frequent_itemsets(
    oracle: &SupportOracle<'_>,
    config: &AprioriConfig,
) -> Result<Vec<FrequentItemset>> {
    config.validate()?;
    let num_items = oracle.num_items();
    let mut all: Vec<FrequentItemset> = Vec::new();

    // Level 1: single items.
    let mut current_level: Vec<Vec<usize>> = Vec::new();
    for item in 0..num_items {
        let support = oracle.support(&[item])?;
        if support >= config.min_support {
            current_level.push(vec![item]);
            all.push(FrequentItemset {
                items: vec![item],
                support,
            });
        }
    }

    // Levels 2..=max: candidate generation by prefix join + prune, then
    // support counting through the oracle.
    let mut level = 1usize;
    while !current_level.is_empty() && level < config.max_itemset_size {
        level += 1;
        let frequent_prev: BTreeSet<Vec<usize>> = current_level.iter().cloned().collect();
        let mut next_level: Vec<Vec<usize>> = Vec::new();
        for i in 0..current_level.len() {
            for j in (i + 1)..current_level.len() {
                let a = &current_level[i];
                let b = &current_level[j];
                // Join when the first k-1 items agree.
                if a[..level - 2] != b[..level - 2] {
                    continue;
                }
                let mut candidate = a.clone();
                candidate.push(b[level - 2]);
                candidate.sort_unstable();
                candidate.dedup();
                if candidate.len() != level {
                    continue;
                }
                // Prune: every (k-1)-subset must be frequent.
                let all_subsets_frequent = (0..candidate.len()).all(|drop| {
                    let mut subset = candidate.clone();
                    subset.remove(drop);
                    frequent_prev.contains(&subset)
                });
                if !all_subsets_frequent {
                    continue;
                }
                let support = oracle.support(&candidate)?;
                if support >= config.min_support {
                    all.push(FrequentItemset {
                        items: candidate.clone(),
                        support,
                    });
                    next_level.push(candidate);
                }
            }
        }
        next_level.sort_unstable();
        next_level.dedup();
        current_level = next_level;
    }
    Ok(all)
}

/// Derives association rules from the frequent itemsets: for every frequent
/// itemset of size ≥ 2 and every non-empty proper subset as antecedent,
/// reports the rule when its confidence clears the threshold.
pub fn association_rules(
    oracle: &SupportOracle<'_>,
    itemsets: &[FrequentItemset],
    config: &AprioriConfig,
) -> Result<Vec<AssociationRule>> {
    config.validate()?;
    let mut rules = Vec::new();
    for itemset in itemsets.iter().filter(|s| s.items.len() >= 2) {
        let k = itemset.items.len();
        // Enumerate non-empty proper subsets via bitmasks.
        for mask in 1..((1usize << k) - 1) {
            let antecedent: Vec<usize> = (0..k)
                .filter(|bit| mask & (1 << bit) != 0)
                .map(|bit| itemset.items[bit])
                .collect();
            let consequent: Vec<usize> = (0..k)
                .filter(|bit| mask & (1 << bit) == 0)
                .map(|bit| itemset.items[bit])
                .collect();
            let antecedent_support = oracle.support(&antecedent)?;
            if antecedent_support <= 0.0 {
                continue;
            }
            let confidence = (itemset.support / antecedent_support).min(1.0);
            if confidence >= config.min_confidence {
                rules.push(AssociationRule {
                    antecedent,
                    consequent,
                    support: itemset.support,
                    confidence,
                });
            }
        }
    }
    Ok(rules)
}

/// Convenience wrapper: mines frequent itemsets and rules in one call.
pub fn mine(
    oracle: &SupportOracle<'_>,
    config: &AprioriConfig,
) -> Result<(Vec<FrequentItemset>, Vec<AssociationRule>)> {
    let itemsets = frequent_itemsets(oracle, config)?;
    let rules = association_rules(oracle, &itemsets, config)?;
    Ok((itemsets, rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::disguise_transactions;
    use datagen::transactions::{generate, TransactionConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::schemes::warner;

    fn planted_data(n: usize) -> TransactionDataset {
        generate(&TransactionConfig {
            num_items: 12,
            num_transactions: n,
            background_prob: 0.03,
            planted_itemsets: vec![(vec![0, 1], 0.35), (vec![2, 3, 4], 0.25)],
            seed: 11,
        })
        .unwrap()
    }

    /// The base configuration the unit tests vary one field of.
    impl Default for AprioriConfig {
        fn default() -> Self {
            Self {
                min_support: 0.1,
                min_confidence: 0.6,
                max_itemset_size: 4,
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(AprioriConfig::default().validate().is_ok());
        assert!(AprioriConfig {
            min_support: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AprioriConfig {
            min_confidence: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AprioriConfig {
            max_itemset_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        let oracle = SupportOracle::Exact(&planted_data(100));
        assert!(frequent_itemsets(
            &oracle,
            &AprioriConfig {
                min_support: 2.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exact_mining_finds_planted_itemsets() {
        let data = planted_data(8_000);
        let oracle = SupportOracle::Exact(&data);
        let config = AprioriConfig {
            min_support: 0.15,
            min_confidence: 0.6,
            max_itemset_size: 3,
        };
        let (itemsets, rules) = mine(&oracle, &config).unwrap();

        let has = |items: &[usize]| itemsets.iter().any(|s| s.items == items);
        assert!(has(&[0]));
        assert!(has(&[1]));
        assert!(has(&[0, 1]), "planted pair must be frequent");
        assert!(has(&[2, 3, 4]), "planted triple must be frequent");
        // Background-only items are not frequent at 15%.
        assert!(!has(&[10]));
        // The planted pair produces high-confidence rules in both directions.
        assert!(rules
            .iter()
            .any(|r| r.antecedent == vec![0] && r.consequent == vec![1] && r.confidence > 0.7));
    }

    #[test]
    fn supports_are_monotone_along_subsets() {
        let data = planted_data(5_000);
        let oracle = SupportOracle::Exact(&data);
        let config = AprioriConfig {
            min_support: 0.05,
            min_confidence: 0.5,
            max_itemset_size: 3,
        };
        let itemsets = frequent_itemsets(&oracle, &config).unwrap();
        for set in itemsets.iter().filter(|s| s.items.len() == 2) {
            for &item in &set.items {
                let single = itemsets
                    .iter()
                    .find(|s| s.items == vec![item])
                    .expect("subsets of frequent itemsets are frequent (Apriori property)");
                assert!(single.support >= set.support - 1e-12);
            }
        }
    }

    #[test]
    fn mining_disguised_data_recovers_the_same_top_itemsets() {
        let data = planted_data(20_000);
        let m = warner(2, 0.85).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let disguised = disguise_transactions(&m, &data, &mut rng).unwrap();

        let config = AprioriConfig {
            min_support: 0.18,
            min_confidence: 0.6,
            max_itemset_size: 3,
        };
        let exact = frequent_itemsets(&SupportOracle::Exact(&data), &config).unwrap();
        let reconstructed = frequent_itemsets(
            &SupportOracle::Reconstructed {
                matrix: &m,
                disguised: &disguised,
            },
            &config,
        )
        .unwrap();

        // The reconstructed run finds the same planted structures.
        let has = |sets: &[FrequentItemset], items: &[usize]| sets.iter().any(|s| s.items == items);
        assert!(has(&reconstructed, &[0, 1]));
        assert!(has(&reconstructed, &[2, 3, 4]));
        // And the estimated supports are close to the exact ones.
        for set in &exact {
            if let Some(est) = reconstructed.iter().find(|s| s.items == set.items) {
                assert!(
                    (est.support - set.support).abs() < 0.05,
                    "itemset {:?}: {} vs {}",
                    set.items,
                    est.support,
                    set.support
                );
            }
        }
    }

    #[test]
    fn rules_respect_confidence_threshold() {
        let data = planted_data(5_000);
        let oracle = SupportOracle::Exact(&data);
        let config = AprioriConfig {
            min_support: 0.1,
            min_confidence: 0.9,
            max_itemset_size: 2,
        };
        let (_, strict_rules) = mine(&oracle, &config).unwrap();
        for r in &strict_rules {
            assert!(r.confidence >= 0.9);
            assert!(r.support >= 0.1);
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
        }
        let relaxed = AprioriConfig {
            min_confidence: 0.3,
            ..config
        };
        let (_, relaxed_rules) = mine(&oracle, &relaxed).unwrap();
        assert!(relaxed_rules.len() >= strict_rules.len());
    }

    #[test]
    fn empty_results_when_support_threshold_is_too_high() {
        let data = planted_data(1_000);
        let oracle = SupportOracle::Exact(&data);
        let config = AprioriConfig {
            min_support: 0.99,
            min_confidence: 0.5,
            max_itemset_size: 3,
        };
        let (itemsets, rules) = mine(&oracle, &config).unwrap();
        assert!(itemsets.is_empty());
        assert!(rules.is_empty());
    }
}
