//! # optrr-mining
//!
//! Privacy-preserving data-mining applications over randomized-response
//! data, reproducing the downstream computations that motivate the OptRR
//! paper (Huang & Du, ICDE 2008): the point of choosing a good RR matrix is
//! that the disguised data still supports useful mining.
//!
//! * [`reconstruct`] — distribution reconstruction as a pluggable primitive
//!   (inversion or iterative estimator).
//! * [`transactions`] — per-bit randomized response over market-basket
//!   data and itemset-support reconstruction (the Rizvi–Haritsa /
//!   Evfimievski et al. setting).
//! * [`apriori`] — level-wise Apriori frequent-itemset and association-rule
//!   mining with a pluggable support oracle (exact or reconstructed).
//! * [`decision_tree`] — ID3-style decision-tree building where disguised
//!   attribute columns have their per-node counts corrected through `M⁻¹`
//!   (the Du–Zhan setting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Negated comparisons like `!(x > 0.0)` are deliberate NaN-rejecting
// guards, and a few index loops walk several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

pub mod apriori;
pub mod decision_tree;
pub mod error;
pub mod reconstruct;
pub mod transactions;

pub use apriori::{
    frequent_itemsets, mine, AprioriConfig, AssociationRule, FrequentItemset, SupportOracle,
};
pub use error::{MiningError, Result};
pub use reconstruct::Reconstructor;
pub use transactions::{disguise_transactions, estimate_support};

#[cfg(test)]
mod proptests {
    use super::*;
    use datagen::TransactionDataset;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::schemes::warner;

    fn arb_transactions() -> impl Strategy<Value = TransactionDataset> {
        (3usize..=8, 20usize..200).prop_flat_map(|(items, txns)| {
            proptest::collection::vec(
                proptest::collection::vec(0usize..items, 0..items),
                txns..txns + 1,
            )
            .prop_map(move |mut raw| {
                for t in &mut raw {
                    t.sort_unstable();
                    t.dedup();
                }
                TransactionDataset::new(items, raw).unwrap()
            })
        })
    }

    /// Each transaction of `data` as the sorted items its bitmap sets.
    fn item_sets(data: &TransactionDataset) -> Vec<Vec<usize>> {
        (0..data.len())
            .map(|t| {
                let bits = data.bitmap(t).unwrap();
                (0..bits.len()).filter(|&item| bits[item]).collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]

        #[test]
        fn disguised_transactions_keep_shape(data in arb_transactions(), seed in 0u64..100) {
            let m = warner(2, 0.85).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let disguised = disguise_transactions(&m, &data, &mut rng).unwrap();
            prop_assert_eq!(disguised.len(), data.len());
            prop_assert_eq!(disguised.num_items(), data.num_items());
            // Transactions are sets (sorted unique indices by construction)
            // of items in range: rebuilt from their bitmaps, the disguised
            // data set is unchanged.
            let rebuilt = TransactionDataset::new(data.num_items(), item_sets(&disguised)).unwrap();
            prop_assert_eq!(rebuilt, disguised);
        }

        #[test]
        fn estimated_supports_are_probabilities(data in arb_transactions(), seed in 0u64..100) {
            let m = warner(2, 0.9).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let disguised = disguise_transactions(&m, &data, &mut rng).unwrap();
            for item in 0..data.num_items().min(4) {
                let s = estimate_support(&m, &disguised, &[item]).unwrap();
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }

        #[test]
        fn apriori_itemsets_respect_the_apriori_property(data in arb_transactions()) {
            let oracle = SupportOracle::Exact(&data);
            let config = AprioriConfig { min_support: 0.2, min_confidence: 0.5, max_itemset_size: 3 };
            let itemsets = frequent_itemsets(&oracle, &config).unwrap();
            // Every reported itemset clears the threshold and its sub-itemsets
            // are also reported (downward closure).
            for set in &itemsets {
                prop_assert!(set.support >= config.min_support);
                if set.items.len() >= 2 {
                    for drop in 0..set.items.len() {
                        let mut sub = set.items.clone();
                        sub.remove(drop);
                        prop_assert!(
                            itemsets.iter().any(|s| s.items == sub),
                            "missing sub-itemset {:?} of {:?}", sub, set.items
                        );
                    }
                }
            }
        }
    }
}
