//! # optrr-datagen
//!
//! Workload generation for the OptRR reproduction (Huang & Du, ICDE 2008).
//!
//! The paper evaluates on:
//!
//! * synthetic single-attribute categorical data (10 categories, 10,000
//!   records) whose category probabilities follow normal, gamma, or
//!   discrete-uniform distributions (Figures 4 and 5(a)/(b)) —
//!   [`synthetic`];
//! * the first attribute of the UCI Adult data set (Figure 5(c)) — replaced
//!   here, per DESIGN.md's substitution policy, by a synthetic surrogate
//!   with the same marginal shape — [`adult`];
//!
//! plus, to exercise the data-mining applications that motivate the paper
//! (association rules, decision trees), [`transactions`] and [`labeled`]
//! generators with planted ground-truth structure.
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adult;
pub mod dataset;
pub mod labeled;
pub mod synthetic;
pub mod transactions;

pub use adult::AdultConfig;
pub use dataset::CategoricalDataset;
pub use labeled::{LabeledConfig, LabeledDataset};
pub use synthetic::{SourceDistribution, SyntheticConfig};
pub use transactions::{TransactionConfig, TransactionDataset};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]

        #[test]
        fn synthetic_workloads_are_consistent(
            n in 2usize..=15,
            records in 100usize..3000,
            seed in 0u64..50,
            which in 0usize..4
        ) {
            let source = match which {
                0 => SourceDistribution::standard_normal(),
                1 => SourceDistribution::paper_gamma(),
                2 => SourceDistribution::DiscreteUniform,
                _ => SourceDistribution::Zipf { exponent: 1.0 },
            };
            let cfg = SyntheticConfig { num_categories: n, num_records: records, source, seed };
            let w = synthetic::generate(&cfg).unwrap();
            prop_assert_eq!(w.dataset.len(), records);
            prop_assert_eq!(w.dataset.num_categories(), n);
            prop_assert_eq!(w.true_distribution.num_categories(), n);
            prop_assert!(w.dataset.records().iter().all(|&r| r < n));
            let total: f64 = w.true_distribution.probs().iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn adult_surrogate_scales(records in 100usize..5000, bins in 2usize..=15, seed in 0u64..20) {
            let cfg = AdultConfig { num_records: records, age_bins: bins, seed };
            let s = adult::generate(&cfg).unwrap();
            prop_assert_eq!(s.age.len(), records);
            prop_assert_eq!(s.age.num_categories(), bins);
            prop_assert_eq!(s.raw_ages.len(), records);
            prop_assert!(s.raw_ages.iter().all(|&a| (17.0..=90.0).contains(&a)));
        }

        #[test]
        fn transaction_supports_are_probabilities(
            items in 2usize..=30,
            txns in 10usize..500,
            p in 0.0f64..0.4,
            seed in 0u64..20
        ) {
            let cfg = TransactionConfig {
                num_items: items,
                num_transactions: txns,
                background_prob: p,
                planted_itemsets: vec![(vec![0, 1.min(items - 1)], 0.3)],
                seed,
            };
            let d = transactions::generate(&cfg).unwrap();
            prop_assert_eq!(d.len(), txns);
            for i in 0..items.min(5) {
                let s = d.support(&[i]);
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }

        #[test]
        fn labeled_data_rows_are_within_domains(
            records in 50usize..1000,
            classes in 2usize..=4,
            seed in 0u64..20
        ) {
            let cfg = LabeledConfig {
                num_records: records,
                num_classes: classes,
                seed,
                ..Default::default()
            };
            let d = labeled::generate(&cfg).unwrap();
            prop_assert_eq!(d.len(), records);
            for i in 0..d.len().min(20) {
                let (values, label) = d.row(i).unwrap();
                prop_assert!(label < classes);
                for (j, v) in values.iter().enumerate() {
                    prop_assert!(*v < d.attribute(j).unwrap().num_categories());
                }
            }
        }
    }
}
