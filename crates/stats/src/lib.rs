//! # optrr-stats
//!
//! Statistics substrate for the OptRR reproduction (Huang & Du, ICDE 2008).
//!
//! The paper's workloads are single-attribute categorical data sets whose
//! category probabilities follow normal, gamma, or uniform distributions
//! (Section VI.C), and both its privacy and utility metrics are estimation
//! quantities built from categorical distributions and multinomial counts.
//! This crate provides those building blocks, implemented from scratch on
//! top of `rand`'s uniform source:
//!
//! * [`Categorical`] — finite discrete distributions with sampling and
//!   mode/argmax helpers; [`Categorical::from_counts`] is the empirical
//!   distribution (the MLE `N_i / N` of Theorem 1).
//! * [`continuous`] — analytic normal and gamma distributions (pdf, cdf,
//!   moments) with an `erf` and incomplete-gamma implementation.
//! * [`sampler`] — Box–Muller and Marsaglia–Tsang samplers, and the Zipf
//!   law.
//! * [`discretize`] — equal-width binning of continuous distributions and
//!   samples into `n` categories (the workload construction of §VI).
//! * [`CountSet`] — the one type for category counts `N_i`: mergeable
//!   batch accumulators of categorical responses (the substrate of the
//!   streaming ingest pipeline).
//! * [`multinomial`] — `Var(N_i/N)` and `Cov(N_i/N, N_j/N)` (Theorem 6).
//! * [`divergence`] — MSE and total variation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Negated comparisons like `!(x > 0.0)` are deliberate NaN-rejecting
// guards, and a few index loops walk several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

pub mod categorical;
pub mod continuous;
pub mod counts;
pub mod discretize;
pub mod divergence;
pub mod error;
pub mod multinomial;
pub mod sampler;

pub use categorical::{normalize_probabilities, Categorical};
pub use continuous::{ContinuousDistribution, Gamma, Normal};
pub use counts::CountSet;
pub use discretize::{assign_bins, discretize_distribution, EqualWidthBins};
pub use error::{Result, StatsError};
pub use sampler::{Sampler, Zipf};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probability_vec() -> impl Strategy<Value = Vec<f64>> {
        (2usize..=12).prop_flat_map(|n| {
            proptest::collection::vec(0.01f64..1.0, n).prop_map(|raw| {
                let s: f64 = raw.iter().sum();
                raw.into_iter().map(|x| x / s).collect()
            })
        })
    }

    proptest! {
        #[test]
        fn categorical_round_trip(probs in probability_vec()) {
            let d = Categorical::new(probs.clone()).unwrap();
            prop_assert_eq!(d.num_categories(), probs.len());
            let total: f64 = d.probs().iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(d.max_prob() <= 1.0 + 1e-12);
        }

        #[test]
        fn empirical_distribution_converges(probs in probability_vec(), seed in 0u64..100) {
            let d = Categorical::new(probs).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let samples = d.sample_many(&mut rng, 20_000);
            let mut counts = CountSet::new(d.num_categories()).unwrap();
            counts.add_records(&samples).unwrap();
            let emp = counts.empirical_distribution().unwrap();
            // Convergence within a loose tolerance per category.
            for i in 0..d.num_categories() {
                prop_assert!((emp.prob(i) - d.prob(i)).abs() < 0.03);
            }
        }

        #[test]
        fn divergences_are_nonnegative(p in probability_vec(), q in probability_vec()) {
            let n = p.len().min(q.len());
            let renorm = |v: &[f64]| {
                let s: f64 = v[..n].iter().sum();
                Categorical::new(v[..n].iter().map(|x| x / s).collect()).unwrap()
            };
            let (p, q) = (renorm(&p), renorm(&q));
            prop_assert!(divergence::mean_squared_error(&p, &q).unwrap() >= 0.0);
            prop_assert!(divergence::total_variation(&p, &q).unwrap() >= 0.0);
        }

        #[test]
        fn discretized_distribution_is_valid(n in 2usize..=20, mu in -5.0f64..5.0, sigma in 0.1f64..3.0) {
            let d = discretize_distribution(&Normal::new(mu, sigma).unwrap(), n).unwrap();
            prop_assert_eq!(d.num_categories(), n);
            let total: f64 = d.probs().iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
