//! # optrr (optrr-core)
//!
//! Reproduction of **OptRR: Optimizing Randomized Response Schemes for
//! Privacy-Preserving Data Mining** (Zhengli Huang and Wenliang Du,
//! ICDE 2008).
//!
//! OptRR searches the space of randomized-response (RR) matrices for a
//! *Pareto set* of matrices that jointly optimize two conflicting goals:
//!
//! * **privacy** — one minus the best accuracy a MAP (Bayes) adversary can
//!   achieve when guessing individual original values from their disguised
//!   values (Section IV.A of the paper);
//! * **utility** — the closed-form mean squared error of the reconstructed
//!   data distribution under the matrix-inversion estimator
//!   (Section IV.B / Theorem 6), where lower is better.
//!
//! The search is an evolutionary multi-objective optimization based on
//! SPEA2 (engine in the `emoo` crate) with RR-specific operators: a
//! column-swap crossover, a column-proportional mutation, a repair step
//! enforcing the worst-case bound `max P(X|Y) ≤ δ`, and a large
//! privacy-indexed side store Ω that keeps good matrices the bounded
//! archive would otherwise discard.
//!
//! ## Crate map
//!
//! * [`config`] — [`OptrrConfig`]: δ, record count, engine parameters.
//! * [`problem`] — [`OptrrProblem`]: the two-objective problem definition.
//! * [`operators`] — crossover / mutation / δ-bound repair.
//! * [`omega`] — the optimal set Ω.
//! * [`optimizer`] — [`Optimizer`]: the full OptRR loop.
//! * [`baselines`] — Warner / UP / FRAPP parameter sweeps (the paper's
//!   comparison baselines, §VI.B).
//! * [`front`] — Pareto fronts in the paper's (privacy, MSE) convention
//!   and their quantitative comparison.
//! * [`search_space`] — Fact 1's search-space counting.
//! * [`tune`] — the benchmark-header readout of the retired parallel
//!   thresholds (both `usize::MAX`: nothing inside a run goes parallel).
//! * [`report`] — experiment report formatting (tables / CSV / JSON).
//!
//! ## Quick example
//!
//! ```
//! use optrr::{Optimizer, OptrrConfig};
//! use stats::Categorical;
//!
//! // A small, skewed 5-category attribute with a privacy bound of 0.8.
//! let prior = Categorical::new(vec![0.35, 0.25, 0.2, 0.12, 0.08]).unwrap();
//! let mut config = OptrrConfig::fast(0.8, 42);
//! config.engine.generations = 20; // keep the doc test fast
//! let outcome = Optimizer::new(config).unwrap()
//!     .optimize_distribution(&prior)
//!     .unwrap();
//! assert!(!outcome.front.is_empty());
//! // Ask Ω for a matrix meeting a minimum privacy requirement.
//! let m = outcome.recommend_for_privacy(0.2);
//! assert!(m.is_none() || m.unwrap().num_categories() == 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod error;
pub mod front;
pub mod omega;
pub mod operators;
pub mod optimizer;
pub mod problem;
pub mod report;
pub mod search_space;
pub mod tune;

pub use baselines::{baseline_sweep, BaselinePoint, BaselineSweep, PAPER_SWEEP_STEPS};
pub use config::OptrrConfig;
pub use error::{OptrrError, Result};
pub use front::{FrontComparison, FrontPoint, ParetoFront};
pub use omega::{fnv1a_64, omega_fingerprint, OmegaEntry, OmegaSet};
pub use optimizer::{
    GenerationObservation, GenerationObserver, Optimizer, OptrrOutcome, RunStatistics,
};
pub use problem::{Evaluation, OptrrProblem};
pub use report::ExperimentReport;
pub use tune::{tuning, Tuning};

// Re-export the scheme kinds so downstream code does not need to name the
// rr crate for the common baseline sweep call.
pub use rr::schemes::SchemeKind;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::metrics::bounds::satisfies_delta_bound;
    use rr::RrMatrix;
    use stats::Categorical;

    fn arb_prior() -> impl Strategy<Value = Categorical> {
        (3usize..=7).prop_flat_map(|n| {
            proptest::collection::vec(0.05f64..1.0, n).prop_map(|raw| {
                let s: f64 = raw.iter().sum();
                Categorical::new(raw.into_iter().map(|x| x / s).collect()).unwrap()
            })
        })
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]

        #[test]
        fn operators_preserve_stochasticity(prior in arb_prior(), seed in 0u64..1000) {
            let n = prior.num_categories();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = RrMatrix::random(n, &mut rng).unwrap();
            let b = RrMatrix::random(n, &mut rng).unwrap();
            let (c1, c2) = operators::column_swap_crossover(&a, &b, &mut rng);
            prop_assert!(c1.as_matrix().is_column_stochastic(1e-9));
            prop_assert!(c2.as_matrix().is_column_stochastic(1e-9));
            let m = operators::proportional_column_mutation(&c1, 0.3, &mut rng);
            prop_assert!(m.as_matrix().is_column_stochastic(1e-9));
            let (r, _) = operators::repair_to_delta_bound(&m, &prior, 0.8, &mut rng);
            prop_assert!(r.as_matrix().is_column_stochastic(1e-9));
        }

        #[test]
        fn repair_achieves_any_achievable_bound(prior in arb_prior(), seed in 0u64..1000) {
            // Pick a delta strictly above the prior mode so the bound is
            // achievable (Theorem 5), then check the repair achieves it.
            let delta = (prior.max_prob() + 0.1).min(0.98);
            let n = prior.num_categories();
            let mut rng = StdRng::seed_from_u64(seed);
            let m = RrMatrix::random(n, &mut rng).unwrap();
            let (repaired, ok) = operators::repair_to_delta_bound(&m, &prior, delta, &mut rng);
            prop_assert!(ok, "repair failed for achievable delta {}", delta);
            prop_assert!(satisfies_delta_bound(&repaired, &prior, delta, 1e-6).unwrap());
        }

        #[test]
        fn omega_entries_are_always_mutually_consistent(
            privacies in proptest::collection::vec(0.0f64..0.8, 1..40),
            mses in proptest::collection::vec(1e-6f64..1e-2, 1..40)
        ) {
            let mut omega = OmegaSet::new(64);
            let m = rr::schemes::warner(4, 0.7).unwrap();
            for (p, u) in privacies.iter().zip(mses.iter()) {
                let eval = Evaluation { privacy: *p, mse: *u, max_posterior: 0.7, feasible: true };
                omega.offer(&m, &eval);
            }
            // Each filled slot holds an entry whose privacy maps to that slot.
            for slot in 0..omega.num_slots() {
                if let Some(e) = omega.entry(slot) {
                    prop_assert_eq!(omega.slot_of(e.evaluation.privacy), slot);
                }
            }
            // Pareto entries are mutually non-dominated in (privacy up, mse down).
            let pareto = omega.pareto_entries();
            for a in &pareto {
                for b in &pareto {
                    let dominates = b.evaluation.privacy >= a.evaluation.privacy
                        && b.evaluation.mse <= a.evaluation.mse
                        && (b.evaluation.privacy > a.evaluation.privacy
                            || b.evaluation.mse < a.evaluation.mse);
                    prop_assert!(!dominates);
                }
            }
        }

        #[test]
        fn evaluation_is_consistent_with_direct_metrics(prior in arb_prior(), p_param in 0.45f64..0.95) {
            let cfg = OptrrConfig::fast(0.99, 1);
            let problem = OptrrProblem::new(prior.clone(), &cfg).unwrap();
            let m = rr::schemes::warner(prior.num_categories(), p_param).unwrap();
            let eval = problem.evaluate_matrix(&m);
            let direct_privacy = rr::metrics::privacy::privacy(&m, &prior).unwrap();
            let direct_mse = rr::metrics::utility::utility(&m, &prior, cfg.num_records).unwrap();
            prop_assert!((eval.privacy - direct_privacy).abs() < 1e-12);
            prop_assert!((eval.mse - direct_mse).abs() < 1e-15);
        }
    }
}
