//! # optrr-rr
//!
//! Randomized Response (RR) substrate for the OptRR reproduction (Huang &
//! Du, ICDE 2008).
//!
//! This crate implements everything in Sections III and IV of the paper:
//!
//! * [`RrMatrix`] — the validated column-stochastic disguise matrix `M`
//!   with `θ_{j,i} = P[report c_j | true value c_i]`.
//! * [`schemes`] — the classical Warner / Uniform-Perturbation / FRAPP
//!   families the paper compares against, the identity and uniform
//!   degenerate matrices, the Theorem 2 parameter equivalences, and the
//!   Warner parameter sweep used as the experimental baseline.
//! * [`disguise`] — the per-record disguise operator applied to whole data
//!   sets.
//! * [`sample`] — the Walker/Vose alias tables behind the disguise hot
//!   path: O(n) build per matrix column, O(1) per disguised record.
//! * [`estimate`] — distribution reconstruction by matrix inversion
//!   (Theorem 1) and by the iterative EM-style procedure (Equation 3).
//! * [`metrics`] — the privacy metric (MAP-adversary accuracy, Theorems 3–5
//!   and Equation 8), the closed-form utility metric (Theorem 6 and
//!   Equation 10), and the worst-case δ bound (Equation 9).
//!
//! ## Example
//!
//! ```
//! use rr::schemes::warner;
//! use rr::metrics::{privacy, utility};
//! use stats::Categorical;
//!
//! let prior = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
//! let m = warner(4, 0.75).unwrap();
//! let p = privacy(&m, &prior).unwrap();          // higher is better
//! let u = utility(&m, &prior, 10_000).unwrap();  // lower is better (MSE)
//! assert!(p > 0.0 && p < 1.0);
//! assert!(u > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Negated comparisons like `!(x > 0.0)` are deliberate NaN-rejecting
// guards, and a few index loops walk several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

pub mod disguise;
pub mod error;
pub mod estimate;
pub mod matrix;
pub mod metrics;
pub mod sample;
pub mod schemes;

pub use disguise::{disguise_dataset, disguise_dataset_with, DisguiseOutcome};
pub use error::{Result, RrError};
pub use matrix::{renormalize_columns, RrMatrix};
pub use metrics::utility::Theorem6;
pub use sample::ColumnSamplers;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stats::Categorical;

    fn arb_prior() -> impl Strategy<Value = Categorical> {
        (3usize..=8).prop_flat_map(|n| {
            proptest::collection::vec(0.02f64..1.0, n).prop_map(|raw| {
                let s: f64 = raw.iter().sum();
                Categorical::new(raw.into_iter().map(|x| x / s).collect()).unwrap()
            })
        })
    }

    fn arb_rr_matrix(n: usize) -> impl Strategy<Value = RrMatrix> {
        proptest::collection::vec(0.05f64..1.0, n * n).prop_map(move |raw| {
            let mut columns = Vec::with_capacity(n);
            for j in 0..n {
                let mut col: Vec<f64> = (0..n).map(|i| raw[j * n + i]).collect();
                // Bias the diagonal so the matrix is (almost surely) invertible.
                col[j] += 1.5;
                let s: f64 = col.iter().sum();
                columns.push(linalg::Vector::from_vec(
                    col.into_iter().map(|x| x / s).collect(),
                ));
            }
            RrMatrix::from_columns(&columns).unwrap()
        })
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        #[test]
        fn privacy_is_bounded_by_prior_mode(prior in arb_prior(), seed in 0u64..500) {
            let n = prior.num_categories();
            let m = RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap();
            let p = metrics::privacy::analyze(&m, &prior).unwrap();
            prop_assert!(p.privacy >= -1e-9);
            prop_assert!(p.privacy <= 1.0 - prior.max_prob() + 1e-9);
            prop_assert!(p.adversary_accuracy >= prior.max_prob() - 1e-9,
                "accuracy {} below prior mode {}", p.adversary_accuracy, prior.max_prob());
            prop_assert!(p.max_posterior >= prior.max_prob() - 1e-9); // Theorem 5
            prop_assert!(p.max_posterior <= 1.0 + 1e-9);
        }

        #[test]
        fn utility_is_nonnegative_and_scales_with_n(prior in arb_prior(), seed in 0u64..500) {
            let n = prior.num_categories();
            // Use a diagonally-biased (invertible) matrix.
            let m = {
                let mut rng = StdRng::seed_from_u64(seed);
                // Mix a random matrix with the identity to keep it invertible.
                let random = RrMatrix::random(n, &mut rng).unwrap();
                let mut mixed = linalg::Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        let id = if i == j { 1.0 } else { 0.0 };
                        mixed[(i, j)] = 0.6 * id + 0.4 * random.theta(i, j);
                    }
                }
                RrMatrix::new(mixed).unwrap()
            };
            let u_small = metrics::utility::utility(&m, &prior, 1_000).unwrap();
            let u_large = metrics::utility::utility(&m, &prior, 4_000).unwrap();
            prop_assert!(u_small >= 0.0);
            prop_assert!(u_large >= 0.0);
            // MSE scales as 1/N.
            prop_assert!((u_small / u_large - 4.0).abs() < 1e-6);
        }

        #[test]
        fn theorem1_reconstruction_is_exact_without_sampling_noise(
            prior in arb_prior(),
            m in (3usize..=8).prop_flat_map(arb_rr_matrix)
        ) {
            // Only test when dimensions match (resize the prior otherwise).
            let n = m.num_categories();
            let probs: Vec<f64> = prior.probs().iter().copied().cycle().take(n).collect();
            let s: f64 = probs.iter().sum();
            let prior = Categorical::new(probs.into_iter().map(|x| x / s).collect()).unwrap();

            let p_star = m.disguised_distribution(&prior).unwrap();
            let est = estimate::inversion::estimate_from_disguised_frequencies(&m, &p_star).unwrap();
            prop_assert!(est.distribution.approx_eq(&prior, 1e-6));
        }

        #[test]
        fn disguise_preserves_record_count_and_domain(
            prior in arb_prior(),
            seed in 0u64..200
        ) {
            let n = prior.num_categories();
            let mut rng = StdRng::seed_from_u64(seed);
            let records = prior.sample_many(&mut rng, 500);
            let data = datagen::CategoricalDataset::new(n, records).unwrap();
            let m = schemes::warner(n, 0.6).unwrap();
            let out = disguise_dataset(&m, &data, &mut rng).unwrap();
            prop_assert_eq!(out.disguised.len(), data.len());
            prop_assert!(out.disguised.records().iter().all(|&r| r < n));
            prop_assert!(out.retained <= data.len());
        }

        #[test]
        fn warner_up_frapp_produce_identical_metric_pairs(
            prior in arb_prior(),
            p_param in 0.0f64..1.0
        ) {
            // Theorem 2 consequence: matched parameters give identical
            // (privacy, utility) pairs for the three classical schemes.
            let n = prior.num_categories();
            let p_param = (1.0 / n as f64) + p_param * (1.0 - 1.0 / n as f64);
            // Skip parameters too close to the singular point.
            prop_assume!((p_param - 1.0 / n as f64).abs() > 0.02);
            let w = schemes::warner(n, p_param).unwrap();
            let q = schemes::theorem2::warner_to_up(n, p_param);
            let u = schemes::uniform_perturbation(n, q).unwrap();
            let lambda = schemes::theorem2::warner_to_frapp(n, p_param);
            prop_assume!(lambda.is_finite());
            let f = schemes::frapp(n, lambda).unwrap();

            let pw = metrics::privacy::privacy(&w, &prior).unwrap();
            let pu = metrics::privacy::privacy(&u, &prior).unwrap();
            let pf = metrics::privacy::privacy(&f, &prior).unwrap();
            prop_assert!((pw - pu).abs() < 1e-9);
            prop_assert!((pw - pf).abs() < 1e-9);

            let uw = metrics::utility::utility(&w, &prior, 10_000).unwrap();
            let uu = metrics::utility::utility(&u, &prior, 10_000).unwrap();
            let uf = metrics::utility::utility(&f, &prior, 10_000).unwrap();
            prop_assert!((uw - uu).abs() < 1e-9 * uw.abs().max(1e-12));
            prop_assert!((uw - uf).abs() < 1e-9 * uw.abs().max(1e-12));
        }

        #[test]
        fn iterative_and_inversion_agree_on_population_frequencies(
            prior in arb_prior(),
            m in (3usize..=6).prop_flat_map(arb_rr_matrix)
        ) {
            let n = m.num_categories();
            let probs: Vec<f64> = prior.probs().iter().copied().cycle().take(n).collect();
            let s: f64 = probs.iter().sum();
            let prior = Categorical::new(probs.into_iter().map(|x| x / s).collect()).unwrap();
            let p_star = m.disguised_distribution(&prior).unwrap();
            let inv = estimate::inversion::estimate_from_disguised_frequencies(&m, &p_star).unwrap();
            let itr = estimate::iterative::iterative_estimate_from_frequencies(
                &m,
                &p_star,
                &estimate::iterative::IterativeConfig { max_iterations: 50_000, tolerance: 1e-12 },
            ).unwrap();
            let d = stats::divergence::total_variation(&inv.distribution, &itr.distribution).unwrap();
            prop_assert!(d < 1e-3, "inversion vs iterative TV distance {d}");
        }
    }
}
