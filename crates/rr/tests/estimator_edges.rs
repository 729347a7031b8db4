//! Estimator edge cases: zero-count categories, singular and
//! near-singular channels forcing the inversion → iterative fallback, and
//! the paper's disguise → estimate round trip against the closed-form MSE
//! bound of Theorem 6.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rr::estimate::{
    estimate_from_counts, estimate_from_disguised_frequencies, iterative_estimate_from_frequencies,
    iterative_estimate_warm, IterativeConfig,
};
use rr::metrics::utility::utility;
use rr::schemes::warner;
use rr::RrMatrix;
use stats::divergence::mean_squared_error;
use stats::Categorical;

/// A column-stochastic matrix with two identical columns: categories 0 and
/// 1 are indistinguishable after disguise, so `M` is exactly singular and
/// the inversion estimator must fail while the iterative one still runs.
fn two_identical_columns() -> RrMatrix {
    let shared = linalg::Vector::from_vec(vec![0.5, 0.3, 0.2]);
    let third = linalg::Vector::from_vec(vec![0.2, 0.2, 0.6]);
    RrMatrix::from_columns(&[shared.clone(), shared, third]).unwrap()
}

#[test]
fn zero_count_categories_estimate_cleanly() {
    // Category 2 was never reported: the disguised MLE has a zero entry,
    // and both estimators must handle it without blowing up.
    let m = warner(4, 0.75).unwrap();
    let counts = [700u64, 250, 0, 50];
    let inverted = estimate_from_counts(&m, &counts).unwrap();
    assert!((inverted.distribution.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(inverted.distribution.probs().iter().all(|&p| p >= 0.0));

    let p_star = stats::Categorical::from_counts(&counts).unwrap();
    let iterated =
        iterative_estimate_from_frequencies(&m, &p_star, &IterativeConfig::default()).unwrap();
    assert!((iterated.distribution.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // The estimators agree on the channel they both inverted.
    let d =
        stats::divergence::total_variation(&inverted.distribution, &iterated.distribution).unwrap();
    assert!(d < 0.02, "inversion vs iterative distance {d}");
}

#[test]
fn singular_channel_forces_the_iterative_fallback() {
    let m = two_identical_columns();
    assert!(!m.is_invertible());
    let p = Categorical::new(vec![0.5, 0.3, 0.2]).unwrap();
    let p_star = m.disguised_distribution(&p).unwrap();

    // Inversion refuses the singular channel…
    assert!(estimate_from_disguised_frequencies(&m, &p_star).is_err());

    // …the iterative estimator still converges to a valid distribution
    // that reproduces the observed disguised distribution exactly (the
    // original is unidentifiable between the merged categories, but the
    // fixed point must explain the data).
    let out =
        iterative_estimate_from_frequencies(&m, &p_star, &IterativeConfig::default()).unwrap();
    let explained = m.disguised_distribution(&out.distribution).unwrap();
    assert!(explained.approx_eq(&p_star, 1e-6));
    // Total mass of the two merged categories is identified.
    let merged_mass = out.distribution.prob(0) + out.distribution.prob(1);
    assert!(
        (merged_mass - 0.8).abs() < 1e-6,
        "merged mass {merged_mass}"
    );
}

#[test]
fn near_singular_channel_keeps_both_estimators_consistent() {
    // Two columns a hair apart: invertible in exact arithmetic, horribly
    // conditioned in floating point. Inversion may produce a wild raw
    // vector, but its simplex projection and the iterative estimate must
    // still both explain the data.
    let eps = 1e-7;
    let a = linalg::Vector::from_vec(vec![0.5, 0.3, 0.2]);
    let b = linalg::Vector::from_vec(vec![0.5 - eps, 0.3 + eps, 0.2]);
    let c = linalg::Vector::from_vec(vec![0.2, 0.2, 0.6]);
    let m = RrMatrix::from_columns(&[a, b, c]).unwrap();
    let p = Categorical::new(vec![0.4, 0.35, 0.25]).unwrap();
    let p_star = m.disguised_distribution(&p).unwrap();

    let iterated =
        iterative_estimate_from_frequencies(&m, &p_star, &IterativeConfig::default()).unwrap();
    let explained = m.disguised_distribution(&iterated.distribution).unwrap();
    assert!(explained.approx_eq(&p_star, 1e-6));

    if let Ok(inverted) = estimate_from_disguised_frequencies(&m, &p_star) {
        let explained = m.disguised_distribution(&inverted.distribution).unwrap();
        assert!(explained.approx_eq(&p_star, 1e-4));
    }
}

#[test]
fn disguise_then_estimate_round_trip_meets_the_paper_mse_bound() {
    // The full loop of Section III: sample N records from P, disguise them
    // through M, reconstruct P̂, and score MSE(P̂, P). Theorem 6 gives the
    // expected MSE in closed form; one draw concentrates near it.
    let n_records = 10_000usize;
    let m = warner(5, 0.7).unwrap();
    let p = Categorical::new(vec![0.35, 0.25, 0.2, 0.12, 0.08]).unwrap();
    let expected_mse = utility(&m, &p, n_records as u64).unwrap();
    assert!(expected_mse > 0.0);

    let mut rng = StdRng::seed_from_u64(2008);
    let records = p.sample_many(&mut rng, n_records);
    let original = datagen::CategoricalDataset::new(5, records).unwrap();
    let disguised = rr::disguise_dataset(&m, &original, &mut rng)
        .unwrap()
        .disguised;
    let estimate = rr::estimate::estimate_distribution(&m, &disguised).unwrap();
    let observed_mse = mean_squared_error(&estimate.distribution, &p).unwrap();
    assert!(
        observed_mse <= 20.0 * expected_mse,
        "observed {observed_mse} vs closed-form {expected_mse}"
    );

    // Warm-starting the iterative estimator from the inversion estimate
    // converges faster than a cold uniform start and agrees with it.
    let p_star = disguised.empirical_distribution().unwrap();
    let config = IterativeConfig::default();
    let cold = iterative_estimate_from_frequencies(&m, &p_star, &config).unwrap();
    let warm = iterative_estimate_warm(&m, &p_star, &estimate.distribution, &config).unwrap();
    assert!(
        warm.iterations <= cold.iterations,
        "warm {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
    assert!(warm.distribution.approx_eq(&cold.distribution, 1e-7));
}
