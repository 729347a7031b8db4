//! Multinomial count statistics.
//!
//! Theorem 6 of the paper expresses the closed-form utility (MSE of the
//! reconstructed distribution) in terms of the variance and covariance of
//! the per-category relative frequencies `N_i / N` of the disguised data,
//! which follow a multinomial law:
//!
//! * `Var(N_i / N)   =  P(Y=c_i)(1 - P(Y=c_i)) / N`
//! * `Cov(N_i/N, N_j/N) = - P(Y=c_i) P(Y=c_j) / N`  for `i ≠ j`
//!
//! This module provides those quantities plus the full covariance matrix of
//! the frequency vector and a multinomial sampler used in simulation-based
//! cross-checks of the closed form.

use crate::categorical::Categorical;
use crate::error::{Result, StatsError};
use rand::Rng;

/// Variance of the relative frequency `N_i / N` of category `i` when `N`
/// records are drawn i.i.d. from `dist`.
pub fn frequency_variance(dist: &Categorical, i: usize, n_records: u64) -> Result<f64> {
    if n_records == 0 {
        return Err(StatsError::EmptyData);
    }
    Ok(variance_term(dist.prob(i), n_records))
}

/// Covariance of the relative frequencies of two *distinct* categories.
/// For `i == j` this returns the variance instead.
pub fn frequency_covariance(dist: &Categorical, i: usize, j: usize, n_records: u64) -> Result<f64> {
    if n_records == 0 {
        return Err(StatsError::EmptyData);
    }
    if i == j {
        return frequency_variance(dist, i, n_records);
    }
    Ok(covariance_term(dist.prob(i), dist.prob(j), n_records))
}

/// The row-major `n × n` table of `Cov(N_i/N, N_j/N)`, variances on the
/// diagonal, for the category probabilities `probs`: entry by entry the
/// numbers [`frequency_covariance`] gives, written into `out` without
/// allocating when it has room.
///
/// The table is symmetric bit for bit: `−p_i·p_j` and `−p_j·p_i` round to
/// the same number (negation is exact and multiplication commutes), so
/// each off-diagonal pair is computed, and divided by `N`, once.
pub fn frequency_covariance_into(probs: &[f64], n_records: u64, out: &mut Vec<f64>) -> Result<()> {
    if n_records == 0 {
        return Err(StatsError::EmptyData);
    }
    let n = probs.len();
    out.clear();
    out.resize(n * n, 0.0);
    for (i, &p_i) in probs.iter().enumerate() {
        out[i * n + i] = variance_term(p_i, n_records);
        for (j, &p_j) in probs.iter().enumerate().skip(i + 1) {
            let cov = covariance_term(p_i, p_j, n_records);
            out[i * n + j] = cov;
            out[j * n + i] = cov;
        }
    }
    Ok(())
}

/// `Var(N_i/N) = p_i (1 − p_i) / N`.
fn variance_term(p: f64, n_records: u64) -> f64 {
    p * (1.0 - p) / n_records as f64
}

/// `Cov(N_i/N, N_j/N) = −p_i p_j / N` for `i ≠ j`.
fn covariance_term(p_i: f64, p_j: f64, n_records: u64) -> f64 {
    -p_i * p_j / n_records as f64
}

/// Draws one multinomial count vector: `n_records` records distributed over
/// the categories of `dist`.
pub fn sample_counts<R: Rng + ?Sized>(dist: &Categorical, n_records: u64, rng: &mut R) -> Vec<u64> {
    let mut counts = vec![0u64; dist.num_categories()];
    for _ in 0..n_records {
        counts[dist.sample(rng)] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dist() -> Categorical {
        Categorical::new(vec![0.2, 0.3, 0.5]).unwrap()
    }

    #[test]
    fn variance_formula() {
        let d = dist();
        let v = frequency_variance(&d, 0, 1000).unwrap();
        assert!((v - 0.2 * 0.8 / 1000.0).abs() < 1e-15);
        assert!(frequency_variance(&d, 0, 0).is_err());
        // Out-of-range category has probability 0 hence variance 0.
        assert_eq!(frequency_variance(&d, 9, 1000).unwrap(), 0.0);
    }

    #[test]
    fn covariance_formula() {
        let d = dist();
        let c = frequency_covariance(&d, 0, 2, 1000).unwrap();
        assert!((c + 0.2 * 0.5 / 1000.0).abs() < 1e-15);
        // Diagonal falls back to variance.
        assert_eq!(
            frequency_covariance(&d, 1, 1, 1000).unwrap(),
            frequency_variance(&d, 1, 1000).unwrap()
        );
        assert!(frequency_covariance(&d, 0, 1, 0).is_err());
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let d = dist();
        let n_records = 2_000u64;
        let trials = 3_000usize;
        let mut rng = StdRng::seed_from_u64(21);
        let mut freqs0 = Vec::with_capacity(trials);
        for _ in 0..trials {
            let counts = sample_counts(&d, n_records, &mut rng);
            freqs0.push(counts[0] as f64 / n_records as f64);
        }
        let mean: f64 = freqs0.iter().sum::<f64>() / trials as f64;
        let var: f64 = freqs0.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;
        let expected = frequency_variance(&d, 0, n_records).unwrap();
        assert!(
            (var - expected).abs() < expected * 0.15,
            "empirical {var} vs formula {expected}"
        );
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn covariance_table_is_bitwise_pairwise_covariance(
            raw in (1usize..=33).prop_flat_map(|n| proptest::collection::vec(0.0f64..1.0, n)),
            zero in 0usize..40,
            n_records in 1u64..1_000_000,
        ) {
            let mut weights = raw;
            let n = weights.len();
            if zero < n {
                weights[zero] = 0.0;
            }
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let d = Categorical::from_weights(&weights).unwrap();
            let mut table = vec![f64::NAN; 3];
            frequency_covariance_into(d.probs(), n_records, &mut table).unwrap();
            prop_assert_eq!(table.len(), n * n);
            for i in 0..n {
                for j in 0..n {
                    let pairwise = frequency_covariance(&d, i, j, n_records).unwrap();
                    prop_assert_eq!(table[i * n + j].to_bits(), pairwise.to_bits());
                }
            }
            prop_assert_eq!(
                frequency_covariance_into(d.probs(), 0, &mut table),
                Err(StatsError::EmptyData)
            );
        }
    }

    #[test]
    fn sample_counts_total_is_preserved() {
        let d = dist();
        let mut rng = StdRng::seed_from_u64(5);
        let counts = sample_counts(&d, 1234, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 1234);
        assert_eq!(counts.len(), 3);
    }
}
