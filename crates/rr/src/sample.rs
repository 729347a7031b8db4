//! O(1) categorical sampling via the Walker/Vose alias method.
//!
//! Batch disguise applies the same per-column randomization distribution to
//! every record with that original value, so the sampler construction cost
//! is paid once per column while the per-record cost dominates. The cached
//! inverse-CDF sampler in [`stats::Categorical`] costs O(log n) per draw;
//! the alias table here costs O(1): one uniform draw selects a bucket and
//! decides between the bucket's own category and its alias.
//!
//! Like [`stats::Categorical::sample`], [`AliasTable::sample`] consumes
//! exactly one `f64` from the RNG per record, so switching sampler changes
//! the disguised stream for a given seed but not the RNG draw budget. The
//! disguise pipeline's determinism contract is *per seed, per sampler*:
//! same seed → same stream, and concurrent ingest equals single-stream
//! ingest bitwise because both sides run this same sampler (see
//! `serve::pipeline::payload_seed`).

use crate::error::{Result, RrError};
use crate::matrix::RrMatrix;
use rand::Rng;
use stats::Categorical;

/// A Walker/Vose alias table over `n` categories: O(n) to build from a
/// probability vector, O(1) per sample.
///
/// Each of the `n` buckets holds an acceptance threshold and an alias
/// category. Sampling draws one uniform `u ∈ [0, 1)`, scales it to pick a
/// bucket and a within-bucket fraction, and returns the bucket's own index
/// when the fraction clears the threshold, otherwise the alias.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Acceptance threshold of each bucket, in units of `prob * n`.
    prob: Vec<f64>,
    /// Alias category of each bucket.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds an alias table from a probability vector.
    ///
    /// The probabilities must be finite, non-negative, and sum to one
    /// within the same tolerance [`stats::Categorical::new`] accepts —
    /// construction goes through `Categorical` so both samplers agree on
    /// what a valid distribution is.
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        let dist = Categorical::new(probs)?;
        Ok(Self::from_distribution(&dist))
    }

    /// Builds an alias table from an already-validated distribution.
    pub fn from_distribution(dist: &Categorical) -> Self {
        let probs = dist.probs();
        let n = probs.len();
        let mut scaled: Vec<f64> = probs.iter().map(|&p| p * n as f64).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias: Vec<usize> = (0..n).collect();
        // Vose's stable partition: buckets under-full (< 1) borrow mass
        // from buckets over-full (> 1) until every bucket holds exactly
        // one unit split between its own category and a single alias.
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are exactly-full up to rounding: they always accept.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.prob.len()
    }

    /// Draws one category index, consuming exactly one `f64` from the RNG.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let scaled = u * self.prob.len() as f64;
        // `u < 1` keeps `idx` in range; the `min` guards the pathological
        // rounding case `u * n == n`.
        let idx = (scaled as usize).min(self.prob.len() - 1);
        let frac = scaled - idx as f64;
        if frac < self.prob[idx] {
            idx
        } else {
            self.alias[idx]
        }
    }

    /// Draws `count` category indices.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// Per-column alias tables for a whole RR matrix: column `i` samples the
/// randomization distribution of original category `i`. Built once per
/// matrix, then O(1) per disguised record.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSamplers {
    columns: Vec<AliasTable>,
}

impl ColumnSamplers {
    /// Builds the alias table of every column of `m`.
    pub fn new(m: &RrMatrix) -> Result<Self> {
        let columns = (0..m.num_categories())
            .map(|i| {
                m.randomization_distribution(i)
                    .map(|d| AliasTable::from_distribution(&d))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { columns })
    }

    /// Number of categories (columns).
    pub fn num_categories(&self) -> usize {
        self.columns.len()
    }

    /// Disguises one record with true value `x`.
    #[inline]
    pub fn disguise_record<R: Rng + ?Sized>(&self, x: usize, rng: &mut R) -> Result<usize> {
        match self.columns.get(x) {
            Some(table) => Ok(table.sample(rng)),
            None => Err(RrError::DimensionMismatch {
                matrix: self.columns.len(),
                data: x + 1,
            }),
        }
    }

    /// Borrow the alias table of column `x`.
    pub fn column(&self, x: usize) -> Option<&AliasTable> {
        self.columns.get(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{frapp, uniform_perturbation, warner};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_through_categorical() {
        assert!(AliasTable::new(vec![]).is_err());
        assert!(AliasTable::new(vec![0.5, 0.6]).is_err());
        assert!(AliasTable::new(vec![f64::NAN, 1.0]).is_err());
        let t = AliasTable::new(vec![0.25; 4]).unwrap();
        assert_eq!(t.num_categories(), 4);
    }

    #[test]
    fn point_mass_always_returns_its_category() {
        let t = AliasTable::from_distribution(&Categorical::point_mass(5, 3).unwrap());
        let mut rng = StdRng::seed_from_u64(9);
        assert!(t.sample_many(&mut rng, 200).iter().all(|&s| s == 3));
    }

    #[test]
    fn zero_probability_categories_are_never_drawn() {
        let t = AliasTable::new(vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(t.sample_many(&mut rng, 500).iter().all(|&s| s == 1));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let t = AliasTable::new(vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let a = t.sample_many(&mut StdRng::seed_from_u64(5), 1000);
        let b = t.sample_many(&mut StdRng::seed_from_u64(5), 1000);
        assert_eq!(a, b);
        let c = t.sample_many(&mut StdRng::seed_from_u64(6), 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn column_samplers_match_matrix_dimensions() {
        let m = warner(4, 0.8).unwrap();
        let s = ColumnSamplers::new(&m).unwrap();
        assert_eq!(s.num_categories(), 4);
        assert!(s.column(3).is_some());
        assert!(s.column(4).is_none());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.disguise_record(0, &mut rng).unwrap() < 4);
        assert!(matches!(
            s.disguise_record(4, &mut rng),
            Err(RrError::DimensionMismatch { .. })
        ));
    }

    /// Pearson chi-square statistic of observed counts against expected
    /// probabilities.
    fn chi_square(counts: &[u64], probs: &[f64], total: u64) -> f64 {
        counts
            .iter()
            .zip(probs.iter())
            .filter(|(_, &p)| p > 0.0)
            .map(|(&c, &p)| {
                let expected = p * total as f64;
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    #[test]
    fn alias_sampling_matches_scheme_columns_chi_square() {
        // Every classical scheme family, every column: the alias sampler's
        // empirical frequencies must fit the `randomization_distribution`
        // probabilities under a chi-square goodness-of-fit test.
        let n = 6;
        let matrices = [
            warner(n, 0.55).unwrap(),
            uniform_perturbation(n, 0.35).unwrap(),
            frapp(n, 4.0).unwrap(),
        ];
        let draws = 60_000u64;
        // 99.9th percentile of chi-square with n-1 = 5 degrees of freedom.
        let critical = 20.52;
        let mut rng = StdRng::seed_from_u64(20_080_501);
        for m in &matrices {
            let samplers = ColumnSamplers::new(m).unwrap();
            for col in 0..n {
                let dist = m.randomization_distribution(col).unwrap();
                let mut counts = vec![0u64; n];
                for _ in 0..draws {
                    counts[samplers.disguise_record(col, &mut rng).unwrap()] += 1;
                }
                let stat = chi_square(&counts, dist.probs(), draws);
                assert!(
                    stat < critical,
                    "column {col}: chi-square {stat} over critical {critical}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]

        /// Chi-square goodness of fit on random distributions: the alias
        /// table reproduces the frequencies of the distribution it was
        /// built from.
        #[test]
        fn alias_matches_distribution_frequencies(
            raw in proptest::collection::vec(0.05f64..1.0, 3..8),
            seed in 0u64..1_000,
        ) {
            let s: f64 = raw.iter().sum();
            let probs: Vec<f64> = raw.iter().map(|x| x / s).collect();
            let n = probs.len();
            let dist = Categorical::new(probs.clone()).unwrap();
            let table = AliasTable::from_distribution(&dist);
            let draws = 20_000u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[table.sample(&mut rng)] += 1;
            }
            let stat = chi_square(&counts, &probs, draws);
            // 99.99th percentile of chi-square with at most 7 degrees of
            // freedom — loose enough that 24 random cases essentially
            // never trip it, tight enough to catch a mis-built table.
            prop_assert!(stat < 33.0, "chi-square {stat} with {} categories", n);
        }

        /// The alias table never emits a category the distribution gives
        /// zero probability, for any bucket the RNG lands in.
        #[test]
        fn alias_support_is_contained_in_distribution_support(
            raw in proptest::collection::vec(0.0f64..1.0, 3..8),
            seed in 0u64..1_000,
        ) {
            let s: f64 = raw.iter().sum();
            prop_assume!(s > 1e-9);
            let probs: Vec<f64> = raw.iter().map(|x| x / s).collect();
            let table = AliasTable::from_distribution(&Categorical::new(probs.clone()).unwrap());
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..2_000 {
                let y = table.sample(&mut rng);
                prop_assert!(probs[y] > 0.0, "sampled zero-probability category {y}");
            }
        }
    }
}
