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
//!
//! A serving pipeline keeps only the counts of a disguised batch, so
//! [`ColumnSamplers::disguise_counts`] draws and counts in one pass
//! without ever choosing between a bucket's two candidates. The choice
//! `frac < threshold` is a coin flip, so the `if` in [`AliasTable::sample`]
//! (a conditional jump in the emitted code) mispredicts on a large share
//! of draws. The kernel instead turns the comparison into `t ∈ {0, 1}`
//! and adds `t` to the bucket's own count and `1 − t` to its alias's.
//! That lands every draw where the branchy sampler puts it, including
//! buckets whose alias is themselves. Best of 30 rounds on a 2-vCPU VM
//! (Warner matrices, n = 4 and 16, batches of 64 to 4,096 records): the
//! counting kernel takes 7.1–10.2 ns per record, a loop of
//! [`ColumnSamplers::disguise_record`] draws counted one by one takes
//! 15.3–19.0 ns, and the RNG draw plus bucket index alone 4.4–5.7 ns.
//! A branch-free select (`std::hint::select_unpredictable`) would need a
//! newer compiler than the workspace's `rust-version`.

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

    /// Disguises a batch of true values and counts the draws: returns the
    /// per-category counts of the disguised records and how many kept
    /// their original value. Each record consumes exactly one `f64` and
    /// lands where [`ColumnSamplers::disguise_record`] would put it (see
    /// the module docs for why both candidates are counted). The batch is
    /// all-or-nothing: an empty batch or an out-of-domain record is an
    /// error and no counts come back.
    pub fn disguise_counts<R: Rng + ?Sized>(
        &self,
        records: &[usize],
        rng: &mut R,
    ) -> Result<(Vec<u64>, u64)> {
        let n = self.columns.len();
        if records.is_empty() {
            return Err(RrError::EmptyData);
        }
        let mut counts = vec![0u64; n];
        let mut retained = 0u64;
        for &x in records {
            let Some(table) = self.columns.get(x) else {
                return Err(RrError::DimensionMismatch {
                    matrix: n,
                    data: x + 1,
                });
            };
            // `idx` and `frac` as in `AliasTable::sample`. `scaled` lies
            // in [0, n), so the signed conversions (one instruction each,
            // where the unsigned ones add a compare and select) give the
            // same values.
            let u: f64 = rng.gen();
            let scaled = u * n as f64;
            let idx = (scaled as i64 as usize).min(n - 1);
            let frac = scaled - idx as i64 as f64;
            let alias = table.alias[idx];
            let own = (frac < table.prob[idx]) as u64;
            counts[idx] += own;
            counts[alias] += 1 - own;
            retained += own * (idx == x) as u64 + (1 - own) * (alias == x) as u64;
        }
        Ok((counts, retained))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{frapp, uniform_perturbation, warner};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A point mass on category `i` of `n`.
    fn point_mass(n: usize, i: usize) -> Categorical {
        let mut probs = vec![0.0; n];
        probs[i] = 1.0;
        Categorical::new(probs).unwrap()
    }

    fn table(probs: Vec<f64>) -> AliasTable {
        AliasTable::from_distribution(&Categorical::new(probs).unwrap())
    }

    fn draws(t: &AliasTable, rng: &mut StdRng, count: usize) -> Vec<usize> {
        (0..count).map(|_| t.sample(rng)).collect()
    }

    #[test]
    fn point_mass_always_returns_its_category() {
        let t = AliasTable::from_distribution(&point_mass(5, 3));
        let mut rng = StdRng::seed_from_u64(9);
        assert!(draws(&t, &mut rng, 200).iter().all(|&s| s == 3));
    }

    #[test]
    fn zero_probability_categories_are_never_drawn() {
        let t = table(vec![0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(draws(&t, &mut rng, 500).iter().all(|&s| s == 1));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let t = table(vec![0.1, 0.2, 0.3, 0.4]);
        let a = draws(&t, &mut StdRng::seed_from_u64(5), 1000);
        let b = draws(&t, &mut StdRng::seed_from_u64(5), 1000);
        assert_eq!(a, b);
        let c = draws(&t, &mut StdRng::seed_from_u64(6), 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn column_samplers_match_matrix_dimensions() {
        let m = warner(4, 0.8).unwrap();
        let s = ColumnSamplers::new(&m).unwrap();
        assert_eq!(s.num_categories(), 4);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.disguise_record(0, &mut rng).unwrap() < 4);
        assert!(matches!(
            s.disguise_record(4, &mut rng),
            Err(RrError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn disguise_counts_rejects_empty_and_out_of_domain_batches() {
        let s = ColumnSamplers::new(&warner(4, 0.8).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(s.disguise_counts(&[], &mut rng), Err(RrError::EmptyData));
        assert_eq!(
            s.disguise_counts(&[0, 3, 4, 1], &mut rng),
            Err(RrError::DimensionMismatch { matrix: 4, data: 5 })
        );
        let (counts, retained) = s.disguise_counts(&[0, 3, 2, 1], &mut rng).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 4);
        assert!(retained <= 4);
    }

    /// An RNG whose every `f64` draw is exactly 0.
    struct ZeroRng;

    impl rand::RngCore for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn a_fraction_equal_to_the_threshold_takes_the_alias() {
        // The swap matrix: column 0 is (0, 1), so bucket 0 of its table
        // has threshold 0 and alias 1. A draw of exactly 0 lands on
        // bucket 0 with fraction 0; `<` sends it to the alias, where `<=`
        // would report category 0, which column 0 never reports. Random
        // draws hit such a tie with probability about 2⁻⁵³.
        let columns = [
            linalg::Vector::from_vec(vec![0.0, 1.0]),
            linalg::Vector::from_vec(vec![1.0, 0.0]),
        ];
        let s = ColumnSamplers::new(&RrMatrix::from_columns(&columns).unwrap()).unwrap();
        assert_eq!(s.disguise_record(0, &mut ZeroRng), Ok(1));
        assert_eq!(s.disguise_record(1, &mut ZeroRng), Ok(0));
        assert_eq!(
            s.disguise_counts(&[0, 0, 1], &mut ZeroRng),
            Ok((vec![1, 2], 0))
        );
    }

    /// A matrix for the `disguise_counts` oracle property: the classical
    /// schemes, the identity and uniform degenerate matrices, and random
    /// column-stochastic matrices with zero entries (so some buckets
    /// alias themselves and some categories are never drawn).
    fn oracle_matrix(kind: usize, n: usize, rng: &mut StdRng) -> RrMatrix {
        let p = rng.gen::<f64>();
        match kind {
            0 => warner(n, p),
            1 => uniform_perturbation(n, p),
            2 => frapp(n, 8.0 * p),
            3 => RrMatrix::uniform(n),
            4 => RrMatrix::identity(n),
            _ => {
                let columns: Vec<linalg::Vector> = (0..n)
                    .map(|j| {
                        let mut col: Vec<f64> = (0..n)
                            .map(|_| if rng.gen_bool(0.4) { 0.0 } else { rng.gen() })
                            .collect();
                        if col.iter().all(|&v| v == 0.0) {
                            col[j] = 1.0;
                        }
                        let sum: f64 = col.iter().sum();
                        linalg::Vector::from_vec(col.into_iter().map(|v| v / sum).collect())
                    })
                    .collect();
                RrMatrix::from_columns(&columns)
            }
        }
        .unwrap()
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
        /// The counting kernel against the path it replaced: disguise the
        /// batch record by record, then count the disguised records. Same
        /// RNG seed, so the counts and `retained` must match exactly.
        #[test]
        fn disguise_counts_is_bitwise_disguise_then_add_records(
            // An `RrMatrix` has at least two categories.
            n in 2usize..=16,
            kind in 0usize..8,
            len in 1usize..=4096,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = oracle_matrix(kind, n, &mut rng);
            let samplers = ColumnSamplers::new(&m).unwrap();
            // Skewed records: a random prefix of the domain is popular.
            let popular = rng.gen_range(1..=n);
            let records: Vec<usize> = (0..len)
                .map(|_| {
                    let bound = if rng.gen_bool(0.7) { popular } else { n };
                    rng.gen_range(0..bound)
                })
                .collect();
            let draw_seed = rng.gen::<u64>();
            let (counts, retained) = samplers
                .disguise_counts(&records, &mut StdRng::seed_from_u64(draw_seed))
                .unwrap();
            let dataset = datagen::CategoricalDataset::new(n, records).unwrap();
            let oracle = crate::disguise_dataset_with(
                &samplers,
                &dataset,
                &mut StdRng::seed_from_u64(draw_seed),
            )
            .unwrap();
            let mut oracle_counts = stats::CountSet::new(n).unwrap();
            oracle_counts.add_records(oracle.disguised.records()).unwrap();
            prop_assert_eq!(counts.as_slice(), oracle_counts.counts());
            prop_assert_eq!(retained, oracle.retained as u64);
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
