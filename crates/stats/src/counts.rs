//! Mergeable response-count accumulators.
//!
//! A streaming pipeline collects disguised categorical responses in
//! batches: each batch is either a list of raw category indices or a
//! pre-counted per-category vector. A [`CountSet`] is the accumulator for
//! one such stream — category counts plus a batch counter — and its
//! central property is that accumulation is *commutative and associative*:
//! any partition of a batch stream across several `CountSet`s, merged back
//! through [`CountSet::merge`], is bitwise-identical to a single
//! accumulator fed the same batches in any order. That property is what
//! lets concurrent ingest streams, and a snapshot restored beneath later
//! batches, end on the counts (and so the estimate) of one stream.

use crate::categorical::Categorical;
use crate::error::{Result, StatsError};
use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};

/// Per-category response counts plus a batch counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountSet {
    counts: Vec<u64>,
    total: u64,
    batches: u64,
}

impl CountSet {
    /// Creates an empty count set over `n` categories.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(StatsError::InvalidParameter {
                name: "n",
                value: 0.0,
                constraint: "must be positive",
            });
        }
        Ok(Self {
            counts: vec![0; n],
            total: 0,
            batches: 0,
        })
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.counts.len()
    }

    /// Borrow the per-category counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of category `i` (0 when out of range).
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Total responses accumulated.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of batches accumulated.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Whether no response has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Validates a raw-record batch against an `n`-category domain without
    /// touching any accumulator: non-empty, every record in-domain. The
    /// single gate shared by [`add_records`](CountSet::add_records) and by
    /// serving layers that must validate *before* committing to a stream.
    pub fn validate_records(n: usize, records: &[usize]) -> Result<()> {
        if records.is_empty() {
            return Err(StatsError::EmptyData);
        }
        if let Some(&bad) = records.iter().find(|&&r| r >= n) {
            return Err(StatsError::InvalidParameter {
                name: "record",
                value: bad as f64,
                constraint: "must be < num_categories",
            });
        }
        Ok(())
    }

    /// Accumulates one batch of raw category indices. The batch is
    /// all-or-nothing: an out-of-domain record rejects the whole batch
    /// without changing the set. An empty batch is rejected (it would
    /// inflate the batch counter without carrying information).
    pub fn add_records(&mut self, records: &[usize]) -> Result<()> {
        Self::validate_records(self.counts.len(), records)?;
        for &r in records {
            self.counts[r] += 1;
        }
        self.total += records.len() as u64;
        self.batches += 1;
        Ok(())
    }

    /// Upper bound on one pre-counted batch's total. Generous for any real
    /// stream (4.3 billion responses per batch) while guaranteeing the
    /// running `u64` totals cannot overflow within 2³² batches — untrusted
    /// protocol clients cannot wrap the accumulator with huge counts.
    pub const MAX_BATCH_TOTAL: u64 = u32::MAX as u64;

    /// Validates a pre-counted batch against an `n`-category domain and
    /// returns its total: length must match, total in
    /// `1..=`[`MAX_BATCH_TOTAL`](CountSet::MAX_BATCH_TOTAL) with no `u64`
    /// overflow. The single gate shared by
    /// [`add_counts`](CountSet::add_counts) and serving layers.
    pub fn validate_counts(n: usize, counts: &[u64]) -> Result<u64> {
        if counts.len() != n {
            return Err(StatsError::SupportMismatch {
                left: n,
                right: counts.len(),
            });
        }
        let batch_total = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .filter(|&t| t <= Self::MAX_BATCH_TOTAL)
            .ok_or(StatsError::InvalidParameter {
                name: "counts",
                value: Self::MAX_BATCH_TOTAL as f64,
                constraint: "batch total must not exceed MAX_BATCH_TOTAL",
            })?;
        if batch_total == 0 {
            return Err(StatsError::EmptyData);
        }
        Ok(batch_total)
    }

    /// Accumulates one pre-counted batch (see
    /// [`validate_counts`](CountSet::validate_counts) for the accepted
    /// shapes).
    pub fn add_counts(&mut self, counts: &[u64]) -> Result<()> {
        let batch_total = Self::validate_counts(self.counts.len(), counts)?;
        for (a, b) in self.counts.iter_mut().zip(counts) {
            *a += b;
        }
        self.total += batch_total;
        self.batches += 1;
        Ok(())
    }

    /// Merges another count set over the same domain into this one,
    /// summing counts, totals, and batch counters. Because `u64` addition
    /// commutes, merging any partition of a batch stream reproduces the
    /// single-accumulator state exactly.
    pub fn merge(&mut self, other: &CountSet) -> Result<()> {
        if self.num_categories() != other.num_categories() {
            return Err(StatsError::SupportMismatch {
                left: self.num_categories(),
                right: other.num_categories(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.batches += other.batches;
        Ok(())
    }

    /// The accumulated counts as a [`Histogram`].
    pub fn histogram(&self) -> Histogram {
        Histogram::from_counts(self.counts.clone()).expect("counts validated at construction")
    }

    /// The empirical distribution of the accumulated responses (the MLE
    /// `N_i / N` of Theorem 1). Errs when the set is empty.
    pub fn empirical_distribution(&self) -> Result<Categorical> {
        if self.total == 0 {
            return Err(StatsError::EmptyData);
        }
        Categorical::from_counts(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        assert!(CountSet::new(0).is_err());
        let c = CountSet::new(3).unwrap();
        assert_eq!(c.num_categories(), 3);
        assert_eq!(c.total(), 0);
        assert_eq!(c.batches(), 0);
        assert!(c.is_empty());
        assert!(c.empirical_distribution().is_err());
    }

    #[test]
    fn record_batches_accumulate_and_validate_atomically() {
        let mut c = CountSet::new(3).unwrap();
        c.add_records(&[0, 1, 1, 2]).unwrap();
        assert_eq!(c.counts(), &[1, 2, 1]);
        assert_eq!(c.total(), 4);
        assert_eq!(c.batches(), 1);
        // Out-of-domain record rejects the whole batch.
        assert!(c.add_records(&[0, 7]).is_err());
        assert_eq!(c.counts(), &[1, 2, 1]);
        assert_eq!(c.batches(), 1);
        // Empty batches carry no information.
        assert!(c.add_records(&[]).is_err());
        assert_eq!(c.count(1), 2);
        assert_eq!(c.count(9), 0);
    }

    #[test]
    fn counted_batches_accumulate_and_validate() {
        let mut c = CountSet::new(3).unwrap();
        c.add_counts(&[5, 0, 2]).unwrap();
        assert_eq!(c.total(), 7);
        assert_eq!(c.batches(), 1);
        assert!(c.add_counts(&[1, 2]).is_err());
        assert!(c.add_counts(&[0, 0, 0]).is_err());
        // Oversized and overflowing batches are rejected atomically: an
        // untrusted client cannot wrap the u64 accumulator.
        assert!(c.add_counts(&[u64::MAX, 1, 0]).is_err());
        assert!(c
            .add_counts(&[CountSet::MAX_BATCH_TOTAL + 1, 0, 0])
            .is_err());
        assert_eq!(c.batches(), 1);
        c.add_counts(&[0, 1, 0]).unwrap();
        assert_eq!(c.counts(), &[5, 1, 2]);
    }

    #[test]
    fn merge_reproduces_the_single_accumulator_state() {
        let batches: [&[usize]; 4] = [&[0, 1, 1], &[2, 2, 2, 0], &[1], &[0, 2]];
        let mut single = CountSet::new(3).unwrap();
        for b in &batches {
            single.add_records(b).unwrap();
        }
        // Partition the batches across two accumulators, merge in either
        // order: bitwise-identical state.
        let mut left = CountSet::new(3).unwrap();
        let mut right = CountSet::new(3).unwrap();
        left.add_records(batches[0]).unwrap();
        right.add_records(batches[1]).unwrap();
        left.add_records(batches[2]).unwrap();
        right.add_records(batches[3]).unwrap();
        let mut merged_a = CountSet::new(3).unwrap();
        merged_a.merge(&left).unwrap();
        merged_a.merge(&right).unwrap();
        let mut merged_b = CountSet::new(3).unwrap();
        merged_b.merge(&right).unwrap();
        merged_b.merge(&left).unwrap();
        assert_eq!(merged_a, single);
        assert_eq!(merged_b, single);
        // Domain mismatch is rejected.
        let other = CountSet::new(4).unwrap();
        assert!(merged_a.merge(&other).is_err());
    }

    #[test]
    fn histogram_and_distribution_match_counts() {
        let mut c = CountSet::new(4).unwrap();
        c.add_records(&[0, 0, 1, 3, 3, 3]).unwrap();
        assert_eq!(c.histogram().counts(), &[2, 1, 0, 3]);
        let d = c.empirical_distribution().unwrap();
        assert!((d.prob(3) - 0.5).abs() < 1e-12);
        assert_eq!(d.prob(2), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut c = CountSet::new(3).unwrap();
        c.add_records(&[0, 2, 2]).unwrap();
        c.add_counts(&[1, 1, 1]).unwrap();
        let text = serde_json::to_string(&c).unwrap();
        let back: CountSet = serde_json::from_str(&text).unwrap();
        assert_eq!(back, c);
    }
}
