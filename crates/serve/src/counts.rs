//! The response accumulator behind streaming ingest: each key's counts
//! behind one lock.
//!
//! Every batch of a key's stream lands in one [`CountSet`] behind one
//! `Mutex`. An ingest reply reads its running total and batch count from
//! the same lock hold that added its batch, so the two numbers always
//! describe one state. Count accumulation commutes (`u64` addition), so
//! concurrent streams end bitwise-identical to one stream fed the same
//! batches in any order.

use stats::{CountSet, Result as StatsResult};
use std::sync::{Mutex, MutexGuard};

/// A key's accumulator of categorical response counts.
#[derive(Debug)]
pub struct IngestCounts {
    counts: Mutex<CountSet>,
}

impl IngestCounts {
    /// Creates an empty accumulator over `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        Self {
            counts: Mutex::new(CountSet::new(num_categories).expect("at least one category")),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CountSet> {
        self.counts.lock().expect("ingest counts lock")
    }

    /// Accumulates one batch of raw category indices, all-or-nothing like
    /// [`CountSet::add_records`]. Returns the running `(total, batches)`
    /// read under the lock that added the batch.
    pub fn ingest_records(&self, records: &[usize]) -> StatsResult<(u64, u64)> {
        let mut counts = self.lock();
        counts.add_records(records)?;
        Ok((counts.total(), counts.batches()))
    }

    /// Accumulates one pre-counted batch. Returns the running `(total,
    /// batches)` like [`IngestCounts::ingest_records`].
    pub fn ingest_counts(&self, batch: &[u64]) -> StatsResult<(u64, u64)> {
        let mut counts = self.lock();
        counts.add_counts(batch)?;
        Ok((counts.total(), counts.batches()))
    }

    /// Adds a whole persisted [`CountSet`]: the snapshot-restore path.
    /// Accumulation commutes, so the state afterwards is bitwise-identical
    /// to having ingested the original batch stream directly.
    pub fn absorb(&self, counts: &CountSet) -> StatsResult<()> {
        self.lock().merge(counts)
    }

    /// A copy of the accumulated counts.
    pub fn merge(&self) -> CountSet {
        self.lock().clone()
    }

    /// Total responses accumulated.
    pub fn total(&self) -> u64 {
        self.lock().total()
    }

    /// Whether no response has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_categories_panics() {
        let _ = IngestCounts::new(0);
    }

    #[test]
    fn batches_accumulate_and_report_their_running_totals() {
        let store = IngestCounts::new(3);
        assert!(store.is_empty());
        assert_eq!(store.ingest_records(&[0, 0, 1]), Ok((3, 1)));
        assert_eq!(store.ingest_records(&[2]), Ok((4, 2)));
        assert_eq!(store.ingest_counts(&[0, 5, 0]), Ok((9, 3)));
        let merged = store.merge();
        assert_eq!(merged.counts(), &[2, 6, 1]);
        assert_eq!(merged.batches(), 3);
        // Invalid batches change nothing.
        assert!(store.ingest_records(&[9]).is_err());
        assert!(store.ingest_counts(&[1, 2]).is_err());
        assert_eq!(store.merge(), merged);
        assert_eq!(store.total(), 9);
    }

    #[test]
    fn absorb_restores_a_merged_set_bitwise() {
        let original = IngestCounts::new(3);
        original.ingest_records(&[0, 0, 1]).unwrap();
        original.ingest_counts(&[0, 2, 5]).unwrap();
        let merged = original.merge();

        let restored = IngestCounts::new(3);
        restored.absorb(&merged).unwrap();
        assert_eq!(restored.merge(), merged);
        // Later batches keep accumulating on top of the restored state.
        assert_eq!(
            restored.ingest_records(&[2]),
            Ok((original.total() + 1, merged.batches() + 1))
        );
        // A wrong-domain absorb is rejected.
        assert!(restored.absorb(&CountSet::new(5).unwrap()).is_err());
    }

    #[test]
    fn concurrent_streams_equal_a_single_stream() {
        let store = IngestCounts::new(4);
        let batches: Vec<Vec<usize>> = (0..64)
            .map(|b| (0..(b % 7 + 1)).map(|r| (b + r) % 4).collect())
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let store = &store;
                let batches = &batches;
                scope.spawn(move || {
                    // Worker w ingests every 8th batch, offset by w.
                    for batch in batches.iter().skip(worker).step_by(8) {
                        store.ingest_records(batch).unwrap();
                    }
                });
            }
        });
        let mut single = CountSet::new(4).unwrap();
        for batch in &batches {
            single.add_records(batch).unwrap();
        }
        assert_eq!(store.merge(), single);
    }
}
