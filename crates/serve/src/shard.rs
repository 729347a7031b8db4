//! The warm-Ω store: each key's Ω behind one lock.
//!
//! The paper's Ω (§V.H) is one privacy-indexed set: each slot keeps the
//! best-MSE matrix seen for its privacy sub-interval. A key keeps one
//! [`OmegaSet`] behind one `RwLock`. Queries take the read lock. The only
//! writers are [`WarmStore::absorb`], once per landed run or snapshot
//! install, and [`WarmStore::clear`], on eviction. (perfbench times this
//! layer under its `shard.*` rungs.)

use optrr::{FrontPoint, OmegaEntry, OmegaSet};
use std::sync::{RwLock, RwLockReadGuard};

/// A key's warm Ω behind one read-write lock.
#[derive(Debug)]
pub struct WarmStore {
    omega: RwLock<OmegaSet>,
}

impl WarmStore {
    /// Creates an empty store with the given Ω resolution.
    pub fn new(num_slots: usize) -> Self {
        Self {
            omega: RwLock::new(OmegaSet::new(num_slots)),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, OmegaSet> {
        self.omega.read().expect("warm store lock")
    }

    /// Offers every entry of a finished run's Ω to the store, in slot
    /// order, under one write lock. The store ends exactly as if the
    /// entries had been offered one by one to a single [`OmegaSet`],
    /// improvement counter included.
    pub fn absorb(&self, omega: &OmegaSet) {
        assert_eq!(
            omega.num_slots(),
            self.read().num_slots(),
            "cannot absorb an omega with a different slot count"
        );
        let mut store = self.omega.write().expect("warm store lock");
        for entry in omega.entries() {
            store.offer(&entry.matrix, &entry.evaluation);
        }
    }

    /// A copy of the store's Ω, for snapshots.
    pub fn merge(&self) -> OmegaSet {
        self.read().clone()
    }

    /// Empties every slot and resets the improvement counter, keeping the
    /// resolution: the eviction primitive ([`OmegaSet::clear`]).
    pub fn clear(&self) {
        self.omega.write().expect("warm store lock").clear();
    }

    /// Approximate resident heap bytes of the stored matrices
    /// ([`OmegaSet::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        self.read().approx_bytes()
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no slot is filled.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// The best entry with privacy ≥ `min_privacy`, by MSE: the service's
    /// point-query hot path ([`OmegaSet::best_for_privacy_at_least`]).
    pub fn best_for_privacy_at_least(&self, min_privacy: f64) -> Option<OmegaEntry> {
        self.read().best_for_privacy_at_least(min_privacy).cloned()
    }

    /// The best entry with MSE ≤ `max_mse`, by privacy
    /// ([`OmegaSet::best_for_mse_at_most`]).
    pub fn best_for_mse_at_most(&self, max_mse: f64) -> Option<OmegaEntry> {
        self.read().best_for_mse_at_most(max_mse).cloned()
    }

    /// The non-dominated (privacy, MSE) points, in increasing privacy
    /// order, read under the read lock ([`OmegaSet::pareto_entries`]).
    pub fn front(&self) -> Vec<FrontPoint> {
        self.read()
            .pareto_entries()
            .iter()
            .map(|e| FrontPoint::from_evaluation(&e.evaluation))
            .collect()
    }

    /// The privacy range `(min, max)` currently covered.
    pub fn privacy_range(&self) -> Option<(f64, f64)> {
        self.read().privacy_range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrr::Evaluation;
    use rr::schemes::warner;
    use rr::RrMatrix;

    fn eval(privacy: f64, mse: f64) -> Evaluation {
        Evaluation {
            privacy,
            mse,
            max_posterior: 0.7,
            feasible: true,
        }
    }

    fn matrix() -> RrMatrix {
        warner(4, 0.7).unwrap()
    }

    fn omega(num_slots: usize, offers: &[(f64, f64)]) -> OmegaSet {
        let mut omega = OmegaSet::new(num_slots);
        for &(p, u) in offers {
            omega.offer(&matrix(), &eval(p, u));
        }
        omega
    }

    #[test]
    fn offer_routes_and_queries_answer() {
        let store = WarmStore::new(100);
        // Slot 30 is offered twice; the worse MSE is not kept.
        store.absorb(&omega(
            100,
            &[(0.3, 1e-5), (0.5, 8e-5), (0.7, 4e-4), (0.305, 2e-4)],
        ));
        assert_eq!(store.len(), 3);
        assert_eq!(store.merge().improvements(), 3);

        let pick = store.best_for_privacy_at_least(0.45).unwrap();
        assert!((pick.evaluation.privacy - 0.5).abs() < 1e-12);
        let pick = store.best_for_mse_at_most(1e-4).unwrap();
        assert!((pick.evaluation.privacy - 0.5).abs() < 1e-12);
        assert!(store.best_for_privacy_at_least(0.9).is_none());
        assert!(store.best_for_mse_at_most(1e-9).is_none());
        assert_eq!(store.privacy_range(), Some((0.3, 0.7)));
        let front: Vec<(f64, f64)> = store.front().iter().map(|p| (p.privacy, p.mse)).collect();
        assert_eq!(front, [(0.3, 1e-5), (0.5, 8e-5), (0.7, 4e-4)]);
    }

    #[test]
    #[should_panic(expected = "different slot count")]
    fn absorb_rejects_a_different_resolution() {
        WarmStore::new(10).absorb(&OmegaSet::new(20));
    }

    #[test]
    fn clear_empties_the_store_and_bytes_track_it() {
        let store = WarmStore::new(100);
        assert_eq!(store.approx_bytes(), 0);
        store.absorb(&omega(100, &[(0.2, 1e-4), (0.8, 2e-4)]));
        assert_eq!(store.approx_bytes(), 2 * (16 * 8 + 64));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.merge().improvements(), 0);
        assert_eq!(store.approx_bytes(), 0);
        // A cleared store accepts entries again.
        store.absorb(&omega(100, &[(0.5, 1e-4)]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn queries_match_merged_omega_semantics() {
        // The store's point queries answer exactly like a copy of its Ω,
        // tie-breaking included.
        let store = WarmStore::new(64);
        store.absorb(&omega(
            64,
            &[
                (0.10, 3e-4),
                (0.35, 8e-5),
                (0.36, 8e-5), // mse tie with 0.35 in a different slot
                (0.60, 8e-5),
                (0.81, 2e-4),
            ],
        ));
        let merged = store.merge();
        for threshold in [0.0, 0.1, 0.2, 0.355, 0.5, 0.75, 0.9] {
            assert_eq!(
                store.best_for_privacy_at_least(threshold).as_ref(),
                merged.best_for_privacy_at_least(threshold),
                "privacy query mismatch at threshold {threshold}"
            );
        }
        for budget in [1e-5, 8e-5, 1e-4, 5e-4] {
            assert_eq!(
                store.best_for_mse_at_most(budget).as_ref(),
                merged.best_for_mse_at_most(budget),
                "mse query mismatch at budget {budget}"
            );
        }
    }

    #[test]
    fn absorb_equals_offer_stream() {
        // Two runs land in turn; the store equals one Ω offered both runs'
        // entries in the same order, improvement counter included.
        let first = omega(40, &[(0.2, 1e-4), (0.4, 5e-5), (0.9, 2e-4)]);
        let second = omega(40, &[(0.205, 2e-4), (0.41, 1e-5), (0.6, 3e-4)]);
        let store = WarmStore::new(40);
        store.absorb(&first);
        store.absorb(&second);
        let mut single = OmegaSet::new(40);
        for entry in first.entries().chain(second.entries()) {
            single.offer(&entry.matrix, &entry.evaluation);
        }
        assert_eq!(store.merge(), single);
        assert_eq!(store.merge().improvements(), 5);
    }

    #[test]
    fn concurrent_offers_from_disjoint_ranges_do_not_interfere() {
        // Up to `MAX_REFRESH_RUNS` runs of one key can land at once. Here
        // eight runs, run w over privacy range [w/8, (w+1)/8), absorb into
        // the one store from eight threads.
        let runs: Vec<OmegaSet> = (0..8usize)
            .map(|run| {
                let offers: Vec<(f64, f64)> = (0..200)
                    .map(|step| {
                        let p = (run as f64 + step as f64 / 200.0) / 8.0;
                        (p, 1e-4 / (1.0 + step as f64))
                    })
                    .collect();
                omega(1000, &offers)
            })
            .collect();
        let store = WarmStore::new(1000);
        std::thread::scope(|scope| {
            for run in &runs {
                let store = &store;
                scope.spawn(move || store.absorb(run));
            }
        });
        // The final state is exactly what a single writer would hold.
        let mut single = OmegaSet::new(1000);
        for entry in runs.iter().flat_map(OmegaSet::entries) {
            single.offer(&entry.matrix, &entry.evaluation);
        }
        assert_eq!(store.merge(), single);
    }
}
