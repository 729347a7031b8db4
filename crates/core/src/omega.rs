//! The optimal set Ω (Section V.H of the paper).
//!
//! SPEA2 bounds the population and archive sizes to keep the cubic-cost
//! environmental selection affordable, which means good RR matrices get
//! discarded when the archive crowds up. The paper's fix is a large side
//! store Ω, indexed by privacy value: each slot covers one privacy
//! sub-interval (e.g. slot 152 of a 1000-slot Ω covers privacy values in
//! [0.152, 0.153)), and keeps the best-utility matrix seen so far in that
//! interval. Ω never participates in the evolution itself — it is only
//! updated at the end of each generation — so its size is bounded by memory
//! rather than by the O((N_Q + N_V)³) selection cost.

use crate::problem::Evaluation;
use rr::RrMatrix;
use serde::{Deserialize, Serialize};
use stats::Categorical;

/// The slot index a privacy value maps to in an Ω with `num_slots` slots:
/// the privacy → slot mapping behind [`OmegaSet::slot_of`].
fn slot_index(privacy: f64, num_slots: usize) -> usize {
    assert!(num_slots > 0, "omega needs at least one slot");
    let clamped = privacy.clamp(0.0, 1.0);
    let idx = (clamped * num_slots as f64).floor() as usize;
    idx.min(num_slots - 1)
}

/// A canonical fingerprint of the `(prior, δ, num_slots)` triple that
/// identifies one warm Ω in a matrix-serving registry.
///
/// Two registrations with the same attribute distribution, the same privacy
/// bound, and the same Ω resolution must share a warm store, so the
/// fingerprint is computed from a canonical byte encoding: each prior
/// probability is quantized to a 10⁻¹² grid (absorbing float noise from
/// empirical distributions), then hashed together with the exact bit
/// pattern of δ and the slot count using FNV-1a. The result is stable
/// across processes and platforms.
pub fn omega_fingerprint(prior: &Categorical, delta: f64, num_slots: usize) -> u64 {
    let words = std::iter::once(prior.num_categories() as u64)
        .chain(prior.probs().iter().map(|&p| {
            // Quantized probability: exact for any prior that is a ratio
            // of counts up to ~10^12 records, tolerant of last-ulp noise.
            (p * 1e12).round() as u64
        }))
        .chain([delta.to_bits(), num_slots as u64]);
    fnv1a_64(words)
}

/// FNV-1a over a stream of little-endian `u64` words — the hash primitive
/// behind [`omega_fingerprint`] and the serving pipeline's deterministic
/// payload seeds. One definition keeps every fingerprint in the workspace
/// on the same constants.
pub fn fnv1a_64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for word in words {
        for b in word.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// One entry of the optimal set: a matrix together with its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OmegaEntry {
    /// The stored RR matrix.
    pub matrix: RrMatrix,
    /// Its evaluation (privacy, MSE, feasibility) at store time.
    pub evaluation: Evaluation,
}

impl OmegaEntry {
    /// Approximate resident heap bytes of this entry: the n×n matrix data
    /// plus a fixed allowance for the evaluation and allocation headers.
    /// The number is an accounting estimate (used by memory-budgeted
    /// serving layers), not an exact allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.matrix.num_categories() as u64;
        n * n * 8 + 64
    }
}

/// The privacy-indexed optimal set Ω.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OmegaSet {
    slots: Vec<Option<OmegaEntry>>,
    /// Number of successful insertions or replacements (used by the
    /// stagnation-based termination criterion).
    improvements: u64,
}

impl OmegaSet {
    /// Creates an empty Ω with the given number of privacy slots.
    pub fn new(num_slots: usize) -> Self {
        assert!(num_slots > 0, "omega needs at least one slot");
        Self {
            slots: vec![None; num_slots],
            improvements: 0,
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no slot is filled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total improvements (inserts + replacements) so far.
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// Approximate resident heap bytes of this Ω's *payload*:
    /// [`OmegaEntry::approx_bytes`] for every filled slot. The slot vector
    /// skeleton is deliberately excluded — it is not reclaimable by
    /// clearing the set, and serving layers bound it separately by capping
    /// the slot count — so memory budgets over this quantity measure
    /// exactly what eviction can free.
    pub fn approx_bytes(&self) -> u64 {
        self.entries().map(OmegaEntry::approx_bytes).sum()
    }

    /// Empties every slot and resets the improvement counter, keeping the
    /// resolution. This is the eviction primitive: the Ω keeps answering
    /// (with `None`) but holds no matrices until a re-warm refills it.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.improvements = 0;
    }

    /// The slot index a privacy value maps to.
    pub fn slot_of(&self, privacy: f64) -> usize {
        slot_index(privacy, self.slots.len())
    }

    /// Offers a matrix to Ω. It is stored when its privacy slot is empty or
    /// when it has a strictly better (lower) MSE than the current occupant.
    /// Infeasible evaluations are never stored. Returns `true` when Ω
    /// changed.
    pub fn offer(&mut self, matrix: &RrMatrix, evaluation: &Evaluation) -> bool {
        if !evaluation.feasible || !evaluation.mse.is_finite() {
            return false;
        }
        let slot = self.slot_of(evaluation.privacy);
        let improved = match &self.slots[slot] {
            None => true,
            Some(existing) => evaluation.mse < existing.evaluation.mse,
        };
        if improved {
            self.slots[slot] = Some(OmegaEntry {
                matrix: matrix.clone(),
                evaluation: *evaluation,
            });
            self.improvements += 1;
        }
        improved
    }

    /// Borrow the entry stored for a given privacy slot.
    pub fn entry(&self, slot: usize) -> Option<&OmegaEntry> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Iterates over all stored entries, in increasing privacy order.
    pub fn entries(&self) -> impl Iterator<Item = &OmegaEntry> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Returns the non-dominated subset of Ω (some slots can be dominated
    /// by neighbours that achieve both better privacy and better MSE).
    pub fn pareto_entries(&self) -> Vec<&OmegaEntry> {
        let all: Vec<&OmegaEntry> = self.entries().collect();
        all.iter()
            .filter(|a| {
                !all.iter().any(|b| {
                    // b dominates a: privacy >= (higher better), mse <= (lower
                    // better), with at least one strict.
                    let better_privacy = b.evaluation.privacy >= a.evaluation.privacy;
                    let better_mse = b.evaluation.mse <= a.evaluation.mse;
                    let strictly = b.evaluation.privacy > a.evaluation.privacy
                        || b.evaluation.mse < a.evaluation.mse;
                    better_privacy && better_mse && strictly
                })
            })
            .copied()
            .collect()
    }

    /// The best entry whose privacy is at least `min_privacy`, by MSE.
    /// This is the "pick a matrix for my privacy requirement" operation the
    /// paper motivates in Section III.C.
    pub fn best_for_privacy_at_least(&self, min_privacy: f64) -> Option<&OmegaEntry> {
        self.entries()
            .filter(|e| e.evaluation.privacy >= min_privacy)
            .min_by(|a, b| {
                a.evaluation
                    .mse
                    .partial_cmp(&b.evaluation.mse)
                    .expect("finite mse for stored entries")
            })
    }

    /// The best entry whose MSE is at most `max_mse`, by privacy.
    pub fn best_for_mse_at_most(&self, max_mse: f64) -> Option<&OmegaEntry> {
        self.entries()
            .filter(|e| e.evaluation.mse <= max_mse)
            .max_by(|a, b| {
                a.evaluation
                    .privacy
                    .partial_cmp(&b.evaluation.privacy)
                    .expect("finite privacy for stored entries")
            })
    }

    /// The privacy range `(min, max)` currently covered by Ω.
    pub fn privacy_range(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in self.entries() {
            lo = lo.min(e.evaluation.privacy);
            hi = hi.max(e.evaluation.privacy);
        }
        if lo.is_finite() {
            Some((lo, hi))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr::schemes::warner;

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

    #[test]
    fn construction_and_slot_mapping() {
        let omega = OmegaSet::new(1000);
        assert_eq!(omega.num_slots(), 1000);
        assert!(omega.is_empty());
        assert_eq!(omega.len(), 0);
        assert_eq!(omega.improvements(), 0);
        // The paper's example: privacy 0.1523 lands in slot 152.
        assert_eq!(omega.slot_of(0.1523), 152);
        assert_eq!(omega.slot_of(0.0), 0);
        assert_eq!(omega.slot_of(1.0), 999);
        assert_eq!(omega.slot_of(2.0), 999);
        assert_eq!(omega.slot_of(-0.5), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = OmegaSet::new(0);
    }

    #[test]
    fn offer_fills_and_replaces_only_on_improvement() {
        let mut omega = OmegaSet::new(100);
        let m = matrix();
        assert!(omega.offer(&m, &eval(0.35, 1e-4)));
        assert_eq!(omega.len(), 1);
        assert_eq!(omega.improvements(), 1);
        // Worse MSE in the same slot: rejected.
        assert!(!omega.offer(&m, &eval(0.352, 2e-4)));
        assert_eq!(omega.improvements(), 1);
        // Better MSE in the same slot: replaces.
        assert!(omega.offer(&m, &eval(0.351, 5e-5)));
        assert_eq!(omega.len(), 1);
        assert_eq!(omega.improvements(), 2);
        let stored = omega.entry(omega.slot_of(0.35)).unwrap();
        assert!((stored.evaluation.mse - 5e-5).abs() < 1e-18);
        // Different slot: new entry.
        assert!(omega.offer(&m, &eval(0.72, 3e-4)));
        assert_eq!(omega.len(), 2);
    }

    #[test]
    fn infeasible_entries_are_rejected() {
        let mut omega = OmegaSet::new(10);
        let m = matrix();
        let infeasible = Evaluation {
            privacy: 0.4,
            mse: 1e-4,
            max_posterior: 0.95,
            feasible: false,
        };
        assert!(!omega.offer(&m, &infeasible));
        let nan_mse = Evaluation {
            privacy: 0.4,
            mse: f64::INFINITY,
            max_posterior: 0.7,
            feasible: true,
        };
        assert!(!omega.offer(&m, &nan_mse));
        assert!(omega.is_empty());
    }

    #[test]
    fn entries_iterate_in_privacy_order() {
        let mut omega = OmegaSet::new(100);
        let m = matrix();
        omega.offer(&m, &eval(0.7, 1e-3));
        omega.offer(&m, &eval(0.2, 1e-5));
        omega.offer(&m, &eval(0.45, 1e-4));
        let privacies: Vec<f64> = omega.entries().map(|e| e.evaluation.privacy).collect();
        assert_eq!(privacies, vec![0.2, 0.45, 0.7]);
        assert_eq!(omega.privacy_range(), Some((0.2, 0.7)));
        assert_eq!(OmegaSet::new(10).privacy_range(), None);
    }

    #[test]
    fn pareto_entries_drop_dominated_slots() {
        let mut omega = OmegaSet::new(100);
        let m = matrix();
        omega.offer(&m, &eval(0.30, 1e-4));
        omega.offer(&m, &eval(0.50, 5e-5)); // dominates the first (better both ways)
        omega.offer(&m, &eval(0.70, 2e-4)); // non-dominated (best privacy)
        let pareto = omega.pareto_entries();
        let privacies: Vec<f64> = pareto.iter().map(|e| e.evaluation.privacy).collect();
        assert_eq!(privacies, vec![0.50, 0.70]);
    }

    #[test]
    fn requirement_queries() {
        let mut omega = OmegaSet::new(100);
        let m = matrix();
        omega.offer(&m, &eval(0.3, 1e-5));
        omega.offer(&m, &eval(0.5, 8e-5));
        omega.offer(&m, &eval(0.7, 4e-4));
        // Need privacy >= 0.45: the best MSE among {0.5, 0.7} entries is 8e-5.
        let pick = omega.best_for_privacy_at_least(0.45).unwrap();
        assert!((pick.evaluation.privacy - 0.5).abs() < 1e-12);
        // Need MSE <= 1e-4: the best privacy among qualifying entries is 0.5.
        let pick = omega.best_for_mse_at_most(1e-4).unwrap();
        assert!((pick.evaluation.privacy - 0.5).abs() < 1e-12);
        // Impossible requirements return None.
        assert!(omega.best_for_privacy_at_least(0.9).is_none());
        assert!(omega.best_for_mse_at_most(1e-9).is_none());
    }

    #[test]
    fn entry_out_of_range_is_none() {
        let omega = OmegaSet::new(10);
        assert!(omega.entry(3).is_none());
        assert!(omega.entry(99).is_none());
    }

    #[test]
    fn queries_on_empty_omega_return_none() {
        let omega = OmegaSet::new(100);
        assert!(omega.best_for_privacy_at_least(0.0).is_none());
        assert!(omega.best_for_privacy_at_least(f64::NEG_INFINITY).is_none());
        assert!(omega.best_for_mse_at_most(f64::INFINITY).is_none());
        assert!(omega.pareto_entries().is_empty());
    }

    #[test]
    fn queries_at_exact_boundaries_are_inclusive() {
        let mut omega = OmegaSet::new(100);
        let m = matrix();
        omega.offer(&m, &eval(0.5, 8e-5));
        // privacy >= the stored value exactly: the entry qualifies.
        let pick = omega.best_for_privacy_at_least(0.5).unwrap();
        assert_eq!(pick.evaluation.privacy.to_bits(), 0.5f64.to_bits());
        // mse <= the stored value exactly: the entry qualifies.
        let pick = omega.best_for_mse_at_most(8e-5).unwrap();
        assert_eq!(pick.evaluation.mse.to_bits(), 8e-5f64.to_bits());
        // Just past either boundary: no match.
        assert!(omega.best_for_privacy_at_least(0.5 + 1e-12).is_none());
        assert!(omega.best_for_mse_at_most(8e-5 - 1e-19).is_none());
    }

    #[test]
    fn queries_cover_first_and_last_slot() {
        let mut omega = OmegaSet::new(10);
        let m = matrix();
        // Slot 0 (privacy 0.0) and slot 9 (privacy 1.0 clamps into the
        // last slot) are both queryable.
        omega.offer(&m, &eval(0.0, 1e-4));
        omega.offer(&m, &eval(1.0, 9e-4));
        assert_eq!(omega.len(), 2);
        assert_eq!(omega.slot_of(1.0), 9);
        let top = omega.best_for_privacy_at_least(1.0).unwrap();
        assert_eq!(top.evaluation.privacy, 1.0);
        let bottom = omega.best_for_mse_at_most(1e-4).unwrap();
        assert_eq!(bottom.evaluation.privacy, 0.0);
    }

    #[test]
    fn slot_index_matches_method_and_rejects_zero_slots() {
        let omega = OmegaSet::new(777);
        for p in [-1.0, 0.0, 0.1523, 0.5, 0.999, 1.0, 3.0] {
            assert_eq!(slot_index(p, 777), omega.slot_of(p));
        }
        assert!(std::panic::catch_unwind(|| slot_index(0.5, 0)).is_err());
    }

    #[test]
    fn approx_bytes_tracks_fills_and_clear_resets() {
        let mut omega = OmegaSet::new(50);
        assert_eq!(omega.approx_bytes(), 0, "an empty Ω has no payload");
        let m = matrix();
        omega.offer(&m, &eval(0.3, 1e-4));
        omega.offer(&m, &eval(0.7, 2e-4));
        // Each 4-category entry accounts its 16 matrix cells plus overhead.
        assert_eq!(omega.approx_bytes(), 2 * (16 * 8 + 64));
        omega.clear();
        assert!(omega.is_empty());
        assert_eq!(omega.improvements(), 0);
        assert_eq!(omega.approx_bytes(), 0);
        // A cleared Ω accepts offers again.
        assert!(omega.offer(&m, &eval(0.5, 1e-4)));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        let prior = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let same = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let fp = omega_fingerprint(&prior, 0.8, 1000);
        assert_eq!(fp, omega_fingerprint(&same, 0.8, 1000));
        // Last-ulp noise in the probabilities is absorbed.
        let noisy = Categorical::new(vec![0.4 + 1e-15, 0.3 - 1e-15, 0.2, 0.1]).unwrap();
        assert_eq!(fp, omega_fingerprint(&noisy, 0.8, 1000));
        // Different delta, slot count, or prior: different key.
        assert_ne!(fp, omega_fingerprint(&prior, 0.75, 1000));
        assert_ne!(fp, omega_fingerprint(&prior, 0.8, 500));
        let other = Categorical::new(vec![0.3, 0.4, 0.2, 0.1]).unwrap();
        assert_ne!(fp, omega_fingerprint(&other, 0.8, 1000));
    }
}
