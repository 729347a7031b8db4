//! The warm-Ω registry: one entry per canonical `(prior, δ, num_slots)`
//! fingerprint.
//!
//! Since the lifecycle refactor the per-key state lives in
//! [`KeyLifecycle`] (re-exported here as [`KeyEntry`] — the name the rest
//! of the workspace grew up with): the state machine, the warm store,
//! the pinned pipeline, the run counter, and the memory-accounting
//! telemetry all travel together. The registry itself is the
//! fingerprint-keyed map over those entries: a read-mostly `RwLock` where
//! queries take the read lock for the time it takes to clone one `Arc`.

use crate::lifecycle::{KeyLifecycle, TransitionSink};
use optrr::omega_fingerprint;
use stats::Categorical;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One registered problem and its unified lifecycle state.
pub type KeyEntry = KeyLifecycle;

/// The fingerprint-keyed registry of warm stores, with optional
/// human-readable name aliases for scripted sessions.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<HashMap<u64, Arc<KeyEntry>>>,
    names: RwLock<HashMap<String, u64>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // Both maps only ever see whole-value mutations under their locks
    // (insert an `Arc`, insert a `String -> u64` binding), so a writer
    // that panicked mid-critical-section cannot have left a half-built
    // entry behind — a poisoned lock is recovered, not escalated into
    // every later registration and query.
    fn entries_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<u64, Arc<KeyEntry>>> {
        self.entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn entries_write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<u64, Arc<KeyEntry>>> {
        self.entries
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn names_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, u64>> {
        self.names
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns the entry for the canonical fingerprint of
    /// `(prior, delta, num_slots)`, creating a cold one when absent. The
    /// boolean is `true` when the entry was just created and needs a
    /// warm-up run.
    pub fn insert_or_get(
        &self,
        prior: &Categorical,
        delta: f64,
        num_slots: usize,
    ) -> (Arc<KeyEntry>, bool) {
        self.insert_or_get_observed(prior, delta, num_slots, |_| None)
    }

    /// [`insert_or_get`], attaching a lifecycle [`TransitionSink`] when
    /// the entry is created. The sink factory receives the canonical
    /// fingerprint (so it can bake the key into trace events) and runs
    /// under the write lock *before* the entry is published, so no
    /// transition — not even a racing first warm-up claim — can slip by
    /// unobserved. The sink is recording-only; see [`TransitionSink`].
    ///
    /// [`insert_or_get`]: Registry::insert_or_get
    pub fn insert_or_get_observed(
        &self,
        prior: &Categorical,
        delta: f64,
        num_slots: usize,
        sink_for: impl FnOnce(u64) -> Option<TransitionSink>,
    ) -> (Arc<KeyEntry>, bool) {
        let key = omega_fingerprint(prior, delta, num_slots);
        if let Some(entry) = self.entries_read().get(&key) {
            return (Arc::clone(entry), false);
        }
        let mut entries = self.entries_write();
        // Double-checked under the write lock: a concurrent register may
        // have inserted the same fingerprint between the two lock scopes.
        if let Some(entry) = entries.get(&key) {
            return (Arc::clone(entry), false);
        }
        let entry = Arc::new(KeyEntry::with_sink(
            key,
            prior.clone(),
            delta,
            num_slots,
            sink_for(key),
        ));
        entries.insert(key, Arc::clone(&entry));
        (entry, true)
    }

    /// Binds a human-readable alias to a key (latest binding wins).
    pub fn bind_name(&self, name: &str, key: u64) {
        self.names
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(name.to_string(), key);
    }

    /// Resolves an entry by explicit key or by alias, preferring the key.
    pub fn resolve(&self, key: Option<u64>, name: Option<&str>) -> Option<Arc<KeyEntry>> {
        let key = key.or_else(|| {
            let names = self.names_read();
            name.and_then(|n| names.get(n).copied())
        })?;
        self.entries_read().get(&key).map(Arc::clone)
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.entries_read().len()
    }

    /// Whether no key is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All aliases bound to a key, sorted — the inverse of [`bind_name`].
    ///
    /// [`bind_name`]: Registry::bind_name
    pub fn names_of(&self, key: u64) -> Vec<String> {
        self.names_by_key().remove(&key).unwrap_or_default()
    }

    /// The whole alias map inverted in one pass: key → sorted aliases.
    /// Snapshotting uses this instead of a per-key [`names_of`] scan so a
    /// `Save` over many keys stays linear in the alias count.
    ///
    /// [`names_of`]: Registry::names_of
    pub fn names_by_key(&self) -> HashMap<u64, Vec<String>> {
        let names = self.names_read();
        let mut inverse: HashMap<u64, Vec<String>> = HashMap::new();
        for (name, key) in names.iter() {
            inverse.entry(*key).or_default().push(name.clone());
        }
        drop(names);
        for aliases in inverse.values_mut() {
            aliases.sort();
        }
        inverse
    }

    /// Snapshot of all entries, in unspecified order.
    pub fn entries(&self) -> Vec<Arc<KeyEntry>> {
        self.entries_read().values().map(Arc::clone).collect()
    }

    /// Total approximate resident bytes across every entry with warm
    /// data — the quantity a memory budget bounds. Cold and evicted keys
    /// count zero: an empty slot vector is bounded by
    /// [`crate::MAX_OMEGA_SLOTS`], not by the budget.
    pub fn resident_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.resident_bytes()).sum()
    }

    /// The least-recently-touched entry that is currently evictable
    /// (resident, idle, and not the protected key), when any.
    pub fn lru_evictable(&self, protect: u64) -> Option<Arc<KeyEntry>> {
        self.entries()
            .into_iter()
            .filter(|e| {
                e.key() != protect
                    && e.lifecycle().inflight() == 0
                    && matches!(
                        e.state(),
                        // Degraded keys are evictable on purpose: their
                        // deterministic re-warm replay is fault-free, so
                        // a budget eviction doubles as a recovery path.
                        crate::lifecycle::KeyState::Warm
                            | crate::lifecycle::KeyState::Stale(_)
                            | crate::lifecycle::KeyState::Degraded(_)
                    )
            })
            .min_by_key(|e| (e.last_touch_ms(), e.key()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{KeyState, StaleReason};

    fn prior() -> Categorical {
        Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap()
    }

    #[test]
    fn insert_or_get_dedupes_by_fingerprint() {
        let registry = Registry::new();
        let (a, created_a) = registry.insert_or_get(&prior(), 0.8, 100);
        let (b, created_b) = registry.insert_or_get(&prior(), 0.8, 100);
        assert!(created_a);
        assert!(!created_b);
        assert_eq!(a.key(), b.key());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
        // A different delta is a different key.
        let (c, created_c) = registry.insert_or_get(&prior(), 0.75, 100);
        assert!(created_c);
        assert_ne!(a.key(), c.key());
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.entries().len(), 2);
    }

    #[test]
    fn resolve_by_key_and_by_name() {
        let registry = Registry::new();
        let (entry, _) = registry.insert_or_get(&prior(), 0.8, 100);
        registry.bind_name("demo", entry.key());
        assert!(registry.resolve(Some(entry.key()), None).is_some());
        assert!(registry.resolve(None, Some("demo")).is_some());
        // Key takes precedence over a name that resolves elsewhere.
        let resolved = registry
            .resolve(Some(entry.key()), Some("missing"))
            .unwrap();
        assert_eq!(resolved.key(), entry.key());
        assert!(registry.resolve(None, Some("missing")).is_none());
        assert!(registry.resolve(Some(42), None).is_none());
        assert!(registry.resolve(None, None).is_none());
    }

    #[test]
    fn names_of_inverts_bind_name_sorted() {
        let registry = Registry::new();
        let (entry, _) = registry.insert_or_get(&prior(), 0.8, 100);
        assert!(registry.names_of(entry.key()).is_empty());
        registry.bind_name("zeta", entry.key());
        registry.bind_name("alpha", entry.key());
        assert_eq!(registry.names_of(entry.key()), vec!["alpha", "zeta"]);
        assert!(registry.names_of(12345).is_empty());
    }

    #[test]
    fn entry_bookkeeping_counters() {
        let registry = Registry::new();
        let (entry, _) = registry.insert_or_get(&prior(), 0.8, 100);
        assert!(!entry.is_warm());
        assert!(!entry.is_stale());
        assert_eq!(entry.state(), KeyState::Cold);
        assert_eq!(entry.engine_runs(), 0);
        assert_eq!(entry.claim_run_index(), 0);
        assert_eq!(entry.claim_run_index(), 1);
        assert_eq!(entry.engine_runs(), 2);
        entry.count_query(true);
        entry.count_query(false);
        assert_eq!(entry.queries(), 2);
        assert_eq!(entry.warm_hits(), 1);
        assert!(entry.take_warm_seeds().is_empty());
        assert!(entry.last_statistics().is_none());
        assert_eq!(entry.delta(), 0.8);
        assert_eq!(entry.num_slots(), 100);
        assert_eq!(entry.prior().num_categories(), 4);
        assert!(entry.store().is_empty());
    }

    #[test]
    fn lru_scan_orders_by_touch_and_skips_non_evictable_entries() {
        let registry = Registry::new();
        let (a, _) = registry.insert_or_get(&prior(), 0.8, 100);
        let (b, _) = registry.insert_or_get(&prior(), 0.7, 100);
        let (c, _) = registry.insert_or_get(&prior(), 0.6, 100);
        // Nothing resident yet: nothing to evict.
        assert!(registry.lru_evictable(0).is_none());
        for entry in [&a, &b, &c] {
            entry.lifecycle().claim_warmup();
            entry.lifecycle().begin_run().land();
        }
        a.touch(30);
        b.touch(10);
        c.touch(20);
        // Least recently touched wins; the protected key is skipped.
        assert_eq!(registry.lru_evictable(0).unwrap().key(), b.key());
        assert_eq!(registry.lru_evictable(b.key()).unwrap().key(), c.key());
        // Stale keys remain evictable; keys with runs in flight are not.
        b.lifecycle().try_mark_stale(StaleReason::Drift);
        assert_eq!(registry.lru_evictable(0).unwrap().key(), b.key());
        let claim = b.lifecycle().begin_run();
        assert_eq!(registry.lru_evictable(0).unwrap().key(), c.key());
        drop(claim);
    }
}
