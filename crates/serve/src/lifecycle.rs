//! The per-key lifecycle engine: one state machine per registered tenant.
//!
//! [`KeyLifecycle`] holds all of a key's serving state in one place and
//! makes its transitions explicit:
//!
//! ```text
//!            claim_warmup            run claim resolves
//!   Cold ───────────────▶ Warming ───────────────────▶ Warm
//!                            ▲                          │ ▲
//!               claim_rewarm │          try_mark_stale  │ │ landed claim resolves
//!                            │                          ▼ │
//!   Evicted ◀─ try_evict ────┴─ Warm|Stale|Degraded  Stale(reason)
//!      │                                                │
//!      └◀─── try_evict ──── (idle only)    begin_run    ▼
//!                                           Refreshing(reason)
//!                                                       │
//!                     fail budget exhausted             ▼
//!   Warm ◀─── successful refresh ─────────── Degraded(reason)
//! ```
//!
//! `Degraded(reason)` is the graceful-degradation terminal of a failed
//! refresh episode: after the configured budget of consecutive refresh
//! failures, the key stops retrying and keeps answering from its
//! last-good warm Ω (responses carry a `degraded` flag) until a later
//! successful run restores `Warm`.
//!
//! Every transition is a compare-exchange on one packed atomic word, so
//! exactly-once claims (one warm-up per cold key, one scheduled refresh
//! per drift observation, one re-warm per evicted key) are properties of
//! the type rather than of call-site discipline. Waiting ("block until
//! this key can answer queries") is a condvar over the same word, which is
//! what replaced the old one-way latch: eviction can close the gate again,
//! and a re-warm reopens it.
//!
//! The struct also owns everything the state guards: the warm-Ω store,
//! the pinned streaming pipeline (disguise channel, ingest accumulator,
//! posterior), the warm-start seed set, the deterministic run counter,
//! and the per-key counters — plus the byte accounting and
//! LRU touch stamp the memory-budgeted registry evicts by. Those counters
//! are the only store of their facts: every service-wide total
//! (`Service::totals`, the `Stats {}` verb, the `Metrics` view counters)
//! is a sum over the registry computed when it is read.

use crate::pipeline::KeyPipeline;
use crate::shard::WarmStore;
use optrr::{OptrrOutcome, RunStatistics};
use rr::RrMatrix;
use stats::Categorical;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Why a key went stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleReason {
    /// An explicit `Refresh` request.
    Manual,
    /// Estimation drift: the estimated distribution left the registered
    /// prior beyond the configured MSE threshold.
    Drift,
    /// Query-shape telemetry: repeated point queries landed in privacy
    /// ranges the warm store does not cover.
    Coverage,
}

impl StaleReason {
    fn encode(self) -> u8 {
        match self {
            StaleReason::Manual => 0,
            StaleReason::Drift => 1,
            StaleReason::Coverage => 2,
        }
    }

    fn decode(bits: u8) -> Self {
        match bits {
            0 => StaleReason::Manual,
            1 => StaleReason::Drift,
            _ => StaleReason::Coverage,
        }
    }
}

impl std::fmt::Display for StaleReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StaleReason::Manual => "manual",
            StaleReason::Drift => "drift",
            StaleReason::Coverage => "coverage",
        })
    }
}

/// The lifecycle state of one registered key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyState {
    /// Registered, no warm-up claimed yet.
    Cold,
    /// A warm-up (or re-warm after eviction) is claimed or executing; the
    /// store holds no queryable data yet and queries wait.
    Warming,
    /// Warm data is resident and fresh; queries answer immediately.
    Warm,
    /// Warm data is resident but a refresh is due for the given reason.
    /// Queries still answer from the current store.
    Stale(StaleReason),
    /// Warm data is resident and at least one refresh engine run is in
    /// flight for the given reason. Queries still answer.
    Refreshing(StaleReason),
    /// An eviction is in progress: the evictor won the claim and is
    /// snapshotting/dropping the resident state. Queries and queued runs
    /// wait for the (brief, bounded) transition to `Evicted` — this is
    /// what makes "snapshot, then drop" atomic to every observer.
    Evicting,
    /// The key's resident state was evicted. The next query claims a
    /// re-warm and waits for it.
    Evicted,
    /// The refresh fail budget was exhausted: the key's last refresh
    /// episode (for the given reason) failed repeatedly, automatic
    /// retries stopped, and the key serves its last-good warm Ω with a
    /// `degraded` flag until a later successful run restores `Warm`.
    Degraded(StaleReason),
}

impl KeyState {
    const COLD: u8 = 0;
    const WARMING: u8 = 1;
    const WARM: u8 = 2;
    const STALE: u8 = 3;
    const REFRESHING: u8 = 4;
    const EVICTING: u8 = 5;
    const EVICTED: u8 = 6;
    const DEGRADED: u8 = 7;

    fn encode(self) -> u8 {
        match self {
            KeyState::Cold => Self::COLD,
            KeyState::Warming => Self::WARMING,
            KeyState::Warm => Self::WARM,
            KeyState::Stale(r) => Self::STALE | (r.encode() << 4),
            KeyState::Refreshing(r) => Self::REFRESHING | (r.encode() << 4),
            KeyState::Evicting => Self::EVICTING,
            KeyState::Evicted => Self::EVICTED,
            KeyState::Degraded(r) => Self::DEGRADED | (r.encode() << 4),
        }
    }

    fn decode(bits: u8) -> Self {
        let reason = StaleReason::decode(bits >> 4);
        match bits & 0x0f {
            Self::COLD => KeyState::Cold,
            Self::WARMING => KeyState::Warming,
            Self::WARM => KeyState::Warm,
            Self::STALE => KeyState::Stale(reason),
            Self::REFRESHING => KeyState::Refreshing(reason),
            Self::EVICTING => KeyState::Evicting,
            Self::DEGRADED => KeyState::Degraded(reason),
            _ => KeyState::Evicted,
        }
    }

    /// Whether warm data is resident (the old "latch is open" predicate).
    /// Degraded keys keep their last-good warm store resident — that is
    /// the whole point of the state — so they answer queries too.
    pub fn has_warm_data(self) -> bool {
        matches!(
            self,
            KeyState::Warm | KeyState::Stale(_) | KeyState::Refreshing(_) | KeyState::Degraded(_)
        )
    }

    /// Whether the key is due (or already being refreshed) for a reason.
    /// A degraded key still owes a refresh — it just stopped retrying.
    pub fn is_stale(self) -> bool {
        matches!(
            self,
            KeyState::Stale(_) | KeyState::Refreshing(_) | KeyState::Degraded(_)
        )
    }

    /// Whether the key is serving degraded (last-good) data.
    pub fn is_degraded(self) -> bool {
        matches!(self, KeyState::Degraded(_))
    }

    /// The staleness reason, when one applies.
    pub fn stale_reason(self) -> Option<StaleReason> {
        match self {
            KeyState::Stale(r) | KeyState::Refreshing(r) | KeyState::Degraded(r) => Some(r),
            _ => None,
        }
    }
}

impl std::fmt::Display for KeyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyState::Cold => write!(f, "cold"),
            KeyState::Warming => write!(f, "warming"),
            KeyState::Warm => write!(f, "warm"),
            KeyState::Stale(r) => write!(f, "stale({r})"),
            KeyState::Refreshing(r) => write!(f, "refreshing({r})"),
            KeyState::Evicting => write!(f, "evicting"),
            KeyState::Evicted => write!(f, "evicted"),
            KeyState::Degraded(r) => write!(f, "degraded({r})"),
        }
    }
}

/// A recording-only callback observing every successful state transition
/// `(from, to)` of one key's [`StateCell`] — the hook the service's event
/// trace attaches at registration. The sink fires *after* the
/// compare-exchange lands, sees only the two states, and returns nothing,
/// so it can never influence a transition: lifecycles with and without a
/// sink behave bit-identically.
pub type TransitionSink = Arc<dyn Fn(KeyState, KeyState) + Send + Sync>;

/// The compare-exchange-guarded state cell: one packed atomic word plus a
/// condvar for waiters. All legal transitions are methods; anything else
/// simply fails the compare-exchange and returns `false`.
pub struct StateCell {
    bits: AtomicU8,
    /// Engine runs currently executing for this key (a refresh request may
    /// schedule several). The state leaves `Refreshing`/`Warming` only
    /// when this drops to zero.
    inflight: AtomicU64,
    gate: Mutex<()>,
    changed: Condvar,
    sink: Option<TransitionSink>,
}

impl std::fmt::Debug for StateCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateCell")
            .field("state", &self.state())
            .field("inflight", &self.inflight())
            .field("observed", &self.sink.is_some())
            .finish()
    }
}

impl Default for StateCell {
    fn default() -> Self {
        Self::new()
    }
}

impl StateCell {
    /// A fresh cell in [`KeyState::Cold`].
    pub fn new() -> Self {
        Self::with_sink(None)
    }

    /// A fresh cold cell whose successful transitions are reported to
    /// `sink` (see [`TransitionSink`]).
    pub fn with_sink(sink: Option<TransitionSink>) -> Self {
        Self {
            bits: AtomicU8::new(KeyState::Cold.encode()),
            inflight: AtomicU64::new(0),
            gate: Mutex::new(()),
            changed: Condvar::new(),
            sink,
        }
    }

    /// The current state.
    ///
    /// This load keeps acquire (SeqCst) semantics on purpose — unlike the
    /// pure-telemetry counters below, it guards data: a reader that
    /// observes `has_warm_data()` goes on to read the warm store and seed
    /// set the finishing run populated *before* its release CAS to `Warm`,
    /// so the load must synchronize-with that CAS.
    pub fn state(&self) -> KeyState {
        KeyState::decode(self.bits.load(Ordering::SeqCst))
    }

    /// Engine runs currently executing.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::SeqCst)
    }

    fn cas(&self, from: KeyState, to: KeyState) -> bool {
        let swapped = self
            .bits
            .compare_exchange(
                from.encode(),
                to.encode(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if swapped {
            // Sink before notify: a waiter woken by this transition may
            // immediately emit its own trace events, so the transition
            // must reach the trace first to keep the ring causally
            // ordered.
            if let Some(sink) = &self.sink {
                sink(from, to);
            }
            self.notify();
        }
        swapped
    }

    // The gate mutex guards no data — it only sequences the condvar with
    // the atomic state word — and every lock below recovers from
    // poisoning instead of panicking: a thread that panicked while
    // holding the gate cannot have left anything inconsistent behind (the
    // state itself lives in the atomic), so a poisoned gate is safe to
    // reuse and must not cascade the panic into every later waiter.
    fn gate_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn notify(&self) {
        let _guard = self.gate_lock();
        self.changed.notify_all();
    }

    /// Claims the cold warm-up: `Cold → Warming`. Exactly one caller per
    /// key ever wins this claim.
    pub fn claim_warmup(&self) -> bool {
        self.cas(KeyState::Cold, KeyState::Warming)
    }

    /// Claims the re-warm of an evicted key: `Evicted → Warming`. Exactly
    /// one caller per eviction wins.
    pub fn claim_rewarm(&self) -> bool {
        self.cas(KeyState::Evicted, KeyState::Warming)
    }

    /// Marks the key stale: `Warm → Stale(reason)`. Fails (preserving the
    /// original reason) when the key is already stale, refreshing, or not
    /// yet warm — so the first observer of a drift episode is the only one
    /// that schedules work, and a manual refresh cannot demote a
    /// drift-stale key to `Manual`.
    pub fn try_mark_stale(&self, reason: StaleReason) -> bool {
        self.cas(KeyState::Warm, KeyState::Stale(reason))
    }

    /// A worker starts one engine run, held by the returned [`RunClaim`]
    /// until it resolves. Transitions `Warm`/`Stale` into `Refreshing`
    /// (keeping the reason), keeps `Warming`/`Refreshing` (a second
    /// concurrent run) and `Degraded` (until a run actually lands), and
    /// re-opens `Cold`/`Evicted` as `Warming` (a queued job that raced an
    /// eviction re-warms the key). A run arriving mid-eviction first waits
    /// out `Evicting`, so it never interleaves with the evictor's
    /// snapshot-and-drop.
    pub fn begin_run(&self) -> RunClaim<'_> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        loop {
            let observed = self.state();
            let next = match observed {
                KeyState::Evicting => {
                    self.wait_while_evicting();
                    continue;
                }
                KeyState::Cold | KeyState::Warming | KeyState::Evicted => KeyState::Warming,
                KeyState::Warm => KeyState::Refreshing(StaleReason::Manual),
                KeyState::Stale(r) | KeyState::Refreshing(r) => KeyState::Refreshing(r),
                KeyState::Degraded(r) => KeyState::Degraded(r),
            };
            if observed == next || self.cas(observed, next) {
                return RunClaim {
                    cell: self,
                    started_from: observed,
                    landed: false,
                    degrade: false,
                };
            }
        }
    }

    /// Blocks while an eviction is in progress. The evictor always
    /// resolves `Evicting` to `Evicted` in bounded time (a sidecar write
    /// plus a store clear), so this cannot wedge.
    fn wait_while_evicting(&self) {
        let mut guard = self.gate_lock();
        while self.state() == KeyState::Evicting {
            guard = self
                .changed
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Resolves one run (only ever from [`RunClaim`]'s drop). When the
    /// last in-flight run resolves, `Warming` becomes `Warm` whether or
    /// not the run landed (a failed warm-up leaves an empty store that
    /// answers `NoMatch` rather than wedging). `Refreshing(r)` becomes
    /// `Warm` when the run landed, `Degraded(r)` when it failed and
    /// exhausted the fail budget (`degrade`), and `Stale(r)` otherwise,
    /// so the debt stays visible. A landed run always restores `Warm`,
    /// including from `Degraded`.
    fn finish_run(&self, landed: bool, degrade: bool) {
        if self.inflight.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        loop {
            let observed = self.state();
            let next = match observed {
                KeyState::Warming => KeyState::Warm,
                KeyState::Refreshing(_) | KeyState::Degraded(_) if landed => KeyState::Warm,
                KeyState::Refreshing(r) if degrade => KeyState::Degraded(r),
                KeyState::Refreshing(r) => KeyState::Stale(r),
                // A failed recovery run keeps the degraded verdict (the
                // fail budget stays exhausted), and a concurrent
                // begin_run may already own the state again.
                other => other,
            };
            if observed == next || self.cas(observed, next) {
                return;
            }
        }
    }

    /// Claims the eviction of an idle key: `Warm | Stale | Degraded →
    /// Evicting`, only when no run is in flight. The winner snapshots and
    /// drops the resident state, then resolves the claim with
    /// [`finish_evict`]; queries, re-warm claims, and queued runs all
    /// wait out the `Evicting` window, so "snapshot, then drop" is
    /// atomic to every observer. `Warming`/`Refreshing` keys are never
    /// evicted (their runs are about to land bytes anyway), and
    /// `Cold`/`Evicted` keys have nothing to evict. Degraded keys *are*
    /// evictable: the deterministic re-warm replay is fault-free, so an
    /// eviction is actually a recovery path for them.
    ///
    /// [`finish_evict`]: StateCell::finish_evict
    pub fn try_evict(&self) -> bool {
        if self.inflight.load(Ordering::SeqCst) != 0 {
            return false;
        }
        loop {
            let observed = self.state();
            match observed {
                KeyState::Warm | KeyState::Stale(_) | KeyState::Degraded(_) => {
                    if self.cas(observed, KeyState::Evicting) {
                        return true;
                    }
                }
                _ => return false,
            }
        }
    }

    /// Resolves a won [`try_evict`] claim: `Evicting → Evicted`, waking
    /// everything that waited out the eviction window.
    ///
    /// [`try_evict`]: StateCell::try_evict
    pub fn finish_evict(&self) {
        let resolved = self.cas(KeyState::Evicting, KeyState::Evicted);
        assert!(resolved, "finish_evict without a won try_evict claim");
    }

    /// Restores a freshly created key directly into `Evicted` — the
    /// snapshot-load path for keys whose resident state was evicted
    /// before the snapshot was written (their next query re-warms them
    /// from the sidecar or by engine replay). `Cold → Evicted` only.
    pub fn restore_evicted(&self) -> bool {
        self.cas(KeyState::Cold, KeyState::Evicted)
    }

    /// Blocks while the key has no warm data *and* is not evicted: i.e.
    /// through `Cold`/`Warming`/`Evicting`. Returns the state observed on
    /// wake-up; callers loop, handling `Evicted` by claiming a re-warm.
    pub fn wait_while_warming(&self) -> KeyState {
        let mut guard = self.gate_lock();
        loop {
            let state = self.state();
            if !matches!(
                state,
                KeyState::Cold | KeyState::Warming | KeyState::Evicting
            ) {
                return state;
            }
            guard = self
                .changed
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// One engine run's claim on a key, from [`StateCell::begin_run`].
/// Dropping it resolves the run — on return, error and unwinding panic
/// alike — so no run can wedge its key in `Warming`/`Refreshing`. The
/// run counts as failed unless [`RunClaim::land`] was called.
#[derive(Debug)]
#[must_use = "dropping the claim resolves the run at once"]
pub struct RunClaim<'a> {
    cell: &'a StateCell,
    started_from: KeyState,
    landed: bool,
    degrade: bool,
}

impl RunClaim<'_> {
    /// The state the run started from: whether this is a warm-up or a
    /// refresh, and for which reason.
    pub fn started_from(&self) -> KeyState {
        self.started_from
    }

    /// Marks the run landed: the claim resolves the key `Warm`.
    pub fn land(&mut self) {
        self.landed = true;
    }

    /// Marks a failed run as exhausting the refresh fail budget: a
    /// `Refreshing(r)` key resolves to `Degraded(r)` instead of
    /// `Stale(r)`.
    pub fn degrade(&mut self) {
        self.degrade = true;
    }
}

impl Drop for RunClaim<'_> {
    fn drop(&mut self) {
        self.cell.finish_run(self.landed, self.degrade);
    }
}

/// The unified per-key state: identity, state machine, and every resident
/// structure the machine guards. This is what the registry stores per
/// fingerprint (re-exported there as `KeyEntry` for continuity).
#[derive(Debug)]
pub struct KeyLifecycle {
    key: u64,
    prior: Categorical,
    delta: f64,
    num_slots: usize,
    state: StateCell,
    store: WarmStore,
    engine_runs: AtomicU64,
    queries: AtomicU64,
    /// Queries that found warm data resident on arrival (no wait for a
    /// warm-up or re-warm).
    warm_hits: AtomicU64,
    warm_seeds: Mutex<Vec<RrMatrix>>,
    last_statistics: Mutex<Option<RunStatistics>>,
    pipeline: Mutex<Option<Arc<KeyPipeline>>>,
    /// Milliseconds (on the owning service's clock) of the last query,
    /// ingest, estimate, or registration touch — the LRU eviction order.
    last_touch_ms: AtomicU64,
    /// Point queries that found *nothing* satisfying their privacy floor —
    /// the query-shape staleness signal.
    coverage_misses: AtomicU64,
    drift_events: AtomicU64,
    evictions: AtomicU64,
    rewarms: AtomicU64,
    /// Total failed (errored or panicked) refresh runs over this key's
    /// lifetime.
    refresh_failures: AtomicU64,
    /// Total automatic retry attempts scheduled after refresh failures.
    retries: AtomicU64,
    /// Consecutive failures in the *current* refresh episode — compared
    /// against the service fail budget to decide degradation; reset by
    /// every landed run.
    failure_streak: AtomicU64,
}

// The per-key telemetry counters (queries, warm hits, touch stamp,
// coverage misses, drift events, evictions, re-warms) are accessed with
// `Ordering::Relaxed` throughout: they guard nothing and order nothing —
// every exactly-once guarantee in this module (one scheduled refresh per
// coverage episode, one eviction claim, one re-warm) comes from a
// `StateCell` CAS, never from a counter value. The counters only need each increment to land,
// which `fetch_add` guarantees at any ordering. The exceptions that stay
// SeqCst: the `StateCell` word itself (see `StateCell::state`) and
// `engine_runs`, whose value seeds deterministic refresh runs.
impl KeyLifecycle {
    pub(crate) fn with_sink(
        key: u64,
        prior: Categorical,
        delta: f64,
        num_slots: usize,
        sink: Option<TransitionSink>,
    ) -> Self {
        Self {
            key,
            prior,
            delta,
            num_slots,
            state: StateCell::with_sink(sink),
            store: WarmStore::new(num_slots),
            engine_runs: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_seeds: Mutex::new(Vec::new()),
            last_statistics: Mutex::new(None),
            pipeline: Mutex::new(None),
            last_touch_ms: AtomicU64::new(0),
            coverage_misses: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rewarms: AtomicU64::new(0),
            refresh_failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failure_streak: AtomicU64::new(0),
        }
    }

    /// The canonical fingerprint this entry is registered under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The prior distribution the matrices are optimized for.
    pub fn prior(&self) -> &Categorical {
        &self.prior
    }

    /// The privacy bound δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The Ω resolution.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The warm store.
    pub fn store(&self) -> &WarmStore {
        &self.store
    }

    /// The state machine guarding every transition of this key.
    pub fn lifecycle(&self) -> &StateCell {
        &self.state
    }

    /// The current lifecycle state.
    pub fn state(&self) -> KeyState {
        self.state.state()
    }

    /// Whether warm data is resident (the old latch predicate: queries
    /// answer without waiting).
    pub fn is_warm(&self) -> bool {
        self.state().has_warm_data()
    }

    /// Whether the entry is marked stale or currently refreshing.
    pub fn is_stale(&self) -> bool {
        self.state().is_stale()
    }

    /// Number of engine-run indices claimed for this key. The run index
    /// doubles as the deterministic seed offset for that run, so the
    /// counter survives eviction: a re-warm replays indices `0..n` without
    /// claiming new ones, and the next refresh continues the sequence.
    pub fn engine_runs(&self) -> u64 {
        self.engine_runs.load(Ordering::SeqCst)
    }

    /// Claims the next run index (incrementing the run counter).
    pub fn claim_run_index(&self) -> u64 {
        self.engine_runs.fetch_add(1, Ordering::SeqCst)
    }

    /// Restores the run counter from a snapshot, so future refreshes
    /// continue the deterministic seed sequence instead of replaying run
    /// 0. Only meaningful on a freshly created entry.
    pub fn restore_engine_runs(&self, runs: u64) {
        self.engine_runs.store(runs, Ordering::SeqCst);
    }

    /// Rolls back a claimed run index after the run failed to land
    /// anything, so the automatic retry (or the next manual refresh)
    /// re-runs the *same* deterministic seed instead of burning it —
    /// this is what keeps a faulted-then-recovered key's warm store
    /// bitwise-equal to a never-faulted run. The roll-back is a
    /// compare-exchange: if a concurrent run already claimed a later
    /// index the burned index stays claimed (nothing landed under it, so
    /// determinism degrades to "replay also lands it on re-warm", which
    /// is still a superset of the reference front).
    pub fn unclaim_run_index(&self, index: u64) -> bool {
        self.engine_runs
            .compare_exchange(index + 1, index, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Number of point/front queries served from this entry.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Queries that found warm data resident on arrival.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Counts one served query, and a warm hit when the query found warm
    /// data resident on arrival.
    pub fn count_query(&self, was_warm: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if was_warm {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    // The seed/stats/pipeline locks below recover from poisoning
    // (`unwrap_or_else(PoisonError::into_inner)`) instead of panicking:
    // every write under them is a whole-value replacement (`*guard = …`
    // or `guard.clear()`), never an in-place partial mutation, so a
    // thread that panicked mid-critical-section cannot have left a
    // half-updated value behind — the data is consistent and one
    // panicked refresh must not cascade panics into every later query.

    /// The warm-start seed set: the previous run's archive matrices.
    pub fn take_warm_seeds(&self) -> Vec<RrMatrix> {
        self.warm_seeds
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Replaces the warm-start seed set with a finished run's archive.
    pub fn put_warm_seeds(&self, seeds: Vec<RrMatrix>) {
        *self
            .warm_seeds
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = seeds;
    }

    /// The statistics of the most recent finished run, when any.
    pub fn last_statistics(&self) -> Option<RunStatistics> {
        self.last_statistics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Lands a finished engine run: its Ω joins the warm store, its
    /// archive becomes the next run's warm-start seed set, and its
    /// statistics become the latest.
    pub fn land_run(&self, outcome: OptrrOutcome) {
        self.store.absorb(&outcome.omega);
        self.put_warm_seeds(outcome.warm_seeds());
        *self
            .last_statistics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome.statistics);
    }

    /// The streaming pipeline pinned to this key, when any batch has been
    /// ingested (or a first ingest is in flight).
    pub fn pipeline(&self) -> Option<Arc<KeyPipeline>> {
        self.pipeline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Installs a freshly built pipeline unless a concurrent first ingest
    /// already pinned one; returns whichever pipeline ended up pinned.
    pub fn install_pipeline(&self, pipeline: KeyPipeline) -> Arc<KeyPipeline> {
        let mut slot = self
            .pipeline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match slot.as_ref() {
            Some(existing) => Arc::clone(existing),
            None => {
                let installed = Arc::new(pipeline);
                *slot = Some(Arc::clone(&installed));
                installed
            }
        }
    }

    /// Stamps the LRU clock.
    pub fn touch(&self, now_ms: u64) {
        self.last_touch_ms.store(now_ms, Ordering::Relaxed);
    }

    /// Milliseconds of the last touch on the owning service's clock.
    pub fn last_touch_ms(&self) -> u64 {
        self.last_touch_ms.load(Ordering::Relaxed)
    }

    /// Counts one coverage miss (a point query no stored matrix could
    /// satisfy) and returns the new total. Relaxed is enough even for the
    /// threshold comparison built on this return value: `fetch_add` is
    /// atomic at any ordering, so every miss observes a distinct total,
    /// and the exactly-once refresh claim is the `try_mark_stale` CAS,
    /// not the count.
    pub fn count_coverage_miss(&self) -> u64 {
        self.coverage_misses.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Point queries that matched nothing in the current coverage
    /// episode (reset when a coverage-stale claim wins, so each episode
    /// schedules exactly one refresh instead of one per further miss).
    pub fn coverage_misses(&self) -> u64 {
        self.coverage_misses.load(Ordering::Relaxed)
    }

    /// Starts a new coverage episode (the miss count begins again).
    pub fn reset_coverage_misses(&self) {
        self.coverage_misses.store(0, Ordering::Relaxed);
    }

    /// Counts one drift event (an estimate beyond the MSE threshold).
    pub fn count_drift_event(&self) {
        self.drift_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Drift events observed for this key. Unlike the pinned pipeline's
    /// per-stream counter this one survives eviction, and snapshots
    /// persist it so `Stats` keeps the history across restarts.
    pub fn drift_events(&self) -> u64 {
        self.drift_events.load(Ordering::Relaxed)
    }

    /// Restores the drift-event history from a snapshot.
    pub fn restore_drift_events(&self, events: u64) {
        self.drift_events.store(events, Ordering::Relaxed);
    }

    /// Times this key's resident state was evicted.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Times this key was re-warmed after an eviction.
    pub fn rewarms(&self) -> u64 {
        self.rewarms.load(Ordering::Relaxed)
    }

    /// Counts one completed re-warm.
    pub fn count_rewarm(&self) {
        self.rewarms.fetch_add(1, Ordering::Relaxed);
    }

    /// Total failed (errored or panicked) refresh runs for this key.
    pub fn refresh_failures(&self) -> u64 {
        self.refresh_failures.load(Ordering::Relaxed)
    }

    /// Counts one failed refresh run and returns the *consecutive*
    /// failure count of the current episode (the value compared against
    /// the fail budget). The streak uses SeqCst: its value decides the
    /// Degraded transition, so racing failures must each observe a
    /// distinct total.
    pub fn count_refresh_failure(&self) -> u64 {
        self.refresh_failures.fetch_add(1, Ordering::Relaxed);
        self.failure_streak.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Ends the failure episode: a landed run clears the streak (the
    /// lifetime total stays).
    pub fn reset_failure_streak(&self) {
        self.failure_streak.store(0, Ordering::SeqCst);
    }

    /// Consecutive failures in the current refresh episode.
    pub fn failure_streak(&self) -> u64 {
        self.failure_streak.load(Ordering::SeqCst)
    }

    /// Total automatic retries scheduled for this key.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Counts one scheduled retry.
    pub fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Approximate resident heap bytes of this key: the warm Ω, the
    /// warm-start seed set, and the pinned pipeline. This is the quantity
    /// the service's memory budget bounds.
    pub fn resident_bytes(&self) -> u64 {
        let n = self.prior.num_categories() as u64;
        let seeds = self
            .warm_seeds
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len() as u64
            * (n * n * 8 + 64);
        let pipeline = self
            .pipeline()
            .map(|p| p.approx_bytes())
            .unwrap_or_default();
        self.store.approx_bytes() + seeds + pipeline
    }

    /// Drops every resident structure after a successful
    /// [`StateCell::try_evict`]: clears the warm Ω, the seed set, and
    /// the pinned pipeline, and counts the eviction. Returns the bytes
    /// freed. The run counter is deliberately kept — re-warm replays it.
    pub fn drop_resident_state(&self) -> u64 {
        let freed = self.resident_bytes();
        self.store.clear();
        self.warm_seeds
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        *self
            .pipeline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one engine run on `cell` start to finish, landed or failed.
    fn run(cell: &StateCell, landed: bool) {
        let mut claim = cell.begin_run();
        if landed {
            claim.land();
        }
    }

    #[test]
    fn warmup_claim_is_exactly_once_and_runs_land_warm() {
        let cell = StateCell::new();
        assert_eq!(cell.state(), KeyState::Cold);
        assert!(!cell.state().has_warm_data());
        assert!(cell.claim_warmup(), "first claim wins");
        assert!(!cell.claim_warmup(), "second claim must lose");
        assert_eq!(cell.state(), KeyState::Warming);

        let mut claim = cell.begin_run();
        assert_eq!(claim.started_from(), KeyState::Warming);
        assert_eq!(cell.inflight(), 1);
        claim.land();
        drop(claim);
        assert_eq!(cell.state(), KeyState::Warm);
        assert_eq!(cell.inflight(), 0);
        assert!(cell.state().has_warm_data());
    }

    #[test]
    fn failed_warmup_still_opens_the_key() {
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, false);
        // The old latch behavior: a failed cold run opens the key so
        // queries see an empty store instead of wedging.
        assert_eq!(cell.state(), KeyState::Warm);
        assert!(!cell.state().is_stale());
    }

    #[test]
    fn stale_claim_is_exactly_once_per_episode_and_keeps_its_reason() {
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, true);

        assert!(cell.try_mark_stale(StaleReason::Drift));
        assert!(
            !cell.try_mark_stale(StaleReason::Drift),
            "one refresh per drift episode"
        );
        // A later manual mark cannot demote the recorded reason.
        assert!(!cell.try_mark_stale(StaleReason::Manual));
        assert_eq!(cell.state(), KeyState::Stale(StaleReason::Drift));
        assert_eq!(cell.state().stale_reason(), Some(StaleReason::Drift));
        assert!(cell.state().is_stale());

        // The refresh run carries the reason through Refreshing and lands
        // Warm, after which a new episode can be claimed.
        let mut claim = cell.begin_run();
        assert_eq!(claim.started_from(), KeyState::Stale(StaleReason::Drift));
        assert_eq!(cell.state(), KeyState::Refreshing(StaleReason::Drift));
        assert!(cell.state().is_stale(), "refreshing still reports stale");
        claim.land();
        drop(claim);
        assert_eq!(cell.state(), KeyState::Warm);
        assert!(cell.try_mark_stale(StaleReason::Coverage));
    }

    #[test]
    fn failed_refresh_keeps_the_staleness_debt() {
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, true);
        cell.try_mark_stale(StaleReason::Coverage);
        run(&cell, false);
        assert_eq!(cell.state(), KeyState::Stale(StaleReason::Coverage));
    }

    #[test]
    fn concurrent_refresh_runs_resolve_when_the_last_lands() {
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, true);
        cell.try_mark_stale(StaleReason::Manual);
        let mut first = cell.begin_run();
        let mut second = cell.begin_run();
        assert_eq!(cell.inflight(), 2);
        first.land();
        drop(first);
        assert_eq!(
            cell.state(),
            KeyState::Refreshing(StaleReason::Manual),
            "one run still in flight"
        );
        second.land();
        drop(second);
        assert_eq!(cell.state(), KeyState::Warm);
    }

    #[test]
    fn eviction_requires_an_idle_resident_key() {
        let cell = StateCell::new();
        // Illegal: nothing resident to evict.
        assert!(!cell.try_evict(), "cold keys cannot be evicted");
        cell.claim_warmup();
        assert!(!cell.try_evict(), "warming keys cannot be evicted");
        run(&cell, true);
        cell.try_mark_stale(StaleReason::Manual);
        let mut claim = cell.begin_run();
        assert!(!cell.try_evict(), "in-flight runs block eviction");
        claim.land();
        drop(claim);
        assert!(cell.try_evict());
        // The claim parks the key in Evicting until the evictor resolves
        // it; nothing else can claim, re-warm, or open it meanwhile.
        assert_eq!(cell.state(), KeyState::Evicting);
        assert!(!cell.try_evict(), "concurrent eviction claims must lose");
        assert!(!cell.claim_rewarm(), "re-warm waits out the eviction");
        cell.finish_evict();
        assert_eq!(cell.state(), KeyState::Evicted);
        assert!(!cell.try_evict(), "double eviction is illegal");
        assert!(!cell.state().has_warm_data());

        // Exactly one re-warm claim wins, and the re-warm run lands Warm.
        assert!(cell.claim_rewarm());
        assert!(!cell.claim_rewarm());
        assert_eq!(cell.state(), KeyState::Warming);
        run(&cell, true);
        assert_eq!(cell.state(), KeyState::Warm);
    }

    #[test]
    fn illegal_claims_fail_without_corrupting_the_state() {
        let cell = StateCell::new();
        // Stale before warm: illegal.
        assert!(!cell.try_mark_stale(StaleReason::Drift));
        // Re-warm claim without an eviction: illegal.
        assert!(!cell.claim_rewarm());
        assert_eq!(cell.state(), KeyState::Cold);
        cell.claim_warmup();
        assert!(!cell.try_mark_stale(StaleReason::Drift), "warming ≠ warm");
        assert_eq!(cell.state(), KeyState::Warming);
        // Only a cold key restores straight into Evicted (a key persisted
        // after its eviction; its next query re-warms it).
        assert!(!cell.restore_evicted(), "only cold keys restore evicted");
        let evicted = StateCell::new();
        assert!(evicted.restore_evicted());
        assert_eq!(evicted.state(), KeyState::Evicted);
        assert!(!evicted.restore_evicted());
    }

    #[test]
    fn begin_run_reopens_an_evicted_key() {
        // A refresh job queued before an eviction begins afterwards: the
        // run re-warms the key instead of landing in a corrupt state.
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, true);
        assert!(cell.try_evict());
        cell.finish_evict();
        let mut claim = cell.begin_run();
        assert_eq!(claim.started_from(), KeyState::Evicted);
        assert_eq!(cell.state(), KeyState::Warming);
        claim.land();
        drop(claim);
        assert_eq!(cell.state(), KeyState::Warm);
    }

    #[test]
    fn waiters_release_on_warm_and_on_eviction() {
        let cell = Arc::new(StateCell::new());
        cell.claim_warmup();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || cell.wait_while_warming())
            })
            .collect();
        run(&cell, true);
        for w in waiters {
            assert_eq!(w.join().unwrap(), KeyState::Warm);
        }
        // A waiter that observes Evicted returns it (the caller claims the
        // re-warm); it must not block forever. A waiter arriving during
        // the Evicting window is released when the eviction resolves.
        assert!(cell.try_evict());
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait_while_warming())
        };
        cell.finish_evict();
        assert_eq!(waiter.join().unwrap(), KeyState::Evicted);
        assert_eq!(cell.wait_while_warming(), KeyState::Evicted);
    }

    #[test]
    fn a_claim_dropped_by_a_panic_resolves_its_run_and_wakes_waiters() {
        let cell = Arc::new(StateCell::new());
        cell.claim_warmup();
        let waiter = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.wait_while_warming())
        };
        // A warm-up whose engine run panics: the unwinding drop of its
        // claim opens the key (empty, as a failed warm-up does) and
        // releases the blocked waiter.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _claim = cell.begin_run();
            panic!("the warm-up run panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(cell.inflight(), 0);
        assert_eq!(cell.state(), KeyState::Warm);
        assert_eq!(waiter.join().unwrap(), KeyState::Warm);

        // A refresh that panics keeps its staleness debt.
        assert!(cell.try_mark_stale(StaleReason::Drift));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _claim = cell.begin_run();
            assert_eq!(cell.state(), KeyState::Refreshing(StaleReason::Drift));
            panic!("the refresh run panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(cell.inflight(), 0);
        assert_eq!(cell.state(), KeyState::Stale(StaleReason::Drift));
    }

    #[test]
    fn transition_sink_sees_every_won_cas_and_no_lost_one() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink: TransitionSink = {
            let log = Arc::clone(&log);
            Arc::new(move |from, to| log.lock().unwrap().push((from, to)))
        };
        let cell = StateCell::with_sink(Some(sink));
        assert!(cell.claim_warmup());
        run(&cell, true);
        assert!(cell.try_mark_stale(StaleReason::Drift));
        assert!(
            !cell.try_mark_stale(StaleReason::Manual),
            "a lost claim emits nothing"
        );
        run(&cell, true);
        let seen = log.lock().unwrap().clone();
        assert_eq!(
            seen,
            vec![
                (KeyState::Cold, KeyState::Warming),
                (KeyState::Warming, KeyState::Warm),
                (KeyState::Warm, KeyState::Stale(StaleReason::Drift)),
                (
                    KeyState::Stale(StaleReason::Drift),
                    KeyState::Refreshing(StaleReason::Drift)
                ),
                (KeyState::Refreshing(StaleReason::Drift), KeyState::Warm),
            ]
        );
    }

    #[test]
    fn state_display_names_are_stable() {
        assert_eq!(KeyState::Cold.to_string(), "cold");
        assert_eq!(KeyState::Warming.to_string(), "warming");
        assert_eq!(KeyState::Warm.to_string(), "warm");
        assert_eq!(
            KeyState::Stale(StaleReason::Drift).to_string(),
            "stale(drift)"
        );
        assert_eq!(
            KeyState::Refreshing(StaleReason::Coverage).to_string(),
            "refreshing(coverage)"
        );
        assert_eq!(KeyState::Evicting.to_string(), "evicting");
        assert_eq!(KeyState::Evicted.to_string(), "evicted");
        assert_eq!(
            KeyState::Stale(StaleReason::Manual).to_string(),
            "stale(manual)"
        );
        assert_eq!(
            KeyState::Degraded(StaleReason::Manual).to_string(),
            "degraded(manual)"
        );
        assert_eq!(
            KeyState::Degraded(StaleReason::Drift).to_string(),
            "degraded(drift)"
        );
    }

    #[test]
    fn state_encoding_round_trips() {
        let states = [
            KeyState::Cold,
            KeyState::Warming,
            KeyState::Warm,
            KeyState::Stale(StaleReason::Manual),
            KeyState::Stale(StaleReason::Drift),
            KeyState::Stale(StaleReason::Coverage),
            KeyState::Refreshing(StaleReason::Manual),
            KeyState::Refreshing(StaleReason::Drift),
            KeyState::Refreshing(StaleReason::Coverage),
            KeyState::Evicting,
            KeyState::Evicted,
            KeyState::Degraded(StaleReason::Manual),
            KeyState::Degraded(StaleReason::Drift),
            KeyState::Degraded(StaleReason::Coverage),
        ];
        for state in states {
            assert_eq!(KeyState::decode(state.encode()), state);
        }
    }

    #[test]
    fn exhausted_fail_budget_degrades_and_a_landed_run_recovers() {
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, true);
        assert!(cell.try_mark_stale(StaleReason::Drift));

        // A failed refresh whose caller reports the budget exhausted
        // resolves to Degraded with the original reason.
        cell.begin_run().degrade();
        assert_eq!(cell.state(), KeyState::Degraded(StaleReason::Drift));
        assert!(cell.state().has_warm_data(), "degraded keys still answer");
        assert!(cell.state().is_stale(), "degraded keys still owe a refresh");
        assert!(cell.state().is_degraded());
        assert_eq!(cell.state().stale_reason(), Some(StaleReason::Drift));

        // Degraded keys cannot be re-marked stale (they are already past
        // stale), and a recovery run keeps the degraded verdict visible
        // while it is in flight.
        assert!(!cell.try_mark_stale(StaleReason::Manual));
        let mut claim = cell.begin_run();
        assert_eq!(claim.started_from(), KeyState::Degraded(StaleReason::Drift));
        assert_eq!(cell.state(), KeyState::Degraded(StaleReason::Drift));

        // A failed recovery keeps the key degraded; a landed one restores
        // Warm and a fresh staleness episode can begin.
        claim.degrade();
        drop(claim);
        assert_eq!(cell.state(), KeyState::Degraded(StaleReason::Drift));
        run(&cell, true);
        assert_eq!(cell.state(), KeyState::Warm);
        assert!(cell.try_mark_stale(StaleReason::Coverage));
    }

    #[test]
    fn degraded_keys_are_evictable_and_rewarm_like_any_other() {
        let cell = StateCell::new();
        cell.claim_warmup();
        run(&cell, true);
        cell.try_mark_stale(StaleReason::Manual);
        cell.begin_run().degrade();
        assert_eq!(cell.state(), KeyState::Degraded(StaleReason::Manual));

        // Eviction is a recovery path: the deterministic re-warm replay
        // does not go through the faulty refresh.
        assert!(cell.try_evict());
        cell.finish_evict();
        assert_eq!(cell.state(), KeyState::Evicted);
        assert!(cell.claim_rewarm());
        run(&cell, true);
        assert_eq!(cell.state(), KeyState::Warm);
    }

    #[test]
    fn failure_counters_track_streaks_and_run_indices_roll_back() {
        let prior = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let entry = KeyLifecycle::with_sink(9, prior, 0.8, 100, None);
        assert_eq!(entry.refresh_failures(), 0);
        assert_eq!(entry.retries(), 0);
        assert_eq!(entry.count_refresh_failure(), 1);
        assert_eq!(entry.count_refresh_failure(), 2);
        entry.count_retry();
        assert_eq!(entry.refresh_failures(), 2);
        assert_eq!(entry.failure_streak(), 2);
        assert_eq!(entry.retries(), 1);
        entry.reset_failure_streak();
        assert_eq!(entry.failure_streak(), 0, "a landed run ends the episode");
        assert_eq!(entry.refresh_failures(), 2, "the lifetime total stays");

        // A failed run's claimed index rolls back so the retry re-runs
        // the same deterministic seed…
        assert_eq!(entry.claim_run_index(), 0);
        assert!(entry.unclaim_run_index(0));
        assert_eq!(entry.claim_run_index(), 0, "the retry reuses the index");
        // …but never once a later claim exists.
        assert_eq!(entry.claim_run_index(), 1);
        assert!(!entry.unclaim_run_index(0));
        assert_eq!(entry.engine_runs(), 2);
    }

    #[test]
    fn poisoned_gate_does_not_cascade_panics_into_waiters() {
        // Poison the gate mutex by panicking while holding it, then prove
        // every later lifecycle operation still works: the gate guards no
        // data (the state lives in the atomic word), so recovery is safe.
        let cell = Arc::new(StateCell::new());
        let poisoner = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let _guard = cell.gate.lock().unwrap();
                panic!("poison the state gate");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(cell.gate.is_poisoned());

        cell.claim_warmup();
        run(&cell, true);
        assert_eq!(cell.state(), KeyState::Warm);
        assert_eq!(cell.wait_while_warming(), KeyState::Warm);
    }

    #[test]
    fn lifecycle_owns_counters_and_drops_resident_state_on_eviction() {
        let prior = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let entry = KeyLifecycle::with_sink(7, prior, 0.8, 100, None);
        assert_eq!(entry.key(), 7);
        assert_eq!(entry.state(), KeyState::Cold);
        assert_eq!(entry.resident_bytes(), entry.store().approx_bytes());

        // Land a fake warm-up: seeds + a stored matrix.
        entry.lifecycle().claim_warmup();
        let mut claim = entry.lifecycle().begin_run();
        let m = rr::schemes::warner(4, 0.7).unwrap();
        let mut omega = optrr::OmegaSet::new(100);
        omega.offer(
            &m,
            &optrr::Evaluation {
                privacy: 0.4,
                mse: 1e-4,
                max_posterior: 0.7,
                feasible: true,
            },
        );
        entry.store().absorb(&omega);
        entry.put_warm_seeds(vec![m]);
        assert_eq!(entry.claim_run_index(), 0);
        claim.land();
        drop(claim);

        let resident = entry.resident_bytes();
        assert!(resident > entry.num_slots() as u64);
        entry.touch(42);
        assert_eq!(entry.last_touch_ms(), 42);
        assert_eq!(entry.count_coverage_miss(), 1);
        entry.count_drift_event();
        assert_eq!(entry.coverage_misses(), 1);
        assert_eq!(entry.drift_events(), 1);

        assert!(entry.lifecycle().try_evict());
        let freed = entry.drop_resident_state();
        entry.lifecycle().finish_evict();
        assert_eq!(freed, resident);
        assert!(entry.store().is_empty());
        assert!(entry.take_warm_seeds().is_empty());
        assert!(entry.pipeline().is_none());
        assert_eq!(entry.evictions(), 1);
        // The deterministic run counter survives for the re-warm replay.
        assert_eq!(entry.engine_runs(), 1);
    }
}
