//! The serving front door: the [`Service`] that owns the configuration,
//! the warm-Ω [`Registry`], the [`WorkerPool`] that runs engine jobs, and
//! the observability hub.
//!
//! This file holds the configuration, the one admission path of
//! `Register`, `RegisterBatch` and `Load`, and the query methods, which
//! wait for the key's lifecycle ([`crate::lifecycle`]) to report warm
//! data and answer from the warm store in O(slots). The service holds
//! no counters of its own: [`Service::totals`] sums the per-key ones.
//! The rest of `impl Service` lives in three crate-private modules:
//!
//! * `refresh` — the per-key job queue and the one job that runs on a
//!   key: it claims the run, replays an evicted key's logged runs, runs
//!   the engine unless the job is a pure re-warm, lands the outcome
//!   through the one landing path or retries, backs off and degrades,
//!   and enforces the memory budget and TTL before the claim resolves.
//! * `persist` — the crash-safe snapshot file, all-or-nothing
//!   `Save`/`Load`, and the one installer of a persisted
//!   [`KeySnapshot`].
//! * `dispatch` — [`Service::handle`]: protocol requests onto this API,
//!   errors onto the [`ServeError::code`] taxonomy.
//!
//! Determinism contract: the warm-up run of a key uses exactly the
//! configured base seed, and run `i` of that key uses `seed + i`, so a
//! service warm-up is bitwise-reproducible against a plain
//! [`optrr::Optimizer::optimize_distribution`] call with the same
//! configuration — the end-to-end tests assert this front-for-front.

use crate::lifecycle::{KeyState, StaleReason};
pub use crate::persist::{KeySnapshot, ServiceSnapshot};
use crate::protocol::KeyStatsDto;
use crate::refresh::Job;
use crate::registry::{KeyEntry, Registry};
use crate::telemetry::{ServeEvent, ServeObs, DEFAULT_TRACE_CAP};
use crate::worker::WorkerPool;
use obs::{Clock, MonotonicClock};
use optrr::{OptrrConfig, OptrrError};
use rr::estimate::IterativeConfig;
use stats::Categorical;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on refresh runs one `Refresh` request may schedule.
pub const MAX_REFRESH_RUNS: usize = 16;

/// Upper bound on a registration's Ω resolution. Each key's warm store
/// allocates one slot vector of `slots` entries when the key is created,
/// and resident-byte accounting does not count it, so an uncapped
/// client-supplied `slots` value could request an unbounded allocation
/// and take the whole service down; 20× the paper's 1000-slot Ω is plenty
/// of resolution.
pub const MAX_OMEGA_SLOTS: usize = 20_000;

/// Uniform blend applied to an estimated posterior before it becomes a
/// refresh run's optimization target (see
/// [`rr::estimate::handoff_posterior`]): a drifted stream concentrated on
/// few categories yields posterior zeros, and a zero-probability category
/// would stop weighing that category's reconstruction error.
pub const REFRESH_TARGET_BLEND: f64 = 1e-3;

/// Error type of the service's library API. Protocol handling maps every
/// variant to a `Response::Error` line carrying [`ServeError::code`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request itself is malformed (bad prior, bad delta, unknown key).
    InvalidRequest(String),
    /// The optimizer refused the derived configuration or prior.
    Optimizer(OptrrError),
    /// A snapshot file could not be read or written (I/O).
    Snapshot(String),
    /// A snapshot file was read but its contents are torn, fail the
    /// checksum, or do not decode — the caller should fall back to the
    /// previous generation or to deterministic replay, never serve the
    /// partial contents.
    SnapshotCorrupt(String),
    /// A session's transport failed mid-frame: a torn length prefix, a
    /// half-written JSON line, a frame over the size cap, a checksum
    /// mismatch, or an abrupt client disconnect. The session closes; the
    /// shared service is untouched (no poisoned locks, no leaked
    /// `Warming` states).
    Transport(String),
}

impl ServeError {
    /// Stable machine-readable error code, the taxonomy the protocol's
    /// `Error` responses carry: `invalid_request`, `optimizer`,
    /// `snapshot_io`, `snapshot_corrupt`, or `transport`.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::InvalidRequest(_) => "invalid_request",
            ServeError::Optimizer(_) => "optimizer",
            ServeError::Snapshot(_) => "snapshot_io",
            ServeError::SnapshotCorrupt(_) => "snapshot_corrupt",
            ServeError::Transport(_) => "transport",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            ServeError::Optimizer(e) => write!(f, "optimizer error: {e}"),
            ServeError::Snapshot(reason) => write!(f, "snapshot error: {reason}"),
            ServeError::SnapshotCorrupt(reason) => write!(f, "snapshot corrupt: {reason}"),
            ServeError::Transport(reason) => write!(f, "transport error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<OptrrError> for ServeError {
    fn from(e: OptrrError) -> Self {
        ServeError::Optimizer(e)
    }
}

/// Convenience alias for the service API.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Configuration of a serving instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The engine-budget template for every key's runs. Per-key `delta`,
    /// `omega_slots`, and the per-run seed offset are overlaid on it; the
    /// rest (population, generations, engine kind) applies as-is.
    pub base: OptrrConfig,
    /// Ω resolution used when a registration does not specify one.
    pub default_slots: usize,
    /// Worker threads executing engine runs.
    pub workers: usize,
    /// Budget of the iterative fallback estimator.
    pub iterative: IterativeConfig,
    /// Drift threshold: an estimate whose MSE against the registered prior
    /// exceeds this marks the key stale. Sampling noise with a few
    /// thousand responses sits around 1e-5–1e-4, so 1e-3 separates noise
    /// from genuine drift.
    pub drift_mse_threshold: f64,
    /// Whether a drifted estimate also schedules one refresh engine run
    /// (the telemetry-driven refresh trigger), on top of marking stale.
    /// Drift- and coverage-stale refreshes re-optimize against the
    /// estimated posterior (blended per [`REFRESH_TARGET_BLEND`]) instead
    /// of the registered prior.
    pub refresh_on_drift: bool,
    /// Point queries that matched *no* stored matrix before the key is
    /// marked coverage-stale and a refresh is scheduled. `0` disables the
    /// query-shape trigger.
    pub coverage_miss_threshold: u64,
    /// Global bound on resident bytes (Ω matrices + warm-start seeds +
    /// pinned pipelines + run logs) across all keys. When exceeded, idle
    /// keys are evicted in least-recently-touched order; an eviction
    /// frees a key's Ω and seeds, not its pipeline or run log. `None`
    /// disables eviction.
    pub memory_budget_bytes: Option<u64>,
    /// Idle time after which a key's resident state is evicted (checked on
    /// `Sync` and whenever the budget is enforced). `None` disables TTL.
    pub key_ttl: Option<Duration>,
    /// Path of the automatic snapshot: when set, `Sync` and `Shutdown`
    /// write a full [`ServiceSnapshot`] here. Evictions write nothing: an
    /// evicted key comes back by replaying its logged runs. The per-key
    /// files (`<path>.key-<fingerprint>.json`) that older builds wrote at
    /// eviction are ignored.
    pub snapshot_path: Option<String>,
    /// Whether the service records observability at all (counters,
    /// per-verb latency histograms, the event trace). Recording is
    /// one-way — no metric ever feeds back into request handling — so a
    /// metrics-on and a metrics-off service answer every non-`Metrics`/
    /// `Trace` request bitwise-identically (asserted end to end by the
    /// invisibility test).
    pub metrics: bool,
    /// Bound on the structured event trace (events, not bytes); 0 keeps
    /// metrics live but disables the trace.
    pub trace_cap: usize,
    /// Deterministic fault-injection plan (`OPTRR_SERVE_FAULTS`). `None`
    /// disables injection entirely: the service holds no injector and
    /// every fault site is one always-false branch.
    pub faults: Option<crate::faults::FaultPlan>,
    /// Consecutive refresh failures of one key before it stops being
    /// retried automatically and enters `Degraded` — still answering
    /// queries from its last-good warm Ω, flagged `degraded` in every
    /// response, until a (manual or drift-scheduled) refresh lands.
    pub fail_budget: u64,
    /// Base delay of the exponential retry backoff after a failed
    /// refresh: retry `n` waits `retry_base_ms << (n - 1)` milliseconds,
    /// capped by [`retry_max_ms`].
    ///
    /// [`retry_max_ms`]: ServiceConfig::retry_max_ms
    pub retry_base_ms: u64,
    /// Ceiling of the retry backoff delay.
    pub retry_max_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(4);
        Self {
            base: OptrrConfig::fast(0.75, 2008),
            default_slots: 500,
            workers,
            iterative: IterativeConfig::default(),
            drift_mse_threshold: 1e-3,
            refresh_on_drift: true,
            coverage_miss_threshold: 8,
            memory_budget_bytes: None,
            key_ttl: None,
            snapshot_path: None,
            metrics: true,
            trace_cap: DEFAULT_TRACE_CAP,
            faults: None,
            fail_budget: 3,
            retry_base_ms: 25,
            retry_max_ms: 1000,
        }
    }
}

impl ServiceConfig {
    /// A small-budget configuration for tests and CI smoke sessions:
    /// sub-second warm-ups that still fill a meaningful Ω.
    pub fn smoke(seed: u64) -> Self {
        Self::small(seed, [16, 8, 30], 200)
    }

    /// An even smaller budget for multi-tenant tests: dozens of keys warm
    /// up in well under a second.
    pub fn tiny(seed: u64) -> Self {
        Self::small(seed, [8, 4, 8], 64)
    }

    /// Two workers and an engine budget of `[population, archive,
    /// generations]`, with `slots` Ω resolution.
    fn small(seed: u64, budget: [usize; 3], slots: usize) -> Self {
        let [population_size, archive_size, generations] = budget;
        Self {
            base: OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size,
                    archive_size,
                    generations,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: slots,
                ..OptrrConfig::fast(0.75, seed)
            },
            default_slots: slots,
            workers: 2,
            ..Self::default()
        }
    }
}

/// Service-wide totals, summed over the registry in one pass when read
/// (see [`Service::totals`]). Every count here is stored once, in the
/// per-key lifecycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceTotals {
    /// Registered keys.
    pub keys: usize,
    /// Engine-run indices claimed across all keys.
    pub engine_runs: u64,
    /// Point/front queries served.
    pub queries: u64,
    /// Queries that found warm data resident on arrival.
    pub warm_hits: u64,
    /// Evictions (budget, TTL, and manual).
    pub evictions: u64,
    /// Re-warms of evicted keys.
    pub rewarms: u64,
    /// Failed (errored or panicked) refresh runs.
    pub refresh_failures: u64,
    /// Automatic backoff retries scheduled after refresh failures.
    pub retries: u64,
    /// Keys currently serving degraded (last-good) data.
    pub degraded: usize,
    /// Approximate resident bytes across all keys.
    pub resident_bytes: u64,
    /// The configured memory budget, when one is set.
    pub budget_bytes: Option<u64>,
}

/// The long-lived matrix-serving service.
#[derive(Debug)]
pub struct Service {
    pub(crate) config: ServiceConfig,
    pub(crate) registry: Registry,
    pub(crate) pool: WorkerPool,
    started: Instant,
    pub(crate) obs: Arc<ServeObs>,
    /// The live fault injector, when a chaos plan is configured. `None`
    /// in production: every fault site then short-circuits on one branch.
    pub(crate) faults: Option<Arc<crate::faults::FaultInjector>>,
}

impl Service {
    /// Builds a service and spawns its worker pool. Observability uses
    /// the wall clock; tests that assert on trace timestamps use
    /// [`Service::with_clock`].
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// [`Service::new`] with an injected observability clock, so event
    /// traces are deterministic under test.
    pub fn with_clock(config: ServiceConfig, clock: Arc<dyn Clock>) -> Self {
        let pool = WorkerPool::new(config.workers);
        let obs = Arc::new(ServeObs::new(config.metrics, config.trace_cap, clock));
        let faults = config
            .faults
            .clone()
            .map(|plan| Arc::new(crate::faults::FaultInjector::new(plan)));
        Self {
            config,
            registry: Registry::new(),
            pool,
            started: Instant::now(),
            obs,
            faults,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Borrow the observability hub (the `Metrics`/`Trace` verbs, the
    /// bench, and tests read it; nothing in the service does).
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.obs
    }

    /// Borrow the registry (tests and the bench inspect counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Milliseconds since this service started — the LRU/TTL clock.
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Validates one registration: δ in (0, 1], prior weights that
    /// normalize into a distribution over at least two categories, and
    /// the Ω resolution (the configured default when absent) clamped to
    /// `1..=`[`MAX_OMEGA_SLOTS`]. Returns the prior and the resolution.
    pub(crate) fn check_registration(
        &self,
        weights: &[f64],
        delta: f64,
        slots: Option<usize>,
    ) -> Result<(Categorical, usize)> {
        if !(delta > 0.0 && delta <= 1.0) {
            return Err(ServeError::InvalidRequest(format!(
                "delta must be in (0, 1], got {delta}"
            )));
        }
        if weights.len() < 2 {
            return Err(ServeError::InvalidRequest(
                "a prior needs at least two categories".into(),
            ));
        }
        let prior = Categorical::from_weights(weights)
            .map_err(|e| ServeError::InvalidRequest(format!("invalid prior: {e}")))?;
        let slots = slots
            .unwrap_or(self.config.default_slots)
            .clamp(1, MAX_OMEGA_SLOTS);
        Ok((prior, slots))
    }

    /// Admits one checked registration (see
    /// [`Service::check_registration`]): finds or creates its key, tracing
    /// its transitions from creation on, and binds the aliases. Returns
    /// the entry and whether it was created.
    pub(crate) fn admit<'a>(
        &self,
        prior: &Categorical,
        delta: f64,
        slots: usize,
        names: impl IntoIterator<Item = &'a str>,
    ) -> (Arc<KeyEntry>, bool) {
        let (entry, created) = self
            .registry
            .insert_or_get_observed(prior, delta, slots, |key| self.obs.transition_sink(key));
        for name in names {
            self.registry.bind_name(name, entry.key());
        }
        (entry, created)
    }

    /// Blocks until the entry can answer queries, claiming and scheduling
    /// a re-warm when it finds the key evicted. The re-warm claim is a
    /// compare-exchange, so any number of concurrent queries on an evicted
    /// key schedule exactly one re-warm between them.
    pub fn ensure_live(self: &Arc<Self>, entry: &Arc<KeyEntry>) {
        loop {
            let state = entry.state();
            if state.has_warm_data() {
                return;
            }
            if state == KeyState::Evicted {
                if entry.lifecycle().claim_rewarm() {
                    self.submit(entry, Job::Rewarm);
                }
                continue;
            }
            entry.lifecycle().wait_while_warming();
        }
    }

    /// Admits one checked registration (see [`Service::admit`]) and
    /// touches its key. Returns the entry and whether this call scheduled
    /// its warm-up on the worker pool.
    fn admit_and_warm(
        self: &Arc<Self>,
        prior: &Categorical,
        delta: f64,
        slots: usize,
        name: Option<&str>,
    ) -> (Arc<KeyEntry>, bool) {
        let (entry, _) = self.admit(prior, delta, slots, name);
        // The warm-up claim is the exactly-once gate: whichever concurrent
        // registration wins the Cold → Warming compare-exchange schedules
        // the single warm-up run.
        let scheduled = entry.lifecycle().claim_warmup();
        if scheduled {
            self.submit(&entry, Job::Run);
        }
        entry.touch(self.now_ms());
        (entry, scheduled)
    }

    /// Registers one prior under a privacy bound, returning its entry.
    /// Newly created keys get a warm-up run scheduled on the worker pool;
    /// with `block_until_warm` the call waits for warm data.
    pub fn register(
        self: &Arc<Self>,
        name: Option<&str>,
        weights: &[f64],
        delta: f64,
        slots: Option<usize>,
        block_until_warm: bool,
    ) -> Result<Arc<KeyEntry>> {
        let (prior, slots) = self.check_registration(weights, delta, slots)?;
        let (entry, _) = self.admit_and_warm(&prior, delta, slots, name);
        if block_until_warm {
            self.ensure_live(&entry);
        }
        Ok(entry)
    }

    /// Registers many priors under one δ — the multi-prior batch front
    /// door. Every prior, and the length of `names` when given, is
    /// checked before any key is created, so an invalid batch registers
    /// nothing. Each key is then admitted as [`Service::register`] admits
    /// it: a cold key's warm-up is one worker-pool job. The call returns
    /// once every key can answer queries, with the entries in input order
    /// plus the number of warm-ups the batch scheduled (already-warm keys
    /// are reused, not re-run).
    pub fn register_batch(
        self: &Arc<Self>,
        names: Option<&[String]>,
        priors: &[Vec<f64>],
        delta: f64,
        slots: Option<usize>,
    ) -> Result<(Vec<Arc<KeyEntry>>, usize)> {
        if let Some(names) = names.filter(|names| names.len() != priors.len()) {
            return Err(ServeError::InvalidRequest(format!(
                "{} names for {} priors",
                names.len(),
                priors.len()
            )));
        }
        let checked = priors
            .iter()
            .map(|weights| self.check_registration(weights, delta, slots))
            .collect::<Result<Vec<_>>>()?;
        let mut entries = Vec::with_capacity(checked.len());
        let mut warmed = 0;
        for (index, (prior, slots)) in checked.into_iter().enumerate() {
            let name = names.map(|names| names[index].as_str());
            let (entry, scheduled) = self.admit_and_warm(&prior, delta, slots, name);
            warmed += usize::from(scheduled);
            entries.push(entry);
        }
        for entry in &entries {
            self.ensure_live(entry);
        }
        Ok((entries, warmed))
    }

    /// Resolves a key/name pair to a registered entry.
    pub fn resolve(&self, key: Option<u64>, name: Option<&str>) -> Result<Arc<KeyEntry>> {
        self.registry.resolve(key, name).ok_or_else(|| {
            ServeError::InvalidRequest(match (key, name) {
                (Some(k), _) => format!("unknown key {k}"),
                (None, Some(n)) => format!("unknown name {n:?}"),
                (None, None) => "a query needs a key or a name".into(),
            })
        })
    }

    /// Counts one query against an entry, noting whether it was served
    /// without waiting (warm hit) or had to wait for warm-up/re-warm. The
    /// hottest counting site: per-key relaxed increments only.
    fn count_query(self: &Arc<Self>, entry: &Arc<KeyEntry>) {
        let was_warm = entry.is_warm();
        self.ensure_live(entry);
        entry.count_query(was_warm);
        entry.touch(self.now_ms());
    }

    /// Counts a coverage miss — a point query no stored matrix satisfied —
    /// and past the configured threshold marks the key coverage-stale and
    /// schedules one refresh (the query-shape staleness trigger).
    fn note_coverage_miss(self: &Arc<Self>, entry: &Arc<KeyEntry>) {
        let misses = entry.count_coverage_miss();
        self.obs.count_coverage_miss();
        let threshold = self.config.coverage_miss_threshold;
        if threshold > 0
            && misses >= threshold
            && entry.lifecycle().try_mark_stale(StaleReason::Coverage)
        {
            self.obs.emit(ServeEvent::CoverageTrip {
                key: entry.key(),
                misses,
            });
            // A won claim starts a new episode: the count begins again,
            // so a floor the refresh still cannot cover costs one engine
            // run per `threshold` misses, not one per miss.
            entry.reset_coverage_misses();
            self.submit(entry, Job::Run);
        }
    }

    /// Point query: best stored matrix with privacy ≥ `min_privacy`.
    /// Misses feed the coverage-staleness telemetry.
    pub fn best_for_privacy(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        min_privacy: f64,
    ) -> Option<optrr::OmegaEntry> {
        self.count_query(entry);
        let found = entry.store().best_for_privacy_at_least(min_privacy);
        if found.is_none() {
            self.note_coverage_miss(entry);
        }
        found
    }

    /// Point query: best stored matrix with MSE ≤ `max_mse`.
    pub fn best_for_mse(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        max_mse: f64,
    ) -> Option<optrr::OmegaEntry> {
        self.count_query(entry);
        entry.store().best_for_mse_at_most(max_mse)
    }

    /// Front query: the warm store's non-dominated (privacy, MSE) points.
    pub fn front(self: &Arc<Self>, entry: &Arc<KeyEntry>) -> Vec<optrr::FrontPoint> {
        self.count_query(entry);
        entry.store().front()
    }

    /// Marks a key manually stale and queues `runs` refresh engine runs
    /// on the key's job queue, where they run one after another. Returns
    /// the number scheduled.
    pub fn refresh(self: &Arc<Self>, entry: &Arc<KeyEntry>, runs: usize) -> usize {
        let runs = runs.clamp(1, MAX_REFRESH_RUNS);
        // A drift- or coverage-stale key keeps its recorded reason (the
        // compare-exchange fails); the scheduled runs execute either way.
        entry.lifecycle().try_mark_stale(StaleReason::Manual);
        (0..runs).for_each(|_| self.submit(entry, Job::Run));
        runs
    }

    /// Evicts what a replay rebuilds — a key's Ω matrices and warm-start
    /// seeds — if the key is idle. The pinned pipeline and the run log
    /// stay, so the stream's estimates go on and the next job replays the
    /// key's runs bit for bit. Returns the bytes freed, or `None` when
    /// the key was not evictable (cold, warming, already evicted, or a run
    /// in flight).
    pub fn evict_key(&self, entry: &Arc<KeyEntry>) -> Option<u64> {
        // The claim parks the key in `Evicting`: queries, re-warm claims,
        // and queued runs wait until `finish_evict`, so the drop below is
        // atomic to every observer — a concurrent re-warm can neither read
        // a half-dropped store nor land a fresh one for this eviction to
        // wipe.
        if !entry.lifecycle().try_evict() {
            return None;
        }
        let freed = entry.drop_resident_state();
        self.obs.emit(ServeEvent::Evicted {
            key: entry.key(),
            bytes_freed: freed,
        });
        entry.lifecycle().finish_evict();
        Some(freed)
    }

    /// Blocks until all scheduled engine runs have finished.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Per-key statistics snapshot.
    pub fn key_stats(&self, entry: &KeyEntry) -> KeyStatsDto {
        let range = entry.store().privacy_range();
        // Refresh telemetry from the most recent engine run.
        let fitness_pairs_computed = entry
            .last_statistics()
            .map_or(0, |s| s.fitness_pairs_computed);
        KeyStatsDto {
            key: entry.key(),
            warm: entry.is_warm(),
            stale: entry.is_stale(),
            filled_slots: entry.store().len(),
            num_slots: entry.num_slots(),
            engine_runs: entry.engine_runs(),
            queries: entry.queries(),
            warm_hits: entry.warm_hits(),
            state: entry.state().to_string(),
            resident_bytes: entry.resident_bytes(),
            drift_events: entry.drift_events(),
            coverage_misses: entry.coverage_misses(),
            evictions: entry.evictions(),
            rewarms: entry.rewarms(),
            privacy_lo: range.map(|(lo, _)| lo),
            privacy_hi: range.map(|(_, hi)| hi),
            fitness_pairs_reused: 0,
            fitness_pairs_computed,
            refresh_failures: entry.refresh_failures(),
            retries: entry.retries(),
            degraded: entry.state().is_degraded(),
        }
    }

    /// Service-wide totals from one pass over the registry: every count
    /// is a sum of the per-key lifecycle counters, read now.
    pub fn totals(&self) -> ServiceTotals {
        let mut totals = ServiceTotals {
            budget_bytes: self.config.memory_budget_bytes,
            ..ServiceTotals::default()
        };
        for entry in self.registry.entries() {
            totals.keys += 1;
            totals.engine_runs += entry.engine_runs();
            totals.queries += entry.queries();
            totals.warm_hits += entry.warm_hits();
            totals.evictions += entry.evictions();
            totals.rewarms += entry.rewarms();
            totals.refresh_failures += entry.refresh_failures();
            totals.retries += entry.retries();
            totals.degraded += usize::from(entry.state().is_degraded());
            totals.resident_bytes += entry.resident_bytes();
        }
        totals
    }

    /// Service-wide counters: `(keys, engine_runs, queries, warm_hits)`,
    /// read from [`Service::totals`].
    pub fn service_stats(&self) -> (usize, u64, u64, u64) {
        let t = self.totals();
        (t.keys, t.engine_runs, t.queries, t.warm_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::SNAPSHOT_MAGIC;
    use crate::protocol::{Request, Response};
    use stats::CountSet;

    fn smoke_service() -> Arc<Service> {
        Arc::new(Service::new(ServiceConfig::smoke(77)))
    }

    /// The Prometheus text of one `Metrics` readout.
    fn metrics_text(service: &Arc<Service>) -> String {
        match service.handle(Request::Metrics) {
            Response::Metrics { prometheus, .. } => prometheus,
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    /// One counter of the service's metrics registry.
    fn counter(service: &Arc<Service>, name: &str) -> u64 {
        let snapshot = service.obs().metrics_snapshot();
        let found = snapshot.counters.iter().find(|(n, _)| n == name);
        found.map(|(_, value)| *value).unwrap_or(0)
    }

    const PRIOR: [f64; 5] = [0.35, 0.25, 0.2, 0.12, 0.08];

    #[test]
    fn register_warms_exactly_once_and_queries_never_rerun() {
        let service = smoke_service();
        let entry = service
            .register(Some("demo"), &PRIOR, 0.8, None, true)
            .unwrap();
        assert!(entry.is_warm());
        assert_eq!(entry.state(), KeyState::Warm);
        assert_eq!(entry.engine_runs(), 1);
        assert!(!entry.store().is_empty());

        // Re-registering the same problem reuses the warm entry.
        let again = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        assert_eq!(again.key(), entry.key());
        assert_eq!(again.engine_runs(), 1);

        // Point queries across the whole privacy axis: still one run.
        let (lo, hi) = entry.store().privacy_range().unwrap();
        for step in 0..10 {
            let p = lo + (hi - lo) * step as f64 / 9.0;
            let found = service.best_for_privacy(&entry, p);
            assert!(found.is_some(), "no matrix for privacy >= {p}");
        }
        assert_eq!(entry.engine_runs(), 1);
        assert_eq!(entry.queries(), 10);
        assert_eq!(entry.coverage_misses(), 0);
        let (_, runs, queries, warm_hits) = service.service_stats();
        assert_eq!(runs, 1);
        assert_eq!(queries, 10);
        assert_eq!(warm_hits, 10);
    }

    #[test]
    fn invalid_registrations_are_rejected() {
        let service = smoke_service();
        assert!(matches!(
            service.register(None, &[1.0], 0.8, None, true),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.register(None, &PRIOR, 0.0, None, true),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.register(None, &PRIOR, 1.5, None, true),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(service
            .register(None, &[0.0, -1.0, 2.0], 0.8, None, true)
            .is_err());
        assert!(service.resolve(Some(123), None).is_err());
        assert!(service.resolve(None, None).is_err());
        // A batch with one invalid prior registers none of its priors,
        // and leaves nothing claimed: the valid prior still warms alone.
        let batch = [PRIOR.to_vec(), vec![1.0]];
        assert!(matches!(
            service.register_batch(None, &batch, 0.8, None),
            Err(ServeError::InvalidRequest(_))
        ));
        // So does a names list that does not pair one name with each
        // prior, through the library call and the protocol alike.
        let valid = [PRIOR.to_vec(), vec![0.5, 0.3, 0.2]];
        for count in [1, 3] {
            let names: Vec<String> = (0..count).map(|i| format!("n{i}")).collect();
            assert!(matches!(
                service.register_batch(Some(&names), &valid, 0.8, None),
                Err(ServeError::InvalidRequest(_))
            ));
            let line = format!(
                r#"{{"RegisterBatch":{{"names":{names:?},"priors":[[0.35,0.25,0.2,0.12,0.08],[0.5,0.3,0.2]],"delta":0.8}}}}"#
            );
            let request = crate::protocol::decode_request(&line).unwrap();
            let response = service.handle(request);
            assert!(
                matches!(&response, Response::Error { code, .. } if code == "invalid_request"),
                "{response:?}"
            );
        }
        assert!(service.registry().is_empty());
        let entry = service.register(None, &PRIOR, 0.8, None, true).unwrap();
        assert_eq!(entry.state(), KeyState::Warm);
    }

    #[test]
    fn slot_resolution_is_clamped_to_the_service_cap() {
        let service = smoke_service();
        // A hostile slots value cannot force an unbounded allocation.
        let entry = service
            .register(None, &PRIOR, 0.8, Some(usize::MAX), true)
            .unwrap();
        assert_eq!(entry.num_slots(), MAX_OMEGA_SLOTS);
        let entry = service.register(None, &PRIOR, 0.75, Some(0), true).unwrap();
        assert_eq!(entry.num_slots(), 1);
        let (batch, _) = service
            .register_batch(None, &[PRIOR.to_vec()], 0.7, Some(usize::MAX))
            .unwrap();
        assert_eq!(batch[0].num_slots(), MAX_OMEGA_SLOTS);
    }

    #[test]
    fn lazy_registration_defers_and_queries_wait() {
        let service = smoke_service();
        let entry = service
            .register(Some("lazy"), &PRIOR, 0.8, None, false)
            .unwrap();
        // The query blocks until the pool finishes the warm-up, then
        // answers without another run.
        let found = service.best_for_privacy(&entry, 0.0);
        assert!(entry.is_warm());
        assert!(found.is_some());
        assert_eq!(entry.engine_runs(), 1);
    }

    #[test]
    fn refresh_schedules_runs_and_improves_monotonically() {
        let service = smoke_service();
        let entry = service
            .register(Some("r"), &PRIOR, 0.8, None, true)
            .unwrap();
        let filled_before = entry.store().len();
        let improvements_before = entry.store().merge().improvements();
        let scheduled = service.refresh(&entry, 2);
        assert_eq!(scheduled, 2);
        service.wait_idle();
        assert_eq!(entry.engine_runs(), 3);
        assert!(!entry.is_stale());
        assert_eq!(entry.state(), KeyState::Warm);
        // Ω only ever improves: no filled slot is lost, improvements grow.
        assert!(entry.store().len() >= filled_before);
        assert!(entry.store().merge().improvements() >= improvements_before);
        // Clamping.
        assert_eq!(service.refresh(&entry, 0), 1);
        assert_eq!(service.refresh(&entry, 999), MAX_REFRESH_RUNS);
        service.wait_idle();
    }

    #[test]
    fn batch_registration_matches_solo_runs_and_reuses_warm_keys() {
        let service = smoke_service();
        let priors = vec![vec![0.35, 0.25, 0.2, 0.12, 0.08], vec![0.5, 0.3, 0.2]];
        let (entries, warmed) = service.register_batch(None, &priors, 0.8, None).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(warmed, 2);
        for entry in &entries {
            assert!(entry.is_warm());
            assert_eq!(entry.engine_runs(), 1);
        }

        // A solo service registering the first prior alone produces the
        // identical front: the batch front door is a pure fan-out.
        let solo = smoke_service();
        let solo_entry = solo.register(None, &priors[0], 0.8, None, true).unwrap();
        let batch_front = entries[0].store().merge();
        let solo_front = solo_entry.store().merge();
        assert_eq!(batch_front, solo_front);

        // Batch warm-ups land through the same path as solo ones, so
        // they are counted and traced alike.
        solo.register(None, &priors[1], 0.8, None, true).unwrap();
        assert_eq!(service.totals().engine_runs, solo.totals().engine_runs);
        assert_eq!(
            counter(&service, "serve_refresh_runs_total"),
            counter(&solo, "serve_refresh_runs_total")
        );
        assert_eq!(counter(&service, "serve_refresh_runs_total"), 2);

        // Re-batching with one new prior only warms the new one.
        let extended = vec![priors[0].clone(), priors[1].clone(), vec![0.7, 0.2, 0.1]];
        let (entries2, warmed2) = service.register_batch(None, &extended, 0.8, None).unwrap();
        assert_eq!(entries2.len(), 3);
        assert_eq!(warmed2, 1);
        assert_eq!(entries2[0].key(), entries[0].key());

        // Empty batch is a no-op.
        let (none, zero) = service.register_batch(None, &[], 0.8, None).unwrap();
        assert!(none.is_empty());
        assert_eq!(zero, 0);
    }

    #[test]
    fn load_with_one_mis_shaped_key_installs_nothing() {
        let dir = std::env::temp_dir().join("optrr_serve_load_all_or_nothing_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let path = path.to_str().unwrap();

        // Three keys, each with a pinned pipeline, saved.
        let service = smoke_service();
        for (index, delta) in [0.8, 0.75, 0.7].into_iter().enumerate() {
            let entry = service
                .register(
                    Some(&format!("k{index}")),
                    &[0.4, 0.3, 0.2, 0.1],
                    delta,
                    None,
                    true,
                )
                .unwrap();
            service
                .ingest(&entry, Some(0.0), None, Some(&[40, 30, 20, 10]), None)
                .unwrap();
        }
        let three = service
            .register(None, &[0.5, 0.3, 0.2], 0.8, None, true)
            .unwrap();
        service
            .ingest(&three, Some(0.0), None, Some(&[50, 30, 20]), None)
            .unwrap();
        let mut saved = service.snapshot();
        saved.keys.retain(|key| key.prior.len() == 4);
        assert_eq!(saved.keys.len(), 3);

        // The second key gets, in turn, the 3-category key's 3×3 channel,
        // its own 4×4 channel over 3-category counts, and a 3-category
        // run target; the file is headerless, as older snapshots are.
        let foreign = three.pipeline().unwrap().snapshot();
        let foreign_target = Categorical::new(vec![0.5, 0.3, 0.2]).unwrap();
        let restarted = smoke_service();
        restarted
            .register(Some("resident"), &PRIOR, 0.8, None, true)
            .unwrap();
        // Then count sets no stream builds, edited in the saved JSON of
        // the second key's `[40, 30, 20, 10]` ingest: a total that is not
        // the sum of the counts (one that a wrapping sum would match too),
        // no batch for its responses, more batches than responses, and
        // more raw records than responses.
        let counts = saved.keys[1].pipeline.as_ref().unwrap().counts.clone();
        let counts_json = serde_json::to_string(&counts).unwrap();
        let edited = |from: &str, to: &str| -> CountSet {
            assert!(counts_json.contains(from), "{counts_json}");
            serde_json::from_str(&counts_json.replace(from, to)).unwrap()
        };
        for round in 0..8 {
            let mut snapshot = saved.clone();
            let key = &mut snapshot.keys[1];
            if round == 0 {
                key.pipeline = Some(foreign.clone());
            } else if round == 2 {
                key.run_log = Some(vec![Some(foreign_target.clone())]);
            }
            let pipeline = key.pipeline.as_mut().unwrap();
            match round {
                1 => pipeline.counts = foreign.counts.clone(),
                3 => {
                    pipeline.counts =
                        edited(r#""total":100,"batches":1"#, r#""total":7,"batches":0"#)
                }
                4 => {
                    pipeline.counts = edited(
                        r#""counts":[40,30,20,10],"total":100"#,
                        r#""counts":[18446744073709551615,1,0,0],"total":0"#,
                    )
                }
                5 => pipeline.counts = edited(r#""batches":1"#, r#""batches":0"#),
                6 => pipeline.counts = edited(r#""batches":1"#, r#""batches":101"#),
                7 => pipeline.raw_records = 101,
                _ => {}
            }
            std::fs::write(path, serde_json::to_string(&snapshot).unwrap()).unwrap();
            let response = restarted.handle(Request::Load {
                path: path.to_string(),
            });
            assert!(
                matches!(&response, Response::Error { code, .. } if code == "snapshot_corrupt"),
                "round {round}: got {response:?}"
            );
            // The registry is exactly as before the failed Load.
            assert_eq!(restarted.registry().len(), 1);
            assert!(restarted.resolve(None, Some("k0")).is_err());
            let failures = counter(&restarted, "serve_snapshot_load_failures_total");
            assert_eq!(failures, round + 1);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn snapshot_save_load_restores_warm_stores_without_engine_runs() {
        let dir = std::env::temp_dir().join("optrr_serve_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let path = path.to_str().unwrap();

        let service = smoke_service();
        let entry = service
            .register(Some("persisted"), &PRIOR, 0.8, None, true)
            .unwrap();
        let saved = service.save_snapshot(path).unwrap();
        assert_eq!(saved, 1);

        // A fresh service loads the snapshot: the key exists warm, with
        // the identical store, restored run counter, and bound alias —
        // and zero engine runs were executed here.
        let restarted = smoke_service();
        let (created, merged) = restarted.load_snapshot(path).unwrap();
        assert_eq!((created, merged), (1, 0));
        let restored = restarted.resolve(None, Some("persisted")).unwrap();
        assert!(restored.is_warm());
        assert_eq!(restored.engine_runs(), 1);
        assert_eq!(restored.store().merge(), entry.store().merge());
        assert!(restarted.best_for_privacy(&restored, 0.0).is_some());

        // Loading into a service that already has the key merges the Ω
        // (monotone improvement) instead of re-creating it.
        let (created, merged) = restarted.load_snapshot(path).unwrap();
        assert_eq!((created, merged), (0, 1));
        assert_eq!(restored.store().merge(), entry.store().merge());

        // Missing and corrupt snapshot files are reported, not panicked
        // on — with the I/O and corruption cases distinguished so callers
        // (and operators reading error codes) know whether a retry or a
        // restore is the right move.
        assert!(matches!(
            restarted.load_snapshot("/nonexistent/optrr.json"),
            Err(ServeError::Snapshot(_))
        ));
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(matches!(
            restarted.load_snapshot(bad.to_str().unwrap()),
            Err(ServeError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn protocol_session_round_trips_through_run_loop() {
        let service = smoke_service();
        let session = [
            r#"{"Register":{"name":"demo","prior":[0.35,0.25,0.2,0.12,0.08],"delta":0.8}}"#,
            r#"{"BestForPrivacy":{"name":"demo","min_privacy":0.05}}"#,
            r#"{"BestForMse":{"name":"demo","max_mse":1.0}}"#,
            r#"{"Front":{"name":"demo"}}"#,
            "not json at all",
            r#"{"Stats":{"name":"demo"}}"#,
            r#"{"Stats":{}}"#,
            r#""Sync""#,
            r#""Shutdown""#,
            r#"{"Front":{"name":"after-shutdown-is-not-read"}}"#,
        ]
        .join("\n");
        let mut output = Vec::new();
        service.run_loop(session.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        // One response per line up to and including Bye.
        assert_eq!(lines.len(), 9);
        assert!(lines[0].contains("Registered"));
        assert!(lines[1].contains("Matrix") || lines[1].contains("NoMatch"));
        assert!(lines[2].contains("Matrix") || lines[2].contains("NoMatch"));
        assert!(lines[3].contains("Front"));
        assert!(lines[4].contains("Error"));
        assert!(lines[5].contains("KeyStats"));
        assert!(lines[6].contains("ServiceStats"));
        assert_eq!(lines[7], r#""Synced""#);
        assert_eq!(lines[8], r#""Bye""#);
        // Every line decodes as a Response.
        for line in lines {
            assert!(crate::protocol::decode_response(line).is_ok());
        }
    }

    #[test]
    fn manual_eviction_drops_resident_state_and_queries_rewarm_bitwise() {
        let service = smoke_service();
        let entry = service
            .register(Some("evictee"), &PRIOR, 0.8, None, true)
            .unwrap();
        let warm_merge = entry.store().merge();
        let resident_before = entry.resident_bytes();

        // The eviction frees the Ω and the seed set; the run log stays.
        let freed = service.evict_key(&entry).expect("idle key evicts");
        assert_eq!(freed, resident_before - entry.resident_bytes());
        assert!(freed > 0);
        assert_eq!(entry.state(), KeyState::Evicted);
        assert!(!entry.is_warm());
        assert!(entry.store().is_empty());
        assert_eq!(entry.evictions(), 1);
        // Double eviction is refused by the state machine.
        assert!(service.evict_key(&entry).is_none());

        // The next query transparently re-warms: without persistence the
        // engine-run sequence is replayed deterministically, so the store
        // comes back bitwise-identical and the run counter stays put.
        let found = service.best_for_privacy(&entry, 0.0);
        assert!(found.is_some());
        assert_eq!(entry.state(), KeyState::Warm);
        assert_eq!(entry.store().merge(), warm_merge);
        assert_eq!(entry.engine_runs(), 1);
        assert_eq!(entry.rewarms(), 1);
        let totals = service.totals();
        assert_eq!((totals.evictions, totals.rewarms), (1, 1));
    }

    #[test]
    fn refresh_on_an_evicted_key_restores_the_store_before_refreshing() {
        let service = smoke_service();
        let entry = service
            .register(Some("er"), &PRIOR, 0.8, None, true)
            .unwrap();
        service.evict_key(&entry).expect("idle key evicts");
        // A refresh scheduled against the evicted key must not cold-run
        // into the wiped store: the job restores the resident state first
        // and then refreshes on top of it.
        service.refresh(&entry, 1);
        service.wait_idle();
        assert_eq!(entry.state(), KeyState::Warm);
        assert_eq!(entry.engine_runs(), 2, "restore replays, refresh claims");
        assert_eq!(entry.rewarms(), 1);

        // Bitwise-identical (slot for slot) to a never-evicted service
        // doing the same register + refresh.
        let control = smoke_service();
        let control_entry = control.register(None, &PRIOR, 0.8, None, true).unwrap();
        control.refresh(&control_entry, 1);
        control.wait_idle();
        let evicted_path = entry.store().merge();
        let control_path = control_entry.store().merge();
        for slot in 0..evicted_path.num_slots() {
            assert_eq!(
                evicted_path.entry(slot).map(|e| e.evaluation.mse.to_bits()),
                control_path.entry(slot).map(|e| e.evaluation.mse.to_bits()),
                "slot {slot} differs from the never-evicted run"
            );
        }
    }

    #[test]
    fn memory_budget_evicts_lru_keys_and_stays_under_budget() {
        let priors = [
            vec![0.4, 0.3, 0.2, 0.1],
            vec![0.5, 0.25, 0.15, 0.1],
            vec![0.6, 0.2, 0.12, 0.08],
            vec![0.7, 0.15, 0.1, 0.05],
        ];
        // Probe the exact 4-key load on an unbudgeted twin, then allow
        // only ~60% of it — so the budgeted service must evict, while any
        // single key comfortably fits.
        let probe = Arc::new(Service::new(ServiceConfig::tiny(9)));
        for prior in &priors {
            probe.register(None, prior, 0.8, None, true).unwrap();
        }
        let full_load = probe.totals().resident_bytes;
        assert!(full_load > 0);
        let budget = full_load * 3 / 5;

        let mut config = ServiceConfig::tiny(9);
        config.memory_budget_bytes = Some(budget);
        let service = Arc::new(Service::new(config));
        let mut entries = Vec::new();
        for prior in &priors {
            entries.push(service.register(None, prior, 0.8, None, true).unwrap());
        }
        service.wait_idle();
        let ServiceTotals {
            resident_bytes: resident,
            budget_bytes: reported_budget,
            evictions,
            ..
        } = service.totals();
        assert_eq!(reported_budget, Some(budget));
        assert!(resident <= budget, "{resident} > {budget}");
        assert!(evictions > 0, "a 4-key load must evict under this budget");
        assert!(entries.iter().any(|e| e.state() == KeyState::Evicted));
        // Evicted keys still answer (re-warm on demand), and the budget
        // holds afterwards too.
        for entry in &entries {
            assert!(service.best_for_privacy(entry, 0.0).is_some());
        }
        service.wait_idle();
        let resident = service.totals().resident_bytes;
        assert!(resident <= budget, "{resident} > {budget}");
    }

    #[test]
    fn ttl_expires_idle_keys_on_sync() {
        let mut config = ServiceConfig::tiny(11);
        config.key_ttl = Some(Duration::from_millis(0));
        let service = Arc::new(Service::new(config));
        let entry = service
            .register(Some("idle"), &[0.5, 0.3, 0.2], 0.8, None, true)
            .unwrap();
        assert!(entry.is_warm());
        // Everything idle for longer than the zero TTL is swept on Sync.
        std::thread::sleep(Duration::from_millis(5));
        let mut output = Vec::new();
        service
            .run_loop(&b"\"Sync\"\n\"Shutdown\"\n"[..], &mut output)
            .unwrap();
        assert_eq!(entry.state(), KeyState::Evicted);
        assert_eq!(entry.evictions(), 1);
    }

    #[test]
    fn coverage_misses_mark_the_key_stale_and_schedule_one_refresh() {
        let mut config = ServiceConfig::smoke(13);
        config.coverage_miss_threshold = 3;
        // Keep the scheduled refresh visible: do not let it land yet.
        let service = Arc::new(Service::new(config));
        let entry = service
            .register(Some("uncovered"), &PRIOR, 0.8, None, true)
            .unwrap();
        assert_eq!(entry.engine_runs(), 1);
        // Two misses: under threshold, nothing scheduled.
        for _ in 0..2 {
            assert!(service.best_for_privacy(&entry, 0.9999).is_none());
        }
        assert_eq!(entry.coverage_misses(), 2);
        assert!(!entry.is_stale());
        // Third miss trips the threshold: coverage-stale, one refresh.
        assert!(service.best_for_privacy(&entry, 0.9999).is_none());
        assert!(entry.is_stale() || entry.engine_runs() > 1);
        service.wait_idle();
        assert_eq!(entry.engine_runs(), 2);
        assert!(!entry.is_stale());
        // A disabled threshold never trips.
        let mut off = ServiceConfig::smoke(13);
        off.coverage_miss_threshold = 0;
        let quiet = Arc::new(Service::new(off));
        let q = quiet.register(None, &PRIOR, 0.8, None, true).unwrap();
        for _ in 0..5 {
            assert!(quiet.best_for_privacy(&q, 0.9999).is_none());
        }
        quiet.wait_idle();
        assert_eq!(q.engine_runs(), 1);
    }

    #[test]
    fn evict_verb_and_stats_fields_round_trip_through_the_protocol() {
        let dir = std::env::temp_dir().join("optrr_serve_autosave_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("autosave.json");
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);

        let mut config = ServiceConfig::smoke(21);
        config.snapshot_path = Some(path_str.clone());
        let service = Arc::new(Service::new(config));
        let session = [
            r#"{"Register":{"name":"demo","prior":[0.35,0.25,0.2,0.12,0.08],"delta":0.8}}"#
                .to_string(),
            r#"{"Evict":{"name":"demo"}}"#.to_string(),
            r#"{"Evict":{"name":"demo"}}"#.to_string(),
            r#"{"Stats":{"name":"demo"}}"#.to_string(),
            r#"{"Stats":{}}"#.to_string(),
            r#""Sync""#.to_string(),
            r#""Shutdown""#.to_string(),
        ]
        .join("\n");
        let mut output = Vec::new();
        service.run_loop(session.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[1].contains(r#""evicted":true"#), "got {}", lines[1]);
        assert!(lines[2].contains(r#""evicted":false"#), "got {}", lines[2]);
        assert!(
            lines[3].contains(r#""state":"evicted""#),
            "got {}",
            lines[3]
        );
        assert!(lines[4].contains(r#""evictions":1"#), "got {}", lines[4]);
        // Sync auto-saved the configured snapshot, the only file written:
        // the eviction wrote none.
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().file_name())
            .collect();
        assert_eq!(written, ["autosave.json"]);
        // The replay re-warms the evicted key without claiming a run.
        let entry = service.resolve(None, Some("demo")).unwrap();
        let before_runs = entry.engine_runs();
        assert!(service.best_for_privacy(&entry, 0.0).is_some());
        assert_eq!(entry.engine_runs(), before_runs);
        assert_eq!(entry.rewarms(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_refresh_panics_retry_degrade_and_recover_bitwise() {
        let mut config = ServiceConfig::smoke(77);
        config.faults =
            Some(crate::faults::FaultPlan::parse("seed=7,refresh_panic=1,budget=2").unwrap());
        config.fail_budget = 2;
        config.retry_base_ms = 1;
        config.retry_max_ms = 4;
        let service = Arc::new(Service::new(config));
        // Warm-ups are never injected: registration succeeds even under a
        // plan that panics every refresh.
        let entry = service
            .register(Some("chaos"), &PRIOR, 0.8, None, true)
            .unwrap();
        assert!(entry.is_warm());
        let warm_merge = entry.store().merge();

        // One scheduled refresh: the run panics, the backoff retry panics
        // too (the plan budget covers exactly two faults), and the streak
        // hits the fail budget — the key degrades instead of retrying
        // forever.
        service.refresh(&entry, 1);
        service.wait_idle();
        assert_eq!(entry.state(), KeyState::Degraded(StaleReason::Manual));
        assert_eq!(entry.refresh_failures(), 2);
        assert_eq!(entry.retries(), 1);
        assert_eq!(
            entry.engine_runs(),
            1,
            "failed runs rolled their index back"
        );

        // Degraded keys keep answering from the last-good store, flagged.
        assert!(service.best_for_privacy(&entry, 0.0).is_some());
        assert_eq!(entry.store().merge(), warm_merge);
        let stats = service.key_stats(&entry);
        assert!(stats.degraded);
        assert_eq!(stats.refresh_failures, 2);
        assert_eq!(stats.retries, 1);
        let totals = service.totals();
        assert_eq!(
            (totals.refresh_failures, totals.retries, totals.degraded),
            (2, 1, 1)
        );
        let metrics = metrics_text(&service);
        assert!(
            metrics.contains("serve_refresh_failures_total 2"),
            "{metrics}"
        );
        assert!(metrics.contains("serve_degraded_total 1"), "{metrics}");

        // The fault budget is spent, so the next refresh runs clean,
        // lands, and restores Warm.
        service.refresh(&entry, 1);
        service.wait_idle();
        assert_eq!(entry.state(), KeyState::Warm);
        assert_eq!(entry.engine_runs(), 2);
        assert!(!service.key_stats(&entry).degraded);

        // Bitwise-identical to a never-faulted service running the same
        // sequence: the rolled-back run index plus the unconsumed warm
        // seeds mean the recovery run replays exactly the run the faults
        // interrupted.
        let control = smoke_service();
        let control_entry = control.register(None, &PRIOR, 0.8, None, true).unwrap();
        control.refresh(&control_entry, 1);
        control.wait_idle();
        let chaos_path = entry.store().merge();
        let control_path = control_entry.store().merge();
        for slot in 0..chaos_path.num_slots() {
            assert_eq!(
                chaos_path.entry(slot).map(|e| e.evaluation.mse.to_bits()),
                control_path.entry(slot).map(|e| e.evaluation.mse.to_bits()),
                "slot {slot} differs from the never-faulted run"
            );
        }
    }

    #[test]
    fn snapshot_header_detects_corruption_and_truncation() {
        let dir = std::env::temp_dir().join("optrr_serve_header_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let path_str = path.to_str().unwrap();

        let service = smoke_service();
        service
            .register(Some("h"), &PRIOR, 0.8, None, true)
            .unwrap();
        service.save_snapshot(path_str).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(SNAPSHOT_MAGIC.as_bytes()));
        smoke_service()
            .load_snapshot(path_str)
            .expect("intact file loads");

        // One flipped payload byte fails the checksum.
        let mut flipped = bytes.clone();
        let inside = flipped.len() - 2;
        flipped[inside] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            smoke_service().load_snapshot(path_str),
            Err(ServeError::SnapshotCorrupt(_))
        ));

        // Truncation at any depth — inside the payload, at the header
        // boundary, even inside the magic — is a typed corruption error,
        // never a panic and never a silently cold (or half-loaded) store.
        for cut in [
            bytes.len() - 2,
            bytes.len() / 2,
            SNAPSHOT_MAGIC.len() + 3,
            5,
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(
                    smoke_service().load_snapshot(path_str),
                    Err(ServeError::SnapshotCorrupt(_))
                ),
                "cut at byte {cut} must read as corrupt"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_snapshot_write_keeps_the_previous_generation() {
        let dir = std::env::temp_dir().join("optrr_serve_torn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.json");
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);

        let mut config = ServiceConfig::smoke(77);
        config.faults = Some(crate::faults::FaultPlan::parse("torn_write=1,budget=1").unwrap());
        let service = Arc::new(Service::new(config));
        let entry = service
            .register(Some("gen"), &PRIOR, 0.8, None, true)
            .unwrap();

        // First save is torn: the error is surfaced and no file appears
        // at the destination (the truncated prefix only ever reaches the
        // temporary).
        assert!(matches!(
            service.save_snapshot(path_str),
            Err(ServeError::Snapshot(_))
        ));
        assert!(!path.exists(), "a torn write must not land at the path");

        // The budget is spent: the second save is clean and becomes
        // generation one.
        service.save_snapshot(path_str).expect("clean save lands");
        let generation_one = std::fs::read(&path).unwrap();

        // A later torn write (fresh injector, same path) still leaves
        // generation one intact and loadable.
        let mut config = ServiceConfig::smoke(77);
        config.faults = Some(crate::faults::FaultPlan::parse("torn_write=1,budget=1").unwrap());
        let again = Arc::new(Service::new(config));
        again
            .register(Some("gen"), &PRIOR, 0.8, None, true)
            .unwrap();
        again.refresh(&entry, 1);
        again.wait_idle();
        assert!(matches!(
            again.save_snapshot(path_str),
            Err(ServeError::Snapshot(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            generation_one,
            "the previous generation must survive a torn write"
        );
        let restarted = smoke_service();
        let (created, _) = restarted.load_snapshot(path_str).unwrap();
        assert_eq!(created, 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{path_str}.tmp"));
    }
}
