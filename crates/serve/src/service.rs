//! The serving front door: registry + worker pool + protocol handling.
//!
//! A [`Service`] is the long-lived object behind the `serve` binary and the
//! load-generator bench. It owns the warm-Ω [`Registry`] and a
//! [`WorkerPool`] that executes engine runs for cold, stale, or evicted
//! keys. It holds no counters of its own: the protocol's `Stats` request
//! and the `Metrics` view counters read [`Service::totals`], a sum over
//! the per-key lifecycle counters. Point queries never run
//! the engine synchronously in-protocol: they wait for the key's lifecycle
//! to report warm data, then answer from the sharded store in O(slots)
//! under per-shard locks.
//!
//! Since the lifecycle refactor, every per-key transition — warm-up claim,
//! staleness, refresh, eviction, re-warm — goes through the
//! compare-exchange-guarded state machine in [`crate::lifecycle`], and the
//! service adds three policies on top:
//!
//! * **memory budget**: with [`ServiceConfig::memory_budget_bytes`] set,
//!   the total resident bytes (Ω matrices + warm-start seeds + ingest
//!   accumulators) are bounded by evicting least-recently-touched idle
//!   keys; with [`ServiceConfig::key_ttl`] set, untouched keys expire.
//!   Evicted keys re-warm transparently on their next query — from the
//!   per-key eviction sidecar when [`ServiceConfig::snapshot_path`] is
//!   configured (bitwise-identical), or by deterministically replaying the
//!   key's engine-run sequence otherwise (bitwise-identical for
//!   prior-targeted run histories).
//! * **drift-driven re-optimization**: a key marked stale by estimation
//!   drift (or by coverage telemetry) refreshes against the *estimated*
//!   posterior instead of the registered prior, through
//!   [`Optimizer::optimize_refresh`]'s distribution override.
//! * **query-shape telemetry**: point queries that find no matrix for
//!   their privacy floor count as coverage misses; past the configured
//!   threshold the key goes stale and a refresh is scheduled.
//!
//! Determinism contract: the warm-up run of a key uses exactly the
//! configured base seed, and run `i` of that key uses `seed + i`, so a
//! service warm-up is bitwise-reproducible against a plain
//! [`Optimizer::optimize_distribution`] call with the same configuration —
//! the end-to-end tests assert this front-for-front.

use crate::lifecycle::{KeyState, StaleReason};
use crate::pipeline::PipelineSnapshot;
use crate::protocol::{
    EstimateDto, HistogramDto, KeyStatsDto, MatrixDto, MetricValueDto, Request, Response,
    TraceEventDto,
};
use crate::registry::{KeyEntry, Registry};
use crate::telemetry::{ServeEvent, ServeObs, DEFAULT_TRACE_CAP};
use crate::worker::WorkerPool;
use obs::{Clock, MonotonicClock};
use optrr::{OmegaSet, Optimizer, OptrrConfig, OptrrError};
use rr::estimate::IterativeConfig;
use serde::{Deserialize, Serialize};
use stats::Categorical;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on refresh runs one `Refresh` request may schedule.
pub const MAX_REFRESH_RUNS: usize = 16;

/// Upper bound on a registration's Ω resolution. Each key's warm store
/// allocates `num_shards` full-width slot vectors (so `OmegaSet::merge`
/// applies shard-for-shard), so an uncapped client-supplied `slots` value
/// could request an unbounded allocation and take the whole service down;
/// 20× the paper's 1000-slot Ω is plenty of resolution.
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
    /// rest (population, generations, engine kind, parallel evaluation)
    /// applies as-is.
    pub base: OptrrConfig,
    /// Ω resolution used when a registration does not specify one.
    pub default_slots: usize,
    /// Shards per warm store (and per ingest accumulator).
    pub num_shards: usize,
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
    /// ingest accumulators) across all keys. When exceeded, idle keys are
    /// evicted in least-recently-touched order. `None` disables eviction.
    pub memory_budget_bytes: Option<u64>,
    /// Idle time after which a key's resident state is evicted (checked on
    /// `Sync` and whenever the budget is enforced). `None` disables TTL.
    pub key_ttl: Option<Duration>,
    /// Base path for persistence. When set: `Sync` and `Shutdown` write a
    /// full [`ServiceSnapshot`] here, and every eviction writes the
    /// victim's [`KeySnapshot`] to a per-key sidecar
    /// (`<path>.key-<fingerprint>.json`) from which the next query
    /// re-warms it bitwise-identically.
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
            num_shards: 8,
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
        Self {
            base: OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size: 16,
                    archive_size: 8,
                    generations: 30,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: 200,
                ..OptrrConfig::fast(0.75, seed)
            },
            default_slots: 200,
            num_shards: 4,
            workers: 2,
            ..Self::default()
        }
    }

    /// An even smaller budget for multi-tenant tests and the `--smoke`
    /// load generator: dozens of keys warm up in well under a second.
    pub fn tiny(seed: u64) -> Self {
        Self {
            base: OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size: 8,
                    archive_size: 4,
                    generations: 8,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: 64,
                ..OptrrConfig::fast(0.75, seed)
            },
            default_slots: 64,
            num_shards: 2,
            workers: 2,
            ..Self::default()
        }
    }
}

/// One key's persisted state: enough to re-register it and refill its
/// warm store — and resume its in-flight estimation stream — without an
/// engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeySnapshot {
    /// The registered prior's probabilities.
    pub prior: Vec<f64>,
    /// The privacy bound δ.
    pub delta: f64,
    /// The Ω resolution.
    pub slots: usize,
    /// Engine runs completed before the snapshot (restored so refresh
    /// seeds continue the sequence).
    pub engine_runs: u64,
    /// Drift events observed before the snapshot (restored so `Stats`
    /// keeps reporting the stream's history across restarts). Optional so
    /// older snapshots still decode.
    pub drift_events: Option<u64>,
    /// Aliases bound to the key, sorted.
    pub names: Vec<String>,
    /// The merged warm Ω.
    pub omega: OmegaSet,
    /// The warm-start seed set (the last run's archive), so a refresh
    /// after restore warm-starts exactly like a refresh on the live
    /// service would have. Optional so snapshots written before this
    /// field existed still decode.
    pub warm_seeds: Option<Vec<rr::RrMatrix>>,
    /// The streaming pipeline (pinned channel, merged accumulators,
    /// posterior), when one was pinned. Absent in snapshots written
    /// before pipeline persistence phase 2.
    pub pipeline: Option<PipelineSnapshot>,
}

impl KeySnapshot {
    /// Checks that this persisted state fits the registration it lands
    /// on: the Ω resolution, and the category count of every stored
    /// matrix and of the pinned pipeline. `Load` and the eviction-sidecar
    /// restore both run it before installing anything, so state of the
    /// wrong shape is never served (a wrong-sized pinned channel would
    /// otherwise fail estimation on a dimension mismatch).
    fn check_shape(&self, prior: &Categorical, slots: usize) -> std::result::Result<(), String> {
        if self.omega.num_slots() != slots {
            return Err(format!(
                "key omega has {} slots, registration says {slots}",
                self.omega.num_slots()
            ));
        }
        let categories = prior.num_categories();
        if let Some(entry) = self
            .omega
            .entries()
            .find(|e| e.matrix.num_categories() != categories)
        {
            return Err(format!(
                "key omega holds a {}-category matrix for a {categories}-category prior",
                entry.matrix.num_categories()
            ));
        }
        match &self.pipeline {
            Some(pipeline) if pipeline.matrix.num_categories() != categories => Err(format!(
                "key pipeline pins a {}-category matrix for a {categories}-category prior",
                pipeline.matrix.num_categories()
            )),
            _ => Ok(()),
        }
    }
}

/// A whole-service snapshot: every registered key in ascending key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// The persisted keys.
    pub keys: Vec<KeySnapshot>,
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

/// Resolves one run's `finish_run` on every exit path — error return and
/// panic alike — so a failing engine run can never wedge the state machine
/// in `Warming`/`Refreshing`.
struct RunGuard<'a> {
    cell: &'a crate::lifecycle::StateCell,
    landed: bool,
    /// Set when the run failed *and* exhausted the fail budget: the
    /// resolution demotes the key to `Degraded` instead of `Stale`.
    degrade: bool,
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        self.cell.finish_run_outcome(self.landed, self.degrade);
    }
}

/// Magic prefix of the crash-safe snapshot header. The full header line is
/// `OPTRR-SNAP v1 crc=<fnv64-hex> len=<payload bytes>`, followed by the
/// JSON payload on the next line(s); files without the magic are legacy
/// headerless snapshots and load unverified.
const SNAPSHOT_MAGIC: &str = "OPTRR-SNAP v1 ";

/// Builds the header line for a snapshot payload.
fn snapshot_header(payload: &str) -> String {
    format!(
        "{SNAPSHOT_MAGIC}crc={:016x} len={}",
        crate::faults::fingerprint(payload),
        payload.len()
    )
}

/// Verifies a snapshot header against the payload that followed it:
/// length first (a torn tail fails fast), then the checksum (bit rot and
/// mid-payload tears).
fn verify_snapshot_header(header: &str, payload: &str) -> std::result::Result<(), String> {
    let expected = snapshot_header(payload);
    if header == expected {
        return Ok(());
    }
    let want_len = header
        .split(" len=")
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok());
    match want_len {
        Some(len) if len != payload.len() => Err(format!(
            "is torn: header promises {len} payload bytes, found {}",
            payload.len()
        )),
        _ => Err("fails its checksum".to_string()),
    }
}

/// Outcome of reading one snapshot/sidecar file.
enum SnapshotRead {
    /// No file at the path — the normal "nothing persisted yet" case.
    Missing,
    /// The read itself failed (OS error or injected fault).
    Io(String),
    /// The file exists but is torn, fails its checksum, or has a mangled
    /// header — its contents must not be served.
    Corrupt(String),
    /// The verified payload.
    Ok(String),
}

/// Renders a caught panic payload into the failure reason the typed
/// `RefreshFailed` event carries.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        format!("panic: {text}")
    } else if let Some(text) = payload.downcast_ref::<String>() {
        format!("panic: {text}")
    } else {
        "panic: unknown payload".into()
    }
}

/// The long-lived matrix-serving service.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    registry: Registry,
    pool: WorkerPool,
    started: Instant,
    obs: Arc<ServeObs>,
    /// The live fault injector, when a chaos plan is configured. `None`
    /// in production: every fault site then short-circuits on one branch.
    faults: Option<Arc<crate::faults::FaultInjector>>,
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

    /// Borrow the live fault injector, when a chaos plan is configured
    /// (the session core consults the `conn_drop` site per request).
    pub(crate) fn fault_injector(&self) -> Option<&Arc<crate::faults::FaultInjector>> {
        self.faults.as_ref()
    }

    /// Milliseconds since this service started — the LRU/TTL clock.
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Validates and normalizes a weight vector into a prior.
    fn prior_from_weights(weights: &[f64]) -> Result<Categorical> {
        if weights.len() < 2 {
            return Err(ServeError::InvalidRequest(
                "a prior needs at least two categories".into(),
            ));
        }
        Categorical::from_weights(weights)
            .map_err(|e| ServeError::InvalidRequest(format!("invalid prior: {e}")))
    }

    fn validate_delta(delta: f64) -> Result<()> {
        if !(delta > 0.0 && delta <= 1.0) {
            return Err(ServeError::InvalidRequest(format!(
                "delta must be in (0, 1], got {delta}"
            )));
        }
        Ok(())
    }

    /// The engine configuration for one run of one key: the shared budget
    /// template with the key's δ and Ω resolution overlaid and the seed
    /// advanced by the run index, so every run of every key is
    /// deterministic and distinct.
    fn run_config(&self, entry: &KeyEntry, run_index: u64) -> OptrrConfig {
        OptrrConfig {
            delta: entry.delta(),
            omega_slots: entry.num_slots(),
            seed: self.config.base.seed.wrapping_add(run_index),
            ..self.config.base.clone()
        }
    }

    /// The optimization target of one refresh run. Drift- and
    /// coverage-stale keys re-optimize against the estimated posterior
    /// (when one exists); warm-ups, manual refreshes, and re-warms target
    /// the registered prior.
    fn refresh_target(&self, entry: &KeyEntry, from: KeyState) -> Option<Categorical> {
        match from.stale_reason() {
            Some(StaleReason::Drift) | Some(StaleReason::Coverage) => entry
                .pipeline()
                .and_then(|p| p.posterior())
                .map(|posterior| rr::estimate::handoff_posterior(&posterior, REFRESH_TARGET_BLEND)),
            _ => None,
        }
    }

    /// Executes one engine run for a key and lands the result in its warm
    /// store. Runs on a pool worker (or inline for batch registration).
    fn run_refresh(self: &Arc<Self>, entry: &Arc<KeyEntry>) {
        let from = entry.lifecycle().begin_run();
        let mut guard = RunGuard {
            cell: entry.lifecycle(),
            landed: false,
            degrade: false,
        };
        if from == KeyState::Evicted {
            // The key was evicted between this job's scheduling and its
            // execution (an explicit Refresh after an Evict, or a budget
            // eviction racing a queued drift refresh). Restore the
            // resident state first, so this run *improves* on the
            // pre-eviction Ω and warm-starts from the restored seed chain
            // instead of cold-running into a wiped store.
            self.restore_resident(entry);
        }
        let run_index = entry.claim_run_index();
        let config = self.run_config(entry, run_index);
        // Injected chaos applies only to refreshes of keys that already
        // hold warm data: warm-ups and re-warm replays are the recovery
        // paths every chaos scenario converges through, so they stay
        // fault-free by construction.
        let inject = self.faults.as_deref().filter(|_| from.has_warm_data());
        if let Some(injector) = inject {
            if let Some(pause) = injector.stall(entry.key(), run_index) {
                std::thread::sleep(pause);
            }
        }
        let inject_panic = inject.is_some_and(|i| i.refresh_panic(entry.key(), run_index));
        // The engine run is contained: a panic (injected or genuine)
        // unwinds to here, is converted into a failure, and goes through
        // the same retry/degrade accounting as an engine error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "injected refresh fault (key {:x}, run {run_index})",
                    entry.key()
                );
            }
            // Seeds are consumed only past the injection point, so the
            // retry after an injected panic warm-starts from the exact
            // seed set this run would have used — that, plus the run-index
            // roll-back below, is what keeps a faulted-then-recovered
            // store bitwise-equal to a never-faulted one.
            let warm_seeds = entry.take_warm_seeds();
            let target = self.refresh_target(entry, from);
            Optimizer::new(config).and_then(|optimizer| {
                // Forward per-generation engine snapshots into the event
                // trace. The hook is recording-only (the optimizer ignores
                // it for every decision), so attaching it cannot perturb
                // the run — `None` when metrics are off.
                let optimizer = match self.obs.generation_observer(entry.key()) {
                    Some(hook) => optimizer.with_generation_observer(hook),
                    None => optimizer,
                };
                optimizer.optimize_refresh(entry.prior(), target.as_ref(), warm_seeds)
            })
        }));
        match result {
            Ok(Ok(outcome)) => {
                let stats = &outcome.statistics;
                self.obs.emit(ServeEvent::RefreshRun {
                    key: entry.key(),
                    run_index,
                    generations: stats.generations_run as u64,
                    evaluations: stats.evaluations as u64,
                    pairs_reused: stats.fitness_pairs_reused,
                    pairs_computed: stats.fitness_pairs_computed,
                    landed: true,
                });
                entry.land_run(outcome);
                // A landed run ends the failure episode: the key leaves
                // `Degraded` (via the guard) and the streak starts over.
                entry.reset_failure_streak();
                guard.landed = true;
            }
            Ok(Err(error)) => {
                self.note_refresh_failure(entry, &mut guard, from, run_index, error.to_string());
            }
            Err(payload) => {
                self.note_refresh_failure(
                    entry,
                    &mut guard,
                    from,
                    run_index,
                    panic_message(payload),
                );
            }
        }
        // Enforce the budget before the run resolves, so a waiter woken by
        // this run never observes the accounting above budget.
        self.enforce_memory(entry.key());
        drop(guard);
    }

    /// Accounts one failed (errored or panicked) refresh run: typed
    /// telemetry, bounded exponential-backoff retry, and — once the fail
    /// budget is exhausted — graceful degradation to the last-good store.
    fn note_refresh_failure(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        guard: &mut RunGuard<'_>,
        from: KeyState,
        run_index: u64,
        reason: String,
    ) {
        self.obs.emit(ServeEvent::RefreshRun {
            key: entry.key(),
            run_index,
            generations: 0,
            evaluations: 0,
            pairs_reused: 0,
            pairs_computed: 0,
            landed: false,
        });
        eprintln!(
            "optrr-serve: refresh of key {:x} (run {run_index}) failed: {reason}",
            entry.key()
        );
        if !from.has_warm_data() {
            // A failed warm-up resolves warm-and-empty exactly as before
            // this retry policy existed: there is no last-good Ω to
            // degrade to, and a NoMatch answer beats a retry loop against
            // a configuration the optimizer rejects deterministically.
            return;
        }
        // Roll the claimed run index back so the retry — or the eventual
        // recovery refresh — re-runs the *same* deterministic seed
        // instead of burning it.
        entry.unclaim_run_index(run_index);
        let streak = entry.count_refresh_failure();
        self.obs.emit(ServeEvent::RefreshFailed {
            key: entry.key(),
            run_index,
            streak,
            reason,
        });
        if streak >= self.config.fail_budget {
            // Budget exhausted: stop the automatic retries and serve the
            // last-good store, flagged degraded, until a later (manual or
            // drift-scheduled) refresh lands and restores `Warm`.
            guard.degrade = true;
            self.obs.emit(ServeEvent::Degraded {
                key: entry.key(),
                failures: streak,
            });
            return;
        }
        entry.count_retry();
        let delay = self.retry_delay(streak);
        self.obs.emit(ServeEvent::RefreshRetry {
            key: entry.key(),
            attempt: streak,
            delay_ms: delay.as_millis() as u64,
        });
        let service = Arc::clone(self);
        let job = Arc::clone(entry);
        // The backoff sleeps *inside* the retry job, on a pool worker:
        // the job is already pending when this run resolves, so
        // `wait_idle` (and the protocol's `Sync`) remain true barriers
        // over the whole retry chain.
        self.pool.submit(move || {
            std::thread::sleep(delay);
            service.run_refresh(&job);
        });
    }

    /// Deterministic exponential backoff: attempt `n` (1-based) waits
    /// `retry_base_ms << (n - 1)` milliseconds, saturating at
    /// `retry_max_ms`.
    fn retry_delay(&self, attempt: u64) -> Duration {
        let exponent = attempt.saturating_sub(1).min(20) as u32;
        let ms = self
            .config
            .retry_base_ms
            .saturating_mul(1u64 << exponent)
            .min(self.config.retry_max_ms);
        Duration::from_millis(ms)
    }

    /// Restores an evicted key's resident state (store, seeds, pipeline):
    /// from its eviction sidecar when persistence is configured
    /// (bitwise-identical restore), by deterministically replaying its
    /// engine-run sequence otherwise (bitwise-identical for
    /// prior-targeted run histories — a replay cannot recover the
    /// posterior a dropped pipeline once held). Touches only resident
    /// structures, never the state machine; callers hold a run claim.
    /// This is the one place a re-warm is counted and traced.
    fn restore_resident(self: &Arc<Self>, entry: &Arc<KeyEntry>) -> bool {
        let restored = self.restore_from_sidecar(entry) || self.replay_runs(entry);
        entry.count_rewarm();
        self.obs.emit(ServeEvent::Rewarmed { key: entry.key() });
        restored
    }

    /// Replays a key's engine runs `0..n` in order, each warm-started from
    /// the previous one's archive, without claiming new run indices.
    /// Returns whether every run landed; a failed run leaves the seed set
    /// empty.
    fn replay_runs(&self, entry: &KeyEntry) -> bool {
        for run_index in 0..entry.engine_runs().max(1) {
            let config = self.run_config(entry, run_index);
            let seeds = entry.take_warm_seeds();
            match Optimizer::new(config)
                .and_then(|o| o.optimize_distribution_seeded(entry.prior(), seeds))
            {
                Ok(outcome) => entry.land_run(outcome),
                Err(error) => {
                    eprintln!(
                        "optrr-serve: re-warm of key {:x} failed at run {run_index}: {error}",
                        entry.key()
                    );
                    entry.put_warm_seeds(Vec::new());
                    return false;
                }
            }
        }
        true
    }

    /// Re-warms an evicted key on a pool worker (the query path's
    /// transparent restore; see [`Service::restore_resident`]).
    fn run_rewarm(self: &Arc<Self>, entry: &Arc<KeyEntry>) {
        entry.lifecycle().begin_run();
        let mut guard = RunGuard {
            cell: entry.lifecycle(),
            landed: false,
            degrade: false,
        };
        guard.landed = self.restore_resident(entry);
        entry.touch(self.now_ms());
        // As in run_refresh: budget holds before any waiter wakes.
        self.enforce_memory(entry.key());
        drop(guard);
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
                    let service = Arc::clone(self);
                    let job = Arc::clone(entry);
                    self.pool.submit(move || service.run_rewarm(&job));
                }
                continue;
            }
            entry.lifecycle().wait_while_warming();
        }
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
        Self::validate_delta(delta)?;
        let prior = Self::prior_from_weights(weights)?;
        let num_slots = slots
            .unwrap_or(self.config.default_slots)
            .clamp(1, MAX_OMEGA_SLOTS);
        let (entry, _created) = self.registry.insert_or_get_observed(
            &prior,
            delta,
            num_slots,
            self.config.num_shards,
            |key| self.obs.transition_sink(key),
        );
        if let Some(name) = name {
            self.registry.bind_name(name, entry.key());
        }
        // The warm-up claim is the exactly-once gate: whichever concurrent
        // registration wins the Cold → Warming compare-exchange schedules
        // the single warm-up run.
        if entry.lifecycle().claim_warmup() {
            let service = Arc::clone(self);
            let job_entry = Arc::clone(&entry);
            self.pool.submit(move || service.run_refresh(&job_entry));
        }
        entry.touch(self.now_ms());
        if block_until_warm {
            self.ensure_live(&entry);
        }
        Ok(entry)
    }

    /// Registers many priors under one δ and warms the cold ones in one
    /// parallel batch via [`Optimizer::optimize_many`] — the multi-prior
    /// batch front door. Returns the entries in input order plus the number
    /// of engine runs the batch actually needed (already-warm keys are
    /// reused, not re-run).
    pub fn register_batch(
        self: &Arc<Self>,
        names: Option<&[String]>,
        priors: &[Vec<f64>],
        delta: f64,
        slots: Option<usize>,
    ) -> Result<(Vec<Arc<KeyEntry>>, usize)> {
        Self::validate_delta(delta)?;
        if priors.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let num_slots = slots
            .unwrap_or(self.config.default_slots)
            .clamp(1, MAX_OMEGA_SLOTS);
        let now = self.now_ms();
        let mut entries = Vec::with_capacity(priors.len());
        let mut cold: Vec<(usize, Categorical)> = Vec::new();
        for (index, weights) in priors.iter().enumerate() {
            let prior = Self::prior_from_weights(weights)?;
            let (entry, _) = self.registry.insert_or_get_observed(
                &prior,
                delta,
                num_slots,
                self.config.num_shards,
                |key| self.obs.transition_sink(key),
            );
            if let Some(name) = names.and_then(|n| n.get(index)) {
                self.registry.bind_name(name, entry.key());
            }
            if entry.lifecycle().claim_warmup() {
                cold.push((index, prior));
            }
            entry.touch(now);
            entries.push(entry);
        }
        if !cold.is_empty() {
            // One optimizer fans the cold priors across cores; every run
            // uses the base seed (run index 0), exactly like a solo
            // warm-up, so batch and solo registration are bit-identical.
            let cold_priors: Vec<Categorical> = cold.iter().map(|(_, p)| p.clone()).collect();
            let config = self.run_config(&entries[cold[0].0], 0);
            let ran = Optimizer::new(config).and_then(|o| o.optimize_many(&cold_priors));
            match ran {
                Ok(outcomes) => {
                    for ((index, _), outcome) in cold.iter().zip(outcomes) {
                        let entry = &entries[*index];
                        entry.lifecycle().begin_run();
                        entry.claim_run_index();
                        entry.land_run(outcome);
                        entry.lifecycle().finish_run(true);
                    }
                }
                Err(error) => {
                    // The cold entries are already in the registry; mirror
                    // a failed solo warm-up (run counted, state resolved
                    // warm-and-empty) so they answer NoMatch instead of
                    // wedging every later query and re-registration.
                    for (index, _) in &cold {
                        let entry = &entries[*index];
                        entry.lifecycle().begin_run();
                        entry.claim_run_index();
                        entry.lifecycle().finish_run(false);
                    }
                    return Err(error.into());
                }
            }
            self.enforce_memory(u64::MAX);
        }
        Ok((entries, cold.len()))
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
            self.schedule_runs(entry, 1);
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
        let merged = entry.store().merge();
        merged
            .pareto_entries()
            .iter()
            .map(|e| optrr::FrontPoint::from_evaluation(&e.evaluation))
            .collect()
    }

    /// Submits `runs` refresh jobs for an entry.
    pub(crate) fn schedule_runs(self: &Arc<Self>, entry: &Arc<KeyEntry>, runs: usize) {
        for _ in 0..runs {
            let service = Arc::clone(self);
            let job_entry = Arc::clone(entry);
            self.pool.submit(move || service.run_refresh(&job_entry));
        }
    }

    /// Marks a key manually stale and schedules `runs` refresh engine runs
    /// on the worker pool. Returns the number scheduled.
    pub fn refresh(self: &Arc<Self>, entry: &Arc<KeyEntry>, runs: usize) -> usize {
        let runs = runs.clamp(1, MAX_REFRESH_RUNS);
        // A drift- or coverage-stale key keeps its recorded reason (the
        // compare-exchange fails); the scheduled runs execute either way.
        entry.lifecycle().try_mark_stale(StaleReason::Manual);
        self.schedule_runs(entry, runs);
        runs
    }

    /// Evicts a key's resident state (Ω matrices, warm-start seeds, pinned
    /// pipeline) if it is idle, writing its eviction sidecar first when
    /// persistence is configured. Returns the bytes freed, or `None` when
    /// the key was not evictable (cold, warming, already evicted, or a run
    /// in flight).
    pub fn evict_key(&self, entry: &Arc<KeyEntry>) -> Option<u64> {
        // The claim parks the key in `Evicting`: queries, re-warm claims,
        // and queued runs wait until `finish_evict`, so the sidecar write
        // and the drop below are atomic to every observer — a concurrent
        // re-warm can neither read a half-dropped store nor land a fresh
        // one for this eviction to wipe.
        if !entry.lifecycle().try_evict() {
            return None;
        }
        if let Some(base) = &self.config.snapshot_path {
            let snapshot = self.key_snapshot(entry, self.registry.names_of(entry.key()));
            let path = Self::sidecar_path(base, entry.key());
            let encoded = serde_json::to_string(&snapshot).expect("snapshots serialize");
            if let Err(error) = self.write_snapshot_file(&path, &encoded) {
                // A failed sidecar write degrades the eviction to
                // replay-on-rewarm, it never blocks it: the key's state is
                // still recoverable deterministically.
                eprintln!("optrr-serve: eviction sidecar {path:?} failed: {error}");
            }
        }
        let freed = entry.drop_resident_state();
        self.obs.emit(ServeEvent::Evicted {
            key: entry.key(),
            bytes_freed: freed,
        });
        entry.lifecycle().finish_evict();
        Some(freed)
    }

    /// The per-key eviction sidecar next to the configured snapshot path.
    fn sidecar_path(base: &str, key: u64) -> String {
        format!("{base}.key-{key:016x}.json")
    }

    /// Writes one snapshot/sidecar payload crash-safely: a version +
    /// checksum header is prepended, the whole file goes to `<path>.tmp`,
    /// is fsynced, and only then renamed over `path` — so a crash (or an
    /// injected torn write) at any point leaves either the previous
    /// generation or a complete new one at `path`, never a torn file.
    fn write_snapshot_file(&self, path: &str, payload: &str) -> Result<()> {
        if let Some(injector) = &self.faults {
            if injector.snapshot_write_error(path) {
                return Err(ServeError::Snapshot(format!(
                    "injected write fault for {path:?}"
                )));
            }
        }
        let header = snapshot_header(payload);
        let full = format!("{header}\n{payload}\n");
        let tmp = format!("{path}.tmp");
        let bytes = full.as_bytes();
        let torn = self
            .faults
            .as_ref()
            .and_then(|injector| injector.torn_write(path, bytes.len()));
        if let Some(cut) = torn {
            // Simulated crash mid-write: a truncated prefix reaches the
            // temporary file and the rename never happens — the previous
            // generation at `path` stays intact.
            let _ = std::fs::write(&tmp, &bytes[..cut]);
            return Err(ServeError::Snapshot(format!(
                "injected torn write for {path:?} (cut at byte {cut} of {})",
                bytes.len()
            )));
        }
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        write().map_err(|e| ServeError::Snapshot(format!("write {path:?} failed: {e}")))
    }

    /// Reads one snapshot/sidecar file back, verifying the crash-safety
    /// header when present. Files written before the header existed
    /// (no `OPTRR-SNAP` magic) are accepted as-is, so old snapshots keep
    /// loading.
    fn read_snapshot_file(&self, path: &str) -> SnapshotRead {
        if let Some(injector) = &self.faults {
            if injector.snapshot_read_error(path) {
                return SnapshotRead::Io(format!("injected read fault for {path:?}"));
            }
        }
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SnapshotRead::Missing,
            Err(e) => return SnapshotRead::Io(format!("read {path:?} failed: {e}")),
        };
        if !text.starts_with(SNAPSHOT_MAGIC) {
            // Legacy headerless file: nothing to verify.
            return SnapshotRead::Ok(text.trim().to_string());
        }
        let Some((header, rest)) = text.split_once('\n') else {
            return SnapshotRead::Corrupt(format!("{path:?} is truncated inside its header"));
        };
        let payload = rest.strip_suffix('\n').unwrap_or(rest);
        match verify_snapshot_header(header, payload) {
            Ok(()) => SnapshotRead::Ok(payload.to_string()),
            Err(reason) => SnapshotRead::Corrupt(format!("{path:?} {reason}")),
        }
    }

    /// Restores an evicted key from its eviction sidecar, when persistence
    /// is configured and the sidecar decodes. Returns whether it did; any
    /// failure other than "no sidecar exists" emits a typed
    /// [`ServeEvent::SnapshotLoadFailed`] (bumping
    /// `serve_snapshot_load_failures_total`) and falls back to the
    /// deterministic engine replay — a torn or unreadable sidecar is
    /// never served and never silently ignored.
    fn restore_from_sidecar(self: &Arc<Self>, entry: &Arc<KeyEntry>) -> bool {
        let Some(base) = &self.config.snapshot_path else {
            return false;
        };
        let path = Self::sidecar_path(base, entry.key());
        let failed = |reason: String| {
            self.obs.emit(ServeEvent::SnapshotLoadFailed {
                path: path.clone(),
                reason: reason.clone(),
            });
            eprintln!("optrr-serve: eviction sidecar {path:?} unusable ({reason}); replaying runs");
            false
        };
        let text = match self.read_snapshot_file(&path) {
            SnapshotRead::Missing => return false,
            SnapshotRead::Io(reason) => return failed(reason),
            SnapshotRead::Corrupt(reason) => return failed(reason),
            SnapshotRead::Ok(text) => text,
        };
        let snapshot = match serde_json::from_str::<KeySnapshot>(text.trim()) {
            Ok(snapshot) => snapshot,
            Err(e) => return failed(format!("did not decode: {e}")),
        };
        if let Err(reason) = snapshot.check_shape(entry.prior(), entry.num_slots()) {
            return failed(reason);
        }
        entry.store().absorb(&snapshot.omega);
        if let Some(seeds) = &snapshot.warm_seeds {
            if !seeds.is_empty() {
                entry.put_warm_seeds(seeds.clone());
            }
        }
        if let Some(pipeline) = &snapshot.pipeline {
            match crate::pipeline::KeyPipeline::restore(pipeline, self.config.num_shards) {
                Ok(restored) => {
                    self.obs
                        .emit(ServeEvent::SamplerRebuild { key: entry.key() });
                    entry.install_pipeline(restored);
                }
                Err(reason) => {
                    eprintln!(
                        "optrr-serve: sidecar pipeline of key {:x} skipped: {reason}",
                        entry.key()
                    );
                }
            }
        }
        true
    }

    /// Evicts expired keys (TTL) and then least-recently-touched keys
    /// until resident bytes fit the budget. `protect` is never evicted
    /// (the key that just grew — evicting it immediately would thrash).
    fn enforce_memory(&self, protect: u64) {
        self.sweep_ttl();
        let Some(budget) = self.config.memory_budget_bytes else {
            return;
        };
        // One registry-wide byte sum, then subtract what each eviction
        // frees — not a recount per victim, which would make a budget
        // squeeze quadratic in the key count.
        let mut resident = self.registry.resident_bytes();
        while resident > budget {
            let Some(victim) = self.registry.lru_evictable(protect) else {
                break;
            };
            match self.evict_key(&victim) {
                Some(freed) => resident = resident.saturating_sub(freed),
                None => break,
            }
        }
    }

    /// Evicts every idle key untouched for longer than the configured TTL.
    fn sweep_ttl(&self) {
        let Some(ttl) = self.config.key_ttl else {
            return;
        };
        let ttl_ms = ttl.as_millis() as u64;
        let now = self.now_ms();
        for entry in self.registry.entries() {
            if entry.state().has_warm_data()
                && entry.lifecycle().inflight() == 0
                && now.saturating_sub(entry.last_touch_ms()) > ttl_ms
            {
                self.evict_key(&entry);
            }
        }
    }

    /// Blocks until all scheduled engine runs have finished.
    pub fn wait_idle(&self) {
        self.pool.wait_idle();
    }

    /// Per-key statistics snapshot.
    pub fn key_stats(&self, entry: &KeyEntry) -> KeyStatsDto {
        let range = entry.store().privacy_range();
        // Refresh telemetry from the most recent engine run: how much
        // pairwise fitness state the incremental kernel reused.
        let (fitness_pairs_reused, fitness_pairs_computed) = entry
            .last_statistics()
            .map(|s| (s.fitness_pairs_reused, s.fitness_pairs_computed))
            .unwrap_or((0, 0));
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
            fitness_pairs_reused,
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
        let totals = self.totals();
        (
            totals.keys,
            totals.engine_runs,
            totals.queries,
            totals.warm_hits,
        )
    }

    /// One key's snapshot under the given aliases, including its pinned
    /// pipeline when any.
    fn key_snapshot(&self, entry: &KeyEntry, names: Vec<String>) -> KeySnapshot {
        KeySnapshot {
            prior: entry.prior().probs().to_vec(),
            delta: entry.delta(),
            slots: entry.num_slots(),
            engine_runs: entry.engine_runs(),
            drift_events: Some(entry.drift_events()),
            names,
            omega: entry.store().merge(),
            warm_seeds: Some(entry.take_warm_seeds()),
            pipeline: entry.pipeline().map(|p| p.snapshot()),
        }
    }

    /// Serializable snapshot of the whole registry: every key's
    /// registration metadata, run counter, aliases, merged warm Ω, and
    /// pinned pipeline, in ascending key order. Scheduled engine runs are
    /// drained first so the snapshot is consistent.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.wait_idle();
        let mut entries = self.registry.entries();
        entries.sort_by_key(|e| e.key());
        let mut names = self.registry.names_by_key();
        ServiceSnapshot {
            keys: entries
                .iter()
                .map(|entry| {
                    self.key_snapshot(entry, names.remove(&entry.key()).unwrap_or_default())
                })
                .collect(),
        }
    }

    /// Writes a snapshot of the warm stores to `path`. Returns the number
    /// of keys saved.
    pub fn save_snapshot(&self, path: &str) -> Result<usize> {
        let snapshot = self.snapshot();
        let encoded = serde_json::to_string(&snapshot)
            .map_err(|e| ServeError::Snapshot(format!("encode failed: {e}")))?;
        self.write_snapshot_file(path, &encoded)?;
        self.obs.emit(ServeEvent::SnapshotSaved {
            keys: snapshot.keys.len() as u64,
        });
        Ok(snapshot.keys.len())
    }

    /// Writes the configured snapshot automatically (on `Sync`, shutdown,
    /// and library callers that want the same behavior). A failure is
    /// reported on stderr, never escalated — an autosave must not take the
    /// serving loop down.
    pub fn autosave(&self) {
        let Some(path) = self.config.snapshot_path.clone() else {
            return;
        };
        if let Err(error) = self.save_snapshot(&path) {
            eprintln!("optrr-serve: autosave to {path:?} failed: {error}");
        }
    }

    /// Loads a snapshot file into the registry: missing keys are created
    /// *warm* (no engine run — the whole point of persistence), existing
    /// keys absorb the snapshot's Ω, which only ever improves them.
    /// Pipeline snapshots resume in-flight estimation streams on keys that
    /// have none pinned yet. Returns `(created, merged)`.
    pub fn load_snapshot(self: &Arc<Self>, path: &str) -> Result<(usize, usize)> {
        let text = match self.read_snapshot_file(path) {
            SnapshotRead::Missing => {
                return Err(ServeError::Snapshot(format!(
                    "read {path:?} failed: not found"
                )))
            }
            SnapshotRead::Io(reason) => return Err(ServeError::Snapshot(reason)),
            SnapshotRead::Corrupt(reason) => {
                self.obs.emit(ServeEvent::SnapshotLoadFailed {
                    path: path.to_string(),
                    reason: reason.clone(),
                });
                return Err(ServeError::SnapshotCorrupt(reason));
            }
            SnapshotRead::Ok(text) => text,
        };
        let snapshot: ServiceSnapshot = serde_json::from_str(text.trim()).map_err(|e| {
            let reason = format!("decode {path:?} failed: {e}");
            self.obs.emit(ServeEvent::SnapshotLoadFailed {
                path: path.to_string(),
                reason: reason.clone(),
            });
            ServeError::SnapshotCorrupt(reason)
        })?;
        let mut created_count = 0usize;
        let mut merged_count = 0usize;
        let now = self.now_ms();
        for key in &snapshot.keys {
            Self::validate_delta(key.delta)?;
            let prior = Self::prior_from_weights(&key.prior)?;
            let slots = key.slots.clamp(1, MAX_OMEGA_SLOTS);
            key.check_shape(&prior, slots)
                .map_err(ServeError::Snapshot)?;
            let (entry, created) = self.registry.insert_or_get_observed(
                &prior,
                key.delta,
                slots,
                self.config.num_shards,
                |key| self.obs.transition_sink(key),
            );
            for name in &key.names {
                self.registry.bind_name(name, entry.key());
            }
            // A key persisted with engine runs behind it but an *empty* Ω
            // was evicted before the snapshot was written; restoring it
            // "warm" would pin it empty forever (warm keys never re-warm).
            // Restore it evicted instead: the next query re-warms it from
            // its eviction sidecar or by engine replay.
            let persisted_evicted = key.omega.is_empty() && key.engine_runs > 0;
            if persisted_evicted {
                if created {
                    entry.restore_engine_runs(key.engine_runs);
                    entry.restore_drift_events(key.drift_events.unwrap_or(0));
                    entry.lifecycle().restore_evicted();
                }
                entry.touch(now);
            } else {
                // Hold a run claim while the snapshot lands: a concurrent
                // budget/TTL eviction cannot interleave with the absorb
                // (try_evict refuses keys with runs in flight), and the
                // claim itself waits out any eviction already mid-drop —
                // then resolves the key Warm with the loaded data.
                entry.lifecycle().begin_run();
                entry.store().absorb(&key.omega);
                // Seeds restore only where none are held: a live
                // service's own (newer) archive wins over the snapshot's.
                if let Some(seeds) = &key.warm_seeds {
                    if !seeds.is_empty() && entry.take_warm_seeds().is_empty() {
                        entry.put_warm_seeds(seeds.clone());
                    }
                }
                let pipeline_restore = match &key.pipeline {
                    Some(pipeline) if entry.pipeline().is_none() => {
                        crate::pipeline::KeyPipeline::restore(pipeline, self.config.num_shards)
                            .map(Some)
                    }
                    _ => Ok(None),
                };
                match &pipeline_restore {
                    Ok(Some(_)) | Ok(None) => {}
                    Err(_) => {
                        // Release the claim before surfacing the error,
                        // or the key would hang in Warming forever.
                        entry.lifecycle().finish_run(false);
                    }
                }
                if let Some(restored) = pipeline_restore.map_err(ServeError::Snapshot)? {
                    self.obs
                        .emit(ServeEvent::SamplerRebuild { key: entry.key() });
                    entry.install_pipeline(restored);
                }
                if created {
                    entry.restore_engine_runs(key.engine_runs);
                }
                if let Some(drift_events) = key.drift_events {
                    if drift_events > entry.drift_events() {
                        entry.restore_drift_events(drift_events);
                    }
                }
                entry.touch(now);
                entry.lifecycle().finish_run(true);
            }
            if created {
                created_count += 1;
            } else {
                merged_count += 1;
            }
        }
        self.enforce_memory(u64::MAX);
        self.obs.emit(ServeEvent::SnapshotLoaded {
            created: created_count as u64,
            merged: merged_count as u64,
        });
        Ok((created_count, merged_count))
    }

    /// Converts an estimate outcome into its transport form.
    fn estimate_dto(outcome: crate::pipeline::EstimateOutcome, degraded: bool) -> EstimateDto {
        EstimateDto {
            key: outcome.key,
            method: outcome.method.to_string(),
            distribution: outcome.distribution.probs().to_vec(),
            iterations: outcome.iterations,
            residual: outcome.residual,
            mse_vs_prior: outcome.mse_vs_prior,
            total_responses: outcome.total_responses,
            batches: outcome.batches,
            drifted: outcome.drifted,
            stale: outcome.stale,
            degraded,
        }
    }

    /// Whether a key is currently serving degraded (last-good) data.
    fn degraded_flag(&self, entry: &KeyEntry) -> bool {
        entry.state().is_degraded()
    }

    /// Handles one protocol request, mapping library errors to
    /// [`Response::Error`] with the stable [`ServeError::code`] taxonomy.
    pub fn handle(self: &Arc<Self>, request: Request) -> Response {
        match self.try_handle(request) {
            Ok(response) => response,
            Err(error) => Response::Error {
                reason: error.to_string(),
                code: error.code().to_string(),
            },
        }
    }

    fn try_handle(self: &Arc<Self>, request: Request) -> Result<Response> {
        Ok(match request {
            Request::Register {
                name,
                prior,
                delta,
                slots,
                lazy,
            } => {
                let block = !lazy.unwrap_or(false);
                let entry = self.register(name.as_deref(), &prior, delta, slots, block)?;
                Response::Registered {
                    key: entry.key(),
                    warm: entry.is_warm(),
                    filled_slots: entry.store().len(),
                    engine_runs: entry.engine_runs(),
                }
            }
            Request::RegisterBatch {
                names,
                priors,
                delta,
                slots,
            } => {
                let (entries, warmed) =
                    self.register_batch(names.as_deref(), &priors, delta, slots)?;
                Response::RegisteredBatch {
                    keys: entries.iter().map(|e| e.key()).collect(),
                    warmed,
                }
            }
            Request::BestForPrivacy {
                key,
                name,
                min_privacy,
            } => {
                let entry = self.resolve(key, name.as_deref())?;
                match self.best_for_privacy(&entry, min_privacy) {
                    Some(found) => self.matrix_response(&entry, &found),
                    None => Response::NoMatch {
                        key: entry.key(),
                        reason: format!("no stored matrix with privacy >= {min_privacy}"),
                        degraded: self.degraded_flag(&entry),
                    },
                }
            }
            Request::BestForMse { key, name, max_mse } => {
                let entry = self.resolve(key, name.as_deref())?;
                match self.best_for_mse(&entry, max_mse) {
                    Some(found) => self.matrix_response(&entry, &found),
                    None => Response::NoMatch {
                        key: entry.key(),
                        reason: format!("no stored matrix with mse <= {max_mse}"),
                        degraded: self.degraded_flag(&entry),
                    },
                }
            }
            Request::Front { key, name } => {
                let entry = self.resolve(key, name.as_deref())?;
                Response::Front {
                    key: entry.key(),
                    points: self.front(&entry),
                    degraded: self.degraded_flag(&entry),
                }
            }
            Request::Ingest {
                key,
                name,
                min_privacy,
                records,
                counts,
                seed,
            } => {
                let entry = self.resolve(key, name.as_deref())?;
                let outcome = self.ingest(
                    &entry,
                    min_privacy,
                    records.as_deref(),
                    counts.as_deref(),
                    seed,
                )?;
                Response::Ingested {
                    key: outcome.key,
                    accepted: outcome.accepted,
                    retained: outcome.retained,
                    total: outcome.total,
                    batches: outcome.batches,
                    privacy: outcome.privacy,
                }
            }
            Request::Disguise {
                key,
                name,
                min_privacy,
                records,
                seed,
            } => {
                let entry = self.resolve(key, name.as_deref())?;
                let (evaluation, disguised, retained) =
                    self.disguise(&entry, min_privacy, &records, seed)?;
                Response::Disguised {
                    key: entry.key(),
                    privacy: evaluation.privacy,
                    mse: evaluation.mse,
                    retained,
                    records: disguised,
                }
            }
            Request::Estimate { key, name } => {
                let entry = self.resolve(key, name.as_deref())?;
                let outcome = self.estimate(&entry)?;
                let degraded = self.degraded_flag(&entry);
                Response::Estimated {
                    stats: Self::estimate_dto(outcome, degraded),
                }
            }
            Request::EstimateAll => {
                let (outcomes, skipped, failed) = self.estimate_all();
                Response::EstimatedAll {
                    estimates: outcomes
                        .into_iter()
                        .map(|outcome| {
                            let degraded = self
                                .registry
                                .resolve(Some(outcome.key), None)
                                .is_some_and(|e| self.degraded_flag(&e));
                            Self::estimate_dto(outcome, degraded)
                        })
                        .collect(),
                    skipped,
                    failed,
                }
            }
            Request::Save { path } => {
                let keys = self.save_snapshot(&path)?;
                Response::Saved { path, keys }
            }
            Request::Load { path } => {
                let (created, merged) = self.load_snapshot(&path)?;
                Response::Loaded {
                    path,
                    created,
                    merged,
                }
            }
            Request::Refresh { key, name, runs } => {
                let entry = self.resolve(key, name.as_deref())?;
                let scheduled = self.refresh(&entry, runs.unwrap_or(1));
                Response::Scheduled {
                    key: entry.key(),
                    runs: scheduled,
                }
            }
            Request::Evict { key, name } => {
                let entry = self.resolve(key, name.as_deref())?;
                match self.evict_key(&entry) {
                    Some(bytes_freed) => Response::Evicted {
                        key: entry.key(),
                        evicted: true,
                        bytes_freed,
                    },
                    None => Response::Evicted {
                        key: entry.key(),
                        evicted: false,
                        bytes_freed: 0,
                    },
                }
            }
            Request::Sync => {
                self.wait_idle();
                // Autosave before the TTL sweep: the full snapshot then
                // carries the expiring keys' complete state (a sweep-first
                // order would persist them as already-empty).
                self.autosave();
                self.sweep_ttl();
                Response::Synced
            }
            Request::Stats { key, name } => {
                if key.is_none() && name.is_none() {
                    let totals = self.totals();
                    Response::ServiceStats {
                        keys: totals.keys,
                        engine_runs: totals.engine_runs,
                        queries: totals.queries,
                        warm_hits: totals.warm_hits,
                        resident_bytes: totals.resident_bytes,
                        budget_bytes: totals.budget_bytes,
                        evictions: totals.evictions,
                        rewarms: totals.rewarms,
                        refresh_failures: totals.refresh_failures,
                        retries: totals.retries,
                        degraded: totals.degraded,
                    }
                } else {
                    let entry = self.resolve(key, name.as_deref())?;
                    Response::KeyStats {
                        stats: self.key_stats(&entry),
                    }
                }
            }
            Request::Metrics => self.metrics_response(),
            Request::Trace { limit } => {
                let (entries, dropped) = self.obs.trace_snapshot(limit);
                Response::Trace {
                    enabled: self.obs.enabled() && self.obs.trace_capacity() > 0,
                    dropped,
                    events: entries
                        .into_iter()
                        .map(|entry| TraceEventDto {
                            seq: entry.seq,
                            at_ns: entry.at_ns,
                            kind: entry.event.kind().to_string(),
                            key: entry.event.key(),
                            detail: entry.event.detail(),
                        })
                        .collect(),
                }
            }
            Request::Shutdown => {
                self.wait_idle();
                self.autosave();
                Response::Bye
            }
        })
    }

    /// A point query's answer: the stored matrix with its evaluation.
    fn matrix_response(&self, entry: &KeyEntry, found: &optrr::OmegaEntry) -> Response {
        Response::Matrix {
            key: entry.key(),
            privacy: found.evaluation.privacy,
            mse: found.evaluation.mse,
            max_posterior: found.evaluation.max_posterior,
            matrix: MatrixDto::from_matrix(&found.matrix),
            degraded: self.degraded_flag(entry),
        }
    }

    /// Answers the `Metrics` verb: publishes the service totals (the
    /// registered-keys and resident-bytes gauges and the view counters)
    /// and the worker-pool gauges, then ships one snapshot as DTOs plus
    /// its Prometheus-style rendering.
    fn metrics_response(&self) -> Response {
        self.obs.publish_totals(&self.totals());
        self.obs
            .set_gauge("serve_worker_jobs_submitted", self.pool.jobs_submitted());
        self.obs
            .set_gauge("serve_worker_jobs_executed", self.pool.jobs_executed());
        self.obs
            .set_gauge("serve_worker_jobs_panicked", self.pool.jobs_panicked());
        let snapshot = self.obs.metrics_snapshot();
        let value_dto = |(name, value): (String, u64)| MetricValueDto { name, value };
        Response::Metrics {
            enabled: self.obs.enabled(),
            counters: snapshot.counters.into_iter().map(value_dto).collect(),
            gauges: snapshot.gauges.into_iter().map(value_dto).collect(),
            histograms: snapshot
                .histograms
                .into_iter()
                .map(|h| HistogramDto {
                    name: h.name,
                    count: h.count,
                    sum: h.sum,
                    max: h.max,
                    p50: h.p50,
                    p90: h.p90,
                    p99: h.p99,
                })
                .collect(),
            prometheus: self.obs.render_prometheus(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let improvements_before = entry.store().improvements();
        let scheduled = service.refresh(&entry, 2);
        assert_eq!(scheduled, 2);
        service.wait_idle();
        assert_eq!(entry.engine_runs(), 3);
        assert!(!entry.is_stale());
        assert_eq!(entry.state(), KeyState::Warm);
        // Ω only ever improves: no filled slot is lost, improvements grow.
        assert!(entry.store().len() >= filled_before);
        assert!(entry.store().improvements() >= improvements_before);
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

        let freed = service.evict_key(&entry).expect("idle key evicts");
        assert_eq!(freed, resident_before);
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
        // Sync auto-saved the configured snapshot; the eviction wrote a
        // per-key sidecar next to it.
        assert!(path.exists(), "autosave file missing");
        let entry = service.resolve(None, Some("demo")).unwrap();
        let sidecar = Service::sidecar_path(&path_str, entry.key());
        assert!(std::path::Path::new(&sidecar).exists(), "sidecar missing");
        // The sidecar re-warms the evicted key bitwise (no engine run).
        let before_runs = entry.engine_runs();
        assert!(service.best_for_privacy(&entry, 0.0).is_some());
        assert_eq!(entry.engine_runs(), before_runs);
        assert_eq!(entry.rewarms(), 1);
        let _ = std::fs::remove_file(&sidecar);
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

    #[test]
    fn unreadable_sidecar_falls_back_to_deterministic_replay() {
        let dir = std::env::temp_dir().join("optrr_serve_sidecar_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto.json");
        let path_str = path.to_str().unwrap().to_string();
        let mut config = ServiceConfig::smoke(77);
        config.snapshot_path = Some(path_str.clone());
        let service = Arc::new(Service::new(config));
        let entry = service
            .register(Some("s"), &PRIOR, 0.8, None, true)
            .unwrap();
        let warm_merge = entry.store().merge();
        service.evict_key(&entry).expect("idle key evicts");
        let sidecar = Service::sidecar_path(&path_str, entry.key());
        // Corrupt the sidecar on disk: the re-warm must detect it (typed
        // event, counter), fall back to the engine replay, and still
        // converge to the identical store — never serve the bad bytes and
        // never fail the query.
        std::fs::write(&sidecar, "OPTRR-SNAP v1 crc=0000000000000000 len=3\nxyz\n").unwrap();
        assert!(service.best_for_privacy(&entry, 0.0).is_some());
        assert_eq!(entry.state(), KeyState::Warm);
        assert_eq!(entry.store().merge(), warm_merge);
        assert_eq!(entry.engine_runs(), 1, "replayed, not loaded");
        let metrics = service.obs().render_prometheus();
        assert!(
            metrics.contains("serve_snapshot_load_failures_total 1"),
            "{metrics}"
        );
        let _ = std::fs::remove_file(&sidecar);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mis_shaped_legacy_sidecar_is_refused_and_replayed() {
        let dir = std::env::temp_dir().join("optrr_serve_sidecar_shape_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto.json");
        let path_str = path.to_str().unwrap().to_string();
        let mut config = ServiceConfig::smoke(77);
        config.snapshot_path = Some(path_str.clone());
        let service = Arc::new(Service::new(config));
        let entry = service
            .register(Some("four"), &[0.4, 0.3, 0.2, 0.1], 0.8, None, true)
            .unwrap();
        let warm_merge = entry.store().merge();
        // A pinned 3-category pipeline from another key.
        let three = service
            .register(Some("three"), &[0.5, 0.3, 0.2], 0.8, None, true)
            .unwrap();
        service
            .ingest(&three, Some(0.0), None, Some(&[50, 30, 20]), None)
            .unwrap();
        let foreign_pipeline = three.pipeline().unwrap().snapshot();

        // Rewrite the 4-category key's sidecar as a legacy headerless file
        // whose pipeline pins the 3×3 channel: slot count and Ω still
        // match, so only the shape check can refuse it.
        service.evict_key(&entry).expect("idle key evicts");
        let sidecar = Service::sidecar_path(&path_str, entry.key());
        let text = std::fs::read_to_string(&sidecar).unwrap();
        let (_, payload) = text.split_once('\n').expect("headered sidecar");
        let mut snapshot: KeySnapshot = serde_json::from_str(payload.trim()).unwrap();
        snapshot.pipeline = Some(foreign_pipeline);
        std::fs::write(&sidecar, serde_json::to_string(&snapshot).unwrap()).unwrap();

        // The re-warm refuses the sidecar (typed event, counter) and
        // replays: the Ω comes back bitwise and no channel is pinned, so
        // Estimate answers an error instead of panicking on the
        // dimension mismatch.
        let response = service.handle(Request::Estimate {
            key: Some(entry.key()),
            name: None,
        });
        assert!(
            matches!(response, Response::Error { .. }),
            "got {response:?}"
        );
        assert_eq!(entry.state(), KeyState::Warm);
        assert_eq!(entry.store().merge(), warm_merge);
        assert!(entry.pipeline().is_none());
        let metrics = metrics_text(&service);
        assert!(
            metrics.contains("serve_snapshot_load_failures_total 1"),
            "{metrics}"
        );
        let _ = std::fs::remove_file(&sidecar);
        let _ = std::fs::remove_file(&path);
    }
}
