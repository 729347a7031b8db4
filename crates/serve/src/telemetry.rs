//! Serve-side observability: one [`ServeObs`] per service instance.
//!
//! The [`obs`] crate supplies the mechanisms — lock-free counters and
//! histograms, a bounded [`TraceRing`] — and this module supplies the
//! serve-stack policy on top of them: the metric catalogue (every name
//! the `Metrics` verb can report), the typed [`ServeEvent`] schema the
//! trace records, and the adapters that hand recording hooks to the
//! subsystems that cannot depend on the service (the lifecycle's
//! [`TransitionSink`], the core optimizer's generation observer).
//!
//! Every metric has a fixed slot known at compile time: a [`Counter`]
//! or [`Gauge`] field, or a cell of one verb × codec histogram table. A
//! session records each request once, into its cell, with no name, lock
//! or allocation. Names exist only at readout, which reads each verb's
//! codec-agnostic histogram as the sum of its codec row.
//!
//! Everything here is *recording only*. A [`ServeObs`] is consulted to
//! answer the `Metrics`/`Trace` protocol verbs and for nothing else; no
//! counter, histogram, or trace value feeds back into request handling.
//! That one-way discipline is what the observability-invisibility test
//! enforces end to end: a service with metrics on and a service with
//! metrics off produce bitwise-identical responses, Ω stores, and
//! posteriors.
//!
//! When constructed disabled, every recording entry point returns before
//! touching an atomic, so the disabled service pays one predictable
//! branch per instrumentation site.

use crate::lifecycle::{KeyState, TransitionSink};
use crate::protocol::VERBS;
use crate::service::ServiceTotals;
use crate::wire::Codec;
use obs::{Clock, Counter, Gauge, Histogram, MetricsSnapshot, TraceEntry, TraceRing};
use std::sync::Arc;

/// Default bound on the structured event trace (events, not bytes).
/// Overridable via `OPTRR_SERVE_TRACE_CAP`; 0 disables tracing while
/// keeping counters and histograms live.
pub const DEFAULT_TRACE_CAP: usize = 1024;

/// One structured event in the serve trace. Each variant carries the
/// key it concerns (when it concerns one) plus the numbers an operator
/// needs to reconstruct *why* the event fired — the trace is the
/// narrative companion to the counters.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A per-key lifecycle transition that won its compare-exchange
    /// (lost claims emit nothing; see [`TransitionSink`]).
    Transition {
        /// Canonical fingerprint of the key.
        key: u64,
        /// State before the transition.
        from: KeyState,
        /// State after the transition.
        to: KeyState,
    },
    /// A refresh engine run finished on the worker pool.
    RefreshRun {
        /// Canonical fingerprint of the key.
        key: u64,
        /// The run's claim index (0 is the warm-up run).
        run_index: u64,
        /// Generations the engine actually executed.
        generations: u64,
        /// Objective evaluations performed.
        evaluations: u64,
        /// Unordered pairs the engine's fitness kernel compared.
        pairs_computed: u64,
        /// Whether the run's Ω landed (`false` when the run failed).
        landed: bool,
    },
    /// One engine generation inside a refresh run, forwarded from the
    /// core optimizer's generation observer.
    Generation {
        /// Canonical fingerprint of the key.
        key: u64,
        /// Generation index within the run.
        generation: u64,
        /// Archive size after the generation.
        archive: u64,
        /// Cumulative objective evaluations after the generation.
        evaluations: u64,
        /// Whether the generation improved Ω.
        improved: bool,
    },
    /// An estimate drifted beyond the configured MSE threshold.
    Drift {
        /// Canonical fingerprint of the key.
        key: u64,
        /// The estimate's MSE against the registered prior.
        mse: f64,
    },
    /// Coverage misses crossed the re-optimization threshold.
    CoverageTrip {
        /// Canonical fingerprint of the key.
        key: u64,
        /// Misses accumulated when the threshold tripped.
        misses: u64,
    },
    /// A key's resident state was dropped by the memory budget or TTL.
    Evicted {
        /// Canonical fingerprint of the key.
        key: u64,
        /// Approximate bytes freed.
        bytes_freed: u64,
    },
    /// An evicted key was re-warmed back to serving.
    Rewarmed {
        /// Canonical fingerprint of the key.
        key: u64,
    },
    /// An ingest batch landed on a key's accumulator.
    Ingest {
        /// Canonical fingerprint of the key.
        key: u64,
        /// Responses accepted from the batch.
        accepted: u64,
        /// Total responses accumulated after the batch.
        total: u64,
    },
    /// A `ColumnSamplers` alias-table set was built for a key's pinned
    /// matrix. Ingest reuses the pipeline's cached set, so per key this
    /// fires once per pin/restore — the counter this feeds is how the
    /// sampler-cache test proves the O(n²) rebuild is amortized.
    SamplerRebuild {
        /// Canonical fingerprint of the key.
        key: u64,
    },
    /// A snapshot of the registry was persisted.
    SnapshotSaved {
        /// Keys written to the snapshot.
        keys: u64,
    },
    /// A snapshot was loaded into the registry.
    SnapshotLoaded {
        /// Keys newly created by the load.
        created: u64,
        /// Keys merged into existing entries.
        merged: u64,
    },
    /// A refresh engine run failed: the optimizer returned an error or
    /// the run panicked (the panic is contained and converted into this
    /// structured event).
    RefreshFailed {
        /// Canonical fingerprint of the key.
        key: u64,
        /// The run's claim index at the time of the failure.
        run_index: u64,
        /// Consecutive failures in the current episode (compared against
        /// the fail budget).
        streak: u64,
        /// What went wrong, one line.
        reason: String,
    },
    /// A failed refresh was rescheduled with exponential backoff.
    RefreshRetry {
        /// Canonical fingerprint of the key.
        key: u64,
        /// Retry attempt number within the episode (1 = first retry).
        attempt: u64,
        /// Backoff delay before the retry runs, in milliseconds.
        delay_ms: u64,
    },
    /// A key exhausted its refresh fail budget and entered `Degraded`:
    /// it keeps serving its last-good Ω with a `degraded` response flag
    /// until a later successful run restores `Warm`.
    Degraded {
        /// Canonical fingerprint of the key.
        key: u64,
        /// Consecutive failures that exhausted the budget.
        failures: u64,
    },
    /// A snapshot file failed to load: corrupt or torn content
    /// (checksum/length mismatch), a payload that does not decode, or a
    /// key whose shape does not fit its registration. `Load` installs
    /// nothing and answers `snapshot_corrupt`; this event is what makes
    /// the refusal visible in the metrics.
    SnapshotLoadFailed {
        /// Path of the file that failed to load.
        path: String,
        /// What went wrong, one line.
        reason: String,
    },
}

impl ServeEvent {
    /// A stable machine-readable tag for the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEvent::Transition { .. } => "transition",
            ServeEvent::RefreshRun { .. } => "refresh_run",
            ServeEvent::Generation { .. } => "generation",
            ServeEvent::Drift { .. } => "drift",
            ServeEvent::CoverageTrip { .. } => "coverage_trip",
            ServeEvent::Evicted { .. } => "evicted",
            ServeEvent::Rewarmed { .. } => "rewarmed",
            ServeEvent::Ingest { .. } => "ingest",
            ServeEvent::SamplerRebuild { .. } => "sampler_rebuild",
            ServeEvent::SnapshotSaved { .. } => "snapshot_saved",
            ServeEvent::SnapshotLoaded { .. } => "snapshot_loaded",
            ServeEvent::RefreshFailed { .. } => "refresh_failed",
            ServeEvent::RefreshRetry { .. } => "refresh_retry",
            ServeEvent::Degraded { .. } => "degraded",
            ServeEvent::SnapshotLoadFailed { .. } => "snapshot_load_failed",
        }
    }

    /// The key the event concerns, when it concerns one.
    pub fn key(&self) -> Option<u64> {
        match self {
            ServeEvent::Transition { key, .. }
            | ServeEvent::RefreshRun { key, .. }
            | ServeEvent::Generation { key, .. }
            | ServeEvent::Drift { key, .. }
            | ServeEvent::CoverageTrip { key, .. }
            | ServeEvent::Evicted { key, .. }
            | ServeEvent::Rewarmed { key }
            | ServeEvent::Ingest { key, .. }
            | ServeEvent::SamplerRebuild { key }
            | ServeEvent::RefreshFailed { key, .. }
            | ServeEvent::RefreshRetry { key, .. }
            | ServeEvent::Degraded { key, .. } => Some(*key),
            ServeEvent::SnapshotSaved { .. }
            | ServeEvent::SnapshotLoaded { .. }
            | ServeEvent::SnapshotLoadFailed { .. } => None,
        }
    }

    /// A one-line human-readable rendering of the payload (the `Trace`
    /// verb ships this beside the machine-readable `kind`/`key`).
    pub fn detail(&self) -> String {
        match self {
            ServeEvent::Transition { from, to, .. } => format!("{from} -> {to}"),
            ServeEvent::RefreshRun {
                run_index,
                generations,
                evaluations,
                pairs_computed,
                landed,
                ..
            } => format!(
                "run {run_index}: {generations} generations, {evaluations} evaluations, \
                 {pairs_computed} pairs computed, {}",
                if *landed { "landed" } else { "failed" }
            ),
            ServeEvent::Generation {
                generation,
                archive,
                evaluations,
                improved,
                ..
            } => format!(
                "generation {generation}: archive {archive}, {evaluations} evaluations{}",
                if *improved { ", omega improved" } else { "" }
            ),
            ServeEvent::Drift { mse, .. } => format!("estimate drifted, mse {mse:.6}"),
            ServeEvent::CoverageTrip { misses, .. } => {
                format!("coverage misses tripped at {misses}")
            }
            ServeEvent::Evicted { bytes_freed, .. } => {
                format!("evicted, ~{bytes_freed} bytes freed")
            }
            ServeEvent::Rewarmed { .. } => "re-warmed after eviction".to_string(),
            ServeEvent::Ingest {
                accepted, total, ..
            } => format!("batch of {accepted} accepted, {total} total"),
            ServeEvent::SamplerRebuild { .. } => "alias tables built for pinned matrix".to_string(),
            ServeEvent::SnapshotSaved { keys } => format!("{keys} keys saved"),
            ServeEvent::SnapshotLoaded { created, merged } => {
                format!("{created} keys created, {merged} merged")
            }
            ServeEvent::RefreshFailed {
                run_index,
                streak,
                reason,
                ..
            } => format!("run {run_index} failed (streak {streak}): {reason}"),
            ServeEvent::RefreshRetry {
                attempt, delay_ms, ..
            } => format!("retry {attempt} scheduled after {delay_ms} ms backoff"),
            ServeEvent::Degraded { failures, .. } => {
                format!("degraded after {failures} consecutive refresh failures")
            }
            ServeEvent::SnapshotLoadFailed { path, reason } => {
                format!("failed to load {path}: {reason}")
            }
        }
    }
}

/// Declares a struct of metrics of one type, one field per metric with
/// the name it is read out under, and `read`, which lists them.
macro_rules! metric_slots {
    ($(#[$doc:meta])* struct $slots:ident of $metric:ty { $($field:ident: $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        struct $slots {
            $($field: $metric,)*
        }

        impl $slots {
            /// Every metric's name and current value, name-sorted.
            fn read(&self) -> Vec<(String, u64)> {
                let mut named = vec![$(($name.to_string(), self.$field.get())),*];
                named.sort();
                named
            }
        }
    };
}

metric_slots! {
    /// Every counter. The hub counts events ([`ServeObs::emit`]),
    /// coverage misses and transport totals as they happen. The view
    /// counters, `queries` through `refresh_retries`, have a per-key store
    /// only, and each `Metrics` readout publishes their sums
    /// ([`ServeObs::publish_totals`]).
    struct Counters of Counter {
        transitions: "serve_transitions_total",
        refresh_runs: "serve_refresh_runs_total",
        generations: "serve_engine_generations_total",
        drift_trips: "serve_drift_trips_total",
        coverage_trips: "serve_coverage_trips_total",
        ingest_batches: "serve_ingest_batches_total",
        ingest_records: "serve_ingest_records_total",
        sampler_rebuilds: "serve_sampler_rebuilds_total",
        snapshot_saves: "serve_snapshot_saves_total",
        snapshot_loads: "serve_snapshot_loads_total",
        degraded: "serve_degraded_total",
        snapshot_load_failures: "serve_snapshot_load_failures_total",
        coverage_misses: "serve_coverage_misses_total",
        net_conns: "serve_net_conns_total",
        net_conn_errors: "serve_net_conn_errors_total",
        net_bytes_in: "serve_net_bytes_in_total",
        net_bytes_out: "serve_net_bytes_out_total",
        queries: "serve_queries_total",
        warm_hits: "serve_warm_hits_total",
        evictions: "serve_evictions_total",
        rewarms: "serve_rewarms_total",
        refresh_failures: "serve_refresh_failures_total",
        refresh_retries: "serve_refresh_retries_total",
    }
}

metric_slots! {
    /// Every gauge: live socket sessions, counted as they open and
    /// close, and the totals a `Metrics` readout publishes.
    struct Gauges of Gauge {
        connections_active: "serve_connections_active",
        registered_keys: "serve_registered_keys",
        resident_bytes: "serve_resident_bytes",
        worker_jobs_submitted: "serve_worker_jobs_submitted",
        worker_jobs_executed: "serve_worker_jobs_executed",
        worker_jobs_panicked: "serve_worker_jobs_panicked",
    }
}

/// The codecs a served verb's latency is recorded under, one column of
/// [`ServeObs`]'s latency table each.
const CODECS: [Codec; 2] = [Codec::Json, Codec::Binary];

/// The service's observability hub: every counter, gauge and latency
/// histogram in a fixed field, and the bounded event trace, behind one
/// enabled flag and one injectable clock. Metric names exist only at
/// readout ([`ServeObs::metrics_snapshot`]).
#[derive(Debug)]
pub struct ServeObs {
    enabled: bool,
    clock: Arc<dyn Clock>,
    trace: TraceRing<ServeEvent>,
    counters: Counters,
    gauges: Gauges,
    /// Served-verb latencies, indexed like [`VERBS`] × [`CODECS`].
    verb_latency: [[Histogram; CODECS.len()]; VERBS.len()],
}

impl ServeObs {
    /// Builds the hub. `enabled = false` turns every recording entry
    /// point into a branch-and-return; `trace_cap = 0` disables the
    /// event trace while keeping counters and histograms live.
    pub fn new(enabled: bool, trace_cap: usize, clock: Arc<dyn Clock>) -> Self {
        Self {
            enabled,
            trace: TraceRing::new(if enabled { trace_cap } else { 0 }, Arc::clone(&clock)),
            clock,
            counters: Counters::default(),
            gauges: Gauges::default(),
            verb_latency: Default::default(),
        }
    }

    /// Whether recording is on. The hot paths branch on this before
    /// touching any atomic.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The hub's clock (nanoseconds; injectable for deterministic
    /// traces under test).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The configured trace capacity (0 when tracing is off).
    pub fn trace_capacity(&self) -> usize {
        self.trace.capacity()
    }

    /// Records one structured event: bumps the variant's total, when it
    /// has one the hub stores, and appends to the trace ring. `Evicted`,
    /// `Rewarmed`, `RefreshFailed` and `RefreshRetry` are trace-only:
    /// their totals are view counters.
    pub fn emit(&self, event: ServeEvent) {
        if !self.enabled {
            return;
        }
        match &event {
            ServeEvent::Transition { .. } => self.counters.transitions.inc(),
            ServeEvent::RefreshRun { .. } => self.counters.refresh_runs.inc(),
            ServeEvent::Generation { .. } => self.counters.generations.inc(),
            ServeEvent::Drift { .. } => self.counters.drift_trips.inc(),
            ServeEvent::CoverageTrip { .. } => self.counters.coverage_trips.inc(),
            ServeEvent::Ingest { accepted, .. } => {
                self.counters.ingest_batches.inc();
                self.counters.ingest_records.add(*accepted);
            }
            ServeEvent::SamplerRebuild { .. } => self.counters.sampler_rebuilds.inc(),
            ServeEvent::SnapshotSaved { .. } => self.counters.snapshot_saves.inc(),
            ServeEvent::SnapshotLoaded { .. } => self.counters.snapshot_loads.inc(),
            ServeEvent::Degraded { .. } => self.counters.degraded.inc(),
            ServeEvent::SnapshotLoadFailed { .. } => self.counters.snapshot_load_failures.inc(),
            ServeEvent::Evicted { .. }
            | ServeEvent::Rewarmed { .. }
            | ServeEvent::RefreshFailed { .. }
            | ServeEvent::RefreshRetry { .. } => {}
        }
        self.trace.push(event);
    }

    /// Counts one coverage miss (threshold trips emit a
    /// [`ServeEvent::CoverageTrip`] separately).
    pub fn count_coverage_miss(&self) {
        if self.enabled {
            self.counters.coverage_misses.inc();
        }
    }

    /// Records nothing: a verb is recorded once, by
    /// [`ServeObs::record_net_verb`], and `serve_verb_<verb>_latency_ns`
    /// is read out from its codec rows. Kept so a caller that records a
    /// verb both ways (the benchmark's telemetry rung) pays what a
    /// session pays.
    pub fn record_verb(&self, _verb: &str, _nanos: u64) {}

    /// Counts one accepted network connection
    /// (`serve_net_conns_total`).
    pub fn count_net_conn(&self) {
        if self.enabled {
            self.counters.net_conns.inc();
        }
    }

    /// Counts one session (stdio or socket) that ended on a transport
    /// error — a torn or oversized frame, a failed checksum, an abrupt
    /// client disconnect (`serve_net_conn_errors_total`).
    pub fn count_net_conn_error(&self) {
        if self.enabled {
            self.counters.net_conn_errors.inc();
        }
    }

    /// Adds request bytes a session read, on any transport
    /// (`serve_net_bytes_in_total`).
    pub fn add_net_bytes_in(&self, bytes: u64) {
        if self.enabled {
            self.counters.net_bytes_in.add(bytes);
        }
    }

    /// Adds response bytes a session emitted, on any transport
    /// (`serve_net_bytes_out_total`).
    pub fn add_net_bytes_out(&self, bytes: u64) {
        if self.enabled {
            self.counters.net_bytes_out.add(bytes);
        }
    }

    /// Counts one socket session opened on the
    /// `serve_connections_active` gauge. Opens add and closes subtract,
    /// so the gauge is exact however concurrent sessions interleave.
    pub fn connection_opened(&self) {
        if self.enabled {
            self.gauges.connections_active.inc();
        }
    }

    /// Counts one socket session closed (see
    /// [`ServeObs::connection_opened`]).
    pub fn connection_closed(&self) {
        if self.enabled {
            self.gauges.connections_active.dec();
        }
    }

    /// Records one served verb's latency, once, into its verb × codec
    /// histogram (`serve_net_verb_<verb>_<codec>_latency_ns`; stdio is
    /// `json`). `verb` is one of [`VERBS`] and `codec` a
    /// [`Codec::label`]; a name outside those lists has no histogram and
    /// records nothing.
    pub fn record_net_verb(&self, verb: &str, codec: &str, nanos: u64) {
        if !self.enabled {
            return;
        }
        let row = VERBS.iter().position(|v| *v == verb);
        let column = CODECS.iter().position(|c| c.label() == codec);
        if let (Some(row), Some(column)) = (row, column) {
            self.verb_latency[row][column].record(nanos);
        }
    }

    /// Publishes the service totals read at a `Metrics` readout: the
    /// registered-keys, resident-bytes and worker-pool gauges, and the
    /// view counters. The counters keep their `counter` type: each is a
    /// sum of per-key counters that only ever grow.
    pub fn publish_totals(&self, totals: &ServiceTotals) {
        if !self.enabled {
            return;
        }
        let (g, c) = (&self.gauges, &self.counters);
        g.registered_keys.set(totals.keys as u64);
        g.resident_bytes.set(totals.resident_bytes);
        g.worker_jobs_submitted.set(totals.jobs_submitted);
        g.worker_jobs_executed.set(totals.jobs_executed);
        g.worker_jobs_panicked.set(totals.jobs_panicked);
        c.queries.set(totals.queries);
        c.warm_hits.set(totals.warm_hits);
        c.evictions.set(totals.evictions);
        c.rewarms.set(totals.rewarms);
        c.refresh_failures.set(totals.refresh_failures);
        c.refresh_retries.set(totals.retries);
    }

    /// A per-key lifecycle sink for
    /// [`crate::registry::Registry::insert_or_get_observed`]: every won
    /// compare-exchange becomes a [`ServeEvent::Transition`]. `None`
    /// when recording is off, so disabled services attach no hook at
    /// all.
    pub fn transition_sink(self: &Arc<Self>, key: u64) -> Option<TransitionSink> {
        if !self.enabled {
            return None;
        }
        let hub = Arc::clone(self);
        Some(Arc::new(move |from, to| {
            hub.emit(ServeEvent::Transition { key, from, to });
        }))
    }

    /// A generation hook for the core optimizer: per-generation engine
    /// snapshots become [`ServeEvent::Generation`] trace events during
    /// refresh runs. `None` when recording is off, so disabled services
    /// run the engine with no observer attached.
    pub fn generation_observer(self: &Arc<Self>, key: u64) -> Option<optrr::GenerationObserver> {
        if !self.enabled {
            return None;
        }
        let hub = Arc::clone(self);
        Some(Arc::new(move |g: &optrr::GenerationObservation| {
            hub.emit(ServeEvent::Generation {
                key,
                generation: g.generation as u64,
                archive: g.archive_size as u64,
                evaluations: g.evaluations as u64,
                improved: g.omega_improved,
            });
        }))
    }

    /// A point-in-time copy of every metric, each list name-sorted: every
    /// counter; every gauge when recording is on (none when it is off);
    /// and every latency histogram that has recorded something. Each
    /// verb lists its per-codec histograms and
    /// `serve_verb_<verb>_latency_ns`, the sum of its codec rows.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut histograms = Vec::new();
        for (verb, row) in VERBS.iter().zip(&self.verb_latency) {
            for (codec, histogram) in CODECS.iter().zip(row) {
                let name = format!("serve_net_verb_{verb}_{}_latency_ns", codec.label());
                histograms.push(histogram.snapshot(&name));
            }
            let name = format!("serve_verb_{verb}_latency_ns");
            histograms.push(Histogram::snapshot_merged(&name, row));
        }
        histograms.retain(|h| h.count > 0);
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters: self.counters.read(),
            // A disabled hub publishes no gauge, so it lists none.
            gauges: if self.enabled {
                self.gauges.read()
            } else {
                Vec::new()
            },
            histograms,
        }
    }

    /// The newest `limit` trace entries (all when `None`) plus how many
    /// older events the ring discarded.
    pub fn trace_snapshot(&self, limit: Option<usize>) -> (Vec<TraceEntry<ServeEvent>>, u64) {
        self.trace.snapshot(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::StaleReason;
    use obs::ManualClock;

    fn hub(enabled: bool) -> Arc<ServeObs> {
        Arc::new(ServeObs::new(enabled, 8, Arc::new(ManualClock::new(0))))
    }

    #[test]
    fn emit_bumps_the_matching_total_and_traces() {
        let hub = hub(true);
        hub.emit(ServeEvent::Transition {
            key: 7,
            from: KeyState::Cold,
            to: KeyState::Warming,
        });
        hub.emit(ServeEvent::Ingest {
            key: 7,
            accepted: 5,
            total: 5,
        });
        hub.emit(ServeEvent::Drift { key: 7, mse: 0.25 });
        let snap = hub.metrics_snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        assert_eq!(counter("serve_transitions_total"), 1);
        assert_eq!(counter("serve_ingest_batches_total"), 1);
        assert_eq!(counter("serve_ingest_records_total"), 5);
        assert_eq!(counter("serve_drift_trips_total"), 1);
        let (entries, dropped) = hub.trace_snapshot(None);
        assert_eq!(dropped, 0);
        let kinds: Vec<&str> = entries.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, vec!["transition", "ingest", "drift"]);
        assert_eq!(entries[0].event.key(), Some(7));
        assert_eq!(entries[0].event.detail(), "cold -> warming");
    }

    #[test]
    fn disabled_hub_records_nothing_and_hands_out_no_hooks() {
        let hub = hub(false);
        hub.emit(ServeEvent::Rewarmed { key: 1 });
        hub.count_coverage_miss();
        hub.record_net_verb("estimate", "json", 125);
        hub.publish_totals(&ServiceTotals {
            keys: 1,
            queries: 4,
            warm_hits: 3,
            ..ServiceTotals::default()
        });
        let snap = hub.metrics_snapshot();
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(hub.trace_snapshot(None).0.is_empty());
        assert!(hub.transition_sink(1).is_none());
        assert!(hub.generation_observer(1).is_none());
        assert_eq!(hub.trace_capacity(), 0);
    }

    #[test]
    fn verb_histograms_register_per_verb_and_record() {
        let hub = hub(true);
        hub.record_net_verb("estimate", "json", 100);
        hub.record_net_verb("estimate", "binary", 200);
        hub.record_net_verb("estimate", "json", 300);
        hub.record_net_verb("sync", "binary", 50);
        // `record_verb` records nothing, and names outside the catalogue
        // have no slot.
        hub.record_verb("estimate", 7);
        hub.record_net_verb("no_such_verb", "json", 1);
        hub.record_net_verb("sync", "no_such_codec", 1);
        let snap = hub.metrics_snapshot();
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serve_net_verb_estimate_binary_latency_ns",
                "serve_net_verb_estimate_json_latency_ns",
                "serve_net_verb_sync_binary_latency_ns",
                "serve_verb_estimate_latency_ns",
                "serve_verb_sync_latency_ns",
            ]
        );
        let counts: Vec<u64> = snap.histograms.iter().map(|h| h.count).collect();
        assert_eq!(counts, vec![1, 2, 1, 3, 1]);
        let merged = &snap.histograms[3];
        assert_eq!((merged.sum, merged.max), (600, 300));
        // The merged row is what recording every value into one
        // histogram gives.
        let whole = Histogram::new();
        for value in [100, 200, 300] {
            whole.record(value);
        }
        assert_eq!(*merged, whole.snapshot("serve_verb_estimate_latency_ns"));
    }

    #[test]
    fn transition_sink_and_observer_emit_keyed_events() {
        let hub = hub(true);
        let sink = hub.transition_sink(42).expect("sink when enabled");
        sink(KeyState::Warm, KeyState::Stale(StaleReason::Drift));
        let observer = hub.generation_observer(42).expect("observer when enabled");
        observer(&optrr::GenerationObservation {
            generation: 3,
            archive_size: 10,
            population_size: 20,
            evaluations: 60,
            omega_improved: true,
        });
        let (entries, _) = hub.trace_snapshot(None);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].event.kind(), "transition");
        assert_eq!(entries[0].event.key(), Some(42));
        assert_eq!(entries[1].event.kind(), "generation");
        assert!(entries[1].event.detail().contains("omega improved"));
    }

    #[test]
    fn every_event_kind_renders_a_detail_line() {
        let events = [
            ServeEvent::Transition {
                key: 1,
                from: KeyState::Cold,
                to: KeyState::Warming,
            },
            ServeEvent::RefreshRun {
                key: 1,
                run_index: 2,
                generations: 30,
                evaluations: 900,
                pairs_computed: 400,
                landed: true,
            },
            ServeEvent::Generation {
                key: 1,
                generation: 0,
                archive: 5,
                evaluations: 30,
                improved: false,
            },
            ServeEvent::Drift { key: 1, mse: 0.5 },
            ServeEvent::CoverageTrip { key: 1, misses: 8 },
            ServeEvent::Evicted {
                key: 1,
                bytes_freed: 1024,
            },
            ServeEvent::Rewarmed { key: 1 },
            ServeEvent::Ingest {
                key: 1,
                accepted: 3,
                total: 9,
            },
            ServeEvent::SamplerRebuild { key: 1 },
            ServeEvent::SnapshotSaved { keys: 2 },
            ServeEvent::SnapshotLoaded {
                created: 1,
                merged: 1,
            },
            ServeEvent::RefreshFailed {
                key: 1,
                run_index: 3,
                streak: 2,
                reason: "injected refresh panic".to_string(),
            },
            ServeEvent::RefreshRetry {
                key: 1,
                attempt: 2,
                delay_ms: 50,
            },
            ServeEvent::Degraded {
                key: 1,
                failures: 3,
            },
            ServeEvent::SnapshotLoadFailed {
                path: "snap.json".to_string(),
                reason: "checksum mismatch".to_string(),
            },
        ];
        for event in &events {
            assert!(!event.kind().is_empty());
            assert!(!event.detail().is_empty(), "{:?}", event);
        }
        assert_eq!(events[9].key(), None);
        assert_eq!(events[10].key(), None);
        assert_eq!(events[11].key(), Some(1), "failures carry the key");
        assert_eq!(events[14].key(), None, "load failures carry only a path");
    }

    #[test]
    fn net_counters_gauge_and_per_codec_histograms_record() {
        let hub = hub(true);
        hub.count_net_conn();
        hub.count_net_conn();
        hub.count_net_conn_error();
        hub.add_net_bytes_in(128);
        hub.add_net_bytes_out(512);
        hub.connection_opened();
        hub.connection_opened();
        hub.connection_opened();
        hub.connection_closed();
        hub.record_net_verb("ingest", "binary", 1_000);
        hub.record_net_verb("ingest", "json", 3_000);
        hub.record_net_verb("best_for_privacy", "binary", 500);
        let snap = hub.metrics_snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        assert_eq!(counter("serve_net_conns_total"), 2);
        assert_eq!(counter("serve_net_conn_errors_total"), 1);
        assert_eq!(counter("serve_net_bytes_in_total"), 128);
        assert_eq!(counter("serve_net_bytes_out_total"), 512);
        let gauge = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "serve_connections_active")
            .map(|(_, v)| *v);
        assert_eq!(gauge, Some(2));
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert!(names.contains(&"serve_net_verb_ingest_binary_latency_ns"));
        assert!(names.contains(&"serve_net_verb_ingest_json_latency_ns"));
        assert!(names.contains(&"serve_net_verb_best_for_privacy_binary_latency_ns"));

        // Disabled hubs record none of it.
        let quiet = hub_disabled();
        quiet.count_net_conn();
        quiet.add_net_bytes_in(1);
        quiet.connection_opened();
        quiet.record_net_verb("ingest", "binary", 1);
        let snap = quiet.metrics_snapshot();
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert!(snap
            .gauges
            .iter()
            .all(|(n, _)| n != "serve_connections_active"));
        assert!(snap.histograms.is_empty());
    }

    fn hub_disabled() -> Arc<ServeObs> {
        hub(false)
    }

    #[test]
    fn failure_events_bump_their_dedicated_counters() {
        // Degradations and snapshot load failures are counted by their
        // events; refresh failures and retries are view counters, which
        // their events leave alone and a `Metrics` readout publishes from
        // the per-key totals.
        let hub = hub(true);
        hub.emit(ServeEvent::RefreshFailed {
            key: 5,
            run_index: 1,
            streak: 1,
            reason: "optimizer error".to_string(),
        });
        hub.emit(ServeEvent::RefreshRetry {
            key: 5,
            attempt: 1,
            delay_ms: 25,
        });
        hub.emit(ServeEvent::Degraded {
            key: 5,
            failures: 3,
        });
        hub.emit(ServeEvent::SnapshotLoadFailed {
            path: "x.json".to_string(),
            reason: "torn".to_string(),
        });
        let counter = |name: &str| {
            hub.metrics_snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        assert_eq!(counter("serve_refresh_failures_total"), 0);
        assert_eq!(counter("serve_refresh_retries_total"), 0);
        assert_eq!(counter("serve_degraded_total"), 1);
        assert_eq!(counter("serve_snapshot_load_failures_total"), 1);
        hub.publish_totals(&ServiceTotals {
            refresh_failures: 1,
            retries: 1,
            ..ServiceTotals::default()
        });
        assert_eq!(counter("serve_refresh_failures_total"), 1);
        assert_eq!(counter("serve_refresh_retries_total"), 1);
        let (entries, _) = hub.trace_snapshot(None);
        let kinds: Vec<&str> = entries.iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "refresh_failed",
                "refresh_retry",
                "degraded",
                "snapshot_load_failed"
            ]
        );
    }
}
