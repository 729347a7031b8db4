//! # optrr-serve
//!
//! The matrix-serving subsystem: the paper's end product is the optimal
//! set Ω of Pareto-optimal randomized-response matrices that a data
//! collector consults ("give me the best matrix with privacy ≥ p") before
//! disguising user data. This crate turns the batch optimizer into that
//! long-lived service:
//!
//! * [`lifecycle`] — the per-key tenant state machine
//!   (`Cold → Warming → Warm → Stale(reason) → Refreshing → Evicted`,
//!   plus `Degraded` for keys whose refreshes exhaust the fail budget):
//!   every transition is a compare-exchange, so exactly-once warm-ups,
//!   refresh claims, and re-warms are properties of the type. It owns all
//!   per-key state — warm store, pinned pipeline, run counter, run log,
//!   job queue, byte accounting, drift/coverage telemetry.
//! * [`registry`] — the fingerprint-keyed map over those lifecycles
//!   ([`optrr::omega_fingerprint`] is the key), plus the LRU scan the
//!   memory budget evicts by.
//! * [`shard`] — [`WarmStore`]: a key's warm Ω, one [`optrr::OmegaSet`]
//!   behind one read-write lock. Queries read it; a landed run or a
//!   snapshot install absorbs into it; eviction clears it.
//! * [`worker`] — the fixed worker pool that executes engine runs for cold
//!   or stale keys in the background.
//! * [`protocol`] — the framed JSON request/response protocol (one frame
//!   per line) spoken by the `serve` binary over stdin/stdout and sockets.
//! * `session` (crate-private) — the one request loop that stdio
//!   ([`Service::run_loop`]) and every socket session run, and the frame
//!   readers it shares with [`NetClient`]: one framing rule everywhere.
//! * [`service`] — [`Service`]: the front door tying the pieces together:
//!   configuration, one admission path for every registration (the
//!   multi-prior batch included: each cold key's warm-up is one job on
//!   the worker pool, like a solo warm-up), and the query methods. The
//!   rest of `impl Service` sits in three crate-private modules:
//!   `refresh` (the per-key job queue and the one job — run claim,
//!   replay of an evicted key's logged runs, engine run, the one landing
//!   path, retry/backoff/degrade, and the memory budget that evicts
//!   least-recently-touched keys, which re-warm transparently on their
//!   next query), `persist` (crash-safe snapshot files, all-or-nothing
//!   `Save`/`Load` covering ingest accumulators, posteriors and run
//!   logs, and the one installer of a persisted key), and `dispatch`
//!   ([`Service::handle`]).
//! * [`counts`] — [`IngestCounts`]: a key's accumulator of disguised
//!   response batches, one `stats::CountSet` behind one lock.
//! * [`pipeline`] — the streaming disguise + estimation pipeline
//!   (`optrr-pipeline`): `Ingest` disguises raw responses server-side
//!   through the matrix pinned per key, `Estimate` reconstructs the
//!   original distribution (inversion with automatic iterative fallback,
//!   warm-started between estimates). Estimation drift beyond the
//!   configured MSE threshold — and point queries landing in uncovered
//!   privacy ranges — mark the key stale, and the scheduled refresh
//!   re-optimizes against the *estimated* posterior instead of the
//!   registered prior.
//! * [`telemetry`] — [`ServeObs`]: the service-wide observability hub
//!   built on `optrr-obs` — per-verb latency histograms, lifecycle
//!   counters, and a bounded ring of structured [`ServeEvent`]s
//!   (transitions, refresh runs, engine generations, drift/coverage
//!   trips, evictions, ingest batches, snapshot I/O), exposed through
//!   the `Metrics`/`Trace` protocol verbs and a Prometheus-style text
//!   rendering. Recording-only by construction: responses, Ω, and
//!   posteriors are bitwise-identical with metrics on or off.
//! * [`mod@env`] — validated `OPTRR_SERVE_*` environment configuration for
//!   the binary (bad values abort startup instead of silently
//!   defaulting).
//! * [`net`] — the network front door: TCP + Unix-domain socket sessions
//!   over one shared [`Service`] — a bounded connection pool fed by a
//!   nonblocking accept loop, one thread per connection writing through a
//!   bounded response buffer that is flushed before each socket read
//!   (pipelining in request order, backpressure against slow readers),
//!   codec negotiation by connection preamble, and graceful drain on
//!   `Shutdown`. A torn frame closes its own session with a typed
//!   `transport` error and never touches shared state.
//! * [`wire`] — `OPTRR-WIRE v1`, the length-prefixed binary frame codec
//!   (u32 length · verb tag · CRC32) for the hot verbs:
//!   column-major matrices and raw-record ingest batches cross the wire
//!   as `f64` bits with no float→decimal→float round trip, while every
//!   other verb rides a JSON-escape frame. Binary sessions stay
//!   bitwise-deterministic against JSON sessions.
//! * [`faults`] — deterministic fault injection for chaos-testing the
//!   stack: `OPTRR_SERVE_FAULTS` compiles into a seeded [`FaultInjector`]
//!   that can fail or tear snapshot I/O, panic refresh runs, and stall
//!   workers, every verdict a pure hash of the seed so chaos runs replay
//!   bit-for-bit. The service absorbs those faults instead of dying:
//!   snapshot writes are atomic (tmp → fsync → rename) under a
//!   version+checksum header, corrupt or torn files fall back to the
//!   previous generation or deterministic replay, failed refreshes retry
//!   with bounded exponential backoff, and a key that exhausts
//!   `OPTRR_SERVE_FAIL_BUDGET` consecutive failures degrades gracefully —
//!   serving its last-good warm Ω flagged `degraded: true` until a later
//!   refresh lands and restores it to `Warm`.
//!
//! Point queries never run the optimizer: after a key's warm-up they are
//! answered from the warm store in O(slots) under its read lock, and the
//! end-to-end tests assert the engine-run counters stay put. Warm-up and
//! refresh runs are deterministic — run `i` of a key uses `base seed + i`
//! and warm-starts from run `i − 1`'s archive once it resolved — so a
//! served front is bitwise-reproducible against a plain optimizer call,
//! and an evicted key's replay against its live runs.
//!
//! ## Example
//!
//! ```
//! use serve::{Service, ServiceConfig};
//! use std::sync::Arc;
//!
//! let service = Arc::new(Service::new(ServiceConfig::smoke(7)));
//! let entry = service
//!     .register(Some("demo"), &[0.4, 0.3, 0.2, 0.1], 0.85, Some(100), true)
//!     .unwrap();
//! // Warm store: point queries are O(slots), no engine involved.
//! let pick = service.best_for_privacy(&entry, 0.05);
//! assert!(pick.is_some());
//! assert_eq!(entry.engine_runs(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
mod dispatch;
pub mod env;
pub mod faults;
pub mod lifecycle;
pub mod net;
mod persist;
pub mod pipeline;
pub mod protocol;
mod refresh;
pub mod registry;
pub mod service;
mod session;
pub mod shard;
pub mod telemetry;
pub mod wire;
pub mod worker;

pub use counts::IngestCounts;
pub use faults::{FaultInjector, FaultPlan};
pub use lifecycle::{KeyLifecycle, KeyState, StaleReason, StateCell};
pub use net::{ListenAddr, NetClient, NetConfig, NetServer};
pub use pipeline::{
    payload_seed, EstimateMethod, EstimateOutcome, IngestOutcome, KeyPipeline, PipelineSnapshot,
};
pub use protocol::{EstimateDto, KeyStatsDto, MatrixDto, Request, Response};
pub use registry::{KeyEntry, Registry};
pub use service::{
    KeySnapshot, ServeError, Service, ServiceConfig, ServiceSnapshot, ServiceTotals,
    MAX_OMEGA_SLOTS, MAX_REFRESH_RUNS, REFRESH_TARGET_BLEND,
};
pub use shard::WarmStore;
pub use telemetry::{ServeEvent, ServeObs, DEFAULT_TRACE_CAP};
pub use wire::{Codec, WireError};
pub use worker::WorkerPool;
