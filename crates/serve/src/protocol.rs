//! The framed JSON request/response protocol of the serving front door.
//!
//! Transport is line-oriented: one JSON-encoded [`Request`] per input line,
//! one JSON-encoded [`Response`] per output line, in order. The encoding is
//! serde's external tagging (unit variants are bare strings, struct
//! variants single-key objects), so a scripted session looks like:
//!
//! ```text
//! {"Register":{"name":"demo","prior":[0.4,0.3,0.2,0.1],"delta":0.8}}
//! {"BestForPrivacy":{"name":"demo","min_privacy":0.2}}
//! {"Front":{"name":"demo"}}
//! {"Stats":{}}
//! "Metrics"
//! {"Trace":{"limit":50}}
//! "Shutdown"
//! ```
//!
//! Lines are JSON (RFC 8259), written from and read straight into these
//! types by the vendored `serde` stand-in, with no value tree. The
//! reader holds to the RFC's grammar: a leading zero (`01`), a bare
//! point (`1.`), a raw control character in a string or a `\u` escape
//! that is not four hex digits makes a line `invalid_request`. A
//! struct's fields come in any order; the first occurrence of a key
//! wins, and duplicates and unknown keys are skipped (their syntax still
//! checked). A missing `Option` field is `None`, and any other missing
//! field is ``missing field `…` ``: a request without its `delta` or
//! `min_privacy` is `invalid_request`, while an explicit `null` float
//! reads as NaN (responses write non-finite floats as `null`). A line
//! nested deeper than [`serde::MAX_DEPTH`] arrays and objects is
//! rejected before it can exhaust a session thread's stack. An escaped
//! UTF-16 surrogate pair reads as the one character it encodes; a lone
//! surrogate reads as U+FFFD.
//!
//! `Metrics` reads out every counter, gauge, and per-verb latency
//! histogram (p50/p90/p99 in nanoseconds) plus a Prometheus-style text
//! rendering; `Trace` returns the newest entries of the bounded
//! structured event trace (lifecycle transitions, refresh runs, drift
//! and coverage trips, evictions, ingest batches, snapshot I/O). Both
//! are pure readouts: issuing them never changes how later requests are
//! answered, and a service running metrics-off answers them with
//! `enabled: false` and empty payloads.
//!
//! Every request that addresses a registered problem accepts either the
//! canonical `key` fingerprint (returned by `Register`) or the `name`
//! alias supplied at registration, so sessions can be scripted without
//! knowing fingerprints in advance.
//!
//! Over the network front door ([`crate::net`]) the same request and
//! response model can also cross as `OPTRR-WIRE v1` binary frames
//! ([`crate::wire`]): a connection whose first byte is the binary
//! preamble `0xB1` exchanges length-prefixed CRC-checked frames instead
//! of JSON lines — e.g. `Estimate { key: Some(9) }` becomes the 15-byte
//! frame `0f 00 00 00 · 03 · 01 09 00 00 00 00 00 00 00 · 00 ·
//! 88 0a 04 b1` (length · tag · payload · CRC32) instead of the
//! 20-byte line `{"Estimate":{"key":9}}`. Hot-verb floats cross as raw
//! `f64` bits, so either codec delivers bitwise-identical requests to
//! the service.

use optrr::{FrontPoint, OmegaEntry};
use rr::RrMatrix;
use serde::{Deserialize, Serialize};

/// A request line of the serving protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Register a prior under a privacy bound and warm its Ω. Blocks until
    /// warm unless `lazy` is set, in which case the warm-up is scheduled on
    /// the worker pool and queries will wait for it.
    Register {
        /// Optional human-readable alias for later requests.
        name: Option<String>,
        /// Category weights of the prior (normalized by the service).
        prior: Vec<f64>,
        /// Worst-case privacy bound δ in (0, 1].
        delta: f64,
        /// Ω resolution; the service default when omitted.
        slots: Option<usize>,
        /// Schedule the warm-up instead of waiting for it.
        lazy: Option<bool>,
    },
    /// Register many priors under one δ and wait until all are warm (the
    /// multi-prior batch front door); each cold key's warm-up is one
    /// worker-pool job.
    RegisterBatch {
        /// Optional aliases, one per prior, positionally matched.
        names: Option<Vec<String>>,
        /// One weight vector per prior.
        priors: Vec<Vec<f64>>,
        /// Worst-case privacy bound δ shared by the batch.
        delta: f64,
        /// Ω resolution; the service default when omitted.
        slots: Option<usize>,
    },
    /// The paper's Section III.C query: the best matrix with privacy ≥ p.
    BestForPrivacy {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
        /// The privacy floor p.
        min_privacy: f64,
    },
    /// The dual query: the best matrix with MSE ≤ m.
    BestForMse {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
        /// The utility budget m.
        max_mse: f64,
    },
    /// The full Pareto front held in the warm store.
    Front {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
    },
    /// Stream one batch of categorical responses into a key's pipeline.
    /// Exactly one of `records` (raw original values, disguised
    /// server-side through the matrix pinned for the key) or `counts`
    /// (pre-counted responses already disguised client-side) must be set.
    Ingest {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
        /// Privacy floor used to pin the disguise matrix at the key's
        /// first ingest (0 when omitted); ignored afterwards.
        min_privacy: Option<f64>,
        /// Raw original category indices, disguised server-side.
        records: Option<Vec<usize>>,
        /// Pre-counted disguised responses, one count per category.
        counts: Option<Vec<u64>>,
        /// Disguise RNG seed; defaults to a payload fingerprint so equal
        /// batches disguise identically regardless of stream interleaving.
        seed: Option<u64>,
    },
    /// Stateless one-shot disguise: returns the records pushed through
    /// the best warm matrix for the privacy floor, accumulating nothing.
    Disguise {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
        /// Privacy floor selecting the matrix.
        min_privacy: f64,
        /// Raw original category indices.
        records: Vec<usize>,
        /// Disguise RNG seed; payload-fingerprint default when omitted.
        seed: Option<u64>,
    },
    /// Reconstruct the original distribution from a key's accumulated
    /// responses (inversion, with automatic iterative fallback).
    Estimate {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
    },
    /// Reconstruct the distribution of every key with accumulated
    /// responses, in ascending key order.
    EstimateAll,
    /// Snapshot every key's warm Ω (plus registration metadata) to a file
    /// so a restarted server can skip warm-up.
    Save {
        /// Path of the snapshot file to write.
        path: String,
    },
    /// Load a snapshot file, creating missing keys warm and merging into
    /// existing ones.
    Load {
        /// Path of the snapshot file to read.
        path: String,
    },
    /// Evict a key's Ω matrices and warm-start seeds if it is idle. The
    /// key stays registered and keeps its pinned pipeline (channel,
    /// counts, posterior) and run log, so `Estimate` goes on from the
    /// stream; its next query re-warms it transparently by replaying its
    /// logged engine runs, which lands the same Ω bit for bit.
    Evict {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
    },
    /// Mark a key stale and schedule refresh runs on the worker pool.
    Refresh {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
        /// Number of engine runs to schedule (default 1, capped).
        runs: Option<usize>,
    },
    /// Wait until all scheduled refresh runs have finished.
    Sync,
    /// Per-key statistics (with `key`/`name`) or service-wide statistics.
    Stats {
        /// Canonical fingerprint from `Registered`.
        key: Option<u64>,
        /// Alias supplied at registration.
        name: Option<String>,
    },
    /// Point-in-time metrics readout: every counter and gauge, plus
    /// per-verb latency histograms (p50/p90/p99 in nanoseconds) and a
    /// Prometheus-style text rendering. Example line: `"Metrics"`.
    /// Answers with zeroed payloads when the service runs metrics-off.
    Metrics,
    /// The newest entries of the structured event trace (lifecycle
    /// transitions, refresh runs, drift and coverage trips, evictions,
    /// ingest batches, snapshot I/O). Example lines: `{"Trace":{}}` reads
    /// the whole ring, `{"Trace":{"limit":50}}` the newest 50 events (a
    /// struct variant, so the bare string `"Trace"` is no request).
    Trace {
        /// Cap on returned events (whole ring when omitted).
        limit: Option<usize>,
    },
    /// End the session.
    Shutdown,
}

/// Every protocol verb's stable lowercase name, in the order the
/// [`Request`] variants are declared: the one list of verb names, and
/// the rows of the serve stack's per-verb latency histograms.
pub const VERBS: [&str; 18] = [
    "register",
    "register_batch",
    "best_for_privacy",
    "best_for_mse",
    "front",
    "ingest",
    "disguise",
    "estimate",
    "estimate_all",
    "save",
    "load",
    "evict",
    "refresh",
    "sync",
    "stats",
    "metrics",
    "trace",
    "shutdown",
];

impl Request {
    /// The verb's stable lowercase name, read from [`VERBS`]: the label
    /// of its latency histograms (`serve_verb_<verb>_latency_ns`, read
    /// out as the sum of its per-codec rows
    /// `serve_net_verb_<verb>_<codec>_latency_ns`).
    pub fn verb(&self) -> &'static str {
        VERBS[match self {
            Request::Register { .. } => 0,
            Request::RegisterBatch { .. } => 1,
            Request::BestForPrivacy { .. } => 2,
            Request::BestForMse { .. } => 3,
            Request::Front { .. } => 4,
            Request::Ingest { .. } => 5,
            Request::Disguise { .. } => 6,
            Request::Estimate { .. } => 7,
            Request::EstimateAll => 8,
            Request::Save { .. } => 9,
            Request::Load { .. } => 10,
            Request::Evict { .. } => 11,
            Request::Refresh { .. } => 12,
            Request::Sync => 13,
            Request::Stats { .. } => 14,
            Request::Metrics => 15,
            Request::Trace { .. } => 16,
            Request::Shutdown => 17,
        }]
    }
}

/// A disguise matrix in transport form: column-major, one randomization
/// distribution per original category, matching the paper's
/// column-stochastic convention.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct MatrixDto {
    /// Number of categories `n`.
    pub num_categories: usize,
    /// `columns[i][j] = P[report c_j | true value c_i]`.
    pub columns: Vec<Vec<f64>>,
}

impl MatrixDto {
    /// Encodes a validated RR matrix.
    pub fn from_matrix(matrix: &RrMatrix) -> Self {
        Self {
            num_categories: matrix.num_categories(),
            columns: matrix_columns(matrix).map(Iterator::collect).collect(),
        }
    }

    /// Decodes back into a validated RR matrix.
    pub fn to_matrix(&self) -> Result<RrMatrix, rr::RrError> {
        let columns: Vec<linalg::Vector> = self
            .columns
            .iter()
            .map(|c| linalg::Vector::from_vec(c.clone()))
            .collect();
        RrMatrix::from_columns(&columns)
    }
}

impl Serialize for MatrixDto {
    fn write_json(&self, out: &mut String) {
        let columns = self.columns.iter().map(|column| column.iter().copied());
        write_matrix(out, self.num_categories, columns);
    }
}

/// The columns of a stored matrix (`columns[i][j] = P[c_j | c_i]`), read
/// in place from its row-major cells: the one column order of
/// [`MatrixDto::from_matrix`] and of the JSON line and binary frame of a
/// point query's hit.
pub(crate) fn matrix_columns(
    matrix: &RrMatrix,
) -> impl Iterator<Item = impl Iterator<Item = f64> + '_> + '_ {
    let n = matrix.num_categories();
    let cells = matrix.as_matrix().as_slice();
    (0..n).map(move |input| cells[input..].iter().step_by(n).copied())
}

/// Writes `{"num_categories":n,"columns":[[…],…]}`: the one JSON writer
/// of a matrix, behind a [`MatrixDto`] and a stored matrix alike.
fn write_matrix(
    out: &mut String,
    n: usize,
    columns: impl Iterator<Item = impl Iterator<Item = f64>>,
) {
    out.push_str("{\"num_categories\":");
    n.write_json(out);
    out.push_str(",\"columns\":[");
    for (i, column) in columns.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, theta) in column.enumerate() {
            if j > 0 {
                out.push(',');
            }
            theta.write_json(out);
        }
        out.push(']');
    }
    out.push_str("]}");
}

/// A stored matrix, written as its [`MatrixDto`] would be.
struct StoredMatrix<'a>(&'a RrMatrix);

impl Serialize for StoredMatrix<'_> {
    fn write_json(&self, out: &mut String) {
        write_matrix(out, self.0.num_categories(), matrix_columns(self.0));
    }
}

/// [`Response::Matrix`] over any form of its matrix: the same tag and
/// fields, so the same line.
#[derive(Serialize)]
enum MatrixResponse<M> {
    Matrix {
        key: u64,
        privacy: f64,
        mse: f64,
        max_posterior: f64,
        matrix: M,
        degraded: bool,
    },
}

/// Encodes a point query's hit straight from the stored entry: the line
/// [`encode_response`] writes for the [`Response::Matrix`] built from it,
/// without building the [`MatrixDto`].
pub(crate) fn encode_matrix_hit(key: u64, found: &OmegaEntry, degraded: bool) -> String {
    let evaluation = &found.evaluation;
    serde_json::to_string(&MatrixResponse::Matrix {
        key,
        privacy: evaluation.privacy,
        mse: evaluation.mse,
        max_posterior: evaluation.max_posterior,
        matrix: StoredMatrix(&found.matrix),
        degraded,
    })
    .expect("responses serialize")
}

/// Per-key statistics reported by `Stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyStatsDto {
    /// Canonical fingerprint.
    pub key: u64,
    /// Whether warm data is resident (queries answer without waiting).
    pub warm: bool,
    /// Whether the key is marked stale.
    pub stale: bool,
    /// Filled Ω slots.
    pub filled_slots: usize,
    /// Ω resolution.
    pub num_slots: usize,
    /// Engine runs started for this key.
    pub engine_runs: u64,
    /// Queries served from this key's warm store.
    pub queries: u64,
    /// Queries that found warm data resident on arrival.
    pub warm_hits: u64,
    /// The lifecycle state, e.g. `"warm"`, `"stale(drift)"`,
    /// `"refreshing(coverage)"`, `"evicted"`.
    pub state: String,
    /// Approximate resident bytes (Ω matrices + warm-start seeds + ingest
    /// accumulators) this key holds.
    pub resident_bytes: u64,
    /// Estimates that exceeded the drift threshold.
    pub drift_events: u64,
    /// Point queries that matched no stored matrix (the query-shape
    /// staleness signal).
    pub coverage_misses: u64,
    /// Times this key's resident state was evicted.
    pub evictions: u64,
    /// Times this key was re-warmed after an eviction.
    pub rewarms: u64,
    /// Lowest privacy currently covered, when any slot is filled.
    pub privacy_lo: Option<f64>,
    /// Highest privacy currently covered, when any slot is filled.
    pub privacy_hi: Option<f64>,
    /// Always 0: the engine's fitness kernel keeps no pairs from one
    /// generation to the next, so none are reused. The field stays so the
    /// wire format, which clients and the codec corpus read, is unchanged.
    pub fitness_pairs_reused: u64,
    /// Unordered pairs the fitness kernel compared in the most recent
    /// refresh run, 0 before the first run completes in this process.
    pub fitness_pairs_computed: u64,
    /// Failed (errored or panicked) refresh runs over this key's
    /// lifetime.
    pub refresh_failures: u64,
    /// Automatic backoff retries scheduled after refresh failures.
    pub retries: u64,
    /// Whether the key is currently serving degraded (last-good) data
    /// because its refresh fail budget was exhausted.
    pub degraded: bool,
}

/// One estimate reported by `Estimate`/`EstimateAll`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateDto {
    /// The key that was estimated.
    pub key: u64,
    /// `"inversion"` or `"iterative"`.
    pub method: String,
    /// The reconstructed original distribution.
    pub distribution: Vec<f64>,
    /// Iterations the iterative estimator performed (0 for inversion).
    pub iterations: u64,
    /// Convergence residual of the iterative estimator (0 for inversion).
    pub residual: f64,
    /// MSE between the reconstruction and the registered prior (the
    /// drift signal).
    pub mse_vs_prior: f64,
    /// Total responses the estimate is based on.
    pub total_responses: u64,
    /// Batches the estimate is based on.
    pub batches: u64,
    /// Whether the estimate exceeded the drift threshold.
    pub drifted: bool,
    /// Whether the key is marked stale after this estimate's drift check,
    /// before the refresh it scheduled (if any) could run.
    pub stale: bool,
    /// Whether the key was serving degraded (last-good) data when this
    /// estimate was computed.
    pub degraded: bool,
}

/// One named counter or gauge value reported by `Metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValueDto {
    /// Metric name (e.g. `serve_queries_total`).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One latency histogram reported by `Metrics`. Quantiles are the upper
/// bound of the log₂ bucket containing the rank, in nanoseconds, so they
/// never understate the true latency by more than one bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramDto {
    /// Histogram name (e.g. `serve_verb_estimate_latency_ns`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values (saturating).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

/// One structured event reported by `Trace`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEventDto {
    /// Position in the global event order (0-based, never reused — gaps
    /// relative to `dropped` show what the ring discarded).
    pub seq: u64,
    /// Nanoseconds on the service's trace clock at record time.
    pub at_ns: u64,
    /// Event kind tag (`transition`, `refresh_run`, `drift`, ...).
    pub kind: String,
    /// The key the event concerns, when it concerns one.
    pub key: Option<u64>,
    /// One-line human-readable payload rendering.
    pub detail: String,
}

/// A response line of the serving protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A single registration finished (or was already present).
    Registered {
        /// Canonical fingerprint to use in later requests.
        key: u64,
        /// Whether the warm store is ready.
        warm: bool,
        /// Filled Ω slots at response time.
        filled_slots: usize,
        /// Engine runs started for this key so far.
        engine_runs: u64,
    },
    /// A batch registration finished.
    RegisteredBatch {
        /// Canonical fingerprints, in input order.
        keys: Vec<u64>,
        /// How many of them required a fresh engine run.
        warmed: usize,
    },
    /// A point query matched a stored matrix.
    Matrix {
        /// The key that answered.
        key: u64,
        /// Privacy of the stored matrix.
        privacy: f64,
        /// MSE of the stored matrix.
        mse: f64,
        /// Worst-case posterior of the stored matrix.
        max_posterior: f64,
        /// The disguise matrix itself.
        matrix: MatrixDto,
        /// Whether the answer came from a degraded (last-good) store —
        /// the key's refresh fail budget is exhausted and the matrix may
        /// be older than the configured refresh policy intends.
        degraded: bool,
    },
    /// A point query matched nothing in the warm store.
    NoMatch {
        /// The key that was queried.
        key: u64,
        /// Why nothing qualified.
        reason: String,
        /// Whether the (empty-handed) answer came from a degraded store.
        degraded: bool,
    },
    /// The warm store's current Pareto front.
    Front {
        /// The key that answered.
        key: u64,
        /// Non-dominated (privacy, MSE) points in increasing privacy order.
        points: Vec<FrontPoint>,
        /// Whether the front came from a degraded (last-good) store.
        degraded: bool,
    },
    /// An ingest batch landed.
    Ingested {
        /// The key the batch landed on.
        key: u64,
        /// Responses accepted from this batch.
        accepted: u64,
        /// Accepted raw responses that kept their original value through
        /// the disguise (0 for pre-counted batches).
        retained: u64,
        /// Total responses accumulated for the key so far.
        total: u64,
        /// Total batches accumulated for the key so far.
        batches: u64,
        /// Privacy of the pinned disguise matrix.
        privacy: f64,
    },
    /// A one-shot disguise finished.
    Disguised {
        /// The key whose matrix disguised the records.
        key: u64,
        /// Privacy of the selected matrix.
        privacy: f64,
        /// Closed-form MSE of the selected matrix.
        mse: f64,
        /// Records that kept their original value.
        retained: u64,
        /// The disguised records, in input order.
        records: Vec<usize>,
    },
    /// An estimate finished.
    Estimated {
        /// The estimate payload.
        stats: EstimateDto,
    },
    /// A sweep over every key with accumulated responses finished.
    EstimatedAll {
        /// One estimate per key with data, in ascending key order.
        estimates: Vec<EstimateDto>,
        /// Registered keys skipped for having no responses.
        skipped: usize,
        /// Keys with data whose estimate failed (broken channel).
        failed: usize,
    },
    /// A snapshot was written.
    Saved {
        /// Path of the snapshot file.
        path: String,
        /// Keys the snapshot holds.
        keys: usize,
    },
    /// A snapshot was loaded.
    Loaded {
        /// Path of the snapshot file.
        path: String,
        /// Keys created warm from the snapshot.
        created: usize,
        /// Keys that already existed and absorbed the snapshot's Ω.
        merged: usize,
    },
    /// An eviction request was handled.
    Evicted {
        /// The key that was addressed.
        key: u64,
        /// Whether the resident state was actually dropped (`false` when
        /// the key was cold, warming, already evicted, or had a run in
        /// flight).
        evicted: bool,
        /// Approximate bytes freed (0 when nothing was evicted).
        bytes_freed: u64,
    },
    /// Refresh runs were scheduled.
    Scheduled {
        /// The key being refreshed.
        key: u64,
        /// Number of runs scheduled.
        runs: usize,
    },
    /// All scheduled work has finished.
    Synced,
    /// Per-key statistics.
    KeyStats {
        /// The statistics payload.
        stats: KeyStatsDto,
    },
    /// Service-wide statistics.
    ServiceStats {
        /// Registered keys.
        keys: usize,
        /// Engine runs started across all keys.
        engine_runs: u64,
        /// Point/front queries served.
        queries: u64,
        /// Queries answered from an already-warm store.
        warm_hits: u64,
        /// Approximate resident bytes across all keys.
        resident_bytes: u64,
        /// The configured memory budget, when one is set.
        budget_bytes: Option<u64>,
        /// Evictions performed since start (budget, TTL, and manual).
        evictions: u64,
        /// Re-warms of evicted keys across all keys.
        rewarms: u64,
        /// Failed (errored or panicked) refresh runs across all keys.
        refresh_failures: u64,
        /// Automatic backoff retries scheduled across all keys.
        retries: u64,
        /// Keys currently serving degraded (last-good) data.
        degraded: usize,
    },
    /// Point-in-time metrics readout.
    Metrics {
        /// Whether the service records metrics at all (`false` means the
        /// payloads below are empty, not zero-valued).
        enabled: bool,
        /// Every registered counter, name-sorted.
        counters: Vec<MetricValueDto>,
        /// Every registered gauge, name-sorted.
        gauges: Vec<MetricValueDto>,
        /// Every registered latency histogram, name-sorted.
        histograms: Vec<HistogramDto>,
        /// The same snapshot as Prometheus-style exposition text.
        prometheus: String,
    },
    /// The newest structured trace events.
    Trace {
        /// Whether the service records a trace at all.
        enabled: bool,
        /// Events the bounded ring discarded before this readout.
        dropped: u64,
        /// The newest events, oldest first.
        events: Vec<TraceEventDto>,
    },
    /// The request could not be served.
    Error {
        /// Explanation.
        reason: String,
        /// Stable machine-readable error code (see [`crate::service::ServeError`]):
        /// `invalid_request`, `optimizer`, `snapshot_io`,
        /// `snapshot_corrupt`, or `transport`.
        code: String,
    },
    /// Session end acknowledgement.
    Bye,
}

/// Encodes a request as one protocol line (no trailing newline).
pub fn encode_request(request: &Request) -> String {
    serde_json::to_string(request).expect("requests serialize")
}

/// Encodes a response as one protocol line (no trailing newline).
pub fn encode_response(response: &Response) -> String {
    serde_json::to_string(response).expect("responses serialize")
}

/// Decodes one protocol line into a request.
pub fn decode_request(line: &str) -> Result<Request, serde::Error> {
    serde_json::from_str(line)
}

/// Decodes one protocol line into a response.
pub fn decode_response(line: &str) -> Result<Response, serde::Error> {
    serde_json::from_str(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr::schemes::warner;

    #[test]
    fn requests_round_trip_through_lines() {
        let requests = vec![
            Request::Register {
                name: Some("demo".into()),
                prior: vec![0.4, 0.3, 0.2, 0.1],
                delta: 0.8,
                slots: Some(500),
                lazy: None,
            },
            Request::RegisterBatch {
                names: None,
                priors: vec![vec![0.5, 0.5], vec![0.9, 0.1]],
                delta: 0.75,
                slots: None,
            },
            Request::BestForPrivacy {
                key: Some(42),
                name: None,
                min_privacy: 0.25,
            },
            Request::BestForMse {
                key: None,
                name: Some("demo".into()),
                max_mse: 1e-4,
            },
            Request::Front {
                key: Some(7),
                name: None,
            },
            Request::Refresh {
                key: Some(7),
                name: None,
                runs: Some(2),
            },
            Request::Evict {
                key: None,
                name: Some("demo".into()),
            },
            Request::Ingest {
                key: None,
                name: Some("demo".into()),
                min_privacy: Some(0.2),
                records: Some(vec![0, 1, 2, 0]),
                counts: None,
                seed: Some(11),
            },
            Request::Ingest {
                key: Some(42),
                name: None,
                min_privacy: None,
                records: None,
                counts: Some(vec![10, 0, 3]),
                seed: None,
            },
            Request::Disguise {
                key: None,
                name: Some("demo".into()),
                min_privacy: 0.3,
                records: vec![1, 1, 0],
                seed: None,
            },
            Request::Estimate {
                key: Some(42),
                name: None,
            },
            Request::EstimateAll,
            Request::Save {
                path: "snapshot.json".into(),
            },
            Request::Load {
                path: "snapshot.json".into(),
            },
            Request::Sync,
            Request::Stats {
                key: None,
                name: None,
            },
            Request::Metrics,
            Request::Trace { limit: Some(50) },
            Request::Trace { limit: None },
            Request::Shutdown,
        ];
        for request in requests {
            let line = encode_request(&request);
            assert!(!line.contains('\n'), "one frame per line: {line}");
            let back = decode_request(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn every_verb_has_a_stable_histogram_label() {
        let labeled = [
            (Request::EstimateAll, "estimate_all"),
            (Request::Sync, "sync"),
            (Request::Metrics, "metrics"),
            (Request::Trace { limit: None }, "trace"),
            (Request::Shutdown, "shutdown"),
            (
                Request::Front {
                    key: Some(1),
                    name: None,
                },
                "front",
            ),
        ];
        for (request, verb) in labeled {
            assert_eq!(request.verb(), verb);
        }
    }

    #[test]
    fn every_variant_reads_its_own_verb_name() {
        // One request line per variant, in `VERBS` order.
        let lines = [
            r#"{"Register":{"prior":[0.5,0.5],"delta":0.8}}"#,
            r#"{"RegisterBatch":{"priors":[[0.5,0.5]],"delta":0.8}}"#,
            r#"{"BestForPrivacy":{"key":1,"min_privacy":0.1}}"#,
            r#"{"BestForMse":{"key":1,"max_mse":0.1}}"#,
            r#"{"Front":{"key":1}}"#,
            r#"{"Ingest":{"key":1,"counts":[1]}}"#,
            r#"{"Disguise":{"key":1,"min_privacy":0.1,"records":[0]}}"#,
            r#"{"Estimate":{"key":1}}"#,
            r#""EstimateAll""#,
            r#"{"Save":{"path":"s"}}"#,
            r#"{"Load":{"path":"s"}}"#,
            r#"{"Evict":{"key":1}}"#,
            r#"{"Refresh":{"key":1}}"#,
            r#""Sync""#,
            r#"{"Stats":{}}"#,
            r#""Metrics""#,
            r#"{"Trace":{}}"#,
            r#""Shutdown""#,
        ];
        for (line, verb) in lines.iter().zip(VERBS) {
            assert_eq!(decode_request(line).unwrap().verb(), verb, "{line}");
            let tag: String = line
                .trim_start_matches(['{', '"'])
                .chars()
                .take_while(|c| c.is_ascii_alphabetic())
                .flat_map(|c| {
                    let under = c.is_ascii_uppercase().then_some('_');
                    under.into_iter().chain([c.to_ascii_lowercase()])
                })
                .collect();
            assert_eq!(&tag[1..], verb, "the verb is the variant's name");
        }
    }

    #[test]
    fn responses_round_trip_through_lines() {
        let matrix = MatrixDto::from_matrix(&warner(4, 0.7).unwrap());
        let responses = vec![
            Response::Registered {
                key: 9,
                warm: true,
                filled_slots: 55,
                engine_runs: 1,
            },
            Response::RegisteredBatch {
                keys: vec![1, 2, 3],
                warmed: 2,
            },
            Response::Matrix {
                key: 9,
                privacy: 0.42,
                mse: 3.5e-5,
                max_posterior: 0.77,
                matrix,
                degraded: false,
            },
            Response::NoMatch {
                key: 9,
                reason: "no entry with privacy >= 0.99".into(),
                degraded: true,
            },
            Response::Front {
                key: 9,
                points: vec![
                    FrontPoint {
                        privacy: 0.2,
                        mse: 1e-5,
                    },
                    FrontPoint {
                        privacy: 0.5,
                        mse: 9e-5,
                    },
                ],
                degraded: false,
            },
            Response::Ingested {
                key: 9,
                accepted: 500,
                retained: 321,
                total: 1500,
                batches: 3,
                privacy: 0.41,
            },
            Response::Disguised {
                key: 9,
                privacy: 0.41,
                mse: 3.5e-5,
                retained: 2,
                records: vec![0, 2, 1],
            },
            Response::Estimated {
                stats: EstimateDto {
                    key: 9,
                    method: "inversion".into(),
                    distribution: vec![0.4, 0.3, 0.2, 0.1],
                    iterations: 0,
                    residual: 0.0,
                    mse_vs_prior: 2.4e-5,
                    total_responses: 1500,
                    batches: 3,
                    drifted: false,
                    stale: false,
                    degraded: false,
                },
            },
            Response::EstimatedAll {
                estimates: vec![EstimateDto {
                    key: 9,
                    method: "iterative".into(),
                    distribution: vec![0.5, 0.5],
                    iterations: 40,
                    residual: 9e-11,
                    mse_vs_prior: 1.2e-2,
                    total_responses: 10,
                    batches: 1,
                    drifted: true,
                    stale: true,
                    degraded: true,
                }],
                skipped: 2,
                failed: 1,
            },
            Response::Saved {
                path: "snapshot.json".into(),
                keys: 3,
            },
            Response::Loaded {
                path: "snapshot.json".into(),
                created: 2,
                merged: 1,
            },
            Response::Scheduled { key: 9, runs: 2 },
            Response::Evicted {
                key: 9,
                evicted: true,
                bytes_freed: 123_456,
            },
            Response::Synced,
            Response::KeyStats {
                stats: KeyStatsDto {
                    key: 9,
                    warm: true,
                    stale: false,
                    filled_slots: 55,
                    num_slots: 500,
                    engine_runs: 2,
                    queries: 11,
                    warm_hits: 10,
                    state: "stale(drift)".into(),
                    resident_bytes: 40_960,
                    drift_events: 3,
                    coverage_misses: 1,
                    evictions: 2,
                    rewarms: 2,
                    privacy_lo: Some(0.1),
                    privacy_hi: Some(0.8),
                    fitness_pairs_reused: 120,
                    fitness_pairs_computed: 45,
                    refresh_failures: 2,
                    retries: 1,
                    degraded: false,
                },
            },
            Response::ServiceStats {
                keys: 3,
                engine_runs: 4,
                queries: 100,
                warm_hits: 97,
                resident_bytes: 1_234_567,
                budget_bytes: Some(8_000_000),
                evictions: 5,
                rewarms: 4,
                refresh_failures: 2,
                retries: 1,
                degraded: 1,
            },
            Response::Metrics {
                enabled: true,
                counters: vec![MetricValueDto {
                    name: "serve_queries_total".into(),
                    value: 100,
                }],
                gauges: vec![MetricValueDto {
                    name: "serve_registered_keys".into(),
                    value: 3,
                }],
                histograms: vec![HistogramDto {
                    name: "serve_verb_estimate_latency_ns".into(),
                    count: 12,
                    sum: 48_000,
                    max: 9_001,
                    p50: 4_095,
                    p90: 8_191,
                    p99: 16_383,
                }],
                prometheus: "# TYPE serve_queries_total counter\nserve_queries_total 100\n".into(),
            },
            Response::Trace {
                enabled: true,
                dropped: 2,
                events: vec![TraceEventDto {
                    seq: 7,
                    at_ns: 123_456,
                    kind: "transition".into(),
                    key: Some(9),
                    detail: "cold -> warming".into(),
                }],
            },
            Response::Error {
                reason: "unknown key".into(),
                code: "invalid_request".into(),
            },
            Response::Bye,
        ];
        for response in responses {
            let line = encode_response(&response);
            assert!(!line.contains('\n'), "one frame per line: {line}");
            let back = decode_response(&line).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn matrix_dto_round_trips_bitwise() {
        let original = warner(5, 0.65).unwrap();
        let dto = MatrixDto::from_matrix(&original);
        assert_eq!(dto.num_categories, 5);
        let back = dto.to_matrix().unwrap();
        for output in 0..5 {
            for input in 0..5 {
                assert_eq!(
                    back.theta(output, input).to_bits(),
                    original.theta(output, input).to_bits()
                );
            }
        }
    }

    #[test]
    fn scripted_session_lines_parse() {
        // The exact shapes the CI smoke session pipes into the binary.
        let lines = [
            r#"{"Register":{"name":"demo","prior":[0.4,0.3,0.2,0.1],"delta":0.8}}"#,
            r#"{"BestForPrivacy":{"name":"demo","min_privacy":0.2}}"#,
            r#"{"Front":{"name":"demo"}}"#,
            r#"{"Stats":{"name":"demo"}}"#,
            r#"{"Stats":{}}"#,
            r#"{"Evict":{"name":"demo"}}"#,
            r#""Sync""#,
            r#""Metrics""#,
            r#"{"Trace":{"limit":50}}"#,
            r#"{"Trace":{}}"#,
            r#""Shutdown""#,
        ];
        for line in lines {
            assert!(decode_request(line).is_ok(), "failed to parse: {line}");
        }
        // Garbage is rejected, not panicked on.
        assert!(decode_request("not json").is_err());
        assert!(decode_request(r#"{"Unknown":{}}"#).is_err());
    }

    #[test]
    fn a_line_with_a_one_mib_name_decodes_in_linear_time() {
        // A client controls string lengths up to the frame cap; decoding
        // must stay one pass over the line (a quadratic string parser
        // spent minutes here).
        let name = "tenant-ü-".repeat((1 << 20) / 10);
        let request = Request::Register {
            name: Some(name),
            prior: vec![0.4, 0.3, 0.2, 0.1],
            delta: 0.8,
            slots: None,
            lazy: None,
        };
        let line = encode_request(&request);
        assert!(line.len() > 1 << 20);
        let start = std::time::Instant::now();
        let back = decode_request(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, request);
        assert!(elapsed.as_secs() < 5, "decoding took {elapsed:?}");
    }
}
