//! # optrr-obs
//!
//! Dependency-light observability primitives for the serving stack:
//!
//! * [`Counter`]s, [`Gauge`]s and log₂ [`Histogram`]s. Each is plain
//!   atomics touched with `Ordering::Relaxed`, so recording takes no lock
//!   and allocates nothing. A user holds them in fixed fields known at
//!   compile time and names them only when it reads them out, as a
//!   [`MetricsSnapshot`]. Quantiles (p50/p90/p99) are computed from a
//!   copy of the bucket array without stopping writers, and
//!   [`Histogram::snapshot_merged`] reads several histograms as one.
//! * [`TraceRing`] — a bounded ring buffer of typed events, each stamped
//!   with a sequence number and a timestamp from an injectable [`Clock`],
//!   so traces are deterministic under test ([`ManualClock`]) and
//!   monotonic in production ([`MonotonicClock`]).
//!
//! The crate is deliberately free of dependencies (not even serde): it
//! exposes plain snapshot structs and a Prometheus-style text rendering;
//! wire formats live with the protocol that speaks them.
//!
//! The cardinal rule for users: instrumentation is *recording only*. No
//! value read from a counter, histogram, or trace may feed back into
//! request handling — that is what keeps observability bitwise-invisible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket
/// `k ≥ 1` holds values in `[2^(k-1), 2^k)`, so bucket 64 holds
/// `[2^63, u64::MAX]` and every `u64` has a home.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically non-decreasing nanosecond clock. Injectable so event
/// traces are deterministic under test.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since an arbitrary (per-clock) origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: nanoseconds since the clock's creation, read
/// from [`Instant`] so it never goes backwards.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// [`ManualClock::advance`] (or `set`) is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at `start` nanoseconds.
    pub fn new(start: u64) -> Self {
        Self {
            now: AtomicU64::new(start),
        }
    }

    /// Moves the clock forward by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.now.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute nanosecond value.
    pub fn set(&self, now: u64) {
        self.now.store(now, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing event counter. All operations are single
/// relaxed atomics: the counter guards nothing and orders nothing.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value. Only for a counter that is a view of a
    /// total stored elsewhere and published at readout: the owner keeps
    /// it monotonic by publishing monotonic sums.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (resident bytes, key count).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds one. Paired with [`Gauge::dec`], a gauge that counts live
    /// things stays exact whatever order concurrent opens and closes land.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (a [`Gauge::inc`] whose thing went away).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ latency histogram with atomic buckets.
///
/// Recording is lock-free — one relaxed `fetch_add` on the bucket, a
/// saturating add on the sum and a relaxed `fetch_max` — and quantile
/// reads walk a point-in-time copy of the bucket array, so p50/p90/p99
/// are readable while writers keep recording. A quantile is reported as the *upper bound* of the
/// bucket containing its rank (bucket 0 reports exactly 0), so reported
/// values never understate the true latency by more than one bucket.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket a value lands in: 0 for 0, otherwise `floor(log2 v) + 1`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `index` can hold.
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation (nanoseconds, but any `u64` works).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Saturating: after ~585 years of accumulated nanoseconds the sum
        // pins at MAX rather than wrapping into nonsense.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total observations recorded: the sum of the bucket counts.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of counts, quantiles, and extrema.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        Self::snapshot_merged(name, std::slice::from_ref(self))
    }

    /// One snapshot of `parts` read as one histogram: the snapshot that
    /// recording each of their values into a single histogram would give.
    /// Bucket counts and sums add (the sum saturating), and the maximum
    /// is the largest part's.
    pub fn snapshot_merged(name: &str, parts: &[Histogram]) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let (mut sum, mut max) = (0u64, 0u64);
        for part in parts {
            for (total, bucket) in buckets.iter_mut().zip(&part.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            sum = sum.saturating_add(part.sum.load(Ordering::Relaxed));
            max = max.max(part.max.load(Ordering::Relaxed));
        }
        let total: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile among `total` ordered observations,
            // clamped into [1, total].
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (index, bucket) in buckets.iter().enumerate() {
                seen += bucket;
                if seen >= rank {
                    return bucket_upper_bound(index);
                }
            }
            bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
        };
        HistogramSnapshot {
            name: name.to_string(),
            count: total,
            sum,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// A point-in-time view of one histogram, safe to serialize elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The metric's name.
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

/// A point-in-time view of a set of metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// One snapshot per histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Prometheus-style text exposition of this snapshot: one `# TYPE`
    /// line per metric, `_count`/`_sum`/`_max` plus `quantile`-labelled
    /// lines per histogram.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for h in &self.histograms {
            let name = &h.name;
            out.push_str(&format!("# TYPE {name} summary\n"));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_max {}\n", h.max));
            for (label, value) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                out.push_str(&format!("{name}{{quantile=\"{label}\"}} {value}\n"));
            }
        }
        out
    }
}

/// One traced event: a global sequence number, a clock stamp, and the
/// typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry<E> {
    /// Position in the global event order (0-based, never reused).
    pub seq: u64,
    /// [`Clock::now_ns`] at push time.
    pub at_ns: u64,
    /// The event itself.
    pub event: E,
}

#[derive(Debug)]
struct RingState<E> {
    entries: VecDeque<TraceEntry<E>>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of typed events. When full, the oldest entry is
/// dropped (and counted) to admit the newest, so the trace always holds
/// the most recent `capacity` events. A capacity of 0 disables recording
/// entirely.
#[derive(Debug)]
pub struct TraceRing<E> {
    capacity: usize,
    clock: Arc<dyn Clock>,
    state: Mutex<RingState<E>>,
}

impl<E: Clone> TraceRing<E> {
    /// A ring holding at most `capacity` events, stamped by `clock`.
    pub fn new(capacity: usize, clock: Arc<dyn Clock>) -> Self {
        Self {
            capacity,
            clock,
            state: Mutex::new(RingState {
                entries: VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn push(&self, event: E) {
        if self.capacity == 0 {
            return;
        }
        let at_ns = self.clock.now_ns();
        let mut state = self.state.lock().expect("trace ring poisoned");
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.entries.len() == self.capacity {
            state.entries.pop_front();
            state.dropped += 1;
        }
        state.entries.push_back(TraceEntry { seq, at_ns, event });
    }

    /// The most recent `limit` entries in order (all of them if `limit`
    /// is `None`), plus how many older events the ring has discarded.
    pub fn snapshot(&self, limit: Option<usize>) -> (Vec<TraceEntry<E>>, u64) {
        let state = self.state.lock().expect("trace ring poisoned");
        let take = limit
            .unwrap_or(state.entries.len())
            .min(state.entries.len());
        let skip = state.entries.len() - take;
        (
            state.entries.iter().skip(skip).cloned().collect(),
            state.dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_maps_edges_exactly() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Powers of two open a new bucket; one less closes the previous.
        for k in 1..64 {
            let boundary = 1u64 << k;
            assert_eq!(
                bucket_index(boundary),
                k + 1,
                "2^{k} opens bucket {}",
                k + 1
            );
            assert_eq!(bucket_index(boundary - 1), k, "2^{k}-1 stays in bucket {k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(63), (1u64 << 63) - 1);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_handles_zero_and_max_without_losing_counts() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot("edge");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(snap.sum, u64::MAX);
        assert_eq!(snap.p50, 0);
        assert_eq!(snap.p99, u64::MAX);
    }

    #[test]
    fn histogram_quantiles_track_bucket_upper_bounds() {
        let h = Histogram::new();
        // 90 fast observations in [1,1], 10 slow in [64,127].
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(100);
        }
        let snap = h.snapshot("latency");
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50, 1);
        assert_eq!(snap.p90, 1);
        assert_eq!(snap.p99, 127, "p99 reports the slow bucket's upper bound");
        assert_eq!(snap.max, 100);
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let snap = Histogram::new().snapshot("empty");
        assert_eq!((snap.count, snap.p50, snap.p90, snap.p99), (0, 0, 0, 0));
    }

    #[test]
    fn merged_snapshot_reads_its_parts_as_one_histogram() {
        let values = [0, 1, 3, 7, 100, 100, 4_096, u64::MAX / 2, u64::MAX];
        let whole = Histogram::new();
        let parts = [Histogram::new(), Histogram::new()];
        for (i, &value) in values.iter().enumerate() {
            whole.record(value);
            parts[i % 2].record(value);
        }
        let merged = Histogram::snapshot_merged("h", &parts);
        assert_eq!(merged, whole.snapshot("h"));
        assert_eq!(merged.count, values.len() as u64);
        assert_eq!(merged.sum, u64::MAX, "the merged sum saturates");
        assert_eq!(parts[0].count() + parts[1].count(), merged.count);
        let empty = Histogram::snapshot_merged("e", &[Histogram::new(), Histogram::new()]);
        assert_eq!(empty, Histogram::new().snapshot("e"));
    }

    #[test]
    fn prometheus_rendering_is_stable_and_complete() {
        let h = Histogram::new();
        h.record(3);
        let snapshot = MetricsSnapshot {
            counters: vec![("a_counter".to_string(), 1), ("b_counter".to_string(), 2)],
            gauges: vec![("g".to_string(), 9)],
            histograms: vec![h.snapshot("h")],
        };
        let text = snapshot.render_prometheus();
        // In snapshot order, typed, with quantile lines.
        let a = text.find("a_counter 1").expect("a_counter rendered");
        let b = text.find("b_counter 2").expect("b_counter rendered");
        assert!(a < b, "counters render in snapshot order");
        assert!(text.contains("# TYPE g gauge\ng 9\n"));
        assert!(text.contains("h_count 1"));
        assert!(text.contains("h{quantile=\"0.99\"} 3"));
    }

    #[test]
    fn trace_ring_wraps_keeping_newest_and_counting_drops() {
        let clock = Arc::new(ManualClock::new(0));
        let ring: TraceRing<u32> = TraceRing::new(4, clock.clone());
        for i in 0..10u32 {
            clock.advance(5);
            ring.push(i);
        }
        let (entries, dropped) = ring.snapshot(None);
        assert_eq!(dropped, 6);
        let events: Vec<u32> = entries.iter().map(|e| e.event).collect();
        assert_eq!(events, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            vec![6, 7, 8, 9],
            "sequence numbers survive wraparound"
        );
        // Deterministic timestamps from the manual clock.
        let stamps: Vec<u64> = entries.iter().map(|e| e.at_ns).collect();
        assert_eq!(stamps, vec![35, 40, 45, 50]);
        // A limited snapshot returns the newest slice.
        let (tail, _) = ring.snapshot(Some(2));
        assert_eq!(tail.iter().map(|e| e.event).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let ring: TraceRing<u32> = TraceRing::new(0, Arc::new(ManualClock::new(0)));
        ring.push(1);
        let (entries, dropped) = ring.snapshot(None);
        assert!(entries.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn manual_clock_is_deterministic_and_monotonic_under_advance() {
        let clock = ManualClock::new(100);
        assert_eq!(clock.now_ns(), 100);
        clock.advance(50);
        assert_eq!(clock.now_ns(), 150);
        clock.set(1_000);
        assert_eq!(clock.now_ns(), 1_000);
        let wall = MonotonicClock::new();
        let a = wall.now_ns();
        let b = wall.now_ns();
        assert!(b >= a, "monotonic clock never goes backwards");
    }
}
