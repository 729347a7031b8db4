//! Shared pieces of the benchmark: order statistics, in-memory spans,
//! seeded inputs, and the in-process server rig every workload runs on.

use datagen::SourceDistribution;
use optrr::{baseline_sweep, FrontComparison, FrontPoint, OptrrConfig, OptrrProblem, ParetoFront};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::ServiceConfig;
use serve::{Codec, ListenAddr, NetClient, NetConfig, NetServer, Request, Response, Service};
use stats::Categorical;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where sockets and span files go, relative to the checkout root the
/// benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// Seed of every service's engine runs (program configuration, not a
/// workload input; the workload seed only shapes the requests).
pub const SERVICE_SEED: u64 = 2008;

/// A deterministic RNG for one input stream of one seed.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Nearest-rank quantile of nanosecond samples (sorts in place); NaN when
/// there are none.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Median of a small set of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// One traced interval: a call into a layer's public entry point.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends. Each thread
/// owns its own tracer; all share one origin so their clocks line up.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// A tracer for another thread, sharing this one's clock and ids.
    pub fn fork(&self) -> Self {
        Self {
            origin: self.origin,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
            cap: self.cap,
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for a parent recorded after its children.
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id (ids are handed out
    /// even past the cap, so children can still name their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.push(id, name, parent, request, start_ns, end_ns);
        id
    }

    /// Records a finished span under an id taken from [`Tracer::next_id`].
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Takes another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        for span in other.spans {
            if self.spans.len() < self.cap {
                self.spans.push(span);
            } else {
                self.dropped += 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Times `calls` invocations of `f` one by one, recording a span per call
/// under `parent`, and returns the per-call nanoseconds.
pub fn rung(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u64,
    calls: usize,
    mut f: impl FnMut(usize),
) -> Vec<u64> {
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls {
        let start = tracer.now_ns();
        f(i);
        let end = tracer.now_ns();
        tracer.record(name, parent, i as u64, start, end);
        samples.push(end - start);
    }
    samples
}

/// A paper-shaped prior: one of the paper's synthetic sources (normal,
/// gamma, Zipf) with seeded parameters, jittered per category so every
/// draw is a distinct key. The mode stays at most 0.6, below every δ the
/// workloads use (Theorem 5's feasibility condition).
pub fn paper_prior(rng: &mut StdRng, n: usize) -> Categorical {
    loop {
        let source = match rng.gen_range(0..3u32) {
            0 => SourceDistribution::Normal {
                mu: rng.gen_range(-1.0..1.0),
                sigma: rng.gen_range(0.6..1.6),
            },
            1 => SourceDistribution::Gamma {
                alpha: rng.gen_range(0.8..3.0),
                beta: rng.gen_range(1.0..3.0),
            },
            _ => SourceDistribution::Zipf {
                exponent: rng.gen_range(0.4..1.2),
            },
        };
        let base = source
            .category_distribution(n)
            .expect("paper sources discretize");
        let weights: Vec<f64> = base
            .probs()
            .iter()
            .map(|p| (p + 1e-3) * rng.gen_range(0.9..1.1))
            .collect();
        let prior = Categorical::from_weights(&weights).expect("positive weights form a prior");
        if prior.max_prob() <= 0.6 {
            return prior;
        }
    }
}

/// The prior the service holds for a registration of `prior`'s
/// probabilities: it normalizes the weights it receives once more.
pub fn served_prior(prior: &Categorical) -> Categorical {
    Categorical::from_weights(prior.probs()).expect("a prior's probabilities are valid weights")
}

/// The privacy bounds the workloads draw from.
pub const DELTAS: [f64; 3] = [0.7, 0.8, 0.9];

pub fn pick_delta(rng: &mut StdRng) -> f64 {
    DELTAS[rng.gen_range(0..DELTAS.len())]
}

/// The `serve --standard` configuration (`OptrrConfig::fast` budget).
pub fn standard_config() -> ServiceConfig {
    ServiceConfig {
        base: OptrrConfig::fast(0.75, SERVICE_SEED),
        ..ServiceConfig::default()
    }
}

/// The engine configuration a key's run 0 uses, exactly as the service
/// derives it.
pub fn run0_config(service: &ServiceConfig, delta: f64, slots: usize) -> OptrrConfig {
    OptrrConfig {
        delta,
        omega_slots: slots,
        seed: service.base.seed,
        ..service.base.clone()
    }
}

/// Hypervolume of a served front over that of the Warner sweep for the
/// same prior and δ, with the shared reference point
/// [`FrontComparison`] picks.
pub fn hv_ratio(config: &OptrrConfig, prior: &Categorical, served: &[FrontPoint]) -> f64 {
    let problem = OptrrProblem::new(prior.clone(), config).expect("valid key config");
    let warner = baseline_sweep(
        &problem,
        optrr::SchemeKind::Warner,
        optrr::PAPER_SWEEP_STEPS,
    );
    let challenger = ParetoFront::from_points("served", served);
    let cmp = FrontComparison::compare(&challenger, &warner.front, 40);
    cmp.challenger_hypervolume / cmp.baseline_hypervolume
}

/// Which socket family a rig listens on (both loopback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    Unix,
}

static SOCKETS: AtomicU64 = AtomicU64::new(0);

/// A running service behind the network front door, in this process.
pub struct Rig {
    pub service: Arc<Service>,
    server: NetServer,
    pub addr: ListenAddr,
}

impl Rig {
    pub fn start(config: ServiceConfig, transport: Transport) -> Self {
        let listen = match transport {
            Transport::Tcp => ListenAddr::Tcp("127.0.0.1:0".parse().expect("loopback parses")),
            Transport::Unix => ListenAddr::Unix(
                format!(
                    "{OUT_DIR}/s{}-{}.sock",
                    std::process::id(),
                    SOCKETS.fetch_add(1, Ordering::Relaxed)
                )
                .into(),
            ),
        };
        let service = Arc::new(Service::new(config));
        let mut net = NetConfig::new(listen);
        net.drain_ms = 1_000;
        let server =
            NetServer::start(Arc::clone(&service), net).expect("the benchmark server binds");
        let addr = server.listen_addr();
        Self {
            service,
            server,
            addr,
        }
    }

    pub fn connect(&self, codec: Codec) -> NetClient {
        NetClient::connect(&self.addr, codec).expect("the benchmark server accepts")
    }

    /// Drains the front door, joins its threads and waits out the
    /// worker pool.
    pub fn stop(self) {
        self.server.request_drain();
        self.server.wait();
        self.service.wait_idle();
    }

    /// Engine runs started across all keys (the `ServiceStats` field).
    pub fn engine_runs(&self) -> u64 {
        self.service.service_stats().1
    }
}

/// Registers a prior over a client and returns its key.
pub fn register(client: &mut NetClient, prior: &Categorical, delta: f64) -> Result<u64, String> {
    let request = Request::Register {
        name: None,
        prior: prior.probs().to_vec(),
        delta,
        slots: None,
        lazy: None,
    };
    match client.request(&request) {
        Ok(Response::Registered {
            key, warm: true, ..
        }) => Ok(key),
        other => Err(format!("Register got {other:?}")),
    }
}

/// The served front of a key.
pub fn front(client: &mut NetClient, key: u64) -> Result<Vec<FrontPoint>, String> {
    match client.request(&Request::Front {
        key: Some(key),
        name: None,
    }) {
        Ok(Response::Front { points, .. }) if !points.is_empty() => Ok(points),
        other => Err(format!("Front got {other:?}")),
    }
}

/// Reads the named counters through the `Metrics` verb.
pub fn counters(client: &mut NetClient, names: &[&str]) -> Result<Vec<u64>, String> {
    match client.request(&Request::Metrics) {
        Ok(Response::Metrics { counters, .. }) => Ok(names
            .iter()
            .map(|name| {
                counters
                    .iter()
                    .find(|c| c.name == *name)
                    .map_or(0, |c| c.value)
            })
            .collect()),
        other => Err(format!("Metrics got {other:?}")),
    }
}

/// Runs `setup` `reps` times, tearing down all but the last, and returns
/// the kept state with the median set-up seconds.
pub fn timed_setup<S>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let start = Instant::now();
        let state = setup();
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 < reps {
            teardown(state);
        } else {
            kept = Some(state);
        }
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// A reply's variant name and at most a line of its payload.
pub fn brief(response: &Response) -> String {
    let text = format!("{response:?}");
    text.chars().take(160).collect()
}

/// Counts of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// What one measured slice of a workload produced.
#[derive(Debug, Default)]
pub struct Slice {
    /// Units of work completed (keys warmed, queries answered, records
    /// ingested).
    pub work: u64,
    pub elapsed_s: f64,
    /// Latency of the workload's main verb, from each request's send.
    pub main_ns: Vec<u64>,
    /// Latency of the workload's second verb.
    pub second_ns: Vec<u64>,
    pub tally: Tally,
    /// Correctness gates that failed inside the loop.
    pub gate_failures: Vec<String>,
}

impl Slice {
    pub fn work_per_s(&self) -> f64 {
        self.work as f64 / self.elapsed_s
    }

    /// A main-verb reply that completed `work` units, `ns` after its send.
    pub fn main(&mut self, ns: u64, work: u64) {
        self.work += work;
        self.main_ns.push(ns);
    }

    /// Counts one reply and keeps it when it has the expected type. A
    /// transport error returns `Err`: the connection is gone and the
    /// caller stops its loop.
    pub fn accept(
        &mut self,
        verb: &str,
        reply: std::io::Result<Response>,
        expect: impl Fn(&Response) -> bool,
    ) -> Result<Option<Response>, ()> {
        match reply {
            Ok(response) if expect(&response) => {
                self.tally.note(true);
                Ok(Some(response))
            }
            Ok(response) => {
                self.tally.note(false);
                self.fail(format!("{verb} answered {}", brief(&response)));
                Ok(None)
            }
            Err(error) => {
                self.tally.note(false);
                self.fail(format!("{verb} transport error: {error}"));
                Err(())
            }
        }
    }

    /// Notes a failed gate (keeping the first few messages).
    pub fn fail(&mut self, message: String) {
        if self.gate_failures.len() < 8 {
            self.gate_failures.push(message);
        } else if self.gate_failures.len() == 8 {
            self.gate_failures.push("(further failures omitted)".into());
        }
    }

    /// Adds another slice's counts and samples; elapsed times add up, so
    /// join concurrent parts with [`merge`] instead.
    pub fn absorb(&mut self, other: Slice) {
        self.elapsed_s += other.elapsed_s;
        self.work += other.work;
        self.main_ns.extend(other.main_ns);
        self.second_ns.extend(other.second_ns);
        self.tally.add(&other.tally);
        self.gate_failures.extend(other.gate_failures);
    }
}

/// Joins the per-connection slices (and their spans) of one phase.
pub fn merge(results: Vec<(Slice, Option<Tracer>)>, elapsed_s: f64) -> (Slice, Option<Tracer>) {
    let mut slice = Slice::default();
    let mut tracer: Option<Tracer> = None;
    for (part, spans) in results {
        slice.absorb(part);
        slice.elapsed_s = elapsed_s;
        if let Some(spans) = spans {
            match tracer.as_mut() {
                Some(t) => t.absorb(spans),
                None => tracer = Some(spans),
            }
        }
    }
    (slice, tracer)
}
