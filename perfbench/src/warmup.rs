//! `warmup`: the cold path. Two Unix-socket JSON connections each loop
//! Register (a fresh prior, blocking) → Front → Evict → BestForPrivacy (a
//! rewarm by replay: no snapshot path is set) → Front → Evict. The
//! trailing Evict keeps resident memory flat over a long run; it costs
//! microseconds against the two engine runs of a cycle.

use crate::util::{
    hv_ratio, ns_since, paper_prior, pick_delta, register, run0_config, served_prior,
    standard_config, stream_rng, Rig, Slice, Tracer, Transport, DELTAS,
};
use optrr::{FrontPoint, Optimizer};
use rand::rngs::StdRng;
use serve::{Codec, NetClient, Request, Response};
use stats::Categorical;
use std::time::{Duration, Instant};

/// Categories per prior, as in the paper's synthetic workloads.
const N: usize = 10;
const CLIENTS: usize = 2;
/// Cycles per client whose fronts feed `front_hv_ratio`; the first
/// [`OPTIMIZER_CHECKED`] of them are also replayed on a direct optimizer.
const SAMPLED_PER_CLIENT: usize = 16;
const OPTIMIZER_CHECKED: usize = 4;

/// A warmed key kept for the correctness gates.
struct Sampled {
    prior: Categorical,
    delta: f64,
    front: Vec<FrontPoint>,
}

pub struct Warmup {
    pub rig: Rig,
    clients: Vec<NetClient>,
    streams: Vec<StdRng>,
    sampled: Vec<Vec<Sampled>>,
}

/// Starts the service and proves the cold path answers: one canary key
/// per δ, registered before any timing.
pub fn setup(seed: u64) -> Warmup {
    let rig = Rig::start(standard_config(), Transport::Unix);
    let mut clients: Vec<NetClient> = (0..CLIENTS).map(|_| rig.connect(Codec::Json)).collect();
    let mut canary = stream_rng(seed, 100);
    for (i, &delta) in DELTAS.iter().enumerate() {
        let prior = paper_prior(&mut canary, N);
        register(&mut clients[i % CLIENTS], &prior, delta).expect("canary registration");
    }
    Warmup {
        rig,
        clients,
        streams: (0..CLIENTS as u64)
            .map(|c| stream_rng(seed, 110 + c))
            .collect(),
        sampled: (0..CLIENTS).map(|_| Vec::new()).collect(),
    }
}

impl Warmup {
    pub fn stop(self) {
        drop(self.clients);
        self.rig.stop();
    }

    /// Runs the cycle loop on every connection for `seconds`. Main verb:
    /// Register (work = keys warmed); second verb: the rewarming query.
    pub fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> (Slice, Option<Tracer>) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results: Vec<(Slice, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.streams.iter_mut())
                .zip(self.sampled.iter_mut())
                .map(|((client, rng), sampled)| {
                    let fork = tracer.map(Tracer::fork);
                    scope.spawn(move || cycle_loop(client, rng, sampled, deadline, fork))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warmup client thread"))
                .collect()
        });
        crate::util::merge(results, start.elapsed().as_secs_f64())
    }

    /// The gates that need the direct API: served fronts of sampled keys
    /// equal a direct optimizer run with the key's run-0 config. Returns
    /// the failures and `front_hv_ratio` over the sampled keys.
    pub fn check(&self) -> (Vec<String>, f64) {
        let config = self.rig.service.config();
        let mut failures = Vec::new();
        let mut ratios = Vec::new();
        for per_client in &self.sampled {
            if per_client.len() < SAMPLED_PER_CLIENT {
                failures.push(format!(
                    "only {} of {SAMPLED_PER_CLIENT} sampled cycles completed",
                    per_client.len()
                ));
            }
            for (i, s) in per_client.iter().enumerate() {
                let run0 = run0_config(config, s.delta, config.default_slots);
                let prior = served_prior(&s.prior);
                if i < OPTIMIZER_CHECKED {
                    let direct: Vec<FrontPoint> = Optimizer::new(run0.clone())
                        .and_then(|o| o.optimize_distribution(&prior))
                        .map(|outcome| {
                            outcome
                                .omega
                                .pareto_entries()
                                .iter()
                                .map(|e| FrontPoint::from_evaluation(&e.evaluation))
                                .collect()
                        })
                        .unwrap_or_default();
                    if direct != s.front {
                        failures.push(format!(
                            "served front of sampled key {i} differs from a direct run"
                        ));
                    }
                }
                ratios.push(hv_ratio(&run0, &prior, &s.front));
            }
        }
        let hv = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        (failures, hv)
    }
}

fn cycle_loop(
    client: &mut NetClient,
    rng: &mut StdRng,
    sampled: &mut Vec<Sampled>,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> (Slice, Option<Tracer>) {
    let mut slice = Slice::default();
    let mut cycle = 0u64;
    // One round trip: times it, records its span, checks the reply type.
    macro_rules! call {
        ($name:literal, $parent:expr, $request:expr, $pattern:pat) => {{
            let t0 = tracer.as_ref().map_or(0, Tracer::now_ns);
            let start = Instant::now();
            let reply = client.request(&$request);
            let ns = ns_since(start);
            if let Some(t) = tracer.as_mut() {
                t.record($name, $parent, cycle, t0, t0 + ns);
            }
            match slice.accept($name, reply, |r| matches!(r, $pattern)) {
                Ok(Some(response)) => (response, ns),
                Ok(None) => continue,
                Err(()) => break,
            }
        }};
    }
    while Instant::now() < deadline {
        let prior = paper_prior(rng, N);
        let delta = pick_delta(rng);
        let parent = tracer.as_ref().map_or(0, Tracer::next_id);
        let cycle_t0 = tracer.as_ref().map_or(0, Tracer::now_ns);
        let register = Request::Register {
            name: None,
            prior: prior.probs().to_vec(),
            delta,
            slots: None,
            lazy: None,
        };
        let (reply, ns) = call!(
            "warmup.register",
            parent,
            register,
            Response::Registered { warm: true, .. }
        );
        let Response::Registered { key, .. } = reply else {
            unreachable!()
        };
        slice.main(ns, 1);
        let key = Some(key);
        let (reply, _) = call!(
            "warmup.front",
            parent,
            Request::Front { key, name: None },
            Response::Front { .. }
        );
        let Response::Front { points: before, .. } = reply else {
            unreachable!()
        };
        let Some(floor) = before.first().map(|p| p.privacy) else {
            slice.fail("a freshly warmed key served an empty front".into());
            continue;
        };
        call!(
            "warmup.evict",
            parent,
            Request::Evict { key, name: None },
            Response::Evicted { evicted: true, .. }
        );
        let rewarm = Request::BestForPrivacy {
            key,
            name: None,
            min_privacy: floor,
        };
        let (_, ns) = call!("warmup.rewarm", parent, rewarm, Response::Matrix { .. });
        slice.second_ns.push(ns);
        let (reply, _) = call!(
            "warmup.front",
            parent,
            Request::Front { key, name: None },
            Response::Front { .. }
        );
        let Response::Front { points: after, .. } = reply else {
            unreachable!()
        };
        if after != before {
            slice.fail(format!(
                "rewarmed front of cycle {cycle} differs from the pre-eviction front"
            ));
        }
        call!(
            "warmup.evict",
            parent,
            Request::Evict { key, name: None },
            Response::Evicted { evicted: true, .. }
        );
        if let Some(t) = tracer.as_mut() {
            let end = t.now_ns();
            t.push(parent, "warmup.cycle", 0, cycle, cycle_t0, end);
        }
        if sampled.len() < SAMPLED_PER_CLIENT {
            sampled.push(Sampled {
                prior,
                delta,
                front: before,
            });
        }
        cycle += 1;
    }
    (slice, tracer)
}
