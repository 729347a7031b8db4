//! `query`: the warm read path. Two TCP connections with the binary
//! codec each send bursts of 64 requests, then read the 64 replies. The
//! mix is 90% BestForPrivacy, 9% BestForMse, 1% Front over 64 warm keys
//! (16 categories, smoke profile, 200 slots) with Zipf(1) popularity.
//! Every floor and budget lies inside the key's served range, so no query
//! misses and no coverage refresh runs the engine.

use crate::util::{
    hv_ratio, ns_since, paper_prior, pick_delta, register, run0_config, served_prior, stream_rng,
    Rig, Slice, Tracer, Transport,
};
use optrr::FrontPoint;
use rand::Rng;
use serve::{Codec, MatrixDto, NetClient, Request, Response, ServiceConfig};
use stats::Categorical;
use std::time::{Duration, Instant};

pub const KEYS: usize = 64;
const N: usize = 16;
const CLIENTS: usize = 2;
pub const BURST: usize = 64;
/// Requests generated per connection; the loop cycles through them.
const STREAM_LEN: usize = 64 * BURST;
/// Leading requests per connection whose replies the gates re-derive.
const SAMPLED: usize = 4 * BURST;

pub struct QueryKey {
    pub key: u64,
    pub prior: Categorical,
    pub delta: f64,
    pub front: Vec<FrontPoint>,
    /// Popularity rank, 0 = hottest.
    pub rank: usize,
}

pub struct Query {
    pub rig: Rig,
    clients: Vec<NetClient>,
    pub keys: Vec<QueryKey>,
    /// Per connection: the generated requests and their key indices.
    pub streams: Vec<Vec<(Request, usize)>>,
    cursors: Vec<usize>,
    sampled: Vec<Vec<(usize, Response)>>,
    pub engine_runs_after_setup: u64,
}

/// Starts the service and warms the 64 keys, half over each connection.
pub fn setup(seed: u64) -> Query {
    let rig = Rig::start(
        ServiceConfig::smoke(crate::util::SERVICE_SEED),
        Transport::Tcp,
    );
    let mut clients: Vec<NetClient> = (0..CLIENTS).map(|_| rig.connect(Codec::Binary)).collect();
    let mut rng = stream_rng(seed, 200);
    let specs: Vec<(Categorical, f64)> = (0..KEYS)
        .map(|_| (paper_prior(&mut rng, N), pick_delta(&mut rng)))
        .collect();
    let mut keys: Vec<QueryKey> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let specs = &specs;
                scope.spawn(move || {
                    (c..KEYS)
                        .step_by(CLIENTS)
                        .map(|i| {
                            let (prior, delta) = &specs[i];
                            let key = register(client, prior, *delta).expect("query key warms");
                            let front =
                                crate::util::front(client, key).expect("query key serves a front");
                            (i, key, front)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut warmed: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("query setup thread"))
            .collect();
        warmed.sort_by_key(|(i, _, _)| *i);
        warmed
            .into_iter()
            .map(|(i, key, front)| QueryKey {
                key,
                prior: specs[i].0.clone(),
                delta: specs[i].1,
                front,
                rank: 0,
            })
            .collect()
    });
    // Popularity ranks: a seeded permutation, so hot keys are not simply
    // the first registered.
    let mut order: Vec<usize> = (0..KEYS).collect();
    for i in (1..KEYS).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for (rank, &i) in order.iter().enumerate() {
        keys[i].rank = rank;
    }
    let engine_runs_after_setup = rig.engine_runs();
    Query {
        rig,
        clients,
        keys,
        streams: Vec::new(),
        cursors: vec![0; CLIENTS],
        sampled: vec![Vec::new(); CLIENTS],
        engine_runs_after_setup,
    }
}

impl Query {
    pub fn stop(self) {
        drop(self.clients);
        self.rig.stop();
    }

    /// Generates each connection's request stream from the seed and the
    /// served ranges.
    pub fn prepare(&mut self, seed: u64) {
        let by_rank: Vec<usize> = {
            let mut v: Vec<usize> = (0..KEYS).collect();
            v.sort_by_key(|&i| self.keys[i].rank);
            v
        };
        let harmonic: f64 = (1..=KEYS).map(|r| 1.0 / r as f64).sum();
        self.streams = (0..CLIENTS as u64)
            .map(|c| {
                let mut rng = stream_rng(seed, 210 + c);
                (0..STREAM_LEN)
                    .map(|_| {
                        // Zipf(1) over popularity ranks.
                        let mut u = rng.gen::<f64>() * harmonic;
                        let mut rank = 0;
                        while rank + 1 < KEYS && u >= 1.0 / (rank + 1) as f64 {
                            u -= 1.0 / (rank + 1) as f64;
                            rank += 1;
                        }
                        let index = by_rank[rank];
                        let k = &self.keys[index];
                        let key = Some(k.key);
                        let (first, last) = (k.front[0], k.front[k.front.len() - 1]);
                        let verb = rng.gen_range(0..100u32);
                        let t = rng.gen::<f64>();
                        let request = if verb < 90 {
                            Request::BestForPrivacy {
                                key,
                                name: None,
                                min_privacy: first.privacy + t * (last.privacy - first.privacy),
                            }
                        } else if verb < 99 {
                            Request::BestForMse {
                                key,
                                name: None,
                                max_mse: first.mse + t * (last.mse - first.mse),
                            }
                        } else {
                            Request::Front { key, name: None }
                        };
                        (request, index)
                    })
                    .collect()
            })
            .collect();
    }

    /// Runs the burst loop on every connection for `seconds`. Main verb:
    /// every query; second: the last reply of each burst, i.e. the time
    /// until a caller holds all 64 answers.
    pub fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> (Slice, Option<Tracer>) {
        assert!(
            !self.streams.is_empty(),
            "prepare() generates the streams first"
        );
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results: Vec<(Slice, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.streams.iter())
                .zip(self.cursors.iter_mut())
                .zip(self.sampled.iter_mut())
                .map(|(((client, stream), cursor), sampled)| {
                    let fork = tracer.map(Tracer::fork);
                    scope.spawn(move || burst_loop(client, stream, cursor, sampled, deadline, fork))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query client thread"))
                .collect()
        });
        crate::util::merge(results, start.elapsed().as_secs_f64())
    }

    /// Gates: sampled answers equal the direct `Service::best_for_privacy`
    /// answers and no engine ran after set-up. Returns the failures and
    /// `front_hv_ratio` over all keys.
    pub fn check(&self) -> (Vec<String>, f64) {
        let service = &self.rig.service;
        let mut failures = Vec::new();
        for (stream, sampled) in self.streams.iter().zip(&self.sampled) {
            if sampled.len() < SAMPLED {
                failures.push(format!(
                    "only {} of {SAMPLED} sampled replies arrived",
                    sampled.len()
                ));
            }
            for (index, reply) in sampled {
                let Request::BestForPrivacy {
                    key: Some(key),
                    min_privacy,
                    ..
                } = stream[*index].0
                else {
                    continue;
                };
                let expected = service
                    .resolve(Some(key), None)
                    .ok()
                    .and_then(|entry| service.best_for_privacy(&entry, min_privacy))
                    .map(|found| Response::Matrix {
                        key,
                        privacy: found.evaluation.privacy,
                        mse: found.evaluation.mse,
                        max_posterior: found.evaluation.max_posterior,
                        matrix: MatrixDto::from_matrix(&found.matrix),
                        degraded: false,
                    });
                if expected.as_ref() != Some(reply) {
                    failures.push(format!(
                        "query {index} answered differently from the direct API"
                    ));
                }
            }
        }
        let runs = self.rig.engine_runs();
        if runs != self.engine_runs_after_setup {
            failures.push(format!(
                "{} engine runs after set-up (expected none)",
                runs - self.engine_runs_after_setup
            ));
        }
        let config = service.config();
        let ratios: Vec<f64> = self
            .keys
            .iter()
            .map(|k| {
                hv_ratio(
                    &run0_config(config, k.delta, config.default_slots),
                    &served_prior(&k.prior),
                    &k.front,
                )
            })
            .collect();
        (failures, ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

fn burst_loop(
    client: &mut NetClient,
    stream: &[(Request, usize)],
    cursor: &mut usize,
    sampled: &mut Vec<(usize, Response)>,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> (Slice, Option<Tracer>) {
    let mut slice = Slice::default();
    let mut sent = [(Instant::now(), 0u64, 0usize); BURST];
    'bursts: while Instant::now() < deadline {
        let burst_id = tracer.as_ref().map_or(0, Tracer::next_id);
        let burst_t0 = tracer.as_ref().map_or(0, Tracer::now_ns);
        for slot in sent.iter_mut() {
            let position = *cursor;
            *cursor += 1;
            *slot = (
                Instant::now(),
                tracer.as_ref().map_or(0, Tracer::now_ns),
                position,
            );
            if let Err(error) = client.send(&stream[position % stream.len()].0) {
                slice.tally.note(false);
                slice.fail(format!("query send failed: {error}"));
                break 'bursts;
            }
        }
        for &(at, t0, position) in &sent {
            let index = position % stream.len();
            let reply = client.recv();
            let ns = ns_since(at);
            let request = &stream[index].0;
            let verb = request.verb();
            let accepted = slice.accept(verb, reply, |r| match request {
                Request::Front { .. } => matches!(r, Response::Front { .. }),
                _ => matches!(r, Response::Matrix { .. }),
            });
            if let Some(t) = tracer.as_mut() {
                t.record("query.request", burst_id, position as u64, t0, t0 + ns);
            }
            match accepted {
                Ok(Some(response)) => {
                    slice.main(ns, 1);
                    if position % BURST == BURST - 1 {
                        slice.second_ns.push(ns);
                    }
                    if position < SAMPLED && sampled.len() < SAMPLED {
                        sampled.push((index, response));
                    }
                }
                Ok(None) => {}
                Err(()) => break 'bursts,
            }
        }
        if let Some(t) = tracer.as_mut() {
            let end = t.now_ns();
            t.push(burst_id, "query.burst", 0, 0, burst_t0, end);
        }
    }
    (slice, tracer)
}
