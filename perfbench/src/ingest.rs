//! `ingest`: the write path beside reads. Two Unix-socket connections,
//! one JSON and one binary, each keep a window of 16 requests open over
//! 80% Ingest (raw records, batch size drawn from {64, 256, 1024, 4096},
//! explicit per-batch seed), 15% BestForPrivacy and 5% Estimate, across 8
//! paper-shaped keys. Drift refresh is off, so no engine runs.

use crate::util::{
    hv_ratio, ns_since, paper_prior, pick_delta, register, run0_config, served_prior,
    standard_config, stream_rng, Rig, Slice, Tracer, Transport,
};
use optrr::FrontPoint;
use rand::Rng;
use serve::{Codec, NetClient, Request, Response, ServiceConfig};
use stats::Categorical;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const KEYS: usize = 8;
const N: usize = 10;
pub const CODECS: [Codec; 2] = [Codec::Json, Codec::Binary];
pub const WINDOW: usize = 16;
pub const BATCHES: [usize; 4] = [64, 256, 1024, 4096];
/// Requests generated per connection; the loop cycles through them,
/// advancing every Ingest seed on each lap so no batch repeats its noise.
const STREAM_LEN: usize = 1024;
/// Records each key receives during set-up, which pins its pipeline.
const PRIMING_RECORDS: usize = 4096;

pub struct IngestKey {
    pub key: u64,
    pub prior: Categorical,
    pub delta: f64,
    pub front: Vec<FrontPoint>,
    /// The privacy floor the key's pipeline is pinned at.
    pub floor: f64,
}

/// What one generated request is, for the reply check and the tally.
#[derive(Clone, Copy)]
pub enum Kind {
    Ingest { key: usize, records: u64 },
    Query,
    Estimate,
}

pub struct Ingest {
    pub rig: Rig,
    clients: Vec<NetClient>,
    pub keys: Vec<IngestKey>,
    pub streams: Vec<Vec<(Request, Kind)>>,
    cursors: Vec<usize>,
    /// Raw records each key accepted, by the benchmark's own count.
    pub sent: Vec<u64>,
    pub engine_runs_after_setup: u64,
}

/// The ingest service: the standard budget with drift refresh off.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        refresh_on_drift: false,
        ..standard_config()
    }
}

/// Starts the service, warms the 8 keys and pins each key's pipeline
/// with one priming batch.
pub fn setup(seed: u64) -> Ingest {
    let rig = Rig::start(config(), Transport::Unix);
    let mut clients: Vec<NetClient> = CODECS.iter().map(|&codec| rig.connect(codec)).collect();
    let mut rng = stream_rng(seed, 300);
    let specs: Vec<(Categorical, f64, Vec<usize>)> = (0..KEYS)
        .map(|_| {
            let prior = paper_prior(&mut rng, N);
            let delta = pick_delta(&mut rng);
            let priming = prior.sample_many(&mut rng, PRIMING_RECORDS);
            (prior, delta, priming)
        })
        .collect();
    let mut warmed: Vec<(usize, IngestKey)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let specs = &specs;
                scope.spawn(move || {
                    (c..KEYS)
                        .step_by(CODECS.len())
                        .map(|i| {
                            let (prior, delta, priming) = &specs[i];
                            let key = register(client, prior, *delta).expect("ingest key warms");
                            let front =
                                crate::util::front(client, key).expect("ingest key serves a front");
                            let floor = front[front.len() / 2].privacy;
                            let pin = Request::Ingest {
                                key: Some(key),
                                name: None,
                                min_privacy: Some(floor),
                                records: Some(priming.clone()),
                                counts: None,
                                seed: Some(i as u64),
                            };
                            match client.request(&pin) {
                                Ok(Response::Ingested { .. }) => {}
                                other => panic!("priming ingest got {other:?}"),
                            }
                            let prior = prior.clone();
                            (
                                i,
                                IngestKey {
                                    key,
                                    prior,
                                    delta: *delta,
                                    front,
                                    floor,
                                },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ingest setup thread"))
            .collect()
    });
    warmed.sort_by_key(|(i, _)| *i);
    let engine_runs_after_setup = rig.engine_runs();
    Ingest {
        rig,
        clients,
        keys: warmed.into_iter().map(|(_, k)| k).collect(),
        streams: Vec::new(),
        cursors: vec![0; CODECS.len()],
        sent: vec![PRIMING_RECORDS as u64; KEYS],
        engine_runs_after_setup,
    }
}

impl Ingest {
    pub fn stop(self) {
        drop(self.clients);
        self.rig.stop();
    }

    /// Generates each connection's request stream from the seed.
    pub fn prepare(&mut self, seed: u64) {
        self.streams = (0..CODECS.len() as u64)
            .map(|c| {
                let mut rng = stream_rng(seed, 310 + c);
                (0..STREAM_LEN)
                    .map(|_| {
                        let index = rng.gen_range(0..KEYS);
                        let k = &self.keys[index];
                        let key = Some(k.key);
                        let verb = rng.gen_range(0..100u32);
                        if verb < 80 {
                            let size = BATCHES[rng.gen_range(0..BATCHES.len())];
                            let records = k.prior.sample_many(&mut rng, size);
                            let request = Request::Ingest {
                                key,
                                name: None,
                                min_privacy: Some(k.floor),
                                records: Some(records),
                                counts: None,
                                seed: Some(rng.gen::<u64>()),
                            };
                            (
                                request,
                                Kind::Ingest {
                                    key: index,
                                    records: size as u64,
                                },
                            )
                        } else if verb < 95 {
                            let (first, last) = (k.front[0], k.front[k.front.len() - 1]);
                            let t = rng.gen::<f64>();
                            let min_privacy = first.privacy + t * (last.privacy - first.privacy);
                            (
                                Request::BestForPrivacy {
                                    key,
                                    name: None,
                                    min_privacy,
                                },
                                Kind::Query,
                            )
                        } else {
                            (Request::Estimate { key, name: None }, Kind::Estimate)
                        }
                    })
                    .collect()
            })
            .collect();
    }

    /// Runs the window loop on every connection for `seconds`. Main verb:
    /// Ingest (work = records); second verb: Estimate.
    pub fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> (Slice, Option<Tracer>) {
        assert!(
            !self.streams.is_empty(),
            "prepare() generates the streams first"
        );
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results: Vec<(Slice, Vec<u64>, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.streams.iter_mut())
                .zip(self.cursors.iter_mut())
                .map(|((client, stream), cursor)| {
                    let fork = tracer.map(Tracer::fork);
                    scope.spawn(move || window_loop(client, stream, cursor, deadline, fork))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest client thread"))
                .collect()
        });
        let mut parts = Vec::new();
        for (slice, sent, spans) in results {
            for (total, more) in self.sent.iter_mut().zip(sent) {
                *total += more;
            }
            parts.push((slice, spans));
        }
        crate::util::merge(parts, start.elapsed().as_secs_f64())
    }

    /// Gates: each key's accumulated record count equals the benchmark's
    /// own tally and no engine ran after set-up. Returns the failures and
    /// `front_hv_ratio` over the keys.
    pub fn check(&self) -> (Vec<String>, f64) {
        let service = &self.rig.service;
        let mut failures = Vec::new();
        for (k, &sent) in self.keys.iter().zip(&self.sent) {
            let held = service
                .resolve(Some(k.key), None)
                .ok()
                .and_then(|entry| entry.pipeline())
                .map(|pipeline| pipeline.counts().total());
            if held != Some(sent) {
                failures.push(format!(
                    "key {:x} holds {held:?} records, the benchmark sent {sent}",
                    k.key
                ));
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

/// A seed step coprime to everything, so lap `n` of a batch uses
/// `seed + n * LAP_SEED_STEP`.
const LAP_SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

fn window_loop(
    client: &mut NetClient,
    stream: &mut [(Request, Kind)],
    cursor: &mut usize,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> (Slice, Vec<u64>, Option<Tracer>) {
    let mut slice = Slice::default();
    let mut sent = vec![0u64; KEYS];
    let mut inflight: VecDeque<(Instant, u64, usize)> = VecDeque::with_capacity(WINDOW);
    let window_id = tracer.as_ref().map_or(0, Tracer::next_id);
    let window_t0 = tracer.as_ref().map_or(0, Tracer::now_ns);
    loop {
        while inflight.len() < WINDOW && Instant::now() < deadline {
            let position = *cursor;
            *cursor += 1;
            let index = position % stream.len();
            let t0 = tracer.as_ref().map_or(0, Tracer::now_ns);
            let at = Instant::now();
            if let Err(error) = client.send(&stream[index].0) {
                slice.tally.note(false);
                slice.fail(format!("ingest-workload send failed: {error}"));
                return (slice, sent, tracer);
            }
            if let Request::Ingest {
                seed: Some(seed), ..
            } = &mut stream[index].0
            {
                *seed = seed.wrapping_add(LAP_SEED_STEP);
            }
            inflight.push_back((at, t0, position));
        }
        let Some((at, t0, position)) = inflight.pop_front() else {
            break;
        };
        let reply = client.recv();
        let ns = ns_since(at);
        let kind = stream[position % stream.len()].1;
        let (verb, name): (&str, &'static str) = match kind {
            Kind::Ingest { .. } => ("ingest", "ingest.ingest"),
            Kind::Query => ("best_for_privacy", "ingest.query"),
            Kind::Estimate => ("estimate", "ingest.estimate"),
        };
        if let Some(t) = tracer.as_mut() {
            t.record(name, window_id, position as u64, t0, t0 + ns);
        }
        let accepted = slice.accept(verb, reply, |r| match kind {
            Kind::Ingest { records, .. } => {
                matches!(r, Response::Ingested { accepted, .. } if *accepted == records)
            }
            Kind::Query => matches!(r, Response::Matrix { .. }),
            Kind::Estimate => matches!(r, Response::Estimated { .. }),
        });
        match accepted {
            Ok(Some(_)) => match kind {
                Kind::Ingest { key, records } => {
                    sent[key] += records;
                    slice.main(ns, records);
                }
                Kind::Estimate => slice.second_ns.push(ns),
                Kind::Query => {}
            },
            Ok(None) => {}
            Err(()) => return (slice, sent, tracer),
        }
    }
    if let Some(t) = tracer.as_mut() {
        let end = t.now_ns();
        t.push(window_id, "ingest.window", 0, 0, window_t0, end);
    }
    (slice, sent, tracer)
}
