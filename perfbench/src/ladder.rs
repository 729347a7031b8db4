//! `--trace 1`: the traced layer ladder.
//!
//! A traced run first measures its workload twice, untraced and then with
//! a span around every request (the difference is the tracing overhead),
//! and then replays the same kind of requests one rung at a time through
//! each layer's public entry point, from `serve::net` down to `core` and
//! `emoo`. Every call is a span (name, start, end, parent, request id)
//! kept in memory and written to `perfbench/out/` when the run ends. A
//! layer's self time is its rung's median minus the median of the rung
//! below it, so the self times of one verb add up to its depth-1 round
//! trip. Every traced run reports the whole ladder, whatever its workload:
//! the `--workload` choice sets which workload the residual and overhead
//! describe.

use crate::ingest::{self, Ingest, BATCHES};
use crate::query::{self, Query};
use crate::util::{
    paper_prior, pick_delta, quantile, run0_config, rung, served_prior, stream_rng, Slice, Tracer,
    OUT_DIR,
};
use crate::{metric, Args, Bench, Metric, Report, Workload};
use optrr::operators::repair_to_delta_bound;
use optrr::{GenerationObservation, Optimizer, OptrrProblem};
use rand::Rng;
use rr::RrMatrix;
use serve::{protocol, wire, Codec, KeyEntry, Request, Response, Service, ServiceConfig};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept per run; later spans are counted as dropped.
const SPAN_CAP: usize = 400_000;
/// Calls per nanosecond-scale rung.
const FAST_CALLS: usize = 20_000;
/// Length of the query slice the ladder runs when the workload is not
/// `query`, for `net.query.burst_wait_p50_us`.
const QUERY_SLICE_S: f64 = 1.5;

fn p50(mut samples: Vec<u64>) -> f64 {
    quantile(&mut samples, 0.5)
}

/// Records a group span around the rungs `body` runs.
fn group<T>(
    tracer: &mut Tracer,
    name: &'static str,
    body: impl FnOnce(&mut Tracer, u64) -> T,
) -> T {
    let id = tracer.next_id();
    let start = tracer.now_ns();
    let out = body(tracer, id);
    let end = tracer.now_ns();
    tracer.push(id, name, 0, 0, start, end);
    out
}

pub fn traced(args: &Args) -> Report {
    // Untraced and traced slices alternate, so a drift of the machine
    // lands on both sides of the overhead comparison alike.
    let share = args.seconds * 0.15;
    let (mut bench, _) = Bench::setup(args.workload, args.seed, 1);
    let mut tracer = Tracer::new(SPAN_CAP);
    let (mut e2e, mut top) = (Slice::default(), Slice::default());
    for _ in 0..2 {
        e2e.absorb(bench.run(share, None).0);
        let (traced, spans) = bench.run(share, Some(&tracer));
        tracer.absorb(spans.expect("a traced slice returns its spans"));
        top.absorb(traced);
    }
    let (mut failures, _) = bench.check();
    if e2e.main_ns.is_empty() || top.main_ns.is_empty() {
        failures.push("no main-verb request completed".into());
    }
    let mut slice = Slice::default();
    for part in [e2e.gate_failures.clone(), top.gate_failures.clone()] {
        failures.extend(part);
    }
    let counts = bench.counters(&mut failures);

    let mut m = Vec::new();
    let (e2e_p50, top_p50) = (p50(e2e.main_ns.clone()), p50(top.main_ns.clone()));
    m.push(metric("ladder.e2e_p50_us", "us", e2e_p50 / 1e3));
    m.push(metric("ladder.top_p50_us", "us", top_p50 / 1e3));
    m.push(metric(
        "ladder.residual_pct",
        "%",
        (top_p50 - e2e_p50) / e2e_p50 * 100.0,
    ));
    m.push(metric(
        "trace.overhead_pct",
        "%",
        (e2e.work_per_s() / top.work_per_s() - 1.0) * 100.0,
    ));
    m.push(metric("net.conn_errors", "count", counts[0] as f64));
    m.push(metric(
        "pipeline.sampler_rebuilds",
        "count",
        counts[1] as f64,
    ));
    m.push(metric("lifecycle.rewarms", "count", counts[2] as f64));
    m.push(metric(
        "service.refresh_failures",
        "count",
        counts[3] as f64,
    ));
    let query_top_ns = (args.workload == Workload::Query).then_some(top_p50);
    slice.absorb(e2e);
    slice.absorb(top);

    let (mut q, mut i) = match bench {
        Bench::Query(q) => (q, ingest_state(args.seed)),
        Bench::Ingest(i) => (query_state(args.seed), i),
        Bench::Warmup(w) => {
            w.stop();
            (query_state(args.seed), ingest_state(args.seed))
        }
    };
    let query_top_ns = query_top_ns.unwrap_or_else(|| {
        let (burst, spans) = q.run(QUERY_SLICE_S, Some(&tracer));
        tracer.absorb(spans.expect("a traced slice returns its spans"));
        failures.extend(burst.gate_failures.clone());
        slice.tally.add(&burst.tally);
        p50(burst.main_ns)
    });
    let query_ladder = group(&mut tracer, "ladder.query", |t, parent| {
        query_rungs(&q, t, parent, query_top_ns)
    });
    let ingest_ladder = group(&mut tracer, "ladder.ingest", |t, parent| {
        ingest_rungs(&mut i, t, parent, args.seed)
    });
    let engine_ladder = group(&mut tracer, "ladder.engine", |t, parent| {
        engine_rungs(&i, t, parent, args.seed, query_ladder.net_self_ns)
    });
    m.extend(query_ladder.metrics);
    m.extend(ingest_ladder);
    m.extend(engine_ladder);
    q.stop();
    i.stop();

    let path = format!(
        "{OUT_DIR}/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    match tracer.write(&path) {
        Ok(()) => println!(
            "# spans: {} written to {path}, {} dropped",
            tracer.len(),
            tracer.dropped()
        ),
        Err(error) => failures.push(format!("writing {path}: {error}")),
    }
    Report {
        metrics: m,
        slice,
        failures,
    }
}

fn query_state(seed: u64) -> Query {
    let mut q = query::setup(seed);
    q.prepare(seed);
    q
}

fn ingest_state(seed: u64) -> Ingest {
    let mut i = ingest::setup(seed);
    i.prepare(seed);
    i
}

struct QueryLadder {
    metrics: Vec<Metric>,
    /// `net.query.rtt_self`, reused to derive the worker wait.
    net_self_ns: f64,
}

/// `shard` → `service` → `wire` → `net` for BestForPrivacy, plus the
/// telemetry twin and the front merge.
fn query_rungs(q: &Query, t: &mut Tracer, parent: u64, burst_ns: f64) -> QueryLadder {
    let service = &q.rig.service;
    let entries: Vec<Arc<KeyEntry>> = q
        .keys
        .iter()
        .map(|k| {
            service
                .resolve(Some(k.key), None)
                .expect("query keys stay registered")
        })
        .collect();
    // (key index, floor) of every BestForPrivacy in the first stream.
    let asks: Vec<(usize, f64)> = q.streams[0]
        .iter()
        .filter_map(|(request, index)| match request {
            Request::BestForPrivacy { min_privacy, .. } => Some((*index, *min_privacy)),
            _ => None,
        })
        .collect();
    let request = |&(index, min_privacy): &(usize, f64)| Request::BestForPrivacy {
        key: Some(q.keys[index].key),
        name: None,
        min_privacy,
    };
    let by_rank = |keep: &dyn Fn(usize) -> bool| -> Vec<(usize, f64)> {
        asks.iter()
            .copied()
            .filter(|&(index, _)| keep(q.keys[index].rank))
            .collect()
    };
    let hot = by_rank(&|rank| rank < query::KEYS / 10);
    let tail = by_rank(&|rank| rank >= query::KEYS / 2);
    let shard = |asks: &[(usize, f64)], t: &mut Tracer, name| {
        p50(rung(t, name, parent, FAST_CALLS, |c| {
            let (index, floor) = asks[c % asks.len()];
            black_box(entries[index].store().best_for_privacy_at_least(floor));
        }))
    };
    let shard_hot = shard(&hot, t, "shard.query.hot");
    let shard_tail = shard(&tail, t, "shard.query.tail");
    let shard_all = shard(&asks, t, "shard.query");
    let resolve = p50(rung(t, "service.resolve", parent, FAST_CALLS, |c| {
        black_box(
            service
                .resolve(Some(q.keys[asks[c % asks.len()].0].key), None)
                .ok(),
        );
    }));
    let api = p50(rung(
        t,
        "service.best_for_privacy",
        parent,
        FAST_CALLS,
        |c| {
            let (index, floor) = asks[c % asks.len()];
            black_box(service.best_for_privacy(&entries[index], floor));
        },
    ));
    let handle = p50(rung(t, "service.handle.query", parent, FAST_CALLS, |c| {
        black_box(service.handle(request(&asks[c % asks.len()])));
    }));
    let pairs: Vec<(Request, Response)> = asks
        .iter()
        .take(256)
        .map(|ask| (request(ask), service.handle(request(ask))))
        .collect();
    let mut bytes = Vec::new();
    let codec = p50(rung(t, "wire.query.codec", parent, FAST_CALLS / 4, |c| {
        let (req, resp) = &pairs[c % pairs.len()];
        bytes.push(binary_round_trip(req, resp));
    }));
    let mut client = q.rig.connect(Codec::Binary);
    let rtt = p50(rung(t, "net.query.depth1", parent, 2_000, |c| {
        let reply = client.request(&pairs[c % pairs.len()].0);
        black_box(reply.ok());
    }));
    drop(client);
    let net_self = rtt - codec - handle;

    // Metrics-on against metrics-off: the same keys on a twin service
    // that records nothing, in interleaved blocks. The metrics-on rung
    // records what a network session records around `handle`.
    let twin = Arc::new(Service::new(ServiceConfig {
        metrics: false,
        ..service.config().clone()
    }));
    let twin_keys = 8;
    for k in &q.keys[..twin_keys] {
        twin.register(None, k.prior.probs(), k.delta, None, true)
            .expect("twin key warms");
    }
    let near: Vec<(usize, f64)> = asks
        .iter()
        .copied()
        .filter(|&(index, _)| index < twin_keys)
        .collect();
    let obs = service.obs();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        on.extend(rung(t, "telemetry.handle.on", parent, 512, |c| {
            let request = request(&near[c % near.len()]);
            let verb = request.verb();
            let start = obs.now_ns();
            let response = service.handle(request);
            let elapsed = obs.now_ns().saturating_sub(start);
            obs.record_verb(verb, elapsed);
            obs.record_net_verb(verb, Codec::Binary.label(), elapsed);
            black_box(response);
        }));
        off.extend(rung(t, "telemetry.handle.off", parent, 512, |c| {
            black_box(twin.handle(request(&near[c % near.len()])));
        }));
    }
    twin.wait_idle();
    let merge = p50(rung(t, "shard.front_merge", parent, 4 * query::KEYS, |c| {
        black_box(entries[c % entries.len()].store().merge());
    }));
    let metrics = vec![
        metric("net.query.rtt_self_p50_us", "us", net_self / 1e3),
        metric("net.query.burst_wait_p50_us", "us", (burst_ns - rtt) / 1e3),
        metric("wire.query.codec_p50_ns", "ns", codec),
        metric(
            "wire.query.bytes",
            "B",
            bytes.iter().sum::<usize>() as f64 / bytes.len() as f64,
        ),
        metric("service.query.handle_self_p50_ns", "ns", handle - api),
        metric("service.query.api_self_p50_ns", "ns", api - shard_all),
        metric("service.resolve.p50_ns", "ns", resolve),
        metric(
            "telemetry.handle_overhead_pct",
            "%",
            (p50(on) / p50(off) - 1.0) * 100.0,
        ),
        metric("shard.query.hot_p50_ns", "ns", shard_hot),
        metric("shard.query.tail_p50_ns", "ns", shard_tail),
        metric("shard.front_merge.p50_us", "us", merge / 1e3),
    ];
    QueryLadder {
        metrics,
        net_self_ns: net_self,
    }
}

/// Encodes and decodes a request and its response as binary frames, the
/// way the client and the server session do; returns the bytes moved.
fn binary_round_trip(request: &Request, response: &Response) -> usize {
    let unframe = |frame: &[u8]| -> (u8, Vec<u8>) {
        let len = wire::parse_header(frame[..4].try_into().expect("a 4-byte header"))
            .expect("valid header");
        let (tag, payload) = wire::parse_body(&frame[4..4 + len]).expect("valid body");
        (tag, payload.to_vec())
    };
    let out = wire::encode_request_frame(request).expect("requests encode");
    let (tag, payload) = unframe(&out);
    black_box(wire::decode_request_frame(tag, &payload).expect("requests decode"));
    let back = wire::encode_response_frame(response).expect("responses encode");
    let (tag, payload) = unframe(&back);
    black_box(wire::decode_response_frame(tag, &payload).expect("responses decode"));
    out.len() + back.len()
}

/// The same round trip through the JSON line codec.
fn json_round_trip(request: &Request, response: &Response) -> usize {
    let out = protocol::encode_request(request);
    black_box(protocol::decode_request(&out).expect("requests decode"));
    let back = protocol::encode_response(response);
    black_box(protocol::decode_response(&back).expect("responses decode"));
    out.len() + back.len() + 2
}

/// `net` → codecs → `service` → `pipeline` → `rr` for Ingest and
/// Estimate, plus the deterministic estimate quality and the lifecycle.
fn ingest_rungs(i: &mut Ingest, t: &mut Tracer, parent: u64, seed: u64) -> Vec<Metric> {
    let service = Arc::clone(&i.rig.service);
    let k = &i.keys[0];
    let entry = service
        .resolve(Some(k.key), None)
        .expect("ingest keys stay registered");
    let mut rng = stream_rng(seed, 400);
    let mut m = Vec::new();
    let mut direct_256 = 0.0;
    for size in BATCHES {
        let calls = (1 << 18) / size;
        let batches: Vec<Vec<usize>> = (0..8)
            .map(|_| k.prior.sample_many(&mut rng, size))
            .collect();
        let ns = p50(rung(t, "pipeline.ingest", parent, calls, |c| {
            let outcome = service.ingest(
                &entry,
                Some(k.floor),
                Some(&batches[c % 8]),
                None,
                Some(c as u64),
            );
            black_box(outcome.expect("direct ingest lands"));
        }));
        if size == 256 {
            direct_256 = ns;
        }
        m.push(metric(
            format!("pipeline.ingest.ns_per_record.b{size}"),
            "ns",
            ns / size as f64,
        ));
    }
    let records = k.prior.sample_many(&mut rng, 256);
    let ingest_request = Request::Ingest {
        key: Some(k.key),
        name: None,
        min_privacy: Some(k.floor),
        records: Some(records.clone()),
        counts: None,
        seed: Some(seed),
    };
    let ingested = service.handle(ingest_request.clone());
    let mut wire_bytes = 0;
    let wire_codec = p50(rung(t, "wire.ingest.codec", parent, 2_000, |_| {
        wire_bytes = binary_round_trip(&ingest_request, &ingested);
    }));
    let mut json_bytes = 0;
    let json_codec = p50(rung(t, "protocol.ingest.codec", parent, 2_000, |_| {
        json_bytes = json_round_trip(&ingest_request, &ingested);
    }));
    let mut pool: Vec<Request> = (0..512).map(|_| ingest_request.clone()).collect();
    let handle = p50(rung(t, "service.handle.ingest", parent, pool.len(), |c| {
        black_box(service.handle(std::mem::replace(&mut pool[c], Request::Sync)));
    }));
    let mut client = i.rig.connect(Codec::Binary);
    let rtt = p50(rung(t, "net.ingest.depth1", parent, 512, |_| {
        black_box(client.request(&ingest_request).ok());
    }));
    drop(client);
    let estimate = p50(rung(t, "pipeline.estimate", parent, 256, |_| {
        black_box(service.estimate(&entry).expect("the key has responses"));
    }));
    let estimate_handle = p50(rung(t, "service.handle.estimate", parent, 256, |_| {
        black_box(service.handle(Request::Estimate {
            key: Some(k.key),
            name: None,
        }));
    }));
    let pipeline = entry.pipeline().expect("the key's pipeline is pinned");
    let dataset = datagen::CategoricalDataset::new(
        k.prior.num_categories(),
        k.prior.sample_many(&mut rng, 1024),
    )
    .expect("valid records");
    let disguise = p50(rung(t, "rr.disguise", parent, 512, |c| {
        let mut draw = stream_rng(seed, 1_000 + c as u64);
        black_box(
            rr::disguise_dataset_with(pipeline.samplers(), &dataset, &mut draw).expect("disguise"),
        );
    }));
    let counts = pipeline.counts().merge().counts().to_vec();
    let inversion = p50(rung(t, "rr.inversion", parent, 1_024, |_| {
        black_box(rr::estimate::estimate_from_counts(pipeline.matrix(), &counts).ok());
    }));
    m.extend([
        metric(
            "net.ingest.rtt_self_p50_us",
            "us",
            (rtt - wire_codec - handle) / 1e3,
        ),
        metric("wire.ingest.codec_p50_ns", "ns", wire_codec),
        metric(
            "wire.ingest.bytes_per_record",
            "B",
            wire_bytes as f64 / 256.0,
        ),
        metric("protocol.ingest.codec_p50_ns", "ns", json_codec),
        metric(
            "protocol.ingest.bytes_per_record",
            "B",
            json_bytes as f64 / 256.0,
        ),
        metric(
            "service.ingest.handle_self_p50_us",
            "us",
            (handle - direct_256) / 1e3,
        ),
        metric(
            "service.estimate.handle_self_p50_us",
            "us",
            (estimate_handle - estimate) / 1e3,
        ),
        metric("pipeline.estimate.p50_us", "us", estimate / 1e3),
        metric("rr.disguise.ns_per_record", "ns", disguise / 1024.0),
        metric("rr.inversion.p50_us", "us", inversion / 1e3),
    ]);

    // Deterministic estimate quality: fresh keys receive a fixed seeded
    // stream, then the estimate is compared with the empirical
    // distribution of what was sent.
    let mut quality = stream_rng(seed, 410);
    let mut fresh = Vec::new();
    let mut mses = Vec::new();
    for _ in 0..4 {
        let prior = paper_prior(&mut quality, 10);
        let delta = pick_delta(&mut quality);
        let entry = service
            .register(None, prior.probs(), delta, None, true)
            .expect("a fresh key warms");
        let floor = entry
            .store()
            .privacy_range()
            .map_or(0.0, |(lo, hi)| 0.5 * (lo + hi));
        let mut sent = vec![0u64; prior.num_categories()];
        for batch in 0..16u64 {
            let records = prior.sample_many(&mut quality, 4096);
            for &r in &records {
                sent[r] += 1;
            }
            service
                .ingest(&entry, Some(floor), Some(&records), None, Some(batch))
                .expect("a fresh key ingests");
        }
        let estimate = service.estimate(&entry).expect("a fresh key estimates");
        let total: u64 = sent.iter().sum();
        let mse = estimate
            .distribution
            .probs()
            .iter()
            .zip(&sent)
            .map(|(p, &c)| (p - c as f64 / total as f64).powi(2))
            .sum::<f64>()
            / sent.len() as f64;
        mses.push(mse);
        fresh.push(entry);
    }
    m.push(metric(
        "pipeline.estimate_mse",
        "mse",
        mses.iter().sum::<f64>() / mses.len() as f64,
    ));

    // Lifecycle: direct eviction, then the rewarm by replay.
    let (mut evict, mut rewarm) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for entry in &fresh {
            evict.extend(rung(t, "lifecycle.evict", parent, 1, |_| {
                black_box(service.evict_key(entry));
            }));
            rewarm.extend(rung(t, "lifecycle.rewarm", parent, 1, |_| {
                service.ensure_live(entry)
            }));
        }
    }
    m.push(metric("lifecycle.evict.p50_us", "us", p50(evict) / 1e3));
    m.push(metric("lifecycle.rewarm.p50_ms", "ms", p50(rewarm) / 1e6));
    m
}

/// The cold path below the service: Register round trips against direct
/// optimizer runs of the same keys, then `core` and `emoo` kernels.
fn engine_rungs(
    i: &Ingest,
    t: &mut Tracer,
    parent: u64,
    seed: u64,
    net_self_ns: f64,
) -> Vec<Metric> {
    let config = i.rig.service.config().clone();
    let mut rng = stream_rng(seed, 430);
    let keys: Vec<_> = (0..6)
        .map(|_| (paper_prior(&mut rng, 10), pick_delta(&mut rng)))
        .collect();
    let mut client = i.rig.connect(Codec::Json);
    let mut codec_pairs = Vec::new();
    let register = p50(rung(t, "net.register", parent, keys.len(), |c| {
        let (prior, delta) = &keys[c];
        let request = Request::Register {
            name: None,
            prior: prior.probs().to_vec(),
            delta: *delta,
            slots: None,
            lazy: None,
        };
        let reply = client.request(&request).expect("Register answers");
        codec_pairs.push((request, reply));
    }));
    drop(client);
    let register_codec = p50(rung(t, "protocol.register.codec", parent, 512, |c| {
        let (request, reply) = &codec_pairs[c % codec_pairs.len()];
        black_box(json_round_trip(request, reply));
    }));

    let (mut runs, mut gaps) = (Vec::new(), Vec::new());
    let (mut evaluations, mut hits, mut misses, mut reused, mut computed) =
        (0usize, 0u64, 0u64, 0u64, 0u64);
    let mut matrices = Vec::new();
    for (prior, delta) in &keys {
        let prior = served_prior(prior);
        let run0 = run0_config(&config, *delta, config.default_slots);
        let stamps: Arc<Mutex<Vec<Instant>>> = Arc::default();
        let hook_stamps = Arc::clone(&stamps);
        let optimizer = Optimizer::new(run0.clone())
            .expect("valid run config")
            .with_generation_observer(Arc::new(move |_: &GenerationObservation| {
                hook_stamps
                    .lock()
                    .expect("observer lock")
                    .push(Instant::now());
            }));
        let mut outcome = None;
        runs.extend(rung(t, "core.run", parent, 1, |_| {
            outcome = Some(optimizer.optimize_distribution(&prior).expect("engine run"));
        }));
        let outcome = outcome.expect("the run finished");
        let stamps = stamps.lock().expect("observer lock");
        gaps.extend(stamps.windows(2).map(|w| (w[1] - w[0]).as_nanos() as u64));
        let s = &outcome.statistics;
        evaluations += s.evaluations;
        (hits, misses) = (hits + s.cache_hits, misses + s.cache_misses);
        (reused, computed) = (
            reused + s.fitness_pairs_reused,
            computed + s.fitness_pairs_computed,
        );
        matrices.push((prior, run0));
    }
    let run = p50(runs);

    let mut draw = stream_rng(seed, 440);
    let mut evaluate = Vec::new();
    for (prior, run0) in &matrices {
        // A fresh problem per key, and fresh random matrices: every call
        // misses the evaluation cache.
        let problem = OptrrProblem::new(prior.clone(), run0).expect("valid problem");
        let candidates: Vec<RrMatrix> = (0..64)
            .map(|_| RrMatrix::random(prior.num_categories(), &mut draw).expect("random matrix"))
            .collect();
        evaluate.extend(rung(t, "core.evaluate", parent, candidates.len(), |c| {
            black_box(problem.evaluate_matrix(&candidates[c]));
        }));
    }
    // δ-violating inputs: near-identity Warner matrices reveal almost
    // every value, so repair bisects every time.
    let (prior, run0) = &matrices[0];
    let violating: Vec<RrMatrix> = (0..64)
        .map(|_| {
            rr::schemes::warner(prior.num_categories(), draw.gen_range(0.9..0.99))
                .expect("warner matrix")
        })
        .collect();
    let repair = p50(rung(t, "core.repair", parent, 256, |c| {
        black_box(repair_to_delta_bound(
            &violating[c % 64],
            prior,
            run0.delta,
            &mut draw,
        ));
    }));

    // Seeded populations of the engine's size (population + archive).
    let size = config.base.engine.population_size + config.base.engine.archive_size;
    let populations: Vec<Vec<emoo::Individual<usize>>> = (0..32)
        .map(|_| {
            (0..size)
                .map(|g| {
                    emoo::Individual::new(
                        g,
                        emoo::Objectives::pair(draw.gen::<f64>(), draw.gen::<f64>()),
                    )
                })
                .collect()
        })
        .collect();
    let mut pool: Vec<Vec<emoo::Individual<usize>>> =
        (0..256).map(|c| populations[c % 32].clone()).collect();
    let density_k = config.base.engine.density_k;
    let fitness = p50(rung(t, "emoo.assign_fitness", parent, pool.len(), |c| {
        emoo::assign_fitness(&mut pool[c], density_k);
    }));
    let archive = config.base.engine.archive_size;
    let selection = p50(rung(t, "emoo.env_selection", parent, pool.len(), |c| {
        black_box(emoo::selection::environmental_selection(&pool[c], archive));
    }));

    let keys = keys.len() as f64;
    vec![
        metric(
            "worker.wait_p50_ms",
            "ms",
            (register - run - register_codec - net_self_ns) / 1e6,
        ),
        metric("core.run.p50_ms", "ms", run / 1e6),
        metric("core.generation.p50_us", "us", p50(gaps) / 1e3),
        metric("core.evaluate.p50_us", "us", p50(evaluate) / 1e3),
        metric("core.repair.p50_us", "us", repair / 1e3),
        metric(
            "core.evaluations_per_run",
            "count",
            evaluations as f64 / keys,
        ),
        metric(
            "core.eval_cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        metric(
            "emoo.fitness_pairs_reused_ratio",
            "ratio",
            reused as f64 / (reused + computed).max(1) as f64,
        ),
        metric("emoo.assign_fitness.p50_us", "us", fitness / 1e3),
        metric("emoo.env_selection.p50_us", "us", selection / 1e3),
    ]
}
