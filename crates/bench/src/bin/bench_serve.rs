//! Load generator for the matrix-serving subsystem.
//!
//! Warms a service with a small batch of priors through the multi-prior
//! front door, then drives N concurrent query streams (point queries across
//! the privacy axis, utility-budget queries, and periodic full-front
//! queries) against the warm sharded store and reports throughput and
//! latency percentiles. The engine never runs during the measured phase —
//! the run counters are asserted — so this measures the serving hot path:
//! registry resolution plus sharded Ω reads. Results land in
//! `BENCH_serve.json` at the workspace root.
//!
//! `--smoke` runs the multi-tenant lifecycle scenario instead: 100+ keys
//! registered under a deliberately small memory budget, asserting that
//! LRU evictions occur, the byte accounting stays under the budget, and
//! every key — evicted or not — still answers point queries correctly
//! after its transparent re-warm. Results land in
//! `BENCH_serve_tenants.json`.
//!
//! Both modes also measure the observability cost: the same query mix
//! driven with the metrics registry recording and disabled, reported as
//! a `metrics_overhead` row (the budget is < 5% of query throughput;
//! responses are bitwise-identical either way).
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_serve
//!         [-- --streams N --queries M | --smoke [--tenants K]]`

use bench_support::{arg_value, percentile};
use serde::Serialize;
use serve::{KeyState, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct ServeBaseline {
    streams: usize,
    queries_per_stream: usize,
    total_queries: u64,
    wall_seconds: f64,
    throughput_qps: f64,
    latency_mean_ns: u64,
    latency_p50_ns: u64,
    latency_p95_ns: u64,
    latency_p99_ns: u64,
    latency_max_ns: u64,
    registered_keys: usize,
    engine_runs_warmup: u64,
    engine_runs_after_load: u64,
    metrics_overhead: MetricsOverhead,
}

/// The observability cost row: the same single-threaded query mix driven
/// against two identically-seeded services, one with the metrics
/// registry and event trace recording and one with them disabled. The
/// responses are bitwise-identical either way (the invisibility
/// invariant); this row bounds what the *recording* costs the hot path.
#[derive(Serialize)]
struct MetricsOverhead {
    queries_per_side: usize,
    metrics_on_qps: f64,
    metrics_off_qps: f64,
    overhead_percent: f64,
}

/// Measures the metrics-on vs metrics-off query throughput on the warm
/// hot path. Best-of-3 per side to shed scheduler noise.
fn measure_metrics_overhead(queries: usize) -> MetricsOverhead {
    let side = |metrics: bool| -> f64 {
        let service = Arc::new(Service::new(ServiceConfig {
            metrics,
            ..ServiceConfig::smoke(2008)
        }));
        let priors: Vec<Vec<f64>> = vec![
            vec![0.35, 0.25, 0.2, 0.12, 0.08],
            vec![0.5, 0.2, 0.12, 0.1, 0.08],
            vec![0.25, 0.2, 0.2, 0.2, 0.15],
        ];
        let (entries, _) = service
            .register_batch(None, &priors, 0.8, None)
            .expect("batch registration succeeds");
        let ranges: Vec<(f64, f64)> = entries
            .iter()
            .map(|e| e.store().privacy_range().expect("warm store is non-empty"))
            .collect();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            for step in 0..queries {
                let which = step % entries.len();
                let entry = &entries[which];
                let (lo, hi) = ranges[which];
                let t = ((step * 7919) % 1000) as f64 / 999.0;
                if step % 2 == 0 {
                    let found = service.best_for_privacy(entry, lo + (hi - lo) * t);
                    assert!(found.is_some());
                } else {
                    let found = service.best_for_mse(entry, f64::INFINITY);
                    assert!(found.is_some());
                }
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        queries as f64 / best.max(1e-9)
    };
    let metrics_on_qps = side(true);
    let metrics_off_qps = side(false);
    let overhead = MetricsOverhead {
        queries_per_side: queries,
        metrics_on_qps,
        metrics_off_qps,
        overhead_percent: (1.0 - metrics_on_qps / metrics_off_qps.max(1e-9)) * 100.0,
    };
    println!(
        "metrics overhead: on {:.0} q/s vs off {:.0} q/s ({:+.2}%)",
        overhead.metrics_on_qps, overhead.metrics_off_qps, overhead.overhead_percent
    );
    if overhead.overhead_percent >= 5.0 {
        eprintln!(
            "warning: metrics recording costs {:.2}% query throughput (budget is 5%)",
            overhead.overhead_percent
        );
    }
    overhead
}

#[derive(Serialize)]
struct TenantBaseline {
    tenants: usize,
    budget_bytes: u64,
    peak_unbudgeted_bytes_estimate: u64,
    resident_bytes_after_load: u64,
    resident_bytes_after_queries: u64,
    evictions_after_load: u64,
    evictions_total: u64,
    evicted_keys_after_load: usize,
    rewarms_total: u64,
    register_seconds: f64,
    query_seconds: f64,
    metrics_overhead: MetricsOverhead,
}

/// The multi-tenant lifecycle smoke: many keys, small budget.
fn run_tenant_smoke() {
    let tenants = arg_value("--tenants").unwrap_or(120).max(8);
    // Deterministic 4-category priors, all distinct fingerprints.
    let priors: Vec<Vec<f64>> = (0..tenants)
        .map(|i| {
            let skew = 1.0 + (i % 37) as f64 * 0.11 + (i / 37) as f64 * 0.017;
            (0..4).map(|c| 1.0 / (c as f64 + skew)).collect()
        })
        .collect();

    // Probe a handful of keys on an unbudgeted twin to size the budget at
    // roughly a quarter of the full load.
    let probe = Arc::new(Service::new(ServiceConfig::tiny(2008)));
    for prior in priors.iter().take(8) {
        probe
            .register(None, prior, 0.8, None, true)
            .expect("probe registration succeeds");
    }
    let probe_bytes = probe.totals().resident_bytes;
    let per_key = (probe_bytes / 8).max(1);
    let budget = per_key * tenants as u64 / 4;

    let mut config = ServiceConfig::tiny(2008);
    config.memory_budget_bytes = Some(budget);
    let service = Arc::new(Service::new(config));

    let register_started = Instant::now();
    let (entries, warmed) = service
        .register_batch(None, &priors, 0.8, None)
        .expect("batch registration succeeds");
    service.wait_idle();
    let register_seconds = register_started.elapsed().as_secs_f64();
    assert_eq!(warmed, tenants, "every tenant needs its own warm-up");

    let load_totals = service.totals();
    let (resident_after_load, evictions_after_load) =
        (load_totals.resident_bytes, load_totals.evictions);
    let evicted_after_load = entries
        .iter()
        .filter(|e| e.state() == KeyState::Evicted)
        .count();
    assert!(
        evictions_after_load > 0,
        "{tenants} tenants must not fit a {budget}-byte budget"
    );
    assert!(
        resident_after_load <= budget,
        "byte accounting above budget after load: {resident_after_load} > {budget}"
    );
    println!(
        "{tenants} tenants under a {budget}-byte budget: {evictions_after_load} evictions, \
         {evicted_after_load} evicted, {resident_after_load} bytes resident \
         (registered in {register_seconds:.2}s)"
    );

    // Every key still answers — evicted ones re-warm transparently — and
    // the accounting stays under budget throughout.
    let query_started = Instant::now();
    for entry in &entries {
        let found = service.best_for_privacy(entry, 0.0);
        assert!(
            found.is_some(),
            "key {:x} lost its answers after eviction",
            entry.key()
        );
        let resident = service.totals().resident_bytes;
        assert!(
            resident <= budget,
            "byte accounting above budget mid-queries: {resident} > {budget}"
        );
    }
    service.wait_idle();
    let query_seconds = query_started.elapsed().as_secs_f64();
    let query_totals = service.totals();
    let (resident_after_queries, evictions_total, rewarms_total) = (
        query_totals.resident_bytes,
        query_totals.evictions,
        query_totals.rewarms,
    );
    assert!(resident_after_queries <= budget);
    assert!(
        rewarms_total > 0,
        "querying every key must have re-warmed the evicted ones"
    );

    let baseline = TenantBaseline {
        tenants,
        budget_bytes: budget,
        peak_unbudgeted_bytes_estimate: per_key * tenants as u64,
        resident_bytes_after_load: resident_after_load,
        resident_bytes_after_queries: resident_after_queries,
        evictions_after_load,
        evictions_total,
        evicted_keys_after_load: evicted_after_load,
        rewarms_total,
        register_seconds,
        query_seconds,
        metrics_overhead: measure_metrics_overhead(20_000),
    };
    println!(
        "all {tenants} tenants answered; {rewarms_total} re-warms, {evictions_total} evictions \
         total, {resident_after_queries} bytes resident (queried in {query_seconds:.2}s)"
    );
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve_tenants.json"
    );
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("wrote baseline {path}"),
        Err(error) => eprintln!("warning: could not write {path}: {error}"),
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_tenant_smoke();
        return;
    }
    let streams = arg_value("--streams")
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1);
    let queries_per_stream = arg_value("--queries").unwrap_or(5_000).max(1);

    let service = Arc::new(Service::new(ServiceConfig::smoke(2008)));
    let priors: Vec<Vec<f64>> = vec![
        vec![0.35, 0.25, 0.2, 0.12, 0.08],
        vec![0.5, 0.2, 0.12, 0.1, 0.08],
        vec![0.25, 0.2, 0.2, 0.2, 0.15],
    ];
    let warm_started = Instant::now();
    let (entries, warmed) = service
        .register_batch(None, &priors, 0.8, None)
        .expect("batch registration succeeds");
    let warmup_seconds = warm_started.elapsed().as_secs_f64();
    let (_, engine_runs_warmup, _, _) = service.service_stats();
    println!("warmed {warmed} keys in {warmup_seconds:.2}s ({engine_runs_warmup} engine runs)");

    let privacy_ranges: Vec<(f64, f64)> = entries
        .iter()
        .map(|e| e.store().privacy_range().expect("warm store is non-empty"))
        .collect();

    let load_started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(streams * queries_per_stream);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|stream| {
                let service = Arc::clone(&service);
                let entries = &entries;
                let privacy_ranges = &privacy_ranges;
                scope.spawn(move || {
                    let mut stream_latencies = Vec::with_capacity(queries_per_stream);
                    for step in 0..queries_per_stream {
                        let which = (stream + step) % entries.len();
                        let entry = &entries[which];
                        let (lo, hi) = privacy_ranges[which];
                        let t = ((step * 7919 + stream * 104_729) % 1000) as f64 / 999.0;
                        let started = Instant::now();
                        match step % 64 {
                            63 => {
                                // Periodic full-front query (merge + pareto).
                                let front = service.front(entry);
                                assert!(!front.is_empty());
                            }
                            s if s % 2 == 0 => {
                                let p = lo + (hi - lo) * t;
                                let found = service.best_for_privacy(entry, p);
                                assert!(found.is_some());
                            }
                            _ => {
                                // A generous utility budget always matches.
                                let found = service.best_for_mse(entry, f64::INFINITY);
                                assert!(found.is_some());
                            }
                        }
                        stream_latencies.push(started.elapsed().as_nanos() as u64);
                    }
                    stream_latencies
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("query stream panicked"));
        }
    });
    let wall_seconds = load_started.elapsed().as_secs_f64();

    let (registered_keys, engine_runs_after_load, queries, warm_hits) = service.service_stats();
    assert_eq!(
        engine_runs_after_load, engine_runs_warmup,
        "the load phase must never re-run the engine"
    );
    assert_eq!(queries, warm_hits, "every load query is a warm hit");

    latencies.sort_unstable();
    let total_queries = latencies.len() as u64;
    let mean = latencies.iter().sum::<u64>() / total_queries.max(1);
    let baseline = ServeBaseline {
        streams,
        queries_per_stream,
        total_queries,
        wall_seconds,
        throughput_qps: total_queries as f64 / wall_seconds.max(1e-9),
        latency_mean_ns: mean,
        latency_p50_ns: percentile(&latencies, 0.50),
        latency_p95_ns: percentile(&latencies, 0.95),
        latency_p99_ns: percentile(&latencies, 0.99),
        latency_max_ns: percentile(&latencies, 1.0),
        registered_keys,
        engine_runs_warmup,
        engine_runs_after_load,
        metrics_overhead: measure_metrics_overhead(20_000),
    };

    println!(
        "{} streams x {} queries: {:.0} q/s, p50 {} ns, p95 {} ns, p99 {} ns",
        baseline.streams,
        baseline.queries_per_stream,
        baseline.throughput_qps,
        baseline.latency_p50_ns,
        baseline.latency_p95_ns,
        baseline.latency_p99_ns
    );

    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("wrote baseline {path}"),
        Err(error) => eprintln!("warning: could not write {path}: {error}"),
    }
}
