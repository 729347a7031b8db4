//! End-to-end acceptance of the unified observability layer.
//!
//! The contract under test has two halves. First, *invisibility*: the
//! metrics registry and event trace are recording-only, so running the
//! exact same framed-JSON session with metrics on and metrics off must
//! produce byte-identical response streams — same matrices, same Ω,
//! same posteriors, same counters. Second, *coherence*: when metrics are
//! on, the `Metrics` and `Trace` verbs must report per-verb latency
//! histograms with the counts the session actually produced and a
//! lifecycle event sequence in causal order (a key warms before it
//! ingests, trips drift before it refreshes, and so on).

use serve::net::{ListenAddr, NetClient, NetConfig, NetServer};
use serve::protocol::{decode_response, encode_response};
use serve::{Codec, Request, Response, ServeEvent, Service, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PRIOR: &str = "[0.3,0.22,0.18,0.14,0.1,0.06]";

fn smoke_service(seed: u64, metrics: bool) -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig {
        metrics,
        ..ServiceConfig::smoke(seed)
    }))
}

/// A full tenant lifecycle, deliberately free of `Metrics`/`Trace`
/// verbs: register → stream ingests (drifting away from the prior) →
/// estimate → disguise → point queries → refresh → sync → evict →
/// re-warming query → stats.
fn lifecycle_session() -> String {
    [
        format!(r#"{{"Register":{{"name":"demo","prior":{PRIOR},"delta":0.8}}}}"#),
        r#"{"Ingest":{"name":"demo","min_privacy":0.05,"records":[0,1,2,3,4,5,0,1],"seed":11}}"#
            .into(),
        r#"{"Ingest":{"name":"demo","counts":[5,10,40,80,40,25]}}"#.into(),
        r#"{"Estimate":{"name":"demo"}}"#.into(),
        r#"{"Disguise":{"name":"demo","min_privacy":0.05,"records":[0,1,2,3,4,5],"seed":7}}"#
            .into(),
        r#"{"BestForPrivacy":{"name":"demo","min_privacy":0.05}}"#.into(),
        r#"{"Front":{"name":"demo"}}"#.into(),
        r#"{"Refresh":{"name":"demo","runs":1}}"#.into(),
        r#""Sync""#.into(),
        r#"{"Evict":{"name":"demo"}}"#.into(),
        r#"{"BestForPrivacy":{"name":"demo","min_privacy":0.05}}"#.into(),
        r#"{"Stats":{"name":"demo"}}"#.into(),
        r#"{"Stats":{}}"#.into(),
        r#""Shutdown""#.into(),
    ]
    .join("\n")
}

fn run_session(service: &Arc<Service>, session: &str) -> String {
    let mut output = Vec::new();
    service.run_loop(session.as_bytes(), &mut output).unwrap();
    String::from_utf8(output).unwrap()
}

fn counter(metrics: &[serve::protocol::MetricValueDto], name: &str) -> u64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .value
}

/// One `Metrics` reply reads one registry snapshot: while another thread
/// keeps counting events, every counter in a reply's DTO list equals its
/// line in the same reply's Prometheus text.
#[test]
fn one_metrics_reply_reads_one_snapshot() {
    let service = smoke_service(5, true);
    let stop = AtomicBool::new(false);
    let mismatch = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                service.obs().emit(ServeEvent::Generation {
                    key: 1,
                    generation: 0,
                    archive: 0,
                    evaluations: 0,
                    improved: false,
                });
            }
        });
        // The recorder stops before any assertion runs, so a failing
        // reply fails the test instead of hanging it.
        let mismatch = (0..300).find_map(|reply| match service.handle(Request::Metrics) {
            Response::Metrics {
                counters,
                prometheus,
                ..
            } => counters.iter().find_map(|c| {
                let line = format!("# TYPE {0} counter\n{0} {1}\n", c.name, c.value);
                (!prometheus.contains(&line))
                    .then(|| format!("reply {reply}: {} = {} has no such line", c.name, c.value))
            }),
            other => Some(format!("reply {reply}: {other:?}")),
        });
        stop.store(true, Ordering::Relaxed);
        mismatch
    });
    assert_eq!(mismatch, None);
}

#[test]
fn observability_is_bitwise_invisible_end_to_end() {
    let session = lifecycle_session();
    let on = smoke_service(2008, true);
    let off = smoke_service(2008, false);
    let on_output = run_session(&on, &session);
    let off_output = run_session(&off, &session);
    assert_eq!(
        on_output, off_output,
        "metrics on/off must serve byte-identical responses"
    );

    // The comparison is meaningful: the observed service really recorded
    // the session, and the disabled one really recorded nothing.
    let (on_events, _) = on.obs().trace_snapshot(None);
    assert!(!on_events.is_empty(), "observed session left no trace");
    let (off_events, off_dropped) = off.obs().trace_snapshot(None);
    assert!(off_events.is_empty() && off_dropped == 0);
    let off_snapshot = off.obs().metrics_snapshot();
    assert!(off_snapshot.counters.iter().all(|(_, v)| *v == 0));
    assert!(off_snapshot.histograms.is_empty());

    // And the warm stores themselves agree bitwise, not just the framed
    // responses.
    let on_entry = on.resolve(None, Some("demo")).unwrap();
    let off_entry = off.resolve(None, Some("demo")).unwrap();
    assert_eq!(on_entry.store().merge(), off_entry.store().merge());
}

#[test]
fn metrics_and_trace_verbs_report_a_coherent_session() {
    let service = smoke_service(99, true);
    // After the shared lifecycle, a second eviction whose re-warm is
    // driven by a refresh (not a query), then both `Stats` readouts right
    // before `Metrics`, so the view counters can be checked against them.
    let session = [
        lifecycle_session()
            .lines()
            .filter(|l| *l != r#""Shutdown""#)
            .collect::<Vec<_>>()
            .join("\n"),
        r#"{"Evict":{"name":"demo"}}"#.into(),
        r#"{"Refresh":{"name":"demo","runs":1}}"#.into(),
        r#""Sync""#.into(),
        r#"{"Stats":{"name":"demo"}}"#.into(),
        r#"{"Stats":{}}"#.into(),
        r#""Metrics""#.into(),
        r#"{"Trace":{}}"#.into(),
        r#""Shutdown""#.into(),
    ]
    .join("\n");
    let text = run_session(&service, &session);
    let decoded: Vec<Response> = text
        .trim()
        .lines()
        .map(|l| decode_response(l).expect("valid response line"))
        .collect();
    let n = decoded.len();
    assert_eq!(decoded[n - 1], Response::Bye);

    let Response::Metrics {
        enabled,
        counters,
        gauges,
        histograms,
        prometheus,
    } = &decoded[n - 3]
    else {
        panic!("expected Metrics, got {:?}", decoded[n - 3]);
    };
    assert!(*enabled);

    // Per-verb latency histograms carry exactly the counts the session
    // produced (the `Metrics` readout itself is timed after it answers,
    // so it does not appear in its own response).
    let verb_count = |verb: &str| {
        histograms
            .iter()
            .find(|h| h.name == format!("serve_verb_{verb}_latency_ns"))
            .unwrap_or_else(|| panic!("missing per-verb histogram for {verb}"))
            .count
    };
    assert_eq!(verb_count("register"), 1);
    assert_eq!(verb_count("ingest"), 2);
    assert_eq!(verb_count("estimate"), 1);
    assert_eq!(verb_count("best_for_privacy"), 2);
    assert_eq!(verb_count("evict"), 2);
    for h in histograms {
        assert!(h.p50 <= h.p99, "{}: p50 above p99", h.name);
        assert!(h.p99 <= h.max.next_power_of_two().max(1), "{}", h.name);
    }

    // Lifecycle counters match the scripted session.
    // Point queries: the two explicit BestForPrivacy probes plus the
    // warm-store selections Front/Disguise/Estimate make internally.
    assert!(counter(counters, "serve_queries_total") >= 2);
    assert_eq!(counter(counters, "serve_ingest_batches_total"), 2);
    assert_eq!(counter(counters, "serve_evictions_total"), 2);
    assert_eq!(counter(counters, "serve_rewarms_total"), 2);
    assert!(counter(counters, "serve_transitions_total") >= 4);
    assert!(counter(counters, "serve_refresh_runs_total") >= 2);
    assert!(counter(counters, "serve_engine_generations_total") > 0);
    assert_eq!(counter(gauges, "serve_registered_keys"), 1);
    assert!(counter(gauges, "serve_resident_bytes") > 0);
    assert!(prometheus.contains("# TYPE serve_queries_total counter"));
    assert!(prometheus.contains("serve_verb_register_latency_ns_count 1"));

    // Every view counter is its `ServiceStats` field and the sum of its
    // per-key `KeyStats` fields (one key here): one stored fact, three
    // readouts — including the re-warm the refresh drove.
    let Response::KeyStats { stats } = &decoded[n - 5] else {
        panic!("expected KeyStats, got {:?}", decoded[n - 5]);
    };
    let Response::ServiceStats {
        keys,
        queries,
        warm_hits,
        evictions,
        rewarms,
        refresh_failures,
        retries,
        ..
    } = &decoded[n - 4]
    else {
        panic!("expected ServiceStats, got {:?}", decoded[n - 4]);
    };
    assert_eq!(*keys, 1);
    for (name, service_total, key_sum) in [
        ("serve_queries_total", *queries, stats.queries),
        ("serve_warm_hits_total", *warm_hits, stats.warm_hits),
        ("serve_evictions_total", *evictions, stats.evictions),
        ("serve_rewarms_total", *rewarms, stats.rewarms),
        (
            "serve_refresh_failures_total",
            *refresh_failures,
            stats.refresh_failures,
        ),
        ("serve_refresh_retries_total", *retries, stats.retries),
    ] {
        assert_eq!(
            counter(counters, name),
            service_total,
            "{name} vs Stats {{}}"
        );
        assert_eq!(service_total, key_sum, "{name} vs the KeyStats sum");
        assert!(
            prometheus.contains(&format!("# TYPE {name} counter\n{name} {service_total}\n")),
            "{name} must render as a counter"
        );
    }

    let Response::Trace {
        enabled,
        dropped,
        events,
    } = &decoded[n - 2]
    else {
        panic!("expected Trace, got {:?}", decoded[n - 2]);
    };
    assert!(*enabled);
    assert_eq!(*dropped, 0);
    assert!(!events.is_empty());
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "trace out of order");
        assert!(pair[0].at_ns <= pair[1].at_ns, "clock ran backwards");
    }

    // The lifecycle reads in causal order: the key warms before anything
    // else happens to it, and the eviction precedes the re-warm.
    let transitions: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "transition")
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(&transitions[..2], &["cold -> warming", "warming -> warm"]);
    let position = |kind: &str| {
        events
            .iter()
            .position(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind} event traced"))
    };
    assert!(position("refresh_run") < position("ingest"));
    assert!(position("evicted") < position("rewarmed"));
    let generations = events.iter().filter(|e| e.kind == "generation").count();
    assert!(generations > 0, "engine generations were not forwarded");
    assert!(events.iter().all(|e| !e.detail.is_empty()));
}

#[test]
fn sampler_rebuilds_are_amortized_across_small_ingest_batches() {
    let service = smoke_service(7, true);
    let entry = service
        .register(
            Some("stream"),
            &[0.3, 0.22, 0.18, 0.14, 0.1, 0.06],
            0.8,
            None,
            true,
        )
        .unwrap();

    // Ten tiny raw batches: before the cached samplers each one paid the
    // O(n²) alias-table build; now only the pin does.
    for batch in 0..10u64 {
        let records = vec![(batch % 6) as usize; 4];
        service
            .ingest(&entry, Some(0.05), Some(&records), None, Some(batch))
            .unwrap();
    }

    let snapshot = service.obs().metrics_snapshot();
    let rebuilds = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "serve_sampler_rebuilds_total")
        .map(|(_, v)| *v)
        .expect("missing serve_sampler_rebuilds_total");
    assert_eq!(
        rebuilds, 1,
        "ten raw ingest batches must share the single pin-time sampler build"
    );
    assert_eq!(entry.pipeline().unwrap().counts().total(), 40);
}

/// The responses a socket session sends for raw `input`, as framed-JSON
/// text: the client sends the bytes, closes its sending half, and reads
/// until the server closes.
fn unix_session_output(service: Arc<Service>, input: &[u8], tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("optrr_twin_{tag}_{}.sock", std::process::id()));
    let server = NetServer::start(service, NetConfig::new(ListenAddr::Unix(path)))
        .expect("binding a Unix socket succeeds");
    let mut client = NetClient::connect(&server.listen_addr(), Codec::Json).unwrap();
    client.send_raw(input).unwrap();
    client.close_write().unwrap();
    let output: String = std::iter::from_fn(|| client.recv().ok())
        .map(|response| encode_response(&response) + "\n")
        .collect();
    server.request_drain();
    server.wait();
    output
}

#[test]
fn stdio_and_socket_sessions_answer_byte_identically() {
    let lifecycle = lifecycle_session();
    let inputs: [(&str, &[u8]); 5] = [
        ("lifecycle", lifecycle.as_bytes()),
        ("non_utf8", b"\xff\xfe\n{\"Stats\":{}}\n\"Shutdown\"\n"),
        ("malformed", b"{\"Nope\":1}\n{\"Stats\":{}}\n\"Shutdown\"\n"),
        ("unterminated_request", b"{\"Stats\":{}}\n{\"Stats\":{}}"),
        ("unterminated_garbage", b"{\"Stats\":{}}\n{\"Stats\":"),
    ];
    for (tag, input) in inputs {
        let stdio = smoke_service(31, true);
        let mut output = Vec::new();
        // A torn final line ends `run_loop` with an error after its
        // transport error is answered; the answers are what is compared.
        let result = stdio.run_loop(input, &mut output);
        assert_eq!(result.is_err(), tag == "unterminated_garbage", "{tag}");
        let stdio_output = String::from_utf8(output).unwrap();
        let socket_output = unix_session_output(smoke_service(31, true), input, tag);
        assert_eq!(stdio_output, socket_output, "{tag}: stdio vs Unix socket");
        assert!(!stdio_output.is_empty(), "{tag}");

        // Stdio records the per-codec histograms sockets record.
        let histograms = stdio.obs().metrics_snapshot().histograms;
        assert!(
            histograms
                .iter()
                .any(|h| h.name == "serve_net_verb_stats_json_latency_ns" && h.count > 0),
            "{tag}: stdio recorded no per-codec histogram"
        );
    }
}
