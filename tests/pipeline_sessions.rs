//! End-to-end sessions against the streaming disguise + estimation
//! pipeline (`optrr-pipeline`).
//!
//! These are the acceptance tests of the pipeline subsystem: sharded
//! concurrent ingest is bitwise-equal to a single-stream run over the same
//! batches; `Estimate` on 10k disguised samples recovers the source
//! distribution within the paper's MSE bound without re-running the
//! engine; estimation drift marks the key stale and triggers the first
//! telemetry-driven refresh; a full framed-JSON pipeline session
//! round-trips through the protocol loop; and a `Save`d warm store
//! `Load`s into a restarted service with zero warm-up runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{EstimateMethod, Service, ServiceConfig};
use std::sync::Arc;

fn smoke_service(seed: u64) -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig::smoke(seed)))
}

const PRIOR: [f64; 5] = [0.35, 0.25, 0.2, 0.12, 0.08];
const DELTA: f64 = 0.8;

#[test]
fn sharded_concurrent_ingest_is_bitwise_equal_to_the_single_stream_run() {
    let seed = 777;
    // 64 batches sampled once, ingested twice: concurrently by 8 streams
    // on one service, sequentially on another with the same service seed.
    let source = stats::Categorical::from_weights(&PRIOR).unwrap();
    let mut rng = StdRng::seed_from_u64(1234);
    let batches: Vec<Vec<usize>> = (0..64)
        .map(|b| source.sample_many(&mut rng, 50 + (b % 17) * 10))
        .collect();

    let concurrent = smoke_service(seed);
    let entry = concurrent
        .register(None, &PRIOR, DELTA, None, true)
        .unwrap();
    std::thread::scope(|scope| {
        for worker in 0..8usize {
            let concurrent = Arc::clone(&concurrent);
            let entry = Arc::clone(&entry);
            let batches = &batches;
            scope.spawn(move || {
                for (index, batch) in batches.iter().enumerate().skip(worker).step_by(8) {
                    concurrent
                        .ingest(&entry, Some(0.0), Some(batch), None, Some(index as u64))
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(entry.engine_runs(), 1, "ingest never re-runs the engine");

    let single = smoke_service(seed);
    let solo_entry = single.register(None, &PRIOR, DELTA, None, true).unwrap();
    for (index, batch) in batches.iter().enumerate() {
        single
            .ingest(
                &solo_entry,
                Some(0.0),
                Some(batch),
                None,
                Some(index as u64),
            )
            .unwrap();
    }

    // The merged accumulators are identical: same counts, totals, batches.
    let concurrent_counts = entry.pipeline().unwrap().counts().merge();
    let single_counts = solo_entry.pipeline().unwrap().counts().merge();
    assert_eq!(concurrent_counts, single_counts);

    // And the estimates are bitwise-equal, category for category.
    let a = concurrent.estimate(&entry).unwrap();
    let b = single.estimate(&solo_entry).unwrap();
    assert!(
        !a.drifted,
        "batches follow the prior (mse {})",
        a.mse_vs_prior
    );
    assert_eq!(a.method, b.method);
    assert_eq!(a.total_responses, b.total_responses);
    for (x, y) in a
        .distribution
        .probs()
        .iter()
        .zip(b.distribution.probs().iter())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.mse_vs_prior.to_bits(), b.mse_vs_prior.to_bits());
}

#[test]
fn estimate_on_10k_disguised_samples_recovers_the_source_within_the_mse_bound() {
    let service = smoke_service(2008);
    let entry = service
        .register(Some("acceptance"), &PRIOR, DELTA, None, true)
        .unwrap();
    assert_eq!(entry.engine_runs(), 1, "warm-up is exactly one engine run");

    // 10k samples drawn from the registered source distribution, streamed
    // in batches through server-side disguise.
    let source = entry.prior().clone();
    let mut rng = StdRng::seed_from_u64(42);
    for batch in 0..10 {
        let records = source.sample_many(&mut rng, 1_000);
        service
            .ingest(&entry, Some(0.05), Some(&records), None, Some(batch))
            .unwrap();
    }

    let outcome = service.estimate(&entry).unwrap();
    assert_eq!(outcome.total_responses, 10_000);
    assert_eq!(outcome.batches, 10);
    assert_eq!(outcome.method, EstimateMethod::Inversion);

    // The paper's utility metric (Theorem 6) is the expected MSE of
    // exactly this reconstruction at the configured record count (10k for
    // the smoke profile). One random draw concentrates near it; a 20×
    // allowance is far beyond any plausible fluctuation while still being
    // ~50× below the drift threshold.
    let expected_mse = entry.pipeline().unwrap().evaluation().mse;
    assert!(expected_mse > 0.0);
    assert!(
        outcome.mse_vs_prior <= 20.0 * expected_mse,
        "observed mse {} vs closed-form expectation {}",
        outcome.mse_vs_prior,
        expected_mse
    );
    assert!(!outcome.drifted);
    assert!(!entry.is_stale());

    // The engine never ran again: disguise, ingest, and estimation are all
    // answered from the warm store and the accumulators.
    assert_eq!(entry.engine_runs(), 1);
    let (_, engine_runs, _, _) = service.service_stats();
    assert_eq!(engine_runs, 1);
}

#[test]
fn estimation_drift_marks_stale_and_schedules_the_telemetry_refresh() {
    let service = smoke_service(55);
    let entry = service
        .register(Some("drifting"), &PRIOR, DELTA, None, true)
        .unwrap();
    // The live population abandoned the registered prior: everyone now
    // answers category 4. The estimate lands far from the prior.
    service
        .ingest(&entry, Some(0.0), None, Some(&[0, 0, 0, 0, 20_000]), None)
        .unwrap();
    let outcome = service.estimate(&entry).unwrap();
    assert!(outcome.drifted, "mse {}", outcome.mse_vs_prior);
    assert!(outcome.mse_vs_prior > service.config().drift_mse_threshold);
    // Drift scheduled exactly one refresh run; when it lands the key is
    // fresh again and its Ω only improved.
    service.wait_idle();
    assert_eq!(entry.engine_runs(), 2);
    assert!(!entry.is_stale());
    // A follow-up estimate still reports drift (the population did not
    // come back) but does not queue an unbounded pile of refreshes: one
    // run per drift observation at most.
    let again = service.estimate(&entry).unwrap();
    assert!(again.drifted);
    service.wait_idle();
    assert_eq!(entry.engine_runs(), 3);
}

#[test]
fn framed_json_pipeline_session_round_trips() {
    let service = smoke_service(99);
    let session = [
        r#"{"Register":{"name":"pipe","prior":[0.35,0.25,0.2,0.12,0.08],"delta":0.8}}"#,
        r#"{"Disguise":{"name":"pipe","min_privacy":0.05,"records":[0,1,2,3,4,0,0,1],"seed":7}}"#,
        r#"{"Ingest":{"name":"pipe","min_privacy":0.05,"records":[0,0,1,1,2,2,3,3,4,4],"seed":1}}"#,
        r#"{"Ingest":{"name":"pipe","counts":[40,25,20,10,5]}}"#,
        r#"{"Estimate":{"name":"pipe"}}"#,
        r#""EstimateAll""#,
        r#"{"Ingest":{"name":"pipe"}}"#,
        r#"{"Estimate":{"name":"nobody"}}"#,
        r#""Shutdown""#,
    ]
    .join("\n");
    let mut output = Vec::new();
    service.run_loop(session.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.trim().lines().collect();
    assert_eq!(lines.len(), 9);

    use serve::Response;
    let decoded: Vec<Response> = lines
        .iter()
        .map(|l| serve::protocol::decode_response(l).expect("valid response line"))
        .collect();
    let Response::Registered { key, .. } = &decoded[0] else {
        panic!("expected Registered, got {:?}", decoded[0]);
    };
    let Response::Disguised {
        records, retained, ..
    } = &decoded[1]
    else {
        panic!("expected Disguised, got {:?}", decoded[1]);
    };
    assert_eq!(records.len(), 8);
    assert!(records.iter().all(|&r| r < 5));
    assert!(*retained <= 8);
    let Response::Ingested {
        key: ingest_key,
        accepted,
        total,
        batches,
        ..
    } = &decoded[2]
    else {
        panic!("expected Ingested, got {:?}", decoded[2]);
    };
    assert_eq!(ingest_key, key);
    assert_eq!((*accepted, *total, *batches), (10, 10, 1));
    assert!(matches!(
        &decoded[3],
        Response::Ingested {
            accepted: 100,
            total: 110,
            batches: 2,
            ..
        }
    ));
    let Response::Estimated { stats } = &decoded[4] else {
        panic!("expected Estimated, got {:?}", decoded[4]);
    };
    assert_eq!(stats.key, *key);
    assert_eq!(stats.method, "inversion");
    assert_eq!(stats.total_responses, 110);
    assert_eq!(stats.distribution.len(), 5);
    assert!((stats.distribution.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let Response::EstimatedAll {
        estimates,
        skipped,
        failed,
    } = &decoded[5]
    else {
        panic!("expected EstimatedAll, got {:?}", decoded[5]);
    };
    assert_eq!(estimates.len(), 1);
    assert_eq!(*skipped, 0);
    assert_eq!(*failed, 0);
    // A batch with neither records nor counts, and an unknown key: errors,
    // session continues.
    assert!(matches!(&decoded[6], Response::Error { .. }));
    assert!(matches!(&decoded[7], Response::Error { .. }));
    assert_eq!(decoded[8], Response::Bye);
}

#[test]
fn saved_snapshot_loads_into_a_restarted_service_with_zero_warmup_runs() {
    let dir = std::env::temp_dir().join("optrr_pipeline_sessions_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm_store.json");
    let path = path.to_str().unwrap();

    let service = smoke_service(31);
    let entry = service
        .register(Some("persisted"), &PRIOR, DELTA, None, true)
        .unwrap();
    let saved_front = entry.store().merge();
    let session = format!("{{\"Save\":{{\"path\":{path:?}}}}}\n\"Shutdown\"");
    let mut output = Vec::new();
    service.run_loop(session.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    assert!(text.contains(r#""Saved""#), "got {text}");

    // The restarted server loads the snapshot and serves matrix queries
    // and ingest immediately — zero engine runs in this process.
    let restarted = smoke_service(31);
    let session = format!(
        "{{\"Load\":{{\"path\":{path:?}}}}}\n{{\"BestForPrivacy\":{{\"name\":\"persisted\",\"min_privacy\":0.05}}}}\n{{\"Stats\":{{\"name\":\"persisted\"}}}}\n\"Shutdown\""
    );
    let mut output = Vec::new();
    restarted.run_loop(session.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.trim().lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains(r#""Loaded""#), "got {}", lines[0]);
    assert!(lines[1].contains(r#""Matrix""#), "got {}", lines[1]);

    let restored = restarted.resolve(None, Some("persisted")).unwrap();
    assert!(restored.is_warm());
    assert_eq!(restored.store().merge(), saved_front);
    // The restored run counter came from the snapshot; no run executed
    // here (the worker pool never received a job).
    assert_eq!(restored.engine_runs(), 1);
    restarted.wait_idle();
    assert_eq!(restored.engine_runs(), 1);
}
