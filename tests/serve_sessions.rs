//! End-to-end sessions against the matrix-serving subsystem.
//!
//! These are the acceptance tests of the serving layer: a registered prior
//! is warmed exactly once and then answers any number of point queries
//! without re-running the engine; the warm store produces a front
//! bitwise-equal to a plain optimizer run with the same seed;
//! and a full framed-JSON session round-trips through the protocol loop.

use serve::{Service, ServiceConfig};
use std::sync::Arc;

fn smoke_service(seed: u64) -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig::smoke(seed)))
}

const PRIOR: [f64; 6] = [0.3, 0.22, 0.18, 0.14, 0.1, 0.06];
const DELTA: f64 = 0.8;

#[test]
fn warm_key_serves_ten_privacy_queries_without_rerunning_the_engine() {
    let service = smoke_service(2008);
    let entry = service
        .register(Some("acceptance"), &PRIOR, DELTA, None, true)
        .unwrap();
    assert!(entry.is_warm());
    assert_eq!(entry.engine_runs(), 1, "warm-up is exactly one engine run");
    let runs_after_warmup = entry.engine_runs();

    let (lo, hi) = entry.store().privacy_range().expect("warm store");
    for step in 0..10 {
        let p = lo + (hi - lo) * step as f64 / 9.0;
        let found = service.best_for_privacy(&entry, p);
        let found = found.expect("every in-range privacy floor matches");
        assert!(found.evaluation.privacy >= p - 1e-12);
        assert!(found.evaluation.feasible);
    }

    // The cache/run counters prove the engine never ran again.
    assert_eq!(entry.engine_runs(), runs_after_warmup);
    assert_eq!(entry.queries(), 10);
    let (keys, engine_runs, queries, warm_hits) = service.service_stats();
    assert_eq!(keys, 1);
    assert_eq!(engine_runs, 1);
    assert_eq!(queries, 10);
    assert_eq!(warm_hits, 10, "all ten queries hit the warm store");
}

#[test]
fn warm_store_front_is_bitwise_equal_to_the_direct_run() {
    let seed = 424_242;
    let service = smoke_service(seed);
    let entry = service.register(None, &PRIOR, DELTA, None, true).unwrap();

    // The reference: a plain optimizer run with the exact
    // configuration the service derives for this key's warm-up run.
    let config = optrr::OptrrConfig {
        delta: entry.delta(),
        omega_slots: entry.num_slots(),
        seed,
        ..service.config().base.clone()
    };
    let prior = stats::Categorical::from_weights(&PRIOR).unwrap();
    let direct = optrr::Optimizer::new(config)
        .unwrap()
        .optimize_distribution(&prior)
        .unwrap();

    let served = service.front(&entry);
    assert!(!served.is_empty());
    assert_eq!(
        served.len(),
        direct.front.points.len(),
        "front sizes differ between service and direct run"
    );
    for (a, b) in served.iter().zip(&direct.front.points) {
        assert_eq!(a.privacy.to_bits(), b.privacy.to_bits());
        assert_eq!(a.mse.to_bits(), b.mse.to_bits());
    }

    // Slot-for-slot, the warm store equals the direct run's Ω.
    let merged = entry.store().merge();
    for slot in 0..merged.num_slots() {
        let a = merged.entry(slot).map(|e| e.evaluation.mse.to_bits());
        let b = direct.omega.entry(slot).map(|e| e.evaluation.mse.to_bits());
        assert_eq!(a, b, "slot {slot} differs");
    }
}

#[test]
fn refresh_runs_land_through_the_worker_pool_and_only_improve() {
    let service = smoke_service(7);
    let entry = service
        .register(Some("refresh"), &PRIOR, DELTA, None, true)
        .unwrap();
    let before = entry.store().merge();
    let scheduled = service.refresh(&entry, 3);
    assert_eq!(scheduled, 3);
    service.wait_idle();
    assert_eq!(entry.engine_runs(), 4);
    assert!(!entry.is_stale());
    let after = entry.store().merge();
    // Monotone improvement: every slot is at least as good as before.
    for slot in 0..after.num_slots() {
        match (before.entry(slot), after.entry(slot)) {
            (Some(old), Some(new)) => assert!(new.evaluation.mse <= old.evaluation.mse),
            (Some(_), None) => panic!("slot {slot} lost its entry"),
            _ => {}
        }
    }
    assert!(after.len() >= before.len());
}

#[test]
fn framed_json_session_round_trips_and_reports_counters() {
    let service = smoke_service(99);
    let session = [
        r#"{"Register":{"name":"demo","prior":[0.3,0.22,0.18,0.14,0.1,0.06],"delta":0.8}}"#,
        r#"{"BestForPrivacy":{"name":"demo","min_privacy":0.05}}"#,
        r#"{"BestForPrivacy":{"name":"demo","min_privacy":0.99}}"#,
        r#"{"BestForMse":{"name":"demo","max_mse":1.0}}"#,
        r#"{"Front":{"name":"demo"}}"#,
        r#"{"Refresh":{"name":"demo","runs":1}}"#,
        r#""Sync""#,
        r#"{"Stats":{"name":"demo"}}"#,
        r#"{"Stats":{}}"#,
        r#""Shutdown""#,
    ]
    .join("\n");
    let mut output = Vec::new();
    service.run_loop(session.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.trim().lines().collect();
    assert_eq!(lines.len(), 10);

    use serve::Response;
    let decoded: Vec<Response> = lines
        .iter()
        .map(|l| serve::protocol::decode_response(l).expect("valid response line"))
        .collect();
    let Response::Registered { key, warm, .. } = &decoded[0] else {
        panic!("expected Registered, got {:?}", decoded[0]);
    };
    assert!(*warm);
    assert!(matches!(&decoded[1], Response::Matrix { key: k, .. } if k == key));
    assert!(matches!(&decoded[2], Response::NoMatch { .. }));
    assert!(matches!(&decoded[3], Response::Matrix { .. }));
    let Response::Front { points, .. } = &decoded[4] else {
        panic!("expected Front, got {:?}", decoded[4]);
    };
    assert!(!points.is_empty());
    assert!(matches!(&decoded[5], Response::Scheduled { runs: 1, .. }));
    assert_eq!(decoded[6], Response::Synced);
    let Response::KeyStats { stats } = &decoded[7] else {
        panic!("expected KeyStats, got {:?}", decoded[7]);
    };
    assert_eq!(stats.key, *key);
    assert!(stats.warm);
    assert_eq!(stats.engine_runs, 2, "warm-up plus one refresh");
    assert_eq!(stats.queries, 4);
    let Response::ServiceStats {
        keys,
        engine_runs,
        queries,
        ..
    } = &decoded[8]
    else {
        panic!("expected ServiceStats, got {:?}", decoded[8]);
    };
    assert_eq!(*keys, 1);
    assert_eq!(*engine_runs, 2);
    assert_eq!(*queries, 4);
    assert_eq!(decoded[9], Response::Bye);

    // The returned matrix decodes into a valid column-stochastic RR matrix.
    if let Response::Matrix { matrix, .. } = &decoded[1] {
        let decoded_matrix = matrix.to_matrix().unwrap();
        assert_eq!(decoded_matrix.num_categories(), 6);
        assert!(decoded_matrix.as_matrix().is_column_stochastic(1e-9));
    }
}

#[test]
fn batch_front_door_warms_many_priors_and_matches_solo_registration() {
    let service = smoke_service(31);
    let priors = vec![
        vec![0.3, 0.22, 0.18, 0.14, 0.1, 0.06],
        vec![0.4, 0.3, 0.2, 0.1],
        vec![0.6, 0.25, 0.15],
    ];
    let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
    let (entries, warmed) = service
        .register_batch(Some(&names), &priors, DELTA, None)
        .unwrap();
    assert_eq!(warmed, 3);
    for (name, entry) in names.iter().zip(&entries) {
        assert!(entry.is_warm());
        let resolved = service.resolve(None, Some(name)).unwrap();
        assert_eq!(resolved.key(), entry.key());
    }

    // Solo registration of the same prior on a fresh service with the same
    // seed produces a bitwise-identical warm store.
    let solo = smoke_service(31);
    let solo_entry = solo.register(None, &priors[1], DELTA, None, true).unwrap();
    assert_eq!(solo_entry.store().merge(), entries[1].store().merge());
}

#[test]
fn batch_warm_ups_run_as_traced_pool_jobs() {
    use serve::{Request, ServeEvent};
    // The worker-pool gauges are published at each Metrics readout.
    let jobs_submitted = |service: &Arc<Service>| {
        service.handle(Request::Metrics);
        let snapshot = service.obs().metrics_snapshot();
        let gauge = snapshot
            .gauges
            .iter()
            .find(|(name, _)| name == "serve_worker_jobs_submitted");
        gauge.map_or(0, |(_, value)| *value)
    };
    let service = smoke_service(31);
    let before = jobs_submitted(&service);
    let priors = vec![
        vec![0.3, 0.22, 0.18, 0.14, 0.1, 0.06],
        vec![0.4, 0.3, 0.2, 0.1],
        vec![0.6, 0.25, 0.15],
    ];
    let (entries, warmed) = service.register_batch(None, &priors, DELTA, None).unwrap();
    assert_eq!(warmed, priors.len());
    assert_eq!(jobs_submitted(&service) - before, priors.len() as u64);

    // Each warm-up went through the traced engine run of a solo warm-up:
    // its generations and its landed run 0 are in the trace.
    let (trace, dropped) = service.obs().trace_snapshot(None);
    assert_eq!(dropped, 0);
    for entry in &entries {
        assert!(entry.is_warm());
        let key = entry.key();
        assert!(trace.iter().any(|t| matches!(
            t.event,
            ServeEvent::RefreshRun { key: k, run_index: 0, landed: true, .. } if k == key
        )));
        assert!(trace.iter().any(|t| matches!(
            t.event,
            ServeEvent::Generation { key: k, .. } if k == key
        )));
    }
}
