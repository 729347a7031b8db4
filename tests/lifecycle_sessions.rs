//! End-to-end sessions against the key lifecycle engine.
//!
//! These are the acceptance tests of the lifecycle refactor: a
//! drift-stale key's refresh run demonstrably optimizes against the
//! *estimated* posterior (the refreshed Ω differs from the
//! prior-optimized Ω and improves MSE on the drifted stream); a
//! memory-budgeted session evicts least-recently-touched keys, stays
//! under the configured byte budget, and still answers bitwise-identical
//! queries after transparent re-warms; snapshots now carry ingest
//! accumulators and posteriors, so a restart resumes in-flight estimation
//! streams bitwise; an evicted key keeps its stream and replays its logged
//! runs, drift-targeted ones included, bit for bit, also through a
//! snapshot; and a property test drives arbitrary interleavings of
//! ingest/estimate/query/evict events against a never-evicted reference.

use proptest::{prop_assert_eq, proptest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{KeyState, Service, ServiceConfig};
use std::sync::Arc;

const PRIOR: [f64; 5] = [0.35, 0.25, 0.2, 0.12, 0.08];
const DELTA: f64 = 0.8;

fn smoke_service(seed: u64) -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig::smoke(seed)))
}

/// A drifted population: the registered prior's mass collapsed onto the
/// last two categories.
const DRIFTED_COUNTS: [u64; 5] = [200, 200, 600, 9_000, 10_000];

/// Slot-for-slot bitwise equality of two Ωs, ignoring the improvement
/// counters (eviction resets them; a re-warm reproduces the *entries*
/// bitwise but witnesses each slot winner only once).
fn same_omega_slots(a: &optrr::OmegaSet, b: &optrr::OmegaSet) -> bool {
    if a.num_slots() != b.num_slots() {
        return false;
    }
    (0..a.num_slots()).all(|slot| match (a.entry(slot), b.entry(slot)) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.evaluation.privacy.to_bits() == y.evaluation.privacy.to_bits()
                && x.evaluation.mse.to_bits() == y.evaluation.mse.to_bits()
                && x.matrix.max_abs_difference(&y.matrix) == Ok(0.0)
        }
        _ => false,
    })
}

#[test]
fn drift_stale_refresh_reoptimizes_against_the_estimated_posterior() {
    let seed = 2008;

    // The drifting service: ingest a stream far from the registered
    // prior, estimate (drift trips, one refresh scheduled), let it land.
    let drifting = smoke_service(seed);
    let drifted_key = drifting
        .register(Some("drifting"), &PRIOR, DELTA, None, true)
        .unwrap();
    drifting
        .ingest(&drifted_key, Some(0.0), None, Some(&DRIFTED_COUNTS), None)
        .unwrap();
    let estimate = drifting.estimate(&drifted_key).unwrap();
    assert!(estimate.drifted, "mse {}", estimate.mse_vs_prior);
    drifting.wait_idle();
    assert_eq!(drifted_key.engine_runs(), 2, "warm-up plus drift refresh");
    assert_eq!(drifted_key.state(), KeyState::Warm);
    assert_eq!(drifted_key.drift_events(), 1);

    // The control service: same seed, same registration, but a *manual*
    // refresh — run index 1 with the identical engine budget, so the only
    // difference to the drift refresh is the optimization target.
    let control = smoke_service(seed);
    let control_key = control
        .register(Some("control"), &PRIOR, DELTA, None, true)
        .unwrap();
    control.refresh(&control_key, 1);
    control.wait_idle();
    assert_eq!(control_key.engine_runs(), 2);

    // The refreshed Ω differs from the prior-optimized Ω: the drift run
    // searched for matrices good at reconstructing the drifted stream.
    let drifted_omega = drifted_key.store().merge();
    let control_omega = control_key.store().merge();
    assert_ne!(
        drifted_omega, control_omega,
        "the drift refresh must not reproduce the prior-targeted run"
    );

    // And it demonstrably improves MSE on the drifted stream: evaluate
    // both stores' best matrices under the *estimated* distribution. The
    // drift-refreshed store must hold the better (or equal) reconstruction
    // at the floor of the privacy axis, and strictly better somewhere.
    let posterior = estimate.distribution.clone();
    let config = optrr::OptrrConfig {
        delta: DELTA,
        omega_slots: drifted_key.num_slots(),
        seed,
        ..drifting.config().base.clone()
    };
    let scorer = optrr::OptrrProblem::new(posterior, &config).unwrap();
    let mse_under_drift = |omega: &optrr::OmegaSet, floor: f64| -> Option<f64> {
        omega
            .entries()
            .filter(|e| e.evaluation.privacy >= floor)
            .map(|e| scorer.evaluate_matrix(&e.matrix).mse)
            .fold(None, |best: Option<f64>, mse| {
                Some(best.map_or(mse, |b| b.min(mse)))
            })
    };
    let mut strictly_better_somewhere = false;
    for floor in [0.0, 0.02, 0.05, 0.1] {
        let drift_best = mse_under_drift(&drifted_omega, floor);
        let control_best = mse_under_drift(&control_omega, floor);
        if let (Some(d), Some(c)) = (drift_best, control_best) {
            assert!(
                d <= c * 1.0001,
                "at privacy floor {floor}: drift-refreshed mse {d} vs prior-refreshed {c}"
            );
            if d < c {
                strictly_better_somewhere = true;
            }
        }
    }
    assert!(
        strictly_better_somewhere,
        "the drift refresh must strictly improve reconstruction of the drifted stream somewhere"
    );
}

#[test]
fn snapshot_resumes_in_flight_estimation_streams_bitwise() {
    let dir = std::env::temp_dir().join("optrr_lifecycle_pipeline_snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.json");
    let path = path.to_str().unwrap();

    let seed = 99;
    let service = smoke_service(seed);
    let entry = service
        .register(Some("stream"), &PRIOR, DELTA, None, true)
        .unwrap();
    let source = entry.prior().clone();
    let mut rng = StdRng::seed_from_u64(7);
    for batch in 0..3 {
        let records = source.sample_many(&mut rng, 1_500);
        service
            .ingest(&entry, Some(0.05), Some(&records), None, Some(batch))
            .unwrap();
    }
    let mid_estimate = service.estimate(&entry).unwrap();
    assert_eq!(service.save_snapshot(path).unwrap(), 1);

    // A restarted service resumes the stream: pinned channel, counts,
    // batch counters, and posterior all come back — zero engine runs. The
    // second source is the same stream's snapshot as written before
    // pipeline snapshots dropped their own `drift_events` (the key-level
    // counter persists it); decoding ignores the extra field.
    let legacy = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/stream_snapshot_v1_pipeline_drift_events.json"
    );
    let original_pipeline = entry.pipeline().unwrap();
    let mut resumed_services = Vec::new();
    for file in [path, legacy] {
        let restarted = smoke_service(seed);
        let (created, merged) = restarted.load_snapshot(file).unwrap();
        assert_eq!((created, merged), (1, 0), "{file}");
        let restored = restarted.resolve(None, Some("stream")).unwrap();
        assert_eq!(restored.engine_runs(), 1, "restored, not re-run");
        assert_eq!(restored.drift_events(), entry.drift_events());
        assert_eq!(restored.store().merge(), entry.store().merge());
        let pipeline = restored.pipeline().expect("pipeline restored");
        assert_eq!(
            pipeline.counts().merge(),
            original_pipeline.counts().merge()
        );
        assert_eq!(pipeline.raw_records(), original_pipeline.raw_records());
        assert_eq!(pipeline.estimates(), 1);
        assert_eq!(
            pipeline
                .matrix()
                .max_abs_difference(original_pipeline.matrix())
                .unwrap(),
            0.0,
            "the pinned channel is restored exactly"
        );
        for (a, b) in pipeline
            .posterior()
            .expect("posterior restored")
            .probs()
            .iter()
            .zip(mid_estimate.distribution.probs())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        resumed_services.push((restarted, restored));
    }

    // Continuing the stream on every side produces bitwise-equal
    // estimates: the restart is invisible to the estimators.
    let next_batch = source.sample_many(&mut rng, 1_500);
    service
        .ingest(&entry, None, Some(&next_batch), None, Some(100))
        .unwrap();
    let live = service.estimate(&entry).unwrap();
    for (restarted, restored) in &resumed_services {
        restarted
            .ingest(restored, None, Some(&next_batch), None, Some(100))
            .unwrap();
        let resumed = restarted.estimate(restored).unwrap();
        assert_eq!(live.method, resumed.method);
        assert_eq!(live.total_responses, resumed.total_responses);
        assert_eq!(live.batches, resumed.batches);
        for (a, b) in live
            .distribution
            .probs()
            .iter()
            .zip(resumed.distribution.probs())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(live.mse_vs_prior.to_bits(), resumed.mse_vs_prior.to_bits());
        // Still no engine run on the restarted side.
        restarted.wait_idle();
        assert_eq!(restored.engine_runs(), 1);
    }
}

#[test]
fn memory_budgeted_session_evicts_lru_and_answers_bitwise_after_rewarm() {
    let seed = 31;
    let priors: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            let skew = 1.0 + i as f64 * 0.35;
            let weights: Vec<f64> = (0..4).map(|c| 1.0 / (c as f64 + skew)).collect();
            weights
        })
        .collect();

    // Probe one key's footprint, then budget roughly three keys.
    let probe = Arc::new(Service::new(ServiceConfig::tiny(seed)));
    let probed = probe.register(None, &priors[0], DELTA, None, true).unwrap();
    let budget = probed.resident_bytes() * 3;

    let mut config = ServiceConfig::tiny(seed);
    config.memory_budget_bytes = Some(budget);
    let service = Arc::new(Service::new(config));
    let mut entries = Vec::new();
    let mut warm_merges = Vec::new();
    for prior in &priors {
        let entry = service.register(None, prior, DELTA, None, true).unwrap();
        warm_merges.push(entry.store().merge());
        entries.push(entry);
    }
    service.wait_idle();

    let totals = service.totals();
    let (resident, evictions) = (totals.resident_bytes, totals.evictions);
    assert!(resident <= budget, "{resident} > {budget}");
    assert!(evictions > 0, "six keys cannot fit a three-key budget");
    assert!(entries.iter().any(|e| e.state() == KeyState::Evicted));

    // Every key — evicted or not — answers, and after its (possible)
    // transparent re-warm its store is bitwise what it was when warm.
    for (entry, warm_merge) in entries.iter().zip(&warm_merges) {
        let found = service.best_for_privacy(entry, 0.0);
        assert!(found.is_some(), "key {:x} lost its answers", entry.key());
        let resident = service.totals().resident_bytes;
        assert!(resident <= budget, "{resident} > {budget} mid-queries");
        assert!(
            same_omega_slots(&entry.store().merge(), warm_merge),
            "key {:x} re-warmed differently",
            entry.key()
        );
        assert_eq!(entry.engine_runs(), 1, "re-warm replays, never re-claims");
    }
    service.wait_idle();
    let totals = service.totals();
    assert!(
        totals.resident_bytes <= budget,
        "{} > {budget} after re-warms",
        totals.resident_bytes
    );
    assert!(
        totals.rewarms > 0,
        "querying every key re-warms the evicted ones"
    );
}

#[test]
fn drift_history_replays_bitwise_after_eviction_and_through_a_snapshot() {
    let dir = std::env::temp_dir().join("optrr_lifecycle_run_log_snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let (warm_path, evicted_path) = (dir.join("warm.json"), dir.join("evicted.json"));
    let (warm_path, evicted_path) = (warm_path.to_str().unwrap(), evicted_path.to_str().unwrap());

    // Run 1 of this key targets the estimated posterior, not the prior.
    let seed = 2008;
    let service = smoke_service(seed);
    let entry = service
        .register(Some("drifting"), &PRIOR, DELTA, None, true)
        .unwrap();
    service
        .ingest(&entry, Some(0.0), None, Some(&DRIFTED_COUNTS), None)
        .unwrap();
    let estimate = service.estimate(&entry).unwrap();
    assert!(estimate.drifted);
    service.wait_idle();
    assert_eq!(entry.engine_runs(), 2);
    let warm = entry.store().merge();
    service.save_snapshot(warm_path).unwrap();

    // Eviction keeps the stream, and the replay of both logged runs
    // lands the same Ω.
    let pipeline = entry.pipeline().unwrap();
    service.evict_key(&entry).expect("idle key evicts");
    assert!(Arc::ptr_eq(&entry.pipeline().unwrap(), &pipeline));
    assert!(service.best_for_privacy(&entry, 0.0).is_some());
    assert!(same_omega_slots(&entry.store().merge(), &warm));
    assert_eq!((entry.engine_runs(), entry.rewarms()), (2, 1));

    // A snapshot written while the key is evicted carries its stream and
    // run log, and so does one written while it is warm: a restarted
    // service evicted either way replays the same Ω, and estimates from
    // the same counts.
    service.evict_key(&entry).expect("idle key evicts");
    service.save_snapshot(evicted_path).unwrap();
    for path in [warm_path, evicted_path] {
        let restarted = smoke_service(seed);
        restarted.load_snapshot(path).unwrap();
        let restored = restarted.resolve(None, Some("drifting")).unwrap();
        restarted.evict_key(&restored);
        assert_eq!(restored.state(), KeyState::Evicted, "{path}");
        assert!(restarted.best_for_privacy(&restored, 0.0).is_some());
        assert!(
            same_omega_slots(&restored.store().merge(), &warm),
            "{path}: the replay must land the drift run's Ω"
        );
        assert_eq!(restored.engine_runs(), 2, "{path}");
        let resumed = restarted.estimate(&restored).unwrap();
        assert_eq!(resumed.total_responses, estimate.total_responses, "{path}");
        restarted.wait_idle();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The events the lifecycle property test interleaves.
#[derive(Debug, Clone, Copy)]
enum Event {
    IngestRecords(u8),
    IngestCounts(u8),
    Estimate,
    Query(u8),
    Evict,
}

fn decode_event(byte: u8) -> Event {
    match byte % 8 {
        0 | 1 => Event::IngestRecords(byte),
        2 => Event::IngestCounts(byte),
        3 | 4 => Event::Query(byte),
        5 => Event::Estimate,
        _ => Event::Evict,
    }
}

/// Applies one event to a service. `evict` is false on the never-evicted
/// reference, which must behave identically to the evicting subject.
fn apply_event(
    service: &Arc<Service>,
    entry: &Arc<serve::KeyEntry>,
    event: Event,
    evict: bool,
) -> Vec<u64> {
    match event {
        Event::IngestRecords(salt) => {
            let records: Vec<usize> = (0..20 + salt as usize % 13)
                .map(|r| (r * 7 + salt as usize) % 4)
                .collect();
            let out = service
                .ingest(entry, Some(0.0), Some(&records), None, Some(salt as u64))
                .unwrap();
            vec![out.accepted, out.retained, out.total, out.batches]
        }
        Event::IngestCounts(salt) => {
            let counts: [u64; 4] = [salt as u64 + 1, 3, 0, salt as u64 % 5];
            let out = service
                .ingest(entry, Some(0.0), None, Some(&counts), None)
                .unwrap();
            vec![out.accepted, out.total, out.batches]
        }
        Event::Estimate => match service.estimate(entry) {
            Ok(out) => {
                // Drift may schedule a refresh; drain it so both services
                // stay in lock-step.
                service.wait_idle();
                let mut bits: Vec<u64> = out
                    .distribution
                    .probs()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                bits.push(out.total_responses);
                bits.push(out.batches);
                bits.push(out.mse_vs_prior.to_bits());
                bits
            }
            Err(_) => vec![u64::MAX],
        },
        Event::Query(salt) => {
            let floor = (salt % 10) as f64 / 20.0;
            match service.best_for_privacy(entry, floor) {
                Some(found) => vec![
                    found.evaluation.privacy.to_bits(),
                    found.evaluation.mse.to_bits(),
                ],
                None => vec![0],
            }
        }
        Event::Evict => {
            if evict {
                service.wait_idle();
                service.evict_key(entry);
            }
            Vec::new()
        }
    }
}

proptest! {
    /// The lifecycle property: any interleaving of
    /// ingest/estimate/query/evict events yields results bitwise-equal to
    /// a never-evicted single-threaded run over the same events. Drifted
    /// estimates schedule posterior-targeted runs, which the subject's
    /// re-warms replay. Runs `PROPTEST_CASES` cases (64 by default).
    #[test]
    fn any_event_interleaving_matches_a_never_evicted_run(
        bytes in proptest::collection::vec(0u8..=255u8, 1..16),
    ) {
        let seed = 4242;
        // The subject evicts, with no snapshot path: every re-warm is a
        // replay of the logged runs. The reference never evicts.
        // Everything else is identical.
        let subject = Arc::new(Service::new(ServiceConfig::tiny(seed)));
        let reference = Arc::new(Service::new(ServiceConfig::tiny(seed)));

        let subject_key = subject
            .register(None, &[0.4, 0.3, 0.2, 0.1], DELTA, None, true)
            .unwrap();
        let reference_key = reference
            .register(None, &[0.4, 0.3, 0.2, 0.1], DELTA, None, true)
            .unwrap();

        for &byte in &bytes {
            let event = decode_event(byte);
            let subject_out = apply_event(&subject, &subject_key, event, true);
            let reference_out = apply_event(&reference, &reference_key, event, false);
            prop_assert_eq!(
                subject_out,
                reference_out,
                "event {:?} diverged (case {:?})",
                event,
                &bytes
            );
        }
        subject.wait_idle();
        reference.wait_idle();
        // The final stores agree bitwise (after re-warming the subject if
        // the last event left it evicted).
        subject.ensure_live(&subject_key);
        subject.wait_idle();
        proptest::prop_assert!(
            same_omega_slots(
                &subject_key.store().merge(),
                &reference_key.store().merge()
            ),
            "final stores diverged (case {:?})",
            &bytes
        );
        prop_assert_eq!(
            subject_key.engine_runs(),
            reference_key.engine_runs(),
            "eviction must not burn run indices"
        );
    }
}
