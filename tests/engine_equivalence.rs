//! Engine-equivalence integration tests: the paper argues the choice of
//! EMOO engine is interchangeable, and the `Engine` abstraction makes that
//! testable — SPEA2 and NSGA-II run through the identical `core::Optimizer`
//! code path, selected purely by configuration, and must produce fronts of
//! comparable quality.

use suite::{datagen, integration_config_for, optrr, stats};

use datagen::{synthetic, SourceDistribution, SyntheticConfig};
use optrr::{FrontComparison, Optimizer, OptrrOutcome};
use stats::Categorical;
use suite::emoo::EngineKind;

fn workload_prior(seed: u64) -> (Categorical, u64) {
    let workload = synthetic::generate(&SyntheticConfig::paper_default(
        SourceDistribution::standard_normal(),
        seed,
    ))
    .unwrap();
    let prior = workload.dataset.empirical_distribution().unwrap();
    (prior, workload.dataset.len() as u64)
}

fn run_with(kind: EngineKind, delta: f64, seed: u64) -> OptrrOutcome {
    let (prior, num_records) = workload_prior(seed);
    let mut config = integration_config_for(kind, delta, seed);
    config.num_records = num_records;
    Optimizer::new(config)
        .unwrap()
        .optimize_distribution(&prior)
        .unwrap()
}

#[test]
fn spea2_and_nsga2_produce_comparable_feasible_fronts() {
    let delta = 0.8;
    let seed = 41;
    let spea2 = run_with(EngineKind::Spea2, delta, seed);
    let nsga2 = run_with(EngineKind::Nsga2, delta, seed);

    for (label, outcome) in [("SPEA2", &spea2), ("NSGA-II", &nsga2)] {
        assert!(!outcome.front.is_empty(), "{label} front must not be empty");
        assert!(
            outcome.statistics.generations_run > 0,
            "{label} ran no generations"
        );
        for entry in outcome.omega.entries() {
            assert!(
                entry.evaluation.feasible,
                "{label} stored an infeasible matrix"
            );
            assert!(
                entry.evaluation.max_posterior <= delta + 1e-6,
                "{label} violates the delta bound"
            );
        }
    }

    // The two backends explore the same search space and must land on
    // fronts of comparable quality: hypervolumes within 15% of each other.
    let cmp = FrontComparison::compare(&spea2.front, &nsga2.front, 60);
    let (hv_spea2, hv_nsga2) = (cmp.challenger_hypervolume, cmp.baseline_hypervolume);
    assert!(hv_spea2 > 0.0 && hv_nsga2 > 0.0);
    let relative_gap = (hv_spea2 - hv_nsga2).abs() / hv_spea2.max(hv_nsga2);
    assert!(
        relative_gap <= 0.15,
        "engine hypervolumes diverge by {:.1}%: SPEA2 {hv_spea2:.4e} vs NSGA-II {hv_nsga2:.4e}",
        relative_gap * 100.0
    );
}

#[test]
fn engine_kind_is_selected_purely_by_config() {
    // Same config except for the backend selector: both must run end to
    // end, and the selector must actually change the search trajectory.
    let a = run_with(EngineKind::Spea2, 0.75, 42);
    let b = run_with(EngineKind::Nsga2, 0.75, 42);
    assert!(!a.front.is_empty() && !b.front.is_empty());
    let identical = a.front.points.len() == b.front.points.len()
        && a.front
            .points
            .iter()
            .zip(&b.front.points)
            .all(|(x, y)| x.privacy == y.privacy && x.mse == y.mse);
    assert!(
        !identical,
        "the two backends produced bit-identical fronts, selector is dead"
    );
}

#[test]
fn omega_offers_resolve_from_the_evaluation_cache() {
    // The acceptance criterion of the engine refactor: per-generation Ω
    // offers must not recompute evaluations. Every feasible individual the
    // observer sees was just evaluated by the engine, so cache hits must
    // dominate and misses must stay close to the engine's own evaluation
    // count (reporting the final archive adds only cache hits).
    let outcome = run_with(EngineKind::Spea2, 0.8, 44);
    let stats = &outcome.statistics;
    assert!(
        stats.cache_hits > 0,
        "omega offers never hit the cache: hits {} misses {}",
        stats.cache_hits,
        stats.cache_misses
    );
    assert!(
        stats.cache_misses <= stats.evaluations as u64,
        "more evaluations computed ({}) than the engine requested ({})",
        stats.cache_misses,
        stats.evaluations
    );
    // Offers happen once per archive+population member per generation; with
    // ~120 generations the hit count must far exceed the miss count.
    assert!(
        stats.cache_hits > stats.cache_misses,
        "expected cache hits ({}) to dominate misses ({})",
        stats.cache_hits,
        stats.cache_misses
    );
}
