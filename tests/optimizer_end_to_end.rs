//! End-to-end integration tests of the OptRR optimizer against the Warner
//! baseline on the paper's workloads — the reduced-budget counterpart of
//! the Figure 4 / Figure 5 experiments.

use suite::{datagen, emoo, integration_config, optrr, rr, stats};

use datagen::{synthetic, SourceDistribution, SyntheticConfig};
use optrr::{baseline_sweep, FrontComparison, Optimizer, OptrrProblem, SchemeKind};
use rr::metrics::bounds::satisfies_delta_bound;
use stats::Categorical;

fn workload_prior(source: SourceDistribution, seed: u64) -> (Categorical, u64) {
    let workload = synthetic::generate(&SyntheticConfig::paper_default(source, seed)).unwrap();
    let prior = workload.dataset.empirical_distribution().unwrap();
    (prior, workload.dataset.len() as u64)
}

fn run_comparison(source: SourceDistribution, delta: f64, seed: u64) -> FrontComparison {
    let (prior, num_records) = workload_prior(source, seed);
    let mut config = integration_config(delta, seed);
    config.num_records = num_records;

    let problem = OptrrProblem::new(prior.clone(), &config).unwrap();
    let warner = baseline_sweep(&problem, SchemeKind::Warner, 501);
    let outcome = Optimizer::new(config)
        .unwrap()
        .optimize_distribution(&prior)
        .unwrap();

    // Every matrix in the optimal set respects the delta bound.
    for entry in outcome.omega.entries() {
        assert!(entry.evaluation.feasible);
        assert!(
            satisfies_delta_bound(&entry.matrix, &prior, delta, 1e-6).unwrap(),
            "omega entry violates the delta bound"
        );
    }
    assert!(!outcome.front.is_empty());
    FrontComparison::compare(&outcome.front, &warner.front, 60)
}

#[test]
fn optrr_matches_or_beats_warner_on_the_normal_workload() {
    let cmp = run_comparison(SourceDistribution::standard_normal(), 0.8, 71);
    assert!(
        cmp.challenger_hypervolume >= cmp.baseline_hypervolume * 0.98,
        "hypervolume {} vs {}",
        cmp.challenger_hypervolume,
        cmp.baseline_hypervolume
    );
    assert!(
        cmp.fraction_better_at_matched_privacy >= 0.3,
        "better at only {:.0}% of matched privacy levels",
        cmp.fraction_better_at_matched_privacy * 100.0
    );
    // OptRR covers at least Warner's privacy range on its low end.
    let (c_lo, _) = cmp.challenger_privacy_range.unwrap();
    let (b_lo, _) = cmp.baseline_privacy_range.unwrap();
    assert!(
        c_lo <= b_lo + 0.03,
        "OptRR min privacy {c_lo} vs Warner {b_lo}"
    );
}

#[test]
fn optrr_matches_or_beats_warner_on_the_gamma_workload() {
    let cmp = run_comparison(SourceDistribution::paper_gamma(), 0.75, 72);
    assert!(cmp.challenger_hypervolume >= cmp.baseline_hypervolume * 0.98);
    assert!(cmp.fraction_better_at_matched_privacy >= 0.3);
}

#[test]
fn optrr_matches_warner_privacy_range_on_the_uniform_workload() {
    // The paper's Figure 5(b) observation: on the uniform distribution the
    // privacy ranges coincide (OptRR cannot extend below Warner's minimum),
    // while utility is no worse.
    let cmp = run_comparison(SourceDistribution::DiscreteUniform, 0.75, 73);
    let (c_lo, c_hi) = cmp.challenger_privacy_range.unwrap();
    let (b_lo, b_hi) = cmp.baseline_privacy_range.unwrap();
    assert!((c_lo - b_lo).abs() < 0.1, "low ends {c_lo} vs {b_lo}");
    assert!((c_hi - b_hi).abs() < 0.1, "high ends {c_hi} vs {b_hi}");
    assert!(cmp.challenger_hypervolume >= cmp.baseline_hypervolume * 0.95);
}

#[test]
fn stricter_delta_narrows_warner_but_optrr_still_covers_it() {
    // Figure 4 trend: as delta tightens, the Warner scheme loses its
    // low-privacy end; OptRR keeps covering at least what Warner covers.
    let (prior, num_records) = workload_prior(SourceDistribution::standard_normal(), 74);

    let mut warner_min_privacy = Vec::new();
    for &delta in &[0.9, 0.7] {
        let mut config = integration_config(delta, 74);
        config.num_records = num_records;
        let problem = OptrrProblem::new(prior.clone(), &config).unwrap();
        let warner = baseline_sweep(&problem, SchemeKind::Warner, 501);
        let (w_lo, _) = warner.front.privacy_range().unwrap();
        warner_min_privacy.push(w_lo);

        let outcome = Optimizer::new(config)
            .unwrap()
            .optimize_distribution(&prior)
            .unwrap();
        let (o_lo, _) = outcome.front.privacy_range().unwrap();
        assert!(
            o_lo <= w_lo + 0.03,
            "delta {delta}: OptRR min privacy {o_lo} vs Warner {w_lo}"
        );
    }
    assert!(
        warner_min_privacy[1] > warner_min_privacy[0],
        "tighter delta must raise Warner's minimum privacy: {warner_min_privacy:?}"
    );
}

#[test]
fn recommended_matrices_satisfy_the_requested_privacy() {
    let (prior, num_records) = workload_prior(SourceDistribution::paper_gamma(), 75);
    let mut config = integration_config(0.8, 75);
    config.num_records = num_records;
    let outcome = Optimizer::new(config)
        .unwrap()
        .optimize_distribution(&prior)
        .unwrap();

    let (lo, hi) = outcome.front.privacy_range().unwrap();
    let target = (lo + hi) / 2.0;
    let entry = outcome
        .omega
        .best_for_privacy_at_least(target)
        .expect("a matrix exists in the covered range");
    assert!(entry.evaluation.privacy >= target);
    // And it is the best such matrix: no other omega entry with >= target
    // privacy has a strictly lower MSE.
    for other in outcome.omega.entries() {
        if other.evaluation.privacy >= target {
            assert!(other.evaluation.mse >= entry.evaluation.mse - 1e-15);
        }
    }
}

/// Folds one stored matrix and its evaluation into `words`: every matrix
/// entry's bits, then the evaluation's three numbers and its flag.
fn push_entry_bits(words: &mut Vec<u64>, matrix: &rr::RrMatrix, eval: &optrr::Evaluation) {
    words.extend(matrix.as_matrix().as_slice().iter().map(|x| x.to_bits()));
    words.push(eval.privacy.to_bits());
    words.push(eval.mse.to_bits());
    words.push(eval.max_posterior.to_bits());
    words.push(eval.feasible as u64);
}

#[test]
fn optimizer_bits_are_pinned() {
    // One digest over Ω and the final archive of twelve fast runs (both
    // engines, n = 10 and 16, three δ). Any change to the bits the
    // optimizer produces moves this constant; a change that claims to be
    // bitwise must leave it alone.
    let mut words = Vec::new();
    for kind in [emoo::EngineKind::Spea2, emoo::EngineKind::Nsga2] {
        for n in [10usize, 16] {
            let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k as f64 + 2.0)).collect();
            let total: f64 = weights.iter().sum();
            let prior = Categorical::new(weights.iter().map(|w| w / total).collect()).unwrap();
            for delta in [0.7, 0.8, 0.9] {
                let config = optrr::OptrrConfig {
                    engine_kind: kind,
                    ..optrr::OptrrConfig::fast(delta, 21)
                };
                let outcome = Optimizer::new(config)
                    .unwrap()
                    .optimize_distribution(&prior)
                    .unwrap();
                words.push(outcome.omega.len() as u64);
                for entry in outcome.omega.entries() {
                    push_entry_bits(&mut words, &entry.matrix, &entry.evaluation);
                }
                words.push(outcome.archive.len() as u64);
                for (matrix, eval) in &outcome.archive {
                    push_entry_bits(&mut words, matrix, eval);
                }
            }
        }
    }
    assert_eq!(optrr::fnv1a_64(words), 0x9891_65db_6fe7_5e8b);
}

/// Folds one run's Ω and final archive into `words`, the layout
/// `optimizer_bits_are_pinned` uses.
fn push_outcome_bits(words: &mut Vec<u64>, outcome: &optrr::OptrrOutcome) {
    words.push(outcome.omega.len() as u64);
    for entry in outcome.omega.entries() {
        push_entry_bits(words, &entry.matrix, &entry.evaluation);
    }
    words.push(outcome.archive.len() as u64);
    for (matrix, eval) in &outcome.archive {
        push_entry_bits(words, matrix, eval);
    }
}

/// The harmonic-weight prior of the pins, over `n` categories.
fn harmonic_prior(n: usize) -> Categorical {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k as f64 + 2.0)).collect();
    let total: f64 = weights.iter().sum();
    Categorical::new(weights.iter().map(|w| w / total).collect()).unwrap()
}

#[test]
fn optimizer_bits_are_pinned_off_the_fast_path() {
    // The paths `optimizer_bits_are_pinned` does not take, both engines:
    // a warm-seeded run, a symmetric-only run, a run over a wide n = 24
    // domain, and a run that stops on stagnation.
    let mut words = Vec::new();
    for kind in [emoo::EngineKind::Spea2, emoo::EngineKind::Nsga2] {
        let base = optrr::OptrrConfig {
            engine_kind: kind,
            ..optrr::OptrrConfig::fast(0.8, 33)
        };
        let prior = harmonic_prior(10);

        let optimizer = Optimizer::new(base.clone()).unwrap();
        let first = optimizer.optimize_distribution(&prior).unwrap();
        let warm = optimizer
            .optimize_distribution_seeded(&prior, first.warm_seeds())
            .unwrap();
        push_outcome_bits(&mut words, &warm);

        let symmetric = optrr::OptrrConfig {
            symmetric_only: true,
            ..base.clone()
        };
        let outcome = Optimizer::new(symmetric)
            .unwrap()
            .optimize_distribution(&prior)
            .unwrap();
        push_outcome_bits(&mut words, &outcome);

        let wide_run = optrr::OptrrConfig {
            engine: emoo::EngineConfig {
                generations: 12,
                ..base.engine
            },
            ..base.clone()
        };
        let wide = harmonic_prior(24);
        let outcome = Optimizer::new(wide_run)
            .unwrap()
            .optimize_distribution(&wide)
            .unwrap();
        push_outcome_bits(&mut words, &outcome);

        let stagnating = optrr::OptrrConfig {
            stagnation_generations: Some(3),
            omega_slots: 40,
            engine: emoo::EngineConfig {
                generations: 500,
                ..base.engine
            },
            ..base.clone()
        };
        let outcome = Optimizer::new(stagnating)
            .unwrap()
            .optimize_distribution(&prior)
            .unwrap();
        assert!(outcome.statistics.generations_run < 500);
        words.push(outcome.statistics.generations_run as u64);
        push_outcome_bits(&mut words, &outcome);
    }
    assert_eq!(optrr::fnv1a_64(words), 0x5e8a_179d_ff26_c6e6);
}
