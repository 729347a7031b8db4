//! Integration tests of the privacy-preserving mining applications built on
//! top of the RR substrate: mining results computed from disguised data
//! converge to the results computed from the original data, and OptRR
//! matrices serve those applications at least as well as Warner matrices of
//! equal privacy.

use rand::rngs::StdRng;
use rand::SeedableRng;
use suite::{datagen, integration_config, mining, optrr, rr, stats};

use datagen::labeled::{generate as generate_labeled, LabeledConfig};
use datagen::transactions::{generate as generate_txns, TransactionConfig};
use mining::decision_tree::{accuracy, build_tree, AttributeView, TreeConfig};
use mining::{frequent_itemsets, AprioriConfig, Reconstructor, SupportOracle};
use optrr::Optimizer;
use rr::disguise::disguise_dataset;
use rr::schemes::warner;
use stats::divergence::total_variation;

#[test]
fn association_rule_mining_survives_disguise() {
    let data = generate_txns(&TransactionConfig {
        num_items: 16,
        num_transactions: 25_000,
        background_prob: 0.04,
        planted_itemsets: vec![(vec![0, 1], 0.3), (vec![2, 3], 0.25)],
        seed: 91,
    })
    .unwrap();
    let m = warner(2, 0.85).unwrap();
    let mut rng = StdRng::seed_from_u64(92);
    let disguised = mining::disguise_transactions(&m, &data, &mut rng).unwrap();

    let config = AprioriConfig {
        min_support: 0.2,
        min_confidence: 0.6,
        max_itemset_size: 2,
    };
    let exact = frequent_itemsets(&SupportOracle::Exact(&data), &config).unwrap();
    let reconstructed = frequent_itemsets(
        &SupportOracle::Reconstructed {
            matrix: &m,
            disguised: &disguised,
        },
        &config,
    )
    .unwrap();

    // Both runs discover the two planted patterns.
    for items in [vec![0, 1], vec![2, 3]] {
        assert!(
            exact.iter().any(|s| s.items == items),
            "exact missing {items:?}"
        );
        assert!(
            reconstructed.iter().any(|s| s.items == items),
            "reconstructed missing {items:?}"
        );
    }
    // Estimated supports track exact supports.
    for e in &exact {
        if let Some(r) = reconstructed.iter().find(|s| s.items == e.items) {
            assert!((r.support - e.support).abs() < 0.05, "{:?}", e.items);
        }
    }
}

#[test]
fn decision_tree_on_disguised_attribute_stays_useful() {
    let train = generate_labeled(&LabeledConfig {
        num_records: 8_000,
        seed: 93,
        ..Default::default()
    })
    .unwrap();
    let test = generate_labeled(&LabeledConfig {
        num_records: 2_000,
        seed: 94,
        ..Default::default()
    })
    .unwrap();

    let plain_views = vec![AttributeView::Plain; train.num_attributes()];
    let plain_tree = build_tree(&train, &plain_views, &TreeConfig::default()).unwrap();
    let plain_acc = accuracy(&plain_tree, &test).unwrap();

    let domain = train.attribute(0).unwrap().num_categories();
    let m = warner(domain, 0.8).unwrap();
    let mut rng = StdRng::seed_from_u64(95);
    let disguised_column = disguise_dataset(&m, train.attribute(0).unwrap(), &mut rng)
        .unwrap()
        .disguised;
    let disguised_train = train.with_attribute(0, disguised_column).unwrap();
    let mut views = vec![AttributeView::Plain; train.num_attributes()];
    views[0] = AttributeView::Disguised(&m);
    let disguised_tree = build_tree(&disguised_train, &views, &TreeConfig::default()).unwrap();
    let disguised_acc = accuracy(&disguised_tree, &test).unwrap();

    assert!(plain_acc > 0.78, "plain accuracy {plain_acc}");
    assert!(disguised_acc > 0.6, "disguised accuracy {disguised_acc}");
}

#[test]
fn reconstruction_error_shrinks_with_more_records() {
    // The aggregate-information guarantee behind all of the mining: the
    // reconstructed distribution converges as the data set grows.
    let prior = stats::Categorical::new(vec![0.35, 0.3, 0.2, 0.1, 0.05]).unwrap();
    let m = warner(5, 0.6).unwrap();
    let mut errors = Vec::new();
    for (records, seed) in [(500usize, 96u64), (5_000, 97), (50_000, 98)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let original =
            datagen::CategoricalDataset::new(5, prior.sample_many(&mut rng, records)).unwrap();
        let disguised = disguise_dataset(&m, &original, &mut rng).unwrap().disguised;
        let est = Reconstructor::Inversion
            .reconstruct(&m, &disguised)
            .unwrap();
        errors.push(total_variation(&est, &prior).unwrap());
    }
    assert!(errors[2] < errors[0], "errors should shrink: {errors:?}");
    assert!(errors[2] < 0.02, "large-sample error {}", errors[2]);
}

#[test]
fn optrr_matrix_preserves_mining_utility_at_matched_privacy() {
    // Pick a Warner matrix, find an OptRR matrix with at least the same
    // privacy, and verify the OptRR matrix reconstructs the distribution at
    // least as well (lower or equal closed-form MSE, and comparable
    // empirical reconstruction error).
    let workload = datagen::synthetic::generate(&datagen::SyntheticConfig::paper_default(
        datagen::SourceDistribution::paper_gamma(),
        99,
    ))
    .unwrap();
    let prior = workload.dataset.empirical_distribution().unwrap();
    let n_records = workload.dataset.len() as u64;

    let mut config = integration_config(0.8, 99);
    config.num_records = n_records;

    // Reference point: a *feasible* Warner matrix (one that satisfies the
    // same delta bound the optimizer works under) whose privacy falls in the
    // middle of the range the OptRR run actually covers, so the comparison
    // happens at a matched, reachable privacy level. The front can reach
    // below the least private feasible Warner matrix, so the target is
    // raised to that matrix's privacy when the middle falls below it.
    let problem = optrr::OptrrProblem::new(prior.clone(), &config).unwrap();
    let sweep = optrr::baseline_sweep(&problem, optrr::SchemeKind::Warner, 401);
    let outcome = Optimizer::new(config)
        .unwrap()
        .optimize_distribution(&prior)
        .unwrap();
    let (front_lo, front_hi) = outcome.front.privacy_range().unwrap();
    let feasible_warner = sweep.points.iter().filter(|p| p.evaluation.feasible);
    let warner_lo = feasible_warner
        .clone()
        .map(|p| p.evaluation.privacy)
        .fold(f64::INFINITY, f64::min);
    let target_privacy = (0.5 * (front_lo + front_hi)).max(warner_lo);
    let reference = feasible_warner
        .filter(|p| p.evaluation.privacy <= target_privacy)
        .min_by(|a, b| {
            (target_privacy - a.evaluation.privacy)
                .partial_cmp(&(target_privacy - b.evaluation.privacy))
                .unwrap()
        })
        .expect("a feasible Warner matrix exists at or below the target privacy");
    let warner_matrix = warner(10, reference.parameter).unwrap();
    let warner_privacy = reference.evaluation.privacy;
    let warner_mse = reference.evaluation.mse;
    let Some(entry) = outcome.omega.best_for_privacy_at_least(warner_privacy) else {
        panic!("OptRR found no matrix at privacy >= {warner_privacy}");
    };

    assert!(entry.evaluation.privacy >= warner_privacy);
    assert!(
        entry.evaluation.mse <= warner_mse * 1.05,
        "OptRR MSE {} should not be materially worse than Warner {}",
        entry.evaluation.mse,
        warner_mse
    );

    // Empirical check: reconstruct the distribution through both matrices.
    let mut rng = StdRng::seed_from_u64(100);
    let disguised_warner = disguise_dataset(&warner_matrix, &workload.dataset, &mut rng)
        .unwrap()
        .disguised;
    let disguised_optrr = disguise_dataset(&entry.matrix, &workload.dataset, &mut rng)
        .unwrap()
        .disguised;
    let err_warner = total_variation(
        &Reconstructor::Inversion
            .reconstruct(&warner_matrix, &disguised_warner)
            .unwrap(),
        &prior,
    )
    .unwrap();
    let err_optrr = total_variation(
        &Reconstructor::Inversion
            .reconstruct(&entry.matrix, &disguised_optrr)
            .unwrap(),
        &prior,
    )
    .unwrap();
    assert!(err_warner < 0.1);
    assert!(err_optrr < 0.1);
}
