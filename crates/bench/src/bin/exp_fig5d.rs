//! E-FIG5D — Figure 5(d): re-score the OptRR optimal set and the Warner
//! baseline with the *iterative* estimator's empirical MSE instead of the
//! closed-form inversion MSE, on the gamma(1.0, 2.0) workload with
//! δ = 0.75. The paper's point: the dominance of OptRR over Warner is not
//! an artifact of the estimator used inside the optimizer.
//!
//! Usage: `cargo run -p optrr-bench --release --bin exp_fig5d [--fast|--paper]`

use bench_support::{paper_workload, print_report, Fidelity};
use datagen::SourceDistribution;
use optrr::{
    baseline_sweep, ExperimentReport, FrontComparison, FrontPoint, Optimizer, OptrrProblem,
    ParetoFront, SchemeKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rr::estimate::iterative::{iterative_estimate_from_frequencies, IterativeConfig};
use rr::metrics::utility::empirical_mse;
use rr::RrMatrix;
use stats::{Categorical, StatsError};

/// Empirical MSE of the *iterative* estimator for one matrix, by Monte
/// Carlo over fresh disguised samples.
fn iterative_mse(
    m: &RrMatrix,
    prior: &Categorical,
    num_records: u64,
    trials: usize,
    seed: u64,
) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    // The convergence tolerance is set well below the MSE scale being
    // measured (~1e-4) but loose enough that strongly disguising matrices
    // (slow EM contraction) still converge within the iteration budget.
    empirical_mse(m, prior, num_records, trials, &mut rng, |matrix, counts| {
        if counts.iter().sum::<u64>() == 0 {
            return Err(StatsError::EmptyData.into());
        }
        let p_star = Categorical::from_counts(counts)?;
        let est = iterative_estimate_from_frequencies(
            matrix,
            &p_star,
            &IterativeConfig {
                max_iterations: 50_000,
                tolerance: 1e-6,
            },
        )?;
        Ok(est.distribution.probs().to_vec())
    })
    .ok()
}

fn main() {
    let fidelity = Fidelity::from_env_and_args();
    let delta = 0.75;
    let trials = match fidelity {
        Fidelity::Fast => 30,
        Fidelity::Standard => 100,
        Fidelity::Paper => 300,
    };

    // Same workload and optimal set as Figure 5(a).
    let workload = paper_workload(SourceDistribution::paper_gamma(), 2008);
    let prior = workload
        .dataset
        .empirical_distribution()
        .expect("non-empty");
    let num_records = workload.config.num_records as u64;

    let mut config = fidelity.optimizer_config(delta, 2008);
    config.num_records = num_records;
    bench_support::apply_engine_selection(&mut config);
    let problem = OptrrProblem::new(prior.clone(), &config).expect("valid problem");
    let warner = baseline_sweep(&problem, SchemeKind::Warner, fidelity.sweep_steps());
    let outcome = Optimizer::new(config)
        .expect("validated configuration")
        .optimize_distribution(&prior)
        .expect("optimization succeeds");

    // Re-score both fronts with the iterative estimator's empirical MSE.
    let rescore = |matrices: Vec<(f64, RrMatrix)>, label: &str| -> ParetoFront {
        let points: Vec<FrontPoint> = matrices
            .iter()
            .enumerate()
            .filter_map(|(i, (privacy, m))| {
                iterative_mse(m, &prior, num_records, trials, 9000 + i as u64).map(|mse| {
                    FrontPoint {
                        privacy: *privacy,
                        mse,
                    }
                })
            })
            .collect();
        ParetoFront::from_points(label, &points)
    };

    let warner_matrices: Vec<(f64, RrMatrix)> = warner
        .points
        .iter()
        .filter(|p| p.evaluation.feasible)
        .filter_map(|p| {
            rr::schemes::warner(prior.num_categories(), p.parameter)
                .ok()
                .map(|m| (p.evaluation.privacy, m))
        })
        .collect();
    // Thin the Warner set so the Monte Carlo stays tractable.
    let step = (warner_matrices.len() / 40).max(1);
    let warner_matrices: Vec<(f64, RrMatrix)> = warner_matrices.into_iter().step_by(step).collect();

    let optrr_matrices: Vec<(f64, RrMatrix)> = outcome
        .omega
        .pareto_entries()
        .iter()
        .map(|e| (e.evaluation.privacy, e.matrix.clone()))
        .collect();
    let step = (optrr_matrices.len() / 40).max(1);
    let optrr_matrices: Vec<(f64, RrMatrix)> = optrr_matrices.into_iter().step_by(step).collect();

    let warner_front = rescore(warner_matrices, "Warner");
    let optrr_front = rescore(optrr_matrices, "OptRR");
    let comparison = FrontComparison::compare(&optrr_front, &warner_front, 100);

    let report = ExperimentReport {
        experiment_id: "fig5d-iterative-utility-gamma-delta0.75".into(),
        description: format!(
            "gamma(1.0, 2.0) workload; utility re-measured as the empirical MSE of the \
             iterative estimator over {trials} Monte Carlo trials"
        ),
        delta,
        fronts: vec![warner_front, optrr_front],
        comparison: Some(comparison),
        optimizer_statistics: Some(outcome.statistics),
    };
    print_report(&report);
    println!("=== figure 5(d) summary ===");
    println!("{}", bench_support::summary_line(&report));
}
