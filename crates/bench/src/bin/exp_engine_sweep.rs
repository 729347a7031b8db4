//! Engine ablation sweep: every figure workload under both EMOO backends.
//!
//! The paper builds OptRR on SPEA2 and argues the engine choice is
//! interchangeable; the repo carries NSGA-II as the cross-check backend.
//! This sweep runs the standard experiment workloads (the Figure 4
//! synthetic distributions and the Figure 5(c) Adult surrogate) under
//! **both** [`EngineKind`]s with identical budgets and seeds, and emits a
//! side-by-side report of front quality (hypervolume against the shared
//! Warner baseline reference, fraction better at matched privacy levels)
//! and cost (generations, evaluations, wall-clock).
//!
//! Usage: `cargo run -p optrr-bench --release --bin exp_engine_sweep [--fast|--paper]`

use bench_support::{adult_first_attribute, paper_workload, Fidelity};
use datagen::SourceDistribution;
use emoo::EngineKind;
use optrr::{baseline_sweep, FrontComparison, Optimizer, OptrrProblem, SchemeKind};
use stats::Categorical;

struct SweepRow {
    workload: &'static str,
    engine: &'static str,
    hypervolume: f64,
    baseline_hypervolume: f64,
    better_fraction: f64,
    front_points: usize,
    generations: usize,
    evaluations: usize,
    wall_seconds: f64,
}

fn sweep_workload(
    label: &'static str,
    prior: &Categorical,
    num_records: u64,
    delta: f64,
    fidelity: Fidelity,
    rows: &mut Vec<SweepRow>,
) {
    for kind in [EngineKind::Spea2, EngineKind::Nsga2] {
        let mut config = fidelity.optimizer_config(delta, 2008);
        config.num_records = num_records;
        config.engine_kind = kind;

        let problem = OptrrProblem::new(prior.clone(), &config).expect("valid problem");
        let warner = baseline_sweep(&problem, SchemeKind::Warner, fidelity.sweep_steps());

        let outcome = Optimizer::new(config)
            .expect("validated configuration")
            .optimize_distribution(prior)
            .expect("optimization succeeds");
        let comparison = FrontComparison::compare(&outcome.front, &warner.front, 100);

        rows.push(SweepRow {
            workload: label,
            engine: kind.label(),
            hypervolume: comparison.challenger_hypervolume,
            baseline_hypervolume: comparison.baseline_hypervolume,
            better_fraction: comparison.fraction_better_at_matched_privacy,
            front_points: outcome.front.len(),
            generations: outcome.statistics.generations_run,
            evaluations: outcome.statistics.evaluations,
            wall_seconds: outcome.statistics.wall_clock_seconds,
        });
    }
}

fn main() {
    let fidelity = Fidelity::from_env_and_args();
    let delta = 0.75;
    let mut rows = Vec::new();

    let normal = paper_workload(SourceDistribution::standard_normal(), 2008);
    let normal_prior = normal.dataset.empirical_distribution().expect("non-empty");
    sweep_workload(
        "fig4-normal",
        &normal_prior,
        normal.config.num_records as u64,
        delta,
        fidelity,
        &mut rows,
    );

    let gamma = paper_workload(SourceDistribution::paper_gamma(), 2008);
    let gamma_prior = gamma.dataset.empirical_distribution().expect("non-empty");
    sweep_workload(
        "fig4-gamma",
        &gamma_prior,
        gamma.config.num_records as u64,
        delta,
        fidelity,
        &mut rows,
    );

    let (adult_prior, adult_records) = adult_first_attribute();
    sweep_workload(
        "fig5c-adult",
        &adult_prior,
        adult_records as u64,
        delta,
        fidelity,
        &mut rows,
    );

    println!("# engine ablation sweep (delta = {delta}, fidelity {fidelity:?})");
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>8} {:>7} {:>6} {:>10} {:>8}",
        "workload", "engine", "hv", "warner_hv", "better%", "points", "gens", "evals", "wall_s"
    );
    for r in &rows {
        println!(
            "{:<14} {:>8} {:>12.4e} {:>12.4e} {:>7.1}% {:>7} {:>6} {:>10} {:>8.2}",
            r.workload,
            r.engine,
            r.hypervolume,
            r.baseline_hypervolume,
            r.better_fraction * 100.0,
            r.front_points,
            r.generations,
            r.evaluations,
            r.wall_seconds
        );
    }

    println!("\n# head-to-head (hypervolume ratio NSGA-II / SPEA2 per workload)");
    for pair in rows.chunks(2) {
        let [spea2, nsga2] = pair else { continue };
        let ratio = if spea2.hypervolume > 0.0 {
            nsga2.hypervolume / spea2.hypervolume
        } else {
            f64::NAN
        };
        let speed = if nsga2.wall_seconds > 0.0 {
            spea2.wall_seconds / nsga2.wall_seconds
        } else {
            f64::NAN
        };
        println!(
            "{:<14} hv ratio {:>6.3}   nsga2 speedup x{:>5.2}",
            spea2.workload, ratio, speed
        );
    }
}
