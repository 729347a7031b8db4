//! # optrr-bench (bench_support)
//!
//! Shared harness for the experiment binaries that regenerate the OptRR
//! paper's evaluation (Figures 4 and 5, Theorem 2, Fact 1) plus the
//! `exp_ablation_*` studies. Performance is measured elsewhere, by the
//! standalone `perfbench` package and its `--trace 1` per-layer ladder.
//!
//! Every experiment binary follows the same pattern: build the workload the
//! paper describes, sweep the Warner baseline, run the OptRR optimizer,
//! compare the fronts, and print an [`optrr::ExperimentReport`] as an
//! aligned table plus CSV. The functions here hold that shared logic so the
//! binaries stay short and consistent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use datagen::{synthetic, AdultConfig, SourceDistribution, SyntheticConfig};
use emoo::EngineKind;
use optrr::{
    baseline_sweep, ExperimentReport, FrontComparison, Optimizer, OptrrConfig, OptrrProblem,
    ParetoFront, SchemeKind,
};
use stats::Categorical;

/// The experiment fidelity: controls optimizer budget and sweep resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Small budgets for CI and quick smoke runs (seconds per figure).
    Fast,
    /// The default budget used to produce EXPERIMENTS.md (tens of seconds
    /// per figure).
    Standard,
    /// A budget approximating the paper's 20,000-iteration runs (minutes
    /// per figure).
    Paper,
}

impl Fidelity {
    /// Reads the fidelity from the command line (`--fast` / `--paper`) and
    /// the `OPTRR_FIDELITY` environment variable (see [`parse_fidelity`]),
    /// defaulting to [`Fidelity::Standard`]. An unrecognised value exits 2.
    pub fn from_env_and_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--fast") {
            return Fidelity::Fast;
        }
        if args.iter().any(|a| a == "--paper") {
            return Fidelity::Paper;
        }
        env_selection("OPTRR_FIDELITY", parse_fidelity)
    }

    /// The optimizer configuration for this fidelity at a given δ and seed.
    pub fn optimizer_config(self, delta: f64, seed: u64) -> OptrrConfig {
        match self {
            Fidelity::Fast => OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size: 32,
                    archive_size: 16,
                    generations: 60,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: 500,
                ..OptrrConfig::fast(delta, seed)
            },
            Fidelity::Standard => OptrrConfig {
                engine: emoo::EngineConfig {
                    population_size: 60,
                    archive_size: 30,
                    generations: 400,
                    mutation_rate: 0.5,
                    density_k: 1,
                },
                omega_slots: 1_000,
                delta,
                seed,
                ..OptrrConfig::default()
            },
            Fidelity::Paper => OptrrConfig::paper_fidelity(delta, seed),
        }
    }

    /// The Warner-sweep resolution for this fidelity.
    pub fn sweep_steps(self) -> usize {
        match self {
            Fidelity::Fast => 201,
            Fidelity::Standard => 1001,
            Fidelity::Paper => optrr::PAPER_SWEEP_STEPS,
        }
    }
}

/// Parses an `OPTRR_FIDELITY` value: `fast`, `standard` or `paper`,
/// case-insensitive. Unset or empty gives [`Fidelity::Standard`].
pub fn parse_fidelity(value: Option<&str>) -> Result<Fidelity, String> {
    let raw = value.unwrap_or_default();
    match raw.to_lowercase().as_str() {
        "" | "standard" => Ok(Fidelity::Standard),
        "fast" => Ok(Fidelity::Fast),
        "paper" => Ok(Fidelity::Paper),
        _ => Err(format!("{raw:?} is not one of fast, standard, paper")),
    }
}

/// Parses an `OPTRR_ENGINE` value: `spea2`, `nsga2` or `nsga-ii`,
/// case-insensitive. Unset or empty gives the paper's SPEA2.
pub fn parse_engine_kind(value: Option<&str>) -> Result<EngineKind, String> {
    let raw = value.unwrap_or_default();
    match raw.to_lowercase().as_str() {
        "" | "spea2" => Ok(EngineKind::Spea2),
        "nsga2" | "nsga-ii" => Ok(EngineKind::Nsga2),
        _ => Err(format!("{raw:?} is not one of spea2, nsga2, nsga-ii")),
    }
}

/// Parses an `OPTRR_PARALLEL` value: `1`/`true`/`yes` or `0`/`false`/`no`,
/// case-insensitive. Unset or empty gives serial evaluation.
pub fn parse_parallel(value: Option<&str>) -> Result<bool, String> {
    let raw = value.unwrap_or_default();
    match raw.to_lowercase().as_str() {
        "1" | "true" | "yes" => Ok(true),
        "" | "0" | "false" | "no" => Ok(false),
        _ => Err(format!("{raw:?} is not one of 1/0, true/false, yes/no")),
    }
}

/// Reads one selection variable through its parser. An unrecognised value
/// prints the accepted ones and exits 2, so a run never silently reports
/// an engine or budget other than the one asked for.
fn env_selection<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var(name).ok();
    parse(raw.as_deref()).unwrap_or_else(|reason| {
        eprintln!("invalid {name}: {reason}");
        std::process::exit(2)
    })
}

/// Reads the EMOO backend selection from the command line (`--nsga2` /
/// `--spea2`) and the `OPTRR_ENGINE` environment variable (see
/// [`parse_engine_kind`]), defaulting to the paper's SPEA2. Every
/// experiment binary runs against either backend through this one switch.
pub fn engine_kind_from_env_and_args() -> EngineKind {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--nsga2") {
        return EngineKind::Nsga2;
    }
    if args.iter().any(|a| a == "--spea2") {
        return EngineKind::Spea2;
    }
    env_selection("OPTRR_ENGINE", parse_engine_kind)
}

/// Reads the parallel-evaluation switch from the command line
/// (`--parallel`) and the `OPTRR_PARALLEL` environment variable (see
/// [`parse_parallel`]). Parallel evaluation is bit-identical to serial; it
/// only changes wall-clock time.
pub fn parallel_evaluation_from_env_and_args() -> bool {
    if std::env::args().any(|a| a == "--parallel") {
        return true;
    }
    env_selection("OPTRR_PARALLEL", parse_parallel)
}

/// Applies the run-wide engine selection (backend kind and parallel
/// evaluation) to a configuration. Every experiment binary calls this so
/// the backend is chosen purely by flags/environment, through one code
/// path.
pub fn apply_engine_selection(config: &mut OptrrConfig) {
    config.engine_kind = engine_kind_from_env_and_args();
    config.parallel_evaluation = parallel_evaluation_from_env_and_args();
}

/// The standard paper workload: 10 categories, 10,000 records.
pub fn paper_workload(source: SourceDistribution, seed: u64) -> synthetic::SyntheticWorkload {
    synthetic::generate(&SyntheticConfig::paper_default(source, seed))
        .expect("paper workload configuration is valid")
}

/// The Adult-surrogate first attribute used by Figure 5(c).
pub fn adult_first_attribute() -> (Categorical, usize) {
    let surrogate = datagen::adult::generate(&AdultConfig::default())
        .expect("default Adult surrogate configuration is valid");
    let dist = surrogate
        .first_attribute()
        .empirical_distribution()
        .expect("surrogate has records");
    (dist, surrogate.first_attribute().len())
}

/// Runs one "figure" experiment: Warner baseline vs OptRR on the given
/// prior, record count, and δ.
pub fn run_figure_experiment(
    experiment_id: &str,
    description: &str,
    prior: &Categorical,
    num_records: u64,
    delta: f64,
    fidelity: Fidelity,
    seed: u64,
) -> ExperimentReport {
    let mut config = fidelity.optimizer_config(delta, seed);
    config.num_records = num_records;
    apply_engine_selection(&mut config);

    let problem = OptrrProblem::new(prior.clone(), &config).expect("valid problem");
    let warner = baseline_sweep(&problem, SchemeKind::Warner, fidelity.sweep_steps());

    let optimizer = Optimizer::new(config).expect("validated configuration");
    let outcome = optimizer
        .optimize_distribution(prior)
        .expect("optimization over a validated prior succeeds");

    let comparison = FrontComparison::compare(&outcome.front, &warner.front, 100);
    ExperimentReport {
        experiment_id: experiment_id.to_string(),
        description: description.to_string(),
        delta,
        fronts: vec![warner.front, outcome.front],
        comparison: Some(comparison),
        optimizer_statistics: Some(outcome.statistics),
    }
}

/// Convenience: runs a figure experiment on a synthetic paper workload.
pub fn run_synthetic_figure(
    experiment_id: &str,
    source: SourceDistribution,
    delta: f64,
    fidelity: Fidelity,
    seed: u64,
) -> ExperimentReport {
    let workload = paper_workload(source.clone(), seed);
    let prior = workload
        .dataset
        .empirical_distribution()
        .expect("non-empty workload");
    let description = format!(
        "{} distribution, n = {} categories, N = {} records, delta = {delta}",
        source.label(),
        workload.config.num_categories,
        workload.config.num_records
    );
    run_figure_experiment(
        experiment_id,
        &description,
        &prior,
        workload.config.num_records as u64,
        delta,
        fidelity,
        seed,
    )
}

/// Prints a report in the standard format used by every experiment binary:
/// the aligned table followed by the CSV series.
pub fn print_report(report: &ExperimentReport) {
    println!("{}", report.render_table());
    println!("--- csv ---");
    println!("{}", report.render_csv());
}

/// Formats a one-line dominance summary used in EXPERIMENTS.md.
pub fn summary_line(report: &ExperimentReport) -> String {
    match &report.comparison {
        Some(c) => format!(
            "{}: better at {:.0}% of matched privacy levels, hypervolume {:.3e} vs {:.3e}, extra low-privacy coverage {:.3}",
            report.experiment_id,
            c.fraction_better_at_matched_privacy * 100.0,
            c.challenger_hypervolume,
            c.baseline_hypervolume,
            c.extra_low_privacy_coverage,
        ),
        None => format!("{}: no comparison", report.experiment_id),
    }
}

/// Extracts the OptRR front from a report (the second front by convention).
pub fn optrr_front(report: &ExperimentReport) -> &ParetoFront {
    report
        .fronts
        .iter()
        .find(|f| f.label == "OptRR")
        .expect("figure reports always contain an OptRR front")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_configs_are_valid_and_ordered() {
        for f in [Fidelity::Fast, Fidelity::Standard, Fidelity::Paper] {
            let cfg = f.optimizer_config(0.75, 1);
            assert!(cfg.validate().is_ok());
            assert_eq!(cfg.delta, 0.75);
        }
        assert!(
            Fidelity::Fast.optimizer_config(0.8, 0).engine.generations
                < Fidelity::Standard
                    .optimizer_config(0.8, 0)
                    .engine
                    .generations
        );
        assert!(
            Fidelity::Standard
                .optimizer_config(0.8, 0)
                .engine
                .generations
                < Fidelity::Paper.optimizer_config(0.8, 0).engine.generations
        );
        assert!(Fidelity::Fast.sweep_steps() < Fidelity::Paper.sweep_steps());
    }

    #[test]
    fn fidelity_from_env_defaults_to_standard() {
        // No --fast/--paper argument is passed to the test binary, and the
        // variable is cleared for this check.
        std::env::remove_var("OPTRR_FIDELITY");
        assert_eq!(Fidelity::from_env_and_args(), Fidelity::Standard);
    }

    #[test]
    fn selection_parsers_accept_the_documented_spellings_and_reject_the_rest() {
        let fidelity = [
            (None, Ok(Fidelity::Standard)),
            (Some(""), Ok(Fidelity::Standard)),
            (Some("standard"), Ok(Fidelity::Standard)),
            (Some("fast"), Ok(Fidelity::Fast)),
            (Some("PAPER"), Ok(Fidelity::Paper)),
            (Some("fsat"), Err(())),
        ];
        for (value, expected) in fidelity {
            assert_eq!(parse_fidelity(value).map_err(drop), expected, "{value:?}");
        }
        let engine = [
            (None, Ok(EngineKind::Spea2)),
            (Some(""), Ok(EngineKind::Spea2)),
            (Some("SPEA2"), Ok(EngineKind::Spea2)),
            (Some("nsga2"), Ok(EngineKind::Nsga2)),
            (Some("NSGA-II"), Ok(EngineKind::Nsga2)),
            (Some("nsga_ii"), Err(())),
        ];
        for (value, expected) in engine {
            assert_eq!(
                parse_engine_kind(value).map_err(drop),
                expected,
                "{value:?}"
            );
        }
        let parallel = [
            (None, Ok(false)),
            (Some(""), Ok(false)),
            (Some("0"), Ok(false)),
            (Some("False"), Ok(false)),
            (Some("no"), Ok(false)),
            (Some("1"), Ok(true)),
            (Some("TRUE"), Ok(true)),
            (Some("yes"), Ok(true)),
            (Some("on"), Err(())),
        ];
        for (value, expected) in parallel {
            assert_eq!(parse_parallel(value).map_err(drop), expected, "{value:?}");
        }
        let reason = parse_engine_kind(Some("nsga_ii")).unwrap_err();
        assert!(
            reason.contains("nsga_ii") && reason.contains("spea2"),
            "{reason}"
        );
    }

    #[test]
    fn paper_workload_has_paper_shape() {
        let w = paper_workload(SourceDistribution::standard_normal(), 1);
        assert_eq!(w.config.num_categories, 10);
        assert_eq!(w.config.num_records, 10_000);
    }

    #[test]
    fn adult_attribute_is_a_ten_category_distribution() {
        let (dist, n) = adult_first_attribute();
        assert_eq!(dist.num_categories(), 10);
        assert_eq!(n, 10_000);
    }

    #[test]
    fn fast_figure_experiment_produces_a_complete_report() {
        let report = run_synthetic_figure(
            "smoke-fig4",
            SourceDistribution::standard_normal(),
            0.8,
            Fidelity::Fast,
            13,
        );
        assert_eq!(report.fronts.len(), 2);
        assert_eq!(report.fronts[0].label, "Warner");
        assert_eq!(report.fronts[1].label, "OptRR");
        assert!(report.comparison.is_some());
        assert!(report.optimizer_statistics.is_some());
        assert!(!optrr_front(&report).is_empty());
        let line = summary_line(&report);
        assert!(line.contains("smoke-fig4"));
        let table = report.render_table();
        assert!(table.contains("OptRR"));
    }
}
