//! Experiment reporting helpers.
//!
//! The experiment binaries in `optrr-bench` regenerate the paper's figures
//! as text tables and CSV series; this module holds the shared formatting
//! and serialization so every experiment reports in the same shape and the
//! EXPERIMENTS.md summaries can be produced mechanically.

use crate::front::{FrontComparison, ParetoFront};
use crate::optimizer::RunStatistics;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A complete, serializable experiment report: the compared fronts, the
/// comparison statistics, and the optimizer run statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment identifier (e.g. "fig4a-delta0.6-normal").
    pub experiment_id: String,
    /// Human-readable description of workload and parameters.
    pub description: String,
    /// The privacy bound δ used.
    pub delta: f64,
    /// The fronts produced (typically Warner baseline + OptRR).
    pub fronts: Vec<ParetoFront>,
    /// Pairwise comparison of the OptRR front against the baseline.
    pub comparison: Option<FrontComparison>,
    /// Optimizer statistics, when an optimizer ran.
    pub optimizer_statistics: Option<RunStatistics>,
}

impl ExperimentReport {
    /// Renders the fronts as aligned text columns (privacy, MSE per front),
    /// the format the experiment binaries print so the figures can be
    /// eyeballed or piped into a plotting tool.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.experiment_id);
        let _ = writeln!(out, "# {}", self.description);
        let _ = writeln!(out, "# delta = {}", self.delta);
        for front in &self.fronts {
            let _ = writeln!(out, "\n## front: {} ({} points)", front.label, front.len());
            let _ = writeln!(out, "{:>12}  {:>14}", "privacy", "utility(MSE)");
            for p in &front.points {
                let _ = writeln!(out, "{:>12.6}  {:>14.6e}", p.privacy, p.mse);
            }
        }
        if let Some(cmp) = &self.comparison {
            let _ = writeln!(
                out,
                "\n## comparison: {} vs {}",
                cmp.challenger, cmp.baseline
            );
            let _ = writeln!(
                out,
                "better at matched privacy levels : {:>6.1}%",
                cmp.fraction_better_at_matched_privacy * 100.0
            );
            let _ = writeln!(
                out,
                "coverage C(challenger, baseline) : {:>6.1}%",
                cmp.coverage_of_baseline * 100.0
            );
            let _ = writeln!(
                out,
                "coverage C(baseline, challenger) : {:>6.1}%",
                cmp.coverage_of_challenger * 100.0
            );
            let _ = writeln!(
                out,
                "hypervolume (challenger/baseline): {:.4e} / {:.4e}",
                cmp.challenger_hypervolume, cmp.baseline_hypervolume
            );
            if let (Some((c_lo, c_hi)), Some((b_lo, b_hi))) =
                (cmp.challenger_privacy_range, cmp.baseline_privacy_range)
            {
                let _ = writeln!(
                    out,
                    "privacy range challenger         : [{c_lo:.4}, {c_hi:.4}]"
                );
                let _ = writeln!(
                    out,
                    "privacy range baseline           : [{b_lo:.4}, {b_hi:.4}]"
                );
            }
            let _ = writeln!(
                out,
                "extra low-privacy coverage       : {:.4}",
                cmp.extra_low_privacy_coverage
            );
            let _ = writeln!(
                out,
                "challenger dominates             : {}",
                cmp.challenger_dominates()
            );
        }
        if let Some(stats) = &self.optimizer_statistics {
            let _ = writeln!(out, "\n## optimizer statistics");
            let _ = writeln!(out, "generations run     : {}", stats.generations_run);
            let _ = writeln!(out, "evaluations         : {}", stats.evaluations);
            let _ = writeln!(out, "omega improvements  : {}", stats.omega_improvements);
            let _ = writeln!(out, "omega filled slots  : {}", stats.omega_filled);
            let _ = writeln!(
                out,
                "evals carried/computed : {}/{}",
                stats.cache_hits, stats.cache_misses
            );
            let _ = writeln!(
                out,
                "fitness pairs computed : {}",
                stats.fitness_pairs_computed
            );
            let _ = writeln!(out, "wall clock (s)      : {:.2}", stats.wall_clock_seconds);
        }
        out
    }

    /// Renders the fronts as CSV (`front,privacy,mse` rows) for downstream
    /// plotting.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("front,privacy,mse\n");
        for front in &self.fronts {
            for p in &front.points {
                let _ = writeln!(out, "{},{:.9},{:.9e}", front.label, p.privacy, p.mse);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::FrontPoint;

    fn front(label: &str) -> ParetoFront {
        ParetoFront::from_points(
            label,
            &[
                FrontPoint {
                    privacy: 0.3,
                    mse: 2e-4,
                },
                FrontPoint {
                    privacy: 0.5,
                    mse: 4e-4,
                },
            ],
        )
    }

    fn report() -> ExperimentReport {
        let optrr = front("OptRR");
        let warner = ParetoFront::from_points(
            "Warner",
            &[
                FrontPoint {
                    privacy: 0.3,
                    mse: 3e-4,
                },
                FrontPoint {
                    privacy: 0.5,
                    mse: 6e-4,
                },
            ],
        );
        let comparison = Some(FrontComparison::compare(&optrr, &warner, 20));
        ExperimentReport {
            experiment_id: "fig4a".into(),
            description: "normal distribution, delta 0.6".into(),
            delta: 0.6,
            fronts: vec![warner, optrr],
            comparison,
            optimizer_statistics: Some(RunStatistics {
                generations_run: 100,
                evaluations: 5000,
                omega_improvements: 321,
                omega_filled: 55,
                cache_hits: 9800,
                cache_misses: 5000,
                fitness_pairs_reused: 0,
                fitness_pairs_computed: 120_000,
                wall_clock_seconds: 1.25,
            }),
        }
    }

    #[test]
    fn table_contains_all_sections() {
        let r = report();
        let t = r.render_table();
        assert!(t.contains("# fig4a"));
        assert!(t.contains("delta = 0.6"));
        assert!(t.contains("front: Warner"));
        assert!(t.contains("front: OptRR"));
        assert!(t.contains("comparison: OptRR vs Warner"));
        assert!(t.contains("optimizer statistics"));
        assert!(t.contains("fitness pairs computed : 120000"));
        assert!(t.contains("challenger dominates"));
    }

    #[test]
    fn csv_has_one_row_per_point_plus_header() {
        let r = report();
        let csv = r.render_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "front,privacy,mse");
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines.iter().any(|l| l.starts_with("Warner,")));
        assert!(lines.iter().any(|l| l.starts_with("OptRR,")));
    }

    #[test]
    fn report_without_comparison_or_stats_renders() {
        let r = ExperimentReport {
            experiment_id: "minimal".into(),
            description: "just one front".into(),
            delta: 0.75,
            fronts: vec![front("OptRR")],
            comparison: None,
            optimizer_statistics: None,
        };
        let t = r.render_table();
        assert!(t.contains("minimal"));
        assert!(!t.contains("comparison:"));
        assert!(!t.contains("optimizer statistics"));
    }
}
