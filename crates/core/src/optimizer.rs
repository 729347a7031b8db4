//! The OptRR optimizer: the paper's search for optimal RR matrices
//! (Section V), wiring the RR-matrix problem, the custom genetic operators,
//! and the optimal set Ω into the generic engine layer. The EMOO backend
//! (SPEA2 per the paper, or NSGA-II as the cross-check) is selected purely
//! by [`OptrrConfig::engine_kind`] and driven through one code path,
//! [`emoo::run_engine`].

use crate::config::OptrrConfig;
use crate::error::{OptrrError, Result};
use crate::front::{FrontPoint, ParetoFront};
use crate::omega::OmegaSet;
use crate::problem::{Candidate, Evaluation, OptrrProblem};
use datagen::CategoricalDataset;
use emoo::{run_engine, EngineOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rr::RrMatrix;
use serde::{Deserialize, Serialize};
use stats::Categorical;
use std::sync::Arc;

/// A per-generation observation forwarded to an attached
/// [`GenerationObserver`] — a plain-data echo of the engine's
/// [`emoo::GenerationSnapshot`] plus whether the generation improved Ω.
///
/// Observers are recording-only: they see each generation after Ω has
/// absorbed it and cannot influence the run (the stagnation decision is
/// made from Ω improvement alone, before the observer fires), so an
/// attached observer never changes the optimization result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationObservation {
    /// Generation index (0-based).
    pub generation: usize,
    /// Elite-set size after environmental selection.
    pub archive_size: usize,
    /// Non-elite individuals evaluated this generation.
    pub population_size: usize,
    /// Cumulative objective evaluations so far.
    pub evaluations: usize,
    /// Whether any individual of this generation improved Ω.
    pub omega_improved: bool,
}

/// A recording-only callback invoked once per engine generation.
pub type GenerationObserver = Arc<dyn Fn(&GenerationObservation) + Send + Sync>;

/// Summary statistics of one optimization run (serialized into experiment
/// reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStatistics {
    /// Generations actually executed (can be fewer than configured when the
    /// stagnation criterion fires).
    pub generations_run: usize,
    /// Total objective evaluations performed by the engine.
    pub evaluations: usize,
    /// Number of Ω improvements over the whole run.
    pub omega_improvements: u64,
    /// Number of filled Ω slots at the end.
    pub omega_filled: usize,
    /// Evaluations read from an individual instead of computed: every
    /// feasible Ω offer and every reported archive entry.
    pub cache_hits: u64,
    /// Evaluations computed: one per engine evaluation.
    pub cache_misses: u64,
    /// Always 0: the [`emoo::FitnessKernel`] keeps no pairs from one
    /// generation to the next, so none are reused. The field stays because
    /// serialized statistics and the benchmark's layer ladder read it.
    pub fitness_pairs_reused: u64,
    /// Unordered pairs the fitness kernel compared over the run.
    pub fitness_pairs_computed: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_clock_seconds: f64,
}

/// The result of an OptRR run: the optimal set Ω, the final archive, the
/// reported Pareto front, and run statistics.
#[derive(Debug, Clone)]
pub struct OptrrOutcome {
    /// The optimal set Ω (privacy-indexed store of the best matrices seen).
    pub omega: OmegaSet,
    /// The final SPEA2 archive (bounded, mutually non-dominated matrices).
    pub archive: Vec<(RrMatrix, Evaluation)>,
    /// The Pareto front assembled from Ω (the paper's "Our Scheme" series).
    pub front: ParetoFront,
    /// Run statistics.
    pub statistics: RunStatistics,
}

impl OptrrOutcome {
    /// Convenience: the matrix Ω recommends for a minimum privacy
    /// requirement (Section III.C's use case).
    pub fn recommend_for_privacy(&self, min_privacy: f64) -> Option<&RrMatrix> {
        self.omega
            .best_for_privacy_at_least(min_privacy)
            .map(|e| &e.matrix)
    }

    /// The final archive matrices, cloned in archive order — the warm-start
    /// seed set a serving layer passes to
    /// [`Optimizer::optimize_distribution_seeded`] when it refreshes this
    /// problem, so the next run resumes from the previous elite set.
    pub fn warm_seeds(&self) -> Vec<RrMatrix> {
        self.archive.iter().map(|(m, _)| m.clone()).collect()
    }
}

/// The OptRR optimizer.
#[derive(Clone)]
pub struct Optimizer {
    config: OptrrConfig,
    generation_observer: Option<GenerationObserver>,
}

impl Optimizer {
    /// Creates an optimizer after validating the configuration.
    pub fn new(config: OptrrConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            generation_observer: None,
        })
    }

    /// Attaches a recording-only per-generation observer (a serving layer
    /// forwards these into its event trace during refresh runs). The
    /// observer cannot influence the run: it fires after Ω absorbs each
    /// generation and its return is ignored, so results with and without
    /// an observer are bit-identical.
    pub fn with_generation_observer(mut self, observer: GenerationObserver) -> Self {
        self.generation_observer = Some(observer);
        self
    }

    /// Builds the initial-population seeds from the Warner baseline sweep
    /// (half the population, spread evenly over the feasible parameter
    /// range), when `seed_with_baselines` is enabled.
    fn baseline_seeds(&self, problem: &OptrrProblem) -> Vec<RrMatrix> {
        if !self.config.seed_with_baselines {
            return Vec::new();
        }
        let budget = (self.config.engine.population_size / 2).max(1);
        let n = problem.num_categories();
        // Sweep p over (1/n, 1]; the repair step run by the engine will pull
        // any δ-violating seed back inside the bound.
        (0..budget)
            .filter_map(|k| {
                let t = (k as f64 + 0.5) / budget as f64;
                let p = 1.0 / n as f64 + t * (1.0 - 1.0 / n as f64);
                rr::schemes::warner(n, p).ok()
            })
            .collect()
    }

    /// Runs the search against an explicit prior distribution.
    pub fn optimize_distribution(&self, prior: &Categorical) -> Result<OptrrOutcome> {
        self.optimize_distribution_seeded(prior, Vec::new())
    }

    /// Runs the search against an explicit prior, warm-starting the initial
    /// population with the given matrices (typically a previous run's
    /// archive via [`OptrrOutcome::warm_seeds`]). Warm seeds fill the first
    /// population slots, ahead of the Warner baseline seeds; the engine
    /// repairs all of them to the δ bound before evaluation. An empty seed
    /// set makes this identical to [`Optimizer::optimize_distribution`].
    pub fn optimize_distribution_seeded(
        &self,
        prior: &Categorical,
        warm_seeds: Vec<RrMatrix>,
    ) -> Result<OptrrOutcome> {
        let problem = OptrrProblem::new(prior.clone(), &self.config)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut omega = OmegaSet::new(self.config.omega_slots);
        let seeds: Vec<Candidate> = warm_seeds
            .into_iter()
            .chain(self.baseline_seeds(&problem))
            .map(Candidate::new)
            .collect();

        let started = std::time::Instant::now();
        let stagnation_limit = self.config.stagnation_generations;
        let mut generations_without_improvement = 0usize;
        let mut carried_reads = 0u64;

        let observer = |snapshot: &emoo::GenerationSnapshot<'_, Candidate>| {
            // Offer every archive and population member to Ω (Section V.H:
            // the archive/population and Ω update each other at the end of
            // each iteration; storing the better-utility matrix per slot).
            // The snapshot individuals carry their engine-computed
            // objectives, which screen out infeasible candidates, and the
            // evaluation the batch stored in their genome, which Ω stores —
            // nothing is re-evaluated here.
            let mut improved = false;
            for ind in snapshot.archive.iter().chain(snapshot.population.iter()) {
                if !OptrrProblem::objectives_are_feasible(&ind.objectives) {
                    continue;
                }
                carried_reads += 1;
                if omega.offer(ind.genome.matrix(), carried(&ind.genome)) {
                    improved = true;
                }
            }
            if improved {
                generations_without_improvement = 0;
            } else {
                generations_without_improvement += 1;
            }
            if let Some(hook) = &self.generation_observer {
                hook(&GenerationObservation {
                    generation: snapshot.generation,
                    archive_size: snapshot.archive.len(),
                    population_size: snapshot.population.len(),
                    evaluations: snapshot.evaluations,
                    omega_improved: improved,
                });
            }
            match stagnation_limit {
                Some(limit) => generations_without_improvement < limit,
                None => true,
            }
        };
        let outcome: EngineOutcome<Candidate> = run_engine(
            self.config.engine_kind,
            &problem,
            self.config.engine,
            &mut rng,
            seeds,
            observer,
        )
        .map_err(|reason| OptrrError::Engine { reason })?;
        let wall_clock_seconds = started.elapsed().as_secs_f64();

        // Report the final archive, in archive order, with the evaluations
        // its members carry. The matrices double as the seed set for a
        // later refresh of the same problem.
        carried_reads += outcome.archive.len() as u64;
        let archive: Vec<(RrMatrix, Evaluation)> = outcome
            .archive
            .into_iter()
            .map(|ind| {
                let evaluation = *carried(&ind.genome);
                (ind.genome.into_matrix(), evaluation)
            })
            .collect();

        // The reported front comes from Ω's non-dominated entries (Ω holds
        // at least everything the archive holds, plus the good matrices the
        // bounded archive had to discard).
        let points: Vec<FrontPoint> = omega
            .pareto_entries()
            .iter()
            .map(|e| FrontPoint::from_evaluation(&e.evaluation))
            .collect();
        let front = ParetoFront::from_points("OptRR", &points);

        let statistics = RunStatistics {
            generations_run: outcome.generations_run,
            evaluations: outcome.evaluations,
            omega_improvements: omega.improvements(),
            omega_filled: omega.len(),
            cache_hits: carried_reads,
            cache_misses: outcome.evaluations as u64,
            fitness_pairs_reused: 0,
            fitness_pairs_computed: outcome.fitness_pairs_computed,
            wall_clock_seconds,
        };
        Ok(OptrrOutcome {
            omega,
            archive,
            front,
            statistics,
        })
    }

    /// The refresh entry point for serving layers: re-optimizes a
    /// registered problem, optionally against an *estimated-distribution
    /// override* instead of the registered prior.
    ///
    /// A long-lived service registers a prior once, but the population it
    /// disguises drifts; when estimation telemetry detects that drift, the
    /// refresh run should optimize the matrices for the distribution the
    /// estimates actually observe. The override must live on the same
    /// category domain as the registered prior — the disguise channel's
    /// dimension is fixed at registration. With `None` this is bit for
    /// bit [`Optimizer::optimize_distribution_seeded`] on the registered
    /// prior, so a serving layer can make every run of a key — warm-up,
    /// refresh, or replay — through this one call.
    pub fn optimize_refresh(
        &self,
        registered: &Categorical,
        override_target: Option<&Categorical>,
        warm_seeds: Vec<RrMatrix>,
    ) -> Result<OptrrOutcome> {
        if let Some(target) = override_target {
            if target.num_categories() != registered.num_categories() {
                return Err(OptrrError::InvalidConfig {
                    reason: format!(
                        "distribution override has {} categories, the registered prior has {}",
                        target.num_categories(),
                        registered.num_categories()
                    ),
                });
            }
        }
        self.optimize_distribution_seeded(override_target.unwrap_or(registered), warm_seeds)
    }

    /// Runs the search against a data set, using its empirical distribution
    /// as the prior (the paper's experimental setting).
    pub fn optimize_dataset(&self, dataset: &CategoricalDataset) -> Result<OptrrOutcome> {
        let prior = dataset.empirical_distribution().map_err(OptrrError::from)?;
        self.optimize_distribution(&prior)
    }
}

/// The evaluation an engine-reported individual carries: engines evaluate
/// every individual they report, so it is always there.
fn carried(candidate: &Candidate) -> &Evaluation {
    candidate
        .evaluation()
        .expect("engines report only evaluated individuals")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{baseline_sweep, SchemeKind};
    use crate::front::FrontComparison;
    use datagen::{synthetic, SourceDistribution, SyntheticConfig};

    fn fast_config(delta: f64) -> OptrrConfig {
        OptrrConfig {
            engine: emoo::EngineConfig {
                population_size: 32,
                archive_size: 16,
                generations: 80,
                mutation_rate: 0.5,
                density_k: 1,
            },
            omega_slots: 300,
            ..OptrrConfig::fast(delta, 7)
        }
    }

    fn normal_prior() -> Categorical {
        SourceDistribution::standard_normal()
            .category_distribution(8)
            .unwrap()
    }

    #[test]
    fn optimizer_rejects_invalid_config() {
        let bad = OptrrConfig {
            delta: 0.0,
            ..OptrrConfig::default()
        };
        assert!(Optimizer::new(bad).is_err());
    }

    #[test]
    fn optimizer_produces_a_feasible_nonempty_front() {
        let optimizer = Optimizer::new(fast_config(0.8)).unwrap();
        let prior = normal_prior();
        let outcome = optimizer.optimize_distribution(&prior).unwrap();

        assert!(!outcome.front.is_empty(), "front must not be empty");
        assert!(outcome.statistics.generations_run > 0);
        assert!(outcome.statistics.evaluations > 0);
        assert!(outcome.statistics.omega_filled > 0);
        assert!(outcome.statistics.wall_clock_seconds >= 0.0);
        assert_eq!(outcome.front.label, "OptRR");
        // The fitness kernel's pair count must flow through.
        assert!(outcome.statistics.fitness_pairs_computed > 0);

        // Every archive entry and every front point respects the bound.
        for (_, eval) in &outcome.archive {
            if eval.feasible {
                assert!(eval.max_posterior <= 0.8 + 1e-6);
            }
        }
        for e in outcome.omega.entries() {
            assert!(e.evaluation.feasible);
            assert!(e.evaluation.max_posterior <= 0.8 + 1e-6);
            assert!(e.matrix.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn optimizer_front_dominates_warner_baseline() {
        // The paper's headline result at test scale: even a small-budget
        // OptRR run should match-or-beat the Warner front at most matched
        // privacy levels and cover at least as wide a privacy range.
        let config = fast_config(0.8);
        let optimizer = Optimizer::new(config.clone()).unwrap();
        let prior = normal_prior();
        let outcome = optimizer.optimize_distribution(&prior).unwrap();

        let problem = OptrrProblem::new(prior, &config).unwrap();
        let warner = baseline_sweep(&problem, SchemeKind::Warner, 301);

        let cmp = FrontComparison::compare(&outcome.front, &warner.front, 40);
        // At this reduced test budget the requirement is that OptRR is
        // competitive (full-budget dominance is exercised by the experiment
        // binaries and the cross-crate integration tests).
        assert!(
            cmp.fraction_better_at_matched_privacy > 0.2,
            "OptRR better at only {:.0}% of matched privacy levels",
            cmp.fraction_better_at_matched_privacy * 100.0
        );
        assert!(
            cmp.challenger_hypervolume >= cmp.baseline_hypervolume * 0.9,
            "hypervolume {} vs baseline {}",
            cmp.challenger_hypervolume,
            cmp.baseline_hypervolume
        );
        // OptRR should cover at least as wide a privacy range as Warner.
        let (c_lo, _) = cmp.challenger_privacy_range.unwrap();
        let (b_lo, _) = cmp.baseline_privacy_range.unwrap();
        assert!(
            c_lo <= b_lo + 0.05,
            "OptRR min privacy {c_lo} vs Warner {b_lo}"
        );
    }

    #[test]
    fn optimizer_is_deterministic_per_seed() {
        let optimizer = Optimizer::new(fast_config(0.75)).unwrap();
        let prior = normal_prior();
        let a = optimizer.optimize_distribution(&prior).unwrap();
        let b = optimizer.optimize_distribution(&prior).unwrap();
        assert_eq!(a.front.points.len(), b.front.points.len());
        for (x, y) in a.front.points.iter().zip(b.front.points.iter()) {
            assert!((x.privacy - y.privacy).abs() < 1e-12);
            assert!((x.mse - y.mse).abs() < 1e-15);
        }
    }

    #[test]
    fn optimize_dataset_uses_the_empirical_distribution() {
        let workload = synthetic::generate(&SyntheticConfig {
            num_categories: 6,
            num_records: 2_000,
            source: SourceDistribution::paper_gamma(),
            seed: 3,
        })
        .unwrap();
        let optimizer = Optimizer::new(fast_config(0.85)).unwrap();
        let outcome = optimizer.optimize_dataset(&workload.dataset).unwrap();
        assert!(!outcome.front.is_empty());
        // Recommendation query returns a matrix meeting the privacy floor.
        if let Some((lo, hi)) = outcome.front.privacy_range() {
            let target = (lo + hi) / 2.0;
            let recommended = outcome.recommend_for_privacy(target);
            assert!(recommended.is_some());
        }
        // Empty data set is rejected.
        let empty = CategoricalDataset::new(6, vec![]).unwrap();
        assert!(optimizer.optimize_dataset(&empty).is_err());
    }

    #[test]
    fn warm_seeded_run_accepts_previous_archive() {
        let optimizer = Optimizer::new(fast_config(0.8)).unwrap();
        let prior = normal_prior();
        let first = optimizer.optimize_distribution(&prior).unwrap();
        let seeds = first.warm_seeds();
        assert_eq!(seeds.len(), first.archive.len());
        let second = optimizer
            .optimize_distribution_seeded(&prior, seeds)
            .unwrap();
        assert!(!second.front.is_empty());
        // Seeding with an empty set is exactly the plain run.
        let plain = optimizer
            .optimize_distribution_seeded(&prior, Vec::new())
            .unwrap();
        assert_eq!(plain.omega, first.omega);
    }

    #[test]
    fn optimize_refresh_overrides_the_target_and_validates_the_domain() {
        let optimizer = Optimizer::new(fast_config(0.8)).unwrap();
        let prior = normal_prior();
        // No override: bit-identical to the plain seeded run.
        let plain = optimizer
            .optimize_distribution_seeded(&prior, Vec::new())
            .unwrap();
        let refreshed = optimizer
            .optimize_refresh(&prior, None, Vec::new())
            .unwrap();
        assert_eq!(plain.omega, refreshed.omega);
        // An override redirects the search to the estimated distribution:
        // identical to optimizing that distribution directly.
        let drifted = Categorical::new(vec![0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.1, 0.6]).unwrap();
        let overridden = optimizer
            .optimize_refresh(&prior, Some(&drifted), Vec::new())
            .unwrap();
        let direct = optimizer.optimize_distribution(&drifted).unwrap();
        assert_eq!(overridden.omega, direct.omega);
        assert_ne!(overridden.omega, plain.omega);
        // A wrong-domain override is rejected before any engine run.
        let wrong = Categorical::new(vec![0.5, 0.5]).unwrap();
        assert!(matches!(
            optimizer.optimize_refresh(&prior, Some(&wrong), Vec::new()),
            Err(OptrrError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn carried_evaluations_are_bitwise_equal_to_fresh_evaluation() {
        // Ω and the final archive store the evaluation each individual
        // carries from its engine batch; it must be exactly what a fresh
        // evaluation of the stored matrix gives, at n = 24.
        let weights: Vec<f64> = (0..24).map(|k| 1.0 / (k as f64 + 2.0)).collect();
        let total: f64 = weights.iter().sum();
        let prior = Categorical::new(weights.iter().map(|w| w / total).collect()).unwrap();
        let bits = |e: &Evaluation| {
            [
                e.privacy.to_bits(),
                e.mse.to_bits(),
                e.max_posterior.to_bits(),
                e.feasible as u64,
            ]
        };
        for kind in [emoo::EngineKind::Spea2, emoo::EngineKind::Nsga2] {
            let config = OptrrConfig {
                engine_kind: kind,
                engine: emoo::EngineConfig {
                    generations: 8,
                    ..OptrrConfig::fast(0.8, 3).engine
                },
                ..OptrrConfig::fast(0.8, 3)
            };
            let problem = OptrrProblem::new(prior.clone(), &config).unwrap();
            let outcome = Optimizer::new(config)
                .unwrap()
                .optimize_distribution(&prior)
                .unwrap();
            assert!(!outcome.omega.is_empty() && !outcome.archive.is_empty());
            for e in outcome.omega.entries() {
                assert_eq!(
                    bits(&e.evaluation),
                    bits(&problem.evaluate_matrix(&e.matrix))
                );
            }
            for (m, e) in &outcome.archive {
                assert_eq!(bits(e), bits(&problem.evaluate_matrix(m)));
            }
            // Every engine evaluation is computed once; every Ω offer and
            // every archive entry reads a carried one.
            let stats = &outcome.statistics;
            assert_eq!(stats.cache_misses, stats.evaluations as u64);
            assert!(stats.cache_hits >= outcome.archive.len() as u64);
        }
    }

    #[test]
    fn stagnation_criterion_stops_early() {
        let config = OptrrConfig {
            stagnation_generations: Some(3),
            engine: emoo::EngineConfig {
                population_size: 16,
                archive_size: 8,
                generations: 500,
                mutation_rate: 0.4,
                density_k: 1,
            },
            omega_slots: 100,
            ..OptrrConfig::fast(0.8, 11)
        };
        let optimizer = Optimizer::new(config).unwrap();
        let outcome = optimizer.optimize_distribution(&normal_prior()).unwrap();
        assert!(
            outcome.statistics.generations_run < 500,
            "stagnation should stop the run early (ran {})",
            outcome.statistics.generations_run
        );
    }
}
