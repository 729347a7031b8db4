//! The shared EMOO engine abstraction.
//!
//! The paper builds OptRR on SPEA2 but argues the choice of evolutionary
//! multi-objective engine is interchangeable (Section V). This module makes
//! that claim concrete: a [`Problem`] describes genome creation, variation,
//! repair, and (batched) evaluation; an [`Engine`] runs the evolutionary
//! loop and reports each generation through a [`GenerationSnapshot`] whose
//! individuals carry their already-computed objective vectors, so observers
//! (like the optimal-set Ω maintenance in `optrr-core`, which also
//! forwards each snapshot to the serve stack's event trace during refresh
//! runs) never need to re-evaluate anything. Beyond its continue/stop
//! return value, an observer is a read-only tap: it can report a
//! generation anywhere (counters, traces) without perturbing the engine's
//! RNG stream or the evolved front. [`Spea2`](crate::Spea2) and
//! [`Nsga2`](crate::nsga2::Nsga2) both implement [`Engine`] over one shared
//! [`EngineConfig`], and [`run_engine`] dispatches on [`EngineKind`] so
//! callers select the backend purely by configuration.

use crate::individual::Individual;
use crate::objectives::Objectives;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which EMOO backend to run. Selected purely by configuration; both
/// backends share [`EngineConfig`] and produce an [`EngineOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Strength Pareto Evolutionary Algorithm 2 (the paper's choice).
    #[default]
    Spea2,
    /// NSGA-II, the independent cross-check engine.
    Nsga2,
}

impl EngineKind {
    /// Human-readable engine name.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Spea2 => "SPEA2",
            EngineKind::Nsga2 => "NSGA-II",
        }
    }
}

/// Run parameters shared by every EMOO backend.
///
/// SPEA2 reads every field; NSGA-II has no separate archive, so it uses
/// `archive_size` only to bound the reported final front and `density_k`
/// only for that front's fitness (crowding distance plays the density role
/// during the run).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Population size `N_Q`.
    pub population_size: usize,
    /// Archive size `N_V` (SPEA2 archive; NSGA-II front-size bound).
    pub archive_size: usize,
    /// Number of generations to run.
    pub generations: usize,
    /// Per-child mutation probability.
    pub mutation_rate: f64,
    /// Neighbour index `k` for the SPEA2 density estimator.
    pub density_k: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            population_size: 80,
            archive_size: 40,
            generations: 100,
            mutation_rate: 0.3,
            density_k: crate::density::DEFAULT_K,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.population_size == 0 {
            return Err("population_size must be positive".into());
        }
        if self.archive_size == 0 {
            return Err("archive_size must be positive".into());
        }
        if self.generations == 0 {
            return Err("generations must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err("mutation_rate must be in [0, 1]".into());
        }
        if self.density_k == 0 {
            return Err("density_k must be positive".into());
        }
        Ok(())
    }
}

/// A multi-objective problem definition: how to create, evaluate, vary, and
/// repair genomes.
pub trait Problem {
    /// The genome type being evolved.
    type Genome: Clone;

    /// Number of objectives (all minimized).
    fn num_objectives(&self) -> usize;

    /// Creates one random genome.
    fn random_genome<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Genome;

    /// Evaluates a genome into an objective vector. Infeasible genomes must
    /// be mapped to large finite penalty values rather than NaN.
    fn evaluate(&self, genome: &Self::Genome) -> Objectives;

    /// Evaluates a whole batch of genomes.
    ///
    /// Engines route *all* evaluation through this hook, so overriding it
    /// is the single place to add batching or caching. The default
    /// delegates to [`Problem::evaluate`] serially. Implementations
    /// must be order-preserving and produce exactly the values `evaluate`
    /// would, or engine runs stop being reproducible.
    fn evaluate_batch(&self, genomes: &[Self::Genome]) -> Vec<Objectives> {
        genomes.iter().map(|genome| self.evaluate(genome)).collect()
    }

    /// Produces two children from two parents (crossover).
    fn crossover<R: Rng + ?Sized>(
        &self,
        a: &Self::Genome,
        b: &Self::Genome,
        rng: &mut R,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place.
    fn mutate<R: Rng + ?Sized>(&self, genome: &mut Self::Genome, rng: &mut R);

    /// Repairs a genome so it satisfies the problem's constraints
    /// (the OptRR "meeting the bound" step). The default is a no-op.
    fn repair<R: Rng + ?Sized>(&self, _genome: &mut Self::Genome, _rng: &mut R) {}
}

/// A snapshot of the state at the end of a generation, passed to the
/// observer callback (used by `optrr-core` to maintain the optimal set Ω).
///
/// Every [`Individual`] carries the objective vector computed when it was
/// evaluated, so observers consume evaluations instead of recomputing them.
pub struct GenerationSnapshot<'a, G> {
    /// Generation index (0-based).
    pub generation: usize,
    /// The current elite set: the SPEA2 archive after environmental
    /// selection, or the NSGA-II rank-0 individuals.
    pub archive: &'a [Individual<G>],
    /// The rest of this generation's individuals: the newly evaluated
    /// SPEA2 population, or the non-elite remainder of the NSGA-II
    /// population. Disjoint from `archive`, so chaining the two slices
    /// visits every live individual exactly once.
    pub population: &'a [Individual<G>],
    /// Objective evaluations performed so far (cumulative).
    pub evaluations: usize,
}

/// The result of an engine run.
#[derive(Debug, Clone)]
pub struct EngineOutcome<G> {
    /// The final elite set, fitness-assigned and bounded by
    /// `archive_size`.
    pub archive: Vec<Individual<G>>,
    /// Number of generations actually executed.
    pub generations_run: usize,
    /// Total number of objective evaluations performed.
    pub evaluations: usize,
    /// Unordered pairs the [`FitnessKernel`](crate::FitnessKernel)
    /// compared over the whole run.
    pub fitness_pairs_computed: u64,
}

/// An evolutionary multi-objective engine over a [`Problem`].
pub trait Engine<P: Problem> {
    /// Borrow the configuration.
    fn config(&self) -> &EngineConfig;

    /// Runs the algorithm with an explicitly seeded initial population,
    /// invoking `observer` at the end of each generation. The observer
    /// returns `true` to keep going and `false` to stop early.
    ///
    /// The supplied seed genomes (repaired before evaluation) fill the
    /// first slots of generation 0; the remainder of the population is
    /// filled with random genomes. Seeds beyond `population_size` are
    /// ignored.
    fn run_seeded<R, F>(
        &self,
        rng: &mut R,
        seeds: Vec<P::Genome>,
        observer: F,
    ) -> EngineOutcome<P::Genome>
    where
        R: Rng + ?Sized,
        F: FnMut(&GenerationSnapshot<'_, P::Genome>) -> bool;
}

/// Constructs and runs the configured backend in one call — the single
/// code path `optrr-core`, the ablation binaries, and the benches use to
/// stay backend-agnostic.
pub fn run_engine<P, R, F>(
    kind: EngineKind,
    problem: &P,
    config: EngineConfig,
    rng: &mut R,
    seeds: Vec<P::Genome>,
    observer: F,
) -> Result<EngineOutcome<P::Genome>, String>
where
    P: Problem,
    R: Rng + ?Sized,
    F: FnMut(&GenerationSnapshot<'_, P::Genome>) -> bool,
{
    match kind {
        EngineKind::Spea2 => {
            crate::Spea2::new(problem, config).map(|e| e.run_seeded(rng, seeds, observer))
        }
        EngineKind::Nsga2 => {
            crate::nsga2::Nsga2::new(problem, config).map(|e| e.run_seeded(rng, seeds, observer))
        }
    }
}

/// Batch-evaluates genomes and pairs each with its objectives, counting
/// the evaluations. Shared by every engine.
pub(crate) fn evaluate_into_individuals<P: Problem>(
    problem: &P,
    genomes: Vec<P::Genome>,
    evaluations: &mut usize,
) -> Vec<Individual<P::Genome>> {
    let objectives = problem.evaluate_batch(&genomes);
    debug_assert_eq!(
        objectives.len(),
        genomes.len(),
        "evaluate_batch must be 1:1"
    );
    *evaluations += genomes.len();
    genomes
        .into_iter()
        .zip(objectives)
        .map(|(genome, objectives)| Individual::new(genome, objectives))
        .collect()
}

/// Builds and evaluates generation 0 the way every engine does: seeds
/// first (truncated to the population size), random genomes for the rest,
/// everything repaired and then evaluated as one batch.
pub(crate) fn seeded_initial_population<P, R>(
    problem: &P,
    population_size: usize,
    seeds: Vec<P::Genome>,
    rng: &mut R,
    evaluations: &mut usize,
) -> Vec<Individual<P::Genome>>
where
    P: Problem,
    R: Rng + ?Sized,
{
    let mut genomes: Vec<P::Genome> = seeds;
    genomes.truncate(population_size);
    while genomes.len() < population_size {
        genomes.push(problem.random_genome(rng));
    }
    for genome in &mut genomes {
        problem.repair(genome, rng);
    }
    evaluate_into_individuals(problem, genomes, evaluations)
}

/// Crosses two parents, mutates each child with `mutation_rate`, repairs
/// both, and pushes them into the brood (dropping the second child when
/// the brood is full). The shared variation step of every engine —
/// evaluation is deferred so the whole brood can go through
/// [`Problem::evaluate_batch`] at once.
pub(crate) fn push_offspring_pair<P, R>(
    problem: &P,
    mutation_rate: f64,
    parent_a: &P::Genome,
    parent_b: &P::Genome,
    rng: &mut R,
    brood: &mut Vec<P::Genome>,
    population_size: usize,
) where
    P: Problem,
    R: Rng + ?Sized,
{
    let (mut child_a, mut child_b) = problem.crossover(parent_a, parent_b, rng);
    for child in [&mut child_a, &mut child_b] {
        if rng.gen::<f64>() < mutation_rate {
            problem.mutate(child, rng);
        }
        problem.repair(child, rng);
    }
    brood.push(child_a);
    if brood.len() < population_size {
        brood.push(child_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_defaults_to_spea2_and_labels() {
        assert_eq!(EngineKind::default(), EngineKind::Spea2);
        assert_eq!(EngineKind::Spea2.label(), "SPEA2");
        assert_eq!(EngineKind::Nsga2.label(), "NSGA-II");
    }

    #[test]
    fn config_validation() {
        assert!(EngineConfig::default().validate().is_ok());
        assert!(EngineConfig {
            population_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            archive_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            generations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            mutation_rate: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            density_k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    struct Sphere;

    impl Problem for Sphere {
        type Genome = f64;

        fn num_objectives(&self) -> usize {
            2
        }

        fn random_genome<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            rng.gen_range(-4.0..4.0)
        }

        fn evaluate(&self, x: &f64) -> Objectives {
            Objectives::pair(x * x, (x - 1.0) * (x - 1.0))
        }

        fn crossover<R: Rng + ?Sized>(&self, a: &f64, b: &f64, _rng: &mut R) -> (f64, f64) {
            ((a + b) / 2.0, (a + b) / 2.0)
        }

        fn mutate<R: Rng + ?Sized>(&self, x: &mut f64, rng: &mut R) {
            *x += rng.gen_range(-0.1..0.1);
        }
    }

    #[test]
    fn default_batch_evaluation_matches_pointwise() {
        let genomes = vec![0.0, 0.5, 1.0, -2.0];
        let batch = Sphere.evaluate_batch(&genomes);
        for (g, o) in genomes.iter().zip(&batch) {
            assert_eq!(o, &Sphere.evaluate(g));
        }
    }

    #[test]
    fn run_engine_dispatches_both_backends() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let config = EngineConfig {
            population_size: 20,
            archive_size: 10,
            generations: 10,
            mutation_rate: 0.4,
            density_k: 1,
        };
        for kind in [EngineKind::Spea2, EngineKind::Nsga2] {
            let mut rng = StdRng::seed_from_u64(5);
            let outcome =
                run_engine(kind, &Sphere, config, &mut rng, Vec::new(), |_| true).unwrap();
            assert_eq!(outcome.generations_run, 10);
            assert!(!outcome.archive.is_empty());
            assert!(outcome.archive.len() <= 10);
            assert!(outcome.evaluations >= 20);
        }
        let bad = EngineConfig {
            population_size: 0,
            ..config
        };
        let mut rng = StdRng::seed_from_u64(5);
        assert!(run_engine(
            EngineKind::Nsga2,
            &Sphere,
            bad,
            &mut rng,
            Vec::new(),
            |_| true
        )
        .is_err());
    }
}
