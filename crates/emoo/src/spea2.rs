//! The SPEA2 (Strength Pareto Evolutionary Algorithm 2) backend of the
//! [`Engine`] abstraction.
//!
//! This module implements the algorithm skeleton the paper customizes
//! (Section V): fitness assignment (strength → raw fitness → density),
//! environmental selection into a bounded archive, binary-tournament mating
//! selection, and user-supplied variation (crossover + mutation) and repair
//! operators. Each generation produces all child genomes first and then
//! evaluates them through [`Problem::evaluate_batch`], so problems can
//! batch, cache, or parallelize evaluation — the hottest path of the whole
//! system. The OptRR-specific genome, operators, and the optimal-set Ω
//! extension live in `optrr-core`; this crate stays problem-agnostic.

use crate::density::densities;
use crate::dominance::raw_fitness;
use crate::engine::{
    evaluate_into_individuals, push_offspring_pair, seeded_initial_population, Engine,
    EngineOutcome,
};
use crate::individual::Individual;
use crate::kernel::FitnessKernel;
use crate::objectives::Objectives;
use crate::selection::{environmental_selection_with, fill_mating_pool};
use rand::Rng;

pub use crate::engine::{EngineConfig, GenerationSnapshot, Problem};

/// Assigns SPEA2 fitness (raw fitness + density) to every member of the
/// combined population, in place, from scratch.
///
/// This is the reference implementation, built from [`raw_fitness`] and
/// [`densities`] over cloned [`Objectives`]: it allocates on every call
/// and computes each distance once per orientation. The engines run the
/// [`FitnessKernel`] instead, which fills each pair once into flat tables
/// and produces bitwise identical fitness values; the crate's property
/// tests pin the two together.
pub fn assign_fitness<G>(combined: &mut [Individual<G>], density_k: usize) {
    let points: Vec<Objectives> = combined.iter().map(|i| i.objectives.clone()).collect();
    let raw = raw_fitness(&points);
    let dens = densities(&points, density_k);
    for (ind, (r, d)) in combined.iter_mut().zip(raw.into_iter().zip(dens)) {
        ind.fitness = Some(r + d);
    }
}

/// The SPEA2 engine, generic over the problem definition.
pub struct Spea2<'a, P: Problem> {
    problem: &'a P,
    config: EngineConfig,
}

impl<'a, P: Problem> Spea2<'a, P> {
    /// Creates an engine after validating the configuration.
    pub fn new(problem: &'a P, config: EngineConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { problem, config })
    }
}

impl<'a, P: Problem> Engine<P> for Spea2<'a, P> {
    fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn run_seeded<R, F>(
        &self,
        rng: &mut R,
        seeds: Vec<P::Genome>,
        mut observer: F,
    ) -> EngineOutcome<P::Genome>
    where
        R: Rng + ?Sized,
        F: FnMut(&GenerationSnapshot<'_, P::Genome>) -> bool,
    {
        let mut evaluations = 0usize;

        // One fitness kernel per run: its tables stay allocated across
        // generations, and environmental selection reads its distances.
        let mut kernel = FitnessKernel::default();

        // Initial population Q_0: seeds first, then random genomes, all
        // repaired and evaluated as one batch.
        let mut population = seeded_initial_population(
            self.problem,
            self.config.population_size,
            seeds,
            rng,
            &mut evaluations,
        );
        let mut archive: Vec<Individual<P::Genome>> = Vec::new();
        let mut generations_run = 0usize;

        for generation in 0..self.config.generations {
            generations_run = generation + 1;

            // 1. Fitness assignment over the union of population and
            // archive.
            let mut combined: Vec<Individual<P::Genome>> =
                Vec::with_capacity(population.len() + archive.len());
            combined.append(&mut population);
            combined.append(&mut archive);
            kernel.assign_fitness(&mut combined, self.config.density_k);

            // 2. Environmental selection into the next archive; truncation
            // reads distances straight from the kernel's table.
            let selected =
                environmental_selection_with(&combined, self.config.archive_size, |a, b| {
                    kernel.distance(a, b)
                });
            // Extract in index order without cloning genomes more than once.
            let mut keep = vec![false; combined.len()];
            for &i in &selected {
                keep[i] = true;
            }
            archive = combined
                .into_iter()
                .zip(keep)
                .filter_map(|(ind, kept)| kept.then_some(ind))
                .collect();

            // 3. Mating selection from the archive.
            let mating_pool = fill_mating_pool(&archive, self.config.population_size, rng);

            // 4. Crossover, mutation, and repair to build the next
            // generation's genomes. Evaluation is deferred so the whole
            // brood goes through `evaluate_batch` at once.
            let mut child_genomes: Vec<P::Genome> =
                Vec::with_capacity(self.config.population_size + 1);
            let mut pair_iter = mating_pool.chunks(2);
            while child_genomes.len() < self.config.population_size {
                let pair = pair_iter.next().unwrap_or(&[]);
                let (pa, pb) = match pair {
                    [a, b] => (*a, *b),
                    [a] => (*a, *a),
                    _ => {
                        // Mating pool exhausted (odd sizes): start a fresh pass.
                        pair_iter = mating_pool.chunks(2);
                        continue;
                    }
                };
                // Steps 4–5 continued: crossover, mutation, and the
                // "meeting the bound" repair, shared with NSGA-II.
                push_offspring_pair(
                    self.problem,
                    self.config.mutation_rate,
                    &archive[pa].genome,
                    &archive[pb].genome,
                    rng,
                    &mut child_genomes,
                    self.config.population_size,
                );
            }
            population = evaluate_into_individuals(self.problem, child_genomes, &mut evaluations);

            // 6. Observer hook (Ω update, logging, convergence checks).
            let snapshot = GenerationSnapshot {
                generation,
                archive: &archive,
                population: &population,
                evaluations,
            };
            if !observer(&snapshot) {
                break;
            }
        }

        // Final fitness assignment so the returned archive is ranked.
        kernel.assign_fitness(&mut archive, self.config.density_k);
        EngineOutcome {
            archive,
            generations_run,
            evaluations,
            fitness_pairs_computed: kernel.pairs_computed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{dominates, pareto_front};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The classical Schaffer N.1 problem: minimize (x², (x−2)²) over x.
    /// Its Pareto set is x ∈ [0, 2] and the front satisfies
    /// f2 = (sqrt(f1) − 2)².
    struct Schaffer;

    impl Problem for Schaffer {
        type Genome = f64;

        fn num_objectives(&self) -> usize {
            2
        }

        fn random_genome<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            rng.gen_range(-10.0..10.0)
        }

        fn evaluate(&self, x: &f64) -> Objectives {
            Objectives::pair(x * x, (x - 2.0) * (x - 2.0))
        }

        fn crossover<R: Rng + ?Sized>(&self, a: &f64, b: &f64, rng: &mut R) -> (f64, f64) {
            let w: f64 = rng.gen();
            (w * a + (1.0 - w) * b, (1.0 - w) * a + w * b)
        }

        fn mutate<R: Rng + ?Sized>(&self, x: &mut f64, rng: &mut R) {
            *x += rng.gen_range(-0.5..0.5);
        }

        fn repair<R: Rng + ?Sized>(&self, x: &mut f64, _rng: &mut R) {
            *x = x.clamp(-10.0, 10.0);
        }
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
        assert!(Spea2::new(
            &Schaffer,
            EngineConfig {
                generations: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn fitness_assignment_marks_nondominated_below_one() {
        let mut combined = vec![
            Individual::new(0u32, Objectives::pair(1.0, 5.0)),
            Individual::new(1u32, Objectives::pair(2.0, 3.0)),
            Individual::new(2u32, Objectives::pair(3.0, 4.0)), // dominated
        ];
        assign_fitness(&mut combined, 1);
        assert!(combined[0].is_nondominated());
        assert!(combined[1].is_nondominated());
        assert!(!combined[2].is_nondominated());
        assert!(combined[2].fitness_or_worst() >= 1.0);
    }

    #[test]
    fn schaffer_front_is_found() {
        let problem = Schaffer;
        let config = EngineConfig {
            population_size: 60,
            archive_size: 30,
            generations: 60,
            mutation_rate: 0.4,
            density_k: 1,
        };
        let engine = Spea2::new(&problem, config).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = engine.run_seeded(&mut rng, Vec::new(), |_| true);

        assert_eq!(outcome.generations_run, 60);
        assert!(outcome.evaluations >= 60 * 60);
        assert!(!outcome.archive.is_empty());
        assert!(outcome.archive.len() <= 30);

        // All archive genomes close to the Pareto set [0, 2].
        for ind in &outcome.archive {
            assert!(
                (-0.3..=2.3).contains(&ind.genome),
                "genome {} not near the Pareto set",
                ind.genome
            );
        }
        // The archive points are mutually non-dominated.
        let objs: Vec<Objectives> = outcome
            .archive
            .iter()
            .map(|i| i.objectives.clone())
            .collect();
        for a in &objs {
            assert!(!objs.iter().any(|b| dominates(b, a)));
        }
        // Front values satisfy the analytic relation approximately.
        for o in &objs {
            let f1 = o.value(0);
            let f2 = o.value(1);
            let expected = (f1.sqrt() - 2.0).powi(2);
            assert!((f2 - expected).abs() < 0.35, "f1={f1}, f2={f2}");
        }
        // The front spreads across a reasonable range rather than collapsing.
        let front = pareto_front(&objs);
        let min_f1 = front
            .iter()
            .map(|o| o.value(0))
            .fold(f64::INFINITY, f64::min);
        let max_f1 = front.iter().map(|o| o.value(0)).fold(0.0_f64, f64::max);
        assert!(
            max_f1 - min_f1 > 1.0,
            "front range [{min_f1}, {max_f1}] too narrow"
        );
    }

    #[test]
    fn observer_can_stop_early_and_sees_growing_generations() {
        let problem = Schaffer;
        let engine = Spea2::new(
            &problem,
            EngineConfig {
                generations: 50,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = Vec::new();
        let mut last_evaluations = 0usize;
        let outcome = engine.run_seeded(&mut rng, Vec::new(), |snap| {
            seen.push(snap.generation);
            assert!(!snap.archive.is_empty());
            assert_eq!(snap.population.len(), engine.config().population_size);
            assert!(snap.evaluations > last_evaluations);
            last_evaluations = snap.evaluations;
            snap.generation < 4 // stop after generation index 4
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(outcome.generations_run, 5);
        assert_eq!(outcome.evaluations, last_evaluations);
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let problem = Schaffer;
        let config = EngineConfig {
            generations: 10,
            ..Default::default()
        };
        let engine = Spea2::new(&problem, config).unwrap();
        let a = engine.run_seeded(&mut StdRng::seed_from_u64(33), Vec::new(), |_| true);
        let b = engine.run_seeded(&mut StdRng::seed_from_u64(33), Vec::new(), |_| true);
        let genomes =
            |o: &EngineOutcome<f64>| o.archive.iter().map(|i| i.genome).collect::<Vec<_>>();
        assert_eq!(genomes(&a), genomes(&b));
        let c = engine.run_seeded(&mut StdRng::seed_from_u64(34), Vec::new(), |_| true);
        assert_ne!(genomes(&a), genomes(&c));
    }
}
