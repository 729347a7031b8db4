//! The NSGA-II backend of the [`Engine`] abstraction, used as an
//! independent cross-check for SPEA2.
//!
//! The paper chooses SPEA2 (citing its comparative performance); providing
//! a second engine behind the same [`Engine`] interface lets the ablation
//! experiments confirm that the OptRR results are not an artifact of the
//! particular engine — callers switch backends purely through
//! [`EngineKind`](crate::EngineKind). NSGA-II ranks individuals by
//! non-dominated sorting and breaks ties with crowding distance; it has no
//! separate archive, so the shared `archive_size` bounds only the reported
//! final front, and `density_k` sets only the density term of that front's
//! fitness.

use crate::dominance::for_each_dominating_pair;
use crate::engine::{evaluate_into_individuals, push_offspring_pair, seeded_initial_population};
use crate::engine::{Engine, EngineConfig, EngineOutcome, GenerationSnapshot, Problem};
use crate::individual::Individual;
use crate::kernel::FitnessKernel;
use crate::objectives::Objectives;
use rand::Rng;

/// Performs fast non-dominated sorting; returns the front index (0 = best)
/// of every point.
pub fn non_dominated_sort(points: &[Objectives]) -> Vec<usize> {
    let n = points.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // who i dominates
    let mut domination_count = vec![0usize; n];
    for_each_dominating_pair(points, |winner, loser| {
        dominated_by[winner].push(loser);
        domination_count[loser] += 1;
    });
    let mut rank = vec![0usize; n];
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    let mut front_index = 0usize;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            rank[i] = front_index;
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        front_index += 1;
        current = next;
    }
    rank
}

/// Computes the crowding distance of each point within its own front.
pub fn crowding_distances(points: &[Objectives], ranks: &[usize]) -> Vec<f64> {
    let n = points.len();
    let mut distance = vec![0.0_f64; n];
    if n == 0 {
        return distance;
    }
    let num_objectives = points[0].len();
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for front in 0..=max_rank {
        let members: Vec<usize> = (0..n).filter(|&i| ranks[i] == front).collect();
        if members.is_empty() {
            continue;
        }
        for m in 0..num_objectives {
            let mut sorted = members.clone();
            sorted.sort_by(|&a, &b| {
                points[a]
                    .value(m)
                    .partial_cmp(&points[b].value(m))
                    .expect("finite objectives")
            });
            let lo = points[*sorted.first().expect("non-empty front")].value(m);
            let hi = points[*sorted.last().expect("non-empty front")].value(m);
            distance[sorted[0]] = f64::INFINITY;
            distance[sorted[sorted.len() - 1]] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 {
                continue;
            }
            for w in 1..sorted.len().saturating_sub(1) {
                let prev = points[sorted[w - 1]].value(m);
                let next = points[sorted[w + 1]].value(m);
                distance[sorted[w]] += (next - prev) / span;
            }
        }
    }
    distance
}

/// The NSGA-II engine, generic over the problem definition.
pub struct Nsga2<'a, P: Problem> {
    problem: &'a P,
    config: EngineConfig,
}

impl<'a, P: Problem> Nsga2<'a, P> {
    /// Creates an engine after validating the configuration.
    pub fn new(problem: &'a P, config: EngineConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { problem, config })
    }
}

impl<'a, P: Problem> Engine<P> for Nsga2<'a, P> {
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
        let pop_size = self.config.population_size;
        let mut evaluations = 0usize;

        // Initial population: seeds first, then random genomes, all
        // repaired and evaluated as one batch (shared with SPEA2).
        let mut population =
            seeded_initial_population(self.problem, pop_size, seeds, rng, &mut evaluations);

        let mut generations_run = 0usize;
        let mut front_len = 0usize;
        for generation in 0..self.config.generations {
            generations_run = generation + 1;

            // Rank the current population for mating selection.
            let points: Vec<Objectives> = population.iter().map(|i| i.objectives.clone()).collect();
            let ranks = non_dominated_sort(&points);
            let crowd = crowding_distances(&points, &ranks);

            // Binary-tournament selection on (rank, -crowding).
            let better = |a: usize, b: usize| -> usize {
                if ranks[a] < ranks[b] {
                    a
                } else if ranks[b] < ranks[a] {
                    b
                } else if crowd[a] >= crowd[b] {
                    a
                } else {
                    b
                }
            };

            // Produce offspring genomes; evaluation is deferred so the
            // whole brood goes through `evaluate_batch` at once.
            let mut child_genomes: Vec<P::Genome> = Vec::with_capacity(pop_size);
            while child_genomes.len() < pop_size {
                let p1 = better(rng.gen_range(0..pop_size), rng.gen_range(0..pop_size));
                let p2 = better(rng.gen_range(0..pop_size), rng.gen_range(0..pop_size));
                push_offspring_pair(
                    self.problem,
                    self.config.mutation_rate,
                    &population[p1].genome,
                    &population[p2].genome,
                    rng,
                    &mut child_genomes,
                    pop_size,
                );
            }
            let mut offspring =
                evaluate_into_individuals(self.problem, child_genomes, &mut evaluations);

            // Environmental selection over the union, by (rank, crowding).
            let mut union = population;
            union.append(&mut offspring);
            let union_points: Vec<Objectives> =
                union.iter().map(|i| i.objectives.clone()).collect();
            let union_ranks = non_dominated_sort(&union_points);
            let union_crowd = crowding_distances(&union_points, &union_ranks);
            let mut order: Vec<usize> = (0..union.len()).collect();
            order.sort_by(|&a, &b| {
                union_ranks[a].cmp(&union_ranks[b]).then_with(|| {
                    union_crowd[b]
                        .partial_cmp(&union_crowd[a])
                        .expect("finite or infinite crowding")
                })
            });
            order.truncate(pop_size);
            front_len = order.iter().filter(|&&i| union_ranks[i] == 0).count();

            // Rebuild the population in (rank, crowding) order so the
            // rank-0 individuals form a prefix — the snapshot's "archive".
            let mut slots: Vec<Option<Individual<P::Genome>>> =
                union.into_iter().map(Some).collect();
            population = order
                .iter()
                .map(|&i| slots[i].take().expect("selection indices are unique"))
                .collect();

            // The snapshot slices are disjoint (elite prefix vs the
            // rest), so observers chaining them visit each individual
            // exactly once — same contract as SPEA2's archive/population.
            let snapshot = GenerationSnapshot {
                generation,
                archive: &population[..front_len],
                population: &population[front_len..],
                evaluations,
            };
            if !observer(&snapshot) {
                break;
            }
        }

        // The final first front (already a prefix of the sorted
        // population), bounded by the shared archive size and
        // fitness-assigned like the SPEA2 archive so downstream reporting
        // is uniform.
        population.truncate(front_len.min(self.config.archive_size).max(1));
        let mut kernel = FitnessKernel::default();
        kernel.assign_fitness(&mut population, self.config.density_k);
        EngineOutcome {
            archive: population,
            generations_run,
            evaluations,
            fitness_pairs_computed: kernel.pairs_computed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn o(a: f64, b: f64) -> Objectives {
        Objectives::pair(a, b)
    }

    #[test]
    fn non_dominated_sort_ranks_layers() {
        let pts = vec![
            o(1.0, 1.0), // rank 0
            o(2.0, 2.0), // rank 1 (dominated by the first only)
            o(3.0, 3.0), // rank 2
            o(0.5, 3.5), // rank 0 (incomparable with the first)
        ];
        let ranks = non_dominated_sort(&pts);
        assert_eq!(ranks, vec![0, 1, 2, 0]);
    }

    #[test]
    fn non_dominated_sort_handles_empty_and_single() {
        assert!(non_dominated_sort(&[]).is_empty());
        assert_eq!(non_dominated_sort(&[o(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn crowding_distance_marks_extremes_infinite() {
        let pts = vec![o(0.0, 4.0), o(1.0, 3.0), o(2.0, 2.0), o(4.0, 0.0)];
        let ranks = vec![0, 0, 0, 0];
        let d = crowding_distances(&pts, &ranks);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_distance_identical_points_do_not_divide_by_zero() {
        let pts = vec![o(1.0, 1.0), o(1.0, 1.0), o(1.0, 1.0)];
        let ranks = vec![0, 0, 0];
        let d = crowding_distances(&pts, &ranks);
        assert!(d.iter().all(|x| !x.is_nan()));
    }

    /// Reuse the Schaffer problem shape locally for an end-to-end check.
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
    }

    #[test]
    fn nsga2_finds_the_schaffer_front() {
        let config = EngineConfig {
            population_size: 60,
            archive_size: 30,
            generations: 60,
            mutation_rate: 0.4,
            density_k: 1,
        };
        let engine = Nsga2::new(&Schaffer, config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = engine.run_seeded(&mut rng, Vec::new(), |_| true);
        assert_eq!(outcome.generations_run, 60);
        assert!(!outcome.archive.is_empty());
        assert!(outcome.archive.len() <= 30);
        for ind in &outcome.archive {
            assert!((-0.3..=2.3).contains(&ind.genome), "genome {}", ind.genome);
        }
    }

    #[test]
    fn nsga2_observer_sees_rank0_prefix_and_can_stop_early() {
        let config = EngineConfig {
            population_size: 24,
            archive_size: 12,
            generations: 40,
            mutation_rate: 0.4,
            density_k: 1,
        };
        let engine = Nsga2::new(&Schaffer, config).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = 0usize;
        let outcome = engine.run_seeded(&mut rng, Vec::new(), |snap| {
            seen += 1;
            assert!(!snap.archive.is_empty());
            // Elite and remainder are disjoint and partition the
            // generation's individuals.
            assert_eq!(snap.archive.len() + snap.population.len(), 24);
            // The archive holds rank 0: nothing in the remainder
            // dominates an archive member.
            for elite in snap.archive {
                assert!(!snap
                    .population
                    .iter()
                    .any(|p| crate::dominance::dominates(&p.objectives, &elite.objectives)));
            }
            snap.generation < 2
        });
        assert_eq!(seen, 3);
        assert_eq!(outcome.generations_run, 3);
    }

    #[test]
    fn nsga2_supports_seeded_runs_and_determinism() {
        let config = EngineConfig {
            population_size: 20,
            archive_size: 10,
            generations: 15,
            mutation_rate: 0.4,
            density_k: 1,
        };
        let engine = Nsga2::new(&Schaffer, config).unwrap();
        let genomes =
            |o: &EngineOutcome<f64>| o.archive.iter().map(|i| i.genome).collect::<Vec<_>>();
        let a = engine.run_seeded(&mut StdRng::seed_from_u64(3), vec![1.0, 1.5], |_| true);
        let b = engine.run_seeded(&mut StdRng::seed_from_u64(3), vec![1.0, 1.5], |_| true);
        assert_eq!(genomes(&a), genomes(&b));
        let c = engine.run_seeded(&mut StdRng::seed_from_u64(4), vec![1.0, 1.5], |_| true);
        assert_ne!(genomes(&a), genomes(&c));
    }

    #[test]
    fn nsga2_rejects_invalid_config() {
        let bad = EngineConfig {
            population_size: 0,
            ..Default::default()
        };
        assert!(Nsga2::new(&Schaffer, bad).is_err());
    }
}
