//! # optrr-emoo
//!
//! Generic Evolutionary Multi-Objective Optimization (EMOO) substrate for
//! the OptRR reproduction (Huang & Du, ICDE 2008).
//!
//! Section V of the paper builds its optimizer on SPEA2. This crate
//! provides the problem-agnostic machinery:
//!
//! * [`Objectives`] and [`dominance`] — objective vectors, Pareto
//!   dominance (Definition 5.1), non-dominated set extraction, and the
//!   SPEA2 strength / raw-fitness values;
//! * [`density`] — the k-th-nearest-neighbour density estimator that
//!   breaks raw-fitness ties;
//! * [`selection`] — binary-tournament mating selection and the
//!   environmental selection with nearest-neighbour truncation;
//! * [`kernel`] — the [`FitnessKernel`]: flat dominance/distance tables
//!   filled in one pass over the unordered pairs, from which SPEA2 fitness
//!   is assigned and the archive truncation reads its distances,
//!   bitwise-equal to the from-scratch path. It keeps nothing between
//!   calls but its buffers;
//! * [`engine`] — the shared [`Engine`] abstraction: one [`EngineConfig`],
//!   per-generation [`GenerationSnapshot`]s that carry the already-computed
//!   objective evaluations, an [`EngineOutcome`], and the [`EngineKind`]
//!   selector with the [`run_engine`] dispatcher. The [`Problem`] trait's
//!   [`Problem::evaluate_batch`] hook lets problems batch or cache
//!   evaluation;
//! * [`Spea2`] — the paper's engine, implementing [`Engine`];
//! * [`nsga2`] — an independent NSGA-II [`Engine`] used to cross-check
//!   results;
//! * [`indicators`] — hypervolume, coverage, and matched-level front
//!   comparison used by the experiment harness.
//!
//! The OptRR-specific genome (RR matrices), its custom crossover/mutation,
//! the δ-bound repair, and the optimal-set Ω extension live in `optrr-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod dominance;
pub mod engine;
pub mod indicators;
pub mod individual;
pub mod kernel;
pub mod nsga2;
pub mod objectives;
pub mod selection;
pub mod spea2;

pub use dominance::{dominates, non_dominated_indices, pareto_front};
pub use engine::{
    run_engine, Engine, EngineConfig, EngineKind, EngineOutcome, GenerationSnapshot, Problem,
};
pub use individual::Individual;
pub use kernel::FitnessKernel;
pub use nsga2::Nsga2;
pub use objectives::Objectives;
pub use spea2::{assign_fitness, Spea2};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_points(max_len: usize) -> impl Strategy<Value = Vec<Objectives>> {
        proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..max_len).prop_map(|raw| {
            raw.into_iter()
                .map(|(a, b)| Objectives::pair(a, b))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn pareto_front_members_are_mutually_nondominated(points in arb_points(40)) {
            let front = pareto_front(&points);
            prop_assert!(!front.is_empty());
            for a in &front {
                prop_assert!(!front.iter().any(|b| dominates(b, a)));
            }
            // Every excluded point is dominated by some front member.
            for p in &points {
                let in_front = front.iter().any(|f| f == p);
                if !in_front {
                    prop_assert!(front.iter().any(|f| dominates(f, p)) ||
                        // duplicates of front members are also "excluded" only
                        // if the front kept another identical copy
                        front.iter().any(|f| f.values() == p.values()));
                }
            }
        }

        #[test]
        fn dominance_is_antisymmetric_and_irreflexive(points in arb_points(20)) {
            for a in &points {
                prop_assert!(!dominates(a, a));
                for b in &points {
                    if dominates(a, b) {
                        prop_assert!(!dominates(b, a));
                    }
                }
            }
        }

        #[test]
        fn raw_fitness_zero_iff_nondominated(points in arb_points(30)) {
            let raw = dominance::raw_fitness(&points);
            let nd = non_dominated_indices(&points);
            for (i, r) in raw.iter().enumerate() {
                let is_nd = nd.contains(&i);
                prop_assert_eq!(is_nd, *r == 0.0, "index {} raw {}", i, r);
            }
        }

        #[test]
        fn hypervolume_is_monotone_under_front_extension(points in arb_points(20), extra in (0.0f64..10.0, 0.0f64..10.0)) {
            let reference = Objectives::pair(11.0, 11.0);
            let hv_before = indicators::hypervolume_2d(&points, &reference);
            let mut extended = points.clone();
            extended.push(Objectives::pair(extra.0, extra.1));
            let hv_after = indicators::hypervolume_2d(&extended, &reference);
            prop_assert!(hv_after >= hv_before - 1e-9);
        }

        #[test]
        fn environmental_selection_respects_the_size_bound(points in arb_points(30), size in 1usize..20) {
            let mut combined: Vec<Individual<u32>> = points
                .iter()
                .map(|o| Individual::new(0u32, o.clone()))
                .collect();
            assign_fitness(&mut combined, 1);
            let selected = selection::environmental_selection(&combined, size);
            prop_assert!(selected.len() <= size.max(1));
            prop_assert!(selected.len() <= combined.len());
            if combined.len() >= size {
                prop_assert_eq!(selected.len(), size);
            }
            // Selected indices are unique and valid.
            let mut sorted = selected.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), selected.len());
            prop_assert!(selected.iter().all(|&i| i < combined.len()));
        }

        /// The kernel's guarantee: one kernel reused over a random sequence
        /// of memberships of varying size — each keeping a random subset
        /// of the previous members and adding fresh points — assigns
        /// fitness **bitwise** equal to the from-scratch SPEA2 path, and
        /// environmental selection reading the kernel's distances picks
        /// exactly what the from-scratch selection picks. This pins the
        /// SPEA2 engine's fitness and truncation to their reference
        /// implementations.
        #[test]
        fn kernel_is_bitwise_equal_to_scratch_across_generations(
            initial in arb_points(20),
            steps in proptest::collection::vec(
                (arb_points(10), proptest::collection::vec(0u8..2, 30..31), 1usize..12),
                1..5,
            ),
            k in 1usize..4,
        ) {
            let mut kernel = FitnessKernel::default();
            let individual = |p: &Objectives| Individual::new(0u32, p.clone());
            let mut members: Vec<Individual<u32>> = initial.iter().map(individual).collect();

            for (new_points, keep_mask, archive_size) in &steps {
                // Removals: drop members whose mask bit is 0 (the mask
                // repeats if shorter than the membership), then insertions.
                members = members
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| keep_mask[i % keep_mask.len()] == 1)
                    .map(|(_, m)| m)
                    .collect();
                members.extend(new_points.iter().map(individual));

                let mut scratch = members.clone();
                assign_fitness(&mut scratch, k);
                kernel.assign_fitness(&mut members, k);
                let bits = |m: &[Individual<u32>]| {
                    m.iter()
                        .map(|i| i.fitness.expect("assigned").to_bits())
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&members), bits(&scratch));
                prop_assert_eq!(
                    selection::environmental_selection_with(&members, *archive_size, |a, b| {
                        kernel.distance(a, b)
                    }),
                    selection::environmental_selection(&scratch, *archive_size)
                );
            }
        }

        /// Environmental selection with a cached distance source must pick
        /// exactly the members the on-the-fly version picks.
        #[test]
        fn environmental_selection_with_cached_distances_matches(
            points in arb_points(25),
            size in 1usize..12,
        ) {
            let mut combined: Vec<Individual<u32>> = points
                .iter()
                .map(|o| Individual::new(0u32, o.clone()))
                .collect();
            assign_fitness(&mut combined, 1);
            let baseline = selection::environmental_selection(&combined, size);
            // Pre-computed distance matrix standing in for the kernel.
            let n = combined.len();
            let mut matrix = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..n {
                    matrix[i * n + j] = combined[i].objectives.distance(&combined[j].objectives);
                }
            }
            let cached = selection::environmental_selection_with(&combined, size, |a, b| {
                matrix[a * n + b]
            });
            prop_assert_eq!(baseline, cached);
        }

        #[test]
        fn nsga2_ranks_are_consistent_with_dominance(points in arb_points(25)) {
            let ranks = nsga2::non_dominated_sort(&points);
            for (i, a) in points.iter().enumerate() {
                for (j, b) in points.iter().enumerate() {
                    if dominates(a, b) {
                        prop_assert!(ranks[i] < ranks[j],
                            "dominating point must have a strictly better rank");
                    }
                }
            }
        }
    }
}
