//! The SPEA2 fitness kernel: one pass over the pairs into flat tables.
//!
//! SPEA2 fitness assignment (strength → raw fitness → density, paper
//! Section V.B) and the archive truncation (Section V.D) are functions of
//! the pairwise dominance relations and the pairwise objective distances
//! over the combined population. [`FitnessKernel::assign_fitness`] fills a
//! flat antisymmetric dominance table and a flat symmetric distance table
//! in one pass over the unordered pairs, reading the objectives from one
//! contiguous buffer, and derives every member's fitness from them.
//! [`FitnessKernel::distance`] then serves the truncation from the same
//! distance table. Results are bitwise identical to the from-scratch path
//! ([`assign_fitness`](crate::spea2::assign_fitness) and
//! [`environmental_selection`](crate::selection::environmental_selection));
//! the crate's property tests pin the two together.
//!
//! A call keeps nothing from the previous one but its buffers and a count
//! of the pairs computed, so a kernel reused across generations allocates
//! nothing in steady state.
//!
//! Fills are serial: a run is one thread, and runs go parallel with each
//! other (the serving layer's worker pool), never inside.

use crate::dominance::{relation_from_flags, strict_better_flags, DominanceRelation};
use crate::individual::Individual;

/// `dom[i·n + j]`: member `i` dominates member `j`.
const DOMINATES: i8 = 1;
/// `dom[i·n + j]`: member `j` dominates member `i`.
const DOMINATED_BY: i8 = -1;
/// `dom[i·n + j]`: neither dominates the other.
const NO_DOMINANCE: i8 = 0;

/// Flat pairwise dominance/distance tables over one combined population.
/// See the module docs; [`Spea2`](crate::Spea2) and [`Nsga2`](crate::Nsga2)
/// hold one per run.
#[derive(Debug, Default)]
pub struct FitnessKernel {
    /// Flat n×n antisymmetric dominance table (`dom[i·n+j] = −dom[j·n+i]`,
    /// zero diagonal).
    dom: Vec<i8>,
    /// Flat n×n symmetric distance table; the diagonal holds `+∞` so a row
    /// min is directly the nearest-neighbour distance.
    dist: Vec<f64>,
    /// Member `i`'s objective vector is `obj[i·dim .. (i+1)·dim]`, so the
    /// pair pass reads straight-line memory instead of chasing one heap
    /// `Vec` per individual.
    obj: Vec<f64>,
    strength: Vec<usize>,
    /// One raw fitness per member of the last call, so its length is the
    /// tables' side.
    raw: Vec<f64>,
    scratch: Vec<f64>,
    pairs_computed: u64,
}

/// Encodes a comparison outcome into a `dom` entry.
#[inline]
fn encode(relation: DominanceRelation) -> i8 {
    match relation {
        DominanceRelation::Dominates => DOMINATES,
        DominanceRelation::DominatedBy => DOMINATED_BY,
        DominanceRelation::NonDominated => NO_DOMINANCE,
    }
}

impl FitnessKernel {
    /// Unordered pairs compared over the kernel's lifetime.
    pub fn pairs_computed(&self) -> u64 {
        self.pairs_computed
    }

    /// Distance between members `i` and `j` of the slice passed to the
    /// last [`FitnessKernel::assign_fitness`] call.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i != j, "no self-distance");
        self.dist[i * self.raw.len() + j]
    }

    /// SPEA2 fitness assignment (raw fitness + density) over `combined`.
    /// Bitwise identical to [`assign_fitness`](crate::spea2::assign_fitness).
    pub fn assign_fitness<G>(&mut self, combined: &mut [Individual<G>], density_k: usize) {
        let n = combined.len();
        let dim = combined.first().map_or(0, |m| m.objectives.len());
        self.pairs_computed += (n * n.saturating_sub(1) / 2) as u64;
        let Self {
            dom,
            dist,
            obj,
            strength,
            raw,
            scratch,
            ..
        } = self;
        obj.clear();
        for m in combined.iter() {
            debug_assert_eq!(m.objectives.len(), dim, "mixed objective dims");
            obj.extend_from_slice(m.objectives.values());
        }
        dom.clear();
        dom.resize(n * n, NO_DOMINANCE);
        dist.clear();
        dist.resize(n * n, f64::INFINITY);
        strength.clear();
        strength.resize(n, 0);
        raw.clear();
        raw.resize(n, 0.0);

        // One pass over the unordered pairs: each relation and distance is
        // computed once and written to both orientations, and the strength
        // S(i) (how many members i dominates) is counted on the way.
        for a in 0..n {
            let ra = &obj[a * dim..(a + 1) * dim];
            for b in a + 1..n {
                let rb = &obj[b * dim..(b + 1) * dim];
                let rel = encode(relation_from_flags(strict_better_flags(ra, rb)));
                let d = euclidean(ra, rb);
                dom[a * n + b] = rel;
                dom[b * n + a] = -rel;
                dist[a * n + b] = d;
                dist[b * n + a] = d;
                match rel {
                    DOMINATES => strength[a] += 1,
                    DOMINATED_BY => strength[b] += 1,
                    _ => {}
                }
            }
        }
        // Raw fitness R(i): sum of the strengths of i's dominators. The
        // strengths are integers, so the f64 sum is exact and
        // order-independent — bitwise equal to the from-scratch loop.
        for i in 0..n {
            let row = &dom[i * n..(i + 1) * n];
            for (j, &rel) in row.iter().enumerate().skip(i + 1) {
                match rel {
                    DOMINATES => raw[j] += strength[i] as f64,
                    DOMINATED_BY => raw[i] += strength[j] as f64,
                    _ => {}
                }
            }
        }

        // Density d(i) = 1/(σ_i^k + 2) straight off the distance rows. The
        // diagonal is +∞, so k = 1 (the paper's default) is a plain row
        // min; larger k partially selects in a reusable scratch row —
        // never a full sort.
        for (i, individual) in combined.iter_mut().enumerate() {
            let row = &dist[i * n..(i + 1) * n];
            let sigma = if n == 1 {
                f64::INFINITY
            } else if density_k <= 1 {
                let mut best = f64::INFINITY;
                for &d in row {
                    if d < best {
                        best = d;
                    }
                }
                best
            } else {
                scratch.clear();
                scratch.extend_from_slice(row);
                // The diagonal ∞ sorts last among the n entries, so
                // clamping the order statistic to n−2 reproduces "the
                // farthest *other* point" for out-of-range k.
                let idx = (density_k - 1).min(n - 2);
                *scratch
                    .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite distances"))
                    .1
            };
            let density = if sigma.is_infinite() {
                0.0
            } else {
                1.0 / (sigma + 2.0)
            };
            individual.fitness = Some(raw[i] + density);
        }
    }
}

/// Euclidean distance between two objective rows, with the exact
/// summation order of [`Objectives::distance`] (ascending dimension, then
/// sqrt) so the tables stay bitwise equal to the from-scratch path.
///
/// [`Objectives::distance`]: crate::objectives::Objectives::distance
#[inline]
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::Objectives;
    use crate::spea2::assign_fitness;

    fn ind(a: f64, b: f64) -> Individual<u32> {
        Individual::new(0u32, Objectives::pair(a, b))
    }

    fn fitness_bits<G>(members: &[Individual<G>]) -> Vec<u64> {
        members
            .iter()
            .map(|m| m.fitness.expect("assigned").to_bits())
            .collect()
    }

    #[test]
    fn first_assignment_matches_scratch_and_counts_all_pairs() {
        let mut members = vec![ind(1.0, 5.0), ind(2.0, 3.0), ind(3.0, 4.0), ind(0.5, 6.0)];
        let mut reference = members.clone();
        assign_fitness(&mut reference, 1);

        let mut kernel = FitnessKernel::default();
        kernel.assign_fitness(&mut members, 1);
        assert_eq!(fitness_bits(&members), fitness_bits(&reference));
        assert_eq!(kernel.pairs_computed(), 6);
        assert_eq!(kernel.distance(0, 1), 5.0f64.sqrt());
        assert_eq!(kernel.distance(1, 0), 5.0f64.sqrt());
    }

    #[test]
    fn fill_is_bitwise_equal_to_scratch_with_survivors() {
        let point = |seed: u64| {
            let a = (seed.wrapping_mul(2654435761) % 1000) as f64 / 100.0;
            let b = (seed.wrapping_mul(40503) % 1000) as f64 / 100.0;
            ind(a, b)
        };
        // (initial members, fresh members per generation). Half the
        // members survive each generation, so the last three keep their
        // size at 50, 100 and 200, with survivors and fresh points mixed.
        for (initial, fresh) in [(40u64, 12u64), (50, 25), (100, 50), (200, 100)] {
            let mut kernel = FitnessKernel::default();
            let mut members: Vec<Individual<u32>> = (0..initial).map(point).collect();

            for step in 0..4 {
                let mut reference = members.clone();
                kernel.assign_fitness(&mut members, 2);
                assign_fitness(&mut reference, 2);
                assert_eq!(fitness_bits(&members), fitness_bits(&reference));
                // Keep the odd positions, add fresh points.
                members = members.into_iter().skip(1).step_by(2).collect();
                members.extend((0..fresh).map(|s| point(1000 + step * 100 + s)));
            }
        }
    }

    #[test]
    fn empty_and_singleton_memberships() {
        let mut kernel = FitnessKernel::default();
        let mut empty: Vec<Individual<u32>> = Vec::new();
        kernel.assign_fitness(&mut empty, 1);
        assert_eq!(kernel.pairs_computed(), 0);

        let mut single = vec![ind(1.0, 1.0)];
        kernel.assign_fitness(&mut single, 1);
        // A singleton has no neighbours: raw fitness 0, density 0.
        assert_eq!(single[0].fitness, Some(0.0));
    }
}
