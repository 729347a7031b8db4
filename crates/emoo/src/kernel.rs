//! The incremental fitness kernel: generation-persistent pairwise state.
//!
//! SPEA2 fitness assignment (strength → raw fitness → density, paper
//! Section V) and NSGA-II non-dominated sorting are both functions of the
//! pairwise dominance relations — and, for SPEA2, the pairwise objective
//! distances — over the combined population. Recomputing all of them every
//! generation costs O(n²) comparisons even though most of the combined set
//! (the surviving archive) is unchanged between generations.
//!
//! [`FitnessKernel`] owns that pairwise state across generations: a flat
//! antisymmetric dominance matrix and a flat symmetric distance matrix,
//! keyed by *stable individual ids*. When the membership changes by `m`
//! new individuals out of `n` total, only the pairs involving a new
//! individual are computed — roughly `m·n` comparisons instead of
//! `n·(n−1)/2` — while the surviving block is copied row-wise (branchless,
//! cache-friendly) from the previous matrices. Results are bitwise
//! identical to the from-scratch path
//! ([`assign_fitness`](crate::spea2::assign_fitness),
//! [`non_dominated_sort`](crate::nsga2::non_dominated_sort)); the crate's
//! property tests assert this over random insertion/removal sequences.
//!
//! ## Invariants
//!
//! * **Id stability** — an id names one genome with one fixed objective
//!   vector, forever. Engines allocate ids through
//!   [`FitnessKernel::alloc_ids`] when offspring are evaluated and never
//!   reuse them. Passing the same id with different objectives silently
//!   corrupts the cache.
//! * **Membership replacement** — each [`FitnessKernel::assign_fitness`] /
//!   [`FitnessKernel::ranks`] call replaces the tracked membership with the
//!   set it was handed; reuse happens against the *immediately previous*
//!   call. Engines alternate between subsets and supersets of one
//!   generation's individuals (population ⊂ union, archive ⊂ combined), so
//!   the running intersection stays large.
//! * **Distance invalidation** — [`FitnessKernel::ranks`] does not need
//!   distances and skips filling them, which invalidates the distance
//!   matrix; the next [`FitnessKernel::assign_fitness`] recomputes all
//!   distances (dominance entries are still reused).
//!
//! Fills are serial: a run is one thread, and runs go parallel with each
//! other (the serving layer's worker pool), never inside.

use crate::dominance::{relation_from_flags, strict_better_flags, DominanceRelation};
use crate::individual::Individual;
use std::collections::HashMap;

/// `dom[i·n + j]`: member `i` dominates member `j`.
const DOMINATES: i8 = 1;
/// `dom[i·n + j]`: member `j` dominates member `i`.
const DOMINATED_BY: i8 = -1;
/// `dom[i·n + j]`: neither dominates the other.
const NO_DOMINANCE: i8 = 0;

/// Cumulative counters of the kernel's work, exposed through
/// [`EngineOutcome`](crate::EngineOutcome) and `core::RunStatistics` so
/// serving-layer refresh telemetry can report cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Unordered pairs whose dominance relation (and distance, when the
    /// caller needed distances) was copied from the previous generation.
    pub pairs_reused: u64,
    /// Unordered pairs that required a fresh comparison (and, for fitness
    /// assignment, a fresh distance).
    pub pairs_computed: u64,
    /// Number of membership updates performed (fitness assignments plus
    /// rank computations).
    pub updates: u64,
}

/// Generation-persistent pairwise dominance/distance state. See the module
/// docs for the contract; see [`Spea2`](crate::Spea2) and
/// [`Nsga2`](crate::Nsga2) for the engine integration.
#[derive(Debug)]
pub struct FitnessKernel {
    next_id: u64,
    ids: Vec<u64>,
    /// Flat n×n antisymmetric dominance matrix (`dom[i·n+j] = −dom[j·n+i]`,
    /// zero diagonal).
    dom: Vec<i8>,
    /// Flat n×n symmetric distance matrix; the diagonal holds `+∞` so a
    /// row min is directly the nearest-neighbour distance.
    dist: Vec<f64>,
    dist_valid: bool,
    /// Retired matrices, kept as scratch so steady-state updates allocate
    /// nothing.
    spare_dom: Vec<i8>,
    spare_dist: Vec<f64>,
    prev_index: HashMap<u64, usize>,
    strength_buf: Vec<usize>,
    raw_buf: Vec<f64>,
    scratch: Vec<f64>,
    /// Flattened objective store: member `i`'s objective vector is the
    /// contiguous slice `obj_flat[i·obj_dim .. (i+1)·obj_dim]`. Rebuilt per
    /// update (O(n·m)) so the O(m·n) fresh-pair fills read straight-line
    /// memory instead of chasing one heap `Vec` per individual.
    obj_flat: Vec<f64>,
    obj_dim: usize,
    stats: KernelStats,
}

impl Default for FitnessKernel {
    fn default() -> Self {
        Self::new()
    }
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
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Self {
            next_id: 0,
            ids: Vec::new(),
            dom: Vec::new(),
            dist: Vec::new(),
            dist_valid: false,
            spare_dom: Vec::new(),
            spare_dist: Vec::new(),
            prev_index: HashMap::new(),
            strength_buf: Vec::new(),
            raw_buf: Vec::new(),
            scratch: Vec::new(),
            obj_flat: Vec::new(),
            obj_dim: 0,
            stats: KernelStats::default(),
        }
    }

    /// Allocates one fresh individual id.
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Allocates `count` fresh individual ids.
    pub fn alloc_ids(&mut self, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.alloc_id()).collect()
    }

    /// The cumulative work counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Number of members in the currently tracked set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the kernel currently tracks no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Distance between members `i` and `j` of the *current* membership
    /// (positions in the slice passed to the last
    /// [`FitnessKernel::assign_fitness`] call). Only valid while the
    /// distance matrix is — i.e. after a fitness assignment, before any
    /// [`FitnessKernel::ranks`] call.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        debug_assert!(self.dist_valid, "distance matrix is not filled");
        debug_assert!(i != j, "no self-distance");
        self.dist[i * self.ids.len() + j]
    }

    /// SPEA2 fitness assignment (raw fitness + density) over `combined`,
    /// reusing every pairwise relation whose two ids were both present in
    /// the previous update. Bitwise identical to
    /// [`assign_fitness`](crate::spea2::assign_fitness).
    pub fn assign_fitness<G>(
        &mut self,
        combined: &mut [Individual<G>],
        ids: &[u64],
        density_k: usize,
    ) {
        self.update_pairs(combined, ids, true);
        let n = combined.len();
        if n == 0 {
            return;
        }

        // Strength S(i): how many members i dominates; one pass over the
        // upper half of the dominance matrix.
        let mut strength = std::mem::take(&mut self.strength_buf);
        strength.clear();
        strength.resize(n, 0);
        let mut raw = std::mem::take(&mut self.raw_buf);
        raw.clear();
        raw.resize(n, 0.0);
        for i in 0..n {
            let row = &self.dom[i * n..(i + 1) * n];
            for (j, &rel) in row.iter().enumerate().skip(i + 1) {
                match rel {
                    DOMINATES => strength[i] += 1,
                    DOMINATED_BY => strength[j] += 1,
                    _ => {}
                }
            }
        }
        // Raw fitness R(i): sum of the strengths of i's dominators. The
        // strengths are integers, so the f64 sum is exact and
        // order-independent — bitwise equal to the from-scratch loop.
        for i in 0..n {
            let row = &self.dom[i * n..(i + 1) * n];
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
        let mut scratch = std::mem::take(&mut self.scratch);
        for (i, individual) in combined.iter_mut().enumerate() {
            let row = &self.dist[i * n..(i + 1) * n];
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
        self.scratch = scratch;
        self.strength_buf = strength;
        self.raw_buf = raw;
    }

    /// NSGA-II non-dominated-sort ranks over `members`, reusing cached
    /// dominance relations. Does not touch distances (and invalidates the
    /// distance matrix). Identical output to
    /// [`non_dominated_sort`](crate::nsga2::non_dominated_sort).
    pub fn ranks<G>(&mut self, members: &[Individual<G>], ids: &[u64]) -> Vec<usize> {
        self.update_pairs(members, ids, false);
        let n = members.len();
        let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut domination_count = vec![0usize; n];
        for i in 0..n {
            let row = &self.dom[i * n..(i + 1) * n];
            for (j, &rel) in row.iter().enumerate().skip(i + 1) {
                match rel {
                    DOMINATES => {
                        dominates_list[i].push(j);
                        domination_count[j] += 1;
                    }
                    DOMINATED_BY => {
                        dominates_list[j].push(i);
                        domination_count[i] += 1;
                    }
                    _ => {}
                }
            }
        }
        let mut rank = vec![0usize; n];
        let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
        let mut front_index = 0usize;
        while !current.is_empty() {
            let mut next = Vec::new();
            for &i in &current {
                rank[i] = front_index;
                for &j in &dominates_list[i] {
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

    /// Replaces the tracked membership: the surviving block is copied
    /// row-wise from the previous matrices, fresh pairs are computed.
    fn update_pairs<G>(&mut self, members: &[Individual<G>], ids: &[u64], need_dist: bool) {
        let n = members.len();
        assert_eq!(ids.len(), n, "one id per member");
        debug_assert_eq!(
            ids.iter().collect::<std::collections::HashSet<_>>().len(),
            n,
            "ids must be unique"
        );

        let old_n = self.ids.len();
        self.prev_index.clear();
        for (position, &id) in self.ids.iter().enumerate() {
            self.prev_index.insert(id, position);
        }
        // Current index → previous index for survivors; fresh members on
        // the other list.
        let mut survivors: Vec<(usize, usize)> = Vec::new();
        let mut fresh_members: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            match self.prev_index.get(id) {
                Some(&pi) => survivors.push((i, pi)),
                None => fresh_members.push(i),
            }
        }
        let s = survivors.len();
        let pairs = n * n.saturating_sub(1) / 2;
        let dist_reusable = self.dist_valid;
        // A surviving pair is fully reusable unless the caller needs
        // distances and the distance matrix is stale.
        let reused = if !need_dist || dist_reusable {
            (s * s.saturating_sub(1) / 2) as u64
        } else {
            0
        };
        let fresh_pairs = pairs as u64 - reused;

        // Retire the current matrices and fill fresh ones into the spare
        // buffers, so steady-state generations allocate nothing.
        let old_dom = std::mem::replace(&mut self.dom, std::mem::take(&mut self.spare_dom));
        let old_dist = std::mem::replace(&mut self.dist, std::mem::take(&mut self.spare_dist));
        let mut dom = std::mem::take(&mut self.dom);
        let mut dist = std::mem::take(&mut self.dist);
        dom.clear();
        dom.resize(n * n, NO_DOMINANCE);
        dist.clear();
        if need_dist {
            dist.resize(n * n, 0.0);
            for i in 0..n {
                dist[i * n + i] = f64::INFINITY;
            }
        }

        // Refresh the flattened objective store (SoA view of the member
        // set): one contiguous buffer the pair fills below index into.
        self.obj_dim = members.first().map_or(0, |m| m.objectives.len());
        self.obj_flat.clear();
        self.obj_flat.reserve(n * self.obj_dim);
        for m in members {
            debug_assert_eq!(m.objectives.len(), self.obj_dim, "mixed objective dims");
            self.obj_flat.extend_from_slice(m.objectives.values());
        }
        let obj = &self.obj_flat;
        let dim = self.obj_dim;

        // 1. Branchless copy of the surviving block, row by row.
        for &(i, pi) in &survivors {
            let old_dom_row = &old_dom[pi * old_n..(pi + 1) * old_n];
            let dom_row = &mut dom[i * n..(i + 1) * n];
            for &(j, pj) in &survivors {
                dom_row[j] = old_dom_row[pj];
            }
            if need_dist && dist_reusable {
                let old_dist_row = &old_dist[pi * old_n..(pi + 1) * old_n];
                let dist_row = &mut dist[i * n..(i + 1) * n];
                for &(j, pj) in &survivors {
                    dist_row[j] = old_dist_row[pj];
                }
            }
        }
        // Surviving pairs whose distances went stale (a rank pass skipped
        // them): dominance was copied above, distances are recomputed.
        if need_dist && !dist_reusable {
            for (a, &(i, _)) in survivors.iter().enumerate() {
                for &(j, _) in &survivors[a + 1..] {
                    let d = euclidean(obj, dim, i, j);
                    dist[i * n + j] = d;
                    dist[j * n + i] = d;
                }
            }
        }

        // 2. Fresh pairs: every pair touching a fresh member, computed
        // once (fresh-vs-survivor unconditionally, fresh-vs-fresh for the
        // lower current index) and written to both orientations.
        let mut write = |a: usize, b: usize| {
            let (rel, d) = pair_entry(obj, dim, a, b, need_dist);
            dom[a * n + b] = rel;
            dom[b * n + a] = -rel;
            if need_dist {
                dist[a * n + b] = d;
                dist[b * n + a] = d;
            }
        };
        for &b in &fresh_members {
            for &(a, _) in &survivors {
                write(a, b);
            }
            for &a in &fresh_members {
                if a < b {
                    write(a, b);
                }
            }
        }

        self.dom = dom;
        self.dist = dist;
        self.spare_dom = old_dom;
        self.spare_dist = old_dist;
        self.dist_valid = need_dist;
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.stats.pairs_reused += reused;
        self.stats.pairs_computed += fresh_pairs;
        self.stats.updates += 1;
    }
}

/// Euclidean distance between the flattened objective rows `a` and `b`,
/// with the exact summation order of [`Objectives::distance`]
/// (ascending dimension, then sqrt) so the fill stays bitwise equal to the
/// from-scratch path.
///
/// [`Objectives::distance`]: crate::objectives::Objectives::distance
#[inline]
fn euclidean(obj: &[f64], dim: usize, a: usize, b: usize) -> f64 {
    let ra = &obj[a * dim..(a + 1) * dim];
    let rb = &obj[b * dim..(b + 1) * dim];
    ra.iter()
        .zip(rb.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Computes one fresh pair `(a, b)` off the flattened objective store: the
/// dominance relation seen from `a` (via the branch-free flag accumulation
/// in [`crate::dominance`]) and the distance when requested.
#[inline]
fn pair_entry(obj: &[f64], dim: usize, a: usize, b: usize, need_dist: bool) -> (i8, f64) {
    let ra = &obj[a * dim..(a + 1) * dim];
    let rb = &obj[b * dim..(b + 1) * dim];
    let rel = encode(relation_from_flags(strict_better_flags(ra, rb)));
    let d = if need_dist {
        euclidean(obj, dim, a, b)
    } else {
        0.0
    };
    (rel, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsga2::non_dominated_sort;
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

        let mut kernel = FitnessKernel::new();
        let ids = kernel.alloc_ids(members.len());
        kernel.assign_fitness(&mut members, &ids, 1);
        assert_eq!(fitness_bits(&members), fitness_bits(&reference));
        assert_eq!(kernel.stats().pairs_computed, 6);
        assert_eq!(kernel.stats().pairs_reused, 0);
    }

    #[test]
    fn surviving_pairs_are_reused_and_stay_bitwise_equal() {
        let mut kernel = FitnessKernel::new();
        let mut members = vec![ind(1.0, 5.0), ind(2.0, 3.0), ind(4.0, 1.0), ind(3.0, 3.5)];
        let mut ids = kernel.alloc_ids(members.len());
        kernel.assign_fitness(&mut members, &ids, 1);

        // Drop one member, add two new ones.
        members.remove(1);
        ids.remove(1);
        members.push(ind(0.2, 7.0));
        members.push(ind(5.0, 0.5));
        ids.extend(kernel.alloc_ids(2));

        let before = kernel.stats();
        kernel.assign_fitness(&mut members, &ids, 1);
        let after = kernel.stats();
        // 3 survivors → C(3,2) = 3 reused pairs; C(5,2) − 3 = 7 fresh.
        assert_eq!(after.pairs_reused - before.pairs_reused, 3);
        assert_eq!(after.pairs_computed - before.pairs_computed, 7);

        let mut reference = members.clone();
        assign_fitness(&mut reference, 1);
        assert_eq!(fitness_bits(&members), fitness_bits(&reference));
    }

    #[test]
    fn reordered_survivors_reuse_with_the_right_orientation() {
        let mut kernel = FitnessKernel::new();
        let mut members = vec![ind(1.0, 5.0), ind(2.0, 3.0), ind(4.0, 1.0)];
        let ids = kernel.alloc_ids(3);
        kernel.assign_fitness(&mut members, &ids, 1);

        // Same set, reversed order: everything reused, nothing computed.
        members.reverse();
        let reversed_ids: Vec<u64> = ids.iter().rev().copied().collect();
        let before = kernel.stats();
        kernel.assign_fitness(&mut members, &reversed_ids, 1);
        let after = kernel.stats();
        assert_eq!(after.pairs_reused - before.pairs_reused, 3);
        assert_eq!(after.pairs_computed - before.pairs_computed, 0);

        let mut reference = members.clone();
        assign_fitness(&mut reference, 1);
        assert_eq!(fitness_bits(&members), fitness_bits(&reference));
    }

    #[test]
    fn ranks_match_non_dominated_sort_and_invalidate_distances() {
        let mut kernel = FitnessKernel::new();
        let mut members = vec![ind(1.0, 1.0), ind(2.0, 2.0), ind(3.0, 3.0), ind(0.5, 3.5)];
        let ids = kernel.alloc_ids(members.len());
        kernel.assign_fitness(&mut members, &ids, 1);
        assert!((kernel.distance(0, 1) - 2.0f64.sqrt()).abs() < 1e-12);
        assert!((kernel.distance(1, 0) - 2.0f64.sqrt()).abs() < 1e-12);

        let ranks = kernel.ranks(&members, &ids);
        let points: Vec<Objectives> = members.iter().map(|m| m.objectives.clone()).collect();
        assert_eq!(ranks, non_dominated_sort(&points));

        // Distances were invalidated by the rank pass: the next fitness
        // assignment recomputes them (pairs count as fresh) yet still
        // matches the from-scratch values.
        let before = kernel.stats();
        kernel.assign_fitness(&mut members, &ids, 1);
        let after = kernel.stats();
        assert_eq!(after.pairs_reused - before.pairs_reused, 0);
        assert_eq!(after.pairs_computed - before.pairs_computed, 6);
        let mut reference = members.clone();
        assign_fitness(&mut reference, 1);
        assert_eq!(fitness_bits(&members), fitness_bits(&reference));
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
        // size at 50, 100 and 200, with survivors and fresh pairs mixed.
        for (initial, fresh) in [(40u64, 12u64), (50, 25), (100, 50), (200, 100)] {
            let mut kernel = FitnessKernel::new();
            let mut members: Vec<Individual<u32>> = (0..initial).map(point).collect();
            let mut ids: Vec<u64> = (0..initial).collect();

            for step in 0..4 {
                let mut reference = members.clone();
                kernel.assign_fitness(&mut members, &ids, 2);
                assign_fitness(&mut reference, 2);
                assert_eq!(fitness_bits(&members), fitness_bits(&reference));
                // Keep the odd positions, add fresh points.
                let survivors: Vec<usize> = (0..members.len()).filter(|i| i % 2 == 1).collect();
                members = survivors.iter().map(|&i| members[i].clone()).collect();
                ids = survivors.iter().map(|&i| ids[i]).collect();
                for s in 0..fresh {
                    members.push(point(1000 + step * 100 + s));
                    ids.push(initial + step * fresh + s);
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_memberships() {
        let mut kernel = FitnessKernel::new();
        let mut empty: Vec<Individual<u32>> = Vec::new();
        kernel.assign_fitness(&mut empty, &[], 1);
        assert!(kernel.is_empty());

        let mut single = vec![ind(1.0, 1.0)];
        let ids = kernel.alloc_ids(1);
        kernel.assign_fitness(&mut single, &ids, 1);
        // A singleton has no neighbours: raw fitness 0, density 0.
        assert_eq!(single[0].fitness, Some(0.0));
    }
}
