//! Pareto dominance and non-dominated set extraction.
//!
//! Definition 5.1 of the paper: a solution dominates another when it is no
//! worse on every objective and strictly better on at least one. All
//! objectives here are minimized.

use crate::objectives::Objectives;
use serde::{Deserialize, Serialize};

/// The outcome of comparing two objective vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DominanceRelation {
    /// The left solution dominates the right one.
    Dominates,
    /// The right solution dominates the left one.
    DominatedBy,
    /// Neither dominates the other (incomparable or equal).
    NonDominated,
}

/// Branch-free accumulation of the strictly-better flags over two raw
/// objective slices: `(a strictly better somewhere, b strictly better
/// somewhere)`.
///
/// The loop ORs the comparison masks instead of branching per dimension —
/// there is no early exit, so the compiler can unroll and vectorize it,
/// and the fitness kernel's pair pass, which funnels through here, stays
/// branch-free.
/// NaN compares false on both sides, which leaves both flags unset — the
/// same "incomparable" outcome the branchy seed loop produced.
#[inline]
pub(crate) fn strict_better_flags(a: &[f64], b: &[f64]) -> (bool, bool) {
    debug_assert_eq!(a.len(), b.len(), "objective dimension mismatch");
    let mut a_better = 0u8;
    let mut b_better = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        a_better |= u8::from(x < y);
        b_better |= u8::from(y < x);
    }
    (a_better != 0, b_better != 0)
}

/// Maps the strictly-better flag pair to the dominance relation.
#[inline]
pub(crate) fn relation_from_flags(flags: (bool, bool)) -> DominanceRelation {
    match flags {
        (true, false) => DominanceRelation::Dominates,
        (false, true) => DominanceRelation::DominatedBy,
        _ => DominanceRelation::NonDominated,
    }
}

/// Compares two objective vectors under minimization.
pub fn compare(a: &Objectives, b: &Objectives) -> DominanceRelation {
    relation_from_flags(strict_better_flags(a.values(), b.values()))
}

/// True when `a` dominates `b`.
pub fn dominates(a: &Objectives, b: &Objectives) -> bool {
    compare(a, b) == DominanceRelation::Dominates
}

/// Visits every dominating ordered pair of `points` exactly once, as
/// `visit(winner, loser)`.
///
/// This is the single pairwise call site behind [`non_dominated_indices`]
/// and [`raw_fitness`]: one branch-free [`compare`]
/// per unordered pair (half the compares of the textbook `i != j` double
/// loops it replaced), dispatching both orientations through the callback.
pub fn for_each_dominating_pair(points: &[Objectives], mut visit: impl FnMut(usize, usize)) {
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            match compare(&points[i], &points[j]) {
                DominanceRelation::Dominates => visit(i, j),
                DominanceRelation::DominatedBy => visit(j, i),
                DominanceRelation::NonDominated => {}
            }
        }
    }
}

/// Returns the indices of the non-dominated members of `points`
/// (the Pareto front of the set). Duplicate objective vectors are all kept.
pub fn non_dominated_indices(points: &[Objectives]) -> Vec<usize> {
    let mut dominated = vec![false; points.len()];
    for_each_dominating_pair(points, |_, loser| dominated[loser] = true);
    dominated
        .into_iter()
        .enumerate()
        .filter_map(|(i, d)| (!d).then_some(i))
        .collect()
}

/// Extracts the non-dominated objective vectors themselves.
pub fn pareto_front(points: &[Objectives]) -> Vec<Objectives> {
    non_dominated_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// SPEA2 raw fitness `R(i)`: the sum of the strengths of every point that
/// dominates point `i`. Non-dominated points have raw fitness 0.
///
/// One pairwise pass records the dominating pairs; the strengths and the
/// strength sums are then both read off that record, instead of running the
/// O(n²) comparisons twice. The summation order per point is unchanged
/// (ascending winner index), so the result is bitwise equal to the seed's
/// double loop.
pub fn raw_fitness(points: &[Objectives]) -> Vec<f64> {
    let n = points.len();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut strength = vec![0usize; n];
    for_each_dominating_pair(points, |winner, loser| {
        strength[winner] += 1;
        pairs.push((winner, loser));
    });
    // `raw[i]` must accumulate the strengths of its dominators in ascending
    // winner order (the seed loop's `j` order); pairs arrive ordered by the
    // unordered-pair sweep, so sort by (loser, winner) before summing.
    pairs.sort_unstable_by_key(|&(winner, loser)| (loser, winner));
    let mut raw = vec![0.0; n];
    for (winner, loser) in pairs {
        raw[loser] += strength[winner] as f64;
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(a: f64, b: f64) -> Objectives {
        Objectives::pair(a, b)
    }

    #[test]
    fn basic_relations() {
        assert_eq!(
            compare(&o(1.0, 1.0), &o(2.0, 2.0)),
            DominanceRelation::Dominates
        );
        assert_eq!(
            compare(&o(2.0, 2.0), &o(1.0, 1.0)),
            DominanceRelation::DominatedBy
        );
        assert_eq!(
            compare(&o(1.0, 2.0), &o(2.0, 1.0)),
            DominanceRelation::NonDominated
        );
        assert_eq!(
            compare(&o(1.0, 1.0), &o(1.0, 1.0)),
            DominanceRelation::NonDominated
        );
        // Weak domination on one coordinate, strict on the other.
        assert_eq!(
            compare(&o(1.0, 1.0), &o(1.0, 2.0)),
            DominanceRelation::Dominates
        );
        assert!(dominates(&o(0.5, 0.5), &o(0.5, 0.6)));
        assert!(!dominates(&o(0.5, 0.5), &o(0.5, 0.5)));
    }

    #[test]
    fn dominance_is_a_strict_partial_order() {
        let pts = [
            o(1.0, 3.0),
            o(2.0, 2.0),
            o(3.0, 1.0),
            o(2.5, 2.5),
            o(1.5, 2.8),
        ];
        // Irreflexive.
        for p in &pts {
            assert!(!dominates(p, p));
        }
        // Antisymmetric.
        for a in &pts {
            for b in &pts {
                if dominates(a, b) {
                    assert!(!dominates(b, a));
                }
            }
        }
        // Transitive.
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    if dominates(a, b) && dominates(b, c) {
                        assert!(dominates(a, c));
                    }
                }
            }
        }
    }

    #[test]
    fn pareto_front_extraction() {
        let pts = vec![
            o(1.0, 5.0), // front
            o(2.0, 3.0), // front
            o(4.0, 1.0), // front
            o(3.0, 3.5), // dominated by (2, 3)
            o(5.0, 5.0), // dominated by many
        ];
        let idx = non_dominated_indices(&pts);
        assert_eq!(idx, vec![0, 1, 2]);
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 3);
        // Every member of the front is non-dominated within the front.
        for a in &front {
            assert!(!front.iter().any(|b| dominates(b, a)));
        }
    }

    #[test]
    fn identical_points_are_all_kept() {
        let pts = vec![o(1.0, 1.0), o(1.0, 1.0), o(2.0, 0.5)];
        let idx = non_dominated_indices(&pts);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(non_dominated_indices(&[]).is_empty());
        let single = vec![o(1.0, 1.0)];
        assert_eq!(non_dominated_indices(&single), vec![0]);
        assert_eq!(raw_fitness(&[]).len(), 0);
    }

    #[test]
    fn strength_and_raw_fitness_match_spea2_definitions() {
        // Point layout: a dominates c and d; b dominates c (equal first
        // objective, better second) and d; c dominates d; d dominates nothing.
        let pts = vec![
            o(1.0, 1.0), // a
            o(2.0, 0.5), // b (non-dominated against a)
            o(2.0, 2.0), // c (dominated by a and b)
            o(3.0, 3.0), // d (dominated by a, b, c)
        ];
        // Strengths: a 2, b 2, c 1, d 0.
        let r = raw_fitness(&pts);
        assert_eq!(r[0], 0.0);
        assert_eq!(r[1], 0.0);
        assert_eq!(r[2], 4.0); // dominated by a (strength 2) + b (strength 2)
        assert_eq!(r[3], 5.0); // dominated by a (2) + b (2) + c (1)
    }

    #[test]
    fn non_dominated_points_have_zero_raw_fitness() {
        let pts: Vec<Objectives> = (0..10).map(|i| o(i as f64, 10.0 - i as f64)).collect();
        // All points lie on an anti-diagonal: mutually non-dominated.
        let r = raw_fitness(&pts);
        assert!(r.iter().all(|&x| x == 0.0));
        assert_eq!(non_dominated_indices(&pts).len(), 10);
    }
}
