//! Mating selection (binary tournament) and environmental selection
//! (archive update with truncation), following SPEA2 as described in
//! Section V.C / V.D of the paper.

use crate::individual::Individual;
use rand::Rng;

/// Binary tournament selection: picks two members uniformly at random and
/// returns the index of the one with the better (lower) fitness. Ties go to
/// the first pick.
pub fn binary_tournament<G, R: Rng + ?Sized>(pool: &[Individual<G>], rng: &mut R) -> usize {
    assert!(!pool.is_empty(), "cannot select from an empty pool");
    let a = rng.gen_range(0..pool.len());
    let b = rng.gen_range(0..pool.len());
    if pool[a].fitness_or_worst() <= pool[b].fitness_or_worst() {
        a
    } else {
        b
    }
}

/// Fills a mating pool of `pool_size` indices by repeated binary
/// tournaments over `candidates`.
pub fn fill_mating_pool<G, R: Rng + ?Sized>(
    candidates: &[Individual<G>],
    pool_size: usize,
    rng: &mut R,
) -> Vec<usize> {
    (0..pool_size)
        .map(|_| binary_tournament(candidates, rng))
        .collect()
}

/// SPEA2 environmental selection over an already fitness-assigned combined
/// population, computing objective distances on the fly. Engines that have
/// a [`FitnessKernel`](crate::FitnessKernel) holding the distance table
/// for `combined` should call [`environmental_selection_with`] with
/// [`FitnessKernel::distance`](crate::FitnessKernel::distance) instead, so
/// truncation reads the distances the fitness pass already computed.
pub fn environmental_selection<G>(combined: &[Individual<G>], archive_size: usize) -> Vec<usize> {
    environmental_selection_with(combined, archive_size, |a, b| {
        combined[a].objectives.distance(&combined[b].objectives)
    })
}

/// SPEA2 environmental selection with a caller-supplied distance source
/// (`distance(a, b)` over indices into `combined`). Returns the indices
/// selected for the next archive:
///
/// 1. all non-dominated members (fitness < 1);
/// 2. if fewer than `archive_size`, topped up with the best dominated
///    members by fitness;
/// 3. if more than `archive_size`, iteratively truncated by removing the
///    member with the smallest distance to its nearest neighbour
///    (ties broken by the next-nearest distances).
pub fn environmental_selection_with<G>(
    combined: &[Individual<G>],
    archive_size: usize,
    distance: impl Fn(usize, usize) -> f64,
) -> Vec<usize> {
    assert!(archive_size > 0, "archive size must be positive");
    let mut selected: Vec<usize> = combined
        .iter()
        .enumerate()
        .filter(|(_, ind)| ind.is_nondominated())
        .map(|(i, _)| i)
        .collect();

    if selected.len() < archive_size {
        // Top up with the best dominated individuals.
        let mut dominated: Vec<usize> = combined
            .iter()
            .enumerate()
            .filter(|(_, ind)| !ind.is_nondominated())
            .map(|(i, _)| i)
            .collect();
        dominated.sort_by(|&a, &b| {
            combined[a]
                .fitness_or_worst()
                .partial_cmp(&combined[b].fitness_or_worst())
                .expect("finite fitness")
        });
        for idx in dominated {
            if selected.len() >= archive_size {
                break;
            }
            selected.push(idx);
        }
        return selected;
    }

    truncate_most_crowded(&mut selected, archive_size, &distance);
    selected
}

/// SPEA2's archive truncation (Zitzler, Laumanns & Thiele, "SPEA2",
/// TIK-Report 103, ETH Zürich, 2001): iteratively removes the member with
/// the lexicographically smallest sorted distance vector until `selected`
/// fits `archive_size`.
///
/// The lexicographic winner's first element is necessarily the globally
/// smallest nearest-neighbour distance. Each member keeps its
/// nearest-neighbour distance and position across removals; a removal
/// changes only the minima of the members whose nearest neighbour was the
/// victim, so only those are rescanned. Members tied on the global minimum
/// are compared on their second-smallest distance, and full sorted distance
/// vectors are built — into two reusable buffers — only when that ties
/// too. Ties on the whole vector resolve to the earliest member, so the
/// selection is exactly that of a full lexicographic argmin per round.
fn truncate_most_crowded(
    selected: &mut Vec<usize>,
    archive_size: usize,
    distance: &impl Fn(usize, usize) -> f64,
) {
    if selected.len() <= archive_size {
        return;
    }
    // Positions into `selected` of the members still in, in order.
    let mut live: Vec<usize> = (0..selected.len()).collect();
    // Per position: (nearest-neighbour distance, that neighbour's position).
    let mut nearest: Vec<(f64, usize)> = live
        .iter()
        .map(|&p| nearest_two(selected, &live, p, distance).0)
        .collect();
    let mut best_row: Vec<f64> = Vec::new();
    let mut row: Vec<f64> = Vec::new();
    while live.len() > archive_size {
        debug_assert!(live.len() > 1);
        let global_min = live
            .iter()
            .map(|&p| nearest[p].0)
            .reduce(|a, b| if b < a { b } else { a })
            .expect("non-empty selection");

        // (rank in `live`, position, second-smallest distance) of the
        // current victim, and whether `best_row` holds its sorted row.
        let mut victim: Option<(usize, usize, f64)> = None;
        let mut best_row_filled = false;
        for (rank, &p) in live.iter().enumerate() {
            if nearest[p].0 != global_min {
                continue;
            }
            let second = nearest_two(selected, &live, p, distance).1;
            let Some((_, v, best_second)) = victim else {
                victim = Some((rank, p, second));
                continue;
            };
            let smaller = if second != best_second {
                second < best_second
            } else {
                if !best_row_filled {
                    fill_sorted_row(&mut best_row, selected, &live, v, distance);
                    best_row_filled = true;
                }
                fill_sorted_row(&mut row, selected, &live, p, distance);
                lexicographically_smaller(&row, &best_row)
            };
            if smaller {
                if second == best_second {
                    std::mem::swap(&mut best_row, &mut row);
                } else {
                    best_row_filled = false;
                }
                victim = Some((rank, p, second));
            }
        }
        let (rank, v, _) = victim.expect("some member attains the global minimum");
        live.remove(rank);
        for &p in &live {
            if nearest[p].1 == v {
                nearest[p] = nearest_two(selected, &live, p, distance).0;
            }
        }
    }
    *selected = live.iter().map(|&p| selected[p]).collect();
}

/// The first two entries of position `p`'s sorted row: its nearest live
/// neighbour as (distance, position; the first one on a tie), and its
/// second-smallest distance (+∞ when it has only one neighbour).
fn nearest_two(
    selected: &[usize],
    live: &[usize],
    p: usize,
    distance: &impl Fn(usize, usize) -> f64,
) -> ((f64, usize), f64) {
    let i = selected[p];
    let (mut nearest, mut second) = ((f64::INFINITY, usize::MAX), f64::INFINITY);
    for &q in live {
        if q == p {
            continue;
        }
        let d = distance(i, selected[q]);
        if d.partial_cmp(&nearest.0).expect("finite distances") == std::cmp::Ordering::Less {
            second = nearest.0;
            nearest = (d, q);
        } else if d < second {
            second = d;
        }
    }
    (nearest, second)
}

/// Fills `row` with position `p`'s sorted distances to every other live
/// member.
fn fill_sorted_row(
    row: &mut Vec<f64>,
    selected: &[usize],
    live: &[usize],
    p: usize,
    distance: &impl Fn(usize, usize) -> f64,
) {
    row.clear();
    let i = selected[p];
    for &q in live {
        if q != p {
            row.push(distance(i, selected[q]));
        }
    }
    row.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
}

/// True when `a` is lexicographically smaller than `b` (first differing
/// distance decides).
fn lexicographically_smaller(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b.iter()) {
        if x < y {
            return true;
        }
        if x > y {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::Objectives;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The truncation as it was before it kept nearest neighbours across
    /// removals: every round rescans every member. The oracle of
    /// [`truncate_most_crowded`].
    fn truncate_most_crowded_reference(
        selected: &mut Vec<usize>,
        archive_size: usize,
        distance: &impl Fn(usize, usize) -> f64,
    ) {
        let mut mins: Vec<f64> = Vec::new();
        let mut best_row: Vec<f64> = Vec::new();
        let mut row: Vec<f64> = Vec::new();
        while selected.len() > archive_size {
            let n = selected.len();
            debug_assert!(n > 1);
            // Nearest-neighbour distance of every member: a min scan, no sort.
            mins.clear();
            for (p, &i) in selected.iter().enumerate() {
                let mut best = f64::INFINITY;
                for (q, &j) in selected.iter().enumerate() {
                    if p == q {
                        continue;
                    }
                    let d = distance(i, j);
                    if d.partial_cmp(&best).expect("finite distances") == std::cmp::Ordering::Less {
                        best = d;
                    }
                }
                mins.push(best);
            }
            let global_min = mins
                .iter()
                .copied()
                .reduce(|a, b| if b < a { b } else { a })
                .expect("non-empty selection");

            // Tie-break the candidates (members whose nearest distance equals
            // the global minimum) on their full sorted distance vectors.
            let mut victim = usize::MAX;
            for (p, &m) in mins.iter().enumerate() {
                if m != global_min {
                    continue;
                }
                if victim == usize::MAX {
                    victim = p;
                    fill_sorted_row_reference(&mut best_row, selected, p, distance);
                    continue;
                }
                fill_sorted_row_reference(&mut row, selected, p, distance);
                if lexicographically_smaller(&row, &best_row) {
                    victim = p;
                    std::mem::swap(&mut best_row, &mut row);
                }
            }
            selected.remove(victim);
        }
    }

    /// Fills `row` with member `p`'s sorted distances to every other
    /// selected member.
    fn fill_sorted_row_reference(
        row: &mut Vec<f64>,
        selected: &[usize],
        p: usize,
        distance: &impl Fn(usize, usize) -> f64,
    ) {
        row.clear();
        let i = selected[p];
        for (q, &j) in selected.iter().enumerate() {
            if q != p {
                row.push(distance(i, j));
            }
        }
        row.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    }

    proptest! {
        /// Points on a coarse 6 × 6 grid, so exact duplicates and equal
        /// distances are frequent, in a shuffled selection order with gaps;
        /// every archive size from 1 to the selection's size.
        #[test]
        fn incremental_truncation_is_bitwise_equal_to_the_rescanning_loop(
            points in proptest::collection::vec((0u8..6, 0u8..6, 0u16..1000), 1..=64),
        ) {
            let objectives: Vec<Objectives> = points
                .iter()
                .map(|&(a, b, _)| Objectives::pair(a as f64, b as f64))
                .collect();
            let n = objectives.len();
            let table: Vec<f64> = (0..n * n)
                .map(|ab| objectives[ab / n].distance(&objectives[ab % n]))
                .collect();
            let distance = |a: usize, b: usize| table[a * n + b];
            let mut order: Vec<usize> =
                (0..points.len()).filter(|&i| points[i].2 % 5 != 0).collect();
            order.sort_by_key(|&i| points[i].2);
            for archive_size in 1..=order.len() {
                let mut incremental = order.clone();
                truncate_most_crowded(&mut incremental, archive_size, &distance);
                let mut reference = order.clone();
                truncate_most_crowded_reference(&mut reference, archive_size, &distance);
                prop_assert_eq!(incremental, reference);
            }
        }
    }

    fn ind(a: f64, b: f64, fitness: f64) -> Individual<u32> {
        let mut i = Individual::new(0u32, Objectives::pair(a, b));
        i.fitness = Some(fitness);
        i
    }

    #[test]
    fn binary_tournament_prefers_lower_fitness() {
        let pool = vec![ind(1.0, 1.0, 5.0), ind(2.0, 2.0, 0.1)];
        let mut rng = StdRng::seed_from_u64(1);
        let mut wins = [0usize; 2];
        for _ in 0..2000 {
            wins[binary_tournament(&pool, &mut rng)] += 1;
        }
        // The low-fitness member should win clearly more often (it wins every
        // mixed tournament, which is half of them, plus half of the rest).
        assert!(wins[1] > wins[0], "wins: {wins:?}");
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn binary_tournament_rejects_empty_pool() {
        let pool: Vec<Individual<u32>> = vec![];
        let mut rng = StdRng::seed_from_u64(1);
        let _ = binary_tournament(&pool, &mut rng);
    }

    #[test]
    fn mating_pool_has_requested_size() {
        let pool = vec![ind(1.0, 1.0, 0.2), ind(2.0, 2.0, 0.3), ind(3.0, 3.0, 2.0)];
        let mut rng = StdRng::seed_from_u64(2);
        let mates = fill_mating_pool(&pool, 10, &mut rng);
        assert_eq!(mates.len(), 10);
        assert!(mates.iter().all(|&i| i < 3));
    }

    #[test]
    fn environmental_selection_keeps_all_nondominated_when_they_fit() {
        let combined = vec![
            ind(1.0, 5.0, 0.1),
            ind(2.0, 3.0, 0.2),
            ind(4.0, 1.0, 0.3),
            ind(5.0, 5.0, 3.0), // dominated
        ];
        let selected = environmental_selection(&combined, 3);
        assert_eq!(selected, vec![0, 1, 2]);
    }

    #[test]
    fn environmental_selection_tops_up_with_best_dominated() {
        let combined = vec![
            ind(1.0, 5.0, 0.1),
            ind(5.0, 5.0, 3.0), // dominated, fitness 3
            ind(6.0, 6.0, 7.0), // dominated, fitness 7
        ];
        let selected = environmental_selection(&combined, 2);
        assert_eq!(selected, vec![0, 1]);
        // Asking for more than exists returns everything.
        let all = environmental_selection(&combined, 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn environmental_selection_truncates_the_most_crowded() {
        // Four non-dominated points; two nearly coincident. Truncation to 3
        // must remove one of the crowded pair, keeping the extremes.
        let combined = vec![
            ind(0.0, 10.0, 0.1),
            ind(5.0, 5.0, 0.1),
            ind(5.05, 4.95, 0.1),
            ind(10.0, 0.0, 0.1),
        ];
        let selected = environmental_selection(&combined, 3);
        assert_eq!(selected.len(), 3);
        assert!(selected.contains(&0));
        assert!(selected.contains(&3));
        // Exactly one of the crowded pair survives.
        assert_eq!(
            selected.contains(&1) as usize + selected.contains(&2) as usize,
            1
        );
    }

    #[test]
    #[should_panic(expected = "archive size must be positive")]
    fn zero_archive_size_panics() {
        let combined = vec![ind(1.0, 1.0, 0.1)];
        let _ = environmental_selection(&combined, 0);
    }

    #[test]
    fn lexicographic_comparison() {
        assert!(lexicographically_smaller(&[1.0, 5.0], &[2.0, 1.0]));
        assert!(!lexicographically_smaller(&[2.0, 1.0], &[1.0, 5.0]));
        assert!(lexicographically_smaller(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!lexicographically_smaller(&[1.0, 3.0], &[1.0, 3.0]));
    }
}
