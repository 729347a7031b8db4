//! SPEA2 density estimation.
//!
//! When two solutions have the same raw fitness, SPEA2 breaks the tie with
//! a density value derived from the distance to the k-th nearest neighbour
//! in objective space:
//!
//! ```text
//! d(i) = 1 / (σ_i^k + 2)
//! ```
//!
//! The `+2` keeps the denominator positive and keeps the density strictly
//! below 1, so it can never overturn a raw-fitness difference (which is
//! always an integer ≥ 1). The paper (Section V.B) uses `k = 1` in
//! practice, which is the default here.

use crate::objectives::Objectives;
use std::cmp::Ordering;

/// The k-th smallest value of `values` (1-based `k`, clamped to the slice
/// length), found by partial selection instead of a full sort: `k = 1` is a
/// single min scan, larger `k` uses `select_nth_unstable`. The slice is
/// reordered in place. Equal values make the result identical (bitwise) to
/// indexing a fully sorted copy.
pub(crate) fn kth_of(values: &mut [f64], k: usize) -> f64 {
    debug_assert!(!values.is_empty());
    let idx = k.saturating_sub(1).min(values.len() - 1);
    if idx == 0 {
        let mut best = values[0];
        for &v in &values[1..] {
            if v.partial_cmp(&best).expect("finite distances") == Ordering::Less {
                best = v;
            }
        }
        best
    } else {
        *values
            .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite distances"))
            .1
    }
}

/// Computes the distance from each point to its k-th nearest *other* point.
///
/// Points with no neighbours (singleton input) get `f64::INFINITY`. One
/// reusable row buffer and partial selection replace the per-point `Vec`
/// and full sort of the naive formulation.
pub fn kth_nearest_distances(points: &[Objectives], k: usize) -> Vec<f64> {
    let n = points.len();
    let mut out = Vec::with_capacity(n);
    let mut dists: Vec<f64> = Vec::with_capacity(n.saturating_sub(1));
    for i in 0..n {
        dists.clear();
        dists.extend(
            (0..n)
                .filter(|&j| j != i)
                .map(|j| points[i].distance(&points[j])),
        );
        if dists.is_empty() {
            out.push(f64::INFINITY);
            continue;
        }
        out.push(kth_of(&mut dists, k));
    }
    out
}

/// Computes the SPEA2 density `d(i) = 1 / (σ_i^k + 2)` for every point.
pub fn densities(points: &[Objectives], k: usize) -> Vec<f64> {
    kth_nearest_distances(points, k)
        .into_iter()
        .map(|sigma| {
            if sigma.is_infinite() {
                0.0
            } else {
                1.0 / (sigma + 2.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(a: f64, b: f64) -> Objectives {
        Objectives::pair(a, b)
    }

    #[test]
    fn kth_nearest_distances_simple_layout() {
        // Three collinear points at x = 0, 1, 10.
        let pts = vec![o(0.0, 0.0), o(1.0, 0.0), o(10.0, 0.0)];
        let d1 = kth_nearest_distances(&pts, 1);
        assert_eq!(d1, vec![1.0, 1.0, 9.0]);
        let d2 = kth_nearest_distances(&pts, 2);
        assert_eq!(d2, vec![10.0, 9.0, 10.0]);
        // k beyond the number of neighbours clamps to the farthest one.
        let d9 = kth_nearest_distances(&pts, 9);
        assert_eq!(d9, vec![10.0, 9.0, 10.0]);
    }

    #[test]
    fn singleton_and_empty_inputs() {
        assert!(kth_nearest_distances(&[], 1).is_empty());
        let single = vec![o(1.0, 1.0)];
        assert_eq!(kth_nearest_distances(&single, 1), vec![f64::INFINITY]);
        assert_eq!(densities(&single, 1), vec![0.0]);
    }

    #[test]
    fn densities_are_below_one_and_ordered_by_crowding() {
        // The paper's Figure 2 situation: a point with a close neighbour has
        // a *higher* density (worse) than isolated points.
        let pts = vec![
            o(0.0, 0.0),
            o(0.1, 0.0), // crowded pair
            o(5.0, 5.0), // isolated
        ];
        let d = densities(&pts, 1);
        assert!(d.iter().all(|&x| x < 1.0));
        assert!(d.iter().all(|&x| x > 0.0));
        assert!(d[0] > d[2], "crowded point should have higher density");
        assert!(d[1] > d[2]);
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        let raw = [5.0, 1.0, 4.0, 1.0, 3.0, 2.0, 2.0];
        let mut sorted = raw.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for k in 1..=raw.len() + 2 {
            let mut scratch = raw.to_vec();
            let expected = sorted[k.saturating_sub(1).min(raw.len() - 1)];
            assert_eq!(kth_of(&mut scratch, k).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn density_formula_matches_definition() {
        let pts = vec![o(0.0, 0.0), o(3.0, 4.0)];
        let d = densities(&pts, 1);
        // sigma = 5 for both, so density = 1 / 7.
        assert!((d[0] - 1.0 / 7.0).abs() < 1e-12);
        assert!((d[1] - 1.0 / 7.0).abs() < 1e-12);
    }
}
