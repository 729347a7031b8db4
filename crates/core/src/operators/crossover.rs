//! Column-swap crossover (Section V.E, Figure 3 of the paper).
//!
//! Because every column of an RR matrix must sum to one, crossover cannot
//! cut through a column: instead a boundary between two neighbouring
//! columns is drawn uniformly at random and the two parents exchange every
//! column to the right of that boundary. Both children are therefore valid
//! RR matrices by construction.

use linalg::Matrix;
use rand::Rng;
use rr::RrMatrix;

/// Performs the column-swap crossover on two parent RR matrices of the same
/// size, returning two children.
///
/// The crossover line is drawn uniformly from the `n - 1` interior column
/// boundaries, so at least one column always comes from each parent.
///
/// # Panics
/// Panics if the parents have different sizes (the optimizer only ever
/// crosses matrices from the same problem instance).
pub fn column_swap_crossover<R: Rng + ?Sized>(
    a: &RrMatrix,
    b: &RrMatrix,
    rng: &mut R,
) -> (RrMatrix, RrMatrix) {
    let n = a.num_categories();
    assert_eq!(
        n,
        b.num_categories(),
        "crossover parents must have the same number of categories"
    );
    // Boundary after column `cut` (0-based): columns cut+1..n are swapped.
    let cut = rng.gen_range(0..n - 1);

    let mut child_a = Matrix::zeros(n, n);
    let mut child_b = Matrix::zeros(n, n);
    for j in 0..n {
        let (src_a, src_b) = if j <= cut { (a, b) } else { (b, a) };
        for i in 0..n {
            child_a[(i, j)] = src_a.theta(i, j);
            child_b[(i, j)] = src_b.theta(i, j);
        }
    }
    (
        RrMatrix::new(child_a).expect("swapping whole columns preserves stochasticity"),
        RrMatrix::new(child_b).expect("swapping whole columns preserves stochasticity"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::schemes::warner;

    /// An RR matrix from nested rows.
    fn from_rows(rows: &[Vec<f64>]) -> rr::Result<RrMatrix> {
        RrMatrix::new(linalg::Matrix::from_rows(rows).unwrap())
    }

    #[test]
    fn children_are_valid_rr_matrices() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = RrMatrix::random(6, &mut rng).unwrap();
        let b = RrMatrix::random(6, &mut rng).unwrap();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (c1, c2) = column_swap_crossover(&a, &b, &mut rng);
            assert!(c1.as_matrix().is_column_stochastic(1e-9));
            assert!(c2.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn every_child_column_comes_from_one_parent() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = RrMatrix::random(5, &mut rng).unwrap();
        let b = RrMatrix::random(5, &mut rng).unwrap();
        let (c1, c2) = column_swap_crossover(&a, &b, &mut rng);
        let n = 5;
        for j in 0..n {
            let col_matches = |child: &RrMatrix, parent: &RrMatrix| {
                (0..n).all(|i| (child.theta(i, j) - parent.theta(i, j)).abs() < 1e-12)
            };
            // Child 1's column j comes from a or b; child 2's from the other.
            let c1_from_a = col_matches(&c1, &a);
            let c1_from_b = col_matches(&c1, &b);
            assert!(
                c1_from_a || c1_from_b,
                "column {j} of child 1 matches neither parent"
            );
            let c2_from_a = col_matches(&c2, &a);
            let c2_from_b = col_matches(&c2, &b);
            assert!(
                c2_from_a || c2_from_b,
                "column {j} of child 2 matches neither parent"
            );
            // The two children take the column from different parents
            // (unless the parents agree on that column).
            if !col_matches(&a, &b) {
                assert!(c1_from_a != c1_from_b || c2_from_a != c2_from_b);
            }
        }
    }

    #[test]
    fn children_complement_each_other() {
        // Concatenating the "left of cut" part of child 1 with the "right of
        // cut" part of child 2 reconstructs parent a (and vice versa): check
        // via column counts from each parent.
        let mut rng = StdRng::seed_from_u64(3);
        let a = RrMatrix::random(7, &mut rng).unwrap();
        let b = RrMatrix::random(7, &mut rng).unwrap();
        let (c1, c2) = column_swap_crossover(&a, &b, &mut rng);
        let n = 7;
        for j in 0..n {
            let c1_is_a = (0..n).all(|i| (c1.theta(i, j) - a.theta(i, j)).abs() < 1e-12);
            let c2_is_b = (0..n).all(|i| (c2.theta(i, j) - b.theta(i, j)).abs() < 1e-12);
            // Whenever child 1 keeps a's column j, child 2 keeps b's, and
            // vice versa.
            assert_eq!(c1_is_a, c2_is_b, "column {j} not complementary");
        }
    }

    #[test]
    fn crossover_between_identical_parents_is_identity() {
        let m = warner(4, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let (c1, c2) = column_swap_crossover(&m, &m, &mut rng);
        assert!(c1.approx_eq(&m, 1e-12));
        assert!(c2.approx_eq(&m, 1e-12));
    }

    #[test]
    fn two_category_matrices_swap_exactly_one_column() {
        let a = from_rows(&[vec![0.9, 0.2], vec![0.1, 0.8]]).unwrap();
        let b = from_rows(&[vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (c1, _c2) = column_swap_crossover(&a, &b, &mut rng);
        // With n = 2 the only possible cut is after column 0, so child 1 is
        // a's column 0 plus b's column 1.
        assert!((c1.theta(0, 0) - 0.9).abs() < 1e-12);
        assert!((c1.theta(0, 1) - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same number of categories")]
    fn mismatched_parents_panic() {
        let a = RrMatrix::identity(3).unwrap();
        let b = RrMatrix::identity(4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = column_swap_crossover(&a, &b, &mut rng);
    }
}
