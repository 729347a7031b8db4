//! Column-proportional mutation (Section V.F of the paper).
//!
//! A mutation must keep the selected column summing to one. The paper's
//! operator first perturbs one randomly chosen element of one randomly
//! chosen column by a small random amount, then redistributes the opposite
//! amount over the *other* elements of the same column:
//!
//! * if the chosen element was **increased** by `Δ`, the other elements are
//!   decreased proportionally to their own values (so zero entries stay
//!   zero and the column's relative structure is preserved);
//! * if it was **decreased** by `Δ`, the other elements are increased
//!   proportionally to `1 −` their values (so entries near one grow
//!   little).
//!
//! A naive alternative (perturb then renormalize the whole column) is also
//! provided for the A-MUT ablation experiment.

use linalg::Vector;
use rand::Rng;
use rr::RrMatrix;

/// Applies the paper's column-proportional mutation in place, returning the
/// mutated matrix. `max_step` bounds the perturbation magnitude (the paper
/// only requires it to be a small positive value `< 1`).
pub fn proportional_column_mutation<R: Rng + ?Sized>(
    m: &RrMatrix,
    max_step: f64,
    rng: &mut R,
) -> RrMatrix {
    let n = m.num_categories();
    let max_step = max_step.clamp(f64::MIN_POSITIVE, 1.0);
    let column_index = rng.gen_range(0..n);
    let element_index = rng.gen_range(0..n);
    let add = rng.gen::<bool>();

    let mut column: Vec<f64> = (0..n).map(|i| m.theta(i, column_index)).collect();
    let theta = column[element_index];

    // Draw the perturbation, bounded so the element stays within [0, 1].
    let raw_step = rng.gen::<f64>() * max_step;
    let delta = if add {
        raw_step.min(1.0 - theta)
    } else {
        raw_step.min(theta)
    };
    if delta <= 0.0 {
        // Nothing to change (element already at the boundary in the chosen
        // direction); return the matrix unchanged.
        return m.clone();
    }

    if add {
        // Increase the chosen element; subtract proportionally to the other
        // elements' values.
        column[element_index] = theta + delta;
        let others_sum: f64 = column
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != element_index)
            .map(|(_, v)| *v)
            .sum();
        if others_sum > 0.0 {
            for (i, v) in column.iter_mut().enumerate() {
                if i != element_index {
                    *v -= delta * (*v / others_sum);
                }
            }
        } else {
            // Degenerate column (the chosen element held all the mass);
            // undo the change.
            column[element_index] = theta;
        }
    } else {
        // Decrease the chosen element; add proportionally to (1 - value).
        column[element_index] = theta - delta;
        let others_weight: f64 = column
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != element_index)
            .map(|(_, v)| 1.0 - *v)
            .sum();
        if others_weight > 0.0 {
            for (i, v) in column.iter_mut().enumerate() {
                if i != element_index {
                    *v += delta * ((1.0 - *v) / others_weight);
                }
            }
        } else {
            column[element_index] = theta;
        }
    }

    // Clamp any microscopic negative round-off and rebuild the matrix.
    for v in &mut column {
        *v = v.max(0.0);
    }
    let mut result = m.as_matrix().clone();
    let s: f64 = column.iter().sum();
    let normalized: Vec<f64> = column.into_iter().map(|v| v / s).collect();
    result
        .set_column(column_index, &Vector::from_vec(normalized))
        .expect("column index in range");
    RrMatrix::new(result).expect("mutation preserves column stochasticity")
}

/// The naive mutation used by the A-MUT ablation: perturb one element and
/// renormalize the whole column by dividing by its new sum, which distorts
/// the relative structure of the untouched entries.
pub fn naive_column_mutation<R: Rng + ?Sized>(
    m: &RrMatrix,
    max_step: f64,
    rng: &mut R,
) -> RrMatrix {
    let n = m.num_categories();
    let max_step = max_step.clamp(f64::MIN_POSITIVE, 1.0);
    let column_index = rng.gen_range(0..n);
    let element_index = rng.gen_range(0..n);
    let mut column: Vec<f64> = (0..n).map(|i| m.theta(i, column_index)).collect();
    let delta = (rng.gen::<f64>() * 2.0 - 1.0) * max_step;
    column[element_index] = (column[element_index] + delta).clamp(0.0, 1.0);
    let s: f64 = column.iter().sum();
    if s <= 0.0 {
        return m.clone();
    }
    let normalized: Vec<f64> = column.into_iter().map(|v| v / s).collect();
    let mut result = m.as_matrix().clone();
    result
        .set_column(column_index, &Vector::from_vec(normalized))
        .expect("column index in range");
    RrMatrix::new(result).expect("renormalized column is stochastic")
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
    fn mutation_preserves_stochasticity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = RrMatrix::random(8, &mut rng).unwrap();
        for _ in 0..200 {
            m = proportional_column_mutation(&m, 0.3, &mut rng);
            assert!(m.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn naive_mutation_preserves_stochasticity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = RrMatrix::random(6, &mut rng).unwrap();
        for _ in 0..200 {
            m = naive_column_mutation(&m, 0.3, &mut rng);
            assert!(m.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn mutation_changes_at_most_one_column() {
        let m = warner(6, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mutated = proportional_column_mutation(&m, 0.2, &mut rng);
            let mut changed_columns = 0usize;
            for j in 0..6 {
                let changed = (0..6).any(|i| (mutated.theta(i, j) - m.theta(i, j)).abs() > 1e-12);
                if changed {
                    changed_columns += 1;
                }
            }
            assert!(changed_columns <= 1, "{changed_columns} columns changed");
        }
    }

    #[test]
    fn mutation_actually_changes_the_matrix_most_of_the_time() {
        let m = warner(5, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let changed = (0..100)
            .filter(|_| {
                let mutated = proportional_column_mutation(&m, 0.2, &mut rng);
                mutated.max_abs_difference(&m).unwrap() > 1e-9
            })
            .count();
        assert!(changed > 60, "only {changed}/100 mutations had an effect");
    }

    #[test]
    fn proportional_mutation_keeps_zero_entries_zero_when_increasing() {
        // Column with structural zeros: increasing another element must not
        // make the zeros negative, and subtracting proportionally keeps them
        // at exactly zero.
        let m = from_rows(&[
            vec![0.5, 0.0, 0.0],
            vec![0.5, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let mutated = proportional_column_mutation(&m, 0.3, &mut rng);
            // Entry (2, 0) of the original is zero; under an "add" mutation of
            // another element in column 0 it must stay zero (proportional
            // subtraction of zero), and under a "subtract" mutation of itself
            // nothing changes (it is already zero). Either way it never goes
            // negative.
            assert!(mutated.theta(2, 0) >= 0.0);
            assert!(mutated.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn degenerate_point_mass_column_is_left_unchanged_on_add() {
        // Column 1 is a point mass on row 1: the "others" sum is zero, so an
        // add-mutation of that element must leave the matrix unchanged.
        let m = from_rows(&[vec![0.8, 0.0], vec![0.2, 1.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let mutated = proportional_column_mutation(&m, 0.5, &mut rng);
            assert!(mutated.as_matrix().is_column_stochastic(1e-9));
            // Column 1 either stays a point mass (add on row 1 is undone /
            // subtract on rows with value 0 is a no-op) or the mass moves to
            // the other row by a bounded amount.
            let col_sum: f64 = (0..2).map(|i| mutated.theta(i, 1)).sum();
            assert!((col_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mutation_is_deterministic_for_a_seed() {
        let m = warner(4, 0.8).unwrap();
        let a = proportional_column_mutation(&m, 0.2, &mut StdRng::seed_from_u64(9));
        let b = proportional_column_mutation(&m, 0.2, &mut StdRng::seed_from_u64(9));
        assert!(a.approx_eq(&b, 1e-15));
    }

    #[test]
    fn step_size_is_clamped() {
        // max_step values outside (0, 1] are clamped rather than panicking.
        let m = warner(4, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let a = proportional_column_mutation(&m, 5.0, &mut rng);
        assert!(a.as_matrix().is_column_stochastic(1e-9));
        let b = proportional_column_mutation(&m, -1.0, &mut rng);
        assert!(b.as_matrix().is_column_stochastic(1e-9));
        let c = naive_column_mutation(&m, 7.0, &mut rng);
        assert!(c.as_matrix().is_column_stochastic(1e-9));
    }
}
