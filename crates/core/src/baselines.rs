//! Baseline Pareto fronts from the classical schemes.
//!
//! The paper's methodology (Section VI.B): sweep the Warner parameter `p`
//! from 0 to 1 in steps of 0.001 (1001 matrices), compute privacy and
//! utility for each, drop the non-optimal solutions, and plot the surviving
//! front. Theorem 2 makes sweeping UP and FRAPP redundant, but the harness
//! can still generate those fronts independently to verify the theorem
//! empirically (the `exp_theorem2` experiment).

use crate::front::{FrontPoint, ParetoFront};
use crate::problem::{Evaluation, OptrrProblem};
use rr::schemes::{frapp, uniform_perturbation, warner};
use rr::RrMatrix;
use serde::{Deserialize, Serialize};

pub use rr::schemes::SchemeKind;

/// One evaluated baseline matrix: the scheme parameter, its matrix, and its
/// evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselinePoint {
    /// Scheme family.
    pub kind: SchemeKind,
    /// The family parameter (`p`, `q`, or `λ`).
    pub parameter: f64,
    /// The evaluated quality of the matrix.
    pub evaluation: Evaluation,
}

/// The full result of a baseline sweep: every evaluated parameter (for
/// reporting) plus the Pareto front of the feasible ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSweep {
    /// Scheme family swept.
    pub kind: SchemeKind,
    /// Every evaluated point, in parameter order.
    pub points: Vec<BaselinePoint>,
    /// The Pareto front over the feasible points.
    pub front: ParetoFront,
}

/// Sweeps a classical scheme over `steps` evenly spaced parameters and
/// evaluates every matrix against the problem's prior, δ bound, and record
/// count. Matrices that violate the δ bound or are singular are recorded
/// as infeasible and excluded from the front, mirroring the paper's
/// methodology (the Warner scheme "cannot find an RR matrix with privacy
/// less than ..." because those parameters violate the bound).
pub fn sweep_scheme(problem: &OptrrProblem, kind: SchemeKind, steps: usize) -> Vec<BaselinePoint> {
    assert!(steps >= 2, "need at least two sweep steps");
    let n = problem.num_categories();
    let mut parameters = Vec::with_capacity(steps);
    let mut matrices = Vec::with_capacity(steps);
    for k in 0..steps {
        let t = k as f64 / (steps - 1) as f64;
        let built: Option<(f64, RrMatrix)> = match kind {
            SchemeKind::Warner => warner(n, t).ok().map(|m| (t, m)),
            SchemeKind::UniformPerturbation => uniform_perturbation(n, t).ok().map(|m| (t, m)),
            SchemeKind::Frapp => {
                // Sweep λ along the Theorem 2 parameter map so the FRAPP
                // sweep visits the same matrices as the Warner sweep:
                // λ(t) = t (n − 1) / (1 − t), with the t = 1 endpoint mapped
                // to a very large λ (essentially the identity matrix).
                let lambda = if t >= 1.0 {
                    1.0e6 * (n as f64 - 1.0)
                } else {
                    t * (n as f64 - 1.0) / (1.0 - t)
                };
                frapp(n, lambda).ok().map(|m| (lambda, m))
            }
        };
        if let Some((parameter, matrix)) = built {
            parameters.push(parameter);
            matrices.push(matrix);
        }
    }
    // One batched evaluation over the whole sweep: the same (optionally
    // parallel) batch path the engines use.
    let evaluations = problem.evaluate_matrices(&matrices);
    parameters
        .into_iter()
        .zip(evaluations)
        .map(|(parameter, evaluation)| BaselinePoint {
            kind,
            parameter,
            evaluation,
        })
        .collect()
}

/// Runs the paper's Warner baseline: sweep, evaluate, and extract the front
/// of feasible points.
pub fn baseline_sweep(problem: &OptrrProblem, kind: SchemeKind, steps: usize) -> BaselineSweep {
    let points = sweep_scheme(problem, kind, steps);
    let feasible: Vec<FrontPoint> = points
        .iter()
        .filter(|p| p.evaluation.feasible)
        .map(|p| FrontPoint::from_evaluation(&p.evaluation))
        .collect();
    let label = match kind {
        SchemeKind::Warner => "Warner",
        SchemeKind::UniformPerturbation => "UP",
        SchemeKind::Frapp => "FRAPP",
    };
    BaselineSweep {
        kind,
        points,
        front: ParetoFront::from_points(label, &feasible),
    }
}

/// The paper's default Warner sweep resolution (p from 0 to 1 in steps of
/// 0.001, i.e. 1001 matrices).
pub const PAPER_SWEEP_STEPS: usize = 1001;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptrrConfig;
    use stats::Categorical;

    fn problem(delta: f64) -> OptrrProblem {
        let prior = Categorical::new(vec![0.3, 0.25, 0.2, 0.15, 0.1]).unwrap();
        OptrrProblem::new(prior, &OptrrConfig::fast(delta, 1)).unwrap()
    }

    #[test]
    fn warner_sweep_produces_a_nonempty_feasible_front() {
        let p = problem(0.8);
        let sweep = baseline_sweep(&p, SchemeKind::Warner, 201);
        assert_eq!(sweep.points.len(), 201);
        assert!(!sweep.front.is_empty());
        assert_eq!(sweep.front.label, "Warner");
        // Every front point respects the delta bound by construction.
        for pt in &sweep.front.points {
            assert!(pt.mse.is_finite());
            assert!(pt.privacy >= 0.0);
        }
    }

    #[test]
    fn stricter_delta_shrinks_the_warner_privacy_range() {
        // The paper's Figure 4 observation: with a smaller delta, the Warner
        // scheme cannot reach low privacy values (high-retention matrices are
        // excluded), so its minimum covered privacy rises.
        let loose = baseline_sweep(&problem(0.9), SchemeKind::Warner, 201);
        let strict = baseline_sweep(&problem(0.6), SchemeKind::Warner, 201);
        let (loose_min, _) = loose.front.privacy_range().unwrap();
        let (strict_min, _) = strict.front.privacy_range().unwrap();
        assert!(
            strict_min > loose_min,
            "strict-delta minimum privacy {strict_min} should exceed loose-delta {loose_min}"
        );
    }

    #[test]
    fn infeasible_points_are_recorded_but_not_on_the_front() {
        let p = problem(0.6);
        let sweep = baseline_sweep(&p, SchemeKind::Warner, 101);
        let infeasible = sweep
            .points
            .iter()
            .filter(|pt| !pt.evaluation.feasible)
            .count();
        assert!(
            infeasible > 0,
            "some high-p Warner matrices must violate delta = 0.6"
        );
        // Front points all come from feasible evaluations.
        for fp in &sweep.front.points {
            assert!(sweep.points.iter().any(|bp| bp.evaluation.feasible
                && (bp.evaluation.privacy - fp.privacy).abs() < 1e-12
                && (bp.evaluation.mse - fp.mse).abs() < 1e-15));
        }
    }

    #[test]
    fn the_three_schemes_produce_matching_fronts() {
        // Theorem 2: the solution sets coincide, so the Pareto fronts match
        // (up to sweep resolution).
        let p = problem(0.8);
        let warner_front = baseline_sweep(&p, SchemeKind::Warner, 401).front;
        let up_front = baseline_sweep(&p, SchemeKind::UniformPerturbation, 401).front;
        let frapp_front = baseline_sweep(&p, SchemeKind::Frapp, 401).front;

        let (w_lo, w_hi) = warner_front.privacy_range().unwrap();
        let (u_lo, u_hi) = up_front.privacy_range().unwrap();
        assert!((w_lo - u_lo).abs() < 0.02, "warner {w_lo} vs up {u_lo}");
        assert!((w_hi - u_hi).abs() < 0.02);
        let (f_lo, f_hi) = frapp_front.privacy_range().unwrap();
        assert!((w_lo - f_lo).abs() < 0.05);
        assert!((w_hi - f_hi).abs() < 0.05);

        // At matched privacy levels the fronts achieve (nearly) the same MSE.
        for &privacy in &[w_lo + 0.02, (w_lo + w_hi) / 2.0, w_hi - 0.02] {
            let wm = warner_front.best_mse_at_privacy_at_least(privacy).unwrap();
            let um = up_front.best_mse_at_privacy_at_least(privacy).unwrap();
            assert!(
                (wm - um).abs() / wm < 0.1,
                "privacy {privacy}: {wm} vs {um}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two sweep steps")]
    fn sweep_needs_at_least_two_steps() {
        let p = problem(0.8);
        let _ = sweep_scheme(&p, SchemeKind::Warner, 1);
    }
}
