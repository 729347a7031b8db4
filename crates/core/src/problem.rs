//! The OptRR optimization problem: RR matrices as genomes, (adversary
//! accuracy, MSE) as the two minimized objectives, with the paper's custom
//! crossover, mutation, and δ-bound repair plugged into the generic EMOO
//! engine layer.
//!
//! Evaluation — the hottest path of the whole system — is batched: the
//! engines route all evaluation through [`emoo::Problem::evaluate_batch`],
//! which this problem implements as one serial pass over the batch, like
//! [`OptrrProblem::evaluate_matrices`]. Each genome is a [`Candidate`]
//! that keeps the [`Evaluation`] the batch computed for it, so Ω offers
//! and archive reporting read it from the individual instead of
//! evaluating the matrix again.

use crate::config::OptrrConfig;
use crate::error::{OptrrError, Result};
use crate::operators::{
    column_swap_crossover, proportional_column_mutation, repair_to_delta_bound,
};
use emoo::{Objectives, Problem};
use rand::Rng;
use rr::metrics::privacy::analyze;
use rr::metrics::utility::utility;
use rr::RrMatrix;
use stats::Categorical;
use std::sync::OnceLock;

/// Penalty objective value assigned to infeasible genomes (singular
/// matrices, δ-bound violations that repair could not fix). Large but
/// finite so dominance ranking stays well defined.
pub const INFEASIBLE_PENALTY: f64 = 1e6;

/// Default mutation step bound (the paper only asks for a "small random
/// positive value < 1").
pub const DEFAULT_MUTATION_STEP: f64 = 0.25;

/// The evaluated quality of one RR matrix, in the paper's reporting
/// convention (privacy = 1 − adversary accuracy; utility = average MSE,
/// lower better).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Evaluation {
    /// Privacy of Equation (8); higher is better.
    pub privacy: f64,
    /// Utility of Equation (10) — the mean squared error; lower is better.
    pub mse: f64,
    /// The worst-case posterior `max P(X|Y)`.
    pub max_posterior: f64,
    /// Whether the matrix satisfies the δ bound and is invertible.
    pub feasible: bool,
}

/// The genome of [`OptrrProblem`]: an RR matrix and, once a batch has
/// evaluated it, its [`Evaluation`]. Crossover, mutation and repair return
/// fresh candidates without one, so a carried evaluation always belongs to
/// the matrix beside it. The engine's objective vector cannot stand in
/// for it: `1 − (1 − privacy)` is not exact.
#[derive(Debug, Clone)]
pub struct Candidate {
    matrix: RrMatrix,
    evaluation: OnceLock<Evaluation>,
}

impl Candidate {
    /// A candidate that has not been evaluated yet.
    pub(crate) fn new(matrix: RrMatrix) -> Self {
        Self {
            matrix,
            evaluation: OnceLock::new(),
        }
    }

    /// The RR matrix.
    pub(crate) fn matrix(&self) -> &RrMatrix {
        &self.matrix
    }

    /// The evaluation a batch computed for this matrix, if any.
    pub(crate) fn evaluation(&self) -> Option<&Evaluation> {
        self.evaluation.get()
    }

    /// Gives the matrix back.
    pub(crate) fn into_matrix(self) -> RrMatrix {
        self.matrix
    }
}

/// The OptRR problem instance: a prior distribution (from the data set
/// being disguised), the record count, and the δ bound.
#[derive(Debug, Clone)]
pub struct OptrrProblem {
    prior: Categorical,
    num_records: u64,
    delta: f64,
    mutation_step: f64,
    symmetric_only: bool,
}

impl OptrrProblem {
    /// Creates a problem instance from a prior distribution and the
    /// relevant pieces of the configuration.
    pub fn new(prior: Categorical, config: &OptrrConfig) -> Result<Self> {
        config.validate()?;
        if prior.num_categories() < 2 {
            return Err(OptrrError::InvalidConfig {
                reason: "the attribute must have at least two categories".into(),
            });
        }
        Ok(Self {
            prior,
            num_records: config.num_records,
            delta: config.delta,
            mutation_step: DEFAULT_MUTATION_STEP,
            symmetric_only: config.symmetric_only,
        })
    }

    /// The prior (original-data) distribution the metrics are computed
    /// against.
    pub fn prior(&self) -> &Categorical {
        &self.prior
    }

    /// The δ bound in force.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of categories of the attribute domain.
    pub fn num_categories(&self) -> usize {
        self.prior.num_categories()
    }

    /// Number of records entering the closed-form MSE.
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Evaluates a matrix into the paper's reporting convention.
    ///
    /// One posterior pass: `analyze` reports the worst-case posterior
    /// beside privacy. Its value is bit-equal to `max_posterior`'s, since
    /// every posterior is non-negative and `max` is exact in any order.
    pub fn evaluate_matrix(&self, m: &RrMatrix) -> Evaluation {
        let privacy_analysis = match analyze(m, &self.prior) {
            Ok(a) => a,
            Err(_) => {
                return Evaluation {
                    privacy: 0.0,
                    mse: f64::INFINITY,
                    max_posterior: 1.0,
                    feasible: false,
                }
            }
        };
        let max_post = privacy_analysis.max_posterior;
        let mse = utility(m, &self.prior, self.num_records);
        match mse {
            Ok(mse) if mse.is_finite() => {
                let within_bound = max_post <= self.delta + 1e-9;
                Evaluation {
                    privacy: privacy_analysis.privacy,
                    mse,
                    max_posterior: max_post,
                    feasible: within_bound,
                }
            }
            _ => Evaluation {
                privacy: privacy_analysis.privacy,
                mse: f64::INFINITY,
                max_posterior: max_post,
                feasible: false,
            },
        }
    }

    /// Evaluates a whole batch of matrices, in input order. The baseline
    /// sweeps use it.
    pub fn evaluate_matrices(&self, matrices: &[RrMatrix]) -> Vec<Evaluation> {
        matrices.iter().map(|m| self.evaluate_matrix(m)).collect()
    }

    /// Evaluates a candidate's matrix, stores the evaluation in the
    /// candidate, and returns the engine's objective vector for it.
    fn evaluate_candidate(&self, candidate: &Candidate) -> Objectives {
        let evaluation = self.evaluate_matrix(&candidate.matrix);
        // A candidate that already carries one got it from the same pure
        // computation, so keeping it changes nothing.
        let _ = candidate.evaluation.set(evaluation);
        Self::objectives_from(&evaluation)
    }

    /// Whether an engine-reported objective vector corresponds to a
    /// feasible evaluation. Objective 0 is the adversary accuracy
    /// (1 − privacy), which lies in [0, 1] for every feasible evaluation,
    /// while infeasible genomes carry [`INFEASIBLE_PENALTY`] there — so
    /// the first objective alone discriminates exactly, no matter how
    /// large a feasible MSE (objective 1) gets.
    pub fn objectives_are_feasible(objectives: &Objectives) -> bool {
        objectives.value(0) < INFEASIBLE_PENALTY
    }

    /// Converts an evaluation into the engine's minimized objective vector.
    fn objectives_from(eval: &Evaluation) -> Objectives {
        if !eval.feasible || !eval.mse.is_finite() {
            // Infeasible: dominated by every feasible point.
            return Objectives::pair(INFEASIBLE_PENALTY, INFEASIBLE_PENALTY);
        }
        // Objective 1: adversary accuracy (1 − privacy), minimized.
        // Objective 2: MSE, minimized.
        Objectives::pair(1.0 - eval.privacy, eval.mse)
    }

    /// A new, unevaluated genome from a freshly built matrix, symmetrized
    /// when `symmetric_only` is set.
    fn fresh(&self, m: RrMatrix) -> Candidate {
        Candidate::new(if self.symmetric_only {
            self.symmetrize(&m)
        } else {
            m
        })
    }

    /// Symmetrizes a matrix — used when `symmetric_only` is set (the
    /// FRAPP-style restricted search of the A-SYM ablation).
    ///
    /// A symmetric column-stochastic matrix is doubly stochastic, so the
    /// matrix is first averaged with its transpose and then driven to
    /// double stochasticity with a symmetric Sinkhorn scaling
    /// (`A ← D A D` with `D = diag(1/√rowsum)`), which preserves symmetry
    /// at every step.
    fn symmetrize(&self, m: &RrMatrix) -> RrMatrix {
        let raw = m.as_matrix();
        let t = raw.transpose();
        let mut a = raw.add_matrix(&t).expect("same shape").scaled(0.5);
        let n = a.rows();
        for _ in 0..200 {
            // Row sums (equal to column sums by symmetry).
            let mut worst = 0.0_f64;
            let mut scale = vec![0.0_f64; n];
            for i in 0..n {
                let s: f64 = (0..n).map(|j| a[(i, j)]).sum();
                worst = worst.max((s - 1.0).abs());
                scale[i] = 1.0 / s.max(f64::MIN_POSITIVE).sqrt();
            }
            if worst < 1e-12 {
                break;
            }
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] *= scale[i] * scale[j];
                }
            }
        }
        // Final exact column normalization is handled by RrMatrix::new; the
        // residual is far below the symmetry tolerance.
        RrMatrix::new(a).expect("Sinkhorn-scaled symmetric matrix is column stochastic")
    }
}

impl Problem for OptrrProblem {
    type Genome = Candidate;

    fn num_objectives(&self) -> usize {
        2
    }

    fn random_genome<R: Rng + ?Sized>(&self, rng: &mut R) -> Candidate {
        let m = RrMatrix::random(self.num_categories(), rng)
            .expect("num_categories >= 2 validated at construction");
        self.fresh(m)
    }

    fn evaluate(&self, genome: &Candidate) -> Objectives {
        self.evaluate_candidate(genome)
    }

    fn evaluate_batch(&self, genomes: &[Candidate]) -> Vec<Objectives> {
        genomes.iter().map(|g| self.evaluate_candidate(g)).collect()
    }

    fn crossover<R: Rng + ?Sized>(
        &self,
        a: &Candidate,
        b: &Candidate,
        rng: &mut R,
    ) -> (Candidate, Candidate) {
        let (c1, c2) = column_swap_crossover(&a.matrix, &b.matrix, rng);
        (self.fresh(c1), self.fresh(c2))
    }

    fn mutate<R: Rng + ?Sized>(&self, genome: &mut Candidate, rng: &mut R) {
        *genome = self.fresh(proportional_column_mutation(
            &genome.matrix,
            self.mutation_step,
            rng,
        ));
    }

    fn repair<R: Rng + ?Sized>(&self, genome: &mut Candidate, rng: &mut R) {
        let (repaired, _ok) = repair_to_delta_bound(&genome.matrix, &self.prior, self.delta, rng);
        *genome = self.fresh(repaired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::schemes::warner;

    fn prior() -> Categorical {
        Categorical::new(vec![0.3, 0.25, 0.2, 0.15, 0.1]).unwrap()
    }

    fn problem(delta: f64) -> OptrrProblem {
        let cfg = OptrrConfig {
            delta,
            ..OptrrConfig::fast(delta, 1)
        };
        OptrrProblem::new(prior(), &cfg).unwrap()
    }

    #[test]
    fn construction_validates() {
        let cfg = OptrrConfig::fast(0.75, 1);
        assert!(OptrrProblem::new(prior(), &cfg).is_ok());
        let single = Categorical::new(vec![1.0]).unwrap();
        assert!(OptrrProblem::new(single, &cfg).is_err());
        let bad_cfg = OptrrConfig { delta: 2.0, ..cfg };
        assert!(OptrrProblem::new(prior(), &bad_cfg).is_err());
    }

    #[test]
    fn accessors() {
        let p = problem(0.8);
        assert_eq!(p.num_categories(), 5);
        assert_eq!(p.num_records(), 10_000);
        assert_eq!(p.delta(), 0.8);
        assert_eq!(p.prior().num_categories(), 5);
        assert_eq!(Problem::num_objectives(&p), 2);
    }

    #[test]
    fn evaluation_of_feasible_warner_matrix() {
        let p = problem(0.8);
        let m = warner(5, 0.6).unwrap();
        let eval = p.evaluate_matrix(&m);
        assert!(eval.feasible);
        assert!(eval.privacy > 0.0 && eval.privacy < 1.0);
        assert!(eval.mse > 0.0);
        assert!(eval.max_posterior <= 0.8 + 1e-9);
        // Objectives follow the convention (accuracy, mse).
        let obj = Problem::evaluate(&p, &Candidate::new(m));
        assert!((obj.value(0) - (1.0 - eval.privacy)).abs() < 1e-12);
        assert!((obj.value(1) - eval.mse).abs() < 1e-15);
    }

    #[test]
    fn bound_violation_is_penalized() {
        let p = problem(0.5);
        // Warner with very high retention has a near-1 max posterior.
        let m = warner(5, 0.98).unwrap();
        let eval = p.evaluate_matrix(&m);
        assert!(!eval.feasible);
        let obj = Problem::evaluate(&p, &Candidate::new(m));
        assert_eq!(obj.value(0), INFEASIBLE_PENALTY);
        assert_eq!(obj.value(1), INFEASIBLE_PENALTY);
    }

    #[test]
    fn singular_matrix_is_penalized() {
        let p = problem(0.9);
        let m = RrMatrix::uniform(5).unwrap();
        let eval = p.evaluate_matrix(&m);
        assert!(!eval.feasible);
        assert!(!eval.mse.is_finite());
        let obj = Problem::evaluate(&p, &Candidate::new(m));
        assert_eq!(obj.value(0), INFEASIBLE_PENALTY);
    }

    #[test]
    fn random_genomes_have_the_right_size_and_validity() {
        let p = problem(0.8);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let g = Problem::random_genome(&p, &mut rng).into_matrix();
            assert_eq!(g.num_categories(), 5);
            assert!(g.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn repair_brings_genomes_inside_the_bound() {
        let p = problem(0.7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Candidate::new(warner(5, 0.95).unwrap());
        Problem::repair(&p, &mut g, &mut rng);
        let eval = p.evaluate_matrix(g.matrix());
        assert!(eval.feasible, "max posterior {}", eval.max_posterior);
    }

    #[test]
    fn mutation_and_crossover_preserve_validity() {
        let p = problem(0.8);
        let mut rng = StdRng::seed_from_u64(4);
        let a = Problem::random_genome(&p, &mut rng);
        let b = Problem::random_genome(&p, &mut rng);
        let (c1, c2) = Problem::crossover(&p, &a, &b, &mut rng);
        assert!(c1.matrix().as_matrix().is_column_stochastic(1e-9));
        assert!(c2.matrix().as_matrix().is_column_stochastic(1e-9));
        let mut m = c1;
        Problem::mutate(&p, &mut m, &mut rng);
        assert!(m.matrix().as_matrix().is_column_stochastic(1e-9));
    }

    #[test]
    fn symmetric_only_mode_produces_symmetric_genomes() {
        let cfg = OptrrConfig {
            symmetric_only: true,
            ..OptrrConfig::fast(0.8, 5)
        };
        let p = OptrrProblem::new(prior(), &cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let g = Problem::random_genome(&p, &mut rng);
        assert!(g.matrix().is_symmetric());
        let h = Problem::random_genome(&p, &mut rng);
        let (c1, c2) = Problem::crossover(&p, &g, &h, &mut rng);
        assert!(c1.matrix().is_symmetric());
        assert!(c2.matrix().is_symmetric());
        let mut m = c1;
        Problem::mutate(&p, &mut m, &mut rng);
        assert!(m.matrix().is_symmetric());
        Problem::repair(&p, &mut m, &mut rng);
        assert!(m.matrix().is_symmetric());
        assert!(m.matrix().as_matrix().is_column_stochastic(1e-9));
    }

    #[test]
    fn batches_store_evaluations_and_variation_starts_fresh() {
        let p = problem(0.8);
        let mut rng = StdRng::seed_from_u64(6);
        let genomes: Vec<Candidate> = (0..8)
            .map(|_| Problem::random_genome(&p, &mut rng))
            .collect();
        assert!(genomes.iter().all(|g| g.evaluation().is_none()));
        let objectives = Problem::evaluate_batch(&p, &genomes);
        for (g, o) in genomes.iter().zip(&objectives) {
            let carried = g.evaluation().expect("the batch stored it");
            assert_eq!(carried, &p.evaluate_matrix(g.matrix()));
            assert_eq!(o, &OptrrProblem::objectives_from(carried));
        }
        // A clone keeps the evaluation; every variation returns a fresh one.
        assert!(genomes[0].clone().evaluation().is_some());
        let (c1, c2) = Problem::crossover(&p, &genomes[0], &genomes[1], &mut rng);
        assert!(c1.evaluation().is_none() && c2.evaluation().is_none());
        let mut m = genomes[2].clone();
        Problem::mutate(&p, &mut m, &mut rng);
        assert!(m.evaluation().is_none());
        let mut r = genomes[3].clone();
        Problem::repair(&p, &mut r, &mut rng);
        assert!(r.evaluation().is_none());
    }

    #[test]
    fn batch_evaluation_matches_pointwise() {
        let matrices: Vec<RrMatrix> = (0..40)
            .map(|k| warner(5, 0.45 + 0.01 * k as f64).unwrap())
            .collect();
        let p = problem(0.8);
        let batch = p.evaluate_matrices(&matrices);
        for (m, eval) in matrices.iter().zip(&batch) {
            let expected = p.evaluate_matrix(m);
            assert_eq!(eval.privacy.to_bits(), expected.privacy.to_bits());
            assert_eq!(eval.mse.to_bits(), expected.mse.to_bits());
            assert_eq!(eval.feasible, expected.feasible);
        }
        // The trait-level batch hook agrees with pointwise evaluate.
        let candidates: Vec<Candidate> = matrices.iter().cloned().map(Candidate::new).collect();
        let objectives = Problem::evaluate_batch(&p, &candidates);
        for (m, o) in matrices.iter().zip(&objectives) {
            assert_eq!(o, &Problem::evaluate(&p, &Candidate::new(m.clone())));
        }
    }

    #[test]
    fn objective_feasibility_screen_matches_evaluation() {
        let loose = problem(0.8);
        let feasible = warner(5, 0.6).unwrap();
        assert!(OptrrProblem::objectives_are_feasible(&Problem::evaluate(
            &loose,
            &Candidate::new(feasible)
        )));
        let strict = problem(0.5);
        let infeasible = warner(5, 0.98).unwrap();
        assert!(!OptrrProblem::objectives_are_feasible(&Problem::evaluate(
            &strict,
            &Candidate::new(infeasible)
        )));
    }

    #[test]
    fn identity_matrix_evaluation_matches_paper_intuition() {
        // The identity matrix: worst privacy (0), best possible MSE for the
        // given N (pure sampling error), but infeasible under any delta < 1.
        let p = problem(0.9);
        let id = RrMatrix::identity(5).unwrap();
        let eval = p.evaluate_matrix(&id);
        assert!(eval.privacy.abs() < 1e-12);
        assert!(!eval.feasible);
        assert!((eval.max_posterior - 1.0).abs() < 1e-12);
    }
}
