//! The OptRR optimization problem: RR matrices as genomes, (adversary
//! accuracy, MSE) as the two minimized objectives, with the paper's custom
//! crossover, mutation, and δ-bound repair plugged into the generic EMOO
//! engine layer.
//!
//! Evaluation — the hottest path of the whole system — is batched, cached,
//! and optionally parallel: the engines route all evaluation through
//! [`emoo::Problem::evaluate_batch`], which this problem implements on top
//! of [`OptrrProblem::evaluate_matrices`] (data-parallel across cores when
//! `parallel_evaluation` is configured), and every computed
//! [`Evaluation`] lands in a genome-keyed cache so later lookups of the
//! same matrix (Ω offers, archive reporting, baseline sweeps) are O(1)
//! instead of a fresh matrix inversion.

use crate::config::OptrrConfig;
use crate::error::{OptrrError, Result};
use crate::operators::{
    column_swap_crossover, proportional_column_mutation, repair_to_delta_bound,
};
use emoo::{Objectives, Problem};
use rand::Rng;
use rr::metrics::bounds::max_posterior;
use rr::metrics::privacy::analyze;
use rr::metrics::utility::utility;
use rr::RrMatrix;
use stats::Categorical;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Approximate byte budget of the evaluation cache; the cache is cleared
/// when the derived entry cap fills, bounding memory for very long
/// (20,000-generation) runs regardless of category count.
const CACHE_BYTE_BUDGET: usize = 64 << 20;

/// Baked minimum batch work (matrices × n³, the dominant cost of one
/// evaluation being the n×n matrix inversion) before a parallel-configured
/// batch actually fans out across cores. Below this the thread spawn and
/// the parallel path's key pre-pass cost more than they save —
/// `BENCH_optimizer.json` showed parallel n=10×128 batches (work 128k)
/// *losing* to serial by ~13% while n=20×128 (work 1.02M) broke even — so
/// small batches stay on the serial path. The same threshold gates
/// [`Optimizer::optimize_many`](crate::Optimizer::optimize_many)'s
/// per-prior fan-out.
pub const PARALLEL_BATCH_MIN_WORK: usize = 400_000;

/// The OptRR problem instance: a prior distribution (from the data set
/// being disguised), the record count, and the δ bound, plus the
/// genome-keyed evaluation cache shared by the engine loop, Ω maintenance,
/// and the baseline sweeps.
#[derive(Debug)]
pub struct OptrrProblem {
    prior: Categorical,
    num_records: u64,
    delta: f64,
    mutation_step: f64,
    symmetric_only: bool,
    parallel_evaluation: bool,
    cache_capacity: usize,
    cache: Mutex<HashMap<Vec<u64>, Evaluation>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl Clone for OptrrProblem {
    fn clone(&self) -> Self {
        Self {
            prior: self.prior.clone(),
            num_records: self.num_records,
            delta: self.delta,
            mutation_step: self.mutation_step,
            symmetric_only: self.symmetric_only,
            parallel_evaluation: self.parallel_evaluation,
            cache_capacity: self.cache_capacity,
            // The cache is derived state; a clone starts cold.
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }
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
        // Each cache entry costs roughly n²·8 bytes of key plus map
        // overhead, so derive the entry cap from the byte budget.
        let n = prior.num_categories();
        let entry_bytes = n * n * 8 + 96;
        let cache_capacity = (CACHE_BYTE_BUDGET / entry_bytes).clamp(1 << 10, 1 << 17);
        Ok(Self {
            prior,
            num_records: config.num_records,
            delta: config.delta,
            mutation_step: DEFAULT_MUTATION_STEP,
            symmetric_only: config.symmetric_only,
            parallel_evaluation: config.parallel_evaluation,
            cache_capacity,
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
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

    /// Whether batch evaluation runs in parallel across cores.
    pub fn parallel_evaluation(&self) -> bool {
        self.parallel_evaluation
    }

    /// Whether a batch of `batch_len` matrices takes the data-parallel
    /// path: parallel evaluation must be configured *and* the batch work
    /// (`batch_len · n³`) must reach [`PARALLEL_BATCH_MIN_WORK`].
    pub fn uses_parallel_for_batch(&self, batch_len: usize) -> bool {
        let n = self.num_categories();
        self.parallel_evaluation && batch_len.saturating_mul(n * n * n) >= PARALLEL_BATCH_MIN_WORK
    }

    /// Evaluation-cache statistics: `(hits, misses)` since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The cache key of a matrix: the exact bit patterns of its entries.
    fn genome_key(m: &RrMatrix) -> Vec<u64> {
        m.as_matrix()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    /// Evaluates a matrix into the paper's reporting convention, consulting
    /// the genome-keyed cache first. Engine-evaluated individuals are
    /// therefore never recomputed when they are later offered to Ω or
    /// reported from the archive.
    pub fn evaluate_matrix(&self, m: &RrMatrix) -> Evaluation {
        let key = Self::genome_key(m);
        if let Some(cached) = self.cache.lock().expect("cache lock").get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return *cached;
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let evaluation = self.compute_evaluation(m);
        let mut cache = self.cache.lock().expect("cache lock");
        if cache.len() >= self.cache_capacity {
            cache.clear();
        }
        cache.insert(key, evaluation);
        evaluation
    }

    /// Evaluates a whole batch of matrices, in input order — serially, or
    /// data-parallel across all cores when `parallel_evaluation` is
    /// configured and the batch is big enough to beat the fan-out
    /// overhead (see [`OptrrProblem::uses_parallel_for_batch`]).
    /// Evaluation is pure, so the parallel path returns bit-identical
    /// results. This is the single evaluation path shared by the engines
    /// (via [`emoo::Problem::evaluate_batch`]) and the baseline sweeps.
    pub fn evaluate_matrices(&self, matrices: &[RrMatrix]) -> Vec<Evaluation> {
        if !self.uses_parallel_for_batch(matrices.len()) {
            return matrices.iter().map(|m| self.evaluate_matrix(m)).collect();
        }
        // Resolve cache hits in one pre-pass and deduplicate repeated
        // genomes within the batch, so the parallel workers never touch
        // the lock and never compute the same matrix twice; evaluation is
        // pure, so the par_iter body is lock-free. Hit/miss accounting
        // matches the serial path: an in-batch duplicate counts as a hit.
        let keys: Vec<Vec<u64>> = matrices.iter().map(Self::genome_key).collect();
        let mut results: Vec<Option<Evaluation>> = {
            let cache = self.cache.lock().expect("cache lock");
            keys.iter().map(|key| cache.get(key).copied()).collect()
        };
        let mut position_of: HashMap<&[u64], usize> = HashMap::new();
        let mut unique_misses: Vec<usize> = Vec::new();
        let mut miss_slots: Vec<(usize, usize)> = Vec::new(); // (result idx, unique pos)
        for i in 0..matrices.len() {
            if results[i].is_some() {
                continue;
            }
            let position = *position_of.entry(keys[i].as_slice()).or_insert_with(|| {
                unique_misses.push(i);
                unique_misses.len() - 1
            });
            miss_slots.push((i, position));
        }
        let hits = (matrices.len() - unique_misses.len()) as u64;
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(unique_misses.len() as u64, Ordering::Relaxed);

        use rayon::prelude::*;
        let computed: Vec<Evaluation> = unique_misses
            .par_iter()
            .map(|&i| self.compute_evaluation(&matrices[i]))
            .collect();

        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (position, &i) in unique_misses.iter().enumerate() {
                if cache.len() >= self.cache_capacity {
                    cache.clear();
                }
                cache.insert(keys[i].clone(), computed[position]);
            }
        }
        for (i, position) in miss_slots {
            results[i] = Some(computed[position]);
        }
        results
            .into_iter()
            .map(|r| r.expect("every index resolved from cache or computation"))
            .collect()
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

    /// Computes an evaluation from scratch (cache miss path).
    fn compute_evaluation(&self, m: &RrMatrix) -> Evaluation {
        let max_post = match max_posterior(m, &self.prior) {
            Ok(v) => v,
            Err(_) => {
                return Evaluation {
                    privacy: 0.0,
                    mse: f64::INFINITY,
                    max_posterior: 1.0,
                    feasible: false,
                }
            }
        };
        let privacy_analysis = match analyze(m, &self.prior) {
            Ok(a) => a,
            Err(_) => {
                return Evaluation {
                    privacy: 0.0,
                    mse: f64::INFINITY,
                    max_posterior: max_post,
                    feasible: false,
                }
            }
        };
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
    type Genome = RrMatrix;

    fn num_objectives(&self) -> usize {
        2
    }

    fn random_genome<R: Rng + ?Sized>(&self, rng: &mut R) -> RrMatrix {
        let m = RrMatrix::random(self.num_categories(), rng)
            .expect("num_categories >= 2 validated at construction");
        if self.symmetric_only {
            self.symmetrize(&m)
        } else {
            m
        }
    }

    fn evaluate(&self, genome: &RrMatrix) -> Objectives {
        Self::objectives_from(&self.evaluate_matrix(genome))
    }

    fn evaluate_batch(&self, genomes: &[RrMatrix]) -> Vec<Objectives> {
        self.evaluate_matrices(genomes)
            .iter()
            .map(Self::objectives_from)
            .collect()
    }

    fn crossover<R: Rng + ?Sized>(
        &self,
        a: &RrMatrix,
        b: &RrMatrix,
        rng: &mut R,
    ) -> (RrMatrix, RrMatrix) {
        let (c1, c2) = column_swap_crossover(a, b, rng);
        if self.symmetric_only {
            (self.symmetrize(&c1), self.symmetrize(&c2))
        } else {
            (c1, c2)
        }
    }

    fn mutate<R: Rng + ?Sized>(&self, genome: &mut RrMatrix, rng: &mut R) {
        let mutated = proportional_column_mutation(genome, self.mutation_step, rng);
        *genome = if self.symmetric_only {
            self.symmetrize(&mutated)
        } else {
            mutated
        };
    }

    fn repair<R: Rng + ?Sized>(&self, genome: &mut RrMatrix, rng: &mut R) {
        let (repaired, _ok) = repair_to_delta_bound(genome, &self.prior, self.delta, rng);
        *genome = if self.symmetric_only {
            self.symmetrize(&repaired)
        } else {
            repaired
        };
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
        let obj = Problem::evaluate(&p, &m);
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
        let obj = Problem::evaluate(&p, &m);
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
        let obj = Problem::evaluate(&p, &m);
        assert_eq!(obj.value(0), INFEASIBLE_PENALTY);
    }

    #[test]
    fn random_genomes_have_the_right_size_and_validity() {
        let p = problem(0.8);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let g = Problem::random_genome(&p, &mut rng);
            assert_eq!(g.num_categories(), 5);
            assert!(g.as_matrix().is_column_stochastic(1e-9));
        }
    }

    #[test]
    fn repair_brings_genomes_inside_the_bound() {
        let p = problem(0.7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = warner(5, 0.95).unwrap();
        Problem::repair(&p, &mut g, &mut rng);
        let eval = p.evaluate_matrix(&g);
        assert!(eval.feasible, "max posterior {}", eval.max_posterior);
    }

    #[test]
    fn mutation_and_crossover_preserve_validity() {
        let p = problem(0.8);
        let mut rng = StdRng::seed_from_u64(4);
        let a = Problem::random_genome(&p, &mut rng);
        let b = Problem::random_genome(&p, &mut rng);
        let (c1, c2) = Problem::crossover(&p, &a, &b, &mut rng);
        assert!(c1.as_matrix().is_column_stochastic(1e-9));
        assert!(c2.as_matrix().is_column_stochastic(1e-9));
        let mut m = c1;
        Problem::mutate(&p, &mut m, &mut rng);
        assert!(m.as_matrix().is_column_stochastic(1e-9));
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
        assert!(g.is_symmetric());
        let h = Problem::random_genome(&p, &mut rng);
        let (c1, c2) = Problem::crossover(&p, &g, &h, &mut rng);
        assert!(c1.is_symmetric());
        assert!(c2.is_symmetric());
        let mut m = c1;
        Problem::mutate(&p, &mut m, &mut rng);
        assert!(m.is_symmetric());
        Problem::repair(&p, &mut m, &mut rng);
        assert!(m.is_symmetric());
        assert!(m.as_matrix().is_column_stochastic(1e-9));
    }

    #[test]
    fn evaluation_cache_hits_on_repeated_matrices() {
        let p = problem(0.8);
        let m = warner(5, 0.6).unwrap();
        let first = p.evaluate_matrix(&m);
        let (hits0, misses0) = p.cache_stats();
        assert_eq!((hits0, misses0), (0, 1));
        let second = p.evaluate_matrix(&m);
        let (hits1, misses1) = p.cache_stats();
        assert_eq!((hits1, misses1), (1, 1));
        assert_eq!(first, second);
        // A different matrix misses.
        let other = warner(5, 0.61).unwrap();
        let _ = p.evaluate_matrix(&other);
        assert_eq!(p.cache_stats(), (1, 2));
        // A clone starts cold.
        let fresh = p.clone();
        assert_eq!(fresh.cache_stats(), (0, 0));
        assert_eq!(fresh.evaluate_matrix(&m), first);
    }

    #[test]
    fn batch_evaluation_matches_pointwise_serial_and_parallel() {
        let matrices: Vec<RrMatrix> = (0..40)
            .map(|k| warner(5, 0.45 + 0.01 * k as f64).unwrap())
            .collect();
        for parallel in [false, true] {
            let cfg = OptrrConfig {
                parallel_evaluation: parallel,
                ..OptrrConfig::fast(0.8, 1)
            };
            let p = OptrrProblem::new(prior(), &cfg).unwrap();
            assert_eq!(p.parallel_evaluation(), parallel);
            let batch = p.evaluate_matrices(&matrices);
            let reference = problem(0.8);
            for (m, eval) in matrices.iter().zip(&batch) {
                let expected = reference.evaluate_matrix(m);
                assert_eq!(eval.privacy.to_bits(), expected.privacy.to_bits());
                assert_eq!(eval.mse.to_bits(), expected.mse.to_bits());
                assert_eq!(eval.feasible, expected.feasible);
            }
            // The trait-level batch hook agrees with pointwise evaluate.
            let objectives = Problem::evaluate_batch(&p, &matrices);
            for (m, o) in matrices.iter().zip(&objectives) {
                assert_eq!(o, &Problem::evaluate(&p, m));
            }
        }
    }

    #[test]
    fn small_batches_stay_serial_under_the_work_threshold() {
        // n=10 × 128 matrices is the benchmarked regression case (parallel
        // lost to serial): work 128·10³ = 128k < 400k must stay serial.
        let parallel_cfg = OptrrConfig {
            parallel_evaluation: true,
            ..OptrrConfig::fast(0.8, 1)
        };
        let uniform = |n: usize| Categorical::new(vec![1.0 / n as f64; n]).unwrap();
        let p10 = OptrrProblem::new(uniform(10), &parallel_cfg).unwrap();
        assert!(!p10.uses_parallel_for_batch(128));
        assert!(p10.uses_parallel_for_batch(400)); // 400k ≥ threshold
        let p20 = OptrrProblem::new(uniform(20), &parallel_cfg).unwrap();
        assert!(p20.uses_parallel_for_batch(128)); // 1.02M ≥ threshold
        assert!(!p20.uses_parallel_for_batch(40)); // 320k < threshold
        assert_eq!(PARALLEL_BATCH_MIN_WORK, 400_000);
        // With parallel evaluation off, the threshold never flips it on.
        let serial_cfg = OptrrConfig::fast(0.8, 1);
        let serial = OptrrProblem::new(uniform(20), &serial_cfg).unwrap();
        assert!(!serial.uses_parallel_for_batch(1 << 20));
    }

    #[test]
    fn above_threshold_parallel_batches_match_serial_bitwise() {
        // A batch big enough to actually take the parallel path at n=5
        // (3200·125 = 400k), checked against the serial reference.
        let matrices: Vec<RrMatrix> = (0..3200)
            .map(|k| warner(5, 0.21 + 0.000_2 * k as f64).unwrap())
            .collect();
        let parallel_cfg = OptrrConfig {
            parallel_evaluation: true,
            ..OptrrConfig::fast(0.8, 1)
        };
        let p = OptrrProblem::new(prior(), &parallel_cfg).unwrap();
        assert!(p.uses_parallel_for_batch(matrices.len()));
        let batch = p.evaluate_matrices(&matrices);
        let reference = problem(0.8);
        for (m, eval) in matrices.iter().zip(&batch) {
            let expected = reference.evaluate_matrix(m);
            assert_eq!(eval.privacy.to_bits(), expected.privacy.to_bits());
            assert_eq!(eval.mse.to_bits(), expected.mse.to_bits());
        }
    }

    #[test]
    fn objective_feasibility_screen_matches_evaluation() {
        let loose = problem(0.8);
        let feasible = warner(5, 0.6).unwrap();
        assert!(OptrrProblem::objectives_are_feasible(&Problem::evaluate(
            &loose, &feasible
        )));
        let strict = problem(0.5);
        let infeasible = warner(5, 0.98).unwrap();
        assert!(!OptrrProblem::objectives_are_feasible(&Problem::evaluate(
            &strict,
            &infeasible
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
