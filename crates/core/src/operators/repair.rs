//! "Meeting the privacy bound" repair (Section V.G of the paper).
//!
//! Equation (9) imposes a worst-case cap `max P(X | Y) ≤ δ` on how
//! confidently an adversary may recover any single value. After crossover
//! and mutation a candidate matrix can violate the cap; the repair operator
//! decreases the entries responsible for the excessive posteriors and
//! increases the remaining entries of the affected columns, as §V.G
//! prescribes.
//!
//! Implementation note: the paper describes the adjustment qualitatively
//! ("decrease the elements which make P(X|Y) too large ... and increase the
//! other elements in the same column"). We realize it as a *uniform-blend
//! contraction*: the matrix is mixed with the uniform matrix `U` (every
//! entry `1/n`), `M(α) = (1 − α) M + α U`, and the smallest mixing weight
//! `α` that satisfies the bound is found by bisection. Blending toward `U`
//! decreases exactly the dominant (offending) entries of each column and
//! increases the small ones, preserves column stochasticity and symmetry by
//! construction, and converges for every achievable bound because
//! `max P(X|Y)` approaches `max_X P(X)` (its Theorem 5 floor) as `α → 1`.
//!
//! The repair runs on every offspring, so its 40 bisection midpoints share
//! one reusable `n × n` scratch buffer. Each midpoint is blended into it,
//! then validated and renormalized by [`rr::renormalize_columns`], the
//! kernel [`RrMatrix::new`] itself runs. Its max posterior is then read by
//! [`max_posterior_of`], the allocation-free kernel behind
//! `max_posterior`. Every value is the same expression over the same
//! operands, in the same order, as building an `RrMatrix` per midpoint.
//! Only where the bytes live changes, so every repaired matrix and every
//! flag is bit-identical; only the returned matrix is allocated.
//!
//! Theorem 5 caveat: the bound can never be pushed below `max_X P(X)`, so
//! for priors whose mode already exceeds `δ` the repair reports failure and
//! the optimizer treats the matrix as infeasible via a fitness penalty.

use linalg::Matrix;
use rand::Rng;
use rr::metrics::bounds::max_posterior_of;
use rr::{renormalize_columns, RrMatrix};
use stats::Categorical;

/// Bisection iterations used to locate the smallest sufficient blend
/// weight; 40 iterations give ~1e-12 resolution on `α ∈ [0, 1]`.
const BISECTION_STEPS: usize = 40;

/// Tolerance used when checking the bound.
const BOUND_TOLERANCE: f64 = 1e-9;

/// Why a uniform blend always validates as an RR matrix.
const BLEND_IS_STOCHASTIC: &str = "a convex combination of stochastic matrices is stochastic";

/// Writes the raw uniform blend `(1 − α) M + α U` into `out`, an `n × n`
/// buffer, before any validation or renormalization.
fn write_blend(m: &RrMatrix, alpha: f64, out: &mut Matrix) {
    let uniform_entry = 1.0 / m.num_categories() as f64;
    for (o, &theta) in out.as_mut_slice().iter_mut().zip(m.as_matrix().as_slice()) {
        *o = (1.0 - alpha) * theta + alpha * uniform_entry;
    }
}

/// Returns the uniform blend `(1 − α) M + α U`.
fn blend_with_uniform(m: &RrMatrix, alpha: f64) -> RrMatrix {
    let n = m.num_categories();
    let mut out = Matrix::zeros(n, n);
    write_blend(m, alpha, &mut out);
    RrMatrix::new(out).expect(BLEND_IS_STOCHASTIC)
}

/// Repairs `m` toward the bound `max P(X | Y) ≤ δ` for the given prior.
///
/// Returns the repaired matrix together with a flag saying whether the
/// bound is actually satisfied afterwards (it cannot be when
/// `δ < max_X P(X)`, per Theorem 5). The bound is defined only for
/// `δ ∈ (0, 1]` and a prior with one probability per category, the domain
/// [`rr::metrics::bounds::satisfies_delta_bound`] enforces; outside it `m`
/// comes back unchanged with the flag `false`.
pub fn repair_to_delta_bound<R: Rng + ?Sized>(
    m: &RrMatrix,
    prior: &Categorical,
    delta: f64,
    _rng: &mut R,
) -> (RrMatrix, bool) {
    let n = m.num_categories();
    if !(0.0 < delta && delta <= 1.0) || prior.num_categories() != n {
        return (m.clone(), false);
    }
    let within = |theta: &Matrix, tol: f64| max_posterior_of(theta, prior) <= delta + tol;

    // Fast path: already feasible.
    if within(m.as_matrix(), BOUND_TOLERANCE) {
        return (m.clone(), true);
    }

    // Every candidate blend is built, validated, renormalized and checked
    // in this one buffer, exactly as `blend_with_uniform` would build it;
    // only the returned matrix is allocated as an `RrMatrix`.
    let mut scratch = Matrix::zeros(n, n);
    let mut blend_max_posterior = |alpha: f64| {
        write_blend(m, alpha, &mut scratch);
        renormalize_columns(&mut scratch).expect(BLEND_IS_STOCHASTIC);
        max_posterior_of(&scratch, prior)
    };

    // Even the fully uniform matrix cannot do better than the prior mode
    // (Theorem 5); check achievability at α = 1 first.
    let floor = blend_max_posterior(1.0);
    if floor > delta + BOUND_TOLERANCE {
        return (blend_with_uniform(m, 1.0), false);
    }

    // Bisect for the smallest α whose blend satisfies the bound. The
    // feasible set is an up-set in α for all practical matrices; the final
    // verification below guards the rare non-monotone corner case.
    let mut lo = 0.0_f64; // known infeasible
    let mut hi = 1.0_f64; // known feasible
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        if blend_max_posterior(mid) <= delta + BOUND_TOLERANCE {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let repaired = blend_with_uniform(m, hi);
    if within(repaired.as_matrix(), 1e-7) {
        (repaired, true)
    } else {
        // Non-monotone corner case: fall back to the fully blended matrix,
        // which we already verified satisfies the bound.
        (blend_with_uniform(m, 1.0), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::metrics::bounds::{max_posterior, satisfies_delta_bound};
    use rr::schemes::warner;

    fn prior() -> Categorical {
        Categorical::new(vec![0.35, 0.25, 0.2, 0.12, 0.08]).unwrap()
    }

    #[test]
    fn already_feasible_matrices_are_untouched() {
        let p = prior();
        let m = warner(5, 0.5).unwrap();
        assert!(satisfies_delta_bound(&m, &p, 0.8, 1e-9).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let (repaired, ok) = repair_to_delta_bound(&m, &p, 0.8, &mut rng);
        assert!(ok);
        assert!(repaired.approx_eq(&m, 1e-12));
    }

    #[test]
    fn violating_matrices_are_pushed_inside_the_bound() {
        let p = prior();
        let delta = 0.7;
        let m = warner(5, 0.95).unwrap();
        assert!(!satisfies_delta_bound(&m, &p, delta, 1e-9).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let (repaired, ok) = repair_to_delta_bound(&m, &p, delta, &mut rng);
        assert!(ok, "repair should achieve the bound");
        assert!(
            satisfies_delta_bound(&repaired, &p, delta, 1e-6).unwrap(),
            "max posterior {} exceeds delta {delta}",
            max_posterior(&repaired, &p).unwrap()
        );
        assert!(repaired.as_matrix().is_column_stochastic(1e-9));
    }

    #[test]
    fn repair_is_tight_rather_than_overshooting() {
        // The repaired matrix should sit close to the bound, not collapse to
        // the uniform matrix (which would needlessly destroy utility).
        let p = prior();
        let delta = 0.7;
        let m = warner(5, 0.95).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let (repaired, ok) = repair_to_delta_bound(&m, &p, delta, &mut rng);
        assert!(ok);
        let post = max_posterior(&repaired, &p).unwrap();
        assert!(post <= delta + 1e-6);
        assert!(
            post >= delta - 0.02,
            "repair overshot: posterior {post} far below {delta}"
        );
    }

    #[test]
    fn repair_handles_random_matrices() {
        let p = prior();
        let delta = 0.6;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let m = RrMatrix::random(5, &mut rng).unwrap();
            let (repaired, ok) = repair_to_delta_bound(&m, &p, delta, &mut rng);
            assert!(repaired.as_matrix().is_column_stochastic(1e-9));
            assert!(
                ok,
                "delta 0.6 exceeds the prior mode 0.35, so repair must succeed"
            );
            assert!(satisfies_delta_bound(&repaired, &p, delta, 1e-6).unwrap());
        }
    }

    #[test]
    fn identity_matrix_is_repaired_away_from_certainty() {
        let p = prior();
        let delta = 0.75;
        let id = RrMatrix::identity(5).unwrap();
        assert!((max_posterior(&id, &p).unwrap() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(4);
        let (repaired, ok) = repair_to_delta_bound(&id, &p, delta, &mut rng);
        assert!(ok);
        assert!(max_posterior(&repaired, &p).unwrap() <= delta + 1e-6);
    }

    #[test]
    fn unachievable_bound_reports_infeasible() {
        // Prior mode 0.9 exceeds delta = 0.5: Theorem 5 says no matrix can
        // satisfy the bound, so the repair must report failure (and still
        // return a valid matrix).
        let p = Categorical::new(vec![0.9, 0.05, 0.05]).unwrap();
        let m = warner(3, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (repaired, ok) = repair_to_delta_bound(&m, &p, 0.5, &mut rng);
        assert!(!ok);
        assert!(repaired.as_matrix().is_column_stochastic(1e-9));
        assert!(max_posterior(&repaired, &p).unwrap() >= p.max_prob() - 1e-9);
    }

    #[test]
    fn repaired_matrix_keeps_reasonable_utility_structure() {
        // The repair lowers the offending diagonal entries and raises the
        // small ones, but keeps the disguise structure: the repaired matrix
        // remains diagonally dominant.
        let p = prior();
        let m = warner(5, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let (repaired, ok) = repair_to_delta_bound(&m, &p, 0.75, &mut rng);
        assert!(ok);
        assert!(repaired.is_diagonally_dominant());
    }

    #[test]
    fn repair_preserves_symmetry() {
        let p = prior();
        let m = warner(5, 0.98).unwrap();
        assert!(m.is_symmetric());
        let mut rng = StdRng::seed_from_u64(7);
        let (repaired, ok) = repair_to_delta_bound(&m, &p, 0.7, &mut rng);
        assert!(ok);
        assert!(repaired.is_symmetric());
    }

    #[test]
    fn delta_outside_the_unit_interval_leaves_the_matrix_unrepaired() {
        // Every matrix meets a bound above one, and none meets a bound of
        // zero or NaN: the bound is undefined there, so the repair must not
        // blend the matrix toward uniform and must not claim success.
        let p = prior();
        let m = warner(5, 0.6).unwrap();
        for delta in [1.5, f64::NAN, 0.0] {
            let (repaired, ok) =
                repair_to_delta_bound(&m, &p, delta, &mut StdRng::seed_from_u64(9));
            assert!(!ok, "delta {delta} reported as met");
            assert_eq!(repaired, m, "delta {delta} changed the matrix");
        }
        // A prior of the wrong order is outside the same domain.
        let wrong = Categorical::uniform(4).unwrap();
        let (repaired, ok) = repair_to_delta_bound(&m, &wrong, 0.7, &mut StdRng::seed_from_u64(9));
        assert!(!ok);
        assert_eq!(repaired, m);
    }

    #[test]
    fn repair_is_deterministic_given_inputs() {
        let p = prior();
        let m = warner(5, 0.95).unwrap();
        let (a, _) = repair_to_delta_bound(&m, &p, 0.7, &mut StdRng::seed_from_u64(7));
        let (b, _) = repair_to_delta_bound(&m, &p, 0.7, &mut StdRng::seed_from_u64(8));
        // The repair uses no randomness, so different RNGs give the same result.
        assert!(a.approx_eq(&b, 1e-12));
    }

    /// The repair as it ran before the scratch buffer: one `RrMatrix` per
    /// bisection midpoint, checked with `satisfies_delta_bound`. Kept as the
    /// bitwise oracle for δ in (0, 1].
    fn repair_by_rr_matrices(m: &RrMatrix, prior: &Categorical, delta: f64) -> (RrMatrix, bool) {
        if satisfies_delta_bound(m, prior, delta, BOUND_TOLERANCE).unwrap_or(false) {
            return (m.clone(), true);
        }
        let fully_blended = blend_with_uniform(m, 1.0);
        let floor = max_posterior(&fully_blended, prior).unwrap_or(1.0);
        if floor > delta + BOUND_TOLERANCE {
            return (fully_blended, false);
        }
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            let candidate = blend_with_uniform(m, mid);
            if satisfies_delta_bound(&candidate, prior, delta, BOUND_TOLERANCE).unwrap_or(false) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let repaired = blend_with_uniform(m, hi);
        if satisfies_delta_bound(&repaired, prior, delta, 1e-7).unwrap_or(false) {
            (repaired, true)
        } else {
            (fully_blended, true)
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn scratch_repair_is_bitwise_rr_matrix_bisection(
            raw in (2usize..=12).prop_flat_map(|n| proptest::collection::vec(0.01f64..1.0, n)),
            seed in 0u64..u64::MAX,
            delta in 0.05f64..1.0,
        ) {
            // δ spans unachievable bounds (below the prior mode), tight
            // ones and already-met ones; matrices are random or Warner.
            let n = raw.len();
            let total: f64 = raw.iter().sum();
            let p = Categorical::new(raw.iter().map(|w| w / total).collect()).unwrap();
            let m = if seed % 2 == 0 {
                warner(n, (seed >> 8) as f64 / (1u64 << 56) as f64).unwrap()
            } else {
                RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap()
            };
            let (got, ok) = repair_to_delta_bound(&m, &p, delta, &mut StdRng::seed_from_u64(seed));
            let (oracle, oracle_ok) = repair_by_rr_matrices(&m, &p, delta);
            prop_assert_eq!(ok, oracle_ok);
            for (a, b) in got.as_matrix().as_slice().iter().zip(oracle.as_matrix().as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
