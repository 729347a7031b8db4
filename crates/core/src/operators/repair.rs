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
//! `α` that satisfies the bound is found on the grid a 40-step bisection
//! ends on. Blending toward `U` decreases exactly the dominant (offending)
//! entries of each column and increases the small ones, preserves column
//! stochasticity and symmetry by construction, and converges for every
//! achievable bound because `max P(X|Y)` approaches `max_X P(X)` (its
//! Theorem 5 floor) as `α → 1`.
//!
//! The repair runs on every offspring, so it bisects only when it cannot
//! tell where the bisection ends. Each posterior constraint of the blend is
//! linear in `α`: the largest root of those lines names the grid point, and
//! two margins on the lines plus two checks confirm it, so a repair checks
//! three blends (with the floor), not 41. Each checked blend is built in
//! one reusable `n × n` scratch buffer, validated and renormalized by
//! [`rr::renormalize_columns`], the kernel [`RrMatrix::new`] itself runs,
//! and read by [`max_posterior_of`], the kernel behind `max_posterior`.
//! Every value is the same expression over the same operands, in the same
//! order, as in the bisection that built an `RrMatrix` per midpoint (the
//! test oracle `repair_by_rr_matrices`), and the search ends on its grid
//! point, so every repaired matrix and every flag is bit-identical; only
//! the returned matrix is allocated.
//!
//! Theorem 5 caveat: the bound can never be pushed below `max_X P(X)`, so
//! for priors whose mode already exceeds `δ` the repair reports failure and
//! the optimizer treats the matrix as infeasible via a fitness penalty.

use linalg::Matrix;
use rand::Rng;
use rr::metrics::bounds::max_posterior_of;
use rr::{renormalize_columns, RrMatrix};
use stats::Categorical;

/// Bits of the blend-weight grid `α = k / 2⁴⁰` the repair searches: the
/// points a 40-step bisection of `[0, 1]` ends on, ~1e-12 apart.
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

/// Each constraint `P(X = c_i | Y = c_j) ≤ d` of the exact uniform blend as
/// the line `(1 − α) a + α b` equal to `(P(X = c_i | Y = c_j) − d) P(Y = c_j)`:
/// `a = p_i θ_ji − d Σ_k p_k θ_jk` and `b = (p_i − d)/n`.
fn constraint_lines<'a>(
    m: &'a RrMatrix,
    prior: &'a Categorical,
    d: f64,
) -> impl Iterator<Item = (f64, f64)> + 'a {
    let (n, p) = (m.num_categories(), prior.probs());
    m.as_matrix()
        .as_slice()
        .chunks_exact(n)
        .flat_map(move |row| {
            let s: f64 = row.iter().zip(p).map(|(&t, &pk)| t * pk).sum();
            let line = move |(&t, &pi): (&f64, &f64)| (pi * t - d * s, (pi - d) / n as f64);
            row.iter().zip(p).map(line)
        })
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
    let d = delta + BOUND_TOLERANCE;
    let floor = blend_max_posterior(1.0);
    if floor > d {
        return (blend_with_uniform(m, 1.0), false);
    }

    // Bisecting `k` with `lo` infeasible and `hi` feasible ends where the
    // check flips. The exact blend meets the bound from the largest root of
    // a line violated at α = 0 on, the grid point `guess`. A computed
    // posterior or line carries under 3n + 10 roundings, so the check is
    // exact where the lines' maximum, a convex function, is beyond `noise`:
    // two margins show that for every grid point but `guess − 1` and
    // `guess`, and two checks settle those. Otherwise the bisection runs.
    let lines = || constraint_lines(m, prior, d);
    let margin = |alpha: f64| {
        lines()
            .map(|(a, b)| (1.0 - alpha) * a + alpha * b)
            .fold(f64::MIN, f64::max)
    };
    let noise = (4 * n + 16) as f64 * f64::EPSILON;
    let grid = 1u64 << BISECTION_STEPS;
    let at = |k: u64| k as f64 / grid as f64;
    let root = lines()
        .filter(|&(a, _)| a > 0.0)
        .map(|(a, b)| a / (a - b))
        .fold(0.0, f64::max);
    let guess = ((root * grid as f64).ceil() as u64).clamp(1, grid);
    let mut feasible = |k: u64| blend_max_posterior(at(k)) <= d;
    let settled = margin(at(guess.saturating_sub(2))) > noise
        && margin(at(guess + 1)).max(margin(1.0)) < -noise
        && feasible(guess)
        && !feasible(guess - 1);
    let (mut lo, mut hi) = if settled {
        (guess - 1, guess)
    } else {
        (0, grid)
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let repaired = blend_with_uniform(m, at(hi));
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
        assert!(repaired.as_matrix().is_column_diagonally_dominant());
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

        #[test]
        fn repair_edge_cases_are_bitwise_rr_matrix_bisection(
            raw in (2usize..=16).prop_flat_map(|n| proptest::collection::vec(0.01f64..1.0, n)),
            kind in 0u8..3,
            warner_p in 0.0f64..1.0,
            target in 0u8..3,
            step in 1u64..5,
            frac in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            // Every case gets past the fast path and the floor check, so
            // the search itself runs; δ sits at either end of its bracket
            // or anywhere between.
            let n = raw.len();
            let total: f64 = raw.iter().sum();
            let p = Categorical::new(raw.iter().map(|w| w / total).collect()).unwrap();
            let m = match kind {
                0 => RrMatrix::identity(n).unwrap(),
                1 => warner(n, warner_p).unwrap(),
                _ => RrMatrix::random(n, &mut StdRng::seed_from_u64(seed)).unwrap(),
            };
            let posterior_at = |alpha: f64| max_posterior(&blend_with_uniform(&m, alpha), &p).unwrap();
            let start = max_posterior(&m, &p).unwrap();
            let floor = posterior_at(1.0);
            // `bound` is δ + BOUND_TOLERANCE, the value the check compares with.
            let bound = match target {
                // Barely violated: the blend `step` grid points past α = 0
                // meets it, so the answer is near k = step.
                0 => posterior_at(step as f64 / (1u64 << BISECTION_STEPS) as f64),
                // Just above the Theorem 5 floor: the answer is near k = 2⁴⁰.
                1 => floor + 10f64.powf(-16.0 + 10.0 * frac),
                _ => floor + frac * (start - floor),
            };
            let delta = bound - BOUND_TOLERANCE;
            prop_assume!(0.0 < delta && delta <= 1.0);
            prop_assume!(start > delta + BOUND_TOLERANCE && floor <= delta + BOUND_TOLERANCE);
            let (got, ok) = repair_to_delta_bound(&m, &p, delta, &mut StdRng::seed_from_u64(seed));
            let (oracle, oracle_ok) = repair_by_rr_matrices(&m, &p, delta);
            prop_assert_eq!(ok, oracle_ok);
            for (a, b) in got.as_matrix().as_slice().iter().zip(oracle.as_matrix().as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
