//! Privacy and utility quantification (Section IV of the paper).
//!
//! * [`privacy`](mod@privacy) — the adversary's best individual-record estimate is the
//!   MAP (Bayes) estimate (Theorems 3 & 4); privacy is one minus its
//!   expected accuracy (Equation 8), with a per-value worst-case bound `δ`
//!   (Equation 9, Theorem 5).
//! * [`utility`](mod@utility) — the closed-form mean squared error of the inversion
//!   estimator (Theorem 6 / Equation 10), plus an empirical MSE used to
//!   cross-check the closed form and to re-score matrices under the
//!   iterative estimator (Figure 5(d)).
//! * [`bounds`] — the `max P(X|Y) ≤ δ` constraint handling shared by the
//!   metrics and the optimizer's repair operator.

pub mod bounds;
pub mod privacy;
pub mod utility;

pub use bounds::{max_posterior, posterior_matrix, satisfies_delta_bound};
pub use privacy::{adversary_accuracy, map_estimates, privacy, PrivacyAnalysis};
pub use utility::{empirical_mse, theoretical_mse, theoretical_mse_per_category, utility};
