//! Distribution reconstruction as a data-mining primitive.
//!
//! Every mining computation over randomized-response data reduces to
//! estimating probabilities of the original data from the disguised data.
//! This module wraps the two estimators of the `rr` crate behind a single
//! [`Reconstructor`] enum so the higher-level miners (association rules,
//! decision trees) can be run with either estimator — the configuration the
//! paper's Figure 5(d) validation uses.

use crate::error::Result;
use datagen::CategoricalDataset;
use rr::estimate::inversion::estimate_distribution;
use rr::estimate::iterative::{iterative_estimate, IterativeConfig};
use rr::RrMatrix;
use serde::{Deserialize, Serialize};
use stats::Categorical;

/// Which estimator to use when reconstructing original-data probabilities
/// from disguised data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Reconstructor {
    /// The matrix-inversion estimator of Theorem 1 (fast, closed form, but
    /// requires an invertible matrix).
    #[default]
    Inversion,
    /// The iterative EM-style estimator of Equation (3) (always on the
    /// simplex, works for singular matrices, slower).
    Iterative {
        /// Maximum iterations of the fixed-point update.
        max_iterations: usize,
        /// Convergence tolerance on the L1 change between iterates.
        tolerance: f64,
    },
}

impl Reconstructor {
    /// The iterative estimator with its default settings.
    pub fn iterative_default() -> Self {
        let cfg = IterativeConfig::default();
        Reconstructor::Iterative {
            max_iterations: cfg.max_iterations,
            tolerance: cfg.tolerance,
        }
    }

    /// Reconstructs the original-data distribution of a disguised data set.
    pub fn reconstruct(
        &self,
        matrix: &RrMatrix,
        disguised: &CategoricalDataset,
    ) -> Result<Categorical> {
        match self {
            Reconstructor::Inversion => Ok(estimate_distribution(matrix, disguised)?.distribution),
            Reconstructor::Iterative {
                max_iterations,
                tolerance,
            } => {
                let cfg = IterativeConfig {
                    max_iterations: *max_iterations,
                    tolerance: *tolerance,
                };
                Ok(iterative_estimate(matrix, disguised, &cfg)?.distribution)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rr::disguise::disguise_dataset;
    use rr::schemes::warner;
    use stats::divergence::total_variation;

    fn workload() -> (Categorical, CategoricalDataset) {
        let p = Categorical::new(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = CategoricalDataset::new(4, p.sample_many(&mut rng, 30_000)).unwrap();
        (p, data)
    }

    #[test]
    fn both_reconstructors_recover_the_distribution() {
        let (p, data) = workload();
        let m = warner(4, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let disguised = disguise_dataset(&m, &data, &mut rng).unwrap().disguised;

        for reconstructor in [Reconstructor::Inversion, Reconstructor::iterative_default()] {
            let est = reconstructor.reconstruct(&m, &disguised).unwrap();
            let err = total_variation(&est, &p).unwrap();
            assert!(err < 0.03, "{reconstructor:?} error {err}");
        }
    }

    #[test]
    fn default_is_inversion() {
        assert_eq!(Reconstructor::default(), Reconstructor::Inversion);
    }

    #[test]
    fn iterative_handles_singular_matrices() {
        let (_, data) = workload();
        let m = RrMatrix::uniform(4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let disguised = disguise_dataset(&m, &data, &mut rng).unwrap().disguised;
        assert!(Reconstructor::Inversion
            .reconstruct(&m, &disguised)
            .is_err());
        assert!(Reconstructor::iterative_default()
            .reconstruct(&m, &disguised)
            .is_ok());
    }
}
