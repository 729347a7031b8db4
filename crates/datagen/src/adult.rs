//! Synthetic surrogate for the UCI Adult data set.
//!
//! The paper's Figure 5(c) experiment runs OptRR on the *first attribute*
//! of the UCI Adult data set (the `age` attribute), discretized so the
//! randomized-response technique applies. The Adult data set itself is not
//! available in this offline environment, so — per the substitution policy
//! in DESIGN.md — this module generates a synthetic surrogate whose
//! first-attribute marginal matches the well-known shape of Adult's `age`
//! column (a right-skewed, unimodal distribution peaked in the late 20s /
//! 30s range over ages 17–90), plus simplified marginals for a handful of
//! other attributes used by the mining examples.
//!
//! The Figure 5(c) experiment consumes only the single-attribute category
//! histogram, so a synthetic sample with the same marginal exercises the
//! identical code path; the absolute Pareto-front values differ slightly
//! from the paper but the comparison shape (OptRR dominating Warner) is
//! preserved.

use crate::dataset::CategoricalDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use stats::{assign_bins, Categorical, EqualWidthBins, Gamma, Result as StatsResult, Sampler};

/// Age range covered by the Adult data set.
pub const ADULT_AGE_MIN: f64 = 17.0;
/// Upper end of the Adult age range.
pub const ADULT_AGE_MAX: f64 = 90.0;

/// Configuration for generating the Adult surrogate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdultConfig {
    /// Number of records to generate (the real Adult training split has
    /// 32,561; the paper's experiment cost is dominated by the optimizer,
    /// not the data size).
    pub num_records: usize,
    /// Number of categories the continuous `age` attribute is discretized
    /// into (the paper uses the same `n = 10` shape as its synthetic data).
    pub age_bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdultConfig {
    fn default() -> Self {
        Self {
            num_records: 10_000,
            age_bins: 10,
            seed: 2008,
        }
    }
}

/// A generated Adult surrogate: the discretized first attribute (age) plus
/// categorical columns for the mining examples.
#[derive(Debug, Clone, PartialEq)]
pub struct AdultSurrogate {
    /// Configuration used.
    pub config: AdultConfig,
    /// Raw (continuous) ages before discretization.
    pub raw_ages: Vec<f64>,
    /// The binning applied to `raw_ages`.
    pub age_binning: EqualWidthBins,
    /// The discretized first attribute, ready for randomized response.
    pub age: CategoricalDataset,
    /// Work-class column (8 categories).
    pub workclass: CategoricalDataset,
    /// Education column (16 categories).
    pub education: CategoricalDataset,
    /// Marital-status column (7 categories).
    pub marital_status: CategoricalDataset,
    /// Occupation column (14 categories).
    pub occupation: CategoricalDataset,
}

impl AdultSurrogate {
    /// The attribute the paper's Figure 5(c) uses.
    pub fn first_attribute(&self) -> &CategoricalDataset {
        &self.age
    }
}

/// Published (approximate) marginal of the Adult `workclass` attribute:
/// heavily dominated by "Private".
fn workclass_marginal() -> Categorical {
    Categorical::from_weights(&[0.697, 0.079, 0.064, 0.043, 0.037, 0.031, 0.043, 0.006])
        .expect("static weights are valid")
}

/// Simplified, skewed marginal for the education attribute (16 levels,
/// dominated by HS-grad / some-college / bachelors).
fn education_marginal() -> Categorical {
    Categorical::from_weights(&[
        0.322, 0.223, 0.164, 0.055, 0.042, 0.033, 0.031, 0.027, 0.020, 0.018, 0.017, 0.014, 0.013,
        0.010, 0.006, 0.005,
    ])
    .expect("static weights are valid")
}

/// Simplified marginal for marital status (7 levels).
fn marital_marginal() -> Categorical {
    Categorical::from_weights(&[0.459, 0.328, 0.136, 0.031, 0.031, 0.013, 0.002])
        .expect("static weights are valid")
}

/// Simplified marginal for occupation (14 levels).
fn occupation_marginal() -> Categorical {
    Categorical::from_weights(&[
        0.127, 0.126, 0.124, 0.113, 0.101, 0.062, 0.061, 0.051, 0.047, 0.043, 0.030, 0.049, 0.031,
        0.035,
    ])
    .expect("static weights are valid")
}

/// Generates the Adult surrogate.
///
/// Ages are drawn from a shifted gamma distribution
/// (`17 + Gamma(shape = 2.9, scale = 7.3)` clamped to `[17, 90]`), which
/// reproduces the right-skewed, late-20s-peaked shape of the real `age`
/// marginal (mean ≈ 38.6, median ≈ 37); the other columns are drawn
/// independently from their published marginals. Independence across
/// columns is a simplification that does not affect the Figure 5(c)
/// experiment (single-attribute) and only mildly affects the mining
/// examples (documented there).
pub fn generate(config: &AdultConfig) -> StatsResult<AdultSurrogate> {
    if config.num_records == 0 {
        return Err(stats::StatsError::InvalidParameter {
            name: "num_records",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if config.age_bins == 0 {
        return Err(stats::StatsError::InvalidParameter {
            name: "age_bins",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Continuous ages from the shifted gamma model.
    let age_model = Gamma::new(2.9, 7.3)?;
    let raw_ages: Vec<f64> = (0..config.num_records)
        .map(|_| (ADULT_AGE_MIN + age_model.sample(&mut rng)).clamp(ADULT_AGE_MIN, ADULT_AGE_MAX))
        .collect();

    // Discretize ages over the full Adult range (not the sample range) so
    // bin semantics are stable across seeds.
    let age_binning = EqualWidthBins::new(ADULT_AGE_MIN, ADULT_AGE_MAX, config.age_bins)?;
    let age_records = assign_bins(&raw_ages, &age_binning);
    let age = CategoricalDataset::new(config.age_bins, age_records)?;

    let draw =
        |dist: &Categorical, rng: &mut StdRng, n: usize| -> StatsResult<CategoricalDataset> {
            CategoricalDataset::new(dist.num_categories(), dist.sample_many(rng, n))
        };

    let workclass = draw(&workclass_marginal(), &mut rng, config.num_records)?;
    let education = draw(&education_marginal(), &mut rng, config.num_records)?;
    let marital_status = draw(&marital_marginal(), &mut rng, config.num_records)?;
    let occupation = draw(&occupation_marginal(), &mut rng, config.num_records)?;

    Ok(AdultSurrogate {
        config: config.clone(),
        raw_ages,
        age_binning,
        age,
        workclass,
        education,
        marital_status,
        occupation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_shape() {
        let cfg = AdultConfig::default();
        assert_eq!(cfg.num_records, 10_000);
        assert_eq!(cfg.age_bins, 10);
        let s = generate(&cfg).unwrap();
        assert_eq!(s.age.len(), 10_000);
        assert_eq!(s.age.num_categories(), 10);
        assert_eq!(s.workclass.num_categories(), 8);
        assert_eq!(s.education.num_categories(), 16);
        assert_eq!(s.marital_status.num_categories(), 7);
        assert_eq!(s.occupation.num_categories(), 14);
        assert_eq!(s.first_attribute().num_categories(), 10);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(generate(&AdultConfig {
            num_records: 0,
            ..Default::default()
        })
        .is_err());
        assert!(generate(&AdultConfig {
            age_bins: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn ages_are_within_range_and_right_skewed() {
        let s = generate(&AdultConfig::default()).unwrap();
        assert!(s
            .raw_ages
            .iter()
            .all(|&a| (ADULT_AGE_MIN..=ADULT_AGE_MAX).contains(&a)));
        let mean = s.raw_ages.iter().sum::<f64>() / s.raw_ages.len() as f64;
        // Real Adult age mean is ~38.6.
        assert!((mean - 38.6).abs() < 2.0, "mean age {mean}");
        let median = stats::median(&s.raw_ages).unwrap();
        // Right-skewed: mean exceeds median.
        assert!(mean > median, "mean {mean} median {median}");
    }

    #[test]
    fn age_marginal_is_unimodal_and_skewed() {
        let s = generate(&AdultConfig::default()).unwrap();
        let d = s.age.empirical_distribution().unwrap();
        // The mode sits in the lower third of the binned range (ages ~25-40).
        assert!(d.mode() <= 3, "mode bin {}", d.mode());
        // The last bin (80-90) is nearly empty.
        assert!(d.prob(9) < 0.02);
        // Substantial mass near the mode.
        assert!(d.max_prob() > 0.15);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&AdultConfig::default()).unwrap();
        let b = generate(&AdultConfig::default()).unwrap();
        assert_eq!(a.age, b.age);
        assert_eq!(a.occupation, b.occupation);
        let c = generate(&AdultConfig {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a.age, c.age);
    }

    #[test]
    fn workclass_is_dominated_by_private() {
        let s = generate(&AdultConfig::default()).unwrap();
        let d = s.workclass.empirical_distribution().unwrap();
        assert_eq!(d.mode(), 0);
        assert!(d.prob(0) > 0.6);
    }

    #[test]
    fn static_marginals_are_valid_distributions() {
        for d in [
            workclass_marginal(),
            education_marginal(),
            marital_marginal(),
            occupation_marginal(),
        ] {
            assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
