//! Configuration of the OptRR search.

use crate::error::{OptrrError, Result};
use emoo::{EngineConfig, EngineKind};
use serde::{Deserialize, Serialize};

/// Full configuration of an OptRR optimization run.
///
/// Defaults follow the paper's experimental setup where stated
/// (`δ` varies per figure; population/archive sizes are not stated in the
/// paper, so the defaults here are chosen to converge well within seconds
/// on the paper's 10-category workloads while keeping the 20,000-iteration
/// budget feasible for the full-fidelity experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptrrConfig {
    /// Worst-case privacy bound `δ` of Equation (9): the largest allowed
    /// posterior `P(X | Y)`.
    pub delta: f64,
    /// Number of records `N` of the data set being disguised (enters the
    /// closed-form MSE of Theorem 6).
    pub num_records: u64,
    /// Size of the optimal set Ω (number of privacy-indexed slots).
    pub omega_slots: usize,
    /// Shared EMOO engine parameters (population, archive, generations…).
    pub engine: EngineConfig,
    /// Which EMOO backend runs the search. The paper uses SPEA2; NSGA-II is
    /// the cross-check engine, selectable purely through configuration.
    pub engine_kind: EngineKind,
    /// When `Some(g)`, stop early if Ω has not improved for `g` consecutive
    /// generations (the paper's second termination criterion, §V.I).
    pub stagnation_generations: Option<usize>,
    /// Restrict the search to symmetric matrices only (the FRAPP
    /// restriction); used by the A-SYM ablation. OptRR proper leaves this
    /// `false`.
    pub symmetric_only: bool,
    /// Seed part of the initial population with matrices from the Warner
    /// baseline sweep (repaired to the δ bound). This is an engineering
    /// enhancement over the paper's purely random initialization — it
    /// shortens the number of generations needed to match the baseline
    /// front before improving on it, and the `exp_ablation_seeding`
    /// experiment quantifies its effect. Set to `false` for the paper's
    /// original random initialization.
    pub seed_with_baselines: bool,
    /// RNG seed for the whole run.
    pub seed: u64,
}

impl Default for OptrrConfig {
    fn default() -> Self {
        Self {
            delta: 0.75,
            num_records: 10_000,
            omega_slots: 1_000,
            engine: EngineConfig {
                population_size: 60,
                archive_size: 30,
                generations: 200,
                mutation_rate: 0.5,
                density_k: 1,
            },
            engine_kind: EngineKind::Spea2,
            stagnation_generations: None,
            symmetric_only: false,
            seed_with_baselines: true,
            seed: 2008,
        }
    }
}

impl OptrrConfig {
    /// A configuration sized for quick tests and examples (small population
    /// and few generations; still produces fronts that dominate Warner on
    /// the paper's workloads).
    pub fn fast(delta: f64, seed: u64) -> Self {
        Self {
            delta,
            engine: EngineConfig {
                population_size: 32,
                archive_size: 16,
                generations: 60,
                mutation_rate: 0.5,
                density_k: 1,
            },
            omega_slots: 500,
            seed,
            ..Self::default()
        }
    }

    /// A configuration approximating the paper's full experimental budget
    /// (the paper lets the evolution loop run 20,000 iterations).
    pub fn paper_fidelity(delta: f64, seed: u64) -> Self {
        Self {
            delta,
            engine: EngineConfig {
                population_size: 80,
                archive_size: 40,
                generations: 20_000,
                mutation_rate: 0.5,
                density_k: 1,
            },
            omega_slots: 1_000,
            seed,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.delta > 0.0 && self.delta <= 1.0) {
            return Err(OptrrError::InvalidConfig {
                reason: format!("delta must be in (0, 1], got {}", self.delta),
            });
        }
        if self.num_records == 0 {
            return Err(OptrrError::InvalidConfig {
                reason: "num_records must be positive".into(),
            });
        }
        if self.omega_slots == 0 {
            return Err(OptrrError::InvalidConfig {
                reason: "omega_slots must be positive".into(),
            });
        }
        if let Some(0) = self.stagnation_generations {
            return Err(OptrrError::InvalidConfig {
                reason: "stagnation_generations must be positive when set".into(),
            });
        }
        self.engine
            .validate()
            .map_err(|reason| OptrrError::Engine { reason })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(OptrrConfig::default().validate().is_ok());
        assert!(OptrrConfig::fast(0.75, 1).validate().is_ok());
        assert!(OptrrConfig::paper_fidelity(0.6, 1).validate().is_ok());
    }

    #[test]
    fn paper_fidelity_matches_stated_budget() {
        let cfg = OptrrConfig::paper_fidelity(0.8, 0);
        assert_eq!(cfg.engine.generations, 20_000);
        assert_eq!(cfg.delta, 0.8);
        assert_eq!(cfg.num_records, 10_000);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(OptrrConfig {
            delta: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OptrrConfig {
            delta: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OptrrConfig {
            delta: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OptrrConfig {
            num_records: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OptrrConfig {
            omega_slots: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OptrrConfig {
            stagnation_generations: Some(0),
            ..Default::default()
        }
        .validate()
        .is_err());
        let mut bad_engine = OptrrConfig::default();
        bad_engine.engine.population_size = 0;
        assert!(matches!(
            bad_engine.validate(),
            Err(OptrrError::Engine { .. })
        ));
    }
}
