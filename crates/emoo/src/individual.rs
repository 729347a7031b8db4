//! Individuals: a genome paired with its evaluated objectives and fitness.

use crate::objectives::Objectives;
use serde::{Deserialize, Serialize};

/// One member of a population or archive: the genome (generic payload) plus
/// its objective values and, once assigned, its SPEA2 fitness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual<G> {
    /// The genome (for OptRR, an RR matrix).
    pub genome: G,
    /// The evaluated objective vector (all objectives minimized).
    pub objectives: Objectives,
    /// SPEA2 fitness (raw fitness + density); lower is better. `None` until
    /// fitness assignment has run.
    pub fitness: Option<f64>,
}

impl<G> Individual<G> {
    /// Creates an individual with its objectives, fitness unassigned.
    pub fn new(genome: G, objectives: Objectives) -> Self {
        Self {
            genome,
            objectives,
            fitness: None,
        }
    }

    /// The assigned fitness, or `f64::INFINITY` when not yet assigned (so
    /// unassigned individuals never win selections by accident).
    pub fn fitness_or_worst(&self) -> f64 {
        self.fitness.unwrap_or(f64::INFINITY)
    }

    /// Whether SPEA2 considers this individual non-dominated (fitness < 1).
    pub fn is_nondominated(&self) -> bool {
        self.fitness.map(|f| f < 1.0).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_defaults() {
        let ind = Individual::new("genome", Objectives::pair(1.0, 2.0));
        assert_eq!(ind.genome, "genome");
        assert_eq!(ind.fitness, None);
        assert_eq!(ind.fitness_or_worst(), f64::INFINITY);
        assert!(!ind.is_nondominated());
    }

    #[test]
    fn fitness_thresholds() {
        let mut ind = Individual::new(1u32, Objectives::pair(0.0, 0.0));
        ind.fitness = Some(0.4);
        assert!(ind.is_nondominated());
        assert_eq!(ind.fitness_or_worst(), 0.4);
        ind.fitness = Some(1.7);
        assert!(!ind.is_nondominated());
    }
}
