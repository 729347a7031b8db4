//! The benchmark-header readout of the parallel thresholds.
//!
//! A run is serial inside: the fitness-kernel fill and batch evaluation
//! each have one path, and runs go parallel only with each other, on the
//! serving layer's worker pool. The thresholds that once picked a
//! parallel path inside a run are gone; [`tuning`] still reports them,
//! as `usize::MAX` ("never"), because benchmark headers print its fields.

/// The parallel thresholds this build runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Fresh-pair count at which the fitness-kernel fill goes parallel:
    /// `usize::MAX`, never.
    pub kernel_min_pairs: usize,
    /// Batch work (`matrices × n³`) at which batch evaluation goes
    /// parallel: `usize::MAX`, never.
    pub batch_min_work: usize,
    /// Always false: no threshold is measured at run time.
    pub calibrated: bool,
}

/// Returns the thresholds: never, for both, since nothing inside a run
/// goes parallel.
pub fn tuning() -> Tuning {
    Tuning {
        kernel_min_pairs: usize::MAX,
        batch_min_work: usize::MAX,
        calibrated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_reports_the_fixed_thresholds() {
        let t = tuning();
        assert_eq!(t.kernel_min_pairs, usize::MAX);
        assert_eq!(t.batch_min_work, usize::MAX);
        assert!(!t.calibrated);
    }
}
