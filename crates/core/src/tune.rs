//! The parallel thresholds in force, as one readout.
//!
//! Two serial/parallel crossovers gate the search's data-parallel work:
//! [`emoo::kernel::DEFAULT_PARALLEL_MIN_PAIRS`] for the fitness-kernel
//! fill and [`PARALLEL_BATCH_MIN_WORK`] for batch evaluation and
//! [`Optimizer::optimize_many`](crate::Optimizer::optimize_many). Both are
//! fixed constants: every serial and parallel path in this workspace is
//! bitwise identical, so they only move wall-clock time, and the values
//! are the ones the benchmarks measure. [`tuning`] reports them for
//! benchmark headers.

use crate::problem::PARALLEL_BATCH_MIN_WORK;

/// The parallel thresholds this build runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Fresh-pair count at which the fitness-kernel fill goes parallel.
    pub kernel_min_pairs: usize,
    /// Batch work (`matrices × n³`) at which batch evaluation goes
    /// parallel.
    pub batch_min_work: usize,
    /// Always false: no threshold is measured at run time.
    pub calibrated: bool,
}

/// Returns the two fixed thresholds.
pub fn tuning() -> Tuning {
    Tuning {
        kernel_min_pairs: emoo::kernel::DEFAULT_PARALLEL_MIN_PAIRS,
        batch_min_work: PARALLEL_BATCH_MIN_WORK,
        calibrated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_reports_the_fixed_thresholds() {
        let t = tuning();
        assert_eq!(t.kernel_min_pairs, 32_768);
        assert_eq!(t.batch_min_work, 400_000);
        assert!(!t.calibrated);
    }
}
