//! Error type for the OptRR optimizer crate.

use std::fmt;

/// Errors produced by OptRR configuration, optimization, and reporting.
#[derive(Debug, Clone, PartialEq)]
pub enum OptrrError {
    /// A configuration value is outside its valid domain.
    InvalidConfig {
        /// Explanation of what is wrong.
        reason: String,
    },
    /// An error bubbled up from the randomized-response substrate.
    Rr(rr::RrError),
    /// An error bubbled up from the statistics substrate.
    Stats(stats::StatsError),
    /// An error reported by the generic EMOO engine.
    Engine {
        /// Explanation from the engine.
        reason: String,
    },
}

impl fmt::Display for OptrrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptrrError::InvalidConfig { reason } => {
                write!(f, "invalid OptRR configuration: {reason}")
            }
            OptrrError::Rr(e) => write!(f, "randomized response error: {e}"),
            OptrrError::Stats(e) => write!(f, "statistics error: {e}"),
            OptrrError::Engine { reason } => write!(f, "optimization engine error: {reason}"),
        }
    }
}

impl std::error::Error for OptrrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptrrError::Rr(e) => Some(e),
            OptrrError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stats::StatsError> for OptrrError {
    fn from(e: stats::StatsError) -> Self {
        OptrrError::Stats(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OptrrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        let c = OptrrError::InvalidConfig {
            reason: "delta out of range".into(),
        };
        assert!(c.to_string().contains("delta"));
        assert!(c.source().is_none());

        let r = OptrrError::Rr(rr::RrError::SingularMatrix);
        assert!(r.to_string().contains("singular"));
        assert!(r.source().is_some());

        let s: OptrrError = stats::StatsError::EmptyData.into();
        assert!(s.to_string().contains("statistics"));
        assert!(s.source().is_some());

        let e = OptrrError::Engine {
            reason: "bad config".into(),
        };
        assert!(e.to_string().contains("engine"));
    }
}
