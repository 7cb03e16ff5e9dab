//! Error type for the CDI pipeline.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CdiError>;

/// Errors produced by CDI computations.
#[derive(Debug, Clone, PartialEq)]
pub enum CdiError {
    /// An argument was outside its legal domain.
    InvalidArgument(String),
    /// An event name has no catalog entry.
    UnknownEvent(String),
    /// The input data cannot support the requested computation.
    Degenerate(String),
    /// A statistics routine failed underneath (weights use AHP).
    Stats(String),
    /// An integer damage integral left `u64` (more than 584 years of
    /// weight-1 damage): reported, never wrapped.
    Overflow(String),
}

impl CdiError {
    /// Shorthand constructor for [`CdiError::InvalidArgument`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        CdiError::InvalidArgument(msg.into())
    }

    /// Shorthand constructor for [`CdiError::Degenerate`].
    pub fn degenerate(msg: impl Into<String>) -> Self {
        CdiError::Degenerate(msg.into())
    }
}

impl fmt::Display for CdiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdiError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            CdiError::UnknownEvent(n) => write!(f, "unknown event name: {n}"),
            CdiError::Degenerate(m) => write!(f, "degenerate input: {m}"),
            CdiError::Stats(m) => write!(f, "statistics error: {m}"),
            CdiError::Overflow(m) => write!(f, "damage integral overflow: {m}"),
        }
    }
}

impl std::error::Error for CdiError {}

impl From<statskit::StatsError> for CdiError {
    fn from(e: statskit::StatsError) -> Self {
        CdiError::Stats(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(CdiError::invalid("x").to_string(), "invalid argument: x");
        assert_eq!(
            CdiError::UnknownEvent("slow_io".into()).to_string(),
            "unknown event name: slow_io"
        );
        assert_eq!(CdiError::degenerate("y").to_string(), "degenerate input: y");
    }

    #[test]
    fn converts_stats_errors() {
        let e: CdiError = statskit::StatsError::invalid("bad df").into();
        assert!(matches!(e, CdiError::Stats(_)));
    }
}
