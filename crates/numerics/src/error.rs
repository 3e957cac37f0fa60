//! Error type shared by the numerics routines.

use core::fmt;

/// Errors produced by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericsError {
    /// An iterative method did not converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An input fell outside the mathematical domain of the routine.
    InvalidDomain {
        /// Name of the routine rejecting the input.
        routine: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// Input collections had inconsistent or insufficient size.
    BadShape {
        /// Human-readable description of the shape mismatch.
        message: String,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            Self::InvalidDomain { routine, message } => {
                write!(f, "invalid input for {routine}: {message}")
            }
            Self::BadShape { message } => write!(f, "inconsistent input shape: {message}"),
        }
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<NumericsError>();
    }

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = NumericsError::NoConvergence {
            algorithm: "nelder-mead",
            iterations: 500,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("nelder-mead"));
        assert!(!msg.ends_with('.'));
    }
}
