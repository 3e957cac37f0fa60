//! Error type of the dynamics crate.

use core::fmt;

/// Errors of the s-LLGS solver and its Monte-Carlo estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsError {
    /// A solver or ensemble parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A device-model evaluation failed (thermal domain, construction).
    Mtj(mramsim_mtj::MtjError),
    /// A numerics routine rejected its input (histogram ranges, …).
    Numerics(mramsim_numerics::NumericsError),
}

impl fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            Self::Mtj(e) => write!(f, "device model: {e}"),
            Self::Numerics(e) => write!(f, "numerics: {e}"),
        }
    }
}

impl std::error::Error for DynamicsError {}

impl From<mramsim_mtj::MtjError> for DynamicsError {
    fn from(e: mramsim_mtj::MtjError) -> Self {
        Self::Mtj(e)
    }
}

impl From<mramsim_numerics::NumericsError> for DynamicsError {
    fn from(e: mramsim_numerics::NumericsError) -> Self {
        Self::Numerics(e)
    }
}
