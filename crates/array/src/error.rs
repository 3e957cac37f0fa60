//! Error type for array-level analyses.

use core::fmt;

/// Errors produced by array-level coupling analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArrayError {
    /// A geometric parameter (pitch, ring index) was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A cell address fell outside the array.
    InvalidAddress {
        /// Human-readable description.
        message: String,
    },
    /// The underlying device model failed.
    Device(mramsim_mtj::MtjError),
    /// A numeric search (e.g. the max-density pitch) failed.
    Numerics(mramsim_numerics::NumericsError),
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            Self::InvalidAddress { message } => write!(f, "invalid address: {message}"),
            Self::Device(e) => write!(f, "device model failed: {e}"),
            Self::Numerics(e) => write!(f, "numeric search failed: {e}"),
        }
    }
}

impl std::error::Error for ArrayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Device(e) => Some(e),
            Self::Numerics(e) => Some(e),
            Self::InvalidParameter { .. } | Self::InvalidAddress { .. } => None,
        }
    }
}

impl From<mramsim_mtj::MtjError> for ArrayError {
    fn from(e: mramsim_mtj::MtjError) -> Self {
        Self::Device(e)
    }
}

impl From<mramsim_numerics::NumericsError> for ArrayError {
    fn from(e: mramsim_numerics::NumericsError) -> Self {
        Self::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<ArrayError>();
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e: ArrayError = mramsim_numerics::NumericsError::NoConvergence {
            algorithm: "nelder-mead",
            iterations: 1,
        }
        .into();
        assert!(e.source().is_some());
    }
}
