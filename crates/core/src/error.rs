//! Unified error type for the experiment drivers.

use core::fmt;

/// Errors produced by calibration and experiment drivers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An experiment parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A device-model computation failed.
    Device(mramsim_mtj::MtjError),
    /// An array-level computation failed.
    Array(mramsim_array::ArrayError),
    /// A virtual measurement failed.
    Vlab(mramsim_vlab::VlabError),
    /// A numeric routine failed.
    Numerics(mramsim_numerics::NumericsError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
            Self::Device(e) => write!(f, "device model failed: {e}"),
            Self::Array(e) => write!(f, "array analysis failed: {e}"),
            Self::Vlab(e) => write!(f, "virtual measurement failed: {e}"),
            Self::Numerics(e) => write!(f, "numeric routine failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Device(e) => Some(e),
            Self::Array(e) => Some(e),
            Self::Vlab(e) => Some(e),
            Self::Numerics(e) => Some(e),
            Self::InvalidParameter { .. } => None,
        }
    }
}

impl From<mramsim_mtj::MtjError> for CoreError {
    fn from(e: mramsim_mtj::MtjError) -> Self {
        Self::Device(e)
    }
}

impl From<mramsim_array::ArrayError> for CoreError {
    fn from(e: mramsim_array::ArrayError) -> Self {
        Self::Array(e)
    }
}

impl From<mramsim_vlab::VlabError> for CoreError {
    fn from(e: mramsim_vlab::VlabError) -> Self {
        Self::Vlab(e)
    }
}

impl From<mramsim_numerics::NumericsError> for CoreError {
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
        assert_good::<CoreError>();
    }

    #[test]
    fn all_sources_are_chained() {
        use std::error::Error;
        let e: CoreError = mramsim_numerics::NumericsError::NoConvergence {
            algorithm: "nelder-mead",
            iterations: 1,
        }
        .into();
        assert!(e.source().is_some());
        let e: CoreError = mramsim_vlab::VlabError::FeatureNotFound { feature: "x" }.into();
        assert!(e.source().is_some());
    }
}
