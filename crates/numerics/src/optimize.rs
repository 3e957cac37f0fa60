//! Derivative-free optimisation: [`nelder_mead`], the downhill simplex
//! behind the stack calibration and the least-squares fit of `Hk` and
//! `Δ0` to switching-probability data (§V-A, after Thomas et al. \[21\]).

mod nelder_mead;

pub use nelder_mead::{nelder_mead, NelderMeadOptions, NelderMeadReport};
