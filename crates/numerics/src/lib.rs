//! Self-contained numerics substrate for `mramsim`.
//!
//! The offline Rust scientific-computing ecosystem is thin, so every
//! numerical tool the reproduction needs is implemented (and tested) here:
//!
//! * [`Vec3`] — 3-component vectors for Biot–Savart geometry,
//! * [`special`] — complete elliptic integrals `K`, `E` (off-axis loop
//!   field reference solution) and friends,
//! * [`optimize`] — Nelder–Mead simplex minimisation (the stack
//!   calibration, and the least-squares curve fit by which the paper
//!   extracts `Hk`, `Δ0`, §V-A),
//! * [`stats`] — descriptive statistics for device populations,
//! * [`dist`] — Normal sampling built on `rand` (process variation,
//!   thermal switching stochasticity) and the ziggurat standard normal
//!   behind the s-LLGS thermal field,
//! * [`histogram`] — switching-field histograms,
//! * [`pool`] — the work-stealing worker pool shared by the array
//!   sweeps, the batched field maps, and the `mramsim-engine`
//!   execution layer. It also sizes nested pools: a default pool
//!   opened inside a job of an `n`-item dispatch on `W` workers is
//!   `max(1, B / min(W, n))` wide, `B` being its dispatcher's width
//!   (the machine's at top level),
//! * [`hash`] — FNV-1a content-address hashing: the engine result
//!   cache's keys, the disk tier's checksums and the class seeds,
//! * [`memo`] — the one bounded, exact-key memo behind every
//!   in-process cache: stray-field kernels, s-LLGS ensembles and
//!   scenario results.
//!
//! # Examples
//!
//! ```
//! use mramsim_numerics::{Vec3, special};
//!
//! let r = Vec3::new(3.0, 4.0, 0.0);
//! assert_eq!(r.norm(), 5.0);
//!
//! // K(0) = E(0) = π/2
//! let (k, e) = special::ellip_ke(0.0).unwrap();
//! assert!((k - std::f64::consts::FRAC_PI_2).abs() < 1e-14);
//! assert!((e - std::f64::consts::FRAC_PI_2).abs() < 1e-14);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod dist;
mod error;
pub mod hash;
pub mod histogram;
pub mod memo;
pub mod optimize;
pub mod pool;
pub mod special;
pub mod stats;
mod vec3;

pub use error::NumericsError;
pub use vec3::Vec3;

/// Convenience result alias for fallible numerics routines.
pub type Result<T> = core::result::Result<T, NumericsError>;
