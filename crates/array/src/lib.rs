//! STT-MRAM array-level magnetic coupling for `mramsim`.
//!
//! Implements the paper's §IV-B: a victim cell C8 at the centre of a 3×3
//! array receives the inter-cell stray field
//!
//! `Hs_inter = Σᵢ (Hs_HL(Cᵢ) + Hs_RL(Cᵢ) + Hs_FL(Cᵢ))`, i = 0…7,
//!
//! where the FL term of each aggressor depends on its stored bit. The
//! 256 neighbourhood patterns `NP8` collapse into 25 symmetry classes
//! (#1s among the four direct neighbours × #1s among the four diagonal
//! neighbours — Fig. 4a), and the coupling strength is summarised by the
//! paper's coupling factor
//!
//! `Ψ = max-variation(Hz_s_inter) / Hc`.
//!
//! Every field goes through one [`StrayFieldKernel`] per design point,
//! memoised process-wide. Ring 1 is the paper's 3×3 sum; a kernel built
//! for a field tolerance also carries outer rings and an a-priori bound
//! on the tail beyond them, for the window-class campaigns of
//! `mramsim-faults`. [`ExtendedCoupling`] is the per-offset ring ledger
//! those outer rings are checked against.
//!
//! # Examples
//!
//! ```
//! use mramsim_array::{CouplingAnalyzer, NeighborhoodPattern};
//! use mramsim_mtj::presets;
//! use mramsim_units::Nanometer;
//!
//! // The SK hynix high-density design point: eCD = 55 nm, pitch = 90 nm.
//! let device = presets::imec_like(Nanometer::new(55.0))?;
//! let coupling = CouplingAnalyzer::new(device, Nanometer::new(90.0))?;
//! let lo = coupling.inter_hz(NeighborhoodPattern::ALL_P)?;
//! let hi = coupling.inter_hz(NeighborhoodPattern::ALL_AP)?;
//! // Paper Fig. 4a: −16 Oe … +64 Oe.
//! assert!(lo.value() < 0.0 && hi.value() > 50.0);
//! # Ok::<(), mramsim_array::ArrayError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod campaign;
mod cell_array;
mod coupling;
mod density;
mod error;
mod geometry;
mod grid;
mod hierarchy;
mod kernel;
mod pattern;
mod rings;
mod sweep;

pub use campaign::{cell_field_map, CellField, DataPattern};
pub use cell_array::CellArray;
pub use coupling::{CouplingAnalyzer, InterFieldBreakdown};
pub use density::array_density_bits_per_um2;
pub use error::ArrayError;
pub use geometry::{diagonal_neighbor_offsets, direct_neighbor_offsets, ring_offsets};
pub use grid::{Defect, GridClass, PatternGrid};
pub use hierarchy::HierarchicalKernel;
pub use kernel::{clear_kernel_cache, kernel_cache_stats, StrayFieldKernel};
pub use pattern::{NeighborhoodPattern, PatternClass};
pub use rings::ExtendedCoupling;
pub use sweep::{max_density_pitch, psi_vs_pitch, PsiPoint};
