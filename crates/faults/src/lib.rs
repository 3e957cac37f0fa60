//! Coupling-aware fault models and memory tests for STT-MRAM arrays.
//!
//! The paper's motivation (§I) is that inter-cell magnetic coupling
//! "may lead to write errors \[8\]", and its authors' companion work
//! (\[6\], \[14\], \[16\]) builds fault models and tests for STT-MRAM.
//! This crate closes that loop on top of the coupling engine:
//!
//! * [`CellArray`] — an N×M array of MTJ states with neighbourhood
//!   extraction (lives in `mramsim-array`, re-exported here),
//! * [`ArraySimulator`] — write/read operations whose success depends on
//!   the *actual data pattern around the victim* (write fails when the
//!   pattern-dependent switching time exceeds the pulse, Fig. 5 logic),
//! * [`classify_write_faults`] — per-transition classification of which
//!   neighbourhood patterns break a write at a given design point,
//! * [`sharded`] — the Monte-Carlo write campaign: one s-LLGS WER
//!   ensemble per stored-state window class of a (sharded) grid, under
//!   that window's stray field, next to the analytic path, each
//!   distinct window run once per memo; a whole-array shard at kernel
//!   radius 1 is the per-cell fault map,
//! * [`march`] — a March test engine (MATS+, March C−) that detects the
//!   resulting pattern-sensitive faults.
//!
//! # Examples
//!
//! ```
//! use mramsim_faults::{ArraySimulator, OpResult, WriteConditions};
//! use mramsim_mtj::{presets, MtjState};
//! use mramsim_units::{Nanometer, Nanosecond, Volt};
//!
//! // A design-rule-compliant array writes reliably:
//! let device = presets::imec_like(Nanometer::new(35.0))?;
//! let mut sim = ArraySimulator::new(
//!     device,
//!     Nanometer::new(70.0), // 2 x eCD
//!     8,
//!     8,
//!     WriteConditions {
//!         voltage: Volt::new(1.0),
//!         pulse: Nanosecond::new(20.0),
//!         ..WriteConditions::default()
//!     },
//! )?;
//! assert_eq!(sim.write(3, 4, MtjState::AntiParallel)?, OpResult::Ok);
//! assert_eq!(sim.read(3, 4)?, MtjState::AntiParallel);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod classify;
mod error;
pub mod march;
pub mod sharded;
mod simulator;

pub use classify::{classify_write_faults, WriteFault, WriteFaultReport};
pub use error::FaultsError;
pub use mramsim_array::CellArray;
pub use sharded::{
    class_seed, shard_wer_campaign, ArrayWerConfig, Ensembles, ShardPlan, ShardWerReport,
    SparseClassWer,
};
pub use simulator::{ArraySimulator, OpResult, WriteConditions};
