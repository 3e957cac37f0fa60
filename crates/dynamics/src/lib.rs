//! Stochastic LLGS macrospin dynamics for `mramsim`.
//!
//! The rest of the workspace evaluates the paper's *closed-form* models
//! (Sun's switching time, the Butler write-error rate, Eq. 2/Eq. 5
//! stray-field shifts). This crate adds the time domain: a stochastic
//! Landau–Lifshitz–Gilbert–Slonczewski (s-LLGS) macrospin integrator
//! whose coefficients are calibrated to the same extracted device
//! quantities, plus Monte-Carlo machinery to estimate write error rates
//! and switching-time distributions from trajectory ensembles.
//!
//! * [`MacrospinParams`] — calibrated LLGS coefficients per
//!   `(device, direction, temperature)` operating point; applied fields
//!   enter as an oersted `Hz` or an A/m vector, so a caller with an
//!   array stray-field kernel passes its total field (see
//!   [`crate::llgs`] for the model and the calibration contract),
//! * [`heun_step`] — the Stratonovich–Heun stepper on
//!   [`mramsim_numerics::Vec3`], over one replica's [`DriftCoeffs`],
//! * one lane-block kernel that steps 16 replicas in SoA form, each on
//!   its own coefficients, drive, noise scale and stream, so a block
//!   may mix ensembles. Each replica reads its thermal field off its
//!   own xoshiro256++ stream ([`llgs::replica_rng`]), whose states a
//!   block advances together: every component is a four-point
//!   increment matching the normal's first five moments, 3 bits of one
//!   word that serves 7 steps. Every output is bit-identical to the
//!   scalar reference [`run_replica`] for identical seeds, and
//!   [`MODEL_VERSION`] names the bits they produce,
//! * [`run_ensemble`] — N replicas of one ensemble through that kernel,
//!   fanned out on [`mramsim_numerics::pool`],
//! * [`wer_monte_carlo`] / [`switching_time_distribution`] — the
//!   Monte-Carlo estimators surfaced by the engine's `wer-mc` and
//!   `switch-traj` scenarios,
//! * [`wer_campaign`] — one WER ensemble per array cell (each under its
//!   own stray field and drive), packed densely across cells into lane
//!   blocks with deterministic per-cell FNV seed streams and streaming
//!   per-block aggregation; [`wer_campaign_seeded`] takes the seeds
//!   from the caller — the substrate of the window-class campaigns
//!   behind `array-wer` and `array-wer-shard`,
//! * [`EnsembleMemo`] — the shared bounded
//!   [`Memo`](mramsim_numerics::memo::Memo) in front of
//!   [`wer_campaign_seeded`], keyed by the exact bits of each
//!   ensemble's inputs, with single-flight batches that waiting and idle
//!   threads help run, so a campaign runs each distinct window once at
//!   any worker count.
//!
//! # Example: Monte-Carlo WER vs the analytic model
//!
//! ```
//! use mramsim_dynamics::{wer_monte_carlo, EnsemblePlan, MacrospinParams};
//! use mramsim_mtj::{presets, SwitchDirection};
//! use mramsim_numerics::pool::WorkerPool;
//! use mramsim_units::{Kelvin, Nanometer};
//!
//! let device = presets::imec_like(Nanometer::new(35.0))?;
//! let params = MacrospinParams::from_device(
//!     &device, SwitchDirection::PToAp, Kelvin::new(300.0))?;
//! let drive = 4.0 * params.critical_current();
//! let pulse = 6.0 * params.tau_d(drive);
//! let plan = EnsemblePlan::new(256, 7, 2e-12)?;
//! let mc = wer_monte_carlo(&params, drive, pulse, &plan, &WorkerPool::new(4));
//! let analytic = params.butler_wer(drive, pulse);
//! // Both models see an unreliable-to-reliable crossover here.
//! assert!(mc.wer < 0.5 && analytic < 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod campaign;
mod ensemble;
mod error;
pub mod llgs;
mod mc;
mod memo;
mod stream;

/// The version of the bits of every s-LLGS result, which the engine
/// folds into the cache address of each scenario that runs one
/// (`wer-mc`, `switch-traj`, `array-wer`, `array-wer-shard`). Bump it
/// with any change to the bits of an s-LLGS result, whether the
/// streams, the increments or the stepper, and commit the Monte-Carlo
/// goldens tagged with the new version.
///
/// Version 2: four-point thermal increments replaced the ziggurat
/// normals (version 1, the unversioned addresses before it).
pub const MODEL_VERSION: u32 = 2;

pub use campaign::{cell_seed, wer_campaign, wer_campaign_seeded, CellDrive};
pub use ensemble::{run_ensemble, run_replica, EnsemblePlan, ReplicaOutcome, LANES};
pub use error::DynamicsError;
pub use llgs::{heun_step, DriftCoeffs, MacrospinParams, GAMMA_0, GYROMAGNETIC_RATIO};
pub use mc::{switching_time_distribution, wer_monte_carlo, SwitchingTimes, WerEstimate};
pub use memo::EnsembleMemo;
