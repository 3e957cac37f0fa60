//! Virtual measurement lab for `mramsim`.
//!
//! The paper calibrates its coupling model against IMEC silicon: VSM
//! blanket measurements, 1000-point R-H hysteresis loops, 1000-cycle
//! switching-probability statistics, and the Thomas et al. \[21\]
//! extraction of `Hk` and `Δ0`. We have no wafers, so this crate builds
//! the closest synthetic equivalent that exercises the same code paths
//! (the VSM's layer `Ms·t` values are the stack's own, with no
//! instrument in between):
//!
//! 1. [`Wafer`] generates device populations from a ground-truth
//!    [`mramsim_mtj::MtjDevice`] plus [`ProcessVariation`],
//! 2. [`RhLoopTester`] sweeps the field and reads resistance, with
//!    thermally stochastic switching (the Sharrock physics of
//!    [`mramsim_mtj::SharrockModel`]),
//! 3. [`analyze_loop`] extracts `Hsw_p`, `Hsw_n`, `Hc`, `Hoffset`
//!    (⇒ `Hz_s_intra = −Hoffset`), `RP`, and the eCD from `RA/RP`
//!    exactly as §III describes,
//! 4. [`SwitchingProbe`] + [`fit_sharrock`] recover `Hk` and `Δ0` from
//!    switching-probability-vs-field data by a least-squares fit of the
//!    Sharrock model.
//!
//! Because the ground truth is known, the whole paper §III→§IV pipeline
//! (measure → extract → calibrate) becomes a testable loop: extraction
//! must recover what generation planted.
//!
//! # Examples
//!
//! ```
//! use mramsim_vlab::{analyze_loop, RhLoopTester};
//! use mramsim_mtj::presets;
//! use mramsim_units::Nanometer;
//! use rand::SeedableRng;
//!
//! let device = presets::imec_like(Nanometer::new(55.0))?;
//! let tester = RhLoopTester::paper_setup();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rh = tester.run(&device, &mut rng)?;
//! let x = analyze_loop(&rh, device.electrical().ra())?;
//! // The loop is offset to the positive side (Fig. 2a).
//! assert!(x.h_offset.value() > 0.0);
//! assert!((x.ecd.value() - 55.0).abs() < 2.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod extraction;
mod loop_analysis;
mod probe;
mod rh_loop;
mod variation;
mod wafer;

pub use error::VlabError;
pub use extraction::{
    fit_sharrock, fit_sharrock_from_probe, intra_field_study, IntraFieldPoint, SharrockFit,
};
pub use loop_analysis::{analyze_loop, LoopExtraction};
pub use probe::{SwitchingProbe, SwitchingProbePoint};
pub use rh_loop::{RhLoop, RhLoopTester};
pub use variation::ProcessVariation;
pub use wafer::{DeviceUnderTest, Wafer, WaferSpec};
