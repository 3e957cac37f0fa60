//! Bound-current stray-field engine for `mramsim`.
//!
//! The paper's model (§IV-A) replaces each uniformly magnetised
//! ferromagnetic layer by its **bound current** `Ib = Ms·t` flowing around
//! the layer edge, and evaluates the stray field anywhere in space with a
//! discretised **Biot–Savart** sum over loop segments (Eq. 1). This crate
//! implements that engine plus independent reference solutions used to
//! validate it:
//!
//! * [`LoopSource`] — the paper's N-segment polygonal discretisation,
//! * [`AnalyticLoop`] — exact off-axis field via complete elliptic
//!   integrals,
//! * [`Dipole`] — point-dipole far-field approximation,
//! * [`SlicedLoop`] — a thick layer as a stack of sub-loops,
//! * [`SourceSet`] — superposition of any of the above,
//! * [`field_map`] — point lists and plane maps (Fig. 3c/3d).
//!
//! Conventions: positions are in **metres** ([`Vec3`]), currents in
//! **amperes**, fields in **A/m** (`H`, not `B`); use
//! [`mramsim_units::AmperePerMeter::to_oersted`] for presentation. A
//! positive loop current circulates counter-clockwise seen from +z and
//! produces a +z field at the loop centre (right-hand rule).
//!
//! # Examples
//!
//! ```
//! use mramsim_magnetics::{FieldSource, LoopSource, on_axis_field};
//! use mramsim_numerics::Vec3;
//!
//! // A free layer of an eCD = 55 nm device: Ib = Ms·t = 2.3 mA.
//! let fl = LoopSource::new(Vec3::ZERO, 27.5e-9, 2.3e-3, 256)?;
//! let h = fl.h_field(Vec3::new(0.0, 0.0, 10e-9));
//! let exact = on_axis_field(27.5e-9, 2.3e-3, 10e-9);
//! assert!((h.z - exact).abs() / exact < 5e-4);
//! # Ok::<(), mramsim_magnetics::MagneticsError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod analytic;
mod dipole;
mod error;
pub mod field_map;
mod loop_source;
mod superposition;

pub use analytic::{on_axis_field, AnalyticLoop};
pub use dipole::Dipole;
pub use error::MagneticsError;
pub use loop_source::{LoopSource, SlicedLoop, DEFAULT_SEGMENTS};
pub use superposition::{SourceKind, SourceSet};

use mramsim_numerics::Vec3;

/// A magnetic field source evaluated in free space.
///
/// Implementors return the magnetic field strength `H` in A/m at a point
/// given in metres. The trait is object-safe so heterogeneous sources can
/// be superposed in a [`SourceSet`].
pub trait FieldSource {
    /// The field `H` (A/m) at point `p` (metres).
    fn h_field(&self, p: Vec3) -> Vec3;

    /// The out-of-plane component `Hz` at `p`, in A/m.
    ///
    /// The paper's analysis is dominated by `Hz` (the in-plane component
    /// at the FL is marginal, §II-B), so this shortcut is used heavily.
    fn hz(&self, p: Vec3) -> f64 {
        self.h_field(p).z
    }

    /// Evaluates the field at many points at once, writing `H(points[i])`
    /// into `out[i]`.
    ///
    /// The default implementation is the scalar loop; batched sources
    /// ([`LoopSource`], [`AnalyticLoop`], [`SourceSet`]) override it to
    /// hoist per-source setup out of the per-point loop and evaluate a
    /// chunk of points per pass over the source geometry. Overrides must
    /// agree with [`FieldSource::h_field`] to ≤ 1e-12 relative error
    /// (guarded by parity tests in this crate).
    ///
    /// # Panics
    ///
    /// Panics when `points` and `out` differ in length.
    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        assert_eq!(
            points.len(),
            out.len(),
            "h_field_many needs one output slot per point"
        );
        for (p, o) in points.iter().zip(out.iter_mut()) {
            *o = self.h_field(*p);
        }
    }
}

impl<S: FieldSource + ?Sized> FieldSource for &S {
    fn h_field(&self, p: Vec3) -> Vec3 {
        (**self).h_field(p)
    }

    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        (**self).h_field_many(points, out);
    }
}

impl<S: FieldSource + ?Sized> FieldSource for Box<S> {
    fn h_field(&self, p: Vec3) -> Vec3 {
        (**self).h_field(p)
    }

    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        (**self).h_field_many(points, out);
    }
}
