//! The MTJ layer stack and its bound-current field image.

use crate::{FerroLayer, MtjError, MtjState};
use mramsim_magnetics::{
    AnalyticLoop, FieldSource, LoopSource, SourceKind, SourceSet, DEFAULT_SEGMENTS,
};
use mramsim_numerics::Vec3;
use mramsim_units::{AmperePerMeter, MagnetizationThickness, Nanometer, Oersted};

/// Which loop implementation the stack builds its bound-current field
/// sources with.
///
/// `Polygon` is the paper's N-segment Biot–Savart discretisation (Eq. 1,
/// speed knob = segment count); `Analytic` is the exact
/// elliptic-integral solution (the `--exact` accuracy backend of the
/// CLI ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopBackend {
    /// N-segment polygonal Biot–Savart loops ([`LoopSource`]).
    #[default]
    Polygon,
    /// Exact elliptic-integral loops ([`AnalyticLoop`]).
    Analytic,
}

impl LoopBackend {
    /// A short stable tag used in cache fingerprints.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::Polygon => "polygon",
            Self::Analytic => "analytic",
        }
    }
}

/// The magnetic stack of an MTJ device: the free layer plus the fixed
/// layers (RL, HL) that generate the intra-cell stray field.
///
/// Geometry convention: the FL mid-plane is `z = 0` for the device the
/// stack belongs to; fixed layers sit below at negative `z`.
///
/// # Examples
///
/// ```
/// use mramsim_mtj::{MtjStack, MtjState};
/// use mramsim_units::Nanometer;
///
/// let stack = MtjStack::builder().build_imec_like()?;
/// let hz = stack.intra_hz_at_fl_center(Nanometer::new(35.0))?;
/// // Calibrated anchor: ≈ −366 Oe at eCD = 35 nm (±7 % Ic shift, Fig. 4c).
/// assert!(hz.value() < -300.0 && hz.value() > -430.0);
/// # Ok::<(), mramsim_mtj::MtjError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MtjStack {
    fl_ms_t: MagnetizationThickness,
    fl_thickness: Nanometer,
    fixed: Vec<FerroLayer>,
    segments: usize,
    backend: LoopBackend,
}

impl MtjStack {
    /// Starts building a stack.
    #[must_use]
    pub fn builder() -> MtjStackBuilder {
        MtjStackBuilder::default()
    }

    /// The FL `Ms·t` product (magnitude).
    #[must_use]
    pub fn fl_ms_t(&self) -> MagnetizationThickness {
        self.fl_ms_t
    }

    /// The FL physical thickness.
    #[must_use]
    pub fn fl_thickness(&self) -> Nanometer {
        self.fl_thickness
    }

    /// The fixed (pinned) layers.
    #[must_use]
    pub fn fixed_layers(&self) -> &[FerroLayer] {
        &self.fixed
    }

    /// Biot–Savart segment count used for every loop built by this stack.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The loop implementation backing [`MtjStack::fl_kind_at`] and
    /// friends.
    #[must_use]
    pub fn backend(&self) -> LoopBackend {
        self.backend
    }

    /// One bound-current loop honouring the configured [`LoopBackend`].
    fn loop_kind(&self, center: Vec3, radius: f64, current: f64) -> Result<SourceKind, MtjError> {
        Ok(match self.backend {
            LoopBackend::Polygon => {
                SourceKind::Loop(LoopSource::new(center, radius, current, self.segments)?)
            }
            LoopBackend::Analytic => {
                SourceKind::Analytic(AnalyticLoop::new(center, radius, current)?)
            }
        })
    }

    /// Bound-current sources of the fixed layers of a device of diameter
    /// `ecd` centred at `(x, y)` metres (FL mid-plane at `z = 0`), as
    /// [`SourceKind`]s honouring the configured backend.
    ///
    /// # Errors
    ///
    /// Propagates [`MtjError::Magnetics`] for degenerate geometry.
    pub fn fixed_kinds_at(
        &self,
        ecd: Nanometer,
        x: f64,
        y: f64,
    ) -> Result<Vec<SourceKind>, MtjError> {
        let radius = ecd.to_meter().value() / 2.0;
        self.fixed
            .iter()
            .map(|layer| {
                self.loop_kind(
                    Vec3::new(x, y, layer.z_center().to_meter().value()),
                    radius,
                    layer.signed_sheet_current(),
                )
            })
            .collect()
    }

    /// The FL bound-current source of a device in the given state,
    /// centred at `(x, y)` metres, as a [`SourceKind`] honouring the
    /// configured backend.
    ///
    /// # Errors
    ///
    /// Propagates [`MtjError::Magnetics`] for degenerate geometry.
    pub fn fl_kind_at(
        &self,
        ecd: Nanometer,
        x: f64,
        y: f64,
        state: MtjState,
    ) -> Result<SourceKind, MtjError> {
        let radius = ecd.to_meter().value() / 2.0;
        self.loop_kind(
            Vec3::new(x, y, 0.0),
            radius,
            state.fl_direction() * self.fl_ms_t.value(),
        )
    }

    /// All three loops (FL + fixed) of a cell at `(x, y)` — what an
    /// *aggressor* cell contributes to a neighbour (paper §IV-B).
    ///
    /// # Errors
    ///
    /// Propagates [`MtjError::Magnetics`] for degenerate geometry.
    pub fn cell_sources_at(
        &self,
        ecd: Nanometer,
        x: f64,
        y: f64,
        state: MtjState,
    ) -> Result<SourceSet, MtjError> {
        let mut set: SourceSet = self.fixed_kinds_at(ecd, x, y)?.into_iter().collect();
        set.push(self.fl_kind_at(ecd, x, y, state)?);
        Ok(set)
    }

    /// The intra-cell stray field `Hz` from RL + HL at an arbitrary point
    /// of the device's own FL plane (`z = 0`, device centred at the
    /// origin), in A/m.
    ///
    /// # Errors
    ///
    /// Propagates [`MtjError::Magnetics`] for degenerate geometry.
    pub fn intra_hz_at(&self, ecd: Nanometer, point: Vec3) -> Result<AmperePerMeter, MtjError> {
        let sources = self.fixed_kinds_at(ecd, 0.0, 0.0)?;
        Ok(AmperePerMeter::new(
            sources.iter().map(|s| s.hz(point)).sum(),
        ))
    }

    /// The paper's calibration quantity: `Hz_s_intra` evaluated at the FL
    /// centre (§IV-A takes the centre value for Fig. 2b), in oersted.
    ///
    /// # Errors
    ///
    /// Propagates [`MtjError::Magnetics`] for degenerate geometry.
    pub fn intra_hz_at_fl_center(&self, ecd: Nanometer) -> Result<Oersted, MtjError> {
        Ok(self.intra_hz_at(ecd, Vec3::ZERO)?.to_oersted())
    }

    /// Returns a copy of the stack with the HL `Ms·t` scaled by `factor`
    /// — the single calibration knob used by the fitting pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`MtjError::InvalidParameter`] for a non-positive factor
    /// and [`MtjError::IncompleteStack`] if the stack has no HL.
    pub fn with_scaled_hl(&self, factor: f64) -> Result<Self, MtjError> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(MtjError::InvalidParameter {
                name: "factor",
                message: format!("HL scale factor must be positive, got {factor}"),
            });
        }
        let mut out = self.clone();
        let hl = out
            .fixed
            .iter_mut()
            .find(|l| l.name() == "HL")
            .ok_or(MtjError::IncompleteStack { missing: "HL" })?;
        *hl = FerroLayer::new(
            "HL",
            MagnetizationThickness::new(hl.ms_t().value() * factor),
            hl.orientation(),
            hl.z_center(),
            hl.thickness(),
        )?;
        Ok(out)
    }
}

/// Builder for [`MtjStack`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct MtjStackBuilder {
    fl_ms_t: MagnetizationThickness,
    fl_thickness: Nanometer,
    fixed: Vec<FerroLayer>,
    segments: usize,
    backend: LoopBackend,
}

impl Default for MtjStackBuilder {
    fn default() -> Self {
        Self {
            fl_ms_t: MagnetizationThickness::new(2.3e-3),
            fl_thickness: Nanometer::new(2.0),
            fixed: Vec::new(),
            segments: DEFAULT_SEGMENTS,
            backend: LoopBackend::default(),
        }
    }
}

impl MtjStackBuilder {
    /// Sets the free-layer `Ms·t` magnitude and thickness.
    pub fn free_layer(&mut self, ms_t: MagnetizationThickness, thickness: Nanometer) -> &mut Self {
        self.fl_ms_t = ms_t;
        self.fl_thickness = thickness;
        self
    }

    /// Adds a fixed layer (RL, HL, …).
    pub fn fixed_layer(&mut self, layer: FerroLayer) -> &mut Self {
        self.fixed.push(layer);
        self
    }

    /// Sets the Biot–Savart discretisation used for all loops.
    pub fn segments(&mut self, segments: usize) -> &mut Self {
        self.segments = segments;
        self
    }

    /// Sets the loop backend (polygonal Biot–Savart vs exact
    /// elliptic-integral loops).
    pub fn backend(&mut self, backend: LoopBackend) -> &mut Self {
        self.backend = backend;
        self
    }

    /// Builds the stack.
    ///
    /// # Errors
    ///
    /// * [`MtjError::InvalidParameter`] for a non-positive FL `Ms·t` or
    ///   thickness.
    /// * [`MtjError::IncompleteStack`] when no fixed layer was added.
    pub fn build(&self) -> Result<MtjStack, MtjError> {
        if !(self.fl_ms_t.value() > 0.0) || !self.fl_ms_t.is_finite() {
            return Err(MtjError::InvalidParameter {
                name: "fl_ms_t",
                message: format!("FL Ms*t must be positive, got {:?}", self.fl_ms_t),
            });
        }
        if !(self.fl_thickness.value() > 0.0) {
            return Err(MtjError::InvalidParameter {
                name: "fl_thickness",
                message: format!("FL thickness must be positive, got {:?}", self.fl_thickness),
            });
        }
        if self.fixed.is_empty() {
            return Err(MtjError::IncompleteStack { missing: "RL/HL" });
        }
        Ok(MtjStack {
            fl_ms_t: self.fl_ms_t,
            fl_thickness: self.fl_thickness,
            fixed: self.fixed.clone(),
            segments: self.segments,
            backend: self.backend,
        })
    }

    /// Builds the calibrated "imec-like" default stack (DESIGN.md §6):
    /// FL `Ms·t` = 2.06 mA; effective RL stray moment +0.07 mA at
    /// −3.0 nm; effective HL stray moment −1.43 mA at −7.85 nm.
    ///
    /// The FL value makes the *exact-loop* Fig. 4a steps land on the
    /// paper's 15 Oe (direct) and 5 Oe (diagonal) at eCD = 55 nm,
    /// pitch = 90 nm; a point-dipole estimate would have needed 2.3 mA.
    ///
    /// The RL/HL values are *net stray moments* after SAF balancing —
    /// the only observables the paper's measurements constrain.
    ///
    /// # Errors
    ///
    /// Same contract as [`MtjStackBuilder::build`].
    pub fn build_imec_like(&mut self) -> Result<MtjStack, MtjError> {
        use crate::Orientation;
        self.free_layer(MagnetizationThickness::new(2.06e-3), Nanometer::new(2.0));
        self.fixed = vec![
            FerroLayer::new(
                "RL",
                MagnetizationThickness::new(0.07e-3),
                Orientation::Up,
                Nanometer::new(-3.0),
                Nanometer::new(2.0),
            )?,
            FerroLayer::new(
                "HL",
                MagnetizationThickness::new(1.43e-3),
                Orientation::Down,
                Nanometer::new(-7.85),
                Nanometer::new(6.0),
            )?,
        ];
        self.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MtjStack {
        MtjStack::builder().build_imec_like().unwrap()
    }

    #[test]
    fn intra_field_is_negative_and_grows_as_device_shrinks() {
        let s = stack();
        let mut previous = 0.0;
        for ecd in [175.0, 90.0, 55.0, 35.0, 20.0] {
            let hz = s.intra_hz_at_fl_center(Nanometer::new(ecd)).unwrap();
            assert!(hz.value() < 0.0, "eCD {ecd}: {hz}");
            assert!(
                hz.value() < previous,
                "field must grow in magnitude as eCD shrinks: {ecd}"
            );
            previous = hz.value();
        }
    }

    #[test]
    fn calibrated_anchor_at_35nm() {
        // DESIGN.md anchor: Hz_s_intra(35 nm) ≈ −366 Oe ⇒ ±7.9 % Ic shift.
        let hz = stack().intra_hz_at_fl_center(Nanometer::new(35.0)).unwrap();
        assert!(
            (hz.value() + 366.0).abs() < 12.0,
            "Hz_s_intra(35) = {hz} (expected about -366 Oe)"
        );
    }

    #[test]
    fn fl_source_sign_tracks_state() {
        let s = stack();
        let current = |state| match s.fl_kind_at(Nanometer::new(55.0), 0.0, 0.0, state) {
            Ok(SourceKind::Loop(fl)) => fl.current(),
            other => panic!("a polygon stack built {other:?}"),
        };
        let (p, ap) = (current(MtjState::Parallel), current(MtjState::AntiParallel));
        assert!(p > 0.0);
        assert!(ap < 0.0);
        assert!((p + ap).abs() < 1e-15);
    }

    #[test]
    fn cell_sources_count_fl_plus_fixed() {
        let set = stack()
            .cell_sources_at(Nanometer::new(55.0), 9e-8, 0.0, MtjState::Parallel)
            .unwrap();
        assert_eq!(set.len(), 3); // RL + HL + FL
    }

    #[test]
    fn analytic_backend_agrees_with_a_fine_polygon() {
        let poly = stack();
        let exact = MtjStack::builder()
            .backend(LoopBackend::Analytic)
            .build_imec_like()
            .unwrap();
        assert_eq!(exact.backend(), LoopBackend::Analytic);
        let ecd = Nanometer::new(35.0);
        let a = poly.intra_hz_at_fl_center(ecd).unwrap().value();
        let b = exact.intra_hz_at_fl_center(ecd).unwrap().value();
        // 256 polygon segments are within 1e-4 relative of the exact
        // elliptic solution at the FL centre.
        assert!((a - b).abs() < 1e-3 * b.abs(), "polygon {a} vs exact {b}");
    }

    #[test]
    fn builder_requires_fixed_layers() {
        let err = MtjStack::builder().build().unwrap_err();
        assert!(matches!(err, MtjError::IncompleteStack { .. }));
    }

    #[test]
    fn hl_scaling_moves_the_intra_field() {
        let s = stack();
        let base = s.intra_hz_at_fl_center(Nanometer::new(35.0)).unwrap();
        let scaled = s
            .with_scaled_hl(1.2)
            .unwrap()
            .intra_hz_at_fl_center(Nanometer::new(35.0))
            .unwrap();
        assert!(scaled.value() < base.value(), "stronger HL ⇒ more negative");
        assert!(s.with_scaled_hl(0.0).is_err());
        assert!(s.with_scaled_hl(-1.0).is_err());
    }

    #[test]
    fn off_center_intra_field_magnitude_shrinks_at_35nm_edge() {
        // Fig. 3d: |Hz| smaller at the FL edge than at the centre.
        let s = stack();
        let ecd = Nanometer::new(35.0);
        let center = s.intra_hz_at(ecd, Vec3::ZERO).unwrap().value();
        let edge = s
            .intra_hz_at(ecd, Vec3::new(0.8 * 17.5e-9, 0.0, 0.0))
            .unwrap()
            .value();
        assert!(center.abs() > edge.abs(), "center {center}, edge {edge}");
    }
}
