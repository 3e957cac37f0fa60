//! The inter-cell coupling analyzer: `Hz_s_inter` at the victim's FL.

use crate::{ArrayError, NeighborhoodPattern, PatternClass, StrayFieldKernel};
use mramsim_mtj::MtjDevice;
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Nanometer, Oersted};

/// Decomposition of the inter-cell field into its physical parts.
///
/// The paper's Fig. 4a description is exactly this decomposition: a
/// fixed-layer baseline plus "a step of 15 Oe with the number of 1s in
/// direct neighbors and … 5 Oe with … diagonal neighbors".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterFieldBreakdown {
    /// Total fixed-layer (RL + HL) contribution of all 8 aggressors.
    pub fixed_total: Oersted,
    /// Change in `Hz_s_inter` when one *direct* neighbour flips P→AP.
    pub direct_step: Oersted,
    /// Change in `Hz_s_inter` when one *diagonal* neighbour flips P→AP.
    pub diagonal_step: Oersted,
}

/// Computes `Hz_s_inter` at the FL centre of a victim cell inside a 3×3
/// array, for any neighbourhood pattern, using the exact bound-current
/// loop model (no dipole approximation).
///
/// Per-neighbour contributions come from the shared [`StrayFieldKernel`]
/// — precomputed once per (device, pitch) and memoised process-wide, so
/// sweeps, fault simulators, and repeated analyzer builds at the same
/// design point pay the Biot–Savart cost exactly once. By symmetry all
/// four direct aggressors contribute identically, and likewise the four
/// diagonal ones — this is what collapses 256 patterns into the paper's
/// 25 classes.
///
/// # Examples
///
/// ```
/// use mramsim_array::CouplingAnalyzer;
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(55.0))?;
/// let c = CouplingAnalyzer::new(device, Nanometer::new(90.0))?;
/// let b = c.breakdown();
/// // Fig. 4a: ~15 Oe per direct flip, ~5 Oe per diagonal flip.
/// assert!((b.direct_step.value() - 15.0).abs() < 1.5);
/// assert!((b.diagonal_step.value() - 5.0).abs() < 1.0);
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingAnalyzer {
    device: MtjDevice,
    pitch: Nanometer,
    kernel: std::sync::Arc<StrayFieldKernel>,
    intra: Oersted,
}

impl CouplingAnalyzer {
    /// Builds the analyzer for a device placed on a square grid with the
    /// given pitch.
    ///
    /// # Errors
    ///
    /// * [`ArrayError::InvalidParameter`] when `pitch < eCD` (cells would
    ///   overlap) or is non-finite.
    /// * [`ArrayError::Device`] if loop construction fails.
    pub fn new(device: MtjDevice, pitch: Nanometer) -> Result<Self, ArrayError> {
        // One representative direct and one diagonal aggressor; the rest
        // follow by symmetry (verified in tests). The kernel is memoised
        // per (device, pitch) so repeated builds at a design point skip
        // the Biot–Savart work entirely.
        let kernel = StrayFieldKernel::shared(&device, pitch)?;
        let intra = Oersted::new(kernel.intra_hz() * OERSTED_PER_AMPERE_PER_METER);
        Ok(Self {
            device,
            pitch,
            kernel,
            intra,
        })
    }

    /// The device under analysis.
    #[must_use]
    pub fn device(&self) -> &MtjDevice {
        &self.device
    }

    /// The array pitch.
    #[must_use]
    pub fn pitch(&self) -> Nanometer {
        self.pitch
    }

    /// The victim's own intra-cell field `Hz_s_intra` (FL centre).
    #[must_use]
    pub fn intra_hz(&self) -> Oersted {
        self.intra
    }

    /// `Hz_s_inter` for a symmetry class (the Fig. 4a axes) — the
    /// kernel's arithmetic, converted to oersted.
    #[must_use]
    pub fn inter_hz_class(&self, class: PatternClass) -> Oersted {
        Oersted::new(self.kernel.inter_hz_class(class) * OERSTED_PER_AMPERE_PER_METER)
    }

    /// `Hz_s_inter` for a full neighbourhood pattern.
    ///
    /// # Errors
    ///
    /// Infallible for this analyzer; the `Result` keeps the signature
    /// uniform with the extended (5×5) analyzer.
    pub fn inter_hz(&self, np: NeighborhoodPattern) -> Result<Oersted, ArrayError> {
        Ok(self.inter_hz_class(np.class()))
    }

    /// Total stray field at the victim FL for a pattern:
    /// `Hz_stray = Hz_s_intra + Hz_s_inter` (the Eq. 2 / Eq. 5 input).
    #[must_use]
    pub fn total_hz(&self, np: NeighborhoodPattern) -> Oersted {
        self.intra + self.inter_hz_class(np.class())
    }

    /// The physical decomposition behind Fig. 4a.
    #[must_use]
    pub fn breakdown(&self) -> InterFieldBreakdown {
        let [direct, diagonal] = self.kernel.ring_one();
        InterFieldBreakdown {
            fixed_total: Oersted::new(
                4.0 * (direct.fixed_hz + diagonal.fixed_hz) * OERSTED_PER_AMPERE_PER_METER,
            ),
            direct_step: Oersted::new(
                (direct.fl_ap_hz - direct.fl_p_hz) * OERSTED_PER_AMPERE_PER_METER,
            ),
            diagonal_step: Oersted::new(
                (diagonal.fl_ap_hz - diagonal.fl_p_hz) * OERSTED_PER_AMPERE_PER_METER,
            ),
        }
    }

    /// The extreme values of `Hz_s_inter` over all 256 patterns,
    /// `(min, max)`, found by exhaustive scan.
    #[must_use]
    pub fn inter_hz_extremes(&self) -> (Oersted, Oersted) {
        let mut lo = Oersted::new(f64::INFINITY);
        let mut hi = Oersted::new(f64::NEG_INFINITY);
        for class in PatternClass::all() {
            let h = self.inter_hz_class(class);
            lo = lo.min(h);
            hi = hi.max(h);
        }
        (lo, hi)
    }

    /// The paper's "maximum variation in `Hz_s_inter` among the 256
    /// neighbourhood patterns" (80 Oe at eCD = 55 nm, pitch = 90 nm).
    #[must_use]
    pub fn max_variation(&self) -> Oersted {
        let (lo, hi) = self.inter_hz_extremes();
        hi - lo
    }

    /// The inter-cell magnetic coupling factor
    /// `Ψ = max-variation(Hz_s_inter)/Hc` (dimensionless, e.g. `0.02`
    /// for the paper's 2 % threshold).
    ///
    /// # Panics
    ///
    /// Panics for a non-positive coercivity.
    #[must_use]
    pub fn psi(&self, hc: Oersted) -> f64 {
        assert!(hc.value() > 0.0, "coercivity must be positive");
        self.max_variation() / hc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct_neighbor_offsets;
    use mramsim_magnetics::FieldSource;
    use mramsim_mtj::presets;
    use mramsim_numerics::Vec3;

    fn analyzer(ecd: f64, pitch: f64) -> CouplingAnalyzer {
        let device = presets::imec_like(Nanometer::new(ecd)).unwrap();
        CouplingAnalyzer::new(device, Nanometer::new(pitch)).unwrap()
    }

    /// The paper's Fig. 4a design point.
    fn sk_hynix() -> CouplingAnalyzer {
        analyzer(55.0, 90.0)
    }

    #[test]
    fn fig4a_extremes_match_paper() {
        // NP8 = 0 → ≈ −16 Oe; NP8 = 255 → ≈ +64 Oe.
        let c = sk_hynix();
        let lo = c.inter_hz(NeighborhoodPattern::ALL_P).unwrap();
        let hi = c.inter_hz(NeighborhoodPattern::ALL_AP).unwrap();
        assert!((lo.value() + 16.0).abs() < 4.0, "NP8=0: {lo}");
        assert!((hi.value() - 64.0).abs() < 6.0, "NP8=255: {hi}");
    }

    #[test]
    fn fig4a_steps_match_paper() {
        let b = sk_hynix().breakdown();
        assert!((b.direct_step.value() - 15.0).abs() < 1.0, "{:?}", b);
        assert!((b.diagonal_step.value() - 5.0).abs() < 0.8, "{:?}", b);
        assert!(b.fixed_total.value() > 0.0);
    }

    #[test]
    fn max_variation_is_80_oe_at_design_point() {
        let v = sk_hynix().max_variation();
        assert!((v.value() - 80.0).abs() < 4.0, "max variation {v}");
    }

    #[test]
    fn extremes_are_all_p_and_all_ap() {
        // Monotonicity in the number of 1s makes NP8 = 0 / 255 the
        // extreme patterns — verified exhaustively.
        let c = sk_hynix();
        let (lo, hi) = c.inter_hz_extremes();
        assert_eq!(
            lo.value(),
            c.inter_hz(NeighborhoodPattern::ALL_P).unwrap().value()
        );
        assert_eq!(
            hi.value(),
            c.inter_hz(NeighborhoodPattern::ALL_AP).unwrap().value()
        );
    }

    #[test]
    fn inter_field_is_monotone_in_ones() {
        let c = sk_hynix();
        // Adding a 1 anywhere never lowers Hz_s_inter.
        for class in PatternClass::all() {
            let h = c.inter_hz_class(class).value();
            if class.direct_ones < 4 {
                let up = c
                    .inter_hz_class(PatternClass {
                        direct_ones: class.direct_ones + 1,
                        ..class
                    })
                    .value();
                assert!(up > h);
            }
            if class.diagonal_ones < 4 {
                let up = c
                    .inter_hz_class(PatternClass {
                        diagonal_ones: class.diagonal_ones + 1,
                        ..class
                    })
                    .value();
                assert!(up > h);
            }
        }
    }

    #[test]
    fn every_pattern_matches_its_class_value() {
        let c = sk_hynix();
        for np in NeighborhoodPattern::all() {
            let by_pattern = c.inter_hz(np).unwrap();
            let by_class = c.inter_hz_class(np.class());
            assert_eq!(by_pattern.value(), by_class.value());
        }
    }

    #[test]
    fn neighbor_symmetry_holds_exactly() {
        // All four direct positions give identical Hz at the victim.
        let device = presets::imec_like(Nanometer::new(55.0)).unwrap();
        let stack = device.stack();
        let pitch = Nanometer::new(90.0);
        let hz_at = |x: f64, y: f64| -> f64 {
            stack
                .fixed_kinds_at(device.ecd(), x, y)
                .unwrap()
                .iter()
                .map(|s| s.hz(Vec3::ZERO))
                .sum()
        };
        let values: Vec<f64> = direct_neighbor_offsets(pitch)
            .into_iter()
            .map(|(x, y)| hz_at(x, y))
            .collect();
        for v in &values[1..] {
            assert!((v - values[0]).abs() < 1e-6 * values[0].abs().max(1e-9));
        }
    }

    #[test]
    fn coupling_decays_with_pitch() {
        let hc = presets::MEASURED_HC;
        let psi_90 = analyzer(55.0, 90.0).psi(hc);
        let psi_140 = analyzer(55.0, 140.0).psi(hc);
        let psi_200 = analyzer(55.0, 200.0).psi(hc);
        assert!(psi_90 > psi_140 && psi_140 > psi_200);
        // Paper Fig. 4b: Ψ ≈ 0 % at pitch = 200 nm.
        assert!(psi_200 < 0.005, "Ψ(200 nm) = {psi_200}");
    }

    #[test]
    fn paper_psi_quotes_for_35nm_device() {
        // Fig. 5 annotations: Ψ ≈ 1 % at 3×eCD and ≈ 7 % at 1.5×eCD.
        let hc = presets::MEASURED_HC;
        let psi3 = analyzer(35.0, 105.0).psi(hc);
        let psi15 = analyzer(35.0, 52.5).psi(hc);
        assert!((psi3 - 0.01).abs() < 0.004, "Ψ(3x) = {psi3}");
        assert!((psi15 - 0.07).abs() < 0.02, "Ψ(1.5x) = {psi15}");
    }

    #[test]
    fn total_field_is_intra_plus_inter() {
        let c = sk_hynix();
        let np = NeighborhoodPattern::new(0b0011_0101);
        let total = c.total_hz(np);
        let expect = c.intra_hz() + c.inter_hz(np).unwrap();
        assert!((total.value() - expect.value()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_cells_are_rejected() {
        let device = presets::imec_like(Nanometer::new(55.0)).unwrap();
        let err = CouplingAnalyzer::new(device, Nanometer::new(50.0)).unwrap_err();
        assert!(matches!(err, ArrayError::InvalidParameter { .. }));
    }
}
