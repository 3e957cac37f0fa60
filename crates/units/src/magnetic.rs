//! Magnetisation-related units: saturation magnetisation, sheet moment
//! (the `Ms·t` product), and magnetic moment.

use crate::geometry_units::{Nanometer, SquareMeter};

unit_scalar! {
    /// Saturation magnetisation `Ms` in A/m (SI).
    ///
    /// CGS emu/cm³ values convert as `1 emu/cm³ = 1000 A/m`.
    SaturationMagnetization, "A/m"
}

unit_scalar! {
    /// The `Ms·t` product of a ferromagnetic film, in amperes.
    ///
    /// This equals the bound surface current `Ib = Ms·t` that replaces a
    /// uniformly magnetised thin film in the paper's model (§IV-A), and is
    /// what vibrating-sample magnetometry measures at blanket level.
    MagnetizationThickness, "A"
}

unit_scalar! {
    /// Magnetic moment `m = Ms·A·t` in A·m².
    AmpereMeterSquared, "A*m^2"
}

impl SaturationMagnetization {
    /// Builds from a CGS value in emu/cm³.
    ///
    /// # Examples
    ///
    /// ```
    /// use mramsim_units::SaturationMagnetization;
    /// let ms = SaturationMagnetization::from_emu_per_cc(1150.0);
    /// assert_eq!(ms.value(), 1.15e6);
    /// ```
    #[inline]
    #[must_use]
    pub fn from_emu_per_cc(emu_cc: f64) -> Self {
        Self::new(emu_cc * 1000.0)
    }

    /// The `Ms·t` sheet product for a film of the given thickness.
    ///
    /// # Examples
    ///
    /// ```
    /// use mramsim_units::{SaturationMagnetization, Nanometer};
    /// let mst = SaturationMagnetization::new(1.15e6).sheet_product(Nanometer::new(2.0));
    /// assert!((mst.value() - 2.3e-3).abs() < 1e-12);
    /// ```
    #[inline]
    #[must_use]
    pub fn sheet_product(self, thickness: Nanometer) -> MagnetizationThickness {
        MagnetizationThickness::new(self.value() * thickness.to_meter().value())
    }
}

impl MagnetizationThickness {
    /// Magnetic moment of a film patterned to the given area,
    /// `m = (Ms·t)·A`.
    #[inline]
    #[must_use]
    pub fn moment(self, area: SquareMeter) -> AmpereMeterSquared {
        AmpereMeterSquared::new(self.value() * area.value())
    }

    /// Recovers `Ms` given the film thickness.
    ///
    /// # Panics
    ///
    /// Panics if `thickness` is zero.
    #[inline]
    #[must_use]
    pub fn ms(self, thickness: Nanometer) -> SaturationMagnetization {
        let t = thickness.to_meter().value();
        assert!(t != 0.0, "film thickness must be non-zero");
        SaturationMagnetization::new(self.value() / t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry_units::circle_area;

    #[test]
    fn emu_per_cc_round_trip() {
        let ms = SaturationMagnetization::from_emu_per_cc(600.0);
        assert!((ms.value() / 1000.0 - 600.0).abs() < 1e-12);
    }

    #[test]
    fn sheet_product_and_back() {
        let ms = SaturationMagnetization::new(1.1e6);
        let t = Nanometer::new(2.0);
        let mst = ms.sheet_product(t);
        assert!((mst.ms(t).value() - 1.1e6).abs() < 1e-3);
    }

    #[test]
    fn free_layer_moment_matches_hand_calculation() {
        // FL of the calibrated preset: Ms·t = 2.3 mA, eCD = 55 nm.
        let mst = MagnetizationThickness::new(2.3e-3);
        let m = mst.moment(circle_area(Nanometer::new(55.0)));
        assert!((m.value() - 5.465e-18).abs() / 5.465e-18 < 1e-3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_thickness_panics() {
        let _ = MagnetizationThickness::new(1e-3).ms(Nanometer::new(0.0));
    }
}
