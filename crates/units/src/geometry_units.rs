//! Length and area units.

unit_scalar! {
    /// Length in metres (SI base).
    Meter, "m"
}

unit_scalar! {
    /// Length in nanometres — the natural unit for device dimensions
    /// (eCD 35…175 nm, pitch 52.5…200 nm in the paper).
    ///
    /// # Examples
    ///
    /// ```
    /// use mramsim_units::Nanometer;
    /// let ecd = Nanometer::new(55.0);
    /// let pitch = ecd * 1.5; // high-density limit from the paper [7]
    /// assert_eq!(pitch.value(), 82.5);
    /// ```
    Nanometer, "nm"
}

unit_scalar! {
    /// Area in square metres.
    SquareMeter, "m^2"
}

impl Nanometer {
    /// Converts to metres.
    #[inline]
    #[must_use]
    pub fn to_meter(self) -> Meter {
        Meter::new(self.value() * 1e-9)
    }
}

impl Meter {
    /// Squares the length, yielding an area.
    #[inline]
    #[must_use]
    pub fn squared(self) -> SquareMeter {
        SquareMeter::new(self.value() * self.value())
    }
}

impl SquareMeter {
    /// Converts to square micrometres (the RA-product convention).
    #[inline]
    #[must_use]
    pub fn to_square_micrometer(self) -> f64 {
        self.value() * 1e12
    }
}

/// Area of a circular device with the given electrical critical diameter.
///
/// # Examples
///
/// ```
/// use mramsim_units::{Nanometer, circle_area};
/// let a = circle_area(Nanometer::new(55.0));
/// assert!((a.to_square_micrometer() - 2.376e-3).abs() < 1e-5);
/// ```
#[must_use]
pub fn circle_area(diameter: Nanometer) -> SquareMeter {
    let r = diameter.to_meter().value() / 2.0;
    SquareMeter::new(core::f64::consts::PI * r * r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanometer_meter_round_trip() {
        let d = Nanometer::new(87.5);
        assert!((d.to_meter().value() * 1e9 - 87.5).abs() < 1e-9);
    }

    #[test]
    fn circle_area_for_paper_device_sizes() {
        // eCD = 35 nm: A = π (17.5 nm)² ≈ 9.621e-16 m².
        let a = circle_area(Nanometer::new(35.0));
        assert!((a.value() - 9.621e-16).abs() / 9.621e-16 < 1e-3);
    }

    #[test]
    fn ra_area_convention_round_trips() {
        let a = SquareMeter::new(4.5e-12);
        assert!((a.to_square_micrometer() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn pitch_scaling_with_dimensionless_factor() {
        let ecd = Nanometer::new(35.0);
        assert_eq!((ecd * 3.0).value(), 105.0);
        assert_eq!((ecd * 1.5).value(), 52.5);
    }
}
