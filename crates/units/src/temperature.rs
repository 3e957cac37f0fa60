//! Temperature units. The paper sweeps operating temperature from 0 °C to
//! 150 °C (Fig. 6); thermodynamics wants kelvin.

unit_scalar! {
    /// Absolute temperature in kelvin.
    Kelvin, "K"
}

unit_scalar! {
    /// Temperature in degrees Celsius (presentation unit of Fig. 6).
    Celsius, "degC"
}

impl Celsius {
    /// Converts to kelvin.
    ///
    /// # Examples
    ///
    /// ```
    /// use mramsim_units::Celsius;
    /// assert_eq!(Celsius::new(27.0).to_kelvin().value(), 300.15);
    /// ```
    #[inline]
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.value() + 273.15)
    }
}

impl Kelvin {
    /// Returns `true` for a physically meaningful absolute temperature.
    #[inline]
    #[must_use]
    pub fn is_physical(self) -> bool {
        self.value() > 0.0 && self.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        for c in [0.0, 27.0, 85.0, 150.0] {
            let back = Celsius::new(c).to_kelvin().value() - 273.15;
            assert!((back - c).abs() < 1e-12);
        }
    }

    #[test]
    fn absolute_zero_is_not_physical() {
        assert!(!Kelvin::new(0.0).is_physical());
        assert!(!Kelvin::new(-1.0).is_physical());
        assert!(Kelvin::new(300.0).is_physical());
    }

    #[test]
    fn paper_sweep_range_in_kelvin() {
        assert!((Celsius::new(0.0).to_kelvin().value() - 273.15).abs() < 1e-12);
        assert!((Celsius::new(150.0).to_kelvin().value() - 423.15).abs() < 1e-12);
    }
}
