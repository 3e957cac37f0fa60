//! Energy units.

unit_scalar! {
    /// Energy in joules (energy barriers `Eb = Δ·kB·T`).
    Joule, "J"
}

impl Joule {
    /// Expresses the energy in units of `kB·T` at the given temperature.
    ///
    /// This is exactly the thermal stability factor when applied to an
    /// MTJ energy barrier: `Δ = Eb / (kB·T)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mramsim_units::{Joule, Kelvin};
    /// let eb = Joule::new(45.5 * 1.380649e-23 * 300.0);
    /// assert!((eb.in_units_of_kbt(Kelvin::new(300.0)) - 45.5).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not a positive, finite absolute
    /// temperature.
    #[inline]
    #[must_use]
    pub fn in_units_of_kbt(self, temperature: crate::Kelvin) -> f64 {
        assert!(
            temperature.is_physical(),
            "temperature must be positive and finite"
        );
        self.value() / (crate::constants::K_B * temperature.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kelvin;

    #[test]
    fn kbt_round_trip() {
        let eb = Joule::new(45.5 * crate::constants::K_B * 300.0);
        assert!((eb.in_units_of_kbt(Kelvin::new(300.0)) - 45.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_temperature_panics() {
        let _ = Joule::new(1.0).in_units_of_kbt(Kelvin::new(-5.0));
    }
}
