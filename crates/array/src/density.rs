//! Array density metrics.
//!
//! The paper's headline trade-off is density vs coupling: the cell area
//! of a square array is `pitch²`, so halving the pitch quadruples the
//! density (§I cites pitches down to 1.5×eCD \[7\]).

use mramsim_units::Nanometer;

/// Storage density of a square 1-bit-per-cell array: bits per µm² at
/// the given pitch.
///
/// # Panics
///
/// Panics for a non-positive pitch.
///
/// # Examples
///
/// ```
/// use mramsim_array::array_density_bits_per_um2;
/// use mramsim_units::Nanometer;
///
/// // 90 nm pitch (SK hynix 4 Gb design point): ≈ 123 bits/µm².
/// let d = array_density_bits_per_um2(Nanometer::new(90.0));
/// assert!((d - 123.4).abs() < 1.0);
/// ```
#[must_use]
pub fn array_density_bits_per_um2(pitch: Nanometer) -> f64 {
    assert!(pitch.value() > 0.0, "pitch must be positive");
    1e6 / (pitch.value() * pitch.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn density(pitch_nm: f64) -> f64 {
        array_density_bits_per_um2(Nanometer::new(pitch_nm))
    }

    #[test]
    fn density_scales_inverse_square_with_pitch() {
        assert!((density(90.0) / density(180.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn paper_design_rule_density_gain() {
        // Moving from a conservative 200 nm pitch to 2×eCD = 70 nm for a
        // 35 nm device buys ≈ 8.2× density.
        let gain = density(70.0) / density(200.0);
        assert!(gain > 8.0 && gain < 8.4, "gain = {gain}");
    }

    #[test]
    fn unit_conversions_are_consistent() {
        // A 100 nm cell is 0.01 µm²: 100 bits per µm².
        assert!((density(100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_panics() {
        let _ = density(0.0);
    }
}
