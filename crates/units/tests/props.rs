//! Property tests for the unit system.

use mramsim_units::{
    circle_area, Ampere, Celsius, Joule, Kelvin, MagnetizationThickness, Meter, Nanometer, Oersted,
    ResistanceArea, Second,
};
use proptest::prelude::*;

proptest! {
    /// CGS↔SI field conversion round-trips to machine precision.
    #[test]
    fn oersted_si_round_trip(v in -1e6f64..1e6) {
        let h = Oersted::new(v);
        let back = h.to_ampere_per_meter().to_oersted();
        prop_assert!((back.value() - v).abs() <= 1e-9 * v.abs().max(1.0));
    }

    /// Field → flux density → field round-trips through µ0.
    #[test]
    fn tesla_round_trip(v in -1e7f64..1e7) {
        let h = mramsim_units::AmperePerMeter::new(v);
        let back = h.to_tesla().to_ampere_per_meter();
        prop_assert!((back.value() - v).abs() <= 1e-9 * v.abs().max(1.0));
    }

    /// Length conversions round-trip.
    #[test]
    fn length_round_trip(nm in 0.1f64..1e6) {
        let l = Nanometer::new(nm);
        prop_assert!((l.to_meter().value() * 1e9 - nm).abs() < 1e-9 * nm);
    }

    /// Temperature conversions round-trip and preserve ordering.
    #[test]
    fn temperature_round_trip(c1 in -200.0f64..500.0, c2 in -200.0f64..500.0) {
        let k1 = Celsius::new(c1).to_kelvin();
        let k2 = Celsius::new(c2).to_kelvin();
        prop_assert!((k1.value() - 273.15 - c1).abs() < 1e-9);
        prop_assert_eq!(c1 < c2, k1.value() < k2.value());
    }

    /// Circle area is monotone and quadratic in the diameter.
    #[test]
    fn circle_area_scaling(d in 1.0f64..1000.0) {
        let a1 = circle_area(Nanometer::new(d));
        let a2 = circle_area(Nanometer::new(2.0 * d));
        prop_assert!((a2.value() / a1.value() - 4.0).abs() < 1e-9);
    }

    /// eCD extraction inverts the RA/RP relation for any positive pair.
    #[test]
    fn ecd_extraction_inverts(ra in 0.5f64..50.0, ecd in 10.0f64..500.0) {
        let ra = ResistanceArea::new(ra);
        let rp = ra.resistance(circle_area(Nanometer::new(ecd)));
        let recovered = ra.ecd_from_rp(rp);
        prop_assert!((recovered.value() - ecd).abs() < 1e-6 * ecd);
    }

    /// Energy in kB·T units round-trips at any physical temperature.
    #[test]
    fn kbt_round_trip(delta in 1.0f64..200.0, t in 1.0f64..2000.0) {
        let e = Joule::new(delta * mramsim_units::constants::K_B * t);
        prop_assert!((e.in_units_of_kbt(Kelvin::new(t)) - delta).abs() < 1e-9 * delta);
    }

    /// Years conversion round-trips.
    #[test]
    fn years_round_trip(y in 1e-6f64..1e4) {
        let s = Second::from_years(y);
        prop_assert!((s.to_years() - y).abs() < 1e-9 * y);
    }

    /// Moment = (Ms·t)·A is linear in both factors.
    #[test]
    fn moment_linearity(mst in 1e-4f64..1e-2, ecd in 10.0f64..300.0, k in 0.1f64..10.0) {
        let base = MagnetizationThickness::new(mst).moment(circle_area(Nanometer::new(ecd)));
        let scaled = MagnetizationThickness::new(k * mst).moment(circle_area(Nanometer::new(ecd)));
        prop_assert!((scaled.value() / base.value() - k).abs() < 1e-9 * k);
    }

    /// Unit arithmetic: summation equals multiplication for repeats.
    #[test]
    fn sum_is_scalar_multiple(v in -1e3f64..1e3, n in 1usize..20) {
        let total: Ampere = std::iter::repeat_n(Ampere::new(v), n).sum();
        prop_assert!((total.value() - v * n as f64).abs() < 1e-9 * v.abs().max(1.0) * n as f64);
    }

    /// min/max/clamp are consistent.
    #[test]
    fn clamp_consistency(a in -1e3f64..1e3, lo in -1e3f64..0.0, hi in 0.0f64..1e3) {
        let x = Meter::new(a);
        let clamped = x.clamp(Meter::new(lo), Meter::new(hi));
        prop_assert!(clamped.value() >= lo && clamped.value() <= hi);
        prop_assert_eq!(
            clamped.value(),
            x.max(Meter::new(lo)).min(Meter::new(hi)).value()
        );
    }
}
