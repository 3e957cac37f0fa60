//! Property tests for the numerics substrate.

use mramsim_numerics::optimize::{nelder_mead, NelderMeadOptions};
use mramsim_numerics::{dist, histogram::Histogram, special, stats, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn vec3() -> impl Strategy<Value = Vec3> {
    (-1e3f64..1e3, -1e3f64..1e3, -1e3f64..1e3).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    /// Lagrange identity: |a×b|² + (a·b)² = |a|²|b|².
    #[test]
    fn lagrange_identity(a in vec3(), b in vec3()) {
        let lhs = a.cross(b).norm_squared() + a.dot(b).powi(2);
        let rhs = a.norm_squared() * b.norm_squared();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * rhs.max(1.0));
    }

    /// Triangle inequality for the Euclidean norm.
    #[test]
    fn triangle_inequality(a in vec3(), b in vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    /// E(k) ≤ K(k), E decreasing, K increasing over the modulus range.
    #[test]
    fn elliptic_orderings(k1 in 0.0f64..0.99, k2 in 0.0f64..0.99) {
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let (klo, elo) = special::ellip_ke(lo).unwrap();
        let (khi, ehi) = special::ellip_ke(hi).unwrap();
        prop_assert!(elo <= klo + 1e-12 && ehi <= khi + 1e-12);
        prop_assert!(khi >= klo - 1e-12);
        prop_assert!(ehi <= elo + 1e-12);
    }

    /// erf is odd, bounded, and monotone.
    #[test]
    fn erf_properties(x1 in -5.0f64..5.0, x2 in -5.0f64..5.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!((special::erf(lo) + special::erf(-lo)).abs() < 1e-12);
        prop_assert!(special::erf(hi) >= special::erf(lo) - 1e-12);
        prop_assert!(special::erf(hi).abs() <= 1.0);
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(values in prop::collection::vec(-100.0f64..100.0, 1..40),
                           p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&values, lo).unwrap();
        let b = stats::percentile(&values, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
        let s = stats::Summary::of(&values).unwrap();
        prop_assert!(a >= s.min - 1e-12 && b <= s.max + 1e-12);
    }

    /// Histograms never lose observations.
    #[test]
    fn histogram_conserves_counts(values in prop::collection::vec(-10.0f64..10.0, 0..200)) {
        let mut h = Histogram::new(-5.0, 5.0, 10).unwrap();
        h.extend(values.iter().copied());
        prop_assert_eq!(h.total(), values.len() as u64);
    }

    /// Nelder–Mead finds the minimum of shifted quadratic bowls.
    #[test]
    fn nelder_mead_on_bowls(cx in -10.0f64..10.0, cy in -10.0f64..10.0) {
        let report = nelder_mead(
            |p| (p[0] - cx).powi(2) + 2.0 * (p[1] - cy).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions { max_evaluations: 4000, ..NelderMeadOptions::default() },
        ).unwrap();
        prop_assert!((report.x[0] - cx).abs() < 1e-3);
        prop_assert!((report.x[1] - cy).abs() < 1e-3);
    }

    /// Normal sampling stays within plausible bounds for its σ.
    #[test]
    fn normal_samples_are_bounded(seed in 0u64..1000, mean in -10.0f64..10.0, sd in 0.0f64..3.0) {
        let d = dist::Normal::new(mean, sd).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let x = d.sample(&mut rng);
            prop_assert!((x - mean).abs() <= 8.0 * sd + 1e-12);
        }
    }
}
