//! The paper's discretised current-loop model (Eq. 1).

use crate::{FieldSource, MagneticsError};
use mramsim_numerics::Vec3;

/// Default number of polygon segments per loop.
///
/// The polygonal approximation error scales as `1/N²`; 256 segments keep
/// the relative error below `1e-4` everywhere outside ~1 segment length
/// from the wire, which is far tighter than any device parameter is known.
pub const DEFAULT_SEGMENTS: usize = 256;

/// Points per lane block in the batched Biot–Savart kernel: each pass
/// over the segment arrays updates this many independent accumulators,
/// which is what lets the compiler vectorise across points.
const LANES: usize = 16;

/// Fused multiply-add where the target has hardware FMA; the separate
/// multiply+add otherwise (`mul_add` without hardware support falls
/// back to a libm call that is orders of magnitude slower).
#[inline(always)]
fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// A circular current loop discretised into straight segments, normal to
/// +z — the bound-current image of a uniformly magnetised thin layer.
///
/// The sign of `current` encodes the magnetisation direction: positive
/// current ≙ magnetisation along +z (right-hand rule).
///
/// Segment midpoints and direction vectors `dl` are precomputed once at
/// construction and stored in structure-of-arrays form, so every field
/// evaluation is a straight sweep over six flat `f64` arrays with no
/// per-point trigonometry.
///
/// # Examples
///
/// ```
/// use mramsim_magnetics::{FieldSource, LoopSource};
/// use mramsim_numerics::Vec3;
///
/// // Unit test against the textbook solenoid-center formula H = I/(2R):
/// let l = LoopSource::new(Vec3::ZERO, 0.05, 2.0, 512)?;
/// let h = l.h_field(Vec3::ZERO);
/// assert!((h.z - 2.0 / (2.0 * 0.05)).abs() / 20.0 < 1e-4);
/// # Ok::<(), mramsim_magnetics::MagneticsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSource {
    center: Vec3,
    radius: f64,
    current: f64,
    // Structure-of-arrays segment geometry: midpoints and dl vectors.
    // The loop is planar (normal +z), so every midpoint has z equal to
    // `center.z` and every dl has zero z — only the in-plane components
    // are stored. Derived deterministically from (center, radius,
    // current, len of the arrays), so the derived PartialEq/Clone keep
    // the same semantics as the old vertex-list representation.
    mid_x: Vec<f64>,
    mid_y: Vec<f64>,
    dl_x: Vec<f64>,
    dl_y: Vec<f64>,
}

impl LoopSource {
    /// Creates a loop at `center` (metres) with `radius` (metres) carrying
    /// `current` (amperes, signed), discretised into `segments` straight
    /// pieces.
    ///
    /// # Errors
    ///
    /// * [`MagneticsError::InvalidGeometry`] for a non-positive or
    ///   non-finite radius, or non-finite centre/current.
    /// * [`MagneticsError::InvalidDiscretisation`] for fewer than 8
    ///   segments.
    pub fn new(
        center: Vec3,
        radius: f64,
        current: f64,
        segments: usize,
    ) -> Result<Self, MagneticsError> {
        if !(radius > 0.0) || !radius.is_finite() || !center.is_finite() || !current.is_finite() {
            return Err(MagneticsError::InvalidGeometry {
                message: format!(
                    "loop needs finite centre, positive radius (got {radius}) and finite current"
                ),
            });
        }
        if segments < 8 {
            return Err(MagneticsError::InvalidDiscretisation {
                message: format!("need at least 8 segments, got {segments}"),
            });
        }
        // One vertex per segment boundary; the closing vertex is the
        // first one (no duplicated vertex is stored — only the derived
        // midpoints and dl vectors survive construction).
        let vertex = |k: usize| {
            let theta = 2.0 * core::f64::consts::PI * k as f64 / segments as f64;
            center + Vec3::new(radius * theta.cos(), radius * theta.sin(), 0.0)
        };
        let mut mid_x = Vec::with_capacity(segments);
        let mut mid_y = Vec::with_capacity(segments);
        let mut dl_x = Vec::with_capacity(segments);
        let mut dl_y = Vec::with_capacity(segments);
        for k in 0..segments {
            let a = vertex(k);
            let b = vertex(k + 1);
            let dl = b - a;
            let mid = a.lerp(b, 0.5);
            debug_assert!(dl.z == 0.0 && mid.z == center.z, "loop must be planar");
            mid_x.push(mid.x);
            mid_y.push(mid.y);
            dl_x.push(dl.x);
            dl_y.push(dl.y);
        }
        Ok(Self {
            center,
            radius,
            current,
            mid_x,
            mid_y,
            dl_x,
            dl_y,
        })
    }

    /// Creates a loop with the default segment count.
    ///
    /// # Errors
    ///
    /// Same as [`LoopSource::new`].
    pub fn with_default_segments(
        center: Vec3,
        radius: f64,
        current: f64,
    ) -> Result<Self, MagneticsError> {
        Self::new(center, radius, current, DEFAULT_SEGMENTS)
    }

    /// Loop centre (metres).
    #[must_use]
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Loop radius (metres).
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Signed loop current (amperes).
    #[must_use]
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Number of straight segments in the discretisation.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.mid_x.len()
    }

    /// The magnetic moment `m = I·π·R²` (A·m²), along +z for positive
    /// current.
    #[must_use]
    pub fn moment(&self) -> f64 {
        self.current * core::f64::consts::PI * self.radius * self.radius
    }

    /// Evaluates up to [`LANES`] points in one sweep over the segment
    /// arrays: the segment geometry is loaded once per iteration and
    /// applied to every lane, so the per-lane work is independent and
    /// vectorisable.
    ///
    /// Two structural specialisations keep the inner loop lean:
    ///
    /// * the loop is planar, so `rz` (and `rz²`) are hoisted per point
    ///   and the `dl_z` cross-product terms vanish;
    /// * the `1/|r|³` weight avoids the scalar path's divide-and-sqrt:
    ///   an `f32` reciprocal square root seeds two Newton–Raphson
    ///   refinements in `f64` (quadratic convergence takes the ~1e-7
    ///   seed error to rounding level), leaving pure multiply/add work
    ///   the compiler can keep in SIMD lanes.
    ///
    /// The result agrees with [`FieldSource::h_field`] to well under the
    /// crate's 1e-12 relative-parity bound for any physically meaningful
    /// geometry (evaluation points between ~1e-15 m and ~3e18 m of a
    /// segment midpoint); outside that range the clamped weight stays
    /// finite instead of reproducing the scalar path's singular guard.
    #[inline]
    fn eval_block(&self, points: &[Vec3], out: &mut [Vec3]) {
        // Clamp bounds keeping the f32 seed finite and non-zero over the
        // whole f64 range: |r| from ~1e-15 m to ~3e18 m.
        const R2_MIN: f64 = 1e-30;
        const R2_MAX: f64 = 1e37;
        let n = points.len();
        debug_assert!((1..=LANES).contains(&n) && out.len() == n);
        // Pad unused lanes with the first point: they compute valid
        // (discarded) values without denormal or NaN hazards, and the
        // fixed trip count keeps the lane loop vectorisable.
        let mut px = [points[0].x; LANES];
        let mut py = [points[0].y; LANES];
        let mut rz = [points[0].z - self.center.z; LANES];
        for (lane, p) in points.iter().enumerate() {
            px[lane] = p.x;
            py[lane] = p.y;
            rz[lane] = p.z - self.center.z;
        }
        let mut rz2 = [0.0f64; LANES];
        for lane in 0..LANES {
            rz2[lane] = rz[lane] * rz[lane];
        }
        let mut hx = [0.0f64; LANES];
        let mut hy = [0.0f64; LANES];
        let mut hz = [0.0f64; LANES];
        for k in 0..self.mid_x.len() {
            let mx = self.mid_x[k];
            let my = self.mid_y[k];
            let dx = self.dl_x[k];
            let dy = self.dl_y[k];
            for lane in 0..LANES {
                let rx = px[lane] - mx;
                let ry = py[lane] - my;
                let r2 = fmadd(rx, rx, fmadd(ry, ry, rz2[lane])).clamp(R2_MIN, R2_MAX);
                // y ≈ 1/sqrt(r2): f32 seed, two f64 Newton refinements.
                let y0 = f64::from(1.0 / (r2 as f32).sqrt());
                let h = 0.5 * r2;
                let t0 = h * y0;
                let y1 = y0 * fmadd(t0, -y0, 1.5);
                let t1 = h * y1;
                let y2 = y1 * fmadd(t1, -y1, 1.5);
                let w = y2 * y2 * y2; // 1/|r|³
                let rzw = rz[lane] * w;
                hx[lane] = fmadd(dy, rzw, hx[lane]);
                hy[lane] = fmadd(dx, -rzw, hy[lane]);
                let c = fmadd(dy, -rx, dx * ry);
                hz[lane] = fmadd(c, w, hz[lane]);
            }
        }
        let scale = self.current / (4.0 * core::f64::consts::PI);
        for (lane, o) in out.iter_mut().enumerate() {
            *o = Vec3::new(hx[lane] * scale, hy[lane] * scale, hz[lane] * scale);
        }
    }
}

impl FieldSource for LoopSource {
    /// Discrete Biot–Savart sum (the paper's Eq. 1 with µ0 dropped so the
    /// result is `H` in A/m):
    ///
    /// `H(p) = (1/4π) Σ_k I·(dl_k × r_k)/|r_k|³`,
    ///
    /// where `dl_k` is the k-th segment and `r_k` runs from the segment
    /// midpoint to the field point `p`.
    fn h_field(&self, p: Vec3) -> Vec3 {
        let mut h = Vec3::ZERO;
        for k in 0..self.mid_x.len() {
            let dl = Vec3::new(self.dl_x[k], self.dl_y[k], 0.0);
            let mid = Vec3::new(self.mid_x[k], self.mid_y[k], self.center.z);
            let r = p - mid;
            let r2 = r.norm_squared();
            if r2 < 1e-300 {
                // On the wire itself the integrand is singular; skip the
                // segment (the remaining segments still give the principal
                // value used by the paper's centre-of-layer evaluations).
                continue;
            }
            let r3 = r2 * r2.sqrt();
            h += dl.cross(r) / r3;
        }
        h * (self.current / (4.0 * core::f64::consts::PI))
    }

    /// Lane-blocked batched evaluation: one pass over the precomputed
    /// segment arrays per 16-point lane block.
    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        assert_eq!(
            points.len(),
            out.len(),
            "h_field_many needs one output slot per point"
        );
        for (ps, os) in points.chunks(LANES).zip(out.chunks_mut(LANES)) {
            self.eval_block(ps, os);
        }
    }
}

/// A thick layer modelled as a stack of equal sub-loops distributed over
/// its thickness (the single-loop thin-film model is the paper's choice;
/// slicing is the accuracy ablation).
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedLoop {
    slices: Vec<LoopSource>,
}

impl SlicedLoop {
    /// Creates `slices` sub-loops spanning `thickness` (metres) centred on
    /// `center`, sharing the total bound current `current` equally.
    ///
    /// # Errors
    ///
    /// * [`MagneticsError::InvalidGeometry`] for non-positive thickness or
    ///   invalid loop parameters.
    /// * [`MagneticsError::InvalidDiscretisation`] for zero slices.
    pub fn new(
        center: Vec3,
        radius: f64,
        current: f64,
        thickness: f64,
        slices: usize,
        segments: usize,
    ) -> Result<Self, MagneticsError> {
        if !(thickness > 0.0) || !thickness.is_finite() {
            return Err(MagneticsError::InvalidGeometry {
                message: format!("thickness must be positive, got {thickness}"),
            });
        }
        if slices == 0 {
            return Err(MagneticsError::InvalidDiscretisation {
                message: "need at least one slice".into(),
            });
        }
        let per_slice = current / slices as f64;
        let mut out = Vec::with_capacity(slices);
        for i in 0..slices {
            // Slice mid-planes, symmetric about the layer centre.
            let frac = (i as f64 + 0.5) / slices as f64 - 0.5;
            let z = center.z + frac * thickness;
            out.push(LoopSource::new(
                Vec3::new(center.x, center.y, z),
                radius,
                per_slice,
                segments,
            )?);
        }
        Ok(Self { slices: out })
    }

    /// The sub-loops.
    #[must_use]
    pub fn slices(&self) -> &[LoopSource] {
        &self.slices
    }
}

impl FieldSource for SlicedLoop {
    fn h_field(&self, p: Vec3) -> Vec3 {
        self.slices.iter().map(|s| s.h_field(p)).sum()
    }

    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        assert_eq!(
            points.len(),
            out.len(),
            "h_field_many needs one output slot per point"
        );
        let mut scratch = vec![Vec3::ZERO; points.len()];
        out.fill(Vec3::ZERO);
        for slice in &self.slices {
            slice.h_field_many(points, &mut scratch);
            for (o, s) in out.iter_mut().zip(&scratch) {
                *o += *s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_field_matches_textbook_value() {
        // H(0) = I / (2R).
        // Midpoint-rule polygon error is ~(5/6)(π/N)² ≈ 2e-6 at N = 2048.
        let l = LoopSource::new(Vec3::ZERO, 0.1, 3.0, 2048).unwrap();
        let h = l.h_field(Vec3::ZERO);
        let expect = 3.0 / (2.0 * 0.1);
        assert!((h.z - expect).abs() / expect < 1e-5);
        assert!(h.x.abs() < 1e-12 * expect);
        assert!(h.y.abs() < 1e-12 * expect);
    }

    #[test]
    fn sign_follows_right_hand_rule() {
        let pos = LoopSource::with_default_segments(Vec3::ZERO, 1e-8, 1e-3).unwrap();
        let neg = LoopSource::with_default_segments(Vec3::ZERO, 1e-8, -1e-3).unwrap();
        assert!(pos.h_field(Vec3::ZERO).z > 0.0);
        assert!(neg.h_field(Vec3::ZERO).z < 0.0);
    }

    #[test]
    fn field_outside_loop_plane_flips_sign() {
        // In the loop plane beyond the wire the return flux points down.
        let l = LoopSource::with_default_segments(Vec3::ZERO, 1e-8, 1e-3).unwrap();
        let inside = l.h_field(Vec3::new(0.5e-8, 0.0, 0.0));
        let outside = l.h_field(Vec3::new(3e-8, 0.0, 0.0));
        assert!(inside.z > 0.0);
        assert!(outside.z < 0.0);
    }

    #[test]
    fn convergence_with_segment_count() {
        // Doubling the segment count must shrink the on-axis error ~4x.
        let exact = crate::on_axis_field(2e-8, 1e-3, 1.5e-8);
        let errors: Vec<f64> = [16usize, 32, 64]
            .into_iter()
            .map(|n| {
                let l = LoopSource::new(Vec3::ZERO, 2e-8, 1e-3, n).unwrap();
                (l.h_field(Vec3::new(0.0, 0.0, 1.5e-8)).z - exact).abs()
            })
            .collect();
        assert!(errors[0] > errors[1] && errors[1] > errors[2]);
        assert!(errors[0] / errors[1] > 3.0);
        assert!(errors[1] / errors[2] > 3.0);
    }

    #[test]
    fn translation_invariance() {
        let base = LoopSource::with_default_segments(Vec3::ZERO, 1e-8, 2e-3).unwrap();
        let off = Vec3::new(9e-8, -4e-8, 2e-9);
        let moved = LoopSource::with_default_segments(off, 1e-8, 2e-3).unwrap();
        let p = Vec3::new(1e-8, 2e-8, 5e-9);
        let a = base.h_field(p);
        let b = moved.h_field(p + off);
        assert!((a - b).norm() < 1e-9 * a.norm().max(1.0));
    }

    #[test]
    fn moment_is_current_times_area() {
        let l = LoopSource::with_default_segments(Vec3::ZERO, 2e-8, -1.5e-3).unwrap();
        let expect = -1.5e-3 * core::f64::consts::PI * 4e-16;
        assert!((l.moment() - expect).abs() < 1e-24);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LoopSource::new(Vec3::ZERO, 0.0, 1.0, 64).is_err());
        assert!(LoopSource::new(Vec3::ZERO, -1.0, 1.0, 64).is_err());
        assert!(LoopSource::new(Vec3::ZERO, f64::NAN, 1.0, 64).is_err());
        assert!(LoopSource::new(Vec3::ZERO, 1.0, f64::INFINITY, 64).is_err());
        assert!(LoopSource::new(Vec3::ZERO, 1.0, 1.0, 4).is_err());
    }

    #[test]
    fn segment_count_round_trips_without_closing_vertex() {
        for n in [8usize, 17, 256] {
            let l = LoopSource::new(Vec3::ZERO, 1e-8, 1e-3, n).unwrap();
            assert_eq!(l.segments(), n);
        }
    }

    #[test]
    fn batched_matches_scalar_to_machine_precision() {
        let l = LoopSource::with_default_segments(Vec3::new(2e-9, -3e-9, 1e-9), 2.75e-8, 2.06e-3)
            .unwrap();
        // Deliberately a non-multiple of the lane width to cover the
        // remainder block.
        let points: Vec<Vec3> = (0..37)
            .map(|i| {
                let t = f64::from(i);
                Vec3::new(
                    9e-8 * (t * 0.37).cos(),
                    7e-8 * (t * 0.61).sin(),
                    4e-9 * (t * 0.1),
                )
            })
            .collect();
        let mut batched = vec![Vec3::ZERO; points.len()];
        l.h_field_many(&points, &mut batched);
        for (p, b) in points.iter().zip(&batched) {
            let s = l.h_field(*p);
            assert!(
                (s - *b).norm() <= 1e-12 * s.norm().max(1e-12),
                "mismatch at {p:?}: scalar {s:?} vs batched {b:?}"
            );
        }
    }

    #[test]
    fn sliced_loop_conserves_current_and_converges_to_thin_loop_far_away() {
        let thin = LoopSource::with_default_segments(Vec3::ZERO, 2e-8, 3e-3).unwrap();
        let sliced = SlicedLoop::new(Vec3::ZERO, 2e-8, 3e-3, 6e-9, 6, DEFAULT_SEGMENTS).unwrap();
        let total: f64 = sliced.slices().iter().map(LoopSource::current).sum();
        assert!((total - 3e-3).abs() < 1e-12);
        // Far away, slicing is irrelevant.
        let p = Vec3::new(0.0, 0.0, 5e-7);
        let a = thin.h_field(p).z;
        let b = sliced.h_field(p).z;
        assert!((a - b).abs() / a.abs() < 1e-3);
    }

    #[test]
    fn sliced_loop_differs_from_thin_loop_nearby() {
        let thin = LoopSource::with_default_segments(Vec3::ZERO, 1.75e-8, 2e-3).unwrap();
        let sliced = SlicedLoop::new(Vec3::ZERO, 1.75e-8, 2e-3, 6e-9, 8, DEFAULT_SEGMENTS).unwrap();
        let p = Vec3::new(0.0, 0.0, 5e-9);
        let a = thin.h_field(p).z;
        let b = sliced.h_field(p).z;
        assert!((a - b).abs() / a.abs() > 1e-3, "thin {a} vs sliced {b}");
    }

    #[test]
    fn sliced_loop_batched_matches_scalar() {
        let sliced = SlicedLoop::new(Vec3::ZERO, 1.75e-8, 2e-3, 6e-9, 4, 64).unwrap();
        let points: Vec<Vec3> = (0..9)
            .map(|i| Vec3::new(3e-8 + f64::from(i) * 1e-8, -2e-8, 5e-9))
            .collect();
        let mut batched = vec![Vec3::ZERO; points.len()];
        sliced.h_field_many(&points, &mut batched);
        for (p, b) in points.iter().zip(&batched) {
            let s = sliced.h_field(*p);
            assert!((s - *b).norm() <= 1e-12 * s.norm().max(1e-12));
        }
    }

    #[test]
    fn singular_point_on_wire_does_not_produce_nan() {
        let l = LoopSource::new(Vec3::ZERO, 1e-8, 1e-3, 16).unwrap();
        // Probe exactly at a segment midpoint.
        let theta = core::f64::consts::PI / 16.0;
        let mid = Vec3::new(
            1e-8 * theta.cos() * (theta.cos().powi(2) + theta.sin().powi(2)),
            1e-8 * theta.sin(),
            0.0,
        );
        let h = l.h_field(mid);
        assert!(h.is_finite());
        // The batched path shares the guard.
        let mut out = [Vec3::ZERO];
        l.h_field_many(&[mid], &mut out);
        assert!(out[0].is_finite());
    }
}
