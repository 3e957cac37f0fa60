//! Superposition of heterogeneous field sources.
//!
//! The hot path of every array-level quantity in the paper is a
//! superposition over a 3×3 neighbourhood of loop sources. [`SourceSet`]
//! therefore stores an enum of the concrete source types
//! ([`SourceKind`]) instead of boxed trait objects: dispatch is a jump
//! table over monomorphic code, the batched [`FieldSource::h_field_many`]
//! implementations are reachable without virtual calls, and evaluating a
//! set allocates nothing per point.

use crate::{AnalyticLoop, Dipole, FieldSource, LoopSource, SlicedLoop};
use mramsim_numerics::Vec3;

/// Points per scratch block when accumulating a batched superposition
/// (a multiple of the loop kernel's lane width; 256 points of scratch
/// are 6 KiB of stack, comfortably L1-resident).
const BLOCK: usize = 256;

/// One field source of a known concrete type, dispatched by `match`.
///
/// The variants cover every source the paper's model produces and stay
/// monomorphic (and therefore inlinable and batched) in the hot path.
///
/// # Examples
///
/// ```
/// use mramsim_magnetics::{Dipole, FieldSource, SourceKind};
/// use mramsim_numerics::Vec3;
///
/// let kind: SourceKind = Dipole::new(Vec3::ZERO, 5.5e-18)?.into();
/// assert!(kind.h_field(Vec3::new(9e-8, 0.0, 0.0)).z < 0.0);
/// # Ok::<(), mramsim_magnetics::MagneticsError>(())
/// ```
#[derive(Debug)]
pub enum SourceKind {
    /// A polygonal Biot–Savart loop (the paper's Eq. 1 workhorse).
    Loop(LoopSource),
    /// An exact elliptic-integral loop (the accuracy backend).
    Analytic(AnalyticLoop),
    /// A point dipole (far-field approximation).
    Dipole(Dipole),
    /// A thick layer as a stack of sub-loops.
    Sliced(SlicedLoop),
}

impl FieldSource for SourceKind {
    fn h_field(&self, p: Vec3) -> Vec3 {
        match self {
            Self::Loop(s) => s.h_field(p),
            Self::Analytic(s) => s.h_field(p),
            Self::Dipole(s) => s.h_field(p),
            Self::Sliced(s) => s.h_field(p),
        }
    }

    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        match self {
            Self::Loop(s) => s.h_field_many(points, out),
            Self::Analytic(s) => s.h_field_many(points, out),
            Self::Dipole(s) => s.h_field_many(points, out),
            Self::Sliced(s) => s.h_field_many(points, out),
        }
    }
}

impl From<LoopSource> for SourceKind {
    fn from(s: LoopSource) -> Self {
        Self::Loop(s)
    }
}

impl From<AnalyticLoop> for SourceKind {
    fn from(s: AnalyticLoop) -> Self {
        Self::Analytic(s)
    }
}

impl From<Dipole> for SourceKind {
    fn from(s: Dipole) -> Self {
        Self::Dipole(s)
    }
}

impl From<SlicedLoop> for SourceKind {
    fn from(s: SlicedLoop) -> Self {
        Self::Sliced(s)
    }
}

/// A collection of field sources whose fields superpose linearly.
///
/// The paper's total stray field at a victim FL is exactly such a sum:
/// the victim's own RL + HL loops (intra-cell) plus three loops per
/// aggressor cell (inter-cell).
///
/// # Examples
///
/// ```
/// use mramsim_magnetics::{Dipole, FieldSource, SourceSet};
/// use mramsim_numerics::Vec3;
///
/// let mut set = SourceSet::new();
/// set.push(Dipole::new(Vec3::new(-9e-8, 0.0, 0.0), 5.5e-18)?);
/// set.push(Dipole::new(Vec3::new(9e-8, 0.0, 0.0), 5.5e-18)?);
/// let h = set.h_field(Vec3::ZERO);
/// // Two symmetric equatorial dipoles: doubled z field, cancelled x.
/// assert!(h.x.abs() < 1e-12 * h.z.abs());
/// # Ok::<(), mramsim_magnetics::MagneticsError>(())
/// ```
#[derive(Default, Debug)]
pub struct SourceSet {
    sources: Vec<SourceKind>,
}

impl SourceSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source to the set (monomorphic dispatch).
    pub fn push<S: Into<SourceKind>>(&mut self, source: S) {
        self.sources.push(source.into());
    }

    /// Number of sources in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The sources, in insertion order.
    #[must_use]
    pub fn kinds(&self) -> &[SourceKind] {
        &self.sources
    }
}

impl FieldSource for SourceSet {
    fn h_field(&self, p: Vec3) -> Vec3 {
        self.sources.iter().map(|s| s.h_field(p)).sum()
    }

    /// Batched superposition: each source's batched kernel runs over a
    /// fixed-size stack block of points and the results accumulate, so
    /// no per-point or per-source heap allocation happens.
    fn h_field_many(&self, points: &[Vec3], out: &mut [Vec3]) {
        assert_eq!(
            points.len(),
            out.len(),
            "h_field_many needs one output slot per point"
        );
        let mut scratch = [Vec3::ZERO; BLOCK];
        for (ps, os) in points.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            os.fill(Vec3::ZERO);
            for source in &self.sources {
                let s = &mut scratch[..ps.len()];
                source.h_field_many(ps, s);
                for (o, v) in os.iter_mut().zip(s.iter()) {
                    *o += *v;
                }
            }
        }
    }
}

impl<S: Into<SourceKind>> Extend<S> for SourceSet {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

impl<S: Into<SourceKind>> FromIterator<S> for SourceSet {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dipole, LoopSource};

    #[test]
    fn empty_set_produces_zero_field() {
        let set = SourceSet::new();
        assert!(set.is_empty());
        assert_eq!(set.h_field(Vec3::new(1.0, 2.0, 3.0)), Vec3::ZERO);
    }

    #[test]
    fn superposition_is_linear() {
        let a = Dipole::new(Vec3::new(-5e-8, 0.0, 0.0), 2e-18).unwrap();
        let b = LoopSource::with_default_segments(Vec3::new(5e-8, 0.0, 0.0), 1e-8, 1e-3).unwrap();
        let p = Vec3::new(0.0, 3e-8, 2e-9);
        let separate = a.h_field(p) + b.h_field(p);

        let mut set = SourceSet::new();
        set.push(a);
        set.push(b);
        assert_eq!(set.len(), 2);
        let combined = set.h_field(p);
        assert!((combined - separate).norm() < 1e-12 * separate.norm().max(1.0));
    }

    #[test]
    fn equal_and_opposite_sources_cancel() {
        let mut set = SourceSet::new();
        set.push(Dipole::new(Vec3::ZERO, 4e-18).unwrap());
        set.push(Dipole::new(Vec3::ZERO, -4e-18).unwrap());
        let h = set.h_field(Vec3::new(1e-7, 2e-8, -3e-8));
        assert!(h.norm() < 1e-18);
    }

    #[test]
    fn from_iterator_collects_sources() {
        let set: SourceSet = (0..8)
            .map(|i| Dipole::new(Vec3::new(f64::from(i) * 9e-8, 0.0, 0.0), 1e-18).unwrap())
            .collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn batched_set_matches_scalar_set() {
        let mut set = SourceSet::new();
        set.push(LoopSource::with_default_segments(Vec3::ZERO, 2.75e-8, 2.06e-3).unwrap());
        set.push(
            LoopSource::with_default_segments(Vec3::new(0.0, 0.0, -7.85e-9), 2.75e-8, -1.43e-3)
                .unwrap(),
        );
        set.push(Dipole::new(Vec3::new(9e-8, 9e-8, 0.0), 5.5e-18).unwrap());
        // More points than one scratch block to cover the block seam.
        let points: Vec<Vec3> = (0..131)
            .map(|i| {
                let t = f64::from(i);
                Vec3::new(1.1e-7 * (0.13 * t).cos(), 1.1e-7 * (0.29 * t).sin(), 3e-9)
            })
            .collect();
        let mut batched = vec![Vec3::ZERO; points.len()];
        set.h_field_many(&points, &mut batched);
        for (p, b) in points.iter().zip(&batched) {
            let s = set.h_field(*p);
            assert!(
                (s - *b).norm() <= 1e-12 * s.norm().max(1e-12),
                "mismatch at {p:?}"
            );
        }
    }

    #[test]
    fn kinds_expose_the_stored_sources() {
        let mut set = SourceSet::new();
        set.push(Dipole::new(Vec3::ZERO, 1e-18).unwrap());
        assert!(matches!(set.kinds(), [SourceKind::Dipole(_)]));
    }
}
