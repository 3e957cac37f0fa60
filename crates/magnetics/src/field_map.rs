//! Spatial sampling of field sources: point lists and plane maps.
//!
//! These drive the paper's Fig. 3c (3-D field visualisation around the
//! device) and Fig. 3d (radial profile of `Hz` across the free layer).
//!
//! Sampling goes through the batched [`FieldSource::h_field_many`] API
//! and, for large grids, is parallelised in row chunks on a default
//! [`WorkerPool`] — the same scheduler the array sweeps and the
//! execution engine run on. Inside a pool job (an engine sweep point)
//! that pool takes the job's share of the machine, and the samples
//! are the same bits at every width.

use crate::{FieldSource, MagneticsError};
use mramsim_numerics::pool::WorkerPool;
use mramsim_numerics::Vec3;

/// Below this many sample points the pool is skipped: thread spawn
/// overhead would swamp the per-point Biot–Savart work.
const PARALLEL_THRESHOLD: usize = 1024;

/// Target points per parallel chunk (plane maps round this up to whole
/// rows so every chunk is a contiguous row block).
const CHUNK_POINTS: usize = 256;

/// Evaluates `source` at every position, batched, and in parallel row
/// chunks on a default worker pool once the grid is large enough.
///
/// This is the common engine behind [`PlaneMap::sample`], exposed for
/// callers that bring their own point layout (e.g. the Fig. 3d radial
/// profiles). A pool of one worker takes the serial batched path.
pub fn h_field_at_points<S: FieldSource + Sync + ?Sized>(
    source: &S,
    positions: &[Vec3],
) -> Vec<Vec3> {
    h_field_in_chunks(source, positions, CHUNK_POINTS)
}

fn h_field_in_chunks<S: FieldSource + Sync + ?Sized>(
    source: &S,
    positions: &[Vec3],
    chunk: usize,
) -> Vec<Vec3> {
    let pool = WorkerPool::default();
    let mut out = vec![Vec3::ZERO; positions.len()];
    if positions.len() < PARALLEL_THRESHOLD || pool.workers() < 2 {
        source.h_field_many(positions, &mut out);
        return out;
    }
    let chunks: Vec<&[Vec3]> = positions.chunks(chunk.max(1)).collect();
    let results = pool.scoped_map(&chunks, |_, block| {
        let mut h = vec![Vec3::ZERO; block.len()];
        source.h_field_many(block, &mut h);
        h
    });
    let mut cursor = 0;
    for block in results {
        out[cursor..cursor + block.len()].copy_from_slice(&block);
        cursor += block.len();
    }
    out
}

/// A rectangular grid of field samples in a constant-z plane.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneMap {
    nx: usize,
    ny: usize,
    x0: f64,
    y0: f64,
    dx: f64,
    dy: f64,
    z: f64,
    samples: Vec<Vec3>,
}

impl PlaneMap {
    /// Samples `source` on an `nx × ny` grid covering
    /// `[x0, x1] × [y0, y1]` at height `z` (all metres). Rows are
    /// evaluated with the batched kernel and spread over the worker pool
    /// in row chunks when the grid is large.
    ///
    /// # Errors
    ///
    /// * [`MagneticsError::InvalidDiscretisation`] when either grid
    ///   dimension is smaller than 2.
    /// * [`MagneticsError::InvalidGeometry`] for non-increasing or
    ///   non-finite extents.
    pub fn sample<S: FieldSource + Sync + ?Sized>(
        source: &S,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
        z: f64,
        nx: usize,
        ny: usize,
    ) -> Result<Self, MagneticsError> {
        if nx < 2 || ny < 2 {
            return Err(MagneticsError::InvalidDiscretisation {
                message: format!("plane map needs at least a 2x2 grid, got {nx}x{ny}"),
            });
        }
        if !(x1 > x0 && y1 > y0 && [x0, x1, y0, y1, z].iter().all(|v| v.is_finite())) {
            return Err(MagneticsError::InvalidGeometry {
                message: format!(
                    "plane map extents must be finite and increasing, got \
                     [{x0}, {x1}] x [{y0}, {y1}] at z = {z}"
                ),
            });
        }
        let dx = (x1 - x0) / (nx - 1) as f64;
        let dy = (y1 - y0) / (ny - 1) as f64;
        let mut positions = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                positions.push(Vec3::new(x0 + dx * i as f64, y0 + dy * j as f64, z));
            }
        }
        // Chunk on whole rows so each parallel job covers contiguous,
        // cache-friendly row blocks.
        let rows_per_chunk = CHUNK_POINTS.div_ceil(nx).max(1);
        let samples = h_field_in_chunks(source, &positions, rows_per_chunk * nx);
        Ok(Self {
            nx,
            ny,
            x0,
            y0,
            dx,
            dy,
            z,
            samples,
        })
    }

    /// Grid width (number of x samples).
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (number of y samples).
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Height of the sampled plane (metres).
    #[must_use]
    pub fn z(&self) -> f64 {
        self.z
    }

    /// The field sample at grid node `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Vec3 {
        assert!(i < self.nx && j < self.ny, "grid index out of bounds");
        self.samples[j * self.nx + i]
    }

    /// Position of grid node `(i, j)` (metres).
    #[must_use]
    pub fn position(&self, i: usize, j: usize) -> Vec3 {
        Vec3::new(
            self.x0 + self.dx * i as f64,
            self.y0 + self.dy * j as f64,
            self.z,
        )
    }

    /// Iterator over `(position, field)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Vec3, Vec3)> + '_ {
        (0..self.ny)
            .flat_map(move |j| (0..self.nx).map(move |i| (self.position(i, j), self.at(i, j))))
    }

    /// Extreme values of `Hz` over the map, `(min, max)` in A/m.
    #[must_use]
    pub fn hz_range(&self) -> (f64, f64) {
        self.samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), h| {
                (lo.min(h.z), hi.max(h.z))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dipole, LoopSource};

    #[test]
    fn radial_profile_of_saf_pair_is_center_heavy() {
        // The paper's Fig. 3d observation holds for the *net* RL + HL
        // field: |Hz| is largest at the FL centre and smaller at the edge
        // (the nearer layer's positive near-wire spike eats into the net).
        // eCD = 35 nm (the paper's evaluation device): R = 17.5 nm.
        let mut saf = crate::SourceSet::new();
        saf.push(
            LoopSource::with_default_segments(Vec3::new(0.0, 0.0, -3e-9), 17.5e-9, 0.07e-3)
                .unwrap(),
        );
        saf.push(
            LoopSource::with_default_segments(Vec3::new(0.0, 0.0, -7.85e-9), 17.5e-9, -1.43e-3)
                .unwrap(),
        );
        let (start, end) = (Vec3::new(-1.4e-8, 0.0, 0.0), Vec3::new(1.4e-8, 0.0, 0.0));
        let positions: Vec<Vec3> = (0..45)
            .map(|i| start.lerp(end, f64::from(i) / 44.0))
            .collect();
        let scan = h_field_at_points(&saf, &positions);
        let center = scan[22].z;
        let edge = scan[0].z;
        assert!(center < 0.0, "net intra-cell field is negative at centre");
        assert!(center.abs() > edge.abs(), "center {center} vs edge {edge}");
    }

    #[test]
    fn plane_map_indexing_round_trips() {
        let d = Dipole::new(Vec3::ZERO, 1e-18).unwrap();
        let map = PlaneMap::sample(&d, (-1e-7, 1e-7), (-1e-7, 1e-7), 5e-9, 9, 7).unwrap();
        assert_eq!(map.nx(), 9);
        assert_eq!(map.ny(), 7);
        let p = map.position(4, 3);
        assert!(p.x.abs() < 1e-18 && p.y.abs() < 1e-18);
        // Center sample equals direct evaluation.
        let h = map.at(4, 3);
        assert!((h - d.h_field(p)).norm() < 1e-18);
        assert_eq!(map.iter().count(), 63);
    }

    #[test]
    fn degenerate_plane_maps_are_errors_not_panics() {
        let d = Dipole::new(Vec3::ZERO, 1e-18).unwrap();
        assert!(matches!(
            PlaneMap::sample(&d, (-1e-7, 1e-7), (-1e-7, 1e-7), 0.0, 1, 7),
            Err(MagneticsError::InvalidDiscretisation { .. })
        ));
        assert!(matches!(
            PlaneMap::sample(&d, (1e-7, -1e-7), (-1e-7, 1e-7), 0.0, 9, 7),
            Err(MagneticsError::InvalidGeometry { .. })
        ));
        assert!(matches!(
            PlaneMap::sample(&d, (-1e-7, 1e-7), (0.0, 0.0), 0.0, 9, 7),
            Err(MagneticsError::InvalidGeometry { .. })
        ));
    }

    #[test]
    fn hz_range_brackets_all_samples() {
        let l = LoopSource::with_default_segments(Vec3::ZERO, 2e-8, 1e-3).unwrap();
        let map = PlaneMap::sample(&l, (-5e-8, 5e-8), (-5e-8, 5e-8), 2e-9, 11, 11).unwrap();
        let (lo, hi) = map.hz_range();
        assert!(lo < 0.0, "return flux must appear in the map");
        assert!(hi > 0.0);
        for (_, h) in map.iter() {
            assert!(h.z >= lo && h.z <= hi);
        }
    }

    #[test]
    fn parallel_grid_matches_serial_evaluation() {
        // A grid big enough to cross the parallel threshold must produce
        // exactly the same samples as point-by-point evaluation.
        let l = LoopSource::new(Vec3::ZERO, 2e-8, 1e-3, 32).unwrap();
        let map = PlaneMap::sample(&l, (-5e-8, 5e-8), (-5e-8, 5e-8), 2e-9, 40, 40).unwrap();
        assert!(map.nx() * map.ny() >= PARALLEL_THRESHOLD);
        for j in [0, 17, 39] {
            for i in [0, 23, 39] {
                let direct = l.h_field(map.position(i, j));
                let mapped = map.at(i, j);
                assert!(
                    (direct - mapped).norm() <= 1e-12 * direct.norm().max(1e-12),
                    "mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn points_helper_matches_scalar() {
        let l = LoopSource::new(Vec3::ZERO, 2e-8, 1e-3, 64).unwrap();
        let positions: Vec<Vec3> = (0..50)
            .map(|i| Vec3::new(f64::from(i) * 2e-9, 1e-9, 3e-9))
            .collect();
        let batched = h_field_at_points(&l, &positions);
        for (p, b) in positions.iter().zip(&batched) {
            let s = l.h_field(*p);
            assert!((s - *b).norm() <= 1e-12 * s.norm().max(1e-12));
        }
    }

    #[test]
    fn samples_are_the_same_bits_at_every_pool_width() {
        // Inside a pool job the default pool shrinks to the job's share
        // (down to the serial path); the samples must not move.
        let l = LoopSource::new(Vec3::ZERO, 2e-8, 1e-3, 32).unwrap();
        let sample = || PlaneMap::sample(&l, (-5e-8, 5e-8), (-5e-8, 5e-8), 2e-9, 40, 40).unwrap();
        let top = sample();
        let positions: Vec<Vec3> = top.iter().map(|(p, _)| p).collect();
        assert!(positions.len() > PARALLEL_THRESHOLD);
        let points = h_field_at_points(&l, &positions);
        for k in [1, 2, 4] {
            let nested = WorkerPool::new(k).scoped_map(&vec![(); k], |_, ()| {
                (sample(), h_field_at_points(&l, &positions))
            });
            for (map, fields) in nested {
                assert!(map == top, "plane map moved at k = {k}");
                assert!(fields == points, "point fields moved at k = {k}");
            }
        }
    }
}
