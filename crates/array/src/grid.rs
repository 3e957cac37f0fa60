//! Virtual megabit grids: a data pattern plus a sparse defect list,
//! with equivalence-class extraction instead of per-cell state storage.
//!
//! A 1024×1024 checkerboard has a million cells but only a handful of
//! *distinct stray-field environments*: interior cells repeat the same
//! window of neighbours, and only edge bands, corners and the few cells
//! near a defect differ. [`PatternGrid`] never materialises the cell
//! array — `O(1)` state lookup from the pattern formula plus a sorted
//! defect list — and [`PatternGrid::shard_classes`] groups a row slice
//! into canonical window classes whose count is bounded by
//! `O(radius² + defects)`, not `O(cells)`.

use crate::{ArrayError, DataPattern, NeighborhoodPattern};
use mramsim_mtj::MtjState;
use std::collections::{BTreeMap, HashMap};

/// One faulty cell pinned to a state regardless of the pattern (a
/// stuck-at defect site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Defect {
    /// Defect row.
    pub row: usize,
    /// Defect column.
    pub col: usize,
    /// The state the cell is stuck in.
    pub state: MtjState,
}

impl Defect {
    /// Parses a CLI defect list: `"12,34=AP;56,78=P"` (empty string →
    /// no defects).
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for malformed entries.
    pub fn parse_list(text: &str) -> Result<Vec<Self>, ArrayError> {
        let bad = |entry: &str| ArrayError::InvalidParameter {
            name: "defects",
            message: format!("expected `row,col=P|AP` entries separated by `;`, got `{entry}`"),
        };
        let mut out = Vec::new();
        for entry in text.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (addr, state) = entry.split_once('=').ok_or_else(|| bad(entry))?;
            let (row, col) = addr.split_once(',').ok_or_else(|| bad(entry))?;
            let row = row.trim().parse().map_err(|_| bad(entry))?;
            let col = col.trim().parse().map_err(|_| bad(entry))?;
            let state = match state.trim() {
                "P" => MtjState::Parallel,
                "AP" => MtjState::AntiParallel,
                _ => return Err(bad(entry)),
            };
            out.push(Self { row, col, state });
        }
        Ok(out)
    }
}

/// One equivalence class of cells in a shard: every member sees the
/// identical `(2·radius+1)²` window of stored states, hence the
/// identical stray field and (with a window-derived seed) the identical
/// Monte-Carlo estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridClass {
    /// Bit-packed window content, row-major over
    /// `(di, dj) ∈ [-radius, radius]²`, bit = 1 ≙ AP.
    pub window: Box<[u8]>,
    /// The window radius the class was extracted at.
    pub radius: usize,
    /// The first member in row-major order — the class's address in
    /// reports.
    pub representative: (usize, usize),
    /// Number of cells in the class within the shard.
    pub count: usize,
}

impl GridClass {
    /// The state at lattice offset `(di, dj)` from the class centre.
    ///
    /// # Panics
    ///
    /// Panics when the offset lies outside the window.
    #[must_use]
    pub fn state_at(&self, di: i32, dj: i32) -> MtjState {
        let r = self.radius as i32;
        assert!(
            di.abs() <= r && dj.abs() <= r,
            "offset ({di}, {dj}) outside radius {r}"
        );
        let side = 2 * self.radius + 1;
        let idx = (di + r) as usize * side + (dj + r) as usize;
        MtjState::from_bit(self.window[idx / 8] & (1 << (idx % 8)) != 0)
    }

    /// The state stored in the class's cells themselves.
    #[must_use]
    pub fn stored(&self) -> MtjState {
        self.state_at(0, 0)
    }

    /// The ring-1 neighbourhood pattern of the window, in
    /// `CellArray::neighborhood` bit order.
    #[must_use]
    pub fn np(&self) -> NeighborhoodPattern {
        NeighborhoodPattern::from_fn(|di, dj| self.state_at(di, dj))
    }
}

/// An N×M array defined by a pattern formula plus a sparse defect
/// overlay — `O(defects)` memory at any size.
///
/// # Examples
///
/// ```
/// use mramsim_array::{DataPattern, PatternGrid};
///
/// let grid = PatternGrid::new(1024, 1024, DataPattern::Checkerboard)?;
/// // A megabit checkerboard collapses to a handful of window classes.
/// let classes = grid.shard_classes(0, 1024, 1)?;
/// assert!(classes.len() <= 18);
/// assert_eq!(classes.iter().map(|c| c.count).sum::<usize>(), 1024 * 1024);
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PatternGrid {
    rows: usize,
    cols: usize,
    pattern: DataPattern,
    /// Sorted by `(row, col)`, unique.
    defects: Vec<Defect>,
}

impl PatternGrid {
    /// Creates a defect-free grid.
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for zero dimensions.
    pub fn new(rows: usize, cols: usize, pattern: DataPattern) -> Result<Self, ArrayError> {
        if rows == 0 || cols == 0 {
            return Err(ArrayError::InvalidParameter {
                name: "rows/cols",
                message: format!("grid dimensions must be positive, got {rows}x{cols}"),
            });
        }
        Ok(Self {
            rows,
            cols,
            pattern,
            defects: Vec::new(),
        })
    }

    /// Overlays stuck-at defects on the pattern.
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for out-of-range or duplicate
    /// sites.
    pub fn with_defects(mut self, mut defects: Vec<Defect>) -> Result<Self, ArrayError> {
        defects.sort_by_key(|d| (d.row, d.col));
        for pair in defects.windows(2) {
            if (pair[0].row, pair[0].col) == (pair[1].row, pair[1].col) {
                return Err(ArrayError::InvalidParameter {
                    name: "defects",
                    message: format!("duplicate defect site ({}, {})", pair[0].row, pair[0].col),
                });
            }
        }
        if let Some(out) = defects
            .iter()
            .find(|d| d.row >= self.rows || d.col >= self.cols)
        {
            return Err(ArrayError::InvalidParameter {
                name: "defects",
                message: format!(
                    "defect ({}, {}) outside a {}x{} grid",
                    out.row, out.col, self.rows, self.cols
                ),
            });
        }
        self.defects = defects;
        Ok(self)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The background data pattern.
    #[must_use]
    pub fn pattern(&self) -> DataPattern {
        self.pattern
    }

    /// The defect overlay, sorted by `(row, col)`.
    #[must_use]
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    fn base_state(&self, row: usize, col: usize) -> MtjState {
        match self.pattern {
            DataPattern::Zeros => MtjState::Parallel,
            DataPattern::Ones => MtjState::AntiParallel,
            DataPattern::Checkerboard => {
                if (row + col) % 2 == 1 {
                    MtjState::AntiParallel
                } else {
                    MtjState::Parallel
                }
            }
        }
    }

    /// The stored state at `(row, col)`; out-of-array addresses return
    /// P — the same grounded-dummy-ring convention as
    /// [`CellArray::neighborhood`](crate::CellArray::neighborhood).
    #[must_use]
    pub fn state_at(&self, row: isize, col: isize) -> MtjState {
        if row < 0 || col < 0 || row as usize >= self.rows || col as usize >= self.cols {
            return MtjState::Parallel;
        }
        let (r, c) = (row as usize, col as usize);
        if let Ok(i) = self
            .defects
            .binary_search_by_key(&(r, c), |d| (d.row, d.col))
        {
            return self.defects[i].state;
        }
        self.base_state(r, c)
    }

    /// Bit-packs the `(2·radius+1)²` window around `(row, col)` in the
    /// [`GridClass::window`] layout, so a cell finds its class by
    /// window content.
    #[must_use]
    pub fn pack_window(&self, row: usize, col: usize, radius: usize) -> Box<[u8]> {
        let side = 2 * radius + 1;
        let mut bytes = vec![0u8; (side * side).div_ceil(8)].into_boxed_slice();
        let mut idx = 0usize;
        let r_i = radius as isize;
        for di in -r_i..=r_i {
            for dj in -r_i..=r_i {
                if self.state_at(row as isize + di, col as isize + dj) == MtjState::AntiParallel {
                    bytes[idx / 8] |= 1 << (idx % 8);
                }
                idx += 1;
            }
        }
        bytes
    }

    /// Groups rows `row_lo..row_hi` into window equivalence classes,
    /// sorted by window content (deterministic regardless of shard
    /// partitioning or traversal order).
    ///
    /// Each row splits into three kinds of columns: the `radius` edge
    /// columns at either side, the columns within `radius` of a defect
    /// in the row's window band (packed cell by cell), and the interior
    /// runs between them. A defect-free window is pinned by the cell's
    /// clamped edge distances and pattern phase, so an interior run
    /// holds one window per phase and is counted in closed form — the
    /// pass costs `O(rows × (radius + touched columns))` and yields
    /// `O(radius² + defects)` classes.
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for an empty or out-of-range
    /// row slice, or `radius == 0`.
    pub fn shard_classes(
        &self,
        row_lo: usize,
        row_hi: usize,
        radius: usize,
    ) -> Result<Vec<GridClass>, ArrayError> {
        if radius == 0 {
            return Err(ArrayError::InvalidParameter {
                name: "radius",
                message: "window radius must be at least 1".to_owned(),
            });
        }
        if row_lo >= row_hi || row_hi > self.rows {
            return Err(ArrayError::InvalidParameter {
                name: "rows",
                message: format!(
                    "row slice {row_lo}..{row_hi} invalid for {} rows",
                    self.rows
                ),
            });
        }
        // (count, min row-major index) per window, ordered by content.
        let mut classes: BTreeMap<Box<[u8]>, (usize, usize)> = BTreeMap::new();
        // The same per structural key, for the defect-free cells.
        let mut regular: HashMap<StructKey, (usize, usize)> = HashMap::new();
        let mut touched: Vec<(usize, usize)> = Vec::new();
        for row in row_lo..row_hi {
            // Defects whose row lies within the window band of `row`,
            // as the sorted column spans `[lo, hi)` their windows reach.
            let band_lo = self.defects.partition_point(|d| d.row + radius < row);
            let band_hi = self.defects.partition_point(|d| d.row <= row + radius);
            touched.clear();
            touched.extend(self.defects[band_lo..band_hi].iter().map(|d| {
                (
                    d.col.saturating_sub(radius),
                    (d.col + radius + 1).min(self.cols),
                )
            }));
            touched.sort_unstable();
            let mut next = 0;
            for &(lo, hi) in &touched {
                if hi <= next {
                    continue;
                }
                let lo = lo.max(next);
                self.tally_untouched(row, next, lo, radius, &mut regular);
                for col in lo..hi {
                    let index = row * self.cols + col;
                    let window = self.pack_window(row, col, radius);
                    tally(classes.entry(window).or_insert((0, index)), 1, index);
                }
                next = hi;
            }
            self.tally_untouched(row, next, self.cols, radius, &mut regular);
        }
        for (_, (count, index)) in regular {
            let window = self.pack_window(index / self.cols, index % self.cols, radius);
            tally(classes.entry(window).or_insert((0, index)), count, index);
        }
        Ok(classes
            .into_iter()
            .map(|(window, (count, index))| GridClass {
                window,
                radius,
                representative: (index / self.cols, index % self.cols),
                count,
            })
            .collect())
    }

    /// Tallies the defect-free columns `lo..hi` of `row`: each edge
    /// column on its own, the interior part as one run.
    fn tally_untouched(
        &self,
        row: usize,
        lo: usize,
        hi: usize,
        radius: usize,
        regular: &mut HashMap<StructKey, (usize, usize)>,
    ) {
        // Interior columns `radius..cols - radius` clamp both column
        // distances to `radius`; every other column is an edge column.
        let inner_hi = self.cols.saturating_sub(radius).max(radius);
        let edges = (lo..hi.min(radius)).chain(lo.max(inner_hi)..hi);
        for col in edges {
            self.tally_run(row, col, col + 1, radius, regular);
        }
        if lo.max(radius) < hi.min(inner_hi) {
            self.tally_run(row, lo.max(radius), hi.min(inner_hi), radius, regular);
        }
    }

    /// Tallies a run `lo..hi` of defect-free columns of `row` that share
    /// their clamped column distances: one structural key per pattern
    /// phase, counted in closed form, with the run's first column of
    /// that phase as the representative.
    fn tally_run(
        &self,
        row: usize,
        lo: usize,
        hi: usize,
        radius: usize,
        regular: &mut HashMap<StructKey, (usize, usize)>,
    ) {
        let period = match self.pattern {
            DataPattern::Checkerboard => 2,
            DataPattern::Zeros | DataPattern::Ones => 1,
        };
        for first in lo..hi.min(lo + period) {
            let key = (
                row.min(radius),
                (self.rows - 1 - row).min(radius),
                first.min(radius),
                (self.cols - 1 - first).min(radius),
                ((row + first) % period) as u8,
            );
            let index = row * self.cols + first;
            let count = (hi - first).div_ceil(period);
            tally(regular.entry(key).or_insert((0, index)), count, index);
        }
    }
}

/// Clamped distances to the top, bottom, left and right edges plus the
/// pattern phase: together they pin a defect-free cell's window.
type StructKey = (usize, usize, usize, usize, u8);

/// Adds `count` cells, the first at row-major `index`, to a
/// `(count, min index)` entry.
fn tally(entry: &mut (usize, usize), count: usize, index: usize) {
    entry.0 += count;
    entry.1 = entry.1.min(index);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_list_round_trips() {
        let defects = Defect::parse_list(" 12,34=AP; 56,78=P ;").unwrap();
        assert_eq!(defects.len(), 2);
        assert_eq!(
            defects[0],
            Defect {
                row: 12,
                col: 34,
                state: MtjState::AntiParallel
            }
        );
        assert!(Defect::parse_list("").unwrap().is_empty());
        assert!(Defect::parse_list("1,2=X").is_err());
        assert!(Defect::parse_list("1;2=AP").is_err());
        assert!(Defect::parse_list("a,b=P").is_err());
    }

    #[test]
    fn states_follow_pattern_defects_and_bounds() {
        let grid = PatternGrid::new(8, 8, DataPattern::Checkerboard)
            .unwrap()
            .with_defects(vec![Defect {
                row: 3,
                col: 3,
                state: MtjState::AntiParallel,
            }])
            .unwrap();
        assert_eq!(grid.state_at(0, 0), MtjState::Parallel);
        assert_eq!(grid.state_at(0, 1), MtjState::AntiParallel);
        // (3, 3) would be P on the checkerboard; the defect pins it AP.
        assert_eq!(grid.state_at(3, 3), MtjState::AntiParallel);
        assert_eq!(grid.state_at(-1, 0), MtjState::Parallel);
        assert_eq!(grid.state_at(0, 8), MtjState::Parallel);
    }

    #[test]
    fn invalid_grids_and_defects_are_rejected() {
        assert!(PatternGrid::new(0, 4, DataPattern::Zeros).is_err());
        let grid = PatternGrid::new(4, 4, DataPattern::Zeros).unwrap();
        let stuck = |row, col| Defect {
            row,
            col,
            state: MtjState::AntiParallel,
        };
        assert!(grid.clone().with_defects(vec![stuck(4, 0)]).is_err());
        assert!(grid
            .clone()
            .with_defects(vec![stuck(1, 1), stuck(1, 1)])
            .is_err());
        assert!(grid.shard_classes(2, 2, 1).is_err());
        assert!(grid.shard_classes(0, 5, 1).is_err());
        assert!(grid.shard_classes(0, 4, 0).is_err());
    }

    #[test]
    fn classes_cover_every_cell_and_match_the_dense_neighborhoods() {
        // Every class NP must agree with CellArray::neighborhood at the
        // representative, and counts must partition the grid.
        for pattern in [
            DataPattern::Zeros,
            DataPattern::Ones,
            DataPattern::Checkerboard,
        ] {
            let grid = PatternGrid::new(9, 7, pattern).unwrap();
            let dense = pattern.build(9, 7).unwrap();
            let classes = grid.shard_classes(0, 9, 1).unwrap();
            assert_eq!(classes.iter().map(|c| c.count).sum::<usize>(), 63);
            for class in &classes {
                let (r, c) = class.representative;
                assert_eq!(
                    class.stored(),
                    dense.get(r, c).unwrap(),
                    "{pattern} ({r},{c})"
                );
                assert_eq!(
                    class.np(),
                    dense.neighborhood(r, c).unwrap(),
                    "{pattern} ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn interior_collapses_to_a_constant_number_of_classes() {
        // Class count is O(radius²), independent of grid size.
        let small = PatternGrid::new(32, 32, DataPattern::Checkerboard)
            .unwrap()
            .shard_classes(0, 32, 2)
            .unwrap();
        let large = PatternGrid::new(512, 512, DataPattern::Checkerboard)
            .unwrap()
            .shard_classes(0, 512, 2)
            .unwrap();
        assert_eq!(small.len(), large.len());
        let windows: Vec<_> = small.iter().map(|c| c.window.clone()).collect();
        assert!(large.iter().all(|c| windows.contains(&c.window)));
    }

    #[test]
    fn shard_partitions_merge_to_the_full_extraction() {
        let grid = PatternGrid::new(24, 16, DataPattern::Checkerboard)
            .unwrap()
            .with_defects(vec![Defect {
                row: 10,
                col: 5,
                state: MtjState::AntiParallel,
            }])
            .unwrap();
        let full = grid.shard_classes(0, 24, 2).unwrap();
        let mut merged: BTreeMap<Box<[u8]>, usize> = BTreeMap::new();
        for (lo, hi) in [(0, 8), (8, 16), (16, 24)] {
            for class in grid.shard_classes(lo, hi, 2).unwrap() {
                *merged.entry(class.window).or_insert(0) += class.count;
            }
        }
        assert_eq!(merged.len(), full.len());
        for class in &full {
            assert_eq!(
                merged[&class.window], class.count,
                "at {:?}",
                class.representative
            );
        }
    }

    #[test]
    fn defects_make_their_windows_explicit() {
        let clean = PatternGrid::new(16, 16, DataPattern::Zeros).unwrap();
        let dirty = clean
            .clone()
            .with_defects(vec![Defect {
                row: 8,
                col: 8,
                state: MtjState::AntiParallel,
            }])
            .unwrap();
        let base = clean.shard_classes(0, 16, 1).unwrap().len();
        let with = dirty.shard_classes(0, 16, 1).unwrap();
        // The defect cell plus its 8 disturbed neighbours add classes.
        assert!(with.len() > base);
        assert_eq!(with.iter().map(|c| c.count).sum::<usize>(), 256);
        let stuck = with
            .iter()
            .find(|c| c.representative == (8, 8))
            .expect("defect cell class");
        assert_eq!(stuck.stored(), MtjState::AntiParallel);
        assert_eq!(stuck.count, 1);
    }
}
