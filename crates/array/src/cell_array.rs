//! The data state of an N×M MTJ array.
//!
//! Moved up from the faults crate so that array-level field adapters
//! (the write-campaign [`crate::cell_field_map`]) and the fault
//! machinery share one grid type; `mramsim-faults` re-exports it.

use crate::{ArrayError, NeighborhoodPattern};
use mramsim_mtj::MtjState;

/// An N×M array of MTJ cell states with neighbourhood extraction.
///
/// Cells are addressed `(row, col)`; the paper's aggressor ordering
/// C0–C3 (direct: E, W, S, N) then C4–C7 (diagonals) is preserved when
/// building [`NeighborhoodPattern`]s. Cells outside the array behave as
/// P-state (bit 0) neighbours — the weakest-aggressor convention, which
/// also matches a grounded dummy-cell ring.
///
/// # Examples
///
/// ```
/// use mramsim_array::CellArray;
/// use mramsim_mtj::MtjState;
///
/// let mut array = CellArray::filled(3, 3, MtjState::Parallel)?;
/// array.set(1, 1, MtjState::AntiParallel)?;
/// assert_eq!(array.get(1, 1)?, MtjState::AntiParallel);
/// // The centre's neighbours are all P:
/// assert_eq!(array.neighborhood(1, 1)?.bits(), 0);
/// # Ok::<(), mramsim_array::ArrayError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellArray {
    rows: usize,
    cols: usize,
    bits: Vec<MtjState>,
}

impl CellArray {
    /// Creates an array with every cell in `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] for zero dimensions.
    pub fn filled(rows: usize, cols: usize, state: MtjState) -> Result<Self, ArrayError> {
        if rows == 0 || cols == 0 {
            return Err(ArrayError::InvalidParameter {
                name: "rows/cols",
                message: format!("array dimensions must be positive, got {rows}x{cols}"),
            });
        }
        Ok(Self {
            rows,
            cols,
            bits: vec![state; rows * cols],
        })
    }

    /// Creates a checkerboard pattern (worst case for many coupling
    /// mechanisms).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] for zero dimensions.
    pub fn checkerboard(rows: usize, cols: usize) -> Result<Self, ArrayError> {
        Self::from_fn(rows, cols, |r, c| {
            if (r + c) % 2 == 1 {
                MtjState::AntiParallel
            } else {
                MtjState::Parallel
            }
        })
    }

    /// Creates an array from a per-cell state function.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] for zero dimensions.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        state: impl Fn(usize, usize) -> MtjState,
    ) -> Result<Self, ArrayError> {
        let mut array = Self::filled(rows, cols, MtjState::Parallel)?;
        for r in 0..rows {
            for c in 0..cols {
                array.bits[r * cols + c] = state(r, c);
            }
        }
        Ok(array)
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

    /// Total cell count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the array has no cells (never true post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    fn check(&self, row: usize, col: usize) -> Result<usize, ArrayError> {
        if row >= self.rows || col >= self.cols {
            return Err(ArrayError::InvalidAddress {
                message: format!("({row}, {col}) outside a {}x{} array", self.rows, self.cols),
            });
        }
        Ok(row * self.cols + col)
    }

    /// Reads the state of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidAddress`] when out of range.
    pub fn get(&self, row: usize, col: usize) -> Result<MtjState, ArrayError> {
        Ok(self.bits[self.check(row, col)?])
    }

    /// Sets the state of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidAddress`] when out of range.
    pub fn set(&mut self, row: usize, col: usize, state: MtjState) -> Result<(), ArrayError> {
        let idx = self.check(row, col)?;
        self.bits[idx] = state;
        Ok(())
    }

    /// The neighbourhood pattern around a cell; out-of-array neighbours
    /// count as P (bit 0).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidAddress`] when out of range.
    pub fn neighborhood(&self, row: usize, col: usize) -> Result<NeighborhoodPattern, ArrayError> {
        self.check(row, col)?;
        Ok(NeighborhoodPattern::from_fn(|di, dj| {
            let (r, c) = (row as isize + di as isize, col as isize + dj as isize);
            if r < 0 || c < 0 || r as usize >= self.rows || c as usize >= self.cols {
                MtjState::Parallel
            } else {
                self.bits[r as usize * self.cols + c as usize]
            }
        }))
    }

    /// Iterates over all `(row, col)` addresses in row-major order.
    pub fn addresses(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| (r, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap_cells(a: &CellArray) -> usize {
        a.bits
            .iter()
            .filter(|s| **s == MtjState::AntiParallel)
            .count()
    }

    #[test]
    fn filled_and_counts() {
        let a = CellArray::filled(4, 5, MtjState::AntiParallel).unwrap();
        assert_eq!(a.len(), 20);
        assert_eq!(ap_cells(&a), 20);
        assert!(!a.is_empty());
    }

    #[test]
    fn checkerboard_alternates() {
        let a = CellArray::checkerboard(4, 4).unwrap();
        assert_eq!(ap_cells(&a), 8);
        assert_eq!(a.get(0, 0).unwrap(), MtjState::Parallel);
        assert_eq!(a.get(0, 1).unwrap(), MtjState::AntiParallel);
        assert_eq!(a.get(1, 0).unwrap(), MtjState::AntiParallel);
    }

    #[test]
    fn from_fn_addresses_cells_row_major() {
        let a = CellArray::from_fn(2, 3, |r, c| MtjState::from_bit(r == 1 && c == 2)).unwrap();
        assert_eq!(ap_cells(&a), 1);
        assert_eq!(a.get(1, 2).unwrap(), MtjState::AntiParallel);
    }

    #[test]
    fn interior_neighborhood_of_checkerboard() {
        let a = CellArray::checkerboard(5, 5).unwrap();
        // A P cell at (2,2): direct neighbours are all AP, diagonals P.
        let np = a.neighborhood(2, 2).unwrap();
        assert_eq!(np.ones_direct(), 4);
        assert_eq!(np.ones_diagonal(), 0);
    }

    #[test]
    fn corner_neighbors_default_to_p() {
        let a = CellArray::filled(3, 3, MtjState::AntiParallel).unwrap();
        let np = a.neighborhood(0, 0).unwrap();
        // Only E, S, SE exist: 2 direct + 1 diagonal AP bits.
        assert_eq!(np.ones_direct(), 2);
        assert_eq!(np.ones_diagonal(), 1);
    }

    #[test]
    fn one_by_one_array_has_an_all_p_neighborhood() {
        // The degenerate single-cell array: every neighbour is a dummy.
        let a = CellArray::filled(1, 1, MtjState::AntiParallel).unwrap();
        assert_eq!(a.neighborhood(0, 0).unwrap().bits(), 0);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let mut a = CellArray::filled(2, 2, MtjState::Parallel).unwrap();
        assert!(a.get(2, 0).is_err());
        assert!(a.set(0, 2, MtjState::Parallel).is_err());
        assert!(a.neighborhood(5, 5).is_err());
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CellArray::filled(0, 3, MtjState::Parallel).is_err());
        assert!(CellArray::checkerboard(3, 0).is_err());
    }

    #[test]
    fn addresses_cover_every_cell_once() {
        let a = CellArray::filled(3, 4, MtjState::Parallel).unwrap();
        let addrs: Vec<_> = a.addresses().collect();
        assert_eq!(addrs.len(), 12);
        assert_eq!(addrs[0], (0, 0));
        assert_eq!(addrs[11], (2, 3));
    }
}
