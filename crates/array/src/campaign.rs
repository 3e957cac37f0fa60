//! The kernel-to-cell field adapter for array-scale write campaigns.
//!
//! An N×M write campaign needs one number per cell: the total stray
//! field `Hz_s_intra + Hz_s_inter(NP8)` at the victim FL centre under
//! the array's data pattern. [`cell_field_map`] derives it for every
//! cell from the cached [`StrayFieldKernel`] — the same memoised
//! Biot–Savart precomputation behind `CouplingAnalyzer` — so mapping a
//! whole array at a known `(device, pitch)` design point is pure
//! pattern arithmetic, with no field evaluation at all.

use crate::{ArrayError, CellArray, NeighborhoodPattern, StrayFieldKernel};
use mramsim_mtj::{MtjDevice, MtjState};
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Nanometer, Oersted};

/// A named initial data pattern for an N×M array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPattern {
    /// Every cell P (`NP8` bit 0) — the paper's retention worst case.
    Zeros,
    /// Every cell AP — the strongest positive coupling background.
    Ones,
    /// Alternating P/AP — the classic coupling stress pattern.
    Checkerboard,
}

impl DataPattern {
    /// Parses a CLI pattern name (`zeros` | `ones` | `checkerboard`).
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for any other name (including
    /// the empty string).
    pub fn parse(name: &str) -> Result<Self, ArrayError> {
        match name {
            "zeros" => Ok(Self::Zeros),
            "ones" => Ok(Self::Ones),
            "checkerboard" => Ok(Self::Checkerboard),
            other => Err(ArrayError::InvalidParameter {
                name: "pattern",
                message: format!("expected `zeros`, `ones`, or `checkerboard`, got `{other}`"),
            }),
        }
    }

    /// Materialises the pattern as an N×M [`CellArray`].
    ///
    /// # Errors
    ///
    /// [`ArrayError::InvalidParameter`] for zero dimensions.
    pub fn build(self, rows: usize, cols: usize) -> Result<CellArray, ArrayError> {
        match self {
            Self::Zeros => CellArray::filled(rows, cols, MtjState::Parallel),
            Self::Ones => CellArray::filled(rows, cols, MtjState::AntiParallel),
            Self::Checkerboard => CellArray::checkerboard(rows, cols),
        }
    }
}

impl core::fmt::Display for DataPattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Zeros => "zeros",
            Self::Ones => "ones",
            Self::Checkerboard => "checkerboard",
        })
    }
}

/// The stray-field environment of one cell under a data pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellField {
    /// Cell row.
    pub row: usize,
    /// Cell column.
    pub col: usize,
    /// The cell's stored state in the pattern.
    pub state: MtjState,
    /// Its neighbourhood pattern (out-of-array neighbours count as P).
    pub np: NeighborhoodPattern,
    /// Total stray field `Hz_s_intra + Hz_s_inter(NP8)` \[A/m\].
    pub hz_apm: f64,
}

impl CellField {
    /// The total stray field in oersted.
    #[must_use]
    pub fn hz_oe(&self) -> Oersted {
        Oersted::new(self.hz_apm * OERSTED_PER_AMPERE_PER_METER)
    }
}

/// Derives every cell's total stray field under `data` from the shared
/// kernel cache, row-major.
///
/// # Errors
///
/// Same contract as [`StrayFieldKernel::shared`] (pitch < eCD, device
/// failures).
///
/// # Examples
///
/// ```
/// use mramsim_array::{cell_field_map, CellArray};
/// use mramsim_mtj::presets;
/// use mramsim_units::Nanometer;
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let data = CellArray::checkerboard(4, 4)?;
/// let cells = cell_field_map(&device, Nanometer::new(70.0), &data)?;
/// assert_eq!(cells.len(), 16);
/// // A P interior cell sees four AP direct neighbours: the strongest
/// // positive inter field of the pattern.
/// let interior = &cells[1 * 4 + 1];
/// assert_eq!(interior.np.ones_direct(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn cell_field_map(
    device: &MtjDevice,
    pitch: Nanometer,
    data: &CellArray,
) -> Result<Vec<CellField>, ArrayError> {
    let kernel = StrayFieldKernel::shared(device, pitch)?;
    let mut out = Vec::with_capacity(data.len());
    for (row, col) in data.addresses() {
        let np = data.neighborhood(row, col)?;
        out.push(CellField {
            row,
            col,
            state: data.get(row, col)?,
            np,
            hz_apm: kernel.total_hz(np),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CouplingAnalyzer;
    use mramsim_mtj::presets;

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    #[test]
    fn pattern_names_round_trip() {
        for p in [
            DataPattern::Zeros,
            DataPattern::Ones,
            DataPattern::Checkerboard,
        ] {
            assert_eq!(DataPattern::parse(&p.to_string()).unwrap(), p);
        }
        assert!(DataPattern::parse("stripes").is_err());
        assert!(DataPattern::parse("").is_err());
    }

    #[test]
    fn patterns_build_the_expected_arrays() {
        let ap_cells = |pattern: DataPattern, n: usize| {
            let a = pattern.build(n, n).unwrap();
            a.addresses()
                .filter(|&(r, c)| a.get(r, c).unwrap() == MtjState::AntiParallel)
                .count()
        };
        assert_eq!(ap_cells(DataPattern::Zeros, 3), 0);
        assert_eq!(ap_cells(DataPattern::Ones, 3), 9);
        assert_eq!(ap_cells(DataPattern::Checkerboard, 4), 8);
        assert!(DataPattern::Checkerboard.build(0, 4).is_err());
    }

    #[test]
    fn cell_fields_match_the_coupling_analyzer_per_cell() {
        let dev = device();
        let pitch = Nanometer::new(70.0);
        let data = CellArray::checkerboard(5, 5).unwrap();
        let fields = cell_field_map(&dev, pitch, &data).unwrap();
        let analyzer = CouplingAnalyzer::new(dev, pitch).unwrap();
        for f in &fields {
            let expected = analyzer.total_hz(f.np);
            assert!(
                (f.hz_oe().value() / expected.value() - 1.0).abs() < 1e-9,
                "cell ({}, {}): {} vs {}",
                f.row,
                f.col,
                f.hz_oe(),
                expected
            );
        }
    }

    #[test]
    fn uniform_patterns_split_edge_and_interior_fields() {
        // In an all-AP array an interior cell sees NP8=255 but a corner
        // sees only 3 real aggressors — its field must be lower.
        let dev = device();
        let data = CellArray::filled(4, 4, mramsim_mtj::MtjState::AntiParallel).unwrap();
        let fields = cell_field_map(&dev, Nanometer::new(70.0), &data).unwrap();
        let interior = fields.iter().find(|f| (f.row, f.col) == (1, 1)).unwrap();
        let corner = fields.iter().find(|f| (f.row, f.col) == (0, 0)).unwrap();
        assert_eq!(interior.np.bits(), 255);
        assert!(corner.hz_apm < interior.hz_apm);
    }

    #[test]
    fn single_cell_array_is_the_isolated_victim() {
        let dev = device();
        let data = CellArray::filled(1, 1, MtjState::Parallel).unwrap();
        let fields = cell_field_map(&dev, Nanometer::new(70.0), &data).unwrap();
        assert_eq!(fields.len(), 1);
        // No real aggressors: the inter term is the all-P dummy-ring
        // value, matching NP8 = 0.
        let kernel = StrayFieldKernel::shared(&dev, Nanometer::new(70.0)).unwrap();
        assert_eq!(
            fields[0].hz_apm,
            kernel.total_hz(NeighborhoodPattern::ALL_P)
        );
    }

    #[test]
    fn overlapping_pitch_is_rejected() {
        let dev = device();
        let data = CellArray::checkerboard(2, 2).unwrap();
        assert!(cell_field_map(&dev, Nanometer::new(10.0), &data).is_err());
    }
}
