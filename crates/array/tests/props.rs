//! Property tests for the ring-truncated stray-field kernel and the
//! window-class extraction: across random device sizes, pitches, and
//! stored-state patterns, the truncated inter-cell sum must agree with a
//! much deeper extended sum to within the kernel's advertised a-priori
//! dipole-tail bound; across random grids, bands, radii and defects,
//! `PatternGrid::shard_classes` must equal a cell-by-cell oracle.

use mramsim_array::{
    DataPattern, Defect, ExtendedCoupling, GridClass, PatternGrid, StrayFieldKernel,
};
use mramsim_mtj::{presets, MtjDevice, MtjState};
use mramsim_numerics::hash::fnv1a;
use mramsim_units::constants::OERSTED_PER_AMPERE_PER_METER;
use mramsim_units::{Nanometer, Oersted};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The ring-1 representative-collapse slack: the kernel stands all
/// eight first-ring neighbours on two polygon-loop evaluations, which
/// agree with the per-offset sums to well under this many oersted.
const SYMMETRY_SLACK_OE: f64 = 0.1;

/// The kernel with exactly `radius` rings: a tolerance no radius
/// reaches stops the growth at the cap.
fn at_radius(device: &MtjDevice, pitch: Nanometer, radius: usize) -> StrayFieldKernel {
    StrayFieldKernel::for_tolerance(device, pitch, Oersted::new(1e-12), radius).unwrap()
}

/// A deterministic pseudo-random stored-state assignment over the whole
/// lattice, derived from the draw's seed — every offset gets an
/// independent coin flip, reproducible across kernels.
fn pattern_of(seed: u64) -> impl Fn(i32, i32) -> MtjState {
    move |di, dj| {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..12].copy_from_slice(&di.to_le_bytes());
        bytes[12..].copy_from_slice(&dj.to_le_bytes());
        if fnv1a(&bytes) & 1 == 0 {
            MtjState::Parallel
        } else {
            MtjState::AntiParallel
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The accuracy contract behind `--field_tol`: for any draw of
    /// device size, pitch, pattern, and truncation radius, the stray
    /// field the truncated kernel ignores is no larger than its
    /// advertised tail bound.
    #[test]
    fn truncated_window_sum_meets_the_advertised_bound(
        ecd in 20.0f64..55.0,
        ratio in 1.8f64..3.0,
        seed in 0u64..=u64::MAX,
        radius in 1usize..=3,
    ) {
        let device = presets::imec_like(Nanometer::new(ecd)).unwrap();
        let pitch = Nanometer::new(ratio * ecd);
        let truncated = at_radius(&device, pitch, radius);
        let deep = at_radius(&device, pitch, radius + 6);
        let pattern = pattern_of(seed);
        let err_oe = OERSTED_PER_AMPERE_PER_METER
            * (deep.inter_hz_window(&pattern) - truncated.inter_hz_window(&pattern)).abs();
        let bound = truncated.tail_bound().value() + SYMMETRY_SLACK_OE;
        prop_assert!(
            err_oe <= bound,
            "truncation error {err_oe} Oe > bound {bound} Oe at radius {radius}, \
             eCD {ecd:.1} nm, pitch {:.1} nm",
            pitch.value()
        );
    }

    /// The kernel's uniform aggregate reproduces the extended
    /// per-ring ledger — two independent summation orders over the same
    /// Biot–Savart stack.
    #[test]
    fn uniform_window_matches_the_extended_ring_ledger(
        ecd in 20.0f64..55.0,
        ratio in 1.8f64..3.0,
        radius in 1usize..=3,
    ) {
        let device = presets::imec_like(Nanometer::new(ecd)).unwrap();
        let pitch = Nanometer::new(ratio * ecd);
        let kernel = at_radius(&device, pitch, radius);
        let ext = ExtendedCoupling::new(device, pitch).unwrap();
        for state in [MtjState::Parallel, MtjState::AntiParallel] {
            let uniform_oe = OERSTED_PER_AMPERE_PER_METER * kernel.uniform_inter_hz(state);
            let ledger_oe = ext.cumulative_hz(radius, state).unwrap().value();
            prop_assert!(
                (uniform_oe - ledger_oe).abs() <= SYMMETRY_SLACK_OE,
                "{state}: uniform {uniform_oe} Oe vs ledger {ledger_oe} Oe"
            );
        }
    }

    /// The bound itself is honest about depth: more rings never
    /// advertise a looser truncation.
    #[test]
    fn tail_bound_shrinks_as_rings_are_added(
        ecd in 20.0f64..55.0,
        ratio in 1.8f64..3.0,
    ) {
        let device = presets::imec_like(Nanometer::new(ecd)).unwrap();
        let pitch = Nanometer::new(ratio * ecd);
        let bounds: Vec<f64> = (1..=4)
            .map(|r| at_radius(&device, pitch, r).tail_bound().value())
            .collect();
        for pair in bounds.windows(2) {
            prop_assert!(
                pair[1] < pair[0],
                "tail bound must shrink with radius: {bounds:?}"
            );
        }
    }
}

/// The brute-force extraction: every cell of the band packs its own
/// window; cells group by window content with the count and the minimum
/// row-major index.
fn oracle_classes(
    grid: &PatternGrid,
    row_lo: usize,
    row_hi: usize,
    radius: usize,
) -> Vec<GridClass> {
    let mut classes: BTreeMap<Box<[u8]>, GridClass> = BTreeMap::new();
    for row in row_lo..row_hi {
        for col in 0..grid.cols() {
            let window = grid.pack_window(row, col, radius);
            classes
                .entry(window.clone())
                .or_insert(GridClass {
                    window,
                    radius,
                    representative: (row, col),
                    count: 0,
                })
                .count += 1;
        }
    }
    classes.into_values().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The row-run extraction returns exactly the oracle's classes, in
    /// the same order, with the same counts and representatives.
    #[test]
    fn shard_classes_equal_the_cell_by_cell_oracle(
        (rows, cols) in (1usize..=40, 1usize..=40),
        (band_start, band_len) in (0usize..40, 1usize..=40),
        radius in 1usize..=5,
        pattern in 0usize..3,
        sites in prop::collection::vec((0usize..40, 0usize..40, 0u8..2), 0..4),
    ) {
        let pattern = [DataPattern::Zeros, DataPattern::Ones, DataPattern::Checkerboard][pattern];
        let mut defects: Vec<Defect> = Vec::new();
        for (row, col, ap) in sites {
            let (row, col) = (row % rows, col % cols);
            if !defects.iter().any(|d| (d.row, d.col) == (row, col)) {
                let state = MtjState::from_bit(ap == 1);
                defects.push(Defect { row, col, state });
            }
        }
        let grid = PatternGrid::new(rows, cols, pattern)
            .unwrap()
            .with_defects(defects)
            .unwrap();
        let row_lo = band_start % rows;
        let row_hi = (row_lo + band_len).min(rows);
        prop_assert_eq!(
            grid.shard_classes(row_lo, row_hi, radius).unwrap(),
            oracle_classes(&grid, row_lo, row_hi, radius),
            "{rows}x{cols} {pattern} rows {row_lo}..{row_hi} radius {radius} defects {:?}",
            grid.defects()
        );
    }
}
