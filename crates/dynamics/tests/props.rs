//! Property tests of the s-LLGS solver: conservation laws of the
//! deterministic limit and the bit-exactness contract of the
//! lane-blocked ensemble and of campaigns packed across ensembles.

use mramsim_dynamics::{
    heun_step, run_ensemble, run_replica, wer_campaign_seeded, CellDrive, EnsemblePlan,
    MacrospinParams, LANES,
};
use mramsim_mtj::{presets, SwitchDirection};
use mramsim_numerics::pool::WorkerPool;
use mramsim_numerics::Vec3;
use mramsim_units::{Kelvin, Nanometer, Oersted};
use proptest::prelude::*;

fn params(direction: SwitchDirection) -> MacrospinParams {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    MacrospinParams::from_device(&device, direction, Kelvin::new(300.0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Zero temperature, zero current: every Heun step preserves
    /// `|m| = 1` to 1e-12 and damping relaxes the spin back onto the
    /// easy axis of its initial well.
    #[test]
    fn deterministic_trajectories_conserve_norm_and_relax(
        theta_frac in 0.05f64..0.85,
        phi in 0.0f64..core::f64::consts::TAU,
    ) {
        for direction in [SwitchDirection::ApToP, SwitchDirection::PToAp] {
            let p = params(direction);
            let theta = theta_frac * core::f64::consts::FRAC_PI_2;
            let (sin_t, cos_t) = theta.sin_cos();
            let mut m = Vec3::new(
                sin_t * phi.cos(),
                sin_t * phi.sin(),
                p.initial_mz() * cos_t,
            );
            let well = p.initial_mz();
            let dt = 1e-12;
            // 30 ns of free relaxation.
            for _ in 0..30_000 {
                m = heun_step(&p.coeffs(), m, Vec3::ZERO, 0.0, dt);
                prop_assert!((m.norm() - 1.0).abs() < 1e-12, "|m| drifted: {}", m.norm());
            }
            prop_assert!(
                m.z * well > 0.999,
                "{direction}: did not relax to its well, m = {m:?}"
            );
        }
    }

    /// (b) The lane-blocked SoA ensemble reproduces the scalar
    /// reference stepper bit-for-bit per replica, for any ensemble
    /// size (including ragged tails), seed, and worker count.
    #[test]
    fn lane_blocked_ensemble_bit_matches_scalar(
        trajectories in 1usize..3 * LANES + 5,
        seed in 0u64..1_000_000,
        workers in 1usize..7,
        over in 1.5f64..6.0,
    ) {
        let p = params(SwitchDirection::PToAp);
        let plan = EnsemblePlan::new(trajectories, seed, 2e-12).unwrap();
        let drive = over * p.critical_current();
        let duration = 0.8e-9;
        let ensemble = run_ensemble(&p, drive, duration, &plan, &WorkerPool::new(workers));
        prop_assert_eq!(ensemble.len(), trajectories);
        for (i, got) in ensemble.iter().enumerate() {
            let reference = run_replica(&p, drive, duration, &plan, i as u64);
            prop_assert_eq!(
                got.final_m.x.to_bits(), reference.final_m.x.to_bits(),
                "replica {} x", i
            );
            prop_assert_eq!(got.final_m.y.to_bits(), reference.final_m.y.to_bits());
            prop_assert_eq!(got.final_m.z.to_bits(), reference.final_m.z.to_bits());
            prop_assert_eq!(got.crossing_time, reference.crossing_time);
            prop_assert_eq!(got.switched, reference.switched);
        }
    }

    /// (c) A campaign packs its cells' replicas densely across lane
    /// blocks, so one block holds replicas of several cells; each
    /// cell's failure count still equals that of its replicas stepped
    /// alone through the scalar reference on the cell's seed.
    #[test]
    fn packed_campaign_failures_match_scalar_replicas(
        specs in prop::collection::vec((0u8..2, -400.0f64..250.0, 2.5f64..6.0), 1..6),
        trajectories in 1usize..41,
        seed in 0u64..1_000_000,
        thermal in 0u8..2,
        workers in 1usize..7,
    ) {
        let cells: Vec<CellDrive> = specs
            .iter()
            .map(|&(direction, hz, over)| {
                let direction = if direction == 0 {
                    SwitchDirection::ApToP
                } else {
                    SwitchDirection::PToAp
                };
                let params = params(direction).with_applied_hz(Oersted::new(hz));
                CellDrive {
                    current: over * params.critical_current(),
                    params,
                }
            })
            .collect();
        let seeds: Vec<u64> = (0..cells.len() as u64).map(|c| seed + 7919 * c).collect();
        let plan = EnsemblePlan::new(trajectories, seed, 2e-12)
            .unwrap()
            .with_thermal(thermal == 1);
        let pulse = 1.5e-9;
        let pool = WorkerPool::new(workers);
        let campaign = wer_campaign_seeded(&cells, &seeds, pulse, &plan, &pool);
        prop_assert_eq!(campaign.len(), cells.len());
        for (c, (cell, estimate)) in cells.iter().zip(&campaign).enumerate() {
            let solo = EnsemblePlan { seed: seeds[c], ..plan };
            let failures = (0..trajectories as u64)
                .filter(|&i| !run_replica(&cell.params, cell.current, pulse, &solo, i).switched)
                .count();
            prop_assert_eq!(estimate.trajectories, trajectories);
            prop_assert_eq!(estimate.failures, failures, "cell {}", c);
        }
    }
}
