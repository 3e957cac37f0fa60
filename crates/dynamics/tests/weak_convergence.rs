//! Weak convergence: the step error of the Monte-Carlo scenarios'
//! default time steps, pinned against a Gaussian reference at a quarter
//! of the smaller one.
//!
//! WER is a weak (distributional) quantity, so what a time step costs
//! is the bias of the failure fraction, not the pathwise error. At
//! `wer-mc`'s validated operating point (Δ ≈ 60, P→AP, 253 K, 5× Ic,
//! 1.3 ns, WER ≈ 0.29; see `validation.rs`) the ensemble at 1 ps (the
//! `wer-mc` default) and at 2 ps (the `array-wer`, `array-wer-shard`
//! and `switch-traj` default) must stay within 0.025 of a reference
//! run at 0.25 ps. The reference applies [`heun_step`] to the same
//! replica streams after the same initial angle, with Box–Muller
//! Gaussian increments in place of the ensemble's thermal increments,
//! so it also checks that those increments carry the Gaussian's weak
//! behaviour.
//!
//! The sizes were fixed before the first run and are never re-seeded:
//! 8192 replicas per estimate on seed 2024. At WER 0.29 one estimate
//! has σ ≈ 0.0050, and the difference of two independent estimates
//! σ ≈ 0.0071, so the bound is 3.5σ of an unpaired difference (the
//! shared initial angles make the real spread smaller).

use mramsim_dynamics::llgs::replica_rng;
use mramsim_dynamics::{heun_step, run_ensemble, EnsemblePlan, MacrospinParams, ReplicaOutcome};
use mramsim_mtj::{presets, SwitchDirection};
use mramsim_numerics::dist::standard_normal_pair;
use mramsim_numerics::pool::WorkerPool;
use mramsim_numerics::Vec3;
use mramsim_units::{Kelvin, Nanometer};

const REPLICAS: usize = 8192;
const SEED: u64 = 2024;
const PULSE: f64 = 1.3e-9;
const BOUND: f64 = 0.025;

fn operating_point() -> (MacrospinParams, f64) {
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let params =
        MacrospinParams::from_device(&device, SwitchDirection::PToAp, Kelvin::new(253.0)).unwrap();
    let drive = 5.0 * params.critical_current();
    (params, drive)
}

fn wer_of(outcomes: impl Iterator<Item = bool>) -> f64 {
    let failures = outcomes.filter(|switched| !switched).count();
    failures as f64 / REPLICAS as f64
}

/// Replica `index` at step `dt` with Gaussian thermal increments: both
/// halves of every Box–Muller pair, x then y then z.
fn gaussian_replica(params: &MacrospinParams, drive: f64, dt: f64, index: u64) -> bool {
    let plan = EnsemblePlan::new(1, SEED, dt).unwrap();
    let coeffs = params.coeffs();
    let (aj, sigma) = (params.aj_of(drive), params.thermal_sigma(dt));
    let mut rng = replica_rng(SEED, index);
    let mut m = params.initial_m(&mut rng);
    let mut spare = None;
    let mut normal = || {
        spare.take().unwrap_or_else(|| {
            let (first, second) = standard_normal_pair(&mut rng);
            spare = Some(second);
            first
        })
    };
    for _ in 0..plan.steps_for(PULSE) {
        let h_noise = Vec3::new(normal() * sigma, normal() * sigma, normal() * sigma);
        m = heun_step(&coeffs, m, h_noise, aj, dt);
    }
    m.z * coeffs.stt_sign > 0.0
}

#[test]
fn default_steps_stay_within_the_bound_of_a_quarter_step_gaussian_reference() {
    let (params, drive) = operating_point();
    let pool = WorkerPool::new(2);
    let chunks: Vec<u64> = (0..REPLICAS as u64).step_by(256).collect();
    let reference = wer_of(
        pool.scoped_map(&chunks, |_, &first| {
            (first..first + 256)
                .map(|i| gaussian_replica(&params, drive, 0.25e-12, i))
                .collect::<Vec<bool>>()
        })
        .into_iter()
        .flatten(),
    );
    assert!(
        (0.2..0.4).contains(&reference),
        "reference WER {reference} is off the operating point"
    );
    for dt in [1e-12, 2e-12] {
        let plan = EnsemblePlan::new(REPLICAS, SEED, dt).unwrap();
        let outcomes: Vec<ReplicaOutcome> = run_ensemble(&params, drive, PULSE, &plan, &pool);
        let wer = wer_of(outcomes.iter().map(|o| o.switched));
        println!("dt = {dt:e}: WER {wer:.4}, reference {reference:.4}");
        assert!(
            (wer - reference).abs() <= BOUND,
            "dt = {dt:e}: WER {wer} vs reference {reference} at 0.25 ps"
        );
    }
}
