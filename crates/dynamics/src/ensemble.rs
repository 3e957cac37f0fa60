//! Lane-blocked trajectory ensembles on the shared worker pool.
//!
//! One kernel, [`run_lanes`], steps every replica the crate simulates
//! outside the scalar reference: a block of [`LANES`] lanes held in
//! structure-of-arrays form (mirroring the 16-lane batched field kernels
//! of `mramsim-magnetics`). Each lane carries its own coefficients,
//! drive, noise scale and `(seed, replica index)` stream, so one block
//! may hold replicas of several ensembles: [`run_ensemble`] fills blocks
//! from one ensemble, the array write campaign packs a whole batch of
//! ensembles densely. Each step first fills the per-lane thermal-field
//! arrays — the block's xoshiro states advance together in SoA form and
//! the ziggurat fast path runs across all lanes, only its ≈1.5% misses
//! finishing lane by lane — then runs one branch-free arithmetic pass
//! over the lanes — a loop the compiler keeps in SIMD registers — and
//! finally scans for barrier crossings. Blocks fan out as work items on
//! [`mramsim_numerics::pool`]. Lanes past the last replica of a batch
//! repeat a live lane and are discarded, so only a batch's last block
//! computes padding.
//!
//! Determinism contract: every replica owns an RNG stream derived only
//! from `(seed, replica index)` ([`crate::llgs::replica_rng`]) and draws
//! its initial angle, then its thermal field x, y, z per step, from it;
//! the lane pass applies [`crate::llgs::heun_step`] verbatim per lane,
//! on that lane's [`DriftCoeffs`] — so the ensemble result is
//! **bit-identical** to stepping each replica through the scalar
//! reference path ([`run_replica`]), no matter how replicas are blocked,
//! which ensembles share a block, or how many workers execute the
//! blocks. That is what makes Monte-Carlo results content-addressable by
//! the engine cache.

use crate::llgs::{heun_step, replica_rng, thermal_field, DriftCoeffs, MacrospinParams};
use crate::stream::LaneStreams;
use crate::DynamicsError;
use mramsim_numerics::dist::Ziggurat;
use mramsim_numerics::pool::WorkerPool;
use mramsim_numerics::Vec3;
use mramsim_telemetry as telemetry;

/// Replicas stepped together in one structure-of-arrays block.
pub const LANES: usize = 16;

/// The reproducible execution plan of one ensemble.
///
/// Every field is part of the result's identity: the engine folds all
/// of them into its content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsemblePlan {
    /// Number of replicas.
    pub trajectories: usize,
    /// Base seed; replica `i` runs on stream `replica_rng(seed, i)`.
    pub seed: u64,
    /// Time step in seconds.
    pub dt: f64,
    /// Whether the thermal fluctuation field acts during the pulse
    /// (`false` freezes the bath after the initial-angle draw — the
    /// assumption of the analytic Butler model).
    pub thermal: bool,
}

impl EnsemblePlan {
    /// The largest ensemble a plan accepts (2^20 replicas). Campaigns
    /// size per-block bookkeeping by the replica count, so an unbounded
    /// request would abort the process on allocation instead of
    /// failing as a parameter error.
    pub const MAX_TRAJECTORIES: usize = 1 << 20;

    /// The most Heun steps one replica may take (2^20), over 50× the
    /// longest span a scenario asks for by default (`switch-traj`'s
    /// 7,500 steps). A `1 s` pulse at 2 ps would hold a worker for
    /// hours and stall a server's drain; it fails as a parameter error
    /// instead ([`Self::checked_steps_for`]).
    pub const MAX_STEPS: usize = 1 << 20;

    /// The most lane-steps (replicas × Heun steps) one ensemble may
    /// take (2^32), about 100× the largest documented request
    /// (`wer-mc --trajectories 32768` at 1.3 ns / 1 ps, 4.3e7). The two
    /// caps above alone admit 2^40 lane-steps, hours of one core; past
    /// this one a plan fails as a parameter error instead
    /// ([`Self::checked_steps_for`]).
    pub const MAX_LANE_STEPS: u64 = 1 << 32;

    /// A plan with thermal noise enabled.
    ///
    /// # Errors
    ///
    /// [`DynamicsError::InvalidParameter`] for zero or more than
    /// [`Self::MAX_TRAJECTORIES`] trajectories, or a
    /// non-positive/non-finite `dt`.
    pub fn new(trajectories: usize, seed: u64, dt: f64) -> Result<Self, DynamicsError> {
        if trajectories == 0 || trajectories > Self::MAX_TRAJECTORIES {
            return Err(DynamicsError::InvalidParameter {
                name: "trajectories",
                message: format!(
                    "need 1..={} replicas, got {trajectories}",
                    Self::MAX_TRAJECTORIES
                ),
            });
        }
        if !(dt > 0.0) || !dt.is_finite() {
            return Err(DynamicsError::InvalidParameter {
                name: "dt",
                message: format!("time step must be positive and finite, got {dt}"),
            });
        }
        Ok(Self {
            trajectories,
            seed,
            dt,
            thermal: true,
        })
    }

    /// Builder-style: toggles the in-pulse thermal field.
    #[must_use]
    pub fn with_thermal(mut self, thermal: bool) -> Self {
        self.thermal = thermal;
        self
    }

    /// The number of Heun steps for a simulated span of `duration`
    /// seconds (at least one). Ratios within rounding error of an
    /// integer snap to it, so `1 ns / 1 ps` is 1000 steps, not 1001.
    #[must_use]
    pub fn steps_for(&self, duration: f64) -> usize {
        let ratio = duration / self.dt;
        let snapped = if (ratio - ratio.round()).abs() < 1e-6 * ratio.abs().max(1.0) {
            ratio.round()
        } else {
            ratio.ceil()
        };
        (snapped as usize).max(1)
    }

    /// [`Self::steps_for`], refused past [`Self::MAX_STEPS`] and, with
    /// the plan's replicas, past [`Self::MAX_LANE_STEPS`]. Callers check
    /// a span with it before any block runs.
    ///
    /// # Errors
    ///
    /// [`DynamicsError::InvalidParameter`] (`steps`) when the span
    /// needs more than [`Self::MAX_STEPS`] steps, or (`lane_steps`)
    /// when replicas × steps exceeds [`Self::MAX_LANE_STEPS`].
    pub fn checked_steps_for(&self, duration: f64) -> Result<usize, DynamicsError> {
        let steps = self.steps_for(duration);
        if steps > Self::MAX_STEPS {
            return Err(DynamicsError::InvalidParameter {
                name: "steps",
                message: format!(
                    "a span of {duration:e} s at dt = {:e} s needs {steps} Heun steps per \
                     replica, more than {}",
                    self.dt,
                    Self::MAX_STEPS
                ),
            });
        }
        let lane_steps = (self.trajectories as u64).saturating_mul(steps as u64);
        if lane_steps > Self::MAX_LANE_STEPS {
            return Err(DynamicsError::InvalidParameter {
                name: "lane_steps",
                message: format!(
                    "{} replicas x {steps} Heun steps is {lane_steps} lane-steps per ensemble, \
                     more than {}",
                    self.trajectories,
                    Self::MAX_LANE_STEPS
                ),
            });
        }
        Ok(steps)
    }
}

/// The outcome of one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaOutcome {
    /// The magnetisation when the simulated span ended.
    pub final_m: Vec3,
    /// Whether `m` sat past the barrier (destination hemisphere) at the
    /// end of the span.
    pub switched: bool,
    /// First time `m_z` crossed into the destination hemisphere, in
    /// seconds (`None` if it never did).
    pub crossing_time: Option<f64>,
}

/// Steps replica `index` through the scalar reference path.
///
/// This is the semantics-defining implementation: the lane-blocked
/// ensemble must (and does, see the crate's property tests) reproduce
/// it bit-for-bit per replica.
#[must_use]
pub fn run_replica(
    params: &MacrospinParams,
    current: f64,
    duration: f64,
    plan: &EnsemblePlan,
    index: u64,
) -> ReplicaOutcome {
    let steps = plan.steps_for(duration);
    let aj = params.aj_of(current);
    let sigma = if plan.thermal {
        params.thermal_sigma(plan.dt)
    } else {
        0.0
    };
    let coeffs = params.coeffs();
    let dest = coeffs.stt_sign;
    let mut rng = replica_rng(plan.seed, index);
    let mut m = params.initial_m(&mut rng);
    let mut crossing_time = None;
    for k in 0..steps {
        let h_noise = if plan.thermal {
            thermal_field(&mut rng, sigma)
        } else {
            Vec3::ZERO
        };
        m = heun_step(&coeffs, m, h_noise, aj, plan.dt);
        if crossing_time.is_none() && m.z * dest > 0.0 {
            crossing_time = Some((k + 1) as f64 * plan.dt);
        }
    }
    ReplicaOutcome {
        final_m: m,
        switched: m.z * dest > 0.0,
        crossing_time,
    }
}

/// One lane of a block: replica `index` of the ensemble seeded `seed`,
/// stepped under `params` at a drive of `current` amperes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneSpec<'a> {
    pub(crate) params: &'a MacrospinParams,
    pub(crate) current: f64,
    pub(crate) seed: u64,
    pub(crate) index: u64,
}

/// The [`DriftCoeffs`] of a block's lanes, one array per coefficient,
/// so the lane pass loads them across lanes like the state.
struct LaneCoeffs {
    hx: [f64; LANES],
    hy: [f64; LANES],
    hz: [f64; LANES],
    hk_eff: [f64; LANES],
    stt_sign: [f64; LANES],
    gamma_eff: [f64; LANES],
    alpha_eff: [f64; LANES],
}

impl LaneCoeffs {
    fn new(coeffs: [DriftCoeffs; LANES]) -> Self {
        Self {
            hx: coeffs.map(|c| c.h_app.x),
            hy: coeffs.map(|c| c.h_app.y),
            hz: coeffs.map(|c| c.h_app.z),
            hk_eff: coeffs.map(|c| c.hk_eff),
            stt_sign: coeffs.map(|c| c.stt_sign),
            gamma_eff: coeffs.map(|c| c.gamma_eff),
            alpha_eff: coeffs.map(|c| c.alpha_eff),
        }
    }

    /// Lane `l`'s coefficients.
    #[inline(always)]
    fn lane(&self, l: usize) -> DriftCoeffs {
        DriftCoeffs {
            h_app: Vec3::new(self.hx[l], self.hy[l], self.hz[l]),
            hk_eff: self.hk_eff[l],
            stt_sign: self.stt_sign[l],
            gamma_eff: self.gamma_eff[l],
            alpha_eff: self.alpha_eff[l],
        }
    }
}

/// The lane-block kernel: steps the [`LANES`] replicas `lanes` for
/// `steps` Heun steps of `dt` seconds, each on its own coefficients,
/// drive, noise scale and stream, with the thermal field on or off for
/// the whole block. Lane `l`'s outcome is bit-identical to
/// [`run_replica`] of `lanes[l]`.
pub(crate) fn run_lanes(
    lanes: &[LaneSpec<'_>; LANES],
    steps: usize,
    dt: f64,
    thermal: bool,
) -> [ReplicaOutcome; LANES] {
    let block_span = telemetry::span("llgs.block_s");
    let coeffs = LaneCoeffs::new(lanes.map(|lane| lane.params.coeffs()));
    let aj = lanes.map(|lane| lane.params.aj_of(lane.current));
    let sigma = lanes.map(|lane| {
        if thermal {
            lane.params.thermal_sigma(dt)
        } else {
            0.0
        }
    });
    let dest = coeffs.stt_sign;

    let zig = Ziggurat::get();
    let mut streams = LaneStreams::from_fn(|l| (lanes[l].seed, lanes[l].index));
    let mut mx = [0.0f64; LANES];
    let mut my = [0.0f64; LANES];
    let mut mz = [0.0f64; LANES];
    for (l, lane) in lanes.iter().enumerate() {
        let m0 = lane.params.initial_m(&mut streams.lane(l));
        mx[l] = m0.x;
        my[l] = m0.y;
        mz[l] = m0.z;
    }
    let mut hx = [0.0f64; LANES];
    let mut hy = [0.0f64; LANES];
    let mut hz = [0.0f64; LANES];
    let mut crossing: [Option<f64>; LANES] = [None; LANES];

    for k in 0..steps {
        // 1) Thermal field, one component across all lanes at a time:
        //    each lane still draws x, then y, then z from its own
        //    stream, so interleaving lanes cannot change any stream.
        if thermal {
            hx = streams.normals(zig, &sigma);
            hy = streams.normals(zig, &sigma);
            hz = streams.normals(zig, &sigma);
        }
        // 2) The branch-free arithmetic pass — the same `heun_step`
        //    expression tree per lane as the scalar path.
        for l in 0..LANES {
            let m = heun_step(
                &coeffs.lane(l),
                Vec3::new(mx[l], my[l], mz[l]),
                Vec3::new(hx[l], hy[l], hz[l]),
                aj[l],
                dt,
            );
            mx[l] = m.x;
            my[l] = m.y;
            mz[l] = m.z;
        }
        // 3) Crossing scan.
        let t = (k + 1) as f64 * dt;
        for l in 0..LANES {
            if crossing[l].is_none() && mz[l] * dest[l] > 0.0 {
                crossing[l] = Some(t);
            }
        }
    }

    // One emit per block, not per step: the hot loop itself is never
    // touched by telemetry. Padding lanes count: these are the
    // lane-steps computed.
    if telemetry::enabled() {
        let lane_steps = (steps * LANES) as u64;
        telemetry::counter_add("llgs.steps", lane_steps);
        if thermal {
            telemetry::counter_add("llgs.thermal_draws", lane_steps);
        }
    }
    block_span.finish();

    core::array::from_fn(|l| ReplicaOutcome {
        final_m: Vec3::new(mx[l], my[l], mz[l]),
        switched: mz[l] * dest[l] > 0.0,
        crossing_time: crossing[l],
    })
}

/// Runs the full ensemble: lane-blocked stepping, blocks fanned out on
/// `pool`, outcomes in replica order.
///
/// # Examples
///
/// ```
/// use mramsim_dynamics::{run_ensemble, EnsemblePlan, MacrospinParams};
/// use mramsim_mtj::{presets, SwitchDirection};
/// use mramsim_numerics::pool::WorkerPool;
/// use mramsim_units::{Kelvin, Nanometer};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let params = MacrospinParams::from_device(
///     &device, SwitchDirection::ApToP, Kelvin::new(300.0))?;
/// let plan = EnsemblePlan::new(32, 7, 2e-12)?;
/// let drive = 4.0 * params.critical_current();
/// let out = run_ensemble(&params, drive, 6e-9, &plan, &WorkerPool::new(2));
/// assert_eq!(out.len(), 32);
/// // Strongly over-critical: essentially every replica switches.
/// assert!(out.iter().filter(|o| o.switched).count() >= 30);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn run_ensemble(
    params: &MacrospinParams,
    current: f64,
    duration: f64,
    plan: &EnsemblePlan,
    pool: &WorkerPool,
) -> Vec<ReplicaOutcome> {
    // One tree span per ensemble (not per lane block — a 4096-replica
    // ensemble has hundreds of blocks, which would swamp the run log),
    // nesting under the calling job's span in traces.
    let mut ensemble_span = None;
    if telemetry::enabled() {
        telemetry::counter_add("llgs.ensembles", 1);
        telemetry::counter_add("llgs.trajectories", plan.trajectories as u64);
        ensemble_span = Some(telemetry::span_tree_with(
            "llgs.ensemble",
            &[(
                "trajectories",
                telemetry::Value::U64(plan.trajectories as u64),
            )],
        ));
    }
    let _ensemble_span = ensemble_span;
    let steps = plan.steps_for(duration);
    let last = (plan.trajectories as u64).saturating_sub(1);
    let blocks: Vec<u64> = (0..plan.trajectories as u64).step_by(LANES).collect();
    let mut out: Vec<ReplicaOutcome> = pool
        .scoped_map(&blocks, |_, &first| {
            // Lanes past the last replica repeat it; truncated below.
            let lanes = core::array::from_fn(|l| LaneSpec {
                params,
                current,
                seed: plan.seed,
                index: (first + l as u64).min(last),
            });
            run_lanes(&lanes, steps, plan.dt, plan.thermal)
        })
        .into_iter()
        .flatten()
        .collect();
    out.truncate(plan.trajectories);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::{presets, SwitchDirection};
    use mramsim_units::{Kelvin, Nanometer, Oersted};

    fn params() -> MacrospinParams {
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        MacrospinParams::from_device(&device, SwitchDirection::ApToP, Kelvin::new(300.0)).unwrap()
    }

    #[test]
    fn ensemble_bit_matches_the_scalar_reference() {
        let p = params();
        let plan = EnsemblePlan::new(23, 99, 2e-12).unwrap();
        let drive = 3.0 * p.critical_current();
        let duration = 1.5e-9;
        let ensemble = run_ensemble(&p, drive, duration, &plan, &WorkerPool::new(3));
        assert_eq!(ensemble.len(), 23);
        for (i, got) in ensemble.iter().enumerate() {
            let reference = run_replica(&p, drive, duration, &plan, i as u64);
            assert_eq!(
                got.final_m.x.to_bits(),
                reference.final_m.x.to_bits(),
                "replica {i}"
            );
            assert_eq!(got.final_m.y.to_bits(), reference.final_m.y.to_bits());
            assert_eq!(got.final_m.z.to_bits(), reference.final_m.z.to_bits());
            assert_eq!(got.crossing_time, reference.crossing_time, "replica {i}");
            assert_eq!(got.switched, reference.switched);
        }
    }

    #[test]
    fn a_block_mixing_three_ensembles_bit_matches_each_replica_alone() {
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        let at = |direction, hz| {
            MacrospinParams::from_device(&device, direction, Kelvin::new(300.0))
                .unwrap()
                .with_applied_hz(Oersted::new(hz))
        };
        // (coefficients, overdrive, seed, first replica index, lanes)
        let ensembles = [
            (at(SwitchDirection::ApToP, -300.0), 4.0, 41, 0, 5),
            (at(SwitchDirection::PToAp, 120.0), 6.0, 42, 11, 7),
            (at(SwitchDirection::ApToP, 80.0), 2.5, 43, 3, 4),
        ];
        let lanes: Vec<LaneSpec<'_>> = ensembles
            .iter()
            .flat_map(|(params, over, seed, first, count)| {
                (*first..first + count).map(move |index| LaneSpec {
                    params,
                    current: over * params.critical_current(),
                    seed: *seed,
                    index,
                })
            })
            .collect();
        let lanes: [LaneSpec<'_>; LANES] = lanes.try_into().unwrap();
        let (dt, duration) = (2e-12, 2e-9);
        for thermal in [true, false] {
            let steps = EnsemblePlan::new(1, 0, dt).unwrap().steps_for(duration);
            let block = run_lanes(&lanes, steps, dt, thermal);
            for (l, (lane, got)) in lanes.iter().zip(&block).enumerate() {
                let plan = EnsemblePlan::new(1, lane.seed, dt)
                    .unwrap()
                    .with_thermal(thermal);
                let reference = run_replica(lane.params, lane.current, duration, &plan, lane.index);
                assert_eq!(
                    got.final_m.x.to_bits(),
                    reference.final_m.x.to_bits(),
                    "lane {l}, thermal {thermal}"
                );
                assert_eq!(got.final_m.y.to_bits(), reference.final_m.y.to_bits());
                assert_eq!(got.final_m.z.to_bits(), reference.final_m.z.to_bits());
                assert_eq!(got.switched, reference.switched, "lane {l}");
                assert_eq!(got.crossing_time, reference.crossing_time, "lane {l}");
            }
            // Both outcomes occur, so the comparison covers both.
            assert!(block.iter().any(|o| o.switched) && block.iter().any(|o| !o.switched));
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let p = params();
        let plan = EnsemblePlan::new(40, 5, 2e-12).unwrap();
        let drive = 2.5 * p.critical_current();
        let one = run_ensemble(&p, drive, 1e-9, &plan, &WorkerPool::new(1));
        let many = run_ensemble(&p, drive, 1e-9, &plan, &WorkerPool::new(8));
        assert_eq!(one, many);
    }

    #[test]
    fn plan_rejects_degenerate_inputs() {
        assert!(EnsemblePlan::new(0, 1, 1e-12).is_err());
        assert!(EnsemblePlan::new(8, 1, 0.0).is_err());
        assert!(EnsemblePlan::new(8, 1, f64::NAN).is_err());
        let plan = EnsemblePlan::new(8, 1, 1e-12).unwrap();
        assert_eq!(plan.steps_for(1e-9), 1000);
        assert_eq!(plan.steps_for(1e-13), 1);
    }

    #[test]
    fn plan_caps_the_step_count() {
        let max = EnsemblePlan::MAX_STEPS;
        assert_eq!(max, 1 << 20);
        let plan = EnsemblePlan::new(8, 1, 1e-12).unwrap();
        assert_eq!(plan.checked_steps_for(max as f64 * 1e-12), Ok(max));
        for span in [(max + 1) as f64 * 1e-12, 1.0, f64::MAX] {
            assert!(matches!(
                plan.checked_steps_for(span),
                Err(DynamicsError::InvalidParameter { name: "steps", .. })
            ));
        }
    }

    #[test]
    fn plan_caps_replicas_times_steps() {
        assert_eq!(EnsemblePlan::MAX_LANE_STEPS, 1 << 32);
        // 2^12 replicas x 2^20 steps is exactly the cap; one replica
        // more is over it.
        let span = EnsemblePlan::MAX_STEPS as f64 * 1e-12;
        let at_cap = EnsemblePlan::new(1 << 12, 1, 1e-12).unwrap();
        assert_eq!(at_cap.checked_steps_for(span), Ok(EnsemblePlan::MAX_STEPS));
        let over = EnsemblePlan::new((1 << 12) + 1, 1, 1e-12).unwrap();
        match over.checked_steps_for(span) {
            Err(DynamicsError::InvalidParameter {
                name: "lane_steps",
                message,
            }) => {
                assert!(
                    message.contains("4097 replicas") && message.contains("1048576 Heun steps"),
                    "{message}"
                );
            }
            other => panic!("expected a lane-step error, got {other:?}"),
        }
        // The largest replica count still runs short spans.
        let wide = EnsemblePlan::new(EnsemblePlan::MAX_TRAJECTORIES, 1, 1e-12).unwrap();
        assert_eq!(wide.checked_steps_for(4096e-12), Ok(4096));
        assert!(wide.checked_steps_for(4097e-12).is_err());
    }

    #[test]
    fn plan_caps_the_replica_count() {
        let max = EnsemblePlan::MAX_TRAJECTORIES;
        assert_eq!(max, 1 << 20);
        assert_eq!(EnsemblePlan::new(max, 1, 1e-12).unwrap().trajectories, max);
        assert!(matches!(
            EnsemblePlan::new(max + 1, 1, 1e-12),
            Err(DynamicsError::InvalidParameter {
                name: "trajectories",
                ..
            })
        ));
    }
}
