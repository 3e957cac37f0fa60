//! The scenario registry: every driver in the workspace adapted to the
//! uniform [`Scenario`] interface.
//!
//! Ten paper figures, the extension WER study, the design-space
//! explorer, the coupling-aware fault simulator, the s-LLGS
//! Monte-Carlo dynamics (`wer-mc`, `switch-traj`), and the array-scale
//! Monte-Carlo write campaigns — the per-cell fault map (`array-wer`, one
//! whole-array shard at kernel radius 1) and the sharded megabit grid
//! (`array-wer-shard`), both one ensemble per window class — are
//! registered under stable ids.
//! [`Registry::standard`] builds the full set; each of the two campaign
//! scenarios owns an [`EnsembleMemo`], so one engine runs each distinct
//! window of a campaign once.

use crate::{EngineError, ParamSet, ParamSpec, Scenario, ScenarioOutput};
use mramsim_array::DataPattern;
use mramsim_array::{CouplingAnalyzer, Defect, NeighborhoodPattern, PatternGrid};
use mramsim_core::experiments::{
    ext_wer, fig2a, fig2b, fig3c, fig3d, fig4a, fig4b, fig4c, fig5, fig6a, fig6b,
};
use mramsim_core::explorer::{explore, DesignQuery};
use mramsim_core::report::Table;
use mramsim_dynamics::{
    switching_time_distribution, wer_monte_carlo, EnsembleMemo, EnsemblePlan, MacrospinParams,
    MODEL_VERSION,
};
use mramsim_faults::march::MarchTest;
use mramsim_faults::{
    classify_write_faults, shard_wer_campaign, ArraySimulator, ArrayWerConfig, Ensembles,
    ShardPlan, SparseClassWer, WriteConditions,
};
use mramsim_mtj::wer::write_error_rate_saturating;
use mramsim_mtj::{presets, MtjDevice, SwitchDirection};
use mramsim_numerics::hash::fnv1a;
use mramsim_numerics::pool::WorkerPool;
use mramsim_units::constants::{EULER_GAMMA, OERSTED_PER_AMPERE_PER_METER};
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Wraps a model error into [`EngineError::Scenario`].
fn model_err(scenario: &'static str, e: impl std::fmt::Display) -> EngineError {
    EngineError::Scenario {
        scenario: scenario.to_owned(),
        message: e.to_string(),
    }
}

/// Reads a parameter as an RNG seed (non-negative integer).
fn seed_of(params: &ParamSet, name: &str) -> Result<u64, EngineError> {
    Ok(params.count(name)? as u64)
}

/// The shared field-model ablation knobs (`--segments`, `--exact`)
/// offered by every scenario that builds a device.
fn field_model_specs() -> [ParamSpec; 2] {
    [
        ParamSpec::new(
            "segments",
            "Biot-Savart segments per loop (speed/accuracy knob)",
            256.0,
        ),
        ParamSpec::new(
            "exact",
            "1: exact elliptic-integral loops instead of polygons",
            0.0,
        ),
    ]
}

/// Reads the field-model knobs: `(segments, exact)`.
fn field_model_of(params: &ParamSet) -> Result<(usize, bool), EngineError> {
    Ok((params.count("segments")?, params.count("exact")? != 0))
}

/// An ordered, immutable set of registered scenarios.
///
/// # Examples
///
/// ```
/// use mramsim_engine::Registry;
///
/// let registry = Registry::standard();
/// assert!(registry.ids().any(|id| id == "fig4b"));
/// assert!(registry.get("fig4b").is_ok());
/// assert!(registry.get("nope").is_err());
/// ```
#[derive(Clone, Default)]
pub struct Registry {
    scenarios: BTreeMap<&'static str, Arc<dyn Scenario>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("ids", &self.scenarios.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a scenario (replacing any previous one with that id).
    pub fn register(&mut self, scenario: Arc<dyn Scenario>) {
        self.scenarios.insert(scenario.id(), scenario);
    }

    /// The full standard set: all ten figures, the WER extension, the
    /// explorer, the fault simulator, the Monte-Carlo dynamics, and
    /// the array write campaign.
    #[must_use]
    pub fn standard() -> Self {
        let mut registry = Self::new();
        registry.register(Arc::new(Fig2aScenario));
        registry.register(Arc::new(Fig2bScenario));
        registry.register(Arc::new(Fig3cScenario));
        registry.register(Arc::new(Fig3dScenario));
        registry.register(Arc::new(Fig4aScenario));
        registry.register(Arc::new(Fig4bScenario));
        registry.register(Arc::new(Fig4cScenario));
        registry.register(Arc::new(Fig5Scenario));
        registry.register(Arc::new(Fig6aScenario));
        registry.register(Arc::new(Fig6bScenario));
        registry.register(Arc::new(ExtWerScenario));
        registry.register(Arc::new(ExploreScenario));
        registry.register(Arc::new(FaultsScenario));
        registry.register(Arc::new(WerMcScenario));
        registry.register(Arc::new(SwitchTrajScenario));
        registry.register(Arc::new(ArrayWerScenario::default()));
        registry.register(Arc::new(ArrayWerShardScenario::default()));
        registry
    }

    /// Looks up a scenario by id.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownScenario`] when absent.
    pub fn get(&self, id: &str) -> Result<&Arc<dyn Scenario>, EngineError> {
        self.scenarios
            .get(id)
            .ok_or_else(|| EngineError::UnknownScenario { id: id.to_owned() })
    }

    /// All ids in sorted order.
    pub fn ids(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.scenarios.keys().copied()
    }

    /// All scenarios in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Scenario>> {
        self.scenarios.values()
    }

    /// Number of registered scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Fig. 2a — measured R-H hysteresis loop and its §III extraction.
struct Fig2aScenario;

impl Scenario for Fig2aScenario {
    fn id(&self) -> &'static str {
        "fig2a"
    }

    fn summary(&self) -> &'static str {
        "R-H hysteresis loop of one device with the full §III extraction"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 55.0),
            ParamSpec::new("seed", "RNG seed for switching noise", 2020.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig2a::run(&fig2a::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            seed: seed_of(params, "seed")?,
        })
        .map_err(|e| model_err("fig2a", e))?;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("hc_oe", fig.extraction.hc.value())
            .with_scalar("h_offset_oe", fig.extraction.h_offset.value())
            .with_scalar("ecd_extracted_nm", fig.extraction.ecd.value()))
    }
}

/// Fig. 2b — `Hz_s_intra` vs device size, measured vs model.
struct Fig2bScenario;

impl Scenario for Fig2bScenario {
    fn id(&self) -> &'static str {
        "fig2b"
    }

    fn summary(&self) -> &'static str {
        "Hz_s_intra vs eCD: virtual-wafer measurement against the model curve"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("devices_per_size", "devices measured per size group", 4.0),
            ParamSpec::new("seed", "RNG seed for fabrication and measurement", 2020.0),
            ParamSpec::new(
                "sim_grid",
                "eCD grid (nm) for the model curve",
                vec![20.0, 35.0, 55.0, 90.0, 130.0, 175.0],
            ),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig2b::run(&fig2b::Params {
            devices_per_size: params.count("devices_per_size")?,
            seed: seed_of(params, "seed")?,
            sim_grid: params.list("sim_grid")?,
        })
        .map_err(|e| model_err("fig2b", e))?;
        let sizes = fig.measured.len() as f64;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("sizes_measured", sizes))
    }
}

/// Fig. 3c — the intra-cell stray-field map over the free-layer plane.
struct Fig3cScenario;

impl Scenario for Fig3cScenario {
    fn id(&self) -> &'static str {
        "fig3c"
    }

    fn summary(&self) -> &'static str {
        "intra-cell stray-field map over the free-layer plane"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 55.0),
            ParamSpec::new("window_factor", "half-window in units of eCD", 1.6),
            ParamSpec::new("grid", "samples per axis", 33.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig3c::run(&fig3c::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            window_factor: params.number("window_factor")?,
            grid: params.count("grid")?,
        })
        .map_err(|e| model_err("fig3c", e))?;
        let nx = fig.fl_plane.nx();
        let ny = fig.fl_plane.ny();
        let center_oe = fig.fl_plane.at(nx / 2, ny / 2).z * OERSTED_PER_AMPERE_PER_METER;
        Ok(ScenarioOutput::from_table(fig.to_table()).with_scalar("center_hz_oe", center_oe))
    }
}

/// Fig. 3d — the radial intra-field profile per device size.
struct Fig3dScenario;

impl Scenario for Fig3dScenario {
    fn id(&self) -> &'static str {
        "fig3d"
    }

    fn summary(&self) -> &'static str {
        "radial profile of Hz_s_intra across the free layer, per device size"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecds", "device sizes (nm)", vec![20.0, 35.0, 55.0, 90.0]),
            ParamSpec::new("samples", "radial sample count", 41.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig3d::run(&fig3d::Params {
            ecds: params.list("ecds")?,
            samples: params.count("samples")?,
        })
        .map_err(|e| model_err("fig3d", e))?;
        let profiles = fig.profiles.len() as f64;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("profiles", profiles))
    }
}

/// Fig. 4a — `Hz_s_inter` by neighbourhood pattern class.
struct Fig4aScenario;

impl Scenario for Fig4aScenario {
    fn id(&self) -> &'static str {
        "fig4a"
    }

    fn summary(&self) -> &'static str {
        "inter-cell stray field for all 25 neighbourhood pattern classes"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = vec![
            ParamSpec::new("ecd", "device size (nm)", 55.0),
            ParamSpec::new("pitch", "array pitch (nm)", 90.0),
        ];
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let (segments, exact) = field_model_of(params)?;
        let fig = fig4a::run(&fig4a::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            pitch: Nanometer::new(params.number("pitch")?),
            segments,
            exact,
        })
        .map_err(|e| model_err("fig4a", e))?;
        let (lo, hi) = fig.extremes;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_scalar("inter_hz_min_oe", lo.value())
            .with_scalar("inter_hz_max_oe", hi.value()))
    }
}

/// Fig. 4b — the coupling factor Ψ vs pitch.
struct Fig4bScenario;

impl Scenario for Fig4bScenario {
    fn id(&self) -> &'static str {
        "fig4b"
    }

    fn summary(&self) -> &'static str {
        "coupling factor Ψ vs pitch (pitch=0: full figure; pitch>0: one grid point)"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = vec![
            ParamSpec::new(
                "pitch",
                "one pitch (nm) for point mode, 0 for the figure",
                0.0,
            ),
            ParamSpec::new("ecd", "device size (nm) in point mode", 35.0),
            ParamSpec::new(
                "ecds",
                "device sizes (nm) in figure mode",
                vec![20.0, 35.0, 55.0],
            ),
            ParamSpec::new("max_pitch", "figure-mode upper pitch bound (nm)", 200.0),
            ParamSpec::new("points", "figure-mode samples per curve", 24.0),
            ParamSpec::new("psi_threshold", "design-rule Ψ threshold", 0.02),
        ];
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let pitch = params.number("pitch")?;
        if pitch > 0.0 {
            // Point mode: Ψ at exactly (ecd, pitch) — the sweep and
            // cache workhorse.
            let ecd = params.number("ecd")?;
            let (segments, exact) = field_model_of(params)?;
            let device = presets::imec_like_with(Nanometer::new(ecd), segments, exact)
                .map_err(|e| model_err("fig4b", e))?;
            let coupling = CouplingAnalyzer::new(device, Nanometer::new(pitch))
                .map_err(|e| model_err("fig4b", e))?;
            let psi = coupling.psi(presets::MEASURED_HC);
            let mut table = Table::new(
                "fig4b: psi at one grid point",
                &["ecd_nm", "pitch_nm", "psi_percent"],
            );
            table.push_row(&[
                format!("{ecd:.0}"),
                format!("{pitch:.1}"),
                format!("{:.3}", 100.0 * psi),
            ]);
            return Ok(ScenarioOutput::from_table(table)
                .with_scalar("psi", psi)
                .with_scalar("psi_percent", 100.0 * psi));
        }
        let (segments, exact) = field_model_of(params)?;
        let fig = fig4b::run(&fig4b::Params {
            ecds: params.list("ecds")?,
            max_pitch: params.number("max_pitch")?,
            points: params.count("points")?,
            psi_threshold: params.number("psi_threshold")?,
            segments,
            exact,
        })
        .map_err(|e| model_err("fig4b", e))?;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_table(fig.threshold_table())
            .with_chart(fig.chart())
            .with_scalar("psi_threshold", fig.psi_threshold))
    }
}

/// Fig. 4c — critical current vs pitch under worst/best-case patterns.
struct Fig4cScenario;

impl Scenario for Fig4cScenario {
    fn id(&self) -> &'static str {
        "fig4c"
    }

    fn summary(&self) -> &'static str {
        "critical switching current vs pitch for NP8=0 and NP8=255"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new("min_pitch", "lower pitch bound (nm)", 52.5),
            ParamSpec::new("max_pitch", "upper pitch bound (nm)", 200.0),
            ParamSpec::new("points", "pitch samples", 25.0),
            ParamSpec::new("temperature_k", "temperature (K)", 300.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig4c::run(&fig4c::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            pitch_range: (params.number("min_pitch")?, params.number("max_pitch")?),
            points: params.count("points")?,
            temperature: Kelvin::new(params.number("temperature_k")?),
        })
        .map_err(|e| model_err("fig4c", e))?;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("intrinsic_ua", fig.intrinsic_ua))
    }
}

/// Fig. 5 — write time vs pulse voltage per pitch factor.
struct Fig5Scenario;

impl Scenario for Fig5Scenario {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn summary(&self) -> &'static str {
        "write time vs pulse amplitude across coupling corners, per pitch"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new(
                "pitch_factors",
                "pitches in units of eCD",
                vec![3.0, 2.0, 1.5],
            ),
            ParamSpec::new("v_min", "lowest pulse voltage (V)", 0.7),
            ParamSpec::new("v_max", "highest pulse voltage (V)", 1.2),
            ParamSpec::new("points", "voltage samples", 26.0),
            ParamSpec::new("temperature_k", "temperature (K)", 300.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig5::run(&fig5::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            pitch_factors: params.list("pitch_factors")?,
            voltage_range: (params.number("v_min")?, params.number("v_max")?),
            points: params.count("points")?,
            temperature: Kelvin::new(params.number("temperature_k")?),
        })
        .map_err(|e| model_err("fig5", e))?;
        // Fig. 5 is rendered per panel (one panel per pitch factor).
        let mut out = ScenarioOutput::default();
        let mut charts = String::new();
        for panel in &fig.panels {
            out = out.with_table(panel.to_table());
            charts.push_str(&panel.chart());
            charts.push('\n');
        }
        Ok(out
            .with_chart(charts)
            .with_scalar("panels", fig.panels.len() as f64))
    }
}

/// Fig. 6a — thermal stability Δ vs temperature across corners.
struct Fig6aScenario;

impl Scenario for Fig6aScenario {
    fn id(&self) -> &'static str {
        "fig6a"
    }

    fn summary(&self) -> &'static str {
        "thermal stability vs temperature across coupling corners"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new("pitch_factor", "pitch in units of eCD", 2.0),
            ParamSpec::new(
                "temps_c",
                "temperatures (°C)",
                (0..=15).map(|i| 10.0 * f64::from(i)).collect::<Vec<f64>>(),
            ),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig6a::run(&fig6a::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            pitch_factor: params.number("pitch_factor")?,
            temps_c: params.list("temps_c")?,
        })
        .map_err(|e| model_err("fig6a", e))?;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("psi", fig.psi))
    }
}

/// Fig. 6b — worst-case Δ vs temperature per pitch factor.
struct Fig6bScenario;

impl Scenario for Fig6bScenario {
    fn id(&self) -> &'static str {
        "fig6b"
    }

    fn summary(&self) -> &'static str {
        "worst-case thermal stability vs temperature, per pitch"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new(
                "pitch_factors",
                "pitches in units of eCD",
                vec![3.0, 2.0, 1.5],
            ),
            ParamSpec::new(
                "temps_c",
                "temperatures (°C)",
                (0..=15).map(|i| 10.0 * f64::from(i)).collect::<Vec<f64>>(),
            ),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = fig6b::run(&fig6b::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            pitch_factors: params.list("pitch_factors")?,
            temps_c: params.list("temps_c")?,
        })
        .map_err(|e| model_err("fig6b", e))?;
        let curves = fig.curves.len() as f64;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("curves", curves))
    }
}

/// Extension — write error rate vs pulse width.
struct ExtWerScenario;

impl Scenario for ExtWerScenario {
    fn id(&self) -> &'static str {
        "ext_wer"
    }

    fn summary(&self) -> &'static str {
        "write error rate vs pulse width under coupling corners (extension)"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new("pitch_factor", "pitch in units of eCD", 1.5),
            ParamSpec::new("voltage_v", "write pulse amplitude (V)", 0.9),
            ParamSpec::new(
                "pulses_ns",
                "pulse widths (ns)",
                (4..=30).map(f64::from).collect::<Vec<f64>>(),
            ),
            ParamSpec::new("target_wer", "target write error rate", 1e-9),
            ParamSpec::new("temperature_k", "temperature (K)", 300.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let fig = ext_wer::run(&ext_wer::Params {
            ecd: Nanometer::new(params.number("ecd")?),
            pitch_factor: params.number("pitch_factor")?,
            voltage: Volt::new(params.number("voltage_v")?),
            pulses_ns: params.list("pulses_ns")?,
            target_wer: params.number("target_wer")?,
            temperature: Kelvin::new(params.number("temperature_k")?),
        })
        .map_err(|e| model_err("ext_wer", e))?;
        Ok(ScenarioOutput::from_table(fig.to_table())
            .with_chart(fig.chart())
            .with_scalar("margin_ns", fig.margin_ns)
            .with_scalar("pulse_at_target_np0_ns", fig.pulse_at_target.1))
    }
}

/// Design-space exploration: how dense can the array be?
struct ExploreScenario;

impl Scenario for ExploreScenario {
    fn id(&self) -> &'static str {
        "explore"
    }

    fn summary(&self) -> &'static str {
        "densest admissible pitch for a coupling budget, with tw/Δ/retention"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new("psi_target", "coupling budget Ψ", 0.02),
            ParamSpec::new("write_voltage_v", "write pulse amplitude (V)", 0.9),
            ParamSpec::new("temperature_c", "operating temperature (°C)", 85.0),
            ParamSpec::new("retention_years", "retention requirement (years)", 10.0),
        ]
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let report = explore(&DesignQuery {
            ecd: Nanometer::new(params.number("ecd")?),
            psi_target: params.number("psi_target")?,
            write_voltage: Volt::new(params.number("write_voltage_v")?),
            temperature_c: params.number("temperature_c")?,
            retention_target_years: params.number("retention_years")?,
        })
        .map_err(|e| model_err("explore", e))?;
        Ok(ScenarioOutput::from_table(report.to_table())
            .with_scalar("recommended_pitch_nm", report.recommended_pitch.value())
            .with_scalar("psi_percent", 100.0 * report.psi)
            .with_scalar("density_bits_per_um2", report.density_bits_per_um2)
            .with_scalar("worst_case_delta", report.worst_case_delta))
    }
}

/// Array-level fault simulation: March tests + write-fault classes.
struct FaultsScenario;

impl Scenario for FaultsScenario {
    fn id(&self) -> &'static str {
        "faults"
    }

    fn summary(&self) -> &'static str {
        "March tests and pattern-sensitive write-fault classification"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new("pitch", "array pitch (nm)", 70.0),
            ParamSpec::new("rows", "array rows", 8.0),
            ParamSpec::new("cols", "array columns", 8.0),
            ParamSpec::new("voltage_v", "write pulse amplitude (V)", 1.0),
            ParamSpec::new("pulse_ns", "write pulse width (ns)", 25.0),
            ParamSpec::new("temperature_k", "temperature (K)", 300.0),
            ParamSpec::new(
                "pattern",
                "initial data: zeros | ones | checkerboard",
                "checkerboard",
            ),
        ];
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let (segments, exact) = field_model_of(params)?;
        let device =
            presets::imec_like_with(Nanometer::new(params.number("ecd")?), segments, exact)
                .map_err(|e| model_err("faults", e))?;
        let pitch = Nanometer::new(params.number("pitch")?);
        let rows = params.count("rows")?;
        let cols = params.count("cols")?;
        let conditions = WriteConditions {
            voltage: Volt::new(params.number("voltage_v")?),
            pulse: Nanosecond::new(params.number("pulse_ns")?),
            temperature: Kelvin::new(params.number("temperature_k")?),
        };
        let initial = DataPattern::parse(params.text("pattern")?)
            .and_then(|p| p.build(rows, cols))
            .map_err(|e| model_err("faults", e))?;

        let mut march_table = Table::new(
            "faults: March test outcomes",
            &["test", "operations", "failures", "passed"],
        );
        let mut total_failures = 0usize;
        for test in [MarchTest::mats_plus(), MarchTest::march_c_minus()] {
            let mut sim = ArraySimulator::new(device.clone(), pitch, rows, cols, conditions)
                .map_err(|e| model_err("faults", e))?;
            sim.load(initial.clone())
                .map_err(|e| model_err("faults", e))?;
            let outcome = test.run(&mut sim).map_err(|e| model_err("faults", e))?;
            total_failures += outcome.failures.len();
            march_table.push_row(&[
                outcome.test_name.to_owned(),
                outcome.operations.to_string(),
                outcome.failures.len().to_string(),
                outcome.passed().to_string(),
            ]);
        }

        let report = classify_write_faults(
            &device,
            pitch,
            conditions.voltage,
            conditions.pulse,
            conditions.temperature,
        )
        .map_err(|e| model_err("faults", e))?;
        let mut class_table = Table::new(
            "faults: pattern-sensitive write-fault classification",
            &["quantity", "value"],
        );
        class_table.push_row(&[
            "failing (direction, class) pairs",
            &report.faults.len().to_string(),
        ]);
        class_table.push_row(&[
            "failing patterns (weighted)",
            &report.failing_pattern_count.to_string(),
        ]);
        class_table.push_row(&[
            "required pulse (ns)",
            &report.required_pulse_ns.map_or_else(
                || "above threshold everywhere".to_owned(),
                |p| format!("{p:.2}"),
            ),
        ]);

        Ok(ScenarioOutput::from_table(march_table)
            .with_table(class_table)
            .with_scalar("march_failures", total_failures as f64)
            .with_scalar("failing_patterns", f64::from(report.failing_pattern_count))
            .with_scalar("clean", f64::from(u8::from(report.is_clean()))))
    }
}

/// The resolved s-LLGS operating point shared by the Monte-Carlo
/// dynamics scenarios.
struct DynamicsPoint {
    device: MtjDevice,
    direction: SwitchDirection,
    temperature: Kelvin,
    hz_stray: Oersted,
    macrospin: MacrospinParams,
    /// Drive current through the junction, in amperes.
    drive: f64,
    /// The pulse amplitude when the drive came from a voltage.
    voltage: Option<Volt>,
    plan: EnsemblePlan,
}

/// The parameter block shared by `wer-mc` and `switch-traj` (the
/// scenario appends its own pulse/span/bin knobs and the field-model
/// ablations). All of these flow into the cache fingerprint, so
/// `--trajectories`, `--seed`, and `--dt_ps` are part of the result's
/// content address.
fn dynamics_specs(
    direction_default: &'static str,
    temperature_default: f64,
    overdrive_default: f64,
    trajectories_default: f64,
    dt_ps_default: f64,
) -> Vec<ParamSpec> {
    vec![
        ParamSpec::new("ecd", "device size (nm)", 35.0),
        ParamSpec::new(
            "direction",
            "write direction: ap2p | p2ap",
            direction_default,
        ),
        ParamSpec::new("temperature_k", "temperature (K)", temperature_default),
        ParamSpec::new(
            "voltage_v",
            "pulse amplitude (V); 0: drive by --overdrive instead",
            0.0,
        ),
        ParamSpec::new(
            "overdrive",
            "drive current in units of Ic (used when voltage_v = 0)",
            overdrive_default,
        ),
        ParamSpec::new(
            "pitch",
            "array pitch (nm); 0: isolated victim, no stray field",
            0.0,
        ),
        ParamSpec::new(
            "np",
            "aggressor neighbourhood pattern NP8 (0..=255, with pitch > 0)",
            255.0,
        ),
        ParamSpec::new("hz_oe", "extra applied out-of-plane field (Oe)", 0.0),
        ParamSpec::new("trajectories", "Monte-Carlo replicas", trajectories_default),
        ParamSpec::new("seed", "ensemble RNG seed", 7.0),
        ParamSpec::new("dt_ps", "integrator time step (ps)", dt_ps_default),
        ParamSpec::new(
            "thermal",
            "1: thermal fluctuation field active during the pulse",
            1.0,
        ),
    ]
}

/// Resolves the shared dynamics parameters into a calibrated macrospin
/// operating point.
fn resolve_dynamics_point(
    scenario: &'static str,
    params: &ParamSet,
) -> Result<DynamicsPoint, EngineError> {
    let (segments, exact) = field_model_of(params)?;
    let device = presets::imec_like_with(Nanometer::new(params.number("ecd")?), segments, exact)
        .map_err(|e| model_err(scenario, e))?;
    let direction = match params.text("direction")? {
        "ap2p" => SwitchDirection::ApToP,
        "p2ap" => SwitchDirection::PToAp,
        other => {
            return Err(EngineError::InvalidParameter {
                name: "direction".into(),
                message: format!("expected `ap2p` or `p2ap`, got `{other}`"),
            })
        }
    };
    let temperature = Kelvin::new(params.number("temperature_k")?);

    let mut hz = params.number("hz_oe")?;
    let pitch = params.number("pitch")?;
    if pitch > 0.0 {
        let np_bits = params.count("np")?;
        if np_bits > 255 {
            return Err(EngineError::InvalidParameter {
                name: "np".into(),
                message: format!("pattern byte must be 0..=255, got {np_bits}"),
            });
        }
        // Served by the process-wide stray-field kernel cache.
        let analyzer = CouplingAnalyzer::new(device.clone(), Nanometer::new(pitch))
            .map_err(|e| model_err(scenario, e))?;
        hz += analyzer
            .total_hz(NeighborhoodPattern::new(np_bits as u8))
            .value();
    }
    let hz_stray = Oersted::new(hz);

    let macrospin = MacrospinParams::from_device(&device, direction, temperature)
        .map_err(|e| model_err(scenario, e))?
        .with_applied_hz(hz_stray);

    let voltage_v = params.number("voltage_v")?;
    if voltage_v < 0.0 || !voltage_v.is_finite() {
        // Falling through to overdrive mode here would silently simulate
        // a different operating point; polarity does not select the
        // write direction (use --direction).
        return Err(EngineError::InvalidParameter {
            name: "voltage_v".into(),
            message: format!("must be >= 0 (0 selects --overdrive mode), got {voltage_v}"),
        });
    }
    let (drive, voltage) = if voltage_v > 0.0 {
        let vp = Volt::new(voltage_v);
        let current = device
            .electrical()
            .current(direction.initial_state(), vp, device.area())
            .value();
        (current, Some(vp))
    } else {
        let over = params.number("overdrive")?;
        if !(over > 0.0) {
            return Err(EngineError::InvalidParameter {
                name: "overdrive".into(),
                message: format!("must be positive, got {over}"),
            });
        }
        (over * macrospin.critical_current(), None)
    };

    let plan = EnsemblePlan::new(
        params.count("trajectories")?,
        seed_of(params, "seed")?,
        params.number("dt_ps")? * 1e-12,
    )
    .map_err(|e| model_err(scenario, e))?
    .with_thermal(params.count("thermal")? != 0);

    Ok(DynamicsPoint {
        device,
        direction,
        temperature,
        hz_stray,
        macrospin,
        drive,
        voltage,
        plan,
    })
}

/// Monte-Carlo write error rate from s-LLGS trajectory ensembles.
struct WerMcScenario;

impl Scenario for WerMcScenario {
    fn id(&self) -> &'static str {
        "wer-mc"
    }

    fn version(&self) -> u32 {
        MODEL_VERSION
    }

    fn summary(&self) -> &'static str {
        "Monte-Carlo WER from s-LLGS ensembles, vs the analytic Butler model"
    }

    fn params(&self) -> Vec<ParamSpec> {
        // Defaults sit at the validated agreement point: Δ0(253 K) ≈ 60
        // and 5× over-critical drive, where the Butler closed form is
        // quantitatively accurate (see crates/dynamics/tests/validation.rs).
        let mut specs = dynamics_specs("p2ap", 253.0, 5.0, 1024.0, 1.0);
        specs.push(ParamSpec::new("pulse_ns", "write pulse width (ns)", 1.3));
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let point = resolve_dynamics_point("wer-mc", params)?;
        let pulse_ns = params.number("pulse_ns")?;
        if !(pulse_ns > 0.0) {
            return Err(EngineError::InvalidParameter {
                name: "pulse_ns".into(),
                message: format!("must be positive, got {pulse_ns}"),
            });
        }
        let pulse = pulse_ns * 1e-9;
        point
            .plan
            .checked_steps_for(pulse)
            .map_err(|e| model_err("wer-mc", e))?;
        let pool = WorkerPool::default();
        let est = wer_monte_carlo(&point.macrospin, point.drive, pulse, &point.plan, &pool);
        // Voltage drives go through the saturating device-level API (so
        // sweeps crossing the threshold keep going); overdrive mode uses
        // the identical calibrated closed form directly.
        let analytic = match point.voltage {
            Some(vp) => write_error_rate_saturating(
                &point.device,
                point.direction,
                vp,
                point.hz_stray,
                point.temperature,
                Nanosecond::new(pulse_ns),
            )
            .map_err(|e| model_err("wer-mc", e))?,
            None => point.macrospin.butler_wer(point.drive, pulse),
        };
        let diff_sigma = (est.wer - analytic) / est.std_error;
        let ic_ua = 1e6 * point.macrospin.critical_current();
        let drive_ua = 1e6 * point.drive;

        let mut table = Table::new(
            "wer-mc: Monte-Carlo write error rate (s-LLGS ensemble)",
            &["quantity", "value"],
        );
        table.push_row(&["direction", &point.direction.to_string()]);
        table.push_row(&["Hz_stray (Oe)", &format!("{:.1}", point.hz_stray.value())]);
        table.push_row(&[
            "Δ (initial state)",
            &format!("{:.1}", point.macrospin.delta_init()),
        ]);
        table.push_row(&["drive (µA)", &format!("{drive_ua:.1}")]);
        table.push_row(&["Ic (µA)", &format!("{ic_ua:.1}")]);
        table.push_row(&[
            "τD (ns)",
            &format!("{:.3}", 1e9 * point.macrospin.tau_d(point.drive)),
        ]);
        table.push_row(&["pulse (ns)", &format!("{pulse_ns:.2}")]);
        table.push_row(&["trajectories", &est.trajectories.to_string()]);
        table.push_row(&["write failures", &est.failures.to_string()]);
        table.push_row(&["WER (Monte-Carlo)", &format!("{:.5}", est.wer)]);
        table.push_row(&["WER (analytic Butler)", &format!("{analytic:.5}")]);
        table.push_row(&["(MC − analytic)/σ", &format!("{diff_sigma:+.2}")]);

        Ok(ScenarioOutput::from_table(table)
            .with_scalar("wer_mc", est.wer)
            .with_scalar("wer_analytic", analytic)
            .with_scalar("std_error", est.std_error)
            .with_scalar("diff_sigma", diff_sigma)
            .with_scalar("failures", est.failures as f64)
            .with_scalar("delta_init", point.macrospin.delta_init())
            .with_scalar("hz_stray_oe", point.hz_stray.value())
            .with_scalar("drive_ua", drive_ua)
            .with_scalar("ic_ua", ic_ua))
    }
}

/// Switching-time distributions from s-LLGS trajectory ensembles.
struct SwitchTrajScenario;

impl Scenario for SwitchTrajScenario {
    fn id(&self) -> &'static str {
        "switch-traj"
    }

    fn version(&self) -> u32 {
        MODEL_VERSION
    }

    fn summary(&self) -> &'static str {
        "s-LLGS switching-time distribution under constant drive"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = dynamics_specs("ap2p", 300.0, 3.0, 512.0, 2.0);
        specs.push(ParamSpec::new("span_ns", "simulated span (ns)", 15.0));
        specs.push(ParamSpec::new("bins", "histogram bins", 30.0));
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let point = resolve_dynamics_point("switch-traj", params)?;
        let span_ns = params.number("span_ns")?;
        let bins = params.count("bins")?;
        let pool = WorkerPool::default();
        let dist = switching_time_distribution(
            &point.macrospin,
            point.drive,
            span_ns * 1e-9,
            &point.plan,
            bins,
            &pool,
        )
        .map_err(|e| model_err("switch-traj", e))?;

        // Sun's Eq. 3 mean on the same calibrated coefficients.
        let tau_d = point.macrospin.tau_d(point.drive);
        let delta = point.macrospin.delta_init();
        let sun_tw_ns =
            0.5 * tau_d * 1e9 * (EULER_GAMMA + (core::f64::consts::PI.powi(2) * delta / 4.0).ln());

        let mut histogram = Table::new(
            "switch-traj: first barrier-crossing time distribution",
            &["bin_center_ns", "count"],
        );
        for i in 0..dist.histogram.bins() {
            histogram.push_row(&[
                format!("{:.3}", dist.histogram.bin_center(i)),
                dist.histogram.count(i).to_string(),
            ]);
        }
        let switched_fraction = dist.switched as f64 / dist.trajectories as f64;
        // `None` marks "no switching events": the row says so in words
        // and the scalar is omitted, so NaN never reaches the CSV, the
        // sweep summary, or `PartialEq`-compared cache entries.
        let fmt_opt = |v: Option<f64>| {
            v.map_or_else(|| "n/a (none switched)".to_owned(), |v| format!("{v:.3}"))
        };
        let mut summary = Table::new("switch-traj: summary", &["quantity", "value"]);
        summary.push_row(&["direction", &point.direction.to_string()]);
        summary.push_row(&["drive (µA)", &format!("{:.1}", 1e6 * point.drive)]);
        summary.push_row(&["trajectories", &dist.trajectories.to_string()]);
        summary.push_row(&["switched", &dist.switched.to_string()]);
        summary.push_row(&["mean (ns)", &fmt_opt(dist.mean_ns)]);
        summary.push_row(&["median (ns)", &fmt_opt(dist.median_ns)]);
        summary.push_row(&["std dev (ns)", &fmt_opt(dist.std_ns)]);
        summary.push_row(&["Sun Eq. 3 mean (ns)", &format!("{sun_tw_ns:.3}")]);

        let mut out = ScenarioOutput::from_table(summary)
            .with_table(histogram)
            .with_scalar("switched_fraction", switched_fraction)
            .with_scalar("switched", dist.switched as f64);
        for (name, value) in [
            ("mean_ns", dist.mean_ns),
            ("median_ns", dist.median_ns),
            ("std_ns", dist.std_ns),
        ] {
            if let Some(value) = value {
                out = out.with_scalar(name, value);
            }
        }
        Ok(out
            .with_scalar("sun_tw_ns", sun_tw_ns)
            .with_scalar("tau_d_ns", 1e9 * tau_d)
            .with_scalar("drive_ua", 1e6 * point.drive))
    }
}

/// The write conditions and Monte-Carlo budget shared by both campaign
/// scenarios; `trajectories_doc` says what one ensemble stands for.
fn campaign_specs(trajectories_doc: &'static str) -> [ParamSpec; 8] {
    [
        ParamSpec::new("voltage_v", "write pulse amplitude (V)", 0.9),
        ParamSpec::new("pulse_ns", "write pulse width (ns)", 8.0),
        ParamSpec::new("temperature_k", "temperature (K)", 300.0),
        ParamSpec::new("trajectories", trajectories_doc, 64.0),
        ParamSpec::new("seed", "campaign base seed", 7.0),
        ParamSpec::new("dt_ps", "integrator time step (ps)", 2.0),
        ParamSpec::new(
            "thermal",
            "1: thermal fluctuation field active during the pulse",
            1.0,
        ),
        ParamSpec::new("wer_budget", "per-cell WER fault threshold", 0.01),
    ]
}

/// Reads [`campaign_specs`] into a campaign config at the default
/// kernel accuracy knobs.
fn campaign_config(params: &ParamSet) -> Result<ArrayWerConfig, EngineError> {
    Ok(ArrayWerConfig {
        voltage: Volt::new(params.number("voltage_v")?),
        pulse: Nanosecond::new(params.number("pulse_ns")?),
        temperature: Kelvin::new(params.number("temperature_k")?),
        trajectories: params.count("trajectories")?,
        seed: seed_of(params, "seed")?,
        dt: params.number("dt_ps")? * 1e-12,
        thermal: params.count("thermal")? != 0,
        wer_budget: params.number("wer_budget")?,
        ..ArrayWerConfig::default()
    })
}

/// The per-class columns both campaign tables render, after their
/// address columns.
const CLASS_COLUMNS: [&str; 10] = [
    "stored",
    "direction",
    "np",
    "hz_oe",
    "drive_ua",
    "ic_ua",
    "failures",
    "wer_mc",
    "wer_analytic",
    "faulty",
];

/// One table row: `address` cells, then [`CLASS_COLUMNS`] of `class`.
fn class_row(address: &[String], class: &SparseClassWer) -> Vec<String> {
    let mut row = address.to_vec();
    row.extend([
        class.stored.to_string(),
        class.direction.to_string(),
        class.np.bits().to_string(),
        format!("{:.2}", class.hz_stray.value()),
        format!("{:.2}", class.drive_ua),
        format!("{:.2}", class.ic_ua),
        class.mc.failures.to_string(),
        format!("{:.6}", class.mc.wer),
        format!("{:.6}", class.analytic),
        u8::from(class.faulty).to_string(),
    ]);
    row
}

/// Array-scale Monte-Carlo write campaign: per-cell WER fault maps.
#[derive(Default)]
struct ArrayWerScenario {
    /// Class ensembles this scenario already ran, by exact inputs.
    memo: EnsembleMemo,
}

impl Scenario for ArrayWerScenario {
    fn id(&self) -> &'static str {
        "array-wer"
    }

    fn version(&self) -> u32 {
        MODEL_VERSION
    }

    fn summary(&self) -> &'static str {
        "array write campaign: per-cell WER fault map under a data pattern, one s-LLGS Monte-Carlo ensemble per window class"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new(
                "pitch",
                "array pitch (nm), sweep it for WER-vs-density",
                70.0,
            ),
            ParamSpec::new("rows", "array rows", 8.0),
            ParamSpec::new("cols", "array columns", 8.0),
            ParamSpec::new(
                "pattern",
                "array data: zeros | ones | checkerboard",
                "checkerboard",
            ),
        ];
        specs.extend(campaign_specs("Monte-Carlo replicas per window class"));
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let (segments, exact) = field_model_of(params)?;
        let device =
            presets::imec_like_with(Nanometer::new(params.number("ecd")?), segments, exact)
                .map_err(|e| model_err("array-wer", e))?;
        let pitch = Nanometer::new(params.number("pitch")?);
        let rows = params.count("rows")?;
        let cols = params.count("cols")?;
        let grid = DataPattern::parse(params.text("pattern")?)
            .and_then(|pattern| PatternGrid::new(rows, cols, pattern))
            .map_err(|e| model_err("array-wer", e))?;
        let plan = ShardPlan::new(rows, rows).map_err(|e| model_err("array-wer", e))?;
        // One whole-array shard at the paper's 3×3 model: at radius 1
        // the kernel holds ring 1 only and is bit-identical to the dense
        // NP8 field map, and cells sharing a window share one ensemble.
        let config = ArrayWerConfig {
            max_radius: 1,
            ..campaign_config(params)?
        };
        let pool = WorkerPool::default();
        let ensembles = Ensembles {
            pool: &pool,
            memo: &self.memo,
        };
        let report = shard_wer_campaign(&device, pitch, &grid, &plan, 0, &config, ensembles)
            .map_err(|e| model_err("array-wer", e))?;

        let worst_analytic = report.worst_analytic();
        let mut summary = Table::new("array-wer: campaign summary", &["quantity", "value"]);
        summary.push_row(&["array", &format!("{rows}x{cols}")]);
        summary.push_row(&["pattern", params.text("pattern")?]);
        summary.push_row(&["pitch (nm)", &format!("{:.1}", pitch.value())]);
        summary.push_row(&[
            "density (bits/um^2)",
            &format!("{:.2}", report.density_bits_per_um2),
        ]);
        summary.push_row(&["trajectories/cell", &config.trajectories.to_string()]);
        summary.push_row(&["window classes", &report.classes.len().to_string()]);
        summary.push_row(&["WER budget", &format!("{:.1e}", report.wer_budget)]);
        summary.push_row(&["faulty cells", &report.faulty_cells().to_string()]);
        summary.push_row(&["worst cell WER (MC)", &format!("{:.5}", report.worst_wer())]);
        summary.push_row(&["mean cell WER (MC)", &format!("{:.5}", report.mean_wer())]);
        summary.push_row(&["worst cell WER (analytic)", &format!("{worst_analytic:.5}")]);
        summary.push_row(&["faulty classes", &report.faulty_classes().to_string()]);

        // Each cell renders its window class's row, found by content.
        let by_window: HashMap<u64, &SparseClassWer> = report
            .classes
            .iter()
            .map(|class| (class.window_key, class))
            .collect();
        let mut map = Table::new(
            "array-wer: per-cell fault map",
            &[&["row", "col"][..], &CLASS_COLUMNS].concat(),
        );
        let mut chart = String::with_capacity((cols + 1) * rows);
        for row in 0..rows {
            for col in 0..cols {
                let class = by_window[&fnv1a(&grid.pack_window(row, col, report.radius))];
                map.push_row(&class_row(&[row.to_string(), col.to_string()], class));
                chart.push(if class.faulty { '#' } else { '.' });
            }
            chart.push('\n');
        }

        Ok(ScenarioOutput::from_table(summary)
            .with_table(map)
            .with_chart(chart)
            .with_scalar("cells", report.cells() as f64)
            .with_scalar("classes", report.classes.len() as f64)
            .with_scalar("faulty_cells", report.faulty_cells() as f64)
            .with_scalar("worst_wer_mc", report.worst_wer())
            .with_scalar("mean_wer_mc", report.mean_wer())
            .with_scalar("worst_wer_analytic", worst_analytic)
            .with_scalar("density_bits_per_um2", report.density_bits_per_um2)
            .with_scalar("faulty_classes", report.faulty_classes() as f64))
    }
}

/// Sparse sharded write campaign: one row band of a megabit-scale grid,
/// collapsed into stored-state window equivalence classes.
#[derive(Default)]
struct ArrayWerShardScenario {
    /// Class ensembles this scenario already ran, by exact inputs: a
    /// window recurring in another shard of a campaign is served.
    memo: EnsembleMemo,
}

impl Scenario for ArrayWerShardScenario {
    fn id(&self) -> &'static str {
        "array-wer-shard"
    }

    fn version(&self) -> u32 {
        MODEL_VERSION
    }

    fn summary(&self) -> &'static str {
        "sparse sharded write campaign: per-window-class Monte-Carlo WER over one row band of a megabit-scale grid"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = vec![
            ParamSpec::new("ecd", "device size (nm)", 35.0),
            ParamSpec::new(
                "pitch",
                "array pitch (nm), sweep it for WER-vs-density",
                70.0,
            ),
            ParamSpec::new("rows", "full grid rows", 256.0),
            ParamSpec::new("cols", "full grid columns", 256.0),
            ParamSpec::new(
                "pattern",
                "array data: zeros | ones | checkerboard",
                "checkerboard",
            ),
            ParamSpec::new(
                "defects",
                "stuck cells: `row,col=P;row,col=AP` (empty: none)",
                "",
            ),
            ParamSpec::new("shard_rows", "rows per shard (the memory bound)", 64.0),
            ParamSpec::new(
                "shard",
                "shard index to evaluate; `mramsim campaign` sweeps it",
                0.0,
            ),
            ParamSpec::new("max_radius", "stray-field kernel ring cap", 4.0),
            ParamSpec::new(
                "field_tol",
                "requested dipole-tail truncation accuracy (Oe)",
                25.0,
            ),
        ];
        specs.extend(campaign_specs("Monte-Carlo replicas per class"));
        specs.extend(field_model_specs());
        specs
    }

    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError> {
        let (segments, exact) = field_model_of(params)?;
        let device =
            presets::imec_like_with(Nanometer::new(params.number("ecd")?), segments, exact)
                .map_err(|e| model_err("array-wer-shard", e))?;
        let pitch = Nanometer::new(params.number("pitch")?);
        let rows = params.count("rows")?;
        let cols = params.count("cols")?;
        let defects = Defect::parse_list(params.text("defects")?)
            .map_err(|e| model_err("array-wer-shard", e))?;
        let n_defects = defects.len();
        let grid = DataPattern::parse(params.text("pattern")?)
            .and_then(|pattern| PatternGrid::new(rows, cols, pattern))
            .and_then(|grid| grid.with_defects(defects))
            .map_err(|e| model_err("array-wer-shard", e))?;
        let plan = ShardPlan::new(rows, params.count("shard_rows")?)
            .map_err(|e| model_err("array-wer-shard", e))?;
        let shard = params.count("shard")?;
        let config = ArrayWerConfig {
            max_radius: params.count("max_radius")?,
            field_tol: Oersted::new(params.number("field_tol")?),
            ..campaign_config(params)?
        };
        let pool = WorkerPool::default();
        let ensembles = Ensembles {
            pool: &pool,
            memo: &self.memo,
        };
        let report = shard_wer_campaign(&device, pitch, &grid, &plan, shard, &config, ensembles)
            .map_err(|e| model_err("array-wer-shard", e))?;

        let worst_analytic = report.worst_analytic();
        let mut summary = Table::new("array-wer-shard: shard summary", &["quantity", "value"]);
        summary.push_row(&["grid", &format!("{rows}x{cols}")]);
        summary.push_row(&[
            "shard",
            &format!(
                "{} of {} (rows {}..{})",
                report.shard,
                plan.n_shards(),
                report.row_lo,
                report.row_hi
            ),
        ]);
        summary.push_row(&["pattern", params.text("pattern")?]);
        summary.push_row(&["defects", &n_defects.to_string()]);
        summary.push_row(&["pitch (nm)", &format!("{:.1}", pitch.value())]);
        summary.push_row(&[
            "density (bits/um^2)",
            &format!("{:.2}", report.density_bits_per_um2),
        ]);
        summary.push_row(&["kernel radius (rings)", &report.radius.to_string()]);
        summary.push_row(&[
            "tail bound (Oe)",
            &format!("{:.2}", report.tail_bound.value()),
        ]);
        summary.push_row(&["tolerance met", &u8::from(report.tol_met).to_string()]);
        summary.push_row(&["cells", &report.cells().to_string()]);
        summary.push_row(&["classes", &report.classes.len().to_string()]);
        summary.push_row(&["faulty cells", &report.faulty_cells().to_string()]);
        summary.push_row(&[
            "worst class WER (MC)",
            &format!("{:.5}", report.worst_wer()),
        ]);
        summary.push_row(&["mean cell WER (MC)", &format!("{:.5}", report.mean_wer())]);
        summary.push_row(&[
            "worst class WER (analytic)",
            &format!("{worst_analytic:.5}"),
        ]);

        let mut classes = Table::new(
            "array-wer-shard: window classes",
            &[
                &["window_key", "rep_row", "rep_col", "count"][..],
                &CLASS_COLUMNS,
            ]
            .concat(),
        );
        for class in &report.classes {
            classes.push_row(&class_row(
                &[
                    format!("{:016x}", class.window_key),
                    class.representative.0.to_string(),
                    class.representative.1.to_string(),
                    class.count.to_string(),
                ],
                class,
            ));
        }

        Ok(ScenarioOutput::from_table(summary)
            .with_table(classes)
            .with_scalar("cells", report.cells() as f64)
            .with_scalar("classes", report.classes.len() as f64)
            .with_scalar("faulty_cells", report.faulty_cells() as f64)
            .with_scalar("worst_wer_mc", report.worst_wer())
            .with_scalar("mean_wer_mc", report.mean_wer())
            .with_scalar("worst_wer_analytic", worst_analytic)
            .with_scalar("radius", report.radius as f64)
            .with_scalar("tail_bound_oe", report.tail_bound.value())
            .with_scalar("tol_met", f64::from(u8::from(report.tol_met)))
            .with_scalar("density_bits_per_um2", report.density_bits_per_um2)
            .with_scalar("n_shards", plan.n_shards() as f64)
            .with_scalar("row_lo", report.row_lo as f64)
            .with_scalar("row_hi", report.row_hi as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_lists_seventeen_scenarios() {
        let registry = Registry::standard();
        assert_eq!(registry.len(), 17);
        let ids: Vec<&str> = registry.ids().collect();
        for id in [
            "array-wer",
            "array-wer-shard",
            "ext_wer",
            "explore",
            "faults",
            "fig2a",
            "fig2b",
            "fig3c",
            "fig3d",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig5",
            "fig6a",
            "fig6b",
            "switch-traj",
            "wer-mc",
        ] {
            assert!(ids.contains(&id), "missing {id}");
        }
        // BTreeMap keeps the listing sorted for the CLI.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn fig4b_point_mode_matches_a_direct_analyzer_call() {
        let scenario = Fig4bScenario;
        let params = ParamSet::defaults(&scenario.params())
            .with("pitch", 90.0)
            .with("ecd", 55.0);
        let out = scenario.run(&params).unwrap();
        let device = presets::imec_like(Nanometer::new(55.0)).unwrap();
        let expected = CouplingAnalyzer::new(device, Nanometer::new(90.0))
            .unwrap()
            .psi(presets::MEASURED_HC);
        assert!((out.scalar("psi").unwrap() - expected).abs() < 1e-15);
    }

    #[test]
    fn field_model_knobs_are_engine_parameters() {
        // `--segments` / `--exact` reach the device model: the exact
        // backend and a coarse polygon agree on Ψ to well under a
        // percent, and all three fingerprints are distinct cache keys.
        let scenario = Fig4bScenario;
        let base = ParamSet::defaults(&scenario.params())
            .with("pitch", 90.0)
            .with("ecd", 55.0);
        let coarse = base.clone().with("segments", 48.0);
        let exact = base.clone().with("exact", 1.0);
        let psi_base = scenario.run(&base).unwrap().scalar("psi").unwrap();
        let psi_coarse = scenario.run(&coarse).unwrap().scalar("psi").unwrap();
        let psi_exact = scenario.run(&exact).unwrap().scalar("psi").unwrap();
        assert!((psi_base - psi_exact).abs() < 1e-3 * psi_exact);
        assert!((psi_coarse - psi_exact).abs() < 1e-2 * psi_exact);
        assert_ne!(base.fingerprint(), coarse.fingerprint());
        assert_ne!(base.fingerprint(), exact.fingerprint());
    }

    #[test]
    fn faults_scenario_shares_the_array_wer_pattern_vocabulary() {
        let scenario = FaultsScenario;
        let params = ParamSet::defaults(&scenario.params()).with("pattern", "stripes");
        assert!(matches!(
            scenario.run(&params),
            Err(EngineError::Scenario { .. })
        ));
        // `ones` parses for both scenarios since both go through
        // `DataPattern::parse` (regression: the faults scenario had its
        // own two-name parser).
        let ones = ParamSet::defaults(&scenario.params())
            .with("pattern", "ones")
            .with("rows", 3.0)
            .with("cols", 3.0);
        assert!(scenario.run(&ones).is_ok());
    }

    #[test]
    fn wer_mc_is_deterministic_and_mc_params_are_cache_keys() {
        let scenario = WerMcScenario;
        let base = ParamSet::defaults(&scenario.params()).with("trajectories", 96.0);
        let a = scenario.run(&base).unwrap();
        let b = scenario.run(&base).unwrap();
        assert_eq!(
            a.scalar("wer_mc").unwrap(),
            b.scalar("wer_mc").unwrap(),
            "same seed must reproduce the same WER bit-for-bit"
        );
        // --trajectories/--seed/--dt_ps are part of the content address.
        for (name, value) in [("trajectories", 128.0), ("seed", 8.0), ("dt_ps", 2.0)] {
            assert_ne!(
                base.fingerprint(),
                base.clone().with(name, value).fingerprint(),
                "{name} must change the cache key"
            );
        }
    }

    #[test]
    fn wer_mc_stray_field_worsens_the_error_rate() {
        // A hostile neighbourhood (negative stray: intra + all-P
        // aggressors at tight pitch) raises Ic for an AP→P write, and
        // at fixed voltage and pulse width the analytic WER must not
        // improve.
        let scenario = WerMcScenario;
        let isolated = ParamSet::defaults(&scenario.params())
            .with("direction", "ap2p")
            .with("trajectories", 64.0)
            .with("voltage_v", 1.1);
        let coupled = isolated.clone().with("pitch", 60.0).with("np", 0.0);
        let a = scenario.run(&isolated).unwrap();
        let b = scenario.run(&coupled).unwrap();
        assert_eq!(a.scalar("hz_stray_oe").unwrap(), 0.0);
        assert!(b.scalar("hz_stray_oe").unwrap() < -100.0);
        assert!(b.scalar("ic_ua").unwrap() > a.scalar("ic_ua").unwrap());
        assert!(b.scalar("wer_analytic").unwrap() >= a.scalar("wer_analytic").unwrap());
    }

    #[test]
    fn dynamics_scenarios_reject_bad_directions_and_patterns() {
        let scenario = WerMcScenario;
        let bad_dir = ParamSet::defaults(&scenario.params()).with("direction", "sideways");
        assert!(matches!(
            scenario.run(&bad_dir),
            Err(EngineError::InvalidParameter { .. })
        ));
        let bad_np = ParamSet::defaults(&scenario.params())
            .with("pitch", 70.0)
            .with("np", 300.0);
        assert!(matches!(
            scenario.run(&bad_np),
            Err(EngineError::InvalidParameter { .. })
        ));
        // A negative voltage must not silently fall through to the
        // overdrive default (a completely different operating point).
        let bad_v = ParamSet::defaults(&scenario.params()).with("voltage_v", -1.1);
        assert!(matches!(
            scenario.run(&bad_v),
            Err(EngineError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn switch_traj_histogram_accounts_for_every_switched_replica() {
        let scenario = SwitchTrajScenario;
        let params = ParamSet::defaults(&scenario.params())
            .with("trajectories", 64.0)
            .with("span_ns", 10.0);
        let out = scenario.run(&params).unwrap();
        let switched = out.scalar("switched_fraction").unwrap() * 64.0;
        let counted: u64 = out.tables[1]
            .to_csv()
            .lines()
            .skip(1) // header
            .map(|line| line.rsplit(',').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert!(switched >= 60.0, "3x-overdrive ensemble barely switched");
        assert_eq!(counted, switched.round() as u64);
        // The MC mean sits on Sun's Eq. 3 scale.
        let mean = out.scalar("mean_ns").unwrap();
        let sun = out.scalar("sun_tw_ns").unwrap();
        assert!(
            mean > 0.4 * sun && mean < 2.5 * sun,
            "mean {mean} vs Sun {sun}"
        );
    }

    #[test]
    fn array_wer_is_deterministic_and_campaign_params_are_cache_keys() {
        let scenario = ArrayWerScenario::default();
        let base = ParamSet::defaults(&scenario.params())
            .with("rows", 3.0)
            .with("cols", 3.0)
            .with("trajectories", 32.0)
            .with("pulse_ns", 4.0);
        let a = scenario.run(&base).unwrap();
        let b = scenario.run(&base).unwrap();
        assert_eq!(a, b, "seeded campaign must reproduce bit-for-bit");
        // The campaign knobs are all part of the content address.
        for (name, value) in [
            ("rows", 4.0),
            ("cols", 4.0),
            ("trajectories", 64.0),
            ("seed", 8.0),
            ("pitch", 80.0),
        ] {
            assert_ne!(
                base.fingerprint(),
                base.clone().with(name, value).fingerprint(),
                "{name} must change the cache key"
            );
        }
        assert_ne!(
            base.fingerprint(),
            base.clone().with("pattern", "zeros").fingerprint(),
            "pattern must change the cache key"
        );
    }

    #[test]
    fn array_wer_rejects_bad_patterns_and_dimensions() {
        let scenario = ArrayWerScenario::default();
        for (name, value) in [("pattern", "stripes"), ("pattern", "")] {
            let params = ParamSet::defaults(&scenario.params()).with(name, value);
            assert!(matches!(
                scenario.run(&params),
                Err(EngineError::InvalidParameter { .. }) | Err(EngineError::Scenario { .. })
            ));
        }
        let empty = ParamSet::defaults(&scenario.params()).with("rows", 0.0);
        assert!(scenario.run(&empty).is_err(), "0-row array must not panic");
        // 1x1 is the degenerate-but-valid isolated victim.
        let single = ParamSet::defaults(&scenario.params())
            .with("rows", 1.0)
            .with("cols", 1.0)
            .with("trajectories", 16.0)
            .with("pulse_ns", 4.0);
        let out = scenario.run(&single).unwrap();
        assert_eq!(out.scalar("cells"), Some(1.0));
    }

    #[test]
    fn array_wer_shard_covers_its_band_and_knobs_are_cache_keys() {
        let scenario = ArrayWerShardScenario::default();
        let base = ParamSet::defaults(&scenario.params())
            .with("rows", 32.0)
            .with("cols", 24.0)
            .with("shard_rows", 16.0)
            .with("shard", 1.0)
            .with("trajectories", 16.0)
            .with("max_radius", 2.0)
            .with("field_tol", 60.0)
            .with("defects", "20,5=AP");
        let out = scenario.run(&base).unwrap();
        assert_eq!(out.scalar("cells"), Some(16.0 * 24.0));
        assert_eq!(out.scalar("n_shards"), Some(2.0));
        assert_eq!(out.scalar("row_lo"), Some(16.0));
        assert!(out.scalar("classes").unwrap() < out.scalar("cells").unwrap());
        assert!(out.scalar("radius").unwrap() >= 1.0);
        assert!(out.scalar("tail_bound_oe").unwrap() > 0.0);
        assert_eq!(out, scenario.run(&base).unwrap(), "bit-identical repeat");
        // The sharding and accuracy knobs are all content-address keys.
        for (name, value) in [
            ("shard", 0.0),
            ("shard_rows", 8.0),
            ("max_radius", 1.0),
            ("field_tol", 30.0),
        ] {
            assert_ne!(
                base.fingerprint(),
                base.clone().with(name, value).fingerprint(),
                "{name} must change the cache key"
            );
        }
        assert_ne!(
            base.fingerprint(),
            base.clone().with("defects", "20,5=P").fingerprint(),
            "defects must change the cache key"
        );
        // Malformed defects and out-of-range shards are rejected.
        let bad = ParamSet::defaults(&scenario.params()).with("defects", "nope");
        assert!(matches!(
            scenario.run(&bad),
            Err(EngineError::Scenario { .. })
        ));
        let oob = base.clone().with("shard", 9.0);
        assert!(
            scenario.run(&oob).is_err(),
            "shard past the plan must error"
        );
    }

    #[test]
    fn explore_scenario_reports_the_design_rule() {
        let scenario = ExploreScenario;
        let out = scenario
            .run(&ParamSet::defaults(&scenario.params()))
            .unwrap();
        let ratio = out.scalar("recommended_pitch_nm").unwrap() / 35.0;
        assert!(ratio > 1.7 && ratio < 2.7, "ratio = {ratio}");
    }
}
