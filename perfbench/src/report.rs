//! Statistics, the metric catalogue, and the printed report.

use mramsim_telemetry::Json;
use std::collections::BTreeMap;

/// Linear-interpolated quantile `q` ∈ [0, 1]; NaN for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median; NaN for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What an untraced run measured.
#[derive(Debug)]
pub struct Measured {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Ops attempted in the timed phase.
    pub ops: usize,
    /// Ops that failed or failed an output check.
    pub failed_ops: usize,
    /// The timed phase unit by unit (campaigns, sweeps, or request
    /// segments).
    pub units: Vec<Unit>,
    /// Why ops failed.
    pub failures: Vec<String>,
    /// Once-per-run checks.
    pub run_checks: Vec<(String, Result<(), String>)>,
    /// Worker counts, sizes, and host facts for the provenance stamp.
    pub context: Vec<(&'static str, Json)>,
}

/// One unit of the timed phase.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Ops the unit completed.
    pub ops: usize,
    /// Its wall time, seconds.
    pub wall_s: f64,
    /// Process CPU it used, seconds.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal_frac: f64,
    /// Latency of each of its ops, ms.
    pub latencies_ms: Vec<f64>,
}

impl Unit {
    /// Times `f` (which completes `ops` ops) by wall, process CPU, and
    /// steal; the caller fills in the op latencies.
    pub fn time<R>(ops: usize, f: impl FnOnce() -> R) -> (R, Self) {
        let cpu = crate::host::cpu_seconds();
        let (steal, total) = crate::host::cpu_ticks();
        let start = std::time::Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        let (steal_after, total_after) = crate::host::cpu_ticks();
        let unit = Self {
            ops,
            wall_s,
            cpu_s: crate::host::cpu_seconds() - cpu,
            steal_frac: (steal_after - steal) as f64 / (total_after - total).max(1) as f64,
            latencies_ms: Vec::new(),
        };
        (out, unit)
    }
}

impl Measured {
    /// Total timed-phase wall time, seconds.
    pub fn wall_s(&self) -> f64 {
        self.units.iter().map(|u| u.wall_s).sum()
    }

    /// Failed ops plus failed once-per-run checks, capped at `ops`.
    pub fn failed(&self) -> usize {
        let runs = self.run_checks.iter().filter(|(_, c)| c.is_err()).count();
        (self.failed_ops + runs).min(self.ops)
    }

    /// The calmer half of the units: those during which the hypervisor
    /// stole the least CPU from this machine (in time order on ties).
    /// Other tenants of a shared host come and go within a run; their
    /// share shows up as steal, and these units are the ones it spared.
    pub fn calm_units(&self) -> Vec<&Unit> {
        let mut units: Vec<&Unit> = self.units.iter().collect();
        units.sort_by(|a, b| a.steal_frac.total_cmp(&b.steal_frac));
        units.truncate(self.units.len().div_ceil(2));
        units
    }

    /// The end-to-end metrics: (name, value, unit). Everything but
    /// set-up and peak memory is taken over the calm units; throughput
    /// and CPU per op are medians over them, latencies quantiles over
    /// their ops.
    pub fn end_to_end(&self, peak_rss_kb: u64) -> Vec<(&'static str, f64, &'static str)> {
        let calm = self.calm_units();
        let per_unit = |f: fn(&Unit) -> f64| median(&calm.iter().map(|u| f(u)).collect::<Vec<_>>());
        let latencies: Vec<f64> = calm
            .iter()
            .flat_map(|u| u.latencies_ms.iter().copied())
            .collect();
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            (
                "throughput_per_s",
                per_unit(|u| u.ops as f64 / u.wall_s),
                "1/s",
            ),
            ("p50_ms", quantile(&latencies, 0.5), "ms"),
            ("p90_ms", quantile(&latencies, 0.9), "ms"),
            (
                "cpu_ms_per_op",
                per_unit(|u| u.cpu_s * 1e3 / u.ops as f64),
                "ms",
            ),
            ("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB"),
        ]
    }
}

/// Every per-layer metric of the traced run: name, unit, and whether
/// it is in the result line. The result line carries the metrics every
/// workload measures; the rest are printed, or their absence explained.
pub const LAYER_METRICS: &[(&str, &str, bool)] = &[
    ("numerics.normal_pair_ns", "ns", true),
    ("numerics.pool.busy_frac", "1", true),
    ("numerics.pool.tail_ms", "ms", false),
    ("dynamics.ns_per_lane_step", "ns", true),
    ("dynamics.thermal_over_deterministic", "1", true),
    ("dynamics.lane_steps_per_op", "count", true),
    ("dynamics.useful_lane_frac", "1", false),
    ("dynamics.ensemble_ms", "ms", true),
    ("array.kernel_build_ms", "ms", true),
    ("array.kernel_hit_ratio", "1", true),
    ("array.shard_classes_ms", "ms", false),
    ("array.classes_per_campaign", "count", false),
    ("array.cells_per_class", "count", false),
    ("array.cell_field_map_ms", "ms", false),
    ("faults.shard_self_ms", "ms", false),
    ("faults.analytic_us", "us", false),
    ("faults.cells_per_distinct_window", "1", false),
    ("engine.job_overhead_ms", "ms", true),
    ("engine.warm_hit_ratio", "1", true),
    ("engine.warm_lookup_us", "us", false),
    ("engine.disk_save_us", "us", true),
    ("engine.disk_load_us", "us", true),
    ("engine.disk_bytes_per_op", "B", true),
    ("engine.disk_errors", "count", true),
    ("engine.journal_create_us", "us", true),
    ("engine.journal_record_us", "us", true),
    ("serve.connect_us", "us", false),
    ("serve.submit_ms", "ms", false),
    ("serve.first_line_ms", "ms", false),
    ("serve.stream_ms", "ms", false),
    ("serve.result_ms", "ms", false),
    ("serve.jobs_retained", "count", false),
    ("serve.rss_kb_per_job", "KiB", false),
    ("serve.rejected", "count", false),
    ("serve.joined", "count", false),
    ("host.time_wait_at_start", "count", true),
    ("telemetry.overhead_frac", "1", true),
    ("trace.overhead_frac", "1", true),
    ("trace.unattributed_frac", "1", true),
];

/// One per-layer value, or why the workload has none.
#[derive(Debug, Clone)]
struct Layer {
    value: Option<f64>,
    note: String,
}

/// The per-layer metrics a traced run collected.
#[derive(Debug, Default)]
pub struct Layers {
    items: BTreeMap<String, Layer>,
}

impl Layers {
    /// Records a measured value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_noted(name, value, "");
    }

    /// Records a measured value with a note on how it was taken.
    pub fn put_noted(&mut self, name: &str, value: f64, note: &str) {
        self.insert(name, Some(value), note);
    }

    /// Records that this workload does not exercise the layer.
    pub fn absent(&mut self, name: &str, reason: &str) {
        self.insert(name, None, reason);
    }

    fn insert(&mut self, name: &str, value: Option<f64>, note: &str) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _, _)| *n == name),
            "`{name}` is not in the metric catalogue"
        );
        self.items.insert(
            name.to_owned(),
            Layer {
                value,
                note: note.to_owned(),
            },
        );
    }

    /// The printed table: every catalogued metric, its value or the
    /// reason it is absent.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, _) in LAYER_METRICS {
            let line = match self.items.get(*name) {
                Some(Layer {
                    value: Some(v),
                    note,
                }) if note.is_empty() => format!("{name:<38} {v:>14.6} {unit}"),
                Some(Layer {
                    value: Some(v),
                    note,
                }) => format!("{name:<38} {v:>14.6} {unit}  ({note})"),
                Some(Layer { value: None, note }) => {
                    format!("{name:<38} {:>14} ({note})", "absent")
                }
                None => format!("{name:<38} {:>14} (not measured)", "absent"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The result-line metrics: every catalogued metric marked for it.
    ///
    /// # Errors
    ///
    /// Names a result-line metric the run failed to measure.
    pub fn result_metrics(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        LAYER_METRICS
            .iter()
            .filter(|(_, _, in_line)| *in_line)
            .map(
                |(name, unit, _)| match self.items.get(*name).and_then(|l| l.value) {
                    Some(v) if v.is_finite() => Ok((*name, v, *unit)),
                    _ => Err(format!("per-layer metric `{name}` was not measured")),
                },
            )
            .collect()
    }
}

/// The machine-read last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut map = BTreeMap::new();
    for (name, value, unit) in metrics {
        let mut metric = BTreeMap::new();
        metric.insert("value".to_owned(), Json::Num(*value));
        metric.insert("unit".to_owned(), Json::Str((*unit).to_owned()));
        map.insert((*name).to_owned(), Json::Obj(metric));
    }
    let mut obj = BTreeMap::new();
    obj.insert("correct".to_owned(), Json::Bool(correct));
    obj.insert("attempted".to_owned(), Json::Num(attempted as f64));
    obj.insert("failed".to_owned(), Json::Num(failed as f64));
    obj.insert("metrics".to_owned(), Json::Obj(map));
    Json::Obj(obj).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[("p50_ms", 1.25, "ms")]);
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&String> = json.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let p50 = json.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
    }

    #[test]
    fn missing_result_metrics_are_errors() {
        let mut layers = Layers::default();
        assert!(layers.result_metrics().is_err());
        for (name, _, _) in LAYER_METRICS {
            layers.put(name, 1.0);
        }
        assert!(layers.result_metrics().is_ok());
        layers.absent("trace.overhead_frac", "test");
        assert!(layers.result_metrics().is_err());
    }
}
