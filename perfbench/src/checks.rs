//! Output checks. None of them compares a golden digest of Monte-Carlo
//! output, so a deliberate change of the RNG streams keeps them green;
//! each compares a deterministic column or count against an
//! independent computation through the layer's own public function,
//! or bounds a statistic by its stated confidence.

use mramsim_array::{cell_field_map, DataPattern, HierarchicalKernel, PatternGrid};
use mramsim_core::report::Table;
use mramsim_engine::{Engine, ParamSet, ScenarioOutput};
use mramsim_mtj::wer::write_error_rate_saturating;
use mramsim_mtj::{presets, MtjDevice, MtjState, SwitchDirection};
use mramsim_telemetry::Json;
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Oersted, Volt};

/// A check passes with `Ok`, or says what was wrong.
pub type Check = Result<(), String>;

/// The device every workload writes: the paper's imec-like stack at
/// the scenarios' default field model (256 segments, polygon loops).
pub fn device(ecd: f64) -> Result<MtjDevice, String> {
    presets::imec_like_with(Nanometer::new(ecd), 256, false).map_err(|e| e.to_string())
}

/// The transition a campaign write performs on a cell storing
/// `stored`: always to the complement.
pub fn write_direction(stored: MtjState) -> SwitchDirection {
    match stored {
        MtjState::AntiParallel => SwitchDirection::ApToP,
        MtjState::Parallel => SwitchDirection::PToAp,
    }
}

fn scalar(out: &ScenarioOutput, name: &str) -> Result<f64, String> {
    out.scalar(name)
        .ok_or_else(|| format!("scalar `{name}` missing"))
}

fn in_unit_interval(label: &str, value: f64) -> Check {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{label} = {value} lies outside [0, 1]"))
    }
}

fn table<'a>(out: &'a ScenarioOutput, title: &str) -> Result<&'a Table, String> {
    out.tables
        .iter()
        .find(|t| t.title() == title)
        .ok_or_else(|| format!("table `{title}` missing"))
}

fn column<'a>(table: &'a Table, name: &str) -> Result<Vec<&'a str>, String> {
    let index = table
        .columns()
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| format!("column `{name}` missing from `{}`", table.title()))?;
    Ok(table.rows().iter().map(|row| row[index].as_str()).collect())
}

fn wer_column(table: &Table, name: &str) -> Check {
    for (row, cell) in column(table, name)?.into_iter().enumerate() {
        let value: f64 = cell
            .parse()
            .map_err(|_| format!("{name} row {row}: `{cell}` is not a number"))?;
        in_unit_interval(&format!("{name} row {row}"), value)?;
    }
    Ok(())
}

fn wer_scalars(out: &ScenarioOutput) -> Check {
    for name in ["worst_wer_mc", "mean_wer_mc", "worst_wer_analytic"] {
        in_unit_interval(name, scalar(out, name)?)?;
    }
    Ok(())
}

/// What an independent extraction says every shard of a checkerboard
/// campaign must report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardExpect {
    /// Cells per shard (`shard_rows × cols`, last shard may be short).
    pub cells: Vec<usize>,
    /// Window classes per shard, from `PatternGrid::shard_classes`.
    pub classes: Vec<usize>,
    /// Kernel radius from `HierarchicalKernel::shared_for_tolerance`.
    pub radius: usize,
    /// Whether that kernel meets the requested tolerance.
    pub tol_met: bool,
}

/// Builds [`ShardExpect`] for a defect-free checkerboard campaign.
pub fn shard_expect(
    ecd: f64,
    pitch: f64,
    (rows, cols, shard_rows): (usize, usize, usize),
    field_tol: f64,
    max_radius: usize,
) -> Result<ShardExpect, String> {
    let device = device(ecd)?;
    let tol = Oersted::new(field_tol);
    let kernel =
        HierarchicalKernel::shared_for_tolerance(&device, Nanometer::new(pitch), tol, max_radius)
            .map_err(|e| e.to_string())?;
    let grid =
        PatternGrid::new(rows, cols, DataPattern::Checkerboard).map_err(|e| e.to_string())?;
    let (mut cells, mut classes) = (Vec::new(), Vec::new());
    for lo in (0..rows).step_by(shard_rows) {
        let hi = (lo + shard_rows).min(rows);
        cells.push((hi - lo) * cols);
        classes.push(
            grid.shard_classes(lo, hi, kernel.radius())
                .map_err(|e| e.to_string())?
                .len(),
        );
    }
    Ok(ShardExpect {
        cells,
        classes,
        radius: kernel.radius(),
        tol_met: kernel.tol_met(tol),
    })
}

/// One `array-wer-shard` output against the independent extraction.
pub fn check_shard(out: &ScenarioOutput, shard: usize, expect: &ShardExpect) -> Check {
    let want = |name: &str, value: usize| -> Check {
        let got = scalar(out, name)?;
        if got == value as f64 {
            Ok(())
        } else {
            Err(format!("shard {shard}: {name} = {got}, expected {value}"))
        }
    };
    want("cells", expect.cells[shard])?;
    want("classes", expect.classes[shard])?;
    want("radius", expect.radius)?;
    want("tol_met", usize::from(expect.tol_met))?;
    wer_scalars(out)?;
    let classes = table(out, "array-wer-shard: window classes")?;
    wer_column(classes, "wer_mc")?;
    wer_column(classes, "wer_analytic")
}

/// The deterministic per-cell columns of a dense `array-wer` point,
/// rendered exactly as the scenario's fault-map table renders them.
#[derive(Debug, Clone, PartialEq)]
pub struct CellExpect {
    /// `hz_oe` per cell, from `cell_field_map`.
    pub hz_oe: Vec<String>,
    /// `wer_analytic` per cell, from `write_error_rate_saturating`.
    pub wer_analytic: Vec<String>,
}

/// Builds [`CellExpect`] for a checkerboard `rows × cols` point.
pub fn cell_expect(
    ecd: f64,
    pitch: f64,
    (rows, cols): (usize, usize),
    (voltage, pulse_ns, temperature_k): (f64, f64, f64),
) -> Result<CellExpect, String> {
    let device = device(ecd)?;
    let data = DataPattern::Checkerboard
        .build(rows, cols)
        .map_err(|e| e.to_string())?;
    let fields =
        cell_field_map(&device, Nanometer::new(pitch), &data).map_err(|e| e.to_string())?;
    let mut expect = CellExpect {
        hz_oe: Vec::new(),
        wer_analytic: Vec::new(),
    };
    for field in &fields {
        let analytic = write_error_rate_saturating(
            &device,
            write_direction(field.state),
            Volt::new(voltage),
            field.hz_oe(),
            Kelvin::new(temperature_k),
            Nanosecond::new(pulse_ns),
        )
        .map_err(|e| e.to_string())?;
        expect.hz_oe.push(format!("{:.2}", field.hz_oe().value()));
        expect.wer_analytic.push(format!("{analytic:.6}"));
    }
    Ok(expect)
}

/// One `array-wer` output against [`CellExpect`].
pub fn check_point(out: &ScenarioOutput, expect: &CellExpect) -> Check {
    let map = table(out, "array-wer: per-cell fault map")?;
    for (name, want) in [
        ("hz_oe", &expect.hz_oe),
        ("wer_analytic", &expect.wer_analytic),
    ] {
        let got = column(map, name)?;
        if got.len() != want.len() {
            return Err(format!(
                "{name}: {} cells, expected {}",
                got.len(),
                want.len()
            ));
        }
        if let Some(row) = got.iter().zip(want).position(|(g, w)| g != w) {
            return Err(format!(
                "{name} cell {row}: `{}`, expected `{}`",
                got[row], want[row]
            ));
        }
    }
    wer_column(map, "wer_mc")?;
    wer_scalars(out)
}

/// A streamed `fig4b` sweep summary CSV (`pitch,psi,psi_percent`)
/// against serverless Ψ values rendered as the summary renders them.
pub fn check_psi_csv(csv: &str, expected: &[String]) -> Check {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let psi = header
        .iter()
        .position(|c| *c == "psi")
        .ok_or("summary CSV has no `psi` column")?;
    let rows: Vec<&str> = lines.collect();
    if rows.len() != expected.len() {
        return Err(format!(
            "summary has {} rows, expected {}",
            rows.len(),
            expected.len()
        ));
    }
    for (i, (row, want)) in rows.iter().zip(expected).enumerate() {
        let got = row.split(',').nth(psi).unwrap_or_default();
        if got != want {
            return Err(format!(
                "row {i}: psi `{got}`, serverless run gives `{want}`"
            ));
        }
        let value: f64 = got.parse().map_err(|_| format!("row {i}: psi `{got}`"))?;
        in_unit_interval(&format!("psi row {i}"), value)?;
    }
    Ok(())
}

/// A `GET /results/<key>` body against the streamed summary's Ψ for
/// the same key.
pub fn check_result_body(body: &Json, key: &str, streamed_psi: &str) -> Check {
    if body.get("key").and_then(Json::as_str) != Some(key) {
        return Err(format!("result body is not for key {key}"));
    }
    let psi = body
        .get("scalars")
        .and_then(|s| s.get("psi"))
        .and_then(Json::as_f64)
        .ok_or("result body has no psi scalar")?;
    let got = format!("{psi:.6}");
    if got == streamed_psi {
        Ok(())
    } else {
        Err(format!(
            "key {key}: result psi `{got}`, streamed summary `{streamed_psi}`"
        ))
    }
}

/// Runs `wer-mc` at its validated defaults and checks it against Butler.
pub fn mc_vs_butler() -> Check {
    let out = Engine::standard()
        .run("wer-mc", &ParamSet::new())
        .map_err(|e| e.to_string())?;
    check_mc_vs_butler(&out.output)
}

/// `wer-mc` at its validated defaults: the Monte-Carlo estimate within
/// 3σ of the Butler closed form.
pub fn check_mc_vs_butler(out: &ScenarioOutput) -> Check {
    let sigma = scalar(out, "diff_sigma")?;
    in_unit_interval("wer_mc", scalar(out, "wer_mc")?)?;
    if sigma.abs() <= 3.0 {
        Ok(())
    } else {
        Err(format!("|MC - Butler| = {:.2} sigma > 3", sigma.abs()))
    }
}

/// Two outputs of the same parameters are byte-identical: same CSV
/// rendering and bit-identical scalars.
pub fn check_replay(original: &ScenarioOutput, replay: &ScenarioOutput) -> Check {
    if original.to_csv() != replay.to_csv() {
        return Err("replayed output renders a different CSV".into());
    }
    let bits = |out: &ScenarioOutput| -> Vec<(String, u64)> {
        out.scalars
            .iter()
            .map(|(n, v)| (n.clone(), v.to_bits()))
            .collect()
    };
    if bits(original) != bits(replay) {
        return Err("replayed output has different scalar bits".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_scalar(out: &mut ScenarioOutput, name: &str, value: f64) {
        let slot = out.scalars.iter_mut().find(|(n, _)| n == name).unwrap();
        slot.1 = value;
    }

    /// Replaces one cell of the table titled `title`.
    fn set_cell(out: &mut ScenarioOutput, title: &str, col: &str, row: usize, text: &str) {
        let table = out.tables.iter().find(|t| t.title() == title).unwrap();
        let c = table.columns().iter().position(|n| n == col).unwrap();
        let columns: Vec<&str> = table.columns().iter().map(String::as_str).collect();
        let mut rebuilt = Table::new(title, &columns);
        for (r, cells) in table.rows().iter().enumerate() {
            let mut cells = cells.clone();
            if r == row {
                cells[c] = text.to_owned();
            }
            rebuilt.push_row(&cells);
        }
        let slot = out.tables.iter_mut().find(|t| t.title() == title).unwrap();
        *slot = rebuilt;
    }

    fn shard_output() -> (ScenarioOutput, ShardExpect) {
        let params = ParamSet::new()
            .with("rows", 128.0)
            .with("cols", 128.0)
            .with("shard_rows", 64.0)
            .with("shard", 1.0)
            .with("trajectories", 16.0)
            .with("pulse_ns", 2.0)
            .with("voltage_v", 1.2);
        let out = Engine::standard()
            .run("array-wer-shard", &params)
            .unwrap()
            .output;
        let expect = shard_expect(35.0, 70.0, (128, 128, 64), 25.0, 4).unwrap();
        ((*out).clone(), expect)
    }

    #[test]
    fn shard_check_passes_real_output_and_fails_each_corruption() {
        let (out, expect) = shard_output();
        check_shard(&out, 1, &expect).unwrap();
        for (name, value) in [
            ("cells", 128.0 * 64.0 - 1.0),
            ("classes", expect.classes[1] as f64 + 1.0),
            ("radius", expect.radius as f64 + 1.0),
            ("tol_met", f64::from(u8::from(!expect.tol_met))),
            ("worst_wer_mc", 1.5),
            ("mean_wer_mc", -0.1),
            ("worst_wer_analytic", f64::NAN),
        ] {
            let mut bad = out.clone();
            set_scalar(&mut bad, name, value);
            assert!(
                check_shard(&bad, 1, &expect).is_err(),
                "{name} corruption passed"
            );
        }
        for col in ["wer_mc", "wer_analytic"] {
            let mut bad = out.clone();
            set_cell(
                &mut bad,
                "array-wer-shard: window classes",
                col,
                0,
                "1.250000",
            );
            assert!(
                check_shard(&bad, 1, &expect).is_err(),
                "{col} corruption passed"
            );
        }
    }

    #[test]
    fn point_check_passes_real_output_and_fails_each_corruption() {
        let params = ParamSet::new()
            .with("rows", 4.0)
            .with("cols", 4.0)
            .with("pitch", 60.0)
            .with("trajectories", 24.0)
            .with("pulse_ns", 2.0)
            .with("voltage_v", 1.2);
        let out = (*Engine::standard().run("array-wer", &params).unwrap().output).clone();
        let expect = cell_expect(35.0, 60.0, (4, 4), (1.2, 2.0, 300.0)).unwrap();
        check_point(&out, &expect).unwrap();
        let title = "array-wer: per-cell fault map";
        for (col, text) in [
            ("hz_oe", "-999.00"),
            ("wer_analytic", "0.123456"),
            ("wer_mc", "2.000000"),
        ] {
            let mut bad = out.clone();
            set_cell(&mut bad, title, col, 3, text);
            assert!(
                check_point(&bad, &expect).is_err(),
                "{col} corruption passed"
            );
        }
        let mut bad = out.clone();
        set_scalar(&mut bad, "worst_wer_mc", 1.01);
        assert!(check_point(&bad, &expect).is_err());
    }

    #[test]
    fn psi_and_result_checks_fail_on_corruption() {
        let csv = "pitch,psi,psi_percent\n100,0.012345,1.234500\n150,0.004000,0.400000\n";
        let want = vec!["0.012345".to_owned(), "0.004000".to_owned()];
        check_psi_csv(csv, &want).unwrap();
        assert!(check_psi_csv(&csv.replace("0.004000,", "0.004001,"), &want).is_err());
        assert!(check_psi_csv(
            &csv.replace("0.012345,", "1.012345,"),
            &["1.012345".to_owned(), "0.004000".to_owned()]
        )
        .is_err());
        assert!(check_psi_csv("pitch,psi,psi_percent\n100,0.012345,1.2\n", &want).is_err());

        let body = Json::parse(r#"{"key":"00ff","scalars":{"psi":0.0123449}}"#).unwrap();
        check_result_body(&body, "00ff", "0.012345").unwrap();
        assert!(check_result_body(&body, "00fe", "0.012345").is_err());
        assert!(check_result_body(&body, "00ff", "0.012346").is_err());
        let empty = Json::parse(r#"{"key":"00ff","scalars":{}}"#).unwrap();
        assert!(check_result_body(&empty, "00ff", "0.012345").is_err());
    }

    #[test]
    fn mc_and_replay_checks_fail_on_corruption() {
        let out = ScenarioOutput::default()
            .with_scalar("wer_mc", 0.01)
            .with_scalar("diff_sigma", -0.4);
        check_mc_vs_butler(&out).unwrap();
        let mut bad = out.clone();
        set_scalar(&mut bad, "diff_sigma", 3.5);
        assert!(check_mc_vs_butler(&bad).is_err());

        let (shard, _) = shard_output();
        check_replay(&shard, &shard.clone()).unwrap();
        let mut bad = shard.clone();
        set_scalar(
            &mut bad,
            "mean_wer_mc",
            shard.scalar("mean_wer_mc").unwrap() + 1e-15,
        );
        assert!(check_replay(&shard, &bad).is_err());
        let mut bad = shard.clone();
        set_cell(
            &mut bad,
            "array-wer-shard: window classes",
            "failures",
            0,
            "99",
        );
        assert!(check_replay(&shard, &bad).is_err());
    }
}
