//! Golden-figure regression suite: every figure scenario re-runs with a
//! fixed seed and reduced grids, and its CSV output is compared against
//! a committed golden within per-column tolerances. The four
//! Monte-Carlo scenarios are pinned the same way under `tests/golden/mc/`,
//! but byte for byte: a failure count that moves by one is a different
//! random draw, not rounding jitter.
//!
//! Regenerate after an intentional model change with
//!
//! ```console
//! $ GOLDEN_REGENERATE=1 cargo test -p mramsim-engine --test golden_figures
//! ```
//!
//! and commit the updated files under `tests/golden/`. On mismatch the
//! actual output is written to `target/golden-diff/<id>.csv` (uploaded
//! as a CI artifact) so a failure can be inspected — or promoted to the
//! new golden — without re-running the suite.

use mramsim_engine::{Engine, ParamSet};
use std::fs;
use std::path::PathBuf;

/// One figure scenario pinned to a small, fully seeded parameter point.
struct GoldenCase {
    id: &'static str,
    overrides: ParamSet,
    /// Per-column `(relative, absolute)` tolerance overrides; every
    /// other numeric column uses [`DEFAULT_TOL`].
    column_tolerances: &'static [(&'static str, (f64, f64))],
}

/// Printed CSV cells are rounded to a few decimals, so bit-identical
/// runs compare exactly; the default tolerance only forgives
/// last-printed-digit jitter from FP-level refactors.
const DEFAULT_TOL: (f64, f64) = (1e-6, 1e-9);

fn cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            id: "fig2a",
            overrides: ParamSet::new(),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig2b",
            overrides: ParamSet::new()
                .with("devices_per_size", 2.0)
                .with("sim_grid", vec![20.0, 55.0, 175.0]),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig3c",
            overrides: ParamSet::new().with("grid", 7.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig3d",
            overrides: ParamSet::new()
                .with("ecds", vec![35.0, 90.0])
                .with("samples", 9.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig4a",
            overrides: ParamSet::new(),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig4b",
            overrides: ParamSet::new()
                .with("ecds", vec![35.0, 55.0])
                .with("points", 6.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig4c",
            overrides: ParamSet::new().with("points", 7.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig5",
            overrides: ParamSet::new()
                .with("pitch_factors", vec![2.0, 1.5])
                .with("points", 6.0),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig6a",
            overrides: ParamSet::new().with("temps_c", vec![0.0, 50.0, 100.0, 150.0]),
            column_tolerances: &[],
        },
        GoldenCase {
            id: "fig6b",
            overrides: ParamSet::new()
                .with("pitch_factors", vec![3.0, 1.5])
                .with("temps_c", vec![25.0, 85.0, 145.0]),
            column_tolerances: &[],
        },
    ]
}

/// The Monte-Carlo scenarios, each at a small fixed point that is cheap
/// in a debug build and exercises one part of the ensemble machinery.
fn monte_carlo_cases() -> Vec<(&'static str, ParamSet)> {
    vec![
        // A ragged last lane block.
        (
            "wer-mc",
            ParamSet::new()
                .with("trajectories", 100.0)
                .with("seed", 7.0),
        ),
        // Crossing times into the histogram.
        (
            "switch-traj",
            ParamSet::new()
                .with("trajectories", 40.0)
                .with("seed", 3.0)
                .with("span_ns", 5.0),
        ),
        // Window classes of both write directions whose replicas share
        // lane blocks.
        (
            "array-wer",
            ParamSet::new()
                .with("rows", 5.0)
                .with("cols", 7.0)
                .with("trajectories", 37.0)
                .with("pulse_ns", 3.0)
                .with("voltage_v", 0.95)
                .with("pitch", 60.0)
                .with("seed", 11.0),
        ),
        // An interior shard at a radius-2 kernel.
        (
            "array-wer-shard",
            ParamSet::new()
                .with("rows", 48.0)
                .with("cols", 32.0)
                .with("shard_rows", 16.0)
                .with("shard", 1.0)
                .with("trajectories", 12.0)
                .with("pulse_ns", 4.0)
                .with("max_radius", 2.0)
                .with("field_tol", 60.0)
                .with("seed", 5.0),
        ),
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn diff_dir() -> PathBuf {
    // The workspace target directory, where CI collects artifacts.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diff")
}

/// Compares two CSV bodies line-by-line: numeric cells within the
/// column's tolerance, everything else exactly. Table header lines
/// (tracked as the first line and any line after a blank) name the
/// columns for the tolerance lookup.
fn compare_csv(
    golden: &str,
    actual: &str,
    tolerances: &[(&str, (f64, f64))],
) -> Result<(), String> {
    let g_lines: Vec<&str> = golden.lines().collect();
    let a_lines: Vec<&str> = actual.lines().collect();
    if g_lines.len() != a_lines.len() {
        return Err(format!(
            "line count changed: golden {} vs actual {}",
            g_lines.len(),
            a_lines.len()
        ));
    }
    let mut columns: Vec<String> = Vec::new();
    let mut at_header = true;
    for (n, (g, a)) in g_lines.iter().zip(&a_lines).enumerate() {
        if g.is_empty() || a.is_empty() {
            if g != a {
                return Err(format!("line {}: `{a}` vs golden `{g}`", n + 1));
            }
            at_header = true; // a blank line separates tables
            continue;
        }
        if at_header {
            if g != a {
                return Err(format!("header line {}: `{a}` vs golden `{g}`", n + 1));
            }
            columns = g.split(',').map(str::to_owned).collect();
            at_header = false;
            continue;
        }
        let g_cells: Vec<&str> = g.split(',').collect();
        let a_cells: Vec<&str> = a.split(',').collect();
        if g_cells.len() != a_cells.len() {
            return Err(format!("line {}: `{a}` vs golden `{g}`", n + 1));
        }
        for (i, (gc, ac)) in g_cells.iter().zip(&a_cells).enumerate() {
            let column = columns.get(i).map_or("", String::as_str);
            match (gc.parse::<f64>(), ac.parse::<f64>()) {
                (Ok(gv), Ok(av)) => {
                    let (rtol, atol) = tolerances
                        .iter()
                        .find(|(name, _)| *name == column)
                        .map_or(DEFAULT_TOL, |(_, t)| *t);
                    let limit = atol + rtol * gv.abs().max(av.abs());
                    if !((gv - av).abs() <= limit) {
                        return Err(format!(
                            "line {}, column `{column}`: {av} vs golden {gv} \
                             (|diff| = {:.3e} > {limit:.3e})",
                            n + 1,
                            (gv - av).abs()
                        ));
                    }
                }
                _ => {
                    if gc != ac {
                        return Err(format!(
                            "line {}, column `{column}`: `{ac}` vs golden `{gc}`",
                            n + 1
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn figure_scenarios_match_their_goldens() {
    let regenerate = std::env::var_os("GOLDEN_REGENERATE").is_some();
    let engine = Engine::standard();
    let mut failures = Vec::new();
    for case in cases() {
        let outcome = engine
            .run(case.id, &case.overrides)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", case.id));
        let actual = outcome.output.to_csv();
        let path = golden_dir().join(format!("{}.csv", case.id));
        if regenerate {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&path, &actual).unwrap();
            continue;
        }
        let golden = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if let Err(reason) = compare_csv(&golden, &actual, case.column_tolerances) {
            fs::create_dir_all(diff_dir()).unwrap();
            let diff_path = diff_dir().join(format!("{}.csv", case.id));
            fs::write(&diff_path, &actual).unwrap();
            failures.push(format!(
                "{}: {reason}\n  actual output written to {}",
                case.id,
                diff_path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (regenerate intentional changes with \
         GOLDEN_REGENERATE=1):\n{}",
        failures.join("\n")
    );
}

#[test]
fn monte_carlo_scenarios_match_their_goldens_byte_for_byte() {
    let regenerate = std::env::var_os("GOLDEN_REGENERATE").is_some();
    let dir = golden_dir().join("mc");
    let engine = Engine::standard();
    let mut failures = Vec::new();
    for (id, overrides) in monte_carlo_cases() {
        let outcome = engine
            .run(id, &overrides)
            .unwrap_or_else(|e| panic!("{id} failed to run: {e}"));
        let actual = outcome.output.to_csv();
        let path = dir.join(format!("{id}.csv"));
        if regenerate {
            fs::create_dir_all(&dir).unwrap();
            fs::write(&path, &actual).unwrap();
            continue;
        }
        let golden = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if golden != actual {
            let line = golden
                .lines()
                .zip(actual.lines())
                .position(|(g, a)| g != a)
                .map_or_else(|| "line count".to_owned(), |n| format!("line {}", n + 1));
            let diff_path = diff_dir().join(format!("mc-{id}.csv"));
            fs::create_dir_all(diff_dir()).unwrap();
            fs::write(&diff_path, &actual).unwrap();
            failures.push(format!(
                "{id}: first difference at {line}\n  actual output written to {}",
                diff_path.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "Monte-Carlo golden mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_suite_covers_all_ten_figures() {
    let ids: Vec<&str> = cases().iter().map(|c| c.id).collect();
    assert_eq!(
        ids,
        ["fig2a", "fig2b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c", "fig5", "fig6a", "fig6b"]
    );
    // Every golden is committed.
    for id in ids {
        assert!(
            golden_dir().join(format!("{id}.csv")).exists(),
            "golden for {id} is missing — run GOLDEN_REGENERATE=1"
        );
    }
}

#[test]
fn csv_comparator_enforces_per_column_tolerances() {
    let golden = "a,b\n1.00,2.00\n\nq,v\nname,3.0\n";
    // Identical passes.
    assert!(compare_csv(golden, golden, &[]).is_ok());
    // Inside a loose per-column tolerance passes, outside fails.
    let close = "a,b\n1.00,2.01\n\nq,v\nname,3.0\n";
    assert!(compare_csv(golden, close, &[("b", (0.0, 0.05))]).is_ok());
    assert!(compare_csv(golden, close, &[]).is_err());
    // Text changes and shape changes always fail.
    assert!(compare_csv(golden, "a,b\n1.00,2.00\n\nq,v\nother,3.0\n", &[]).is_err());
    assert!(compare_csv(golden, "a,b\n1.00,2.00\n", &[]).is_err());
    // A changed header is a contract change, not a numeric drift.
    assert!(compare_csv(golden, "a,c\n1.00,2.00\n\nq,v\nname,3.0\n", &[]).is_err());
}
