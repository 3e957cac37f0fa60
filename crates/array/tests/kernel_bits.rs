//! Bit-exact regression pin of the stray-field kernel: for a grid of
//! design points and field models, every kernel output the campaigns
//! consume is compared, as `f64::to_bits` hex, against a committed
//! golden. Refactors of the kernel must leave every bit in place.
//!
//! Design points: eCD 35 and 55 nm, each at pitch 1.5×, 2× and 3× eCD,
//! under polygonal loops with 256 and 64 segments and the exact
//! (elliptic-integral) backend. Per point the golden holds `intra_hz`,
//! all 25 `inter_hz_class` values, and at radius 1–4 the tail bound,
//! the uniform P/AP inter fields and the windowed total field over a
//! checkerboard and a one-defect window; plus the radius that a 25 Oe
//! tolerance picks with at most 4 rings.
//!
//! Regenerate only after an intentional model change with
//!
//! ```console
//! $ KERNEL_BITS_REGENERATE=1 cargo test -p mramsim-array --test kernel_bits
//! ```

use mramsim_array::{PatternClass, StrayFieldKernel};
use mramsim_mtj::{presets, MtjDevice, MtjState};
use mramsim_units::{Nanometer, Oersted};
use std::fmt::Write as _;
use std::path::PathBuf;

/// A tolerance no radius reaches, so `for_tolerance` stops at its cap.
const UNREACHABLE: Oersted = Oersted::new(1e-12);

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/kernel_bits.txt")
}

fn models(ecd: f64) -> [(&'static str, MtjDevice); 3] {
    let ecd = Nanometer::new(ecd);
    [
        (
            "polygon-256",
            presets::imec_like_with(ecd, 256, false).unwrap(),
        ),
        (
            "polygon-64",
            presets::imec_like_with(ecd, 64, false).unwrap(),
        ),
        ("exact", presets::imec_like_with(ecd, 64, true).unwrap()),
    ]
}

fn checkerboard(di: i32, dj: i32) -> MtjState {
    MtjState::from_bit((di + dj).rem_euclid(2) == 1)
}

/// The checkerboard with its east neighbour flipped.
fn one_defect(di: i32, dj: i32) -> MtjState {
    let state = checkerboard(di, dj);
    if (di, dj) == (0, 1) {
        state.flipped()
    } else {
        state
    }
}

/// Every pinned value, one `ecd pitch model name hex-bits` line each.
fn kernel_bits() -> String {
    let mut out = String::new();
    let mut line = |point: &str, name: &str, value: String| {
        writeln!(out, "{point} {name} {value}").unwrap();
    };
    let bits = |value: f64| format!("{:016x}", value.to_bits());
    for ecd in [35.0, 55.0] {
        for factor in [1.5, 2.0, 3.0] {
            let pitch = Nanometer::new(factor * ecd);
            for (model, device) in models(ecd) {
                let point = format!("{ecd} {} {model}", pitch.value());
                let ring1 = StrayFieldKernel::compute(&device, pitch).unwrap();
                line(&point, "intra_hz", bits(ring1.intra_hz()));
                for class in PatternClass::all() {
                    let name = format!(
                        "inter_hz_class({},{})",
                        class.direct_ones, class.diagonal_ones
                    );
                    line(&point, &name, bits(ring1.inter_hz_class(class)));
                }
                for radius in 1..=4 {
                    let kernel =
                        StrayFieldKernel::for_tolerance(&device, pitch, UNREACHABLE, radius)
                            .unwrap();
                    assert_eq!(kernel.radius(), radius);
                    let r = format!("r{radius}");
                    line(
                        &point,
                        &format!("{r}.tail_bound"),
                        bits(kernel.tail_bound().value()),
                    );
                    line(
                        &point,
                        &format!("{r}.uniform_inter_hz(P)"),
                        bits(kernel.uniform_inter_hz(MtjState::Parallel)),
                    );
                    line(
                        &point,
                        &format!("{r}.uniform_inter_hz(AP)"),
                        bits(kernel.uniform_inter_hz(MtjState::AntiParallel)),
                    );
                    line(
                        &point,
                        &format!("{r}.total_hz_window(checkerboard)"),
                        bits(kernel.total_hz_window(&checkerboard)),
                    );
                    line(
                        &point,
                        &format!("{r}.total_hz_window(one_defect)"),
                        bits(kernel.total_hz_window(&one_defect)),
                    );
                }
                let picked = StrayFieldKernel::for_tolerance(&device, pitch, Oersted::new(25.0), 4)
                    .unwrap()
                    .radius();
                line(&point, "for_tolerance(25,4).radius", picked.to_string());
            }
        }
    }
    out
}

#[test]
fn kernel_outputs_match_the_committed_bits() {
    let actual = kernel_bits();
    let path = golden_path();
    if std::env::var_os("KERNEL_BITS_REGENERATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    let mismatches: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        mismatches.is_empty() && golden.lines().count() == actual.lines().count(),
        "{} of {} kernel values moved:\n{}",
        mismatches.len(),
        golden.lines().count(),
        mismatches.join("\n")
    );
}
