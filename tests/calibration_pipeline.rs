//! End-to-end test of the paper's §III→§V methodology on virtual
//! silicon: fabricate → measure → extract → calibrate → predict.

use mramsim::prelude::*;
use mramsim::vlab::ProcessVariation;
use rand::SeedableRng;

/// The complete loop: a *blind* model (wrong HL moment) calibrated
/// against virtual measurements must predict the inter-cell coupling of
/// the true devices.
#[test]
fn blind_calibration_predicts_inter_cell_coupling() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);

    // Ground truth and its measurements.
    let truth = presets::imec_like(Nanometer::new(55.0)).unwrap();
    let wafer = Wafer::fabricate(&truth, &WaferSpec::paper_sizes(8), &mut rng).unwrap();
    let study = intra_field_study(&wafer, &RhLoopTester::paper_setup(), &mut rng).unwrap();

    // A blind starting model: HL off by 40 %.
    let blind = truth.stack().with_scaled_hl(0.6).unwrap();
    let calibrated = calibrate_stack(&blind, &study).unwrap();

    // Predict Fig. 4a with the calibrated stack.
    let predicted_device = MtjDevice::new(
        Nanometer::new(55.0),
        calibrated.stack.clone(),
        *truth.electrical(),
        truth.switching().clone(),
    )
    .unwrap();
    let predicted = CouplingAnalyzer::new(predicted_device, Nanometer::new(90.0)).unwrap();
    let actual = CouplingAnalyzer::new(truth.clone(), Nanometer::new(90.0)).unwrap();

    let (plo, phi) = predicted.inter_hz_extremes();
    let (alo, ahi) = actual.inter_hz_extremes();
    assert!(
        (plo.value() - alo.value()).abs() < 5.0,
        "min: predicted {plo} vs actual {alo}"
    );
    assert!(
        (phi.value() - ahi.value()).abs() < 5.0,
        "max: predicted {phi} vs actual {ahi}"
    );
}

/// Measurement-noise robustness: with zero process variation the only
/// scatter is thermal, and per-size medians must still land near truth.
#[test]
fn zero_variation_study_recovers_truth_within_thermal_noise() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(78);
    let truth = presets::imec_like(Nanometer::new(55.0)).unwrap();
    let spec = WaferSpec {
        sizes: vec![Nanometer::new(35.0), Nanometer::new(90.0)],
        devices_per_size: 10,
        variation: ProcessVariation::none(),
    };
    let wafer = Wafer::fabricate(&truth, &spec, &mut rng).unwrap();
    let study = intra_field_study(&wafer, &RhLoopTester::paper_setup(), &mut rng).unwrap();
    for point in &study {
        let expected = truth
            .with_ecd(point.nominal_ecd)
            .unwrap()
            .intra_hz_at_fl_center()
            .unwrap();
        assert!(
            (point.hz_s_intra.mean - expected.value()).abs() < 70.0,
            "eCD {}: measured {} vs truth {expected}",
            point.nominal_ecd.value(),
            point.hz_s_intra.mean
        );
        // eCD comes back essentially exactly (RA is known).
        assert!((point.ecd.median - point.nominal_ecd.value()).abs() < 1.0);
    }
}

/// The Hk/Δ0 extraction (Thomas et al. technique) recovers the device
/// parameters from 1000-cycle switching-probability data.
#[test]
fn hk_delta0_extraction_recovers_device_parameters() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(79);
    let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
    let fields: Vec<Oersted> = (0..70)
        .map(|i| Oersted::new(2150.0 + 12.0 * f64::from(i)))
        .collect();
    let probe = SwitchingProbe::paper_setup();
    let points = probe.measure_ap_to_p(&device, &fields, &mut rng).unwrap();
    let offset = device.intra_hz_at_fl_center().unwrap();
    let fit = mramsim::vlab::fit_sharrock_from_probe(
        &points,
        offset,
        probe.dwell(),
        (Oersted::new(4000.0), 40.0),
    )
    .unwrap();
    assert!(
        (fit.hk.value() - 4646.8).abs() / 4646.8 < 0.06,
        "Hk = {:?}",
        fit.hk
    );
    assert!(
        (fit.delta0 - 45.5).abs() / 45.5 < 0.08,
        "Δ0 = {}",
        fit.delta0
    );

    // The tolerances above cannot tell a stalled simplex from the
    // optimum: the fit must land on the least-squares minimum of this
    // data set (where a Levenberg–Marquardt fit of the same model
    // lands), and moving either parameter must raise ½·Σr².
    assert!(
        (fit.hk.value() - 4641.061).abs() < 0.01,
        "Hk = {:?}",
        fit.hk
    );
    assert!((fit.delta0 - 45.5984).abs() < 0.001, "Δ0 = {}", fit.delta0);
    let cost = |hk: Oersted, delta0: f64| -> f64 {
        let model = mramsim::mtj::SharrockModel::new(hk, delta0).unwrap();
        let sum: f64 = points
            .iter()
            .map(|p| {
                (model.switching_probability(p.h_applied + offset, probe.dwell()) - p.probability)
                    .powi(2)
            })
            .sum();
        0.5 * sum
    };
    assert!((cost(fit.hk, fit.delta0) - fit.cost).abs() <= 1e-12 * fit.cost);
    for rel in [1.0 - 1e-4, 1.0 + 1e-4] {
        let moved_hk = cost(fit.hk * rel, fit.delta0);
        let moved_delta0 = cost(fit.hk, fit.delta0 * rel);
        assert!(
            moved_hk > fit.cost,
            "Hk × {rel}: {moved_hk} vs {}",
            fit.cost
        );
        assert!(
            moved_delta0 > fit.cost,
            "Δ0 × {rel}: {moved_delta0} vs {}",
            fit.cost
        );
    }
}

/// Fault injection: a device whose stray field exceeds the coercive
/// window is "locked" (Golonzka [11]); the loop analyzer reports the
/// missing transition instead of fabricating numbers.
#[test]
fn locked_device_is_detected_not_mismeasured() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(80);
    let truth = presets::imec_like(Nanometer::new(35.0)).unwrap();
    // Scale the HL until the stray field rivals the switching window so
    // the P→AP transition leaves the ±3 kOe sweep range.
    let locked_stack = truth.stack().with_scaled_hl(14.0).unwrap();
    let locked = MtjDevice::new(
        Nanometer::new(35.0),
        locked_stack,
        *truth.electrical(),
        truth.switching().clone(),
    )
    .unwrap();
    let rh = RhLoopTester::paper_setup().run(&locked, &mut rng).unwrap();
    let result = analyze_loop(&rh, locked.electrical().ra());
    assert!(
        result.is_err(),
        "a locked device must not produce a clean extraction: {result:?}"
    );
}
