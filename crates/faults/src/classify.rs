//! Design-point fault classification: which neighbourhood patterns
//! break which write transition.

use crate::FaultsError;
use mramsim_array::{CouplingAnalyzer, PatternClass};
use mramsim_mtj::{MtjDevice, MtjError, SwitchDirection};
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Volt};

/// A pattern-sensitive write fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteFault {
    /// The failing transition.
    pub direction: SwitchDirection,
    /// The neighbourhood class under which it fails.
    pub class: PatternClass,
    /// The switching time demanded by this corner (ns), `None` when the
    /// drive is below the critical current entirely.
    pub required_ns: Option<f64>,
}

/// Classification result for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteFaultReport {
    /// Every failing (direction, class) combination.
    pub faults: Vec<WriteFault>,
    /// Number of raw patterns (out of 2 × 256 transition corners)
    /// affected, weighted by class multiplicity.
    pub failing_pattern_count: u32,
    /// The pulse width (ns) that would cover every corner, when all
    /// corners are above threshold.
    pub required_pulse_ns: Option<f64>,
}

impl WriteFaultReport {
    /// Whether the design point is free of pattern-sensitive write
    /// faults.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Classifies pattern-sensitive write faults for a device at a pitch
/// under fixed write conditions, by exhaustively checking all 25
/// neighbourhood classes for both transitions.
///
/// # Errors
///
/// Propagates device/array failures (sub-critical drive is a *finding*,
/// not an error).
///
/// # Examples
///
/// ```
/// use mramsim_faults::classify_write_faults;
/// use mramsim_mtj::presets;
/// use mramsim_units::{Kelvin, Nanometer, Nanosecond, Volt};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// // The paper's recommended corner is clean:
/// let report = classify_write_faults(
///     &device, Nanometer::new(70.0), Volt::new(1.0),
///     Nanosecond::new(25.0), Kelvin::new(300.0))?;
/// assert!(report.is_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn classify_write_faults(
    device: &MtjDevice,
    pitch: Nanometer,
    voltage: Volt,
    pulse: Nanosecond,
    temperature: Kelvin,
) -> Result<WriteFaultReport, FaultsError> {
    let coupling = CouplingAnalyzer::new(device.clone(), pitch)?;
    let mut faults = Vec::new();
    let mut failing_pattern_count = 0u32;
    let mut worst_needed: Option<f64> = Some(0.0);

    for direction in [SwitchDirection::ApToP, SwitchDirection::PToAp] {
        for class in PatternClass::all() {
            let hz = coupling.intra_hz() + coupling.inter_hz_class(class);
            match device.switching_time(direction, voltage, hz, temperature) {
                Ok(tw) => {
                    let needed = tw.value();
                    if let Some(w) = worst_needed.as_mut() {
                        *w = w.max(needed);
                    }
                    if needed > pulse.value() {
                        faults.push(WriteFault {
                            direction,
                            class,
                            required_ns: Some(needed),
                        });
                        failing_pattern_count += class.multiplicity();
                    }
                }
                Err(MtjError::SubCriticalDrive { .. }) => {
                    worst_needed = None;
                    faults.push(WriteFault {
                        direction,
                        class,
                        required_ns: None,
                    });
                    failing_pattern_count += class.multiplicity();
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    Ok(WriteFaultReport {
        faults,
        failing_pattern_count,
        required_pulse_ns: worst_needed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::presets;

    fn device() -> MtjDevice {
        presets::imec_like(Nanometer::new(35.0)).unwrap()
    }

    fn classify(pitch: f64, v: f64, pulse: f64) -> WriteFaultReport {
        classify_write_faults(
            &device(),
            Nanometer::new(pitch),
            Volt::new(v),
            Nanosecond::new(pulse),
            Kelvin::new(300.0),
        )
        .unwrap()
    }

    #[test]
    fn recommended_corner_is_clean() {
        let report = classify(70.0, 1.0, 25.0);
        assert!(report.is_clean());
        assert!(report.required_pulse_ns.unwrap() < 25.0);
    }

    #[test]
    fn aggressive_corner_fails_worst_case_writes() {
        // 1.5×eCD at a low voltage with a tight pulse: the Fig. 5c
        // failure the paper warns about.
        assert!(!classify(52.5, 0.74, 16.0).is_clean());
    }

    #[test]
    fn marginal_pulse_fails_only_hostile_patterns() {
        // Choose a pulse between the best- and worst-case tw at the
        // aggressive pitch: some classes fail, some survive.
        let probe = classify(52.5, 0.78, 1e6);
        let needed = probe.required_pulse_ns.expect("above threshold");
        let mid = classify(52.5, 0.78, needed - 0.4);
        assert!(!mid.is_clean());
        assert!(mid.failing_pattern_count < 512, "not everything fails");
        // The failing AP→P classes cluster at low #1s (hostile all-P
        // side raises Ic(AP→P)).
        for f in mid
            .faults
            .iter()
            .filter(|f| f.direction == SwitchDirection::ApToP)
        {
            assert!(
                f.class.direct_ones <= 2,
                "unexpected failing class {:?}",
                f.class
            );
        }
    }

    #[test]
    fn subcritical_voltage_fails_asymmetrically() {
        // At 0.3 V the AP→P write is subcritical (the AP resistance is
        // high, so the drive is small), but P→AP still completes: the
        // drive through RP is ~64 µA > Ic. A real write asymmetry.
        let report = classify(70.0, 0.3, 100.0);
        assert_eq!(report.failing_pattern_count, 256);
        assert!(report.required_pulse_ns.is_none());
        for f in &report.faults {
            assert_eq!(f.direction, SwitchDirection::ApToP);
            assert!(f.required_ns.is_none());
        }
    }

    #[test]
    fn deeply_subcritical_voltage_fails_every_corner() {
        let report = classify(70.0, 0.15, 100.0);
        assert_eq!(report.failing_pattern_count, 512);
        assert!(report.required_pulse_ns.is_none());
    }

    #[test]
    fn required_pulse_grows_with_density() {
        let sparse = classify(105.0, 0.85, 1e6).required_pulse_ns.unwrap();
        let dense = classify(52.5, 0.85, 1e6).required_pulse_ns.unwrap();
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }
}
