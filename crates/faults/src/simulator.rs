//! The coupling-aware array simulator: writes succeed only when the
//! pattern-dependent switching time fits inside the write pulse.

use crate::{CellArray, FaultsError};
use mramsim_array::{CouplingAnalyzer, NeighborhoodPattern};
use mramsim_mtj::{MtjDevice, MtjError, MtjState, SwitchDirection};
use mramsim_units::{Kelvin, Nanometer, Nanosecond, Volt};

/// Write-driver conditions shared by every cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteConditions {
    /// Write pulse amplitude.
    pub voltage: Volt,
    /// Write pulse width.
    pub pulse: Nanosecond,
    /// Operating temperature.
    pub temperature: Kelvin,
}

impl Default for WriteConditions {
    fn default() -> Self {
        Self {
            voltage: Volt::new(0.9),
            pulse: Nanosecond::new(15.0),
            temperature: Kelvin::new(300.0),
        }
    }
}

/// Outcome of one memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The operation completed and left the cell in the target state.
    Ok,
    /// A write did not complete: the pattern-dependent switching time
    /// exceeded the pulse width (or the drive was below threshold).
    WriteFailed,
}

/// A first-order behavioural simulator of an STT-MRAM array under
/// magnetic coupling.
///
/// Write model: a state-changing write succeeds iff the drive exceeds
/// the pattern-dependent critical current *and* Sun's switching time
/// under the total stray field `Hz_s_intra + Hz_s_inter(NP8)` fits into
/// the pulse. This is exactly the failure mechanism the paper's Fig. 5
/// warns about ("a larger write margin … is required to avoid write
/// failure in the worst case").
///
/// # Examples
///
/// ```
/// use mramsim_faults::{ArraySimulator, OpResult, WriteConditions};
/// use mramsim_mtj::{presets, MtjState};
/// use mramsim_units::{Nanometer, Nanosecond, Volt};
///
/// let device = presets::imec_like(Nanometer::new(35.0))?;
/// let mut sim = ArraySimulator::new(
///     device, Nanometer::new(70.0), 4, 4,
///     WriteConditions { voltage: Volt::new(1.1), pulse: Nanosecond::new(20.0),
///                       ..WriteConditions::default() },
/// )?;
/// assert_eq!(sim.write(1, 2, MtjState::AntiParallel)?, OpResult::Ok);
/// assert_eq!(sim.read(1, 2)?, MtjState::AntiParallel);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArraySimulator {
    device: MtjDevice,
    coupling: CouplingAnalyzer,
    conditions: WriteConditions,
    array: CellArray,
}

impl ArraySimulator {
    /// Builds a simulator for a uniform array.
    ///
    /// The per-pattern coupling fields come from the shared
    /// stray-field kernel cache, so constructing many simulators at
    /// one `(device, pitch)` design point — march sweeps, fault-class
    /// scans — pays the Biot–Savart precomputation once.
    ///
    /// # Errors
    ///
    /// Propagates device/array construction failures.
    pub fn new(
        device: MtjDevice,
        pitch: Nanometer,
        rows: usize,
        cols: usize,
        conditions: WriteConditions,
    ) -> Result<Self, FaultsError> {
        let coupling = CouplingAnalyzer::new(device.clone(), pitch)?;
        Ok(Self {
            device,
            coupling,
            conditions,
            array: CellArray::filled(rows, cols, MtjState::Parallel)?,
        })
    }

    /// The current data state.
    #[must_use]
    pub fn array(&self) -> &CellArray {
        &self.array
    }

    /// The write conditions in force.
    #[must_use]
    pub fn conditions(&self) -> WriteConditions {
        self.conditions
    }

    /// Replaces the stored data wholesale (e.g. to preload a
    /// checkerboard background).
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::InvalidParameter`] on dimension mismatch.
    pub fn load(&mut self, array: CellArray) -> Result<(), FaultsError> {
        if array.rows() != self.array.rows() || array.cols() != self.array.cols() {
            return Err(FaultsError::InvalidParameter {
                name: "array",
                message: format!(
                    "dimensions {}x{} do not match the simulator's {}x{}",
                    array.rows(),
                    array.cols(),
                    self.array.rows(),
                    self.array.cols()
                ),
            });
        }
        self.array = array;
        Ok(())
    }

    /// Whether a state-changing write at `(row, col)` would succeed
    /// under the *current* neighbourhood.
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::Array`] (carrying
    /// [`mramsim_array::ArrayError::InvalidAddress`]) for bad
    /// addresses.
    pub fn write_would_succeed(
        &self,
        row: usize,
        col: usize,
        target: MtjState,
    ) -> Result<bool, FaultsError> {
        let current = self.array.get(row, col)?;
        if current == target {
            return Ok(true); // non-transition writes always "succeed"
        }
        let np = self.array.neighborhood(row, col)?;
        Ok(self.transition_fits(current_to(target, current), np))
    }

    fn transition_fits(&self, direction: SwitchDirection, np: NeighborhoodPattern) -> bool {
        let hz = self.coupling.total_hz(np);
        match self.device.switching_time(
            direction,
            self.conditions.voltage,
            hz,
            self.conditions.temperature,
        ) {
            Ok(tw) => tw.value() <= self.conditions.pulse.value(),
            Err(MtjError::SubCriticalDrive { .. }) => false,
            Err(_) => false,
        }
    }

    /// Performs a write. On failure the cell keeps its old state (the
    /// STT write either completes or leaves the magnetisation in place).
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::Array`] (carrying
    /// [`mramsim_array::ArrayError::InvalidAddress`]) for bad
    /// addresses.
    pub fn write(
        &mut self,
        row: usize,
        col: usize,
        target: MtjState,
    ) -> Result<OpResult, FaultsError> {
        if self.write_would_succeed(row, col, target)? {
            self.array.set(row, col, target)?;
            Ok(OpResult::Ok)
        } else {
            Ok(OpResult::WriteFailed)
        }
    }

    /// Reads a cell (ideal, non-disturbing read).
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::Array`] (carrying
    /// [`mramsim_array::ArrayError::InvalidAddress`]) for bad
    /// addresses.
    pub fn read(&self, row: usize, col: usize) -> Result<MtjState, FaultsError> {
        Ok(self.array.get(row, col)?)
    }
}

fn current_to(target: MtjState, current: MtjState) -> SwitchDirection {
    debug_assert_ne!(target, current);
    match current {
        MtjState::AntiParallel => SwitchDirection::ApToP,
        MtjState::Parallel => SwitchDirection::PToAp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramsim_mtj::presets;

    fn sim(pitch: f64, voltage: f64, pulse: f64) -> ArraySimulator {
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        ArraySimulator::new(
            device,
            Nanometer::new(pitch),
            6,
            6,
            WriteConditions {
                voltage: Volt::new(voltage),
                pulse: Nanosecond::new(pulse),
                temperature: Kelvin::new(300.0),
            },
        )
        .unwrap()
    }

    #[test]
    fn writes_round_trip_when_healthy() {
        let mut s = sim(70.0, 1.1, 25.0);
        assert_eq!(s.write(2, 3, MtjState::AntiParallel).unwrap(), OpResult::Ok);
        assert_eq!(s.read(2, 3).unwrap(), MtjState::AntiParallel);
        assert_eq!(s.write(2, 3, MtjState::Parallel).unwrap(), OpResult::Ok);
        assert_eq!(s.read(2, 3).unwrap(), MtjState::Parallel);
    }

    #[test]
    fn failed_write_preserves_the_old_state() {
        // 0.15 V is sub-threshold for both polarities: every transition
        // write fails and the cell keeps its data.
        let mut s = sim(70.0, 0.15, 50.0);
        assert_eq!(
            s.write(1, 1, MtjState::AntiParallel).unwrap(),
            OpResult::WriteFailed
        );
        assert_eq!(s.read(1, 1).unwrap(), MtjState::Parallel);
    }

    #[test]
    fn non_transition_write_always_succeeds() {
        let mut s = sim(70.0, 0.3, 1.0);
        assert_eq!(s.write(0, 0, MtjState::Parallel).unwrap(), OpResult::Ok);
    }

    #[test]
    fn pattern_dependence_is_observable() {
        // Near the margin, an AP→P write succeeds with helpful (all-AP)
        // neighbours and fails with hostile (all-P) ones.
        let device = presets::imec_like(Nanometer::new(35.0)).unwrap();
        let mut found = false;
        for pulse in [14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0, 22.0] {
            let mut s = ArraySimulator::new(
                device.clone(),
                Nanometer::new(52.5),
                5,
                5,
                WriteConditions {
                    voltage: Volt::new(0.78),
                    pulse: Nanosecond::new(pulse),
                    temperature: Kelvin::new(300.0),
                },
            )
            .unwrap();
            // Hostile background: all P. Target cell is AP so the write
            // is a transition.
            let mut hostile = CellArray::filled(5, 5, MtjState::Parallel).unwrap();
            hostile.set(2, 2, MtjState::AntiParallel).unwrap();
            s.load(hostile).unwrap();
            let fails_hostile = s.write(2, 2, MtjState::Parallel).unwrap() == OpResult::WriteFailed;

            let mut helpful = CellArray::filled(5, 5, MtjState::AntiParallel).unwrap();
            helpful.set(2, 2, MtjState::AntiParallel).unwrap();
            s.load(helpful).unwrap();
            let works_helpful = s.write(2, 2, MtjState::Parallel).unwrap() == OpResult::Ok;

            if fails_hostile && works_helpful {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "a pulse width must exist where only the pattern decides"
        );
    }

    #[test]
    fn load_rejects_wrong_dimensions() {
        let mut s = sim(70.0, 1.0, 20.0);
        let wrong = CellArray::filled(3, 3, MtjState::Parallel).unwrap();
        assert!(s.load(wrong).is_err());
    }
}
