//! Sweep planning: cartesian parameter grids over one scenario.

use crate::{EngineError, ParamSet};

/// A cartesian parameter grid over one scenario.
///
/// Fixed overrides apply to every job; each axis multiplies the grid.
/// Expansion order is deterministic: the first axis varies slowest,
/// the last varies fastest.
///
/// # Examples
///
/// ```
/// use mramsim_engine::SweepPlan;
///
/// let plan = SweepPlan::new("fig4b")
///     .fix("psi_threshold", 0.02)
///     .axis("ecd", vec![20.0, 35.0, 55.0])
///     .axis("pitch", vec![60.0, 90.0]);
/// assert_eq!(plan.len(), 6);
/// let jobs = plan.expand().unwrap();
/// assert_eq!(jobs[0].number("ecd").unwrap(), 20.0);
/// assert_eq!(jobs[1].number("pitch").unwrap(), 90.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    scenario: String,
    fixed: ParamSet,
    axes: Vec<(String, Vec<f64>)>,
}

impl SweepPlan {
    /// A plan over `scenario` with no axes yet (one job).
    #[must_use]
    pub fn new(scenario: &str) -> Self {
        Self {
            scenario: scenario.to_owned(),
            fixed: ParamSet::new(),
            axes: Vec::new(),
        }
    }

    /// The target scenario id.
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Fixes one parameter for every job.
    #[must_use]
    pub fn fix(mut self, name: &str, value: impl Into<crate::ParamValue>) -> Self {
        self.fixed.insert(name, value);
        self
    }

    /// Adds a sweep axis. An empty `values` list makes the plan
    /// unexpandable (see [`SweepPlan::expand`]).
    #[must_use]
    pub fn axis(mut self, name: &str, values: Vec<f64>) -> Self {
        self.axes.push((name.to_owned(), values));
        self
    }

    /// The fixed overrides applied to every job.
    #[must_use]
    pub fn fixed(&self) -> &ParamSet {
        &self.fixed
    }

    /// The axes in declaration order.
    #[must_use]
    pub fn axes(&self) -> &[(String, Vec<f64>)] {
        &self.axes
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Whether the grid has no points (some axis is empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into one [`ParamSet`] per job.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidParameter`] when an axis is empty or
    /// duplicates another axis or a fixed parameter.
    pub fn expand(&self) -> Result<Vec<ParamSet>, EngineError> {
        for (i, (name, values)) in self.axes.iter().enumerate() {
            if values.is_empty() {
                return Err(EngineError::InvalidParameter {
                    name: name.clone(),
                    message: "sweep axis has no values".into(),
                });
            }
            if self.fixed.contains(name) || self.axes[..i].iter().any(|(n, _)| n == name) {
                return Err(EngineError::InvalidParameter {
                    name: name.clone(),
                    message: "parameter appears twice in the plan".into(),
                });
            }
        }
        let mut jobs = vec![self.fixed.clone()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(jobs.len() * values.len());
            for job in &jobs {
                for &value in values {
                    next.push(job.clone().with(name, value));
                }
            }
            jobs = next;
        }
        Ok(jobs)
    }
}

/// A [`SweepPlan`] that passed [`crate::Engine::validate`], expanded
/// into its grid points (axis values plus resolved, seeded parameters).
/// Only `validate` builds one, so no [`crate::Run`] — and no journal —
/// exists for a plan that cannot run.
#[derive(Debug, Clone)]
pub struct ValidPlan {
    pub(crate) plan: SweepPlan,
    pub(crate) points: Vec<(Vec<(String, f64)>, ParamSet)>,
}

impl ValidPlan {
    /// The plan as submitted.
    #[must_use]
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_cartesian_and_ordered() {
        let plan = SweepPlan::new("s")
            .axis("a", vec![1.0, 2.0])
            .axis("b", vec![10.0, 20.0, 30.0]);
        let jobs = plan.expand().unwrap();
        assert_eq!(jobs.len(), 6);
        // First axis slowest.
        let pairs: Vec<(f64, f64)> = jobs
            .iter()
            .map(|j| (j.number("a").unwrap(), j.number("b").unwrap()))
            .collect();
        assert_eq!(pairs[0], (1.0, 10.0));
        assert_eq!(pairs[2], (1.0, 30.0));
        assert_eq!(pairs[3], (2.0, 10.0));
    }

    #[test]
    fn no_axes_means_one_job_with_the_fixed_params() {
        let plan = SweepPlan::new("s").fix("x", 5.0);
        let jobs = plan.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].number("x").unwrap(), 5.0);
    }

    #[test]
    fn empty_axis_is_rejected() {
        assert!(SweepPlan::new("s").axis("a", vec![]).expand().is_err());
    }

    #[test]
    fn duplicate_parameters_are_rejected() {
        assert!(SweepPlan::new("s")
            .axis("a", vec![1.0])
            .axis("a", vec![2.0])
            .expand()
            .is_err());
        assert!(SweepPlan::new("s")
            .fix("a", 1.0)
            .axis("a", vec![2.0])
            .expand()
            .is_err());
    }
}
