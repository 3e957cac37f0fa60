//! The [`Scenario`] abstraction: one uniform interface over every
//! driver in the workspace.

use crate::{EngineError, ParamSet, ParamSpec};
use mramsim_core::report::Table;

/// Anything the engine can run: a paper figure, the design-space
/// explorer, the fault simulator, or any future workload.
///
/// Implementations must be cheap to construct and stateless — all
/// inputs arrive through the [`ParamSet`], which is what makes runs
/// cacheable and sweepable. The one state allowed is a bounded memo of
/// a pure function of those inputs (the campaign scenarios'
/// [`EnsembleMemo`](mramsim_dynamics::EnsembleMemo)): a hit must be
/// bit-identical to recomputing, so no output can depend on it.
pub trait Scenario: Send + Sync {
    /// Stable identifier (`fig4b`, `explore`, `faults`, …).
    fn id(&self) -> &'static str;

    /// One-line description shown by `mramsim list`.
    fn summary(&self) -> &'static str;

    /// The version of the model behind this scenario's outputs, part of
    /// every result's content address: bump it when the same parameters
    /// would produce different bits, and only this scenario's cached
    /// results are recomputed. Version 1 adds nothing to the address, so
    /// results cached before versions existed keep serving.
    fn version(&self) -> u32 {
        1
    }

    /// The declared parameters with their defaults. The engine rejects
    /// any parameter outside this list before [`Scenario::run`] is
    /// called.
    fn params(&self) -> Vec<ParamSpec>;

    /// Runs the scenario for one fully resolved parameter point.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidParameter`] for out-of-domain values and
    /// [`EngineError::Scenario`] for model failures.
    fn run(&self, params: &ParamSet) -> Result<ScenarioOutput, EngineError>;
}

/// The uniform result of one scenario run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioOutput {
    /// Result tables (at least one for every successful run).
    pub tables: Vec<Table>,
    /// An optional ASCII chart.
    pub chart: Option<String>,
    /// Named headline numbers — the values a sweep summarises.
    pub scalars: Vec<(String, f64)>,
}

impl ScenarioOutput {
    /// An output holding one table.
    #[must_use]
    pub fn from_table(table: Table) -> Self {
        Self {
            tables: vec![table],
            ..Self::default()
        }
    }

    /// Builder-style: adds a table.
    #[must_use]
    pub fn with_table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Builder-style: sets the chart.
    #[must_use]
    pub fn with_chart(mut self, chart: String) -> Self {
        self.chart = Some(chart);
        self
    }

    /// Builder-style: adds a headline scalar.
    #[must_use]
    pub fn with_scalar(mut self, name: &str, value: f64) -> Self {
        self.scalars.push((name.to_owned(), value));
        self
    }

    /// Looks up a headline scalar by name.
    #[must_use]
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders everything as Markdown (tables, then scalars, then the
    /// chart in a code fence).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        if !self.scalars.is_empty() {
            out.push_str("**headline numbers:**\n\n");
            for (name, value) in &self.scalars {
                out.push_str(&format!("* `{name}` = {value:.6}\n"));
            }
            out.push('\n');
        }
        if let Some(chart) = &self.chart {
            out.push_str("```text\n");
            out.push_str(chart);
            out.push_str("```\n");
        }
        out
    }

    /// Renders all tables as CSV, separated by blank lines.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.tables
            .iter()
            .map(Table::to_csv)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(&["1", "2"]);
        t
    }

    #[test]
    fn builders_accumulate() {
        let out = ScenarioOutput::from_table(table())
            .with_table(table())
            .with_chart("chart-body\n".into())
            .with_scalar("psi", 0.02);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.scalar("psi"), Some(0.02));
        assert_eq!(out.scalar("nope"), None);
        let md = out.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("`psi` = 0.02"));
        assert!(md.contains("chart-body"));
        assert!(out.to_csv().contains("a,b"));
    }
}
