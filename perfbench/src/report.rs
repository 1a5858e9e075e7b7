//! Collected metrics and output checks, printed as a table and as the
//! one-line JSON result.

use uvm_util::Json;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: u64,
    /// Free-form qualifier printed next to the value.
    pub note: String,
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence or the first mismatch.
    pub detail: String,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Figures, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks, in run order.
    pub checks: Vec<Check>,
    /// Informational lines printed before the table.
    pub notes: Vec<String>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
}

impl Report {
    /// Records a figure.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metric_noted(name, value, unit, samples, String::new());
    }

    /// Records a figure with a qualifier.
    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check held and no cell failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::object();
        for m in &self.metrics {
            let mut entry = Json::object();
            entry.insert("value", Json::Float(m.value));
            entry.insert("unit", Json::Str(m.unit.to_string()));
            metrics.insert(m.name.clone(), entry);
        }
        let mut out = Json::object();
        out.insert("correct", Json::Bool(self.correct()));
        out.insert("attempted", Json::UInt(self.attempted.max(1)));
        out.insert("failed", Json::UInt(self.failed));
        out.insert("metrics", metrics);
        out
    }

    /// Prints notes, checks and the metric table, then the JSON result as
    /// the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("check {verdict} {}: {}", c.name, c.detail);
        }
        println!(
            "{:<44} {:>16} {:<8} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<44} {:>16.6} {:<8} {:>8}  {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        println!("{}", self.result_json());
    }
}

/// Resets this process's peak resident set to its current one, so the
/// next [`peak_rss_mb`] covers only what runs in between. Returns whether
/// the host supports it (`/proc/self/clear_refs`).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// figure is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
