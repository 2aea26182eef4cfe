//! One run's result: operation counts, correctness, metrics and run
//! metadata, printed as human-readable lines followed by one JSON line.

use crate::catalog;

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (a step, a pipeline call or a store round).
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Failed correctness checks, in the order they were found.
    pub problems: Vec<String>,
    /// Free-form lines printed before the metrics (sample counts,
    /// checksums, rates that are not catalogued metrics).
    pub notes: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric. Panics on a name missing from the catalogue, so
    /// nothing uncatalogued is ever printed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Records a free-form note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// Keeps only the catalogued metrics in `names` (missing ones are
    /// recorded as 0 — a layer the workload does not exercise).
    pub fn select(&self, names: &[(&'static str, &str)]) -> Vec<(&'static str, f64)> {
        names
            .iter()
            .map(|(n, _)| (*n, self.get(n).unwrap_or(0.0)))
            .collect()
    }

    /// Failed operations as reported: a failed check fails every
    /// attempted operation.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }

    /// The final JSON line for `metrics`.
    pub fn json_line(&self, metrics: &[(&'static str, f64)]) -> String {
        let correct = self.correct();
        let failed = self.failed_ops();
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalog::unit_of(name).expect("catalogued");
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.attempted,
            body.join(", ")
        )
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Steal and total time (jiffies, the first eight fields: user through
/// steal) of the `cpu` line of `/proc/stat`; `None` where it cannot be
/// read.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse::<u64>().ok())
        .collect::<Option<Vec<_>>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The run metadata line: the machine shape and build that produced the
/// metrics, so runs from different shapes are never compared as equal.
pub fn metadata_line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let commit = std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"metadata\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"pool_threads\": {}, \"lane_width\": {}, \
         \"rustc\": \"{}\", \"git_commit\": \"{}\"}}}}",
        chaff_core::pool::global().threads(),
        chaff_markov::LANE_WIDTH,
        escape(env!("PERFBENCH_RUSTC_VERSION")),
        escape(&commit),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_names_units_and_fails_everything_on_a_bad_check() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        r.set("slot_ms_p50", 12.5);
        let line = r.json_line(&r.select(&[("setup_s", "s"), ("slot_ms_p50", "ms")]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"slot_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
        r.fail("checksum mismatch");
        assert!(r
            .json_line(&[])
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 4"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn uncatalogued_metrics_are_refused() {
        Report::default().set("made_up", 1.0);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
