//! The repository benchmark binary. Run it through `run.py` (see
//! `README.md`); directly:
//!
//! ```text
//! perfbench --workload <online_dense|trace_batch|store_replay> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints the run metadata as one `{"metadata": ...}` JSON line,
//! human-readable notes and `name = value unit` lines, and as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around each layer's public calls and reports the per-layer metrics
//! as well as the traced end-to-end values (from which `run.py` derives
//! the tracing overhead). Spans are written as JSON lines to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`.

mod catalog;
mod checks;
mod online_dense;
mod report;
mod shadow;
mod stats;
mod store_replay;
mod trace;
mod trace_batch;

use std::path::PathBuf;
use std::process::ExitCode;

/// Result type of the workload runs.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["online_dense", "trace_batch", "store_replay"];

fn parse(args: &[String]) -> std::result::Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: checks::DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            opts.workload
        ));
    }
    Ok(opts)
}

/// Directory for span dumps and scratch store files, inside the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Writes the traced run's spans as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(opts: &Opts, tracer: &trace::Tracer) -> std::io::Result<()> {
    tracer.write_jsonl(&out_dir().join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        report::metadata_line(&opts.workload, opts.seed, opts.seconds, opts.trace)
    );
    let cpu_before = report::cpu_jiffies();
    let result = match opts.workload.as_str() {
        "online_dense" => online_dense::run(&opts),
        "trace_batch" => trace_batch::run(&opts),
        _ => store_replay::run(&opts),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed to set up: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, report::cpu_jiffies()) {
        // Time the hypervisor gave other tenants: the host noise behind a
        // run that reads slower than its neighbours.
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        println!("# steal = {:.1}% of CPU time during the run", share * 100.0);
    }
    for line in &report.notes {
        println!("# {line}");
    }
    for problem in &report.problems {
        println!("! {problem}");
    }
    let mut names: Vec<(&'static str, &str)> = catalog::END_TO_END.to_vec();
    if opts.trace {
        names.extend_from_slice(catalog::PER_LAYER);
    }
    let metrics = report.select(&names);
    for (name, value) in &metrics {
        let unit = catalog::unit_of(name).expect("catalogued");
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_ratio = {} ({} of {} operations)",
        report.failed_ops() as f64 / report.attempted.max(1) as f64,
        report.failed_ops(),
        report.attempted
    );
    println!("{}", report.json_line(&metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args(
            "--workload trace_batch --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("trace_batch", 7, 3, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload store_replay --trace 2")).is_err());
        assert!(parse(&args("--workload store_replay --seed")).is_err());
    }
}
