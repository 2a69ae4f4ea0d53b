//! Whole-run, per-layer benchmark of the multi-fidelity BO system.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pa_mf|forrester_fit|service_fanout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the command measures the end-to-end metrics with no
//! telemetry sink installed; with `--trace 1` it makes the separate traced
//! pass and reports the per-layer metrics (see `perfbench/README.md`).
//! Either way it checks the program's outputs, prints a human-readable
//! table, and ends its standard output with one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed check makes
//! the exit code 1.

mod clock;
mod model;
mod probes;
mod service;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Work directory (journals, span dumps), relative to the working
/// directory the benchmark is run from.
const WORK_DIR: &str = ".bench_work";

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Runs, requests and checks attempted.
    pub attempted: u64,
    /// Those that errored or failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Counts one attempted run or request; an error counts as failed.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        r: Result<T, E>,
        what: impl std::fmt::Display,
    ) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: {what}: {e}");
                None
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Worker threads the all-cores arms use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A directory under [`WORK_DIR`], created if missing. Its contents are
/// reused, not cleared: the service workloads overwrite the same journal
/// directories on every loop (see `service.rs`).
pub fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(WORK_DIR).join(name);
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_json(r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted.max(1),
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "pa_mf" => model::run(model::Kind::Pa, &args),
        "forrester_fit" => model::run(model::Kind::Forrester, &args),
        "service_fanout" => service::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload '{other}' (pa_mf, forrester_fit, service_fanout)"
            );
            return ExitCode::from(2);
        }
    };

    println!(
        "machine: nproc={} simd={} rustc=\"{}\" profile={}",
        nproc(),
        mfbo_simd::active().name(),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_PROFILE"),
    );
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16} ratio  ({} failed of {} attempted)",
        "failed_frac", failed_frac, report.failed, report.attempted
    );
    println!("{}", result_json(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_validate() {
        let a = parse_args(&argv("--workload pa_mf --seed 3 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pa_mf", 3, 12.0, true)
        );
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.check(true, "ok");
        r.metric("run_s", 1.25, "s");
        r.metric("missing", f64::NAN, "ms");
        assert_eq!(
            result_json(&r),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"missing\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
