//! The ReverseCloak system benchmark.
//!
//! ```text
//! perfbench --workload <paper_live|city_sparse> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced
//! runs (`--trace 1`) report the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON
//! object. Any correctness violation exits with status 1 before a
//! result is printed. See `README.md` beside this crate.

mod city_sparse;
mod common;
mod layers;
mod paper_live;
mod replica;
mod stats;
mod ticks;
mod trace;

use stats::Samples;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
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
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One run's result: report lines, metrics, and operation counts.
#[derive(Debug, Default)]
pub struct Report {
    pub lines: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample count behind each metric, for the run record.
    pub samples: Vec<(&'static str, usize)>,
}

/// What an untraced run measured, turned into the end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each repeated set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Wall time of every timed tick, in ms.
    pub ticks: Samples,
    /// Receipts issued per second of each timed tick, its requester
    /// reads included.
    pub op_rates: Vec<f64>,
    /// Wall time of the whole timed phase, in seconds.
    pub phase_s: f64,
    /// Owner anonymize requests attempted, issued and refused.
    pub owner_requests: u64,
    pub issued: u64,
    pub refused: u64,
    /// Deanonymize requests completed (pipeline verification plus the
    /// requester reads).
    pub deanon_requests: u64,
    /// Requester read latency, in ms (printed, not gated: after a
    /// pipeline tick it swings with the host's cache pressure).
    pub reads: Samples,
    /// Receipt-stream digest over the whole timed phase.
    pub digest: u64,
    /// Issued/refused/digest over the fixed prefix of operations every
    /// run of a seed executes, so repeated runs can be compared.
    pub repro: String,
}

impl EndToEnd {
    pub fn report(self) -> Result<Report, String> {
        let mut setups = self.setups_s.clone();
        setups.sort_by(f64::total_cmp);
        let setup_s = stats::median(&setups);
        let peak_rss_mb = common::peak_rss_mb()?;
        let fail_ratio = self.refused as f64 / self.owner_requests as f64;
        // The median over ticks, not receipts over the whole phase: a
        // host slowdown that covers a few seconds of the run moves the
        // whole-phase quotient, and the median only once it covers half
        // the ticks.
        let mut rates = self.op_rates.clone();
        rates.sort_by(f64::total_cmp);
        if rates.is_empty() {
            return Err("no timed tick".into());
        }
        let receipts_per_s = stats::median(&rates);
        let metrics = vec![
            ("setup_s", setup_s, "s"),
            ("tick_ms_p50", self.ticks.median(), "ms"),
            ("tick_ms_p90", self.ticks.percentile(0.9)?, "ms"),
            ("receipts_per_s", receipts_per_s, "1/s"),
            (
                "issued_ratio",
                self.issued as f64 / self.owner_requests as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        let mut lines = vec![
            format!(
                "setup_s          {setup_s:.4} s (median of {} set-ups: {})",
                setups.len(),
                self.setups_s
                    .iter()
                    .map(|s| format!("{s:.4}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            format!("tick_ms          {}", self.ticks.describe()),
            format!(
                "receipts_per_s   {receipts_per_s:.2} 1/s (median over {} ticks; {} receipts in {:.3} s, {:.2} 1/s)",
                rates.len(),
                self.issued,
                self.phase_s,
                self.issued as f64 / self.phase_s
            ),
            // Printed, not a metric: every request count here is a fixed
            // multiple of the receipts issued, so it moves with
            // `receipts_per_s` and would gate the same change twice.
            format!(
                "requests_per_s   {:.2} 1/s ({} anonymize + {} deanonymize)",
                (self.owner_requests + self.deanon_requests) as f64 / self.phase_s,
                self.owner_requests,
                self.deanon_requests
            ),
        ];
        lines.extend([
            format!("deanon_ms        {}", self.reads.describe()),
            format!(
                "fail_ratio       {fail_ratio:.6} ({} refused of {} owner requests; issued_ratio {:.6})",
                self.refused,
                self.owner_requests,
                1.0 - fail_ratio
            ),
            format!("peak_rss_mb      {peak_rss_mb:.1} MiB"),
            format!("digest           {:016x}", self.digest),
            format!("repro            {}", self.repro),
        ]);
        let samples = vec![
            ("setup_s", setups.len()),
            ("tick_ms", self.ticks.len()),
            ("receipts_per_s", rates.len()),
            ("deanon_ms", self.reads.len()),
            ("owner_requests", self.owner_requests as usize),
        ];
        Ok(Report {
            lines,
            metrics,
            attempted: self.owner_requests + self.reads.len() as u64,
            failed: 0,
            samples,
        })
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_live" => paper_live::run(args),
        "city_sparse" => city_sparse::run(args),
        other => Err(format!(
            "unknown workload {other:?} (paper_live, city_sparse)"
        )),
    }
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
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rustc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC")
    );
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::from(1);
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!(
            "perfbench: {} seed {}: metric {name} is {value}",
            args.workload, args.seed
        );
        return ExitCode::from(1);
    }
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "run {{\"nproc\": {nproc}, \"rustc\": {}, \"seconds\": {}, \"samples\": {{{}}}}}",
        json_string(env!("PERFBENCH_RUSTC")),
        args.seconds,
        report
            .samples
            .iter()
            .map(|(k, n)| format!("{}: {n}", json_string(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload hit --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "hit");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload hit --seed 3")).is_err());
        assert!(parse_args(&argv("--workload hit --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload hit --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload hit --seed 1 --seconds 1 --trace 2")).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists the metrics this
    /// binary reports, with the same units and in the same order.
    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..json[start..].find(']').expect("section closes") + start];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().unwrap().to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit.split('"').next().unwrap().to_string())
                })
                .collect()
        };
        let mut e2e = EndToEnd {
            setups_s: vec![1.0],
            phase_s: 1.0,
            owner_requests: 10,
            issued: 9,
            ..Default::default()
        };
        for i in 0..1000 {
            e2e.ticks.push(f64::from(i));
            e2e.reads.push(f64::from(i));
            e2e.op_rates.push(f64::from(i));
        }
        let reported: Vec<(String, String)> = e2e
            .report()
            .unwrap()
            .metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), reported);
        let per_layer: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
