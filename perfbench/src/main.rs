//! `crimson-perfbench` — Crimson's end-to-end and per-layer benchmark.
//!
//! ```text
//! crimson-perfbench --workload ingest|query|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, sets the repository up
//! several times, measures a closed loop for `S` seconds,
//! checks the answers, and prints two JSON lines: a report with the run's
//! configuration, sample counts and ratio bases, then the result (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). See
//! `perfbench/README.md` for the metric definitions.

mod common;
mod ingest;
mod inputs;
mod layers;
mod oracle;
mod probe;
mod query;
mod report;
mod serve;
mod sweep;
mod trace;

use std::sync::OnceLock;
use std::time::Instant;

use trace::Tracer;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Time zero of every span of the run, shared by the tracers of all threads.
pub fn origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

/// Op ids of set-up, probe and check spans start here, above any window op id.
pub const SETUP_OP: u64 = 1 << 56;
pub const PROBE_OP: u64 = 2 << 56;
pub const CHECK_OP: u64 = 3 << 56;

const WORKLOADS: [&str; 3] = ["ingest", "query", "sweep"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crimson-perfbench: {e}");
            eprintln!(
                "usage: crimson-perfbench --workload ingest|query|sweep --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let jiffies = common::cpu_jiffies();
    let tracer = Tracer::new(args.trace, origin(), 0);
    let result = match args.workload.as_str() {
        "ingest" => ingest::run(&args, &tracer).map(|o| (o, Vec::new())),
        "query" => query::run(&args, &tracer),
        "sweep" => sweep::run(&args, &tracer).map(|o| (o, Vec::new())),
        _ => unreachable!("workload validated in parse_args"),
    };
    let (outcome, thread_spans) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("crimson-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let (mut spans, dropped) = tracer.into_spans();
    spans.extend(thread_spans);
    if let Err(e) = report::print(&args, outcome, &spans, dropped, jiffies) {
        eprintln!("crimson-perfbench: {e}");
        std::process::exit(1);
    }
}
