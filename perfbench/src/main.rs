//! mpi-dfa benchmark harness: one workload per process.
//!
//! ```text
//! perfbench --workload table1|scaled|service --seed N --seconds S --trace 0|1
//!           [--commit SHA] [--rustc VERSION]
//! ```
//!
//! Prints an info line (`{"info": …}`: build, host and raw timings), then
//! as its last line the result: `{"correct", "attempted", "failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `perfbench/run.py` builds this binary and runs
//! it with a clean environment.

mod harness;
mod input;
mod kernel;
mod report;
mod scaled;
mod service;
mod stats;
mod table1;
mod trace;

use mpi_dfa_service::json::escape;
use report::Workload;
use std::fmt::Write as _;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
        rustc,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::Table1, false) => table1::run(args.seconds),
        (Workload::Table1, true) => table1::run_traced(args.seconds, args.seed),
        (Workload::Scaled, false) => scaled::run(args.seconds, args.seed),
        (Workload::Scaled, true) => scaled::run_traced(args.seconds, args.seed),
        (Workload::Service, false) => service::run(args.seconds, args.seed),
        (Workload::Service, true) => service::run_traced(args.seconds, args.seed),
    };
    let line = match report::render(args.workload, args.trace, &outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        escape(&args.commit),
        escape(&args.rustc),
    );
    for (k, v) in &outcome.info {
        let _ = write!(info, ", \"{k}\": {v:?}");
    }
    info.push_str("}}");
    println!("{info}");
    println!("{line}");
}
