//! NXgraph benchmark: PageRank in memory (SPU) and out of core (MPU) on an
//! R-MAT scale-20 graph, and a mixed query/commit stream on a served
//! dynamic graph — all on real files.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pr-inmem|pr-ooc|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` it wraps the graph's disk in a
//! [`trace::TracingDisk`] and reports per-layer metrics, plus the tracing
//! overhead against untraced runs interleaved with the traced ones.
//! Human-readable lines (host fingerprint, every metric with its unit,
//! tail percentiles with their sample counts) come first; the last line
//! of standard output is one JSON object. Any failed correctness gate
//! makes the exit code 1.

mod host;
mod pr;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

use report::{Metrics, END_TO_END, PER_LAYER};

/// What a workload run produced.
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    pub metrics: Metrics,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pr-inmem|pr-ooc|serve-mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    host::settle_allocator();
    let scratch = match host::Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch root: {e}");
            return ExitCode::from(1);
        }
    };
    let fp = host::Fingerprint::collect(scratch.path(), args.seed);
    println!("host {}", fp.to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match args.workload.as_str() {
        "pr-inmem" => pr::run(&args, &scratch, pr::Mode::InMemory),
        "pr-ooc" => pr::run(&args, &scratch, pr::Mode::OutOfCore),
        "serve-mixed" => serve::run(&args, &scratch),
        w => Err(format!("unknown workload {w}")),
    };
    drop(scratch);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        report::show(name, out.metrics.get(name), unit, "");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics.json(set)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
