//! `perfbench`: the frame-in to result-out benchmark of the SKiPPER host
//! path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inject-fault]
//! ```
//!
//! Each run generates its inputs from the seed, sets the program up,
//! measures one workload for the given seconds, checks every output
//! against its sequential reference, and prints a ledger followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics of an
//! untraced run; `--trace 1` reports the per-layer metrics of a traced
//! run, in which the benchmark times its own calls into each layer's
//! public functions (nothing inside the program is instrumented).
//! `--inject-fault` corrupts the first checked output (a count off by
//! one, a dropped mark), to show that the check bites. The exit code is
//! nonzero when any frame failed.
//!
//! Workloads (see `perfbench/workloads.json` for what each stresses and
//! bypasses):
//!
//! - `ccl_1080p`: closed loop, one client, prepared CCL `scm` on the pool;
//! - `tracking_512`: closed loop, one client, the paper's vehicle tracker;
//! - `serve_tracking`: open loop, 32 Poisson camera streams over `serve`;
//! - `dist_farm`: closed loop, one client, a `df` farm on worker processes.

mod ccl;
mod dist;
mod measure;
mod serving;
mod tracking;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use measure::Outcome;

const USAGE: &str =
    "usage: perfbench --workload <ccl_1080p|tracking_512|serve_tracking|dist_farm> \
                     --seed <n> --seconds <s> --trace <0|1> [--inject-fault]";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub inject_fault: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut inject_fault = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--inject-fault" {
                inject_fault = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
            inject_fault,
        })
    }

    /// Whether the output about to be checked is to be corrupted first:
    /// true exactly once per process under `--inject-fault`.
    pub fn corrupt(&self) -> bool {
        static INJECTED: AtomicBool = AtomicBool::new(false);
        self.inject_fault && !INJECTED.swap(true, Ordering::Relaxed)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(dist::WORKER_ARG) {
        return dist::worker_main();
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "ccl_1080p" => ccl::run,
        "tracking_512" => tracking::run,
        "serve_tracking" => serving::run,
        "dist_farm" => dist::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} | seed {} | {:.1} s | {} run | {} workers",
        args.workload,
        args.seed,
        args.budget.as_secs_f64(),
        if args.trace { "traced" } else { "untraced" },
        measure::workers()
    );
    run(&args).finish(args.trace)
}
