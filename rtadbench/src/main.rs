//! One benchmark command for the RTAD reproduction: the sparse serving
//! plane, the simulated ML-MIAOW engine and the simulated Fig. 8 SoC.
//!
//! ```text
//! cargo run --release --offline --manifest-path rtadbench/Cargo.toml -- \
//!     --workload fleet_elm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload generates its inputs from `--seed` before anything is
//! timed, drives the program only through its public functions, checks
//! every output against a computation made apart from the program, and
//! prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run reports the per-layer ones and writes its spans under
//! `rtadbench/out/`. See `rtadbench/README.md`.

mod device;
mod gen;
mod oracle;
mod report;
mod serve;
mod soc;
mod spans;
mod stats;

use std::process::ExitCode;

use rtad_alloc_counter::CountingAlloc;

use crate::report::Outcome;

/// Counts heap allocations while a gate is open (`soc.steady_allocs`);
/// forwards everything else to the system allocator.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fleet_elm", "dense_lstm", "device_lstm", "soc_fig8"];

/// Parsed command line.
#[derive(Debug, Clone)]
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
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtadbench: {e}");
            eprintln!(
                "usage: rtadbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "fleet_elm" => serve::fleet_elm(&args),
        "dense_lstm" => serve::dense_lstm(&args),
        "device_lstm" => device::device_lstm(&args),
        "soc_fig8" => soc::soc_fig8(&args),
        _ => unreachable!("validated in parse_args"),
    };
    // A wrong output is reported through `correct`; the run itself
    // completed, so it exits 0.
    outcome.print(&args);
    ExitCode::SUCCESS
}
