//! The repository benchmark: end-to-end metrics of the Shoggoth simulator
//! (`--trace 0`) and a per-stage ledger timed from outside the engine
//! (`--trace 1`), on the workloads listed in `BENCHMARK.json`.
//!
//! ```bash
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload adapt_detrac --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; failed checks are
//! listed on standard error.

mod e2e;
mod layers;
mod ledger;
mod report;
mod workload;

use report::{result_json, Tally, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workload::{Inputs, Workload};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: --workload <adapt_detrac|storm_fleet> \
                     --seed <u64> --seconds <secs> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.workload, args.seed);
    let mut tally = Tally::default();
    let (catalogue, values) = if args.trace {
        (
            PER_LAYER,
            ledger::measure(&inputs, args.seconds, &mut tally),
        )
    } else {
        (END_TO_END, e2e::measure(&inputs, args.seconds, &mut tally))
    };
    for failure in &tally.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", result_json(&tally, catalogue, &values));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload storm_fleet --seed 4 --seconds 10 --trace 1");
        let expected = Args {
            workload: Workload::StormFleet,
            seed: 4,
            seconds: 10.0,
            trace: true,
        };
        assert_eq!(args, Ok(expected));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload adapt_detrac --seed x --seconds 1 --trace 0",
            "--workload adapt_detrac --seed 1 --seconds 0 --trace 0",
            "--workload adapt_detrac --seed 1 --seconds 1 --trace 2",
            "--workload adapt_detrac --seed 1 --seconds 1",
            "--workload adapt_detrac --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
