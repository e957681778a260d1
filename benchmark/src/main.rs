//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ibft-200 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; both run the same passes.
//! `--load-secs N` cuts every load curve at N seconds (the short
//! variants of the benchmark's tests). The last line of standard output
//! is the JSON result.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use diablo_e2e_bench::metrics::{end_to_end, per_layer, result_json};
use diablo_e2e_bench::workload::{by_name, WORKLOADS};
use diablo_e2e_bench::{run, RunSpec};

struct Args {
    spec: RunSpec,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut load_secs) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(by_name(value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--load-secs" => load_secs = Some(number()?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        spec: RunSpec {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: Duration::from_secs(seconds.ok_or("missing --seconds")?),
            load_secs,
            dir: PathBuf::from(format!(
                "benchmark/out/{}-{}",
                workload.name,
                std::process::id()
            )),
        },
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let m = run(&args.spec)?;
        for failure in &m.failures {
            eprintln!("failed pass: {failure}");
        }
        let (e2e, notes) = end_to_end(&m)?;
        let w = &args.spec.workload;
        println!(
            "{} (seed {}): {} untraced passes in {} s, {} layer-timed passes",
            w.name,
            args.spec.seed,
            m.walls.len(),
            args.spec.seconds.as_secs(),
            m.layers.len()
        );
        for note in notes {
            println!("{note}");
        }
        let metrics = if args.trace { per_layer(&m) } else { e2e };
        let failed = m.failures.len() as u64;
        println!(
            "{}",
            result_json(failed == 0, m.attempted, failed, &metrics)
        );
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("diablo-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
