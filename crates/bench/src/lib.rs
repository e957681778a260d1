//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (§6) has a binary in
//! `src/bin` that re-runs the corresponding experiments against the
//! simulated chains and prints the table rows / bar values / CDF series
//! the paper reports. This library holds the common experiment drivers
//! and plain-text rendering.

use diablo_chains::{Chain, Concurrency, Experiment, RunResult};
use diablo_contracts::DApp;
use diablo_net::DeploymentKind;
use diablo_workloads::{traces, Workload};

/// Scale factor for quick runs: set `DIABLO_QUICK=1` to shorten every
/// workload 4× (useful while iterating; figures use full length).
pub fn quick_factor() -> f64 {
    match std::env::var("DIABLO_QUICK") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => 0.25,
        _ => 1.0,
    }
}

/// Worker-thread count for committed-block execution: `--threads N` (or
/// `--threads=N`) on the command line, else `DIABLO_THREADS=N` in the
/// environment, else 1 (serial, the paper's baseline).
pub fn thread_knob() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            if let Ok(n) = v.parse() {
                return n;
            }
        }
    }
    std::env::var("DIABLO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The block-commit concurrency [`thread_knob`] resolves to: 0 or 1
/// worker means serial execution, anything larger enables the
/// deterministic static parallel executor with that many workers.
pub fn concurrency() -> Concurrency {
    match thread_knob() {
        0 | 1 => Concurrency::Serial,
        n => Concurrency::Parallel(n),
    }
}

/// Shortens a workload by the quick factor (keeps rates, trims time).
pub fn maybe_quick(w: Workload) -> Workload {
    let f = quick_factor();
    if f >= 1.0 {
        return w;
    }
    let keep = ((w.duration_secs() as f64 * f).ceil() as usize).max(10);
    Workload::from_rates(
        w.name().to_string(),
        w.rates()[..keep.min(w.rates().len())].to_vec(),
    )
}

/// Runs one native-transfer experiment (honors the `--threads` knob).
pub fn run_native(chain: Chain, deployment: DeploymentKind, workload: Workload) -> RunResult {
    Experiment::new(chain, deployment, maybe_quick(workload))
        .with_concurrency(concurrency())
        .run()
}

/// Runs one DApp experiment (honors the `--threads` knob).
pub fn run_dapp(chain: Chain, deployment: DeploymentKind, dapp: DApp) -> RunResult {
    let workload = traces::for_dapp(dapp.name()).expect("every dapp has a trace");
    Experiment::new(chain, deployment, maybe_quick(workload))
        .with_dapp(dapp)
        .with_concurrency(concurrency())
        .run()
}

/// A horizontal bar for plain-text "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.clamp(1, width))
}

/// Formats a results row in the figures' common layout.
pub fn result_row(label: &str, r: &RunResult) -> String {
    if !r.able() {
        return format!(
            "{label:<11} {:>8}  {:>8}  {:>7}   X {}",
            "X",
            "X",
            "X",
            r.unable_reason.as_deref().unwrap_or("unable")
        );
    }
    format!(
        "{label:<11} {:>8.1}  {:>7.1}s  {:>6.1}%",
        r.avg_throughput(),
        r.avg_latency_secs(),
        r.commit_ratio() * 100.0
    )
}

/// The header matching [`result_row`].
pub fn result_header(label: &str) -> String {
    format!(
        "{label:<11} {:>8}  {:>8}  {:>7}",
        "tput TPS", "latency", "commit"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale() {
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(
            bar(0.01, 10.0, 10).chars().count(),
            1,
            "non-zero values stay visible"
        );
    }

    #[test]
    fn quick_factor_defaults_to_full() {
        // Unless the environment says otherwise, workloads are full-length.
        if std::env::var("DIABLO_QUICK").is_err() {
            assert_eq!(quick_factor(), 1.0);
        }
    }

    #[test]
    fn thread_knob_defaults_to_serial() {
        // Without `--threads` / `DIABLO_THREADS`, block commits stay
        // serial (the paper's baseline).
        if std::env::var("DIABLO_THREADS").is_err() {
            assert_eq!(thread_knob(), 1);
            assert_eq!(concurrency(), Concurrency::Serial);
        }
    }

    #[test]
    fn maybe_quick_preserves_rates() {
        let w = Workload::from_rates("x", vec![5.0; 100]);
        let q = maybe_quick(w.clone());
        assert_eq!(q.rate_at(0), 5.0);
        assert!(q.duration_secs() <= w.duration_secs());
    }
}
