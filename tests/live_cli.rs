//! The `diablo` binary driven as a real process: live mode over actual
//! sockets, the Secondary's connect-failure contract — transient
//! refusals are retried per `--retry` and exit with the generic failure
//! code, while a non-transient bad address fails fast with its own
//! documented exit code — and the diff tools' handling of hostile input
//! files.

use std::net::TcpListener;
use std::process::Command;
use std::time::Instant;

const EXIT_FAILURE: i32 = 1;
const EXIT_NON_TRANSIENT: i32 = 2;

fn diablo(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_diablo"))
        .args(args)
        .output()
        .expect("spawn diablo")
}

#[test]
fn bad_address_fails_fast_with_the_non_transient_exit_code() {
    let start = Instant::now();
    let out = diablo(&[
        "secondary",
        "--primary=999.999.0.1:70000",
        // A generous retry budget that must NOT be spent: bad addresses
        // are permanent and skip the retry loop entirely.
        "--retry=10x500/10000",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_NON_TRANSIENT));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad address"), "stderr: {stderr}");
    assert!(
        start.elapsed().as_millis() < 2_000,
        "a non-transient error must not sit out the retry backoff"
    );
}

#[test]
fn refused_connection_is_retried_then_fails_generically() {
    // Bind a port, then free it: nothing listens there, so every
    // connect attempt is refused — the canonical transient error.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let start = Instant::now();
    let out = diablo(&[
        "secondary",
        &format!("--primary=127.0.0.1:{port}"),
        "--retry=3x200/5000",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_FAILURE));
    // Three attempts with a 200 ms backoff between them: the process
    // must have actually waited out at least the two gaps.
    assert!(
        start.elapsed().as_millis() >= 400,
        "exited after {:?} — the retry backoff was skipped",
        start.elapsed()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("attempts") || stderr.contains("refused") || stderr.contains("connect"),
        "stderr should describe the exhausted retries: {stderr}"
    );
}

#[test]
fn unknown_flags_are_a_usage_error() {
    let out = diablo(&["run", "--no-such-flag", "workloads/exchange.yaml"]);
    assert_eq!(out.status.code(), Some(EXIT_FAILURE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--no-such-flag"), "stderr: {stderr}");
}

#[test]
fn deeply_nested_input_is_a_json_error_for_every_diff_tool() {
    // 200,000 unclosed `[` used to overflow the reader's stack and abort
    // the process (exit 134) instead of failing with a parse error.
    let path = std::env::temp_dir().join(format!("diablo-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("write deep file");
    let deep = path.to_str().expect("utf-8 temp path");
    for tool in ["compare", "trace-diff", "live-diff"] {
        let out = diablo(&[tool, deep, deep]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_FAILURE), "{tool}: {stderr}");
        assert!(stderr.contains("json error at byte"), "{tool}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_run_over_real_secondaries_reports_a_fidelity_score() {
    let out_path = std::env::temp_dir().join(format!("diablo-live-cli-{}.json", std::process::id()));
    let out = diablo(&[
        "run",
        "--live",
        "--chain=quorum",
        "--seed=11",
        "--secondaries=2",
        "--grace=1",
        "--time-scale=50",
        &format!("--output={}", out_path.display()),
        "workloads/exchange.yaml",
    ]);
    assert!(
        out.status.success(),
        "live run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("results written");
    let _ = std::fs::remove_file(&out_path);

    // The live report carries the live-diff section with a finite
    // fidelity and no lost Secondaries.
    assert!(json.contains("\"liveDiff\":{"), "no liveDiff section: {json}");
    assert!(json.contains("\"lostSecondaries\":0"), "workers died: {json}");
    let fidelity: f64 = json
        .split("\"fidelity\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("fidelity field parses");
    assert!(
        fidelity.is_finite() && fidelity > 0.0 && fidelity <= 1.0,
        "fidelity out of range: {fidelity}"
    );
}
