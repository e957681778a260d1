//! The benchmark's own tests: the 1-second-load variant of every
//! workload prints every metric with its unit, and a corrupted results
//! file fails the output check.

use std::path::{Path, PathBuf};
use std::process::Command;

use diablo_e2e_bench::check::check_results;
use diablo_e2e_bench::pass::run_pass;
use diablo_e2e_bench::workload::{by_name, run_args, truncate_load, Files, WORKLOADS};

const END_TO_END: [(&str, &str); 4] = [
    ("wall_s_tail", "s"),
    ("tx_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 33] = [
    ("spec.parse_ms", "ms"),
    ("plan.ms", "ms"),
    ("plan.ns_per_tx", "ns"),
    ("plan.txs", "count"),
    ("harness.build_ms", "ms"),
    ("simulate.ms", "ms"),
    ("simulate.ns_per_tx", "ns"),
    ("consensus_model.new_ms", "ms"),
    ("consensus_model.commit_us", "us"),
    ("consensus_model.replay_ms", "ms"),
    ("consensus_model.share", "ratio"),
    ("consensus.blocks.committed", "count"),
    ("consensus.blocks.empty", "count"),
    ("mempool.admitted", "count"),
    ("mempool.dropped", "count"),
    ("mempool.take_batch.calls", "count"),
    ("mempool.take_batch.skipped", "count"),
    ("mempool.depth_peak", "count"),
    ("vm.prepared.calls", "count"),
    ("vm.metered.calls", "count"),
    ("exec.profiled.hit_ratio", "ratio"),
    ("store.blocks", "count"),
    ("store.txs", "count"),
    ("store.resident_bytes", "bytes"),
    ("telemetry.snapshot_ms", "ms"),
    ("trace.export_ms", "ms"),
    ("trace.bytes", "bytes"),
    ("trace.txs", "count"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("report.write_ms", "ms"),
    ("layers.coverage", "ratio"),
    ("layers.vs_untraced", "ratio"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Runs the benchmark binary from the repository root on the 1-second
/// load variant and returns its result line.
fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_diablo-e2e-bench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--load-secs", "1"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The metric names and units of a result line, in order.
fn metrics_of(line: &str) -> Vec<(String, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once(": {\"value\": ").expect("a metric entry");
            let unit = rest.split("\"unit\": \"").nth(1).expect("a unit");
            (
                name.trim_matches('"').to_string(),
                unit.split('"').next().expect("a quoted unit").to_string(),
            )
        })
        .collect()
}

fn expect_metrics(line: &str, want: &[(&str, &str)]) {
    let got = metrics_of(line);
    let want: Vec<(String, String)> = want
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in WORKLOADS {
        expect_metrics(&result_line(w.name, "0"), &END_TO_END);
        expect_metrics(&result_line(w.name, "1"), &PER_LAYER);
    }
}

#[test]
fn every_short_variant_passes_the_output_check() {
    for w in WORKLOADS {
        let line = result_line(w.name, "0");
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{}: {line}",
            w.name
        );
        assert!(line.contains("\"failed\": 0, "), "{}: {line}", w.name);
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "{entry} missing");
    }
    let entries = text.matches("\"name\": ").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn a_corrupted_stats_field_fails_the_check() {
    let w = by_name("ibft-200").expect("a workload");
    let dir = repo_root().join(format!("benchmark/out/corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let full = std::fs::read_to_string(repo_root().join(w.spec)).unwrap();
    let spec = dir.join("native-1000.yaml");
    std::fs::write(&spec, truncate_load(&full, 1)).unwrap();
    let files = Files {
        spec,
        results: dir.join("results.json"),
        trace: dir.join("trace.json"),
    };
    run_pass(&run_args(&w, 7, &files)).unwrap();
    let text = std::fs::read_to_string(&files.results).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    // 4 clients × 250 TPS × 1 s.
    check_results(text.as_bytes(), 1000).expect("the untouched file passes");
    for field in ["sent", "committed"] {
        let key = format!("\"{field}\":1000,");
        assert!(text.contains(&key), "{key}");
        let bad = text.replacen(&key, &format!("\"{field}\":999,"), 1);
        assert!(check_results(bad.as_bytes(), 1000).is_err(), "{field}");
    }
    let latency = text
        .split("\"avgLatency\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap();
    let shifted: f64 = latency.parse::<f64>().unwrap() + 0.002;
    let bad = text.replacen(
        &format!("\"avgLatency\":{latency}"),
        &format!("\"avgLatency\":{shifted:.3}"),
        1,
    );
    assert!(check_results(bad.as_bytes(), 1000).is_err());
}
