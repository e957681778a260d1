//! The benchmark's metrics, computed from what a run measured, and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use crate::pass::{LayerPass, Replay};
use crate::Measured;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that has at least ten samples beyond it:
/// `(value, percentile, samples beyond)`. With ten samples or fewer it
/// is the smallest sample.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(idx) = v.len().checked_sub(1) else {
        return (0.0, 0.0, 0);
    };
    let idx = idx.saturating_sub(10);
    let pct = 100.0 * (idx + 1) as f64 / v.len() as f64;
    (v[idx], pct, v.len() - idx - 1)
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over the layer-timed passes of `f`.
fn over(layers: &[(LayerPass, Replay)], f: impl Fn(&LayerPass, &Replay) -> f64) -> f64 {
    median(&layers.iter().map(|(p, r)| f(p, r)).collect::<Vec<_>>())
}

/// The median wall time of the untraced passes, in seconds.
fn wall_s_p50(m: &Measured) -> f64 {
    median(&m.walls.iter().map(|&d| secs(d)).collect::<Vec<_>>())
}

/// The end-to-end metrics of a run, plus the context lines they need
/// (the tail's percentile and pass count, the median pass, the input
/// size).
///
/// Pass time is gated at the tail, not at the median: on a shared
/// host the lower half of a run's passes speeds up and slows down with
/// the neighbours' load, while the upper quantiles sit at the contended
/// speed and repeat more closely from run to run (see the README's
/// noise section).
pub fn end_to_end(m: &Measured) -> Result<(Vec<Metric>, Vec<String>), String> {
    let walls: Vec<f64> = m.walls.iter().map(|&d| secs(d)).collect();
    if walls.is_empty() || m.layers.is_empty() {
        return Err("no pass ran to completion".to_string());
    }
    let (tail_value, pct, beyond) = tail(&walls);
    let notes = vec![
        format!(
            "wall_s_tail is p{pct:.1} of {} untraced passes ({beyond} beyond it); \
             the median pass took {:.6} s",
            walls.len(),
            wall_s_p50(m)
        ),
        format!(
            "tx_per_s carries {} planned transactions per pass, at the tail pass",
            m.planned
        ),
    ];
    let metrics = vec![
        metric("wall_s_tail", tail_value, "s"),
        metric("tx_per_s", m.planned as f64 / tail_value, "1/s"),
        metric(
            "setup_s",
            over(&m.layers, |p, _| secs(p.stages.setup())),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    Ok((metrics, notes))
}

/// A counter of the pass's telemetry (0 when never bumped).
fn counter(p: &LayerPass, name: &str) -> f64 {
    p.telemetry.counter(name).unwrap_or(0) as f64
}

/// A gauge of the pass's telemetry (0 when never set).
fn gauge(p: &LayerPass, name: &str) -> f64 {
    p.telemetry
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The per-layer metrics: medians over the layer-timed passes, counts
/// from their (deterministic) telemetry.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let l = &m.layers;
    let ns_per_tx = |d: Duration, p: &LayerPass| ratio(d.as_nanos() as f64, p.plan_txs as f64);
    vec![
        metric(
            "spec.parse_ms",
            over(l, |p, _| ms(p.stages.spec_parse)),
            "ms",
        ),
        metric("plan.ms", over(l, |p, _| ms(p.stages.plan)), "ms"),
        metric(
            "plan.ns_per_tx",
            over(l, |p, _| ns_per_tx(p.stages.plan, p)),
            "ns",
        ),
        metric("plan.txs", over(l, |p, _| p.plan_txs as f64), "count"),
        metric(
            "harness.build_ms",
            over(l, |p, _| ms(p.stages.harness_build)),
            "ms",
        ),
        metric("simulate.ms", over(l, |p, _| ms(p.stages.simulate)), "ms"),
        metric(
            "simulate.ns_per_tx",
            over(l, |p, _| ns_per_tx(p.stages.simulate, p)),
            "ns",
        ),
        metric("consensus_model.new_ms", over(l, |_, r| ms(r.new)), "ms"),
        metric(
            "consensus_model.commit_us",
            over(l, |_, r| ratio(ms(r.replay) * 1e3, r.calls as f64)),
            "us",
        ),
        metric(
            "consensus_model.replay_ms",
            over(l, |_, r| ms(r.replay)),
            "ms",
        ),
        metric(
            "consensus_model.share",
            over(l, |p, r| ratio(ms(r.replay), ms(p.stages.simulate))),
            "ratio",
        ),
        metric(
            "consensus.blocks.committed",
            over(l, |p, _| counter(p, "consensus.blocks.committed")),
            "count",
        ),
        metric(
            "consensus.blocks.empty",
            over(l, |p, _| counter(p, "consensus.blocks.empty")),
            "count",
        ),
        metric(
            "mempool.admitted",
            over(l, |p, _| counter(p, "mempool.admitted")),
            "count",
        ),
        metric(
            "mempool.dropped",
            over(l, |p, _| {
                let dropped: u64 = p
                    .telemetry
                    .counters
                    .iter()
                    .filter(|(n, _)| n.starts_with("mempool.dropped."))
                    .map(|&(_, v)| v)
                    .sum();
                dropped as f64 + counter(p, "mempool.evicted")
            }),
            "count",
        ),
        metric(
            "mempool.take_batch.calls",
            over(l, |p, _| counter(p, "mempool.take_batch.calls")),
            "count",
        ),
        metric(
            "mempool.take_batch.skipped",
            over(l, |p, _| counter(p, "mempool.take_batch.skipped")),
            "count",
        ),
        metric(
            "mempool.depth_peak",
            over(l, |p, _| gauge(p, "mempool.depth_peak")),
            "count",
        ),
        metric(
            "vm.prepared.calls",
            over(l, |p, _| counter(p, "vm.prepared.calls")),
            "count",
        ),
        metric(
            "vm.metered.calls",
            over(l, |p, _| counter(p, "vm.metered.calls")),
            "count",
        ),
        metric(
            "exec.profiled.hit_ratio",
            over(l, |p, _| {
                let hits = counter(p, "exec.profiled.cache_hits");
                ratio(hits, hits + counter(p, "exec.profiled.refreshes"))
            }),
            "ratio",
        ),
        metric(
            "store.blocks",
            over(l, |p, _| counter(p, "store.blocks")),
            "count",
        ),
        metric(
            "store.txs",
            over(l, |p, _| counter(p, "store.txs")),
            "count",
        ),
        metric(
            "store.resident_bytes",
            over(l, |p, _| gauge(p, "store.resident_bytes")),
            "bytes",
        ),
        metric(
            "telemetry.snapshot_ms",
            over(l, |p, _| ms(p.stages.snapshot)),
            "ms",
        ),
        metric(
            "trace.export_ms",
            over(l, |p, _| ms(p.stages.trace_export)),
            "ms",
        ),
        metric("trace.bytes", over(l, |p, _| p.trace_bytes as f64), "bytes"),
        metric("trace.txs", over(l, |p, _| p.trace_txs as f64), "count"),
        metric(
            "report.render_ms",
            over(l, |p, _| ms(p.stages.render)),
            "ms",
        ),
        metric(
            "report.bytes",
            over(l, |p, _| p.report_bytes as f64),
            "bytes",
        ),
        metric("report.write_ms", over(l, |p, _| ms(p.stages.write)), "ms"),
        metric(
            "layers.coverage",
            over(l, |p, _| ratio(secs(p.stages.sum()), secs(p.wall))),
            "ratio",
        ),
        metric(
            "layers.vs_untraced",
            ratio(over(l, |p, _| secs(p.wall)), wall_s_p50(m)),
            "ratio",
        ),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        // The 50th of 60 has ten beyond it: p83.3.
        let (value, pct, beyond) = tail(&v);
        assert_eq!((value, beyond), (50.0, 10));
        assert!((pct - 83.333).abs() < 0.01);
        assert_eq!(tail(&[2.0, 1.0]), (1.0, 50.0, 1));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("a", 1.5, "s"), metric("b", 2.0, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }
}
