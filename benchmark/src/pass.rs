//! The two kinds of pass.
//!
//! An *untraced* pass is exactly `diablo run --output=… [--trace-out=…]`:
//! the CLI's own flag parser builds the options, then the program's
//! entry point (`run_local`), `results_json_report` and the file writes.
//!
//! A *layer-timed* pass drives the same pipeline through each layer's
//! public functions — the steps of `run_with_setup`, in its order — and
//! times every call from here. Nothing inside the program is traced, so
//! it writes the same bytes as the untraced pass.

use std::hint::black_box;
use std::time::{Duration, Instant};

use diablo::chains::{Chain, ChainHarness, PlannedTx};
use diablo::cli::Invocation;
use diablo::core::output::results_json_report;
use diablo::core::secondary::{declare_resources, plan_range};
use diablo::core::{adapters, run_local, BenchmarkOptions, BenchmarkSpec, Report};
use diablo::net::{DeploymentConfig, DeploymentKind, NetworkModel, QuorumModel};
use diablo::telemetry::TelemetrySnapshot;

/// A `diablo run` command line, resolved the way the CLI resolves it.
struct Command {
    chain: Chain,
    deployment: DeploymentKind,
    options: BenchmarkOptions,
    spec_path: String,
    output: String,
    trace_out: Option<String>,
}

impl Command {
    fn parse(args: &[String]) -> Result<Command, String> {
        let inv = Invocation::parse(args)?;
        let chain = inv
            .get("chain")
            .and_then(Chain::parse)
            .ok_or("missing or unknown --chain")?;
        let deployment = inv
            .get("deployment")
            .and_then(DeploymentKind::parse)
            .ok_or("missing or unknown --deployment")?;
        let options = BenchmarkOptions {
            run: inv.overlay()?,
            ..BenchmarkOptions::default()
        };
        Ok(Command {
            chain,
            deployment,
            options,
            spec_path: inv
                .positional
                .get(1)
                .ok_or("missing workload file")?
                .clone(),
            output: inv.get("output").ok_or("missing --output")?.to_string(),
            trace_out: inv.get("trace-out").map(str::to_string),
        })
    }

    /// The workload name the run reports under: the spec's file stem.
    fn workload_name(&self) -> &str {
        let file = self.spec_path.rsplit('/').next().unwrap_or(&self.spec_path);
        file.trim_end_matches(".yaml")
    }
}

fn write(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

fn trace_json(report: &Report) -> Result<String, String> {
    report
        .result
        .trace
        .as_ref()
        .map(|set| set.to_chrome_json())
        .ok_or_else(|| "--trace-out given but the run recorded no trace".to_string())
}

/// One untraced pass: `diablo run` with `args` (without the program
/// name).
pub fn run_pass(args: &[String]) -> Result<(), String> {
    let cmd = Command::parse(args)?;
    let spec =
        std::fs::read_to_string(&cmd.spec_path).map_err(|e| format!("{}: {e}", cmd.spec_path))?;
    let report = run_local(
        cmd.chain,
        cmd.deployment,
        &spec,
        cmd.workload_name(),
        &cmd.options,
    )?;
    write(&cmd.output, results_json_report(&report).as_bytes())?;
    if let Some(path) = &cmd.trace_out {
        write(path, trace_json(&report)?.as_bytes())?;
    }
    Ok(())
}

/// Wall time of each timed step of a layer-timed pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `core::spec`: read and parse the spec file.
    pub spec_parse: Duration,
    /// `core::secondary` + `core::adapters` + `workloads`: declare the
    /// resources, presign every transaction across the Secondaries,
    /// resolve the run configuration and merge the plans.
    pub plan: Duration,
    /// `chains::harness`: `ChainHarness::with_config` (DApp deployment).
    pub harness_build: Duration,
    /// `chains::sim`: `ChainHarness::run`.
    pub simulate: Duration,
    /// `telemetry`: `diablo_telemetry::snapshot`.
    pub snapshot: Duration,
    /// `core::output`: `results_json_report`.
    pub render: Duration,
    /// `telemetry::trace`: `TraceSet::to_chrome_json`.
    pub trace_export: Duration,
    /// Every file write of the pass.
    pub write: Duration,
}

impl Stages {
    /// The set-up phase: everything before the simulation starts.
    pub fn setup(&self) -> Duration {
        self.spec_parse + self.plan + self.harness_build
    }

    /// Every timed step together.
    pub fn sum(&self) -> Duration {
        self.setup() + self.simulate + self.snapshot + self.render + self.trace_export + self.write
    }
}

/// What a layer-timed pass measured.
#[derive(Debug, Clone)]
pub struct LayerPass {
    /// Wall time of the whole pass, like an untraced pass's.
    pub wall: Duration,
    /// The timed steps.
    pub stages: Stages,
    /// Transactions in the merged plan.
    pub plan_txs: u64,
    /// Bytes of the results file.
    pub report_bytes: u64,
    /// Bytes of the trace export (0 when the run exports none).
    pub trace_bytes: u64,
    /// Traced transactions.
    pub trace_txs: u64,
    /// The run's telemetry snapshot.
    pub telemetry: TelemetrySnapshot,
    /// Payload bytes of each produced block, in height order.
    pub block_bytes: Vec<u32>,
    /// The deployment, for the consensus-model replay.
    pub deployment: DeploymentKind,
}

/// Splits `clients` into `parts` contiguous ranges — the partition
/// `run_with_setup` dispatches to its Secondaries.
fn partition_clients(clients: u32, parts: usize) -> Vec<(u32, u32)> {
    let parts = parts.max(1) as u32;
    let (base, extra) = (clients / parts, clients % parts);
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let len = base + u32::from(p < extra);
            start += len;
            (start - len, start)
        })
        .collect()
}

/// One layer-timed pass of the `diablo run` command line `args`.
pub fn run_layer_pass(args: &[String]) -> Result<LayerPass, String> {
    let start = Instant::now();
    let cmd = Command::parse(args)?;
    let mut stages = Stages::default();
    let timed = |slot: &mut Duration, t: Instant| *slot += t.elapsed();

    let t = Instant::now();
    let spec_text =
        std::fs::read_to_string(&cmd.spec_path).map_err(|e| format!("{}: {e}", cmd.spec_path))?;
    let spec = BenchmarkSpec::parse(&spec_text).map_err(|e| e.to_string())?;
    timed(&mut stages.spec_parse, t);

    let t = Instant::now();
    let (chain, options) = (cmd.chain, &cmd.options);
    let clients = spec.client_count();
    diablo::telemetry::reset();
    let mut scratch = adapters::connector(chain);
    declare_resources(&spec, &mut scratch).map_err(|e| e.to_string())?;
    let dapp = scratch.sole_dapp();
    if dapp.is_none() && scratch.contract_count() > 1 {
        return Err("the simulated backend deploys one DApp per benchmark".to_string());
    }
    let ranges = partition_clients(clients, options.secondaries);
    let plans: Vec<Result<Vec<PlannedTx>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&range| {
                let spec = &spec;
                scope.spawn(move || {
                    let mut conn = adapters::connector(chain);
                    declare_resources(spec, &mut conn).map_err(|e| e.to_string())?;
                    plan_range(spec, range, &mut conn).map_err(|e| e.to_string())?;
                    Ok(conn.take_plan())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("planner thread panicked"))
            .collect()
    });
    let plans: Vec<Vec<PlannedTx>> = plans.into_iter().collect::<Result<_, _>>()?;
    let run = options.resolve(&spec);
    if (0..ranges.len()).any(|si| run.faults.kill_of_secondary(si).is_some()) {
        return Err("the layer-timed pass does not model Secondary kills".to_string());
    }
    let faults = run.faults.clone();
    let mut merged: Vec<PlannedTx> = plans.into_iter().flatten().collect();
    merged.sort_by_key(|t| t.at);
    let plan_txs = merged.len() as u64;
    timed(&mut stages.plan, t);

    let t = Instant::now();
    let config = DeploymentConfig::standard(cmd.deployment);
    let harness = ChainHarness::with_config(chain, config, dapp, run)?;
    timed(&mut stages.harness_build, t);

    let t = Instant::now();
    let result = harness.run(merged, cmd.workload_name(), spec.duration_secs() as f64);
    timed(&mut stages.simulate, t);

    let t = Instant::now();
    let telemetry = diablo::telemetry::snapshot();
    timed(&mut stages.snapshot, t);
    let block_bytes = result.blocks.iter().map(|b| b.bytes).collect();
    let report = Report {
        result,
        secondaries: ranges.len(),
        clients,
        telemetry,
        faults,
        lost_secondaries: Vec::new(),
        live_diff: None,
    };

    let t = Instant::now();
    let json = results_json_report(&report);
    timed(&mut stages.render, t);
    let t = Instant::now();
    write(&cmd.output, json.as_bytes())?;
    timed(&mut stages.write, t);

    let (mut trace_bytes, mut trace_txs) = (0, 0);
    if let Some(path) = &cmd.trace_out {
        let t = Instant::now();
        let chrome = trace_json(&report)?;
        timed(&mut stages.trace_export, t);
        let t = Instant::now();
        write(path, chrome.as_bytes())?;
        timed(&mut stages.write, t);
        trace_bytes = chrome.len() as u64;
        trace_txs = report
            .result
            .trace
            .as_ref()
            .map_or(0, |s| s.txs.len() as u64);
    }
    let report_bytes = json.len() as u64;
    let Report {
        result, telemetry, ..
    } = report;
    // Freeing the run belongs to the pass, as it does in an untraced one.
    drop((result, json));
    Ok(LayerPass {
        wall: start.elapsed(),
        stages,
        plan_txs,
        report_bytes,
        trace_bytes,
        trace_txs,
        telemetry,
        block_bytes,
        deployment: cmd.deployment,
    })
}

/// The consensus latency model's cost, replayed from outside the
/// simulation: an estimate of its share of `ChainHarness::run` until the
/// program profiles itself.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// `QuorumModel::new` on the workload's deployment.
    pub new: Duration,
    /// All `ibft_commit` calls together.
    pub replay: Duration,
    /// `ibft_commit` calls made: one per committed block.
    pub calls: u64,
}

/// Replays the consensus model of `pass`: builds the `QuorumModel` the
/// harness builds (the workload's `DeploymentConfig` and
/// `NetworkModel::default()`), then calls `ibft_commit` once per
/// committed block, rotating the leader and sending the block's bytes.
/// `ibft_commit` is the right phase because every workload runs Quorum,
/// whose consensus is IBFT.
///
/// The model records telemetry as it is built, so this runs after the
/// pass has written its results.
pub fn replay_consensus(pass: &LayerPass) -> Replay {
    let committed = pass
        .telemetry
        .counter("consensus.blocks.committed")
        .unwrap_or(0);
    let config = DeploymentConfig::standard(pass.deployment);
    let net = NetworkModel::default();
    let t = Instant::now();
    let model = black_box(QuorumModel::new(&config, &net));
    let new = t.elapsed();
    let nodes = model.node_count();
    let t = Instant::now();
    for (i, &bytes) in pass.block_bytes.iter().take(committed as usize).enumerate() {
        black_box(model.ibft_commit(black_box(i % nodes), u64::from(bytes)));
    }
    Replay {
        new,
        replay: t.elapsed(),
        calls: committed.min(pass.block_bytes.len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_matches_the_primarys() {
        assert_eq!(partition_clients(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition_clients(3, 2), vec![(0, 2), (2, 3)]);
        assert_eq!(partition_clients(1, 2), vec![(0, 1), (1, 1)]);
    }
}
