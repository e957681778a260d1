//! Reconciliation between the per-transaction tracer and the aggregate
//! telemetry: the waterfall a fully-sampled trace draws must add up to
//! the same sim-time the phase histograms report, and the Chrome export
//! must be byte-identical across execution modes.
//!
//! Kept to a single `#[test]`: the recorder state is process-global and
//! scoped per run, so concurrent tests in one binary would bleed into
//! each other's snapshots.

use std::collections::BTreeMap;

use diablo::chains::{
    Chain, Concurrency, ExecMode, Experiment, PruneMode, StorageConfig, TxStatus,
};
use diablo::contracts::DApp;
use diablo::net::DeploymentKind;
use diablo::telemetry::trace::{TraceSample, TraceSet, TraceStage};
use diablo::workloads::traces;

fn traced_run(
    concurrency: Concurrency,
    sample: TraceSample,
) -> (diablo::chains::RunResult, diablo::telemetry::TelemetrySnapshot) {
    diablo::telemetry::reset();
    let result = Experiment::new(
        Chain::Quorum,
        DeploymentKind::Testnet,
        traces::constant(50.0, 6),
    )
    .with_dapp(DApp::Exchange)
    .with_exec_mode(ExecMode::Exact)
    .with_concurrency(concurrency)
    .with_storage(StorageConfig {
        prune: PruneMode::Full,
        segment_blocks: 4,
        hot_pages: 2,
    })
    .with_grace(20)
    .with_trace(sample)
    .run();
    (result, diablo::telemetry::snapshot())
}

#[test]
fn trace_waterfalls_reconcile_with_phase_histograms() {
    let (result, telemetry) = traced_run(Concurrency::Serial, TraceSample::All);
    // Compiled-out telemetry (`--cfg diablo_telemetry_off`) records no
    // traces; there is nothing to reconcile.
    let Some(trace) = result.trace.clone() else {
        return;
    };
    assert!(result.committed() > 0, "{}", result.summary());

    // Full sampling traces every submitted transaction.
    assert_eq!(trace.txs.len(), result.records.len());

    // Per transaction, the waterfall telescopes — each stage starts
    // where the previous one ended — and for committed transactions the
    // stages span exactly `submitted → decided`, the same interval the
    // record-level latency statistics are computed from.
    let mut network_mempool_us = 0u64;
    let mut consensus_of_block: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, rec) in result.records.iter().enumerate() {
        let tx = trace.tx(i as u64).expect("fully sampled");
        let stages = TraceSet::waterfall(tx);
        for pair in stages.windows(2) {
            let (_, start, dur) = pair[0];
            let (next, next_start, _) = pair[1];
            assert_eq!(start + dur, next_start, "tx {i}: gap before {next}");
        }
        for (name, _, dur) in &stages {
            if matches!(*name, "network" | "mempool") {
                network_mempool_us += dur;
            }
        }
        if let Some((_, _, dur)) = stages.iter().find(|(n, _, _)| *n == "consensus") {
            let block = tx.event(TraceStage::Ordered).expect("ordered").arg1;
            let prior = consensus_of_block.insert(block, *dur);
            assert!(
                prior.is_none() || prior == Some(*dur),
                "tx {i}: block {block} has two consensus durations"
            );
        }
        if rec.status == TxStatus::Committed {
            let total: u64 = stages.iter().map(|(_, _, d)| d).sum();
            let latency = rec.decided.expect("committed").since(rec.submitted);
            assert_eq!(total, latency.as_micros(), "tx {i}: waterfall != latency");
        }
    }

    // The tracer's network+mempool time is recorded per transaction at
    // the same instant `mempool.queue_wait_us` is: the sums must agree
    // exactly, not approximately.
    let queue_wait = telemetry
        .histogram("mempool.queue_wait_us")
        .expect("queue wait histogram");
    assert_eq!(
        network_mempool_us, queue_wait.sum,
        "traced submit→select time drifted from mempool.queue_wait_us"
    );

    // Per-block reconciliation with the commit record: the tracer sees
    // exactly the non-empty blocks (consensus rounds that committed no
    // transactions never touch a trail), each with one consensus
    // duration, and the execution stage of every tx in a block ends at
    // that block's recorded commit instant.
    let committed_at: BTreeMap<u64, u64> = result
        .blocks
        .iter()
        .map(|b| (b.height, b.committed.as_micros()))
        .collect();
    assert_eq!(
        consensus_of_block.len(),
        result.blocks.iter().filter(|b| b.txs > 0).count(),
        "traced blocks != non-empty committed blocks"
    );
    for tx in &trace.txs {
        if let Some(e) = tx.event(TraceStage::Executed) {
            let block = tx.event(TraceStage::Ordered).expect("ordered").arg1;
            assert_eq!(Some(&e.at_us), committed_at.get(&block), "tx {}", tx.id);
        }
    }

    // `consensus.commit_latency_us` — the histogram the `--stat` phase
    // table lists under `consensus` — records one entry per block,
    // empty rounds included. This is the double-labeling guard:
    // execution time lives in the execution stage only, so the
    // commit-latency total must not absorb it; the traced consensus
    // time can fall short of it only by the empty rounds' share.
    let commit_latency = telemetry
        .histogram("consensus.commit_latency_us")
        .expect("commit latency histogram");
    assert_eq!(commit_latency.count, result.blocks.len() as u64);
    assert!(
        consensus_of_block.values().sum::<u64>() <= commit_latency.sum,
        "traced consensus time exceeds consensus.commit_latency_us"
    );

    // The Chrome export carries only modeled-time facts, so its bytes
    // are identical no matter which executor committed the blocks.
    let serial_json = trace.to_chrome_json();
    for concurrency in [Concurrency::Parallel(2), Concurrency::Parallel(8)] {
        let (other, _) = traced_run(concurrency, TraceSample::All);
        let other_json = other.trace.expect("traced").to_chrome_json();
        assert_eq!(serial_json, other_json, "{concurrency:?} export differs");
    }

    // Sampling is a deterministic membership function: a bounded run
    // traces a subset of the full run's transactions, with identical
    // trails for every member.
    let (sampled, _) = traced_run(Concurrency::Serial, TraceSample::Limit(8));
    let sampled = sampled.trace.expect("traced");
    assert_eq!(sampled.txs.len(), 8);
    for tx in &sampled.txs {
        assert_eq!(Some(tx), trace.tx(tx.id), "tx {} trail differs", tx.id);
    }
}
