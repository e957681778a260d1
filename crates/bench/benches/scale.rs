//! Macrobenchmark: the million-account scale shape.
//!
//! Runs the Exchange DApp on RedBelly (unbounded mempool, no
//! superlinear pool scan — the chain that keeps a million-transaction
//! backlog alive instead of dropping it) across three geo-spread node
//! counts. Each node count has an end-to-end arm (`e2e_heap`) and a
//! kernel arm (`kernel_heap`) that drains the event queue alone; the
//! `_heap` suffix names the queue so the arms keep matching their
//! checked-in baseline entries.
//!
//! Two shapes:
//!
//! - **smoke** (default): 10,000 accounts, 100,000 transactions — CI's
//!   regression gate runs this against the checked-in
//!   `BENCH_baseline.json` (see `scripts/ci.sh`).
//! - **full** (`DIABLO_BENCH_FULL=1`): 1,000,000 accounts, 1,000,000
//!   transactions — the paper-scale push; every account signs about one
//!   transaction, so per-sender tracking, arena slots and queue events
//!   all reach seven figures.
//!
//! Names encode the shape (`scale/exchange_10k/...` vs
//! `scale/exchange_1m/...`) and every result carries `items` = planned
//! transactions, so a smoke run is never compared against a full
//! baseline.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Chain, ChainParams, Experiment};
use diablo_contracts::DApp;
use diablo_net::{DeploymentConfig, DeploymentKind, InstanceType};
use diablo_sim::{EventQueue, SimTime};
use diablo_workloads::traces;

#[derive(Clone, Copy)]
struct Shape {
    label: &'static str,
    accounts: u32,
    tps: f64,
    secs: u64,
}

const SMOKE: Shape = Shape {
    label: "exchange_10k",
    accounts: 10_000,
    tps: 5_000.0,
    secs: 20,
};

const FULL: Shape = Shape {
    label: "exchange_1m",
    accounts: 1_000_000,
    tps: 20_000.0,
    secs: 50,
};

const NODE_COUNTS: [usize; 3] = [10, 50, 200];

/// One event per planned transaction (the shape's constant-rate arrival
/// times) plus a self-rescheduling block event per superblock period,
/// drained through the `EventQueue`. The e2e arms measure the whole
/// chain — mempool, arena, execution — where the queue holds only tick
/// and block events; this arm is the kernel alone, with the full
/// transaction count pending at once.
fn kernel_drain(shape: &Shape, block_period_us: u64) -> u64 {
    let n = (shape.tps as u64) * shape.secs;
    let gap_us = 1_000_000.0 / shape.tps;
    let end_us = shape.secs * 1_000_000;
    // false = transaction arrival, true = block production.
    let mut q: EventQueue<bool> = EventQueue::with_capacity(n as usize + 1);
    for i in 0..n {
        q.schedule(SimTime::from_micros((i as f64 * gap_us) as u64), false);
    }
    q.schedule(SimTime::ZERO, true);
    let mut popped = 0u64;
    while let Some((t, is_block)) = q.pop() {
        popped += 1;
        if is_block && t.as_micros() < end_us {
            q.schedule(t + diablo_sim::SimDuration::from_micros(block_period_us), true);
        }
    }
    popped
}

fn main() {
    let full = std::env::var("DIABLO_BENCH_FULL").map(|v| v == "1").unwrap_or(false);
    let shape = if full { FULL } else { SMOKE };
    let items = (shape.tps as u64) * shape.secs;

    let mut b = Bench::suite("scale");
    b.samples(if full { 3 } else { 5 });

    for nodes in NODE_COUNTS {
        let config =
            DeploymentConfig::spread(DeploymentKind::Consortium, nodes, InstanceType::C52xlarge);
        let mut params = ChainParams::standard(Chain::RedBelly, &config);
        params.accounts = shape.accounts;
        let block_period_us = match params.consensus {
            diablo_chains::ConsensusKind::LeaderlessDbft { min_period, .. } => {
                min_period.as_micros()
            }
            _ => 1_000_000,
        };
        let name = format!("scale/{}/{}n/e2e_heap", shape.label, nodes);
        b.bench_items(&name, items, move || {
            black_box(
                Experiment::new(
                    Chain::RedBelly,
                    DeploymentKind::Consortium,
                    traces::constant(shape.tps, shape.secs),
                )
                .with_config(config.clone())
                .with_params(params.clone())
                .with_dapp(DApp::Exchange)
                .run()
                .committed(),
            )
        });

        let name = format!("scale/{}/{}n/kernel_heap", shape.label, nodes);
        b.bench_items(&name, items, move || {
            black_box(kernel_drain(&shape, block_period_us))
        });
    }

    b.finish();
}
