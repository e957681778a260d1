//! Benchmark: committed-block execution — serial vs static-parallel.
//!
//! Measures [`ExecutionEngine::execute_block`] over whole committed
//! blocks serially and on the static parallel scheduler at 2, 4 and 8
//! worker threads. Four block shapes bracket the scheduler (the
//! execution model, including when it wins, is specified in
//! `docs/EXECUTION.md`):
//!
//! - a 10k-transaction Exchange block: the workload rotates five stocks,
//!   so static read/write-set analysis decomposes the block into five
//!   independent components — the static scheduler's best case;
//! - a Gaming block spread over 64 players: every `update` has a
//!   *dynamic* footprint, so the static executor is forced into its
//!   ordered serial fallback — this bounds the cost of planning a block
//!   it then cannot parallelize;
//! - a hot Gaming block (every transaction updates player 1): a single
//!   fully-dependent chain no scheduler can speed up;
//! - a Mobility block on the MoveVM: read-only probes that all trip the
//!   flavor's hard compute budget — compute-heavy, conflict-free
//!   transactions the scheduler spreads across workers.
//!
//! Every timed sample re-runs the block from a freshly deployed contract
//! and asserts the costs are bit-identical to a serial reference run, so
//! the ci.sh smoke pass doubles as a wiring check for the executor.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::tx::CallSel;
use diablo_chains::{Concurrency, ExecMode, ExecutionEngine, Payload};
use diablo_contracts::DApp;
use diablo_vm::VmFlavor;

/// A freshly deployed Exact-mode engine for `dapp` on `flavor`.
fn engine(flavor: VmFlavor, dapp: DApp, concurrency: Concurrency) -> ExecutionEngine {
    ExecutionEngine::with_dapp(flavor, ExecMode::Exact, dapp)
        .expect("dapp builds on flavor")
        .with_concurrency(concurrency)
}

/// The serial / static-parallel arms every block shape runs.
const CONFIGS: [(&str, Concurrency); 4] = [
    ("serial", Concurrency::Serial),
    ("parallel2", Concurrency::Parallel(2)),
    ("parallel4", Concurrency::Parallel(4)),
    ("parallel8", Concurrency::Parallel(8)),
];

/// Benchmarks one block shape under every concurrency arm, checking
/// each run against the serial reference.
fn bench_block(b: &mut Bench, label: &str, flavor: VmFlavor, dapp: DApp, payloads: &[Payload]) {
    // Reference costs of a first committed block; every sample starts
    // from a fresh deployment, so all configurations must reproduce
    // these bit-for-bit.
    let expected = engine(flavor, dapp, Concurrency::Serial).execute_block(payloads);

    for (name, concurrency) in CONFIGS {
        b.bench_batched(
            &format!("block/{label}/{name}"),
            || engine(flavor, dapp, concurrency),
            |mut e| {
                let costs = e.execute_block(payloads);
                assert_eq!(costs, expected, "block execution diverged from serial");
                black_box(costs.len())
            },
        );
    }
}

/// `update(player, 1)` gaming invokes with the given player stream.
fn gaming_updates(n_txs: u64, player: impl Fn(u64) -> i32) -> Vec<Payload> {
    (0..n_txs)
        .map(|seq| Payload::Invoke {
            dapp: DApp::Gaming,
            seq,
            call: Some(CallSel {
                entry: 0, // "update"
                args: [player(seq), 1],
                argc: 2,
            }),
        })
        .collect()
}

fn main() {
    let mut b = Bench::suite("block_execution");
    b.samples(15);

    // Conflict-light, static footprints: five independent components.
    let exchange: Vec<Payload> = (0..10_000)
        .map(|seq| Payload::Invoke {
            dapp: DApp::Exchange,
            seq,
            call: None,
        })
        .collect();
    bench_block(&mut b, "exchange_10000tx", VmFlavor::Geth, DApp::Exchange, &exchange);

    // Dynamic footprints, conflict-light: the static planner bails out
    // to its ordered serial fallback.
    let spread = gaming_updates(2_000, |seq| 1 + (seq % 64) as i32);
    bench_block(&mut b, "gaming_spread_2000tx", VmFlavor::Geth, DApp::Gaming, &spread);

    // Dynamic footprints, fully dependent: one hot player.
    let hot = gaming_updates(2_000, |_| 1);
    bench_block(&mut b, "gaming_hot_2000tx", VmFlavor::Geth, DApp::Gaming, &hot);

    // Read-only probes against a hard compute budget: heavy
    // per-transaction compute and no write conflicts.
    let mobility: Vec<Payload> = (0..512)
        .map(|seq| Payload::Invoke {
            dapp: DApp::Mobility,
            seq,
            call: None,
        })
        .collect();
    bench_block(&mut b, "mobility_movevm_512tx", VmFlavor::MoveVm, DApp::Mobility, &mobility);

    b.finish();
}
