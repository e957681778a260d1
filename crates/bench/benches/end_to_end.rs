//! Macrobenchmark: full simulated experiments.
//!
//! Measures wall-clock cost of complete chain runs — the unit every
//! figure binary is made of. A 120-second, 1,000 TPS experiment should
//! simulate in tens of milliseconds. The `report/*` arms time the
//! reporting layer on its own: rendering the results JSON (and its
//! `stats` block) of results shaped like the benchmark's ibft-200 and
//! dota-flood runs.

use diablo_testkit::bench::{black_box, Bench};

use diablo_chains::{Chain, Experiment, RunResult, TxRecord, TxStatus};
use diablo_contracts::DApp;
use diablo_net::DeploymentKind;
use diablo_sim::{DetRng, SimDuration, SimTime};
use diablo_workloads::traces;

/// A result of `rows` transactions submitted evenly over 120 s, each
/// committed with probability `commit_share` after 0.5–`max_latency_s`
/// seconds and otherwise left pending.
fn shaped_result(rows: u64, commit_share: f64, max_latency_s: u64) -> RunResult {
    let mut rng = DetRng::new(0x5e9047);
    let records = (0..rows)
        .map(|i| {
            let submitted = SimTime(i * 120_000_000 / rows);
            if rng.chance(commit_share) {
                let latency = rng.range_inclusive(500_000, max_latency_s * 1_000_000);
                TxRecord {
                    submitted,
                    decided: Some(submitted + SimDuration(latency)),
                    status: TxStatus::Committed,
                }
            } else {
                TxRecord::submitted_at(submitted)
            }
        })
        .collect();
    RunResult {
        chain: Chain::Quorum,
        workload: "shaped".into(),
        workload_secs: 120.0,
        records,
        unable_reason: None,
        blocks: Vec::new(),
        storage: None,
        trace: None,
    }
}

fn main() {
    let mut b = Bench::suite("end_to_end");
    b.samples(10);

    for chain in Chain::ALL {
        b.bench(&format!("e2e/native_1k_tps_120s/{}", chain.name()), || {
            black_box(
                Experiment::new(
                    chain,
                    DeploymentKind::Testnet,
                    traces::constant(1_000.0, 120),
                )
                .run()
                .committed(),
            )
        });
    }

    b.bench("e2e/consortium_dapp/quorum_exchange_gafam", || {
        black_box(
            Experiment::new(Chain::Quorum, DeploymentKind::Consortium, traces::gafam())
                .with_dapp(DApp::Exchange)
                .run()
                .committed(),
        )
    });
    b.bench("e2e/consortium_dapp/solana_fifa", || {
        black_box(
            Experiment::new(Chain::Solana, DeploymentKind::Consortium, traces::fifa())
                .with_dapp(DApp::WebService)
                .run()
                .committed(),
        )
    });

    const SPEC: &str = r#"
workloads:
  - number: 4
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 500 } }
          load:
            0: 250
            30: 0
"#;
    b.bench("e2e/framework/run_local_quorum_30k_txs", || {
        black_box(
            diablo_core::run_local(
                Chain::Quorum,
                DeploymentKind::Testnet,
                SPEC,
                "bench",
                &diablo_core::BenchmarkOptions::default(),
            )
            .expect("runs")
            .result
            .committed(),
        )
    });

    // ibft-200: 120k transfers, all committed within a few seconds.
    // dota-flood: 1.6M calls of which ~1.3 % commit, the rest pending.
    let shapes = [
        ("ibft_200_120k_rows", shaped_result(120_000, 1.0, 8)),
        (
            "dota_flood_1600k_rows",
            shaped_result(1_600_000, 0.013, 185),
        ),
    ];
    for (shape, result) in &shapes {
        b.bench(&format!("report/render_json/{shape}"), || {
            black_box(diablo_core::output::results_json(result).len())
        });
        b.bench(&format!("report/render_stats/{shape}"), || {
            black_box(result.stats())
        });
    }

    b.finish();
}
