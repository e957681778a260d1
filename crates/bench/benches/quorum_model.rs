//! Microbenchmark: the analytic quorum-latency model.
//!
//! IBFT commit latency over 200 geo-distributed nodes involves two
//! all-to-all order-statistic rounds; this is computed once per block,
//! so its cost bounds the block rate the simulator can sustain. The
//! model takes each order statistic over region classes, so a phase
//! costs O(regions²) at any node count; the custom-mix arm measures an
//! uneven 200-node placement next to the even spread.

use diablo_testkit::bench::{black_box, Bench};

use diablo_net::{
    DeploymentConfig, DeploymentKind, InstanceType, MachineSpec, NetworkModel, NodeSite,
    QuorumModel, Region,
};

fn model_for(kind: DeploymentKind) -> QuorumModel {
    let cfg = DeploymentConfig::standard(kind);
    QuorumModel::new(&cfg, &NetworkModel::deterministic())
}

/// 200 nodes over six regions, unevenly, with Cape Town holding one.
fn custom_mix() -> QuorumModel {
    let machine = MachineSpec::new(InstanceType::C52xlarge);
    let sites = [
        (Region::Ohio, 70),
        (Region::Tokyo, 50),
        (Region::Stockholm, 40),
        (Region::SaoPaulo, 25),
        (Region::Sydney, 14),
        (Region::CapeTown, 1),
    ]
    .into_iter()
    .flat_map(|(region, count)| std::iter::repeat_n(NodeSite { region, machine }, count))
    .collect();
    let cfg = DeploymentConfig::from_sites(DeploymentKind::Consortium, sites);
    QuorumModel::new(&cfg, &NetworkModel::deterministic())
}

fn main() {
    let mut b = Bench::suite("quorum_model");

    for kind in [DeploymentKind::Devnet, DeploymentKind::Consortium] {
        b.bench(&format!("quorum/construct/{}", kind.name()), || {
            black_box(model_for(kind))
        });
    }

    let devnet = model_for(DeploymentKind::Devnet);
    let consortium = model_for(DeploymentKind::Consortium);
    b.bench("quorum/phase/ibft_commit_10_nodes", || {
        black_box(devnet.ibft_commit(3, 250_000))
    });
    b.bench("quorum/phase/ibft_commit_200_nodes", || {
        black_box(consortium.ibft_commit(42, 250_000))
    });
    b.bench("quorum/phase/hotstuff_commit_200_nodes", || {
        black_box(consortium.hotstuff_commit(42, 250_000))
    });
    b.bench("quorum/phase/gossip_200_nodes", || {
        black_box(consortium.gossip_all(42, 8, 250_000))
    });
    b.bench("quorum/phase/broadcast_quorum_200_nodes", || {
        black_box(consortium.broadcast_quorum(42, 250_000))
    });
    b.bench("quorum/phase/median_delay_from_200_nodes", || {
        black_box(consortium.median_delay_from(42))
    });
    let custom = custom_mix();
    b.bench("quorum/phase/ibft_commit_200_nodes_custom_mix", || {
        black_box(custom.ibft_commit(42, 250_000))
    });

    b.finish();
}
