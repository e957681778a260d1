//! `QuorumModel::new` records the deployment's link profile,
//! `net.link.delay_us`, once per region pair with the pair's node-pair
//! count as multiplicity. The histogram must equal recording every
//! ordered pair of distinct nodes one by one.
//!
//! The test resets the global telemetry registry, so it is the only one
//! in this binary.

use diablo_net::{
    DeploymentConfig, DeploymentKind, InstanceType, MachineSpec, NetworkModel, NodeSite,
    QuorumModel, Region,
};
use diablo_sim::stats::LogHistogram;
use diablo_telemetry::HistogramSnapshot;

/// The link histogram of `config`, recorded one node pair at a time.
fn per_node_pair(config: &DeploymentConfig, net: &NetworkModel) -> HistogramSnapshot {
    let sites = config.sites();
    let mut h = LogHistogram::default();
    for (i, a) in sites.iter().enumerate() {
        for (j, b) in sites.iter().enumerate() {
            if i != j {
                let d = net.mean_delay(a.region, b.region, 256).as_secs_f64();
                h.record((d * 1e6) as u64);
            }
        }
    }
    HistogramSnapshot::from_histogram(&h)
}

#[test]
fn link_histogram_matches_per_node_pair_recording() {
    let machine = MachineSpec::new(InstanceType::C5Xlarge);
    let uneven: Vec<NodeSite> = [(Region::Ohio, 4), (Region::Tokyo, 1), (Region::Milan, 7)]
        .into_iter()
        .flat_map(|(region, count)| std::iter::repeat_n(NodeSite { region, machine }, count))
        .collect();
    let configs = [
        DeploymentConfig::standard(DeploymentKind::Consortium),
        DeploymentConfig::standard(DeploymentKind::Testnet),
        DeploymentConfig::from_sites(DeploymentKind::Devnet, uneven),
    ];
    for net in [NetworkModel::deterministic(), NetworkModel::default()] {
        for config in &configs {
            diablo_telemetry::reset();
            QuorumModel::new(config, &net);
            let snap = diablo_telemetry::snapshot();
            if diablo_telemetry::enabled() {
                let got = snap.histogram("net.link.delay_us").expect("link histogram");
                assert_eq!(
                    got,
                    &per_node_pair(config, &net),
                    "{} nodes",
                    config.node_count()
                );
            }
        }
    }
    // One node has no links: the histogram gets no entry at all.
    diablo_telemetry::reset();
    let single = DeploymentConfig::single_region(
        DeploymentKind::Testnet,
        1,
        Region::Ohio,
        InstanceType::C5Xlarge,
    );
    QuorumModel::new(&single, &NetworkModel::default());
    assert!(diablo_telemetry::snapshot()
        .histogram("net.link.delay_us")
        .is_none());
}
