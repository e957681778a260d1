//! Differential test of `QuorumModel` against the per-node formulation.
//!
//! `QuorumModel` takes every order statistic over node classes (the
//! leader, and per region the region's other nodes) with multiplicities.
//! The oracle below is the per-node model it replaced: an `n × n` delay
//! matrix and an allocate-and-sort `k`-th smallest, O(n² log n) per IBFT
//! commit. Every public phase function must agree with it bit for bit —
//! `SimDuration` equality for phases, `f64::to_bits` for delays — on
//! both network models, on the standard deployments, on round-robin
//! spreads of 1..=200 nodes, on single-region deployments and on random
//! uneven site mixes, including regions that hold only the leader.
//!
//! Large deployments are checked from a few sampled leaders, which keeps
//! the suite to seconds in a debug build.

use diablo_net::{
    DeploymentConfig, DeploymentKind, InstanceType, MachineSpec, NetworkModel, NodeSite,
    QuorumModel, Region,
};
use diablo_sim::{DetRng, SimDuration};
use diablo_testkit::gen::{usizes, vecs};
use diablo_testkit::Property;

/// The per-node O(n² log n) quorum model.
mod oracle {
    use diablo_net::{DeploymentConfig, NetworkModel, Region};
    use diablo_sim::SimDuration;

    const VOTE_BYTES: u64 = 256;

    pub struct Oracle {
        n: usize,
        quorum: usize,
        delay: Vec<Vec<f64>>,
    }

    impl Oracle {
        pub fn new(config: &DeploymentConfig, net: &NetworkModel) -> Self {
            let sites = config.sites();
            let n = sites.len();
            // `mean_delay` is a pure function of the region pair; calling
            // it once per pair keeps the n² fill cheap in debug builds.
            let mut by_region = [[0.0; Region::COUNT]; Region::COUNT];
            for a in Region::ALL {
                for b in Region::ALL {
                    by_region[a.index()][b.index()] =
                        net.mean_delay(a, b, VOTE_BYTES).as_secs_f64();
                }
            }
            let mut delay = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        delay[i][j] = by_region[sites[i].region.index()][sites[j].region.index()];
                    }
                }
            }
            Oracle {
                n,
                quorum: config.quorum(),
                delay,
            }
        }

        pub fn delay_secs(&self, i: usize, j: usize) -> f64 {
            self.delay[i][j]
        }

        fn payload_extra(bytes: u64) -> f64 {
            (bytes.saturating_sub(VOTE_BYTES)) as f64 * 8.0 / 100e6
        }

        fn kth_smallest(mut values: Vec<f64>, k: usize) -> f64 {
            assert!(!values.is_empty(), "kth_smallest needs values");
            let k = k.clamp(1, values.len());
            values.sort_by(|a, b| a.partial_cmp(b).expect("delays are not NaN"));
            values[k - 1]
        }

        fn arrivals(&self, leader: usize, bytes: u64) -> Vec<f64> {
            (0..self.n)
                .map(|i| {
                    if i == leader {
                        0.0
                    } else {
                        self.delay[leader][i] + Self::payload_extra(bytes)
                    }
                })
                .collect()
        }

        pub fn broadcast_all(&self, leader: usize, bytes: u64) -> SimDuration {
            let worst = self.arrivals(leader, bytes).into_iter().fold(0.0, f64::max);
            SimDuration::from_secs_f64(worst)
        }

        pub fn broadcast_quorum(&self, leader: usize, bytes: u64) -> SimDuration {
            let arrivals = self.arrivals(leader, bytes);
            SimDuration::from_secs_f64(Self::kth_smallest(arrivals, self.quorum))
        }

        pub fn linear_phase(&self, leader: usize, bytes: u64) -> SimDuration {
            let round_trips: Vec<f64> = (0..self.n)
                .map(|i| {
                    if i == leader {
                        0.0
                    } else {
                        self.delay[leader][i] + Self::payload_extra(bytes) + self.delay[i][leader]
                    }
                })
                .collect();
            SimDuration::from_secs_f64(Self::kth_smallest(round_trips, self.quorum))
        }

        pub fn hotstuff_commit(&self, leader: usize, bytes: u64) -> SimDuration {
            self.linear_phase(leader, bytes)
                + self.linear_phase(leader, VOTE_BYTES)
                + self.linear_phase(leader, VOTE_BYTES)
        }

        pub fn ibft_commit(&self, leader: usize, bytes: u64) -> SimDuration {
            let arrive = self.arrivals(leader, bytes);
            let prepared = self.all_to_all_round(&arrive);
            // Only the leader's commit time is read, so the commit round
            // is evaluated at the leader alone.
            SimDuration::from_secs_f64(self.quorum_at(&prepared, leader))
        }

        fn all_to_all_round(&self, start: &[f64]) -> Vec<f64> {
            (0..self.n).map(|i| self.quorum_at(start, i)).collect()
        }

        /// When node `i` holds a quorum of the messages every node `j`
        /// sends at `start[j]`.
        fn quorum_at(&self, start: &[f64], i: usize) -> f64 {
            let arrivals: Vec<f64> = (0..self.n).map(|j| start[j] + self.delay[j][i]).collect();
            Self::kth_smallest(arrivals, self.quorum)
        }

        pub fn gossip_all(&self, origin: usize, fanout: usize, bytes: u64) -> SimDuration {
            if self.n <= 1 {
                return SimDuration::ZERO;
            }
            let fanout = fanout.max(2) as f64;
            let hops = (self.n as f64).ln() / fanout.ln();
            let hops = hops.ceil().max(1.0);
            let mut delays: Vec<f64> = (0..self.n)
                .filter(|&i| i != origin)
                .map(|i| self.delay[origin][i])
                .collect();
            delays.sort_by(|a, b| a.partial_cmp(b).expect("delays are not NaN"));
            let p75 = delays[(delays.len() * 3) / 4];
            let per_hop = p75 + Self::payload_extra(bytes);
            SimDuration::from_secs_f64(hops * per_hop)
        }

        pub fn median_delay_from(&self, origin: usize) -> f64 {
            let mut delays: Vec<f64> = (0..self.n)
                .filter(|&i| i != origin)
                .map(|i| self.delay[origin][i])
                .collect();
            if delays.is_empty() {
                return 0.0;
            }
            delays.sort_by(|a, b| a.partial_cmp(b).expect("delays are not NaN"));
            delays[delays.len() / 2]
        }
    }
}

use oracle::Oracle;

const BYTES: [u64; 4] = [0, 256, 250_000, 3_000_000];
const FANOUTS: [usize; 4] = [1, 2, 8, 16];

fn nets() -> [NetworkModel; 2] {
    [NetworkModel::deterministic(), NetworkModel::default()]
}

/// Bit equality of a result: `SimDuration` equality for phases,
/// `f64::to_bits` for delays.
trait SameBits {
    fn same_bits(&self, other: &Self) -> bool;
}

impl SameBits for SimDuration {
    fn same_bits(&self, other: &Self) -> bool {
        self == other
    }
}

impl SameBits for f64 {
    fn same_bits(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

/// Calls one function with the same arguments on the model and the
/// oracle; returns `Err` naming the call when the results differ.
macro_rules! compare {
    ($model:expr, $oracle:expr, $f:ident($($arg:expr),*)) => {{
        let (got, want) = ($model.$f($($arg),*), $oracle.$f($($arg),*));
        if !got.same_bits(&want) {
            let args: Vec<String> = vec![$($arg.to_string()),*];
            return Err(format!(
                "{}({}): model {got:?}, oracle {want:?}",
                stringify!($f),
                args.join(", ")
            ));
        }
    }};
}

/// Checks every public function of `model` but `ibft_commit` against
/// `oracle` from each of `leaders`, at every payload of `bytes` and
/// every fanout.
fn agree(
    model: &QuorumModel,
    oracle: &Oracle,
    leaders: &[usize],
    bytes: &[u64],
) -> Result<(), String> {
    for &l in leaders {
        compare!(model, oracle, median_delay_from(l));
        for j in 0..model.node_count() {
            compare!(model, oracle, delay_secs(l, j));
            compare!(model, oracle, delay_secs(j, l));
        }
        for &b in bytes {
            compare!(model, oracle, broadcast_all(l, b));
            compare!(model, oracle, broadcast_quorum(l, b));
            compare!(model, oracle, linear_phase(l, b));
            compare!(model, oracle, hotstuff_commit(l, b));
            for f in FANOUTS {
                compare!(model, oracle, gossip_all(l, f, b));
            }
        }
    }
    Ok(())
}

/// Checks `ibft_commit`, the one phase whose oracle costs O(n² log n).
fn agree_ibft(
    model: &QuorumModel,
    oracle: &Oracle,
    leaders: &[usize],
    bytes: &[u64],
) -> Result<(), String> {
    for &l in leaders {
        for &b in bytes {
            compare!(model, oracle, ibft_commit(l, b));
        }
    }
    Ok(())
}

/// Every leader of a small deployment; for a larger one the first, the
/// last and two drawn from a generator seeded by the node count.
fn leaders(n: usize) -> Vec<usize> {
    if n <= 16 {
        return (0..n).collect();
    }
    let mut rng = DetRng::new(n as u64);
    vec![
        0,
        n - 1,
        rng.next_below(n as u64) as usize,
        rng.next_below(n as u64) as usize,
    ]
}

/// Checks `config` under both network models, panicking on a mismatch.
fn check(label: &str, config: &DeploymentConfig, leaders: &[usize], bytes: &[u64]) {
    for net in nets() {
        let model = QuorumModel::new(config, &net);
        let oracle = Oracle::new(config, &net);
        assert_eq!(model.node_count(), config.node_count(), "{label}");
        assert_eq!(model.quorum(), config.quorum(), "{label}");
        if let Err(e) = agree(&model, &oracle, leaders, bytes)
            .and_then(|()| agree_ibft(&model, &oracle, leaders, bytes))
        {
            panic!("{label} (jitter {}): {e}", net.jitter);
        }
    }
}

fn sites(regions: &[Region]) -> Vec<NodeSite> {
    let machine = MachineSpec::new(InstanceType::C5Xlarge);
    regions
        .iter()
        .map(|&region| NodeSite { region, machine })
        .collect()
}

#[test]
fn standard_deployments_agree() {
    for kind in DeploymentKind::ALL {
        let config = DeploymentConfig::standard(kind);
        check(kind.name(), &config, &leaders(config.node_count()), &BYTES);
    }
}

#[test]
fn spreads_of_1_to_200_nodes_agree() {
    for n in 1..=200 {
        let config = DeploymentConfig::spread(DeploymentKind::Community, n, InstanceType::C5Xlarge);
        for (i, net) in nets().into_iter().enumerate() {
            let model = QuorumModel::new(&config, &net);
            let oracle = Oracle::new(&config, &net);
            // One payload per leader, and one IBFT commit per node count
            // on alternating network models, keep the oracle's sorts
            // affordable; over the sweep every payload meets every
            // phase at every size class.
            let leaders = leaders(n);
            let mut result = Ok(());
            for (j, &l) in leaders.iter().enumerate() {
                let b = [BYTES[(n + j) % BYTES.len()]];
                result = result.and_then(|()| agree(&model, &oracle, &[l], &b));
                if j == n % leaders.len() && n % 2 == i {
                    result = result.and_then(|()| agree_ibft(&model, &oracle, &[l], &b));
                }
            }
            if let Err(e) = result {
                panic!("spread({n}) (jitter {}): {e}", net.jitter);
            }
        }
    }
}

#[test]
fn single_region_deployments_agree() {
    for (i, region) in Region::ALL.into_iter().enumerate() {
        for n in [1, 2, 3, 4, 7, 10, 31, 100] {
            let config = DeploymentConfig::single_region(
                DeploymentKind::Datacenter,
                n,
                region,
                InstanceType::C59xlarge,
            );
            let bytes = [BYTES[(i + n) % BYTES.len()]];
            check(
                &format!("single_region({n}, {region})"),
                &config,
                &leaders(n),
                &bytes,
            );
        }
    }
}

/// Regions holding only the leader: the leader's class has no
/// class-mates, and its region appears in no other class.
#[test]
fn lone_leader_regions_agree() {
    use Region::*;
    let mixes: [&[Region]; 4] = [
        &[Tokyo],
        &[Tokyo, Ohio],
        &[Ohio, Ohio, Ohio, Ohio, Ohio, Tokyo, Ohio],
        &[
            Milan, SaoPaulo, SaoPaulo, CapeTown, SaoPaulo, Oregon, Oregon,
        ],
    ];
    for mix in mixes {
        let config = DeploymentConfig::from_sites(DeploymentKind::Devnet, sites(mix));
        let all: Vec<usize> = (0..mix.len()).collect();
        check(&format!("{mix:?}"), &config, &all, &BYTES);
    }
}

/// Random uneven mixes: up to six groups of 1..=25 nodes, each in a
/// random region (a region may recur, interleaving node ids), plus an
/// optional node alone in an otherwise unused region. The leader is
/// drawn from all nodes, or is the lone node when there is one.
#[test]
fn random_uneven_mixes_agree() {
    let groups = vecs((usizes(0..=9), usizes(1..=25)), 1..=6);
    let gen = (groups, usizes(0..=1), usizes(0..=999), usizes(0..=3));
    Property::new("random_uneven_mixes_agree").cases(48).check(
        &gen,
        |(groups, lone, leader, b)| {
            let mut regions: Vec<Region> = groups
                .iter()
                .flat_map(|&(r, count)| std::iter::repeat_n(Region::ALL[r], count))
                .collect();
            let mut leader = leader % regions.len();
            if *lone == 1 {
                if let Some(&free) = Region::ALL.iter().find(|r| !regions.contains(r)) {
                    leader = regions.len() / 2;
                    regions.insert(leader, free);
                }
            }
            let config = DeploymentConfig::from_sites(DeploymentKind::Community, sites(&regions));
            for net in nets() {
                let model = QuorumModel::new(&config, &net);
                let oracle = Oracle::new(&config, &net);
                agree(&model, &oracle, &[leader], &[BYTES[*b]])
                    .and_then(|()| agree_ibft(&model, &oracle, &[leader], &[BYTES[*b]]))
                    .map_err(|e| format!("jitter {}: {e}", net.jitter))?;
            }
            Ok(())
        },
    );
}
