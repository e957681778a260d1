//! Analytic quorum-latency model for consensus protocols.
//!
//! Simulating every vote of a 200-node BFT protocol means O(n²) events
//! per block; the commit latency of a phase, however, is exactly an order
//! statistic over point-to-point delays. This module computes those order
//! statistics from the Table 3 delay matrix:
//!
//! - *leader-based linear* protocols (HotStuff): a phase is leader → all,
//!   then all → leader votes; the phase completes when the leader holds a
//!   quorum of votes, i.e. at the `q`-th smallest of
//!   `d(L, i) + d(i, L)`.
//! - *leader-based all-to-all* protocols (IBFT/PBFT): after the leader's
//!   pre-prepare, every node broadcasts; node `i` completes the phase at
//!   the `q`-th smallest of `arrive_j + d(j, i)` over senders `j`.
//! - *gossip* protocols (Algorand, Avalanche, Solana): diffusion over a
//!   fanout-`k` overlay reaches all nodes in ~`log_k n` hops of the
//!   median one-way delay.
//!
//! # Cost: O(R²) per phase, over node classes
//!
//! The delay between two distinct nodes depends only on their regions,
//! so the model keeps an `R × R` region matrix (`R` = [`Region::COUNT`])
//! and per-region node counts instead of an `n × n` node matrix. Seen
//! from a leader, the nodes fall into at most `R + 1` *classes*: the
//! leader itself and, per region, the region's other nodes. Every node
//! of a class has the same arrival time in every phase, so each order
//! statistic is a weighted `k`-th smallest over `(value, multiplicity)`
//! pairs: at most `R + 2` of them, held on the stack. An all-to-all
//! round evaluates one such statistic per class, so an IBFT commit costs
//! O(R²) whatever the node count, and building the model costs O(n + R²).
//!
//! The result is exact, not an approximation: every class value is the
//! same `f64` expression of the same operands as the per-node value it
//! stands for, and the `k`-th smallest of a multiset does not depend on
//! how its copies are grouped. A differential test holds the per-node
//! O(n² log n) formulation as an oracle and checks bit equality.
//!
//! All figures use jitter-mean delays; the chain simulations add the
//! stochastic component per block.

use diablo_sim::SimDuration;

use crate::config::DeploymentConfig;
use crate::model::NetworkModel;
use crate::region::Region;

/// Most classes a node can see: itself plus one per region.
const MAX_CLASSES: usize = Region::COUNT + 1;

/// Most `(value, multiplicity)` pairs of one order statistic: a
/// receiver's own class contributes two (itself, its class-mates) and
/// every other class one.
const MAX_PAIRS: usize = MAX_CLASSES + 1;

/// Precomputed mean one-way delays (seconds) for a deployment.
#[derive(Debug, Clone)]
pub struct QuorumModel {
    quorum: usize,
    /// `delay[a][b]` = mean one-way delay of a vote-sized message from
    /// a node in region `a` to a *different* node in region `b`.
    delay: [[f64; Region::COUNT]; Region::COUNT],
    /// Region index of each node, in node-id order.
    region: Vec<usize>,
    /// Number of nodes in each region.
    count: [usize; Region::COUNT],
}

/// Size of a consensus vote/ack message in bytes.
const VOTE_BYTES: u64 = 256;

/// Extra one-way delay for a payload of `bytes` relative to a
/// vote-sized message (serialization only).
fn payload_extra(bytes: u64) -> f64 {
    // Serialization time beyond the vote baseline, at a conservative
    // 100 Mbps WAN floor; propagation is already in `delay`.
    (bytes.saturating_sub(VOTE_BYTES)) as f64 * 8.0 / 100e6
}

/// The `k`-th smallest element (1-indexed) of the multiset holding
/// `mult` copies of each `(value, mult)` pair; `k` is clamped to the
/// multiset's size. Sorts `pairs` in place.
fn kth_smallest(pairs: &mut [(f64, usize)], k: usize) -> f64 {
    let size: usize = pairs.iter().map(|&(_, mult)| mult).sum();
    assert!(size > 0, "kth_smallest needs values");
    let k = k.clamp(1, size);
    pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("delays are not NaN"));
    let mut seen = 0;
    for &(value, mult) in pairs.iter() {
        seen += mult;
        if seen >= k {
            return value;
        }
    }
    unreachable!("k is clamped to the multiset's size")
}

/// A fixed-capacity list on the stack.
struct Stack<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> Stack<T, N> {
    fn new() -> Self {
        Stack {
            items: [T::default(); N],
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

/// A multiset of arrival times as `(value, multiplicity)` pairs.
type Multiset = Stack<(f64, usize), MAX_PAIRS>;

impl Multiset {
    /// Adds `mult` copies of `value` (none when `mult` is zero).
    fn add(&mut self, value: f64, mult: usize) {
        if mult > 0 {
            self.push((value, mult));
        }
    }

    fn kth_smallest(&mut self, k: usize) -> f64 {
        kth_smallest(self.as_mut_slice(), k)
    }
}

/// A group of nodes that see the same arrival times: its region and
/// how many nodes it holds.
#[derive(Clone, Copy, Default)]
struct Class {
    region: usize,
    mult: usize,
}

impl QuorumModel {
    /// Builds the model for a deployment under a network model.
    pub fn new(config: &DeploymentConfig, net: &NetworkModel) -> Self {
        let mut delay = [[0.0; Region::COUNT]; Region::COUNT];
        for a in Region::ALL {
            for b in Region::ALL {
                delay[a.index()][b.index()] = net.mean_delay(a, b, VOTE_BYTES).as_secs_f64();
            }
        }
        let region: Vec<usize> = config.sites().iter().map(|s| s.region.index()).collect();
        let mut count = [0; Region::COUNT];
        for &r in &region {
            count[r] += 1;
        }
        // The pairwise link profile of the deployment, captured once at
        // model build: the distribution every phase latency below is an
        // order statistic of. Region pair (a, b) stands for its
        // count[a]·count[b] ordered node pairs, less the self-pairs.
        for a in 0..Region::COUNT {
            for b in 0..Region::COUNT {
                let d = delay[a][b];
                let pairs = count[a] * count[b] - if a == b { count[a] } else { 0 };
                if d > 0.0 {
                    diablo_telemetry::record!("net.link.delay_us", (d * 1e6) as u64, pairs as u64);
                }
            }
        }
        QuorumModel {
            quorum: config.quorum(),
            delay,
            region,
            count,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.region.len()
    }

    /// BFT quorum size (2f + 1).
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Mean one-way vote delay from node `i` to node `j`, in seconds.
    pub fn delay_secs(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.delay[self.region[i]][self.region[j]]
        }
    }

    /// The classes of the nodes other than `origin`: per region, the
    /// region's nodes less `origin` itself.
    fn peers(&self, origin: usize) -> impl Iterator<Item = Class> + '_ {
        let own = self.region[origin];
        self.count
            .iter()
            .enumerate()
            .map(move |(region, &count)| Class {
                region,
                mult: count - usize::from(region == own),
            })
            .filter(|peer| peer.mult > 0)
    }

    /// One-way delays from `origin` to every other node.
    fn delays_from(&self, origin: usize) -> Multiset {
        let own = self.region[origin];
        let mut delays = Multiset::new();
        for peer in self.peers(origin) {
            delays.add(self.delay[own][peer.region], peer.mult);
        }
        delays
    }

    /// Time for a leader broadcast of `bytes` to reach all nodes.
    pub fn broadcast_all(&self, leader: usize, bytes: u64) -> SimDuration {
        let extra = payload_extra(bytes);
        let own = self.region[leader];
        let worst = self
            .peers(leader)
            .map(|peer| self.delay[own][peer.region] + extra)
            .fold(0.0, f64::max);
        diablo_telemetry::counter!(
            "net.bytes.proposals",
            bytes * self.node_count().saturating_sub(1) as u64
        );
        SimDuration::from_secs_f64(worst)
    }

    /// Time for a leader broadcast of `bytes` to reach a quorum of nodes.
    pub fn broadcast_quorum(&self, leader: usize, bytes: u64) -> SimDuration {
        let extra = payload_extra(bytes);
        let own = self.region[leader];
        let mut arrivals = Multiset::new();
        arrivals.add(0.0, 1);
        for peer in self.peers(leader) {
            arrivals.add(self.delay[own][peer.region] + extra, peer.mult);
        }
        diablo_telemetry::counter!(
            "net.bytes.proposals",
            bytes * self.node_count().saturating_sub(1) as u64
        );
        SimDuration::from_secs_f64(arrivals.kth_smallest(self.quorum))
    }

    /// One linear (HotStuff-style) phase: leader sends `bytes`, nodes
    /// reply with votes, phase ends when the leader holds a quorum.
    pub fn linear_phase(&self, leader: usize, bytes: u64) -> SimDuration {
        let extra = payload_extra(bytes);
        let own = self.region[leader];
        let mut round_trips = Multiset::new();
        round_trips.add(0.0, 1);
        for peer in self.peers(leader) {
            let r = peer.region;
            round_trips.add(self.delay[own][r] + extra + self.delay[r][own], peer.mult);
        }
        let peers = self.node_count().saturating_sub(1) as u64;
        diablo_telemetry::counter!("net.bytes.proposals", bytes * peers);
        diablo_telemetry::counter!("net.bytes.votes", VOTE_BYTES * peers);
        let phase = SimDuration::from_secs_f64(round_trips.kth_smallest(self.quorum));
        diablo_telemetry::record_duration!("net.phase.linear_us", phase);
        phase
    }

    /// HotStuff commit latency for a proposal of `bytes`: the three-chain
    /// rule needs three linear phases (prepare, pre-commit, commit); only
    /// the first carries the block payload.
    pub fn hotstuff_commit(&self, leader: usize, bytes: u64) -> SimDuration {
        self.linear_phase(leader, bytes)
            + self.linear_phase(leader, VOTE_BYTES)
            + self.linear_phase(leader, VOTE_BYTES)
    }

    /// IBFT/PBFT commit latency for a proposal of `bytes`: pre-prepare
    /// (leader → all) followed by two all-to-all phases (prepare,
    /// commit). Completion is measured at the leader (the node the
    /// collocated Diablo Secondary polls).
    pub fn ibft_commit(&self, leader: usize, bytes: u64) -> SimDuration {
        let extra = payload_extra(bytes);
        let own = self.region[leader];
        // The leader's class first, then its peers, with their
        // pre-prepare arrival times.
        let mut classes = Stack::<Class, MAX_CLASSES>::new();
        let mut arrive = [0.0; MAX_CLASSES];
        classes.push(Class {
            region: own,
            mult: 1,
        });
        for peer in self.peers(leader) {
            arrive[classes.len] = self.delay[own][peer.region] + extra;
            classes.push(peer);
        }
        let classes = classes.as_slice();
        // Prepare: the nodes of class c broadcast at arrive[c]; a node is
        // "prepared" once it holds a quorum of prepares.
        let mut prepared = [0.0; MAX_CLASSES];
        for (c, slot) in prepared[..classes.len()].iter_mut().enumerate() {
            *slot = self.all_to_all_round(classes, &arrive, c);
        }
        // Commit: the nodes of class c broadcast commit at prepared[c];
        // the block is committed at the leader once it holds a quorum of
        // commits.
        let committed = self.all_to_all_round(classes, &prepared, 0);
        let n = self.node_count() as u64;
        diablo_telemetry::counter!("net.bytes.proposals", bytes * n.saturating_sub(1));
        // Two all-to-all vote rounds: every node broadcasts to every
        // other node in each.
        diablo_telemetry::counter!("net.bytes.votes", 2 * VOTE_BYTES * n * n.saturating_sub(1));
        let d = SimDuration::from_secs_f64(committed);
        diablo_telemetry::record_duration!("net.phase.ibft_commit_us", d);
        d
    }

    /// One all-to-all round: every node of class `c` broadcasts at
    /// `start[c]`; returns the time a node of class `to` holds a quorum
    /// of messages. Its own message arrives at once; only the other
    /// members of its class pay the intra-region delay.
    fn all_to_all_round(&self, classes: &[Class], start: &[f64], to: usize) -> f64 {
        let dst = classes[to].region;
        let mut arrivals = Multiset::new();
        for (c, class) in classes.iter().enumerate() {
            if c == to {
                arrivals.add(start[c] + 0.0, 1);
                arrivals.add(start[c] + self.delay[dst][dst], class.mult - 1);
            } else {
                arrivals.add(start[c] + self.delay[class.region][dst], class.mult);
            }
        }
        arrivals.kth_smallest(self.quorum)
    }

    /// Gossip diffusion time from `origin` to (almost) all nodes over a
    /// fanout-`k` overlay: `ceil(log_k n)` hops of the per-hop delay,
    /// where a hop costs the `p75` one-way delay from the origin's view
    /// of the network plus per-hop payload serialization.
    pub fn gossip_all(&self, origin: usize, fanout: usize, bytes: u64) -> SimDuration {
        let n = self.node_count();
        if n <= 1 {
            return SimDuration::ZERO;
        }
        let fanout = fanout.max(2) as f64;
        let hops = (n as f64).ln() / fanout.ln();
        let hops = hops.ceil().max(1.0);
        let others = n - 1;
        let p75 = self.delays_from(origin).kth_smallest(others * 3 / 4 + 1);
        let per_hop = p75 + payload_extra(bytes);
        // Diffusion delivers the payload to every other node once.
        diablo_telemetry::counter!("net.bytes.gossip", bytes * others as u64);
        let d = SimDuration::from_secs_f64(hops * per_hop);
        diablo_telemetry::record_duration!("net.phase.gossip_us", d);
        d
    }

    /// Median one-way vote delay from a node's point of view, in seconds.
    pub fn median_delay_from(&self, origin: usize) -> f64 {
        let n = self.node_count();
        if n <= 1 {
            return 0.0;
        }
        self.delays_from(origin).kth_smallest((n - 1) / 2 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeploymentConfig, DeploymentKind};
    use crate::machine::InstanceType;
    use crate::region::Region;

    fn local(n: usize) -> QuorumModel {
        let cfg = DeploymentConfig::single_region(
            DeploymentKind::Datacenter,
            n,
            Region::Ohio,
            InstanceType::C59xlarge,
        );
        QuorumModel::new(&cfg, &NetworkModel::deterministic())
    }

    fn geo(n: usize) -> QuorumModel {
        let cfg = DeploymentConfig::spread(DeploymentKind::Devnet, n, InstanceType::C5Xlarge);
        QuorumModel::new(&cfg, &NetworkModel::deterministic())
    }

    #[test]
    fn local_phases_are_milliseconds() {
        let m = local(10);
        assert!(m.linear_phase(0, 1024) < SimDuration::from_millis(3));
        assert!(m.ibft_commit(0, 1024) < SimDuration::from_millis(5));
        assert!(m.hotstuff_commit(0, 1024) < SimDuration::from_millis(6));
    }

    #[test]
    fn geo_phases_are_hundreds_of_milliseconds() {
        let m = geo(10);
        let phase = m.linear_phase(0, 1024);
        assert!(phase > SimDuration::from_millis(100), "phase was {phase}");
        assert!(phase < SimDuration::from_secs(1));
        // HotStuff needs three phases, so it is strictly slower.
        assert!(m.hotstuff_commit(0, 1024) > phase * 2);
    }

    #[test]
    fn quorum_is_faster_than_all() {
        let m = geo(10);
        assert!(m.broadcast_quorum(0, 4096) <= m.broadcast_all(0, 4096));
    }

    #[test]
    fn bigger_payload_is_slower() {
        let m = geo(10);
        assert!(m.broadcast_all(0, 1_000_000) > m.broadcast_all(0, 1_000));
        assert!(m.ibft_commit(0, 1_000_000) > m.ibft_commit(0, 1_000));
    }

    #[test]
    fn ibft_commit_depends_on_leader_placement() {
        let m = geo(10);
        let all: Vec<f64> = (0..10)
            .map(|l| m.ibft_commit(l, 10_000).as_secs_f64())
            .collect();
        let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = all.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "leader placement should matter: {all:?}");
    }

    #[test]
    fn gossip_scales_logarithmically() {
        let small = geo(10).gossip_all(0, 8, 1024).as_secs_f64();
        let large = {
            let cfg =
                DeploymentConfig::spread(DeploymentKind::Community, 200, InstanceType::C5Xlarge);
            QuorumModel::new(&cfg, &NetworkModel::deterministic())
                .gossip_all(0, 8, 1024)
                .as_secs_f64()
        };
        // 200 nodes need at most one more hop tier than 10 at fanout 8.
        assert!(large <= small * 3.0, "small {small} large {large}");
        assert!(large >= small, "more nodes cannot be faster");
    }

    #[test]
    fn single_node_deployment_is_instant() {
        let m = local(1);
        assert_eq!(m.broadcast_all(0, 1024), SimDuration::ZERO);
        assert_eq!(m.gossip_all(0, 8, 1024), SimDuration::ZERO);
        assert_eq!(m.ibft_commit(0, 1024), SimDuration::ZERO);
        assert_eq!(m.median_delay_from(0), 0.0);
    }

    #[test]
    fn peers_group_nodes_by_region() {
        // 200 nodes over 10 regions, seen from node 42 (Mumbai): 19
        // region-mates and 20 in each of the other nine regions.
        let mults: Vec<usize> = geo(200).peers(42).map(|c| c.mult).collect();
        assert_eq!(mults, [20, 20, 19, 20, 20, 20, 20, 20, 20, 20]);
        // A region holding only the origin yields no peer class: of 11
        // nodes, Cape Town holds two and Tokyo only node 1.
        let m = geo(11);
        let lone: Vec<(usize, usize)> = m.peers(1).map(|c| (c.region, c.mult)).collect();
        assert_eq!(lone.len(), Region::COUNT - 1);
        assert_eq!(lone[0], (0, 2));
        assert!(lone.iter().all(|&(region, _)| region != 1));
    }

    #[test]
    fn weighted_kth_smallest_counts_multiplicities() {
        let pairs = [(5.0, 2), (1.0, 1), (3.0, 3)];
        // The multiset is {1, 3, 3, 3, 5, 5}.
        let kth = |k| kth_smallest(&mut pairs.clone(), k);
        assert_eq!(kth(1), 1.0);
        assert_eq!(kth(2), 3.0);
        assert_eq!(kth(4), 3.0);
        assert_eq!(kth(5), 5.0);
        assert_eq!(kth(6), 5.0);
        // Clamped at both ends.
        assert_eq!(kth(0), 1.0);
        assert_eq!(kth(100), 5.0);
        // Ties across pairs and zero multiplicities.
        let mut ties = [(2.0, 1), (7.0, 0), (2.0, 2), (4.0, 1)];
        assert_eq!(kth_smallest(&mut ties, 3), 2.0);
        assert_eq!(kth_smallest(&mut ties, 4), 4.0);
        assert_eq!(kth_smallest(&mut ties, 5), 4.0);
    }

    #[test]
    #[should_panic(expected = "kth_smallest needs values")]
    fn weighted_kth_smallest_rejects_an_empty_multiset() {
        kth_smallest(&mut [(1.0, 0)], 1);
    }
}
