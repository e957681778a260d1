//! Deterministic per-transaction lifecycle tracing.
//!
//! Aggregate telemetry ([`crate::TelemetrySnapshot`]) explains where a
//! *run* spent its time; it cannot explain where one tail-latency
//! transaction did. This module records a causal event trail per
//! transaction — `submitted → admitted → selected → ordered(round,
//! block) → executed(mode) → persisted(root) → finalized`, plus rejection / retry / fault-delay edges — with
//! sim-time stamps, and exports it as Chrome Trace Event Format JSON
//! (loadable in Perfetto or `chrome://tracing`).
//!
//! # Determinism
//!
//! Two properties make traces byte-identical at any worker or
//! Secondary count:
//!
//! - **Events carry modeled time only.** Every stamp is virtual
//!   sim-time, produced by the single-threaded simulation loop; worker
//!   threads never emit trace events. The executor-dependent
//!   annotation ([`TraceStage::Executed`]'s mode) is kept in the
//!   [`TraceSet`] and on the wire but deliberately *omitted from the
//!   Chrome export*, so the exported waterfall is a pure function of
//!   the modeled timeline and stays byte-identical across `Serial` and
//!   `Parallel(n)` runs of the same seed.
//! - **Sampling is membership-by-identity, not by arrival.** A classic
//!   reservoir depends on observation order. The bounded sampler here
//!   instead keeps the `N` transactions whose [`rank`] (a seeded
//!   splitmix64 hash of the transaction id) is smallest — a pure
//!   function of the final id set and the seed. Once a transaction is
//!   displaced its rank can never re-enter the bottom `N` (the maximum
//!   member rank only decreases), so no partial trails survive and the
//!   sampled set is independent of emission interleaving and of how
//!   chunks were merged.
//!
//! The recorder compiles out with the rest of the crate under
//! `--cfg diablo_telemetry_off`: [`emit`] becomes an empty inline
//! function and [`take`] always returns `None`. The data types stay
//! compiled so the wire protocol and report plumbing type-check.

use std::fmt;

/// Lifecycle stages, in canonical causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceStage {
    /// The client signed and scheduled the transaction (`arg0` =
    /// sender).
    Submitted = 0,
    /// The submission was corrupted and retried; the stamp is the first
    /// accepted attempt (`arg0` = retry delay in µs).
    Retried = 1,
    /// The submission node was crashed; the client failed over (`arg0`
    /// = the node submitted to instead).
    Rerouted = 2,
    /// Gossip reached a non-committing partition component; inclusion
    /// waits for the heal (`arg0` = deferral in µs).
    Deferred = 3,
    /// The proposers' mempool admitted the transaction (after gossip).
    Admitted = 4,
    /// A proposer drained the transaction from the pool into a block
    /// under assembly (`arg0` = consensus round).
    Selected = 5,
    /// Consensus ordered the block (`arg0` = round, `arg1` = block
    /// height).
    Ordered = 6,
    /// The execution engine committed the transaction's effects
    /// (`arg0` = concurrency mode code).
    Executed = 7,
    /// The state store persisted the enclosing block (`arg0` = first 8
    /// bytes of the block's state root, big-endian).
    Persisted = 8,
    /// The client observed the decision (`arg0` = 1 committed, 0
    /// aborted).
    Finalized = 9,
    /// Every submission attempt was corrupted; the client gave up.
    Rejected = 10,
    /// The pool was full; the transaction was dropped.
    DroppedPoolFull = 11,
    /// The sender exceeded its per-account pool quota.
    DroppedPerSender = 12,
    /// The transaction expired in the pool (recent-blockhash rule).
    DroppedExpired = 13,
}

impl TraceStage {
    /// Stable lowercase name (used in the Chrome export).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Submitted => "submitted",
            TraceStage::Retried => "retried",
            TraceStage::Rerouted => "rerouted",
            TraceStage::Deferred => "deferred",
            TraceStage::Admitted => "admitted",
            TraceStage::Selected => "selected",
            TraceStage::Ordered => "ordered",
            TraceStage::Executed => "executed",
            TraceStage::Persisted => "persisted",
            TraceStage::Finalized => "finalized",
            TraceStage::Rejected => "rejected",
            TraceStage::DroppedPoolFull => "dropped_pool_full",
            TraceStage::DroppedPerSender => "dropped_per_sender",
            TraceStage::DroppedExpired => "dropped_expired",
        }
    }

    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<TraceStage> {
        use TraceStage::*;
        Some(match b {
            0 => Submitted,
            1 => Retried,
            2 => Rerouted,
            3 => Deferred,
            4 => Admitted,
            5 => Selected,
            6 => Ordered,
            7 => Executed,
            8 => Persisted,
            9 => Finalized,
            10 => Rejected,
            11 => DroppedPoolFull,
            12 => DroppedPerSender,
            13 => DroppedExpired,
            _ => return None,
        })
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub stage: TraceStage,
    /// When, in sim-time microseconds.
    pub at_us: u64,
    /// Stage-specific annotation (see [`TraceStage`]).
    pub arg0: u64,
    /// Second stage-specific annotation.
    pub arg1: u64,
}

/// The event trail of one transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxTrace {
    /// Run-global transaction id (record index).
    pub id: u64,
    /// Events in emission order (causal order: the simulation loop is
    /// single-threaded).
    pub events: Vec<TraceEvent>,
}

impl TxTrace {
    /// The stamp of the first event of `stage`, if recorded.
    pub fn at(&self, stage: TraceStage) -> Option<u64> {
        self.events.iter().find(|e| e.stage == stage).map(|e| e.at_us)
    }

    /// The first event of `stage`, if recorded.
    pub fn event(&self, stage: TraceStage) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.stage == stage)
    }
}

/// How many transactions to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSample {
    /// The `n` transactions with the smallest seeded rank (bounded
    /// memory at any scale).
    Limit(u64),
    /// Every transaction.
    All,
}

impl TraceSample {
    /// Default bound when tracing is requested without an explicit
    /// sample size: caps tracer memory at scale.
    pub const DEFAULT_LIMIT: u64 = 4096;

    /// Parses `"all"` or a decimal count (0 is rejected).
    pub fn parse(s: &str) -> Result<TraceSample, String> {
        if s.eq_ignore_ascii_case("all") {
            return Ok(TraceSample::All);
        }
        match s.parse::<u64>() {
            Ok(n) if n > 0 => Ok(TraceSample::Limit(n)),
            _ => Err(format!("bad trace sample `{s}` (expected a positive count or `all`)")),
        }
    }

    /// The member cap (`u64::MAX` for `All`).
    pub fn cap(self) -> u64 {
        match self {
            TraceSample::Limit(n) => n,
            TraceSample::All => u64::MAX,
        }
    }
}

/// The seeded rank deciding sampler membership: splitmix64 over the
/// transaction id, perturbed by the run seed. Membership in a bounded
/// trace is "rank among the `N` smallest" — a pure function of the
/// final id set and the seed, independent of emission order.
pub fn rank(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A frozen, mergeable set of transaction traces.
///
/// Sorted by transaction id; [`TraceSet::merge`] preserves the sort and
/// re-applies the sampler bound, so a set merged from chunks is
/// byte-identical to one recorded whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// Sampler seed (the run seed).
    pub seed: u64,
    /// Sampler bound (`u64::MAX` = full tracing).
    pub cap: u64,
    /// Traced transactions, ascending by id.
    pub txs: Vec<TxTrace>,
}

impl TraceSet {
    /// Whether no transactions were traced.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// The trace of transaction `id`, if sampled.
    pub fn tx(&self, id: u64) -> Option<&TxTrace> {
        self.txs
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .map(|i| &self.txs[i])
    }

    /// Merges another set (e.g. a Secondary's chunk) into this one:
    /// trails union by id (same-id events concatenate in stamp order)
    /// and the sampler bound is re-applied over the union, keeping the
    /// result identical to a single-recorder run.
    pub fn merge(&mut self, other: &TraceSet) {
        // A zero cap only arises from `TraceSet::default()` (never from
        // a recorder, whose bounds are positive); read it as unbounded
        // so merging a default-constructed set cannot truncate.
        fn norm(cap: u64) -> u64 {
            if cap == 0 {
                u64::MAX
            } else {
                cap
            }
        }
        self.cap = norm(self.cap).min(norm(other.cap));
        if other.txs.is_empty() {
            return;
        }
        let mut merged: std::collections::BTreeMap<u64, TxTrace> = std::mem::take(&mut self.txs)
            .into_iter()
            .map(|t| (t.id, t))
            .collect();
        for tx in &other.txs {
            let entry = merged.entry(tx.id).or_insert_with(|| TxTrace {
                id: tx.id,
                events: Vec::new(),
            });
            entry.events.extend(tx.events.iter().copied());
            entry.events.sort_by_key(|e| (e.at_us, e.stage as u8));
        }
        self.txs = merged.into_values().collect();
        if (self.txs.len() as u64) > self.cap {
            let seed = self.seed;
            let cap = self.cap as usize;
            let mut ranked: Vec<(u64, u64)> =
                self.txs.iter().map(|t| (rank(seed, t.id), t.id)).collect();
            ranked.sort_unstable();
            ranked.truncate(cap);
            let keep: std::collections::BTreeSet<u64> =
                ranked.into_iter().map(|(_, id)| id).collect();
            self.txs.retain(|t| keep.contains(&t.id));
        }
    }

    /// Renders the set as Chrome Trace Event Format JSON.
    ///
    /// Per transaction (ascending id; `tid` = transaction id):
    ///
    /// - one complete (`"ph":"X"`) duration event per lifecycle stage
    ///   pair that was recorded (`network`, `mempool`, `consensus`,
    ///   `execution`, `storage`, `finality`),
    /// - one instant (`"ph":"i"`) event per point event (submission,
    ///   fault edges, terminal drops),
    /// - a flow (`"ph":"s"`/`"t"`/`"f"`) thread linking the stages.
    ///
    /// Only modeled-time facts are exported (see the module docs), so
    /// the bytes are identical across execution modes.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for tx in &self.txs {
            write_tx_events(&mut out, tx, &mut first);
        }
        out.push_str("]}");
        out
    }

    /// The per-stage durations of one trail, as `(phase name, start µs,
    /// duration µs)` in canonical order — the waterfall the Chrome
    /// export draws and `trace-diff` aligns.
    pub fn waterfall(tx: &TxTrace) -> Vec<(&'static str, u64, u64)> {
        let mut out = Vec::new();
        let mut push = |name, from: Option<u64>, to: Option<u64>| {
            if let (Some(a), Some(b)) = (from, to) {
                out.push((name, a, b.saturating_sub(a)));
            }
        };
        let submitted = tx.at(TraceStage::Submitted);
        let admitted = tx.at(TraceStage::Admitted);
        let selected = tx.at(TraceStage::Selected);
        let ordered = tx.at(TraceStage::Ordered);
        let executed = tx.at(TraceStage::Executed);
        let persisted = tx.at(TraceStage::Persisted);
        let finalized = tx.at(TraceStage::Finalized);
        push("network", submitted, admitted);
        push("mempool", admitted, selected);
        push("consensus", selected, ordered);
        push("execution", ordered, executed);
        push("storage", executed, persisted);
        push("finality", persisted.or(executed), finalized);
        out
    }
}

/// Appends one transaction's Chrome events to `out`.
fn write_tx_events(out: &mut String, tx: &TxTrace, first: &mut bool) {
    use std::fmt::Write as _;
    let mut emit = |body: fmt::Arguments<'_>| {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = out.write_fmt(body);
    };
    // Instant events: every point/terminal event in the trail. The
    // executor-dependent `executed` annotations are not exported.
    for e in &tx.events {
        let instant = matches!(
            e.stage,
            TraceStage::Submitted
                | TraceStage::Retried
                | TraceStage::Rerouted
                | TraceStage::Deferred
                | TraceStage::Rejected
                | TraceStage::DroppedPoolFull
                | TraceStage::DroppedPerSender
                | TraceStage::DroppedExpired
        );
        if instant {
            emit(format_args!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\"}}",
                e.stage.name(),
                e.at_us,
                tx.id
            ));
        }
    }
    // Stage duration events, with executor-invariant annotations.
    for (phase, start, dur) in TraceSet::waterfall(tx) {
        match phase {
            "consensus" => {
                let (round, block) = tx
                    .event(TraceStage::Ordered)
                    .map(|e| (e.arg0, e.arg1))
                    .unwrap_or((0, 0));
                emit(format_args!(
                    "{{\"name\":\"consensus\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"round\":{round},\"block\":{block}}}}}",
                    tx.id
                ));
            }
            "storage" => {
                let root = tx.event(TraceStage::Persisted).map(|e| e.arg0).unwrap_or(0);
                emit(format_args!(
                    "{{\"name\":\"storage\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"root\":\"{root:016x}\"}}}}",
                    tx.id
                ));
            }
            _ => emit(format_args!(
                "{{\"name\":\"{phase}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{}}}",
                tx.id
            )),
        }
    }
    // Flow thread: start at submission, step at each boundary, finish
    // at the trail's last stamp.
    let stamps: Vec<u64> = {
        let mut s: Vec<u64> = tx.events.iter().map(|e| e.at_us).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    if let (Some(&head), Some(&tail)) = (stamps.first(), stamps.last()) {
        emit(format_args!(
            "{{\"name\":\"tx\",\"ph\":\"s\",\"id\":{0},\"ts\":{head},\"pid\":1,\"tid\":{0}}}",
            tx.id
        ));
        for &t in stamps.get(1..stamps.len() - 1).unwrap_or_default() {
            emit(format_args!(
                "{{\"name\":\"tx\",\"ph\":\"t\",\"id\":{0},\"ts\":{t},\"pid\":1,\"tid\":{0}}}",
                tx.id
            ));
        }
        if tail > head {
            emit(format_args!(
                "{{\"name\":\"tx\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{0},\"ts\":{tail},\
                 \"pid\":1,\"tid\":{0}}}",
                tx.id
            ));
        }
    }
}

#[cfg(not(diablo_telemetry_off))]
mod recorder {
    use super::{rank, TraceEvent, TraceSample, TraceSet, TraceStage, TxTrace};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// Fast active check so disabled runs pay one relaxed load per
    /// call site.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

    struct Recorder {
        seed: u64,
        cap: u64,
        /// Member trails by id.
        members: BTreeMap<u64, TxTrace>,
        /// Member `(rank, id)` pairs for bottom-k eviction.
        by_rank: BTreeSet<(u64, u64)>,
    }

    pub fn configure(sample: TraceSample, seed: u64) {
        let mut guard = RECORDER.lock().expect("trace recorder poisoned");
        *guard = Some(Recorder {
            seed,
            cap: sample.cap(),
            members: BTreeMap::new(),
            by_rank: BTreeSet::new(),
        });
        ACTIVE.store(true, Ordering::Release);
    }

    pub fn disable() {
        ACTIVE.store(false, Ordering::Release);
        *RECORDER.lock().expect("trace recorder poisoned") = None;
    }

    pub fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    pub fn emit(id: u64, stage: TraceStage, at_us: u64, arg0: u64, arg1: u64) {
        if !active() {
            return;
        }
        let mut guard = RECORDER.lock().expect("trace recorder poisoned");
        let Some(rec) = guard.as_mut() else { return };
        let event = TraceEvent {
            stage,
            at_us,
            arg0,
            arg1,
        };
        if let Some(tx) = rec.members.get_mut(&id) {
            tx.events.push(event);
            return;
        }
        let r = rank(rec.seed, id);
        if (rec.members.len() as u64) < rec.cap {
            rec.by_rank.insert((r, id));
        } else {
            // Bottom-k: displace the largest-ranked member, or drop
            // this id if it ranks above every member. A displaced id
            // can never re-enter — the maximum member rank only
            // decreases — so trails are complete or absent, never
            // partial.
            let &max = rec.by_rank.iter().next_back().expect("cap > 0 members");
            if (r, id) >= max {
                return;
            }
            rec.by_rank.remove(&max);
            rec.members.remove(&max.1);
            rec.by_rank.insert((r, id));
        }
        rec.members.insert(
            id,
            TxTrace {
                id,
                events: vec![event],
            },
        );
    }

    pub fn take() -> Option<TraceSet> {
        let mut guard = RECORDER.lock().expect("trace recorder poisoned");
        let rec = guard.take()?;
        ACTIVE.store(false, Ordering::Release);
        Some(TraceSet {
            seed: rec.seed,
            cap: rec.cap,
            txs: rec.members.into_values().collect(),
        })
    }
}

/// Arms the global trace recorder: subsequent [`emit`] calls are
/// buffered under `sample`'s bound, ranked by `seed`. Replaces any
/// previous recorder.
#[inline]
pub fn configure(sample: TraceSample, seed: u64) {
    #[cfg(not(diablo_telemetry_off))]
    recorder::configure(sample, seed);
    #[cfg(diablo_telemetry_off)]
    let _ = (sample, seed);
}

/// Disarms and clears the recorder (also done by [`crate::reset`]).
#[inline]
pub fn disable() {
    #[cfg(not(diablo_telemetry_off))]
    recorder::disable();
}

/// Whether a recorder is armed (always `false` when compiled out).
#[inline]
pub fn active() -> bool {
    #[cfg(not(diablo_telemetry_off))]
    return recorder::active();
    #[cfg(diablo_telemetry_off)]
    false
}

/// Records one lifecycle event for transaction `id` at sim-time
/// `at_us`. A no-op unless a recorder is armed (one relaxed atomic
/// load), and an empty inline function when compiled out.
#[inline]
pub fn emit(id: u64, stage: TraceStage, at_us: u64, arg0: u64, arg1: u64) {
    #[cfg(not(diablo_telemetry_off))]
    recorder::emit(id, stage, at_us, arg0, arg1);
    #[cfg(diablo_telemetry_off)]
    let _ = (id, stage, at_us, arg0, arg1);
}

/// Freezes and returns the recorded traces, disarming the recorder.
/// `None` when no recorder was armed (or when compiled out).
#[inline]
pub fn take() -> Option<TraceSet> {
    #[cfg(not(diablo_telemetry_off))]
    return recorder::take();
    #[cfg(diablo_telemetry_off)]
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(seed: u64, cap: u64, ids: &[u64]) -> TraceSet {
        TraceSet {
            seed,
            cap,
            txs: ids
                .iter()
                .map(|&id| TxTrace {
                    id,
                    events: vec![TraceEvent {
                        stage: TraceStage::Submitted,
                        at_us: id * 10,
                        arg0: 0,
                        arg1: 0,
                    }],
                })
                .collect(),
        }
    }

    #[test]
    fn stage_codes_roundtrip() {
        for b in 0..=13u8 {
            let stage = TraceStage::from_u8(b).unwrap();
            assert_eq!(stage as u8, b);
            assert!(!stage.name().is_empty());
        }
        assert_eq!(TraceStage::from_u8(14), None);
    }

    #[test]
    fn sample_parses() {
        assert_eq!(TraceSample::parse("all"), Ok(TraceSample::All));
        assert_eq!(TraceSample::parse("64"), Ok(TraceSample::Limit(64)));
        assert!(TraceSample::parse("0").is_err());
        assert!(TraceSample::parse("lots").is_err());
        assert_eq!(TraceSample::All.cap(), u64::MAX);
    }

    #[test]
    fn rank_is_seed_sensitive() {
        // Different seeds pick different members; same seed is stable.
        assert_eq!(rank(7, 42), rank(7, 42));
        assert_ne!(rank(7, 42), rank(8, 42));
        assert_ne!(rank(7, 42), rank(7, 43));
    }

    #[test]
    fn bottom_k_membership_is_order_independent() {
        if !crate::enabled() {
            return; // recorder compiled out
        }
        // Emitting ids in two different orders must sample the same set:
        // membership is a function of the id set and seed only.
        let ids: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = {
            let mut ranked: Vec<(u64, u64)> = ids.iter().map(|&i| (rank(9, i), i)).collect();
            ranked.sort_unstable();
            let mut keep: Vec<u64> = ranked[..10].iter().map(|&(_, i)| i).collect();
            keep.sort_unstable();
            keep
        };
        for forward in [true, false] {
            configure(TraceSample::Limit(10), 9);
            let order: Vec<u64> = if forward {
                ids.clone()
            } else {
                ids.iter().rev().copied().collect()
            };
            for id in order {
                emit(id, TraceStage::Submitted, id, 0, 0);
                emit(id, TraceStage::Admitted, id + 1, 0, 0);
            }
            let set = take().unwrap();
            let got: Vec<u64> = set.txs.iter().map(|t| t.id).collect();
            assert_eq!(got, expected, "forward={forward}");
            // Sampled trails are complete: both events survived.
            for tx in &set.txs {
                assert_eq!(tx.events.len(), 2, "partial trail for {}", tx.id);
            }
        }
    }

    #[test]
    fn take_disarms() {
        configure(TraceSample::All, 1);
        emit(5, TraceStage::Submitted, 50, 0, 0);
        if crate::enabled() {
            let set = take().unwrap();
            assert_eq!(set.txs.len(), 1);
            assert!(!active());
        }
        assert!(take().is_none());
        // Disarmed emits go nowhere.
        emit(6, TraceStage::Submitted, 60, 0, 0);
        assert!(take().is_none());
    }

    #[test]
    fn merge_unions_and_reapplies_cap() {
        let mut a = set_of(3, 4, &[1, 2, 3]);
        let b = set_of(3, 4, &[4, 5, 6]);
        a.merge(&b);
        assert_eq!(a.txs.len(), 4);
        let mut ranked: Vec<(u64, u64)> = (1..=6).map(|i| (rank(3, i), i)).collect();
        ranked.sort_unstable();
        let keep: Vec<u64> = {
            let mut k: Vec<u64> = ranked[..4].iter().map(|&(_, i)| i).collect();
            k.sort_unstable();
            k
        };
        assert_eq!(a.txs.iter().map(|t| t.id).collect::<Vec<_>>(), keep);
        // Merging an empty set changes nothing.
        let before = a.clone();
        a.merge(&TraceSet::default());
        assert_eq!(a.txs, before.txs);
    }

    #[test]
    fn merge_is_commutative() {
        let a = set_of(11, 8, &[1, 3, 5, 7]);
        let b = set_of(11, 8, &[2, 3, 6]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Same-id trails concatenate sorted by stamp, so both orders
        // agree byte for byte.
        assert_eq!(ab.to_chrome_json(), ba.to_chrome_json());
    }

    #[test]
    fn chrome_export_shape() {
        let tx = TxTrace {
            id: 7,
            events: vec![
                TraceEvent { stage: TraceStage::Submitted, at_us: 100, arg0: 3, arg1: 0 },
                TraceEvent { stage: TraceStage::Admitted, at_us: 250, arg0: 0, arg1: 0 },
                TraceEvent { stage: TraceStage::Selected, at_us: 900, arg0: 2, arg1: 0 },
                TraceEvent { stage: TraceStage::Ordered, at_us: 1400, arg0: 2, arg1: 1 },
                TraceEvent { stage: TraceStage::Executed, at_us: 1500, arg0: 1, arg1: 0 },
                TraceEvent { stage: TraceStage::Persisted, at_us: 1500, arg0: 0xabcd, arg1: 0 },
                TraceEvent { stage: TraceStage::Finalized, at_us: 2100, arg0: 1, arg1: 0 },
            ],
        };
        let set = TraceSet { seed: 0, cap: u64::MAX, txs: vec![tx.clone()] };
        let json = set.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        for phase in ["network", "mempool", "consensus", "execution", "storage", "finality"] {
            assert!(json.contains(&format!("\"name\":\"{phase}\",\"ph\":\"X\"")), "{phase}: {json}");
        }
        assert!(json.contains("\"args\":{\"round\":2,\"block\":1}"), "{json}");
        assert!(json.contains("\"args\":{\"root\":\"000000000000abcd\"}"), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        // Executor-specific facts stay out of the export.
        assert!(!json.contains("mode"), "{json}");
        // The waterfall telescopes: stages abut with no gaps.
        let w = TraceSet::waterfall(&tx);
        assert_eq!(w.len(), 6);
        for pair in w.windows(2) {
            assert_eq!(pair[0].1 + pair[0].2, pair[1].1, "{w:?}");
        }
        let total: u64 = w.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(total, 2100 - 100);
    }

    #[test]
    fn dropped_trails_export_instants_only() {
        let set = TraceSet {
            seed: 0,
            cap: u64::MAX,
            txs: vec![TxTrace {
                id: 1,
                events: vec![
                    TraceEvent { stage: TraceStage::Submitted, at_us: 10, arg0: 0, arg1: 0 },
                    TraceEvent { stage: TraceStage::DroppedPoolFull, at_us: 30, arg0: 0, arg1: 0 },
                ],
            }],
        };
        let json = set.to_chrome_json();
        assert!(json.contains("\"name\":\"dropped_pool_full\",\"ph\":\"i\""), "{json}");
        assert!(!json.contains("\"ph\":\"X\""), "{json}");
    }
}
