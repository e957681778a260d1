//! `RunResult::stats`, the one-pass `stats` block of the results file,
//! against the per-metric methods it stands in for: every field must
//! match bit for bit (`f64::to_bits`) on random record sets. Replay a
//! failure with `DIABLO_PROP_SEED=0x…`.

use diablo_chains::{Chain, RunResult, TxRecord, TxStatus};
use diablo_sim::SimTime;
use diablo_testkit::gen::{choice, from_slice, just, u32s, u64s, u8s, vecs, BoxedGen, Gen};
use diablo_testkit::{prop_assert_eq, Property};

/// One record as drawn: submission µs, a decision mode, a second
/// timestamp and a status index.
type RawRecord = (u64, u8, u64, u8);

const STATUSES: [TxStatus; 7] = [
    TxStatus::Pending,
    TxStatus::Committed,
    TxStatus::DroppedPoolFull,
    TxStatus::DroppedPerSender,
    TxStatus::DroppedExpired,
    TxStatus::Failed,
    TxStatus::Rejected,
];

/// Builds a record: mode 0 leaves it undecided, mode 1 decides it at
/// the same instant (zero latency), mode 2 before its submission (the
/// saturating `since`), mode 3 at a whole second in 0..300 s (tied
/// latencies, and decisions exactly at the end of a whole-second
/// window), and otherwise after a latency of up to ~4,300 s.
fn record(&(submitted, mode, other, status): &RawRecord) -> TxRecord {
    let decided = match mode % 5 {
        0 => None,
        1 => Some(submitted),
        2 => Some(submitted.saturating_sub(other)),
        3 => Some((other % 300) * 1_000_000),
        _ => Some(submitted + other),
    };
    TxRecord {
        submitted: SimTime(submitted),
        decided: decided.map(SimTime),
        // Commits dominate so latency statistics have samples.
        status: if status >= 7 {
            TxStatus::Committed
        } else {
            STATUSES[status as usize]
        },
    }
}

fn run(records: &[RawRecord], workload_secs: f64) -> RunResult {
    RunResult {
        chain: Chain::Quorum,
        workload: "stats".into(),
        workload_secs,
        records: records.iter().map(record).collect(),
        unable_reason: None,
        blocks: Vec::new(),
        storage: None,
        trace: None,
    }
}

/// Random record sets: empty, all pending, and mixes of every status
/// (aborted and rejected rows carrying a decision included), over a
/// window that may be empty, negative, or cut through the decisions.
fn arb_run() -> BoxedGen<(Vec<RawRecord>, f64)> {
    let raw = (
        u64s(0..=200_000_000),
        u8s(0..=4),
        u64s(0..=u32::MAX as u64),
        u8s(0..=12),
    );
    let pending = u64s(0..=200_000_000).map(|at| (at, 0u8, 0u64, 0u8));
    let records = choice(vec![
        just(Vec::new()).boxed(),
        vecs(pending, 1..=40).boxed(),
        vecs(raw, 0..=200).boxed(),
    ]);
    let secs = choice(vec![
        from_slice(&[0.0, -1.0, 0.5, 1e-9, 120.0]).boxed(),
        u32s(0..=300).map(f64::from).boxed(),
        u32s(0..=400_000).map(|ms| f64::from(ms) / 1e3).boxed(),
    ]);
    (records, secs).boxed()
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

#[test]
fn stats_match_the_per_metric_methods() {
    Property::new("RunResult::stats == per-metric methods, bit for bit")
        .cases(500)
        .check(&arb_run(), |(records, secs)| {
            let r = run(records, *secs);
            let s = r.stats();
            prop_assert_eq!(s.submitted, r.submitted());
            prop_assert_eq!(s.committed, r.committed());
            prop_assert_eq!(bits(s.commit_ratio), bits(r.commit_ratio()));
            prop_assert_eq!(bits(s.avg_throughput), bits(r.avg_throughput()));
            prop_assert_eq!(bits(s.avg_latency_secs), bits(r.avg_latency_secs()));
            prop_assert_eq!(bits(s.median_latency_secs), bits(r.median_latency_secs()));
            prop_assert_eq!(bits(s.max_latency_secs), bits(r.max_latency_secs()));
            Ok(())
        });
}

#[test]
fn stats_cover_odd_even_and_degenerate_counts() {
    // Committed latencies of 1..=n seconds: the nearest-rank median is
    // element ceil(n/2) for odd and even n alike.
    for n in 0..=6u64 {
        let records: Vec<RawRecord> = (1..=n).map(|i| (0, 4, i * 1_000_000, 1)).collect();
        let r = run(&records, 10.0);
        let s = r.stats();
        assert_eq!(bits(s.median_latency_secs), bits(r.median_latency_secs()));
        assert_eq!(s.median_latency_secs, n.div_ceil(2) as f64, "n = {n}");
    }
    // Only zero-latency and back-dated commits: every latency is 0.
    let r = run(&[(5, 1, 0, 1), (9, 2, 4, 1), (9, 2, 40, 1)], 10.0);
    let s = r.stats();
    assert_eq!((s.committed, bits(s.max_latency_secs)), (3, bits(0.0)));
    assert_eq!(bits(s.avg_latency_secs), bits(r.avg_latency_secs()));
    // A committed status without a decision counts as committed but
    // contributes no latency sample.
    let r = run(&[(0, 0, 0, 1), (0, 4, 2_000_000, 1)], 10.0);
    let s = r.stats();
    assert_eq!((s.committed, s.avg_latency_secs), (2, 2.0));
    assert_eq!(bits(s.avg_latency_secs), bits(r.avg_latency_secs()));
    // A commit decided exactly at the end of the window counts toward
    // throughput; one a microsecond later does not.
    let r = run(&[(0, 3, 10, 1), (0, 4, 10_000_001, 1)], 10.0);
    assert_eq!(r.stats().avg_throughput, 0.1);
    assert_eq!(bits(r.stats().avg_throughput), bits(r.avg_throughput()));
    // Aborted and rejected rows with a decision add no latency.
    let r = run(&[(0, 4, 3_000_000, 5), (0, 4, 3_000_000, 6)], 10.0);
    assert_eq!(r.stats().max_latency_secs, r.max_latency_secs());
    assert_eq!(r.stats().max_latency_secs, 0.0);
}
