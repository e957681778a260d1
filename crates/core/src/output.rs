//! Result files: the aggregator's JSON output and the artifact's CSV
//! conversion (§4 and appendix A.3).
//!
//! The Primary "outputs a JSON file, indicating the start time and end
//! time of each transaction", which "can then be used post-mortem to
//! generate time series and analyze the distribution of latencies". The
//! artifact additionally converts results to CSV with one line per
//! transaction (submission time, latency). Both writers live here,
//! including the small JSON serializer (the workspace carries no JSON
//! dependency).

use std::fmt::Write as _;
use std::io::Write as _;

use diablo_chains::{RunResult, TxStatus};

/// Escapes a string for inclusion in JSON.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The status string written to result files.
pub fn status_name(status: TxStatus) -> &'static str {
    match status {
        TxStatus::Pending => "pending",
        TxStatus::Committed => "committed",
        TxStatus::DroppedPoolFull => "dropped-pool-full",
        TxStatus::DroppedPerSender => "dropped-per-sender",
        TxStatus::DroppedExpired => "dropped-expired",
        TxStatus::Failed => "aborted",
        TxStatus::Rejected => "rejected",
    }
}

/// Timestamps below this many µs render through the integer digit
/// writer of [`push_secs6`]; at or above it, through float formatting.
///
/// Below `2⁵²` µs the conversion `us as f64` is exact and `/ 1e6` is
/// correctly rounded, so the double lies within half an ulp — at most
/// `2⁻²¹ < 5·10⁻⁷` s — of the exact decimal `us / 10⁶`, which itself
/// has six decimals. Rounding the double to six decimals therefore
/// lands back on that decimal, and `{:.6}` prints exactly
/// `us / 10⁶ "." us % 10⁶`.
pub const SECS6_EXACT_BELOW: u64 = 1 << 52;

/// Appends `us` microseconds as seconds with six decimals: the bytes of
/// `format!("{:.6}", us as f64 / 1e6)`, written from the integer
/// (see [`SECS6_EXACT_BELOW`] for why they agree).
pub fn push_secs6(out: &mut Vec<u8>, us: u64) {
    if us >= SECS6_EXACT_BELOW {
        let _ = write!(out, "{:.6}", us as f64 / 1e6);
        return;
    }
    // At most 10 integer digits below the bound, a point, 6 decimals;
    // digits are written two at a time, right to left.
    let mut buf = [b'0'; 17];
    let mut frac = us % 1_000_000;
    for i in [15, 13, 11] {
        buf[i..i + 2].copy_from_slice(digit_pair(frac % 100));
        frac /= 100;
    }
    buf[10] = b'.';
    let mut secs = us / 1_000_000;
    let mut i = 10;
    while secs >= 100 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(digit_pair(secs % 100));
        secs /= 100;
    }
    if secs >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(digit_pair(secs));
    } else {
        i -= 1;
        buf[i] = b'0' + secs as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// The two ASCII digits of `n < 100`.
fn digit_pair(n: u64) -> &'static [u8] {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let n = n as usize * 2;
    &PAIRS[n..n + 2]
}

/// Serializes a run to the Diablo results JSON.
///
/// Schema: `{"chain", "workload", "duration", "stats": {...}, "txs":
/// [[submit_secs, decide_secs | null, "status"], ...]}`.
pub fn results_json(result: &RunResult) -> String {
    let mut out = open_results(result);
    out.push('}');
    out
}

/// Bytes reserved per `"txs"` row: a committed row with timestamps
/// under 10⁴ s takes at most 38 (the benchmark's ibft-200 rows take
/// 34), so the document is written without growing the buffer.
const ROW_BYTES: usize = 40;

/// The results document up to and including its `"txs"` array, left
/// open for the optional top-level sections.
fn open_results(result: &RunResult) -> String {
    let mut out = String::with_capacity(1024 + result.records.len() * ROW_BYTES);
    out.push('{');
    let _ = write!(
        out,
        "\"chain\":\"{}\",\"workload\":\"{}\",\"duration\":{:.3},",
        json_escape(result.chain.name()),
        json_escape(&result.workload),
        result.workload_secs
    );
    if let Some(reason) = &result.unable_reason {
        let _ = write!(out, "\"unable\":\"{}\",", json_escape(reason));
    }
    let stats = result.stats();
    let _ = write!(
        out,
        "\"stats\":{{\"sent\":{},\"committed\":{},\"commitRatio\":{:.6},\
         \"avgThroughput\":{:.3},\"avgLatency\":{:.3},\"medianLatency\":{:.3},\
         \"maxLatency\":{:.3}}},",
        stats.submitted,
        stats.committed,
        stats.commit_ratio,
        stats.avg_throughput,
        stats.avg_latency_secs,
        stats.median_latency_secs,
        stats.max_latency_secs
    );
    // The storage section exists only when the staged commit pipeline
    // ran: disabled runs serialize byte-identically to the pre-store
    // format.
    if let Some(storage) = &result.storage {
        let _ = write!(
            out,
            "\"storage\":{{\"mode\":\"{}\",\"root\":\"{}\",\"blocks\":{},\"txs\":{},\
             \"residentBlocks\":{},\"residentBytes\":{},\"prunedBlocks\":{},\
             \"hotPages\":{},\"frozenPages\":{},\"storageEntries\":{}}},",
            json_escape(&storage.mode),
            storage.root_hex,
            storage.blocks,
            storage.txs,
            storage.resident_blocks,
            storage.resident_bytes,
            storage.pruned_blocks,
            storage.hot_pages,
            storage.frozen_pages,
            storage.storage_entries
        );
    }
    out.push_str("\"txs\":[");
    // The rows are ASCII bytes, validated once as a whole rather than
    // per timestamp.
    let mut bytes = out.into_bytes();
    for (i, rec) in result.records.iter().enumerate() {
        bytes.extend_from_slice(if i == 0 { b"[" } else { b",[" });
        push_secs6(&mut bytes, rec.submitted.0);
        match rec.decided {
            Some(d) => {
                bytes.push(b',');
                push_secs6(&mut bytes, d.0);
                bytes.extend_from_slice(b",\"");
            }
            None => bytes.extend_from_slice(b",null,\""),
        }
        bytes.extend_from_slice(status_name(rec.status).as_bytes());
        bytes.extend_from_slice(b"\"]");
    }
    bytes.push(b']');
    String::from_utf8(bytes).expect("the results writer emits UTF-8")
}

/// Appends the `"telemetry"` section, unless the snapshot is empty.
fn push_telemetry(out: &mut String, telemetry: &diablo_telemetry::TelemetrySnapshot) {
    if !telemetry.is_empty() {
        out.push_str(",\"telemetry\":");
        out.push_str(&telemetry.to_json());
    }
}

/// Serializes a run plus its merged telemetry snapshot: the standard
/// [`results_json`] document with an extra top-level `"telemetry"`
/// section (omitted when the snapshot is empty, e.g. in compiled-out
/// builds). The telemetry section is integer-only, so a pinned-seed
/// run serializes byte-identically across machines and worker counts.
pub fn results_json_with_telemetry(
    result: &RunResult,
    telemetry: &diablo_telemetry::TelemetrySnapshot,
) -> String {
    let mut out = open_results(result);
    push_telemetry(&mut out, telemetry);
    out.push('}');
    out
}

/// Serializes a full [`crate::Report`]: the standard
/// [`results_json_with_telemetry`] document plus — for live runs — a
/// top-level `"liveDiff"` section with the fidelity score, the
/// throughput comparison, the per-phase median ratios and the number of
/// Secondaries lost mid-run. Reports without a live diff serialize
/// byte-identically to [`results_json_with_telemetry`], so simulated
/// runs keep their pinned-seed golden outputs.
pub fn results_json_report(report: &crate::Report) -> String {
    let mut out = open_results(&report.result);
    push_telemetry(&mut out, &report.telemetry);
    if let Some(diff) = &report.live_diff {
        let _ = write!(
            out,
            ",\"liveDiff\":{{\"fidelity\":{:.6},\"lostSecondaries\":{},\
             \"liveThroughput\":{:.3},\"simThroughput\":{:.3},\
             \"liveLatency\":{:.3},\"simLatency\":{:.3},\"phases\":[",
            diff.fidelity,
            report.lost_secondaries.len(),
            diff.live_throughput,
            diff.sim_throughput,
            diff.live_latency,
            diff.sim_latency
        );
        for (i, p) in diff.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"metric\":\"{}\",\"liveP50\":{},\"simP50\":{},\
                 \"ratio\":{:.6}}}",
                p.phase,
                json_escape(&p.metric),
                p.live_p50_us,
                p.sim_p50_us,
                p.ratio
            );
        }
        out.push_str("]}");
    }
    out.push('}');
    out
}

/// Converts a run to the artifact's CSV format: one line per
/// transaction with the submission time (seconds) and the commit
/// latency (seconds; empty when not committed), ordered by submission —
/// "the latencies are expressed in seconds and follow the transaction
/// submission times" (appendix A.3).
///
/// Unlike [`results_json`], this keeps float formatting: `{:.2}` can
/// cut a µs timestamp exactly at a 5 ms tie, and which way the tie
/// rounds depends on which side of it the nearest double falls —
/// 0.005 s prints `0.01`, 0.015 s also `0.01`, 0.125 s `0.12` — so no
/// integer rounding rule reproduces the same bytes.
pub fn results_csv(result: &RunResult) -> String {
    let mut out = String::from("submit,latency,status\n");
    for rec in &result.records {
        match rec.latency_secs() {
            Some(lat) => {
                let _ = writeln!(
                    out,
                    "{:.2},{:.2},{}",
                    rec.submitted.as_secs_f64(),
                    lat,
                    status_name(rec.status)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:.2},,{}",
                    rec.submitted.as_secs_f64(),
                    status_name(rec.status)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_chains::{Chain, TxRecord};
    use diablo_sim::{SimDuration, SimTime};

    fn sample() -> RunResult {
        let t0 = SimTime::from_millis(100);
        RunResult {
            chain: Chain::Algorand,
            workload: "native-10".into(),
            workload_secs: 30.0,
            records: vec![
                TxRecord {
                    submitted: t0,
                    decided: Some(t0 + SimDuration::from_millis(530)),
                    status: TxStatus::Committed,
                },
                TxRecord {
                    submitted: SimTime::from_secs(1),
                    decided: None,
                    status: TxStatus::Pending,
                },
            ],
            unable_reason: None,
            blocks: Vec::new(),
            storage: None,
            trace: None,
        }
    }

    #[test]
    fn json_contains_stats_and_txs() {
        let json = results_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"chain\":\"Algorand\""));
        assert!(json.contains("\"sent\":2"));
        assert!(json.contains("\"committed\":1"));
        assert!(json.contains("[0.100000,0.630000,\"committed\"]"), "{json}");
        assert!(json.contains("null,\"pending\""));
    }

    #[test]
    fn csv_matches_artifact_example_shape() {
        // The screencast example: "the first submitted transaction for
        // Algorand at time 0.10 second took 0.53 seconds to commit".
        let csv = results_csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("submit,latency,status"));
        assert_eq!(lines.next(), Some("0.10,0.53,committed"));
        assert_eq!(lines.next(), Some("1.00,,pending"));
    }

    #[test]
    fn csv_ties_round_like_the_doubles() {
        let mut run = sample();
        run.records = [5_000, 15_000, 125_000]
            .map(|us| TxRecord::submitted_at(SimTime(us)))
            .to_vec();
        let csv = results_csv(&run);
        let submits: Vec<&str> = csv.lines().skip(1).map(|l| &l[..4]).collect();
        assert_eq!(submits, ["0.01", "0.01", "0.12"]);
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn telemetry_section_is_appended_when_nonempty() {
        let empty = diablo_telemetry::TelemetrySnapshot::default();
        assert_eq!(
            results_json_with_telemetry(&sample(), &empty),
            results_json(&sample()),
            "empty snapshots leave the document untouched"
        );
        let mut snap = diablo_telemetry::TelemetrySnapshot::default();
        snap.counters.push(("consensus.blocks.committed".into(), 7));
        let json = results_json_with_telemetry(&sample(), &snap);
        assert!(json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"telemetry\":{"),
            "telemetry section present: {json}"
        );
        assert!(json.contains("\"consensus.blocks.committed\":7"), "{json}");
        // Still a parseable document with the original sections intact.
        let parsed = crate::json::parse(&json).expect("valid json");
        assert!(parsed.get("stats").is_some());
        assert!(parsed.get("telemetry").is_some());
    }

    #[test]
    fn storage_section_only_appears_when_the_store_ran() {
        let without = results_json(&sample());
        assert!(!without.contains("\"storage\""), "{without}");

        let mut run = sample();
        run.storage = Some(diablo_chains::StorageReport {
            mode: "distance=3".into(),
            root_hex: "ab".repeat(32),
            blocks: 12,
            txs: 240,
            resident_blocks: 7,
            resident_bytes: 4096,
            pruned_blocks: 5,
            hot_pages: 2,
            frozen_pages: 1,
            storage_entries: 90,
        });
        let json = results_json(&run);
        assert!(json.contains("\"storage\":{\"mode\":\"distance=3\""), "{json}");
        assert!(json.contains("\"prunedBlocks\":5"), "{json}");
        let parsed = crate::json::parse(&json).expect("valid json");
        let storage = parsed.get("storage").expect("storage section");
        assert!(storage.get("root").is_some());
        assert!(storage.get("residentBytes").is_some());
    }

    #[test]
    fn live_diff_section_appears_only_for_live_reports() {
        let mut report = crate::Report {
            result: sample(),
            secondaries: 2,
            clients: 4,
            telemetry: diablo_telemetry::TelemetrySnapshot::default(),
            faults: diablo_chains::FaultPlan::none(),
            lost_secondaries: Vec::new(),
            live_diff: None,
        };
        assert_eq!(
            results_json_report(&report),
            results_json_with_telemetry(&report.result, &report.telemetry),
            "simulated reports keep the pre-live byte format"
        );

        report.live_diff = Some(crate::livediff::diff(
            &crate::livediff::RunSummary::default(),
            &crate::livediff::RunSummary::default(),
        ));
        report.lost_secondaries = vec![1];
        let json = results_json_report(&report);
        let base = results_json_with_telemetry(&report.result, &report.telemetry);
        assert!(
            json.starts_with(&base[..base.len() - 1]) && json.ends_with("]}}"),
            "the live diff extends the simulated document: {json}"
        );
        assert!(json.contains("\"liveDiff\":{\"fidelity\":"), "{json}");
        assert!(json.contains("\"lostSecondaries\":1"), "{json}");
        let parsed = crate::json::parse(&json).expect("valid json");
        let diff = parsed.get("liveDiff").expect("liveDiff section");
        let fidelity = diff.get("fidelity").and_then(crate::json::Json::as_f64);
        assert!(fidelity.is_some_and(|f| f.is_finite()), "{json}");
    }

    #[test]
    fn unable_runs_serialize_reason() {
        let r = RunResult::unable(Chain::Solana, "uber", 120.0, "budget exceeded".into());
        let json = results_json(&r);
        assert!(json.contains("\"unable\":\"budget exceeded\""));
        assert!(json.contains("\"txs\":[]"));
    }
}
