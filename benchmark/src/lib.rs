//! The repository benchmark: real `diablo run` shapes, timed end to end
//! and layer by layer from outside the program. See `README.md` beside
//! this crate for the workloads, the loop model and the metrics.

pub mod check;
pub mod metrics;
pub mod pass;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use check::{check_results, digest};
use pass::{replay_consensus, run_layer_pass, run_pass, LayerPass, Replay};
use workload::{run_args, Files, Workload};

/// Layer-timed passes per run: enough for a median of `setup_s` and of
/// each layer's time. Odd, so the median is one pass's value.
pub const LAYER_PASSES: usize = 7;

/// One benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; it becomes the run's `--seed`.
    pub seed: u64,
    /// How long the untraced loop measures.
    pub seconds: Duration,
    /// Cut every load curve at this many seconds (short variants).
    pub load_secs: Option<u64>,
    /// Scratch directory for the files the passes write; removed after.
    pub dir: PathBuf,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Measured {
    /// Transactions each pass plans (the spec's declared load).
    pub planned: u64,
    /// Wall time of every untraced pass that ran to completion, in run
    /// order (a pass that then fails its output check still counts in
    /// `failures`).
    pub walls: Vec<Duration>,
    /// Every layer-timed pass that ran to completion, with its
    /// consensus replay.
    pub layers: Vec<(LayerPass, Replay)>,
    /// Passes run (warm-up, untraced and layer-timed).
    pub attempted: u64,
    /// Why each failed pass failed.
    pub failures: Vec<String>,
}

/// What every pass of a run must reproduce byte for byte.
#[derive(Debug, Default)]
struct Reference {
    results: Option<u64>,
    store_root: Option<Option<String>>,
    trace: Option<u64>,
}

impl Reference {
    /// Records `value` as the reference on first sight; afterwards
    /// requires it to repeat.
    fn pin<T: PartialEq + std::fmt::Debug>(
        slot: &mut Option<T>,
        value: T,
        what: &str,
    ) -> Result<(), String> {
        match slot {
            None => {
                *slot = Some(value);
                Ok(())
            }
            Some(pinned) if *pinned == value => Ok(()),
            Some(pinned) => Err(format!("{what} changed: {pinned:?} then {value:?}")),
        }
    }
}

/// Counts one pass and its failure, if any.
fn tally(m: &mut Measured, outcome: Result<(), String>) {
    m.attempted += 1;
    if let Err(e) = outcome {
        m.failures.push(e);
    }
}

/// Runs `f` as one pass and checks the files it wrote. Returns what `f`
/// returned, when the pass ran to completion, and the pass's verdict:
/// an error, a panic or a failed output check fails it.
fn checked<T>(
    files: &Files,
    w: &Workload,
    planned: u64,
    reference: &mut Reference,
    f: impl FnOnce() -> Result<T, String>,
) -> (Option<T>, Result<(), String>) {
    for path in [&files.results, &files.trace] {
        // A pass that fails to write must not be checked against the
        // previous pass's files.
        let _ = std::fs::remove_file(path);
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(out)) => (Some(out), check_files(files, w, planned, reference)),
        Ok(Err(e)) => (None, Err(e)),
        Err(_) => (None, Err("the pass panicked".to_string())),
    }
}

/// The output check of one pass's files.
fn check_files(
    files: &Files,
    w: &Workload,
    planned: u64,
    reference: &mut Reference,
) -> Result<(), String> {
    let text = std::fs::read(&files.results).map_err(|e| format!("results file: {e}"))?;
    let ok = check_results(&text, planned)?;
    drop(text);
    Reference::pin(&mut reference.results, ok.digest, "results digest")?;
    Reference::pin(&mut reference.store_root, ok.store_root, "store root")?;
    if w.trace_out {
        let trace = std::fs::read(&files.trace).map_err(|e| format!("trace file: {e}"))?;
        Reference::pin(&mut reference.trace, digest(&trace), "trace-export digest")?;
    }
    Ok(())
}

/// Runs the benchmark: one warm-up pass, then untraced passes back to
/// back for `spec.seconds`, with [`LAYER_PASSES`] layer-timed passes
/// spread evenly among them.
pub fn run(spec: &RunSpec) -> Result<Measured, String> {
    std::fs::create_dir_all(&spec.dir).map_err(|e| format!("{}: {e}", spec.dir.display()))?;
    let measured = measure(spec);
    let _ = std::fs::remove_dir_all(&spec.dir);
    if let Some(parent) = spec.dir.parent() {
        // Removes the shared parent too, once no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    measured
}

fn measure(spec: &RunSpec) -> Result<Measured, String> {
    let w = &spec.workload;
    let files = Files::prepare(w, &spec.dir, spec.load_secs)?;
    let args = run_args(w, spec.seed, &files);
    let spec_text = std::fs::read_to_string(&files.spec)
        .map_err(|e| format!("{}: {e}", files.spec.display()))?;
    let planned = diablo::core::BenchmarkSpec::parse(&spec_text)
        .map_err(|e| e.to_string())?
        .total_txs();
    let mut reference = Reference::default();
    let mut m = Measured {
        planned,
        walls: Vec::new(),
        layers: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };

    // Warm-up: fills the allocator's pools and pins the reference bytes.
    let (_, warm) = checked(&files, w, planned, &mut reference, || run_pass(&args));
    tally(&mut m, warm);

    // The loop's clock counts only the untraced passes (with their
    // checks), so a run has `spec.seconds` of them however long its
    // layer-timed passes take. A layer-timed pass opens each of
    // `LAYER_PASSES` equal shares of that time.
    let mut untraced = Duration::ZERO;
    let mut layer_passes = 0;
    while untraced < spec.seconds || layer_passes < LAYER_PASSES {
        let share = spec.seconds * layer_passes as u32 / LAYER_PASSES as u32;
        if untraced < share {
            let t = Instant::now();
            let (wall, verdict) = checked(&files, w, planned, &mut reference, || {
                let t = Instant::now();
                run_pass(&args).map(|()| t.elapsed())
            });
            untraced += t.elapsed();
            m.walls.extend(wall);
            tally(&mut m, verdict);
            continue;
        }
        layer_passes += 1;
        let (pass, mut verdict) =
            checked(&files, w, planned, &mut reference, || run_layer_pass(&args));
        if let Some(pass) = pass {
            if pass.plan_txs != planned && verdict.is_ok() {
                verdict = Err(format!("{} planned, {planned} declared", pass.plan_txs));
            }
            let replay = replay_consensus(&pass);
            m.layers.push((pass, replay));
        }
        tally(&mut m, verdict);
    }
    Ok(m)
}
