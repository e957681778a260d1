//! The three benchmark workloads: each is one `diablo run` invocation.

use std::path::{Path, PathBuf};

/// One workload: the chain, deployment, spec file and extra flags of a
/// `diablo run` command line. Paths are relative to the repository root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Benchmark name (`--workload`).
    pub name: &'static str,
    /// `--chain`.
    pub chain: &'static str,
    /// `--deployment`.
    pub deployment: &'static str,
    /// The workload spec file.
    pub spec: &'static str,
    /// Extra run flags beyond chain, deployment, seed and output.
    pub flags: &'static [&'static str],
    /// Whether the run exports a lifecycle trace (`--trace-out`).
    pub trace_out: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ibft-200",
        chain: "quorum",
        deployment: "consortium",
        spec: "workloads/native-1000.yaml",
        flags: &[],
        trace_out: false,
    },
    Workload {
        name: "dota-flood",
        chain: "quorum",
        deployment: "testnet",
        spec: "workloads/dota.yaml",
        flags: &[],
        trace_out: false,
    },
    Workload {
        name: "exchange-exact",
        chain: "quorum",
        deployment: "testnet",
        spec: "benchmark/workloads/exchange-exact.yaml",
        flags: &["--exec-mode=exact"],
        trace_out: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The files one pass reads and writes.
#[derive(Debug, Clone)]
pub struct Files {
    /// The spec the pass reads.
    pub spec: PathBuf,
    /// `--output`.
    pub results: PathBuf,
    /// `--trace-out` (written only by tracing workloads).
    pub trace: PathBuf,
}

impl Files {
    /// The files of a run whose scratch directory is `dir`: the spec is
    /// the workload's own, or — for a shortened load — a truncated copy
    /// written into `dir` under the same file name (so the run reports
    /// the same workload name).
    pub fn prepare(w: &Workload, dir: &Path, load_secs: Option<u64>) -> Result<Files, String> {
        let spec = match load_secs {
            None => PathBuf::from(w.spec),
            Some(secs) => {
                let text =
                    std::fs::read_to_string(w.spec).map_err(|e| format!("{}: {e}", w.spec))?;
                let name = Path::new(w.spec)
                    .file_name()
                    .expect("spec paths name a file");
                let path = dir.join(name);
                std::fs::write(&path, truncate_load(&text, secs))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                path
            }
        };
        Ok(Files {
            spec,
            results: dir.join("results.json"),
            trace: dir.join("trace.json"),
        })
    }
}

/// The `diablo run` argument vector of one pass (without the program
/// name): the workload seed becomes the run's `--seed`.
pub fn run_args(w: &Workload, seed: u64, files: &Files) -> Vec<String> {
    let mut args = vec![
        "run".to_string(),
        format!("--chain={}", w.chain),
        format!("--deployment={}", w.deployment),
        format!("--seed={seed}"),
        format!("--output={}", files.results.display()),
    ];
    args.extend(w.flags.iter().map(|f| f.to_string()));
    if w.trace_out {
        args.push(format!("--trace-out={}", files.trace.display()));
    }
    args.push(files.spec.display().to_string());
    args
}

/// Cuts every `load:` curve of a spec at `secs`: points before `secs`
/// are kept and the curve ends with `secs: 0`. Used for the short
/// variants the benchmark's own tests run.
pub fn truncate_load(spec: &str, secs: u64) -> String {
    fn point(line: &str) -> Option<u64> {
        let (t, rate) = line.trim().split_once(':')?;
        rate.trim().parse::<u64>().ok()?;
        t.trim().parse().ok()
    }
    let indent = |line: &str| line.len() - line.trim_start().len();
    let mut out = String::with_capacity(spec.len());
    // Indentation of the open curve's `load:` key and of its points.
    let mut open: Option<(usize, usize)> = None;
    for line in spec.lines() {
        if let Some((key, points)) = open {
            if indent(line) > key && point(line).is_some() {
                if point(line).is_some_and(|t| t < secs) {
                    out.push_str(line);
                    out.push('\n');
                }
                open = Some((key, indent(line)));
                continue;
            }
            out.push_str(&format!("{}{secs}: 0\n", " ".repeat(points)));
            open = None;
        }
        if line.trim() == "load:" {
            open = Some((indent(line), indent(line) + 2));
        }
        out.push_str(line);
        out.push('\n');
    }
    if let Some((_, points)) = open {
        out.push_str(&format!("{}{secs}: 0\n", " ".repeat(points)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_cuts_every_curve() {
        let spec = "a:\n  load:\n    0: 4432\n    50: 4438\n    120: 0\n  b: 1\nc:\n  load:\n    0: 9\n    120: 0\n";
        assert_eq!(
            truncate_load(spec, 1),
            "a:\n  load:\n    0: 4432\n    1: 0\n  b: 1\nc:\n  load:\n    0: 9\n    1: 0\n"
        );
        assert_eq!(
            truncate_load(spec, 60),
            "a:\n  load:\n    0: 4432\n    50: 4438\n    60: 0\n  b: 1\nc:\n  load:\n    0: 9\n    60: 0\n"
        );
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }
}
