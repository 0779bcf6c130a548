//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <swf_birdseye|serve_explore> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`
//! under `.perfbench_work/` (removed on exit); every output is checked
//! against an independently rendered reference. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` a separate traced run's per-layer
//! metrics. The last line of standard output is the result object;
//! the line before it stamps seed, commit, nproc, rustc and mode.

mod batch;
mod http;
mod ledger;
mod report;
mod serve;
mod stats;

use report::{Report, Stamp};
use std::path::PathBuf;

const WORKLOADS: &[&str] = &["swf_birdseye", "serve_explore"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The run's scratch directory under the working directory; removed
/// when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = Stamp::collect();
    let mut report = Report::default();
    let outcome = WorkDir::create(&args.workload).and_then(|dir| {
        let r = match args.workload.as_str() {
            "serve_explore" => serve::run(&args, &dir.0, &mut report),
            _ => batch::run(&args, &dir.0, &mut report),
        };
        drop(dir);
        r
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    if !report.print(&args, &stamp) {
        std::process::exit(1);
    }
}
