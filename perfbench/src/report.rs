//! The result every run prints: a stamp line (seed, commit, nproc,
//! rustc, mode, sample counts, failures) and, as the last line of
//! standard output, the `{correct, attempted, failed, metrics}` object.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "figure_ms_p50",
    "figure_bytes",
    "wire_bytes_per_req",
    "peak_rss_mb",
];

/// Per-layer metrics. A layer a workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read.ms", "ms"),
    ("workloads.swf.ms", "ms"),
    ("workloads.convert.ms", "ms"),
    ("xmlio.parse.ms", "ms"),
    ("core.snap.load_ms", "ms"),
    ("core.snap.bytes", "bytes"),
    ("core.prepared.index_ms", "ms"),
    ("core.prepared.composites_ms", "ms"),
    ("core.prepared.columns_ms", "ms"),
    ("core.prepared.extents_ms", "ms"),
    ("render.layout.ms", "ms"),
    ("render.layout.tasks_direct", "count"),
    ("render.layout.tasks_lod_binned", "count"),
    ("render.layout.tasks_culled", "count"),
    ("render.layout.lod_strips", "count"),
    ("render.raster.ms", "ms"),
    ("render.raster.pixels", "count"),
    ("render.png.ms", "ms"),
    ("render.png.bytes_in", "bytes"),
    ("render.png.bytes_out", "bytes"),
    ("serve.req_ms_p50.light", "ms"),
    ("serve.req_ms_tail.light", "ms"),
    ("serve.req_ms_p50.loaded", "ms"),
    ("serve.req_ms_tail.loaded", "ms"),
    ("serve.max_rps_slo", "1/s"),
    ("serve.body_cache.hit_ratio", "ratio"),
    ("serve.tile_cache.hit_ratio", "ratio"),
    ("serve.plan_cache.hit_ratio", "ratio"),
    ("serve.prepared_cache.misses", "count"),
    ("serve.not_modified", "count"),
    ("serve.handler_ms", "ms"),
    ("serve.cache.ms", "ms"),
    ("serve.tiles.ms", "ms"),
    ("serve.handler_other.ms", "ms"),
    ("serve.client.ttfb_ms_p50", "ms"),
    ("serve.client.transfer_ms_p50", "ms"),
    ("serve.client.transfer_ms", "ms"),
    ("serve.client.conn_wait_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.wake_dispatch_ms", "ms"),
    ("serve.wake_dispatch_ms_tail", "ms"),
    ("serve.worker_busy_frac", "ratio"),
    ("gen.lag_ms", "ms"),
    ("gen.lag_ms_tail", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Operation accounting: `failed` counts errors, refusals and
/// mis-verified outputs alike (`failed / attempted` is the failed
/// fraction); `correct` is lost only to errors, wrong outputs, or a run
/// whose load generator fell behind — a refusal is a legitimate answer.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    failed: u64,
    errors: u64,
    wrong: u64,
    refused: u64,
    invalid: bool,
    /// The first few failure messages, for the stamp line.
    failures: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: BTreeMap<String, String>,
}

impl Report {
    /// Records a metric; the mode decides which names are printed.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// A free-form fact for the stamp line (sample counts, rates, …).
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.insert(key.to_string(), value);
    }

    fn remember(&mut self, why: &str) {
        if self.failures.len() < 8 {
            self.failures.push(why.to_string());
        }
    }

    /// An operation (already counted as attempted) that did not complete.
    pub fn error(&mut self, why: &str) {
        self.failed += 1;
        self.errors += 1;
        self.remember(why);
    }

    /// An operation whose output differs from its reference.
    pub fn wrong(&mut self, why: &str) {
        self.failed += 1;
        self.wrong += 1;
        self.remember(why);
    }

    /// An operation the program refused (503 / Retry-After).
    pub fn refused(&mut self) {
        self.failed += 1;
        self.refused += 1;
    }

    /// The measurement itself cannot be trusted.
    pub fn invalid(&mut self, why: &str) {
        self.invalid = true;
        self.remember(why);
    }

    /// One verification: attempted, and wrong unless `ok`.
    pub fn check(&mut self, ok: bool, why: &str) {
        self.attempted += 1;
        if !ok {
            self.wrong(why);
        }
    }

    /// Starts `peak_rss_mb` at the timed phase: hands the heap pages
    /// set-up freed back to the kernel, then resets the high-water mark
    /// (`VmHWM`) to the current resident set.
    pub fn peak_rss_start(&mut self) {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        self.note(
            "peak_rss_covers",
            if reset {
                "timed phase"
            } else {
                "whole process (reset refused)"
            }
            .to_string(),
        );
    }

    /// Ends `peak_rss_mb`: the high-water mark since `peak_rss_start`.
    pub fn peak_rss_end(&mut self) {
        if let Some(mb) = peak_rss_mb() {
            self.metric("peak_rss_mb", mb, "MB");
        }
    }

    /// Prints the stamp line and the result line. Returns whether every
    /// metric the mode requires was present and finite (the result line
    /// is malformed otherwise, and the run must not pass as one).
    pub fn print(mut self, args: &Args, stamp: &Stamp) -> bool {
        let mut complete = true;
        let mut out = BTreeMap::new();
        if args.trace {
            for &(name, unit) in PER_LAYER {
                let (v, u) = self.metrics.get(name).copied().unwrap_or((0.0, unit));
                out.insert(name, (v, u));
            }
        } else {
            for &name in END_TO_END {
                match self.metrics.get(name) {
                    Some(&m) => {
                        out.insert(name, m);
                    }
                    None => {
                        complete = false;
                        self.failures
                            .push(format!("metric {name} was not measured"));
                    }
                }
            }
        }
        for (name, (v, _)) in &out {
            if !v.is_finite() {
                complete = false;
                self.failures.push(format!("metric {name} is not finite"));
            }
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let mut s = String::from("{\"perfbench\":{");
        let _ = write!(
            s,
            "\"workload\":{},\"seed\":{},\"seconds\":{},\"mode\":{},\"commit\":{},\
             \"nproc\":{},\"rustc\":{},\"failed_frac\":{},\"errors\":{},\"wrong\":{},\
             \"refused\":{},\"invalid\":{},\"failures\":[",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            json_str(if args.trace { "trace" } else { "end_to_end" }),
            json_str(&stamp.commit),
            stamp.nproc,
            json_str(&stamp.rustc),
            failed_frac,
            self.errors,
            self.wrong,
            self.refused,
            self.invalid,
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_str(f));
        }
        s.push_str("],\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(k), json_str(v));
        }
        s.push_str("}}}");
        println!("{s}");

        let correct =
            complete && self.errors == 0 && self.wrong == 0 && !self.invalid && self.attempted > 0;
        let mut line = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (v, unit))) in out.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            // `+ 0.0` folds an empty sum's -0 into 0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            let _ = write!(
                line,
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            );
        }
        line.push_str("}}");
        println!("{line}");
        complete
    }
}

/// Where and how a result was produced.
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub rustc: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Stamp {
            commit: run("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: run("rustc", &["--version"]),
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_controls_and_quotes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// BENCHMARK.json at the repository root must list exactly the
    /// metrics this harness prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e = section("end_to_end");
        let names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END);
        let layers = section("per_layer");
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, want);
    }
}
