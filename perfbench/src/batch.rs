//! The batch workload `swf_birdseye`: figure export from a file on
//! disk, timed from the first byte read to the last figure byte in
//! memory, with every layer call made from here so a traced run can
//! bracket it. It replays `jedule render log.swf -f png -W 1920`: read a
//! million-job SWF log, parse, convert, prepare (lazily, inside layout),
//! lay out with LOD auto, rasterize, encode PNG.

use crate::ledger::{self, FigureLedger, FIGURE_SPAN};
use crate::report::Report;
use crate::stats::{median, Rng, Summary};
use crate::Args;
use jedule_core::obs::{self, Collector};
use jedule_core::{PreparedSchedule, Schedule};
use jedule_render::{raster, OutputFormat, RenderOptions, SceneStats};
use jedule_serve::cache::fnv1a64;
use jedule_workloads::swf::{write_swf, SwfHeader};
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::path::Path;
use std::time::{Duration, Instant};

const NODES: u32 = 1024;
const WIDTH: f64 = 1920.0;
const SWF_JOBS: usize = 1_000_000;
/// Cold figures timed for `setup_s` (median).
const SETUPS: usize = 3;

/// One exported figure: its PNG bytes plus the counters a traced run
/// reports.
struct Figure {
    png: Vec<u8>,
    /// The prepared bundle, handed out so it is freed after the clock
    /// stops: the metric ends when the figure bytes are in memory.
    prep: Option<PreparedSchedule>,
    stats: SceneStats,
    pixels: u64,
    png_in: u64,
    png_out: u64,
}

/// Counters summed over a run's figures (per-figure means reported).
#[derive(Default)]
struct Counts {
    figures: u64,
    direct: u64,
    binned: u64,
    culled: u64,
    strips: u64,
    pixels: u64,
    png_in: u64,
    png_out: u64,
}

impl Counts {
    fn add(&mut self, f: &Figure) {
        self.figures += 1;
        self.direct += f.stats.lod_direct as u64;
        self.binned += f.stats.lod_aggregated as u64;
        self.culled += f.stats.culled as u64;
        self.strips += f.stats.lod_strips as u64;
        self.pixels += f.pixels;
        self.png_in += f.png_in;
        self.png_out += f.png_out;
    }
}

fn png_options() -> RenderOptions {
    RenderOptions::default()
        .with_format(OutputFormat::Png)
        .with_size(WIDTH, None)
}

/// Lays out and encodes the PNG exactly as `render_prepared` does, but
/// one layer call at a time.
fn export(prep: &PreparedSchedule, opts: &RenderOptions) -> Figure {
    let scene = {
        let _s = obs::span("bench.layout");
        jedule_render::layout_prepared(prep, opts)
    };
    let canvas = {
        let _s = obs::span("bench.raster");
        raster::rasterize_threads(&scene, opts.threads)
    };
    let _s = obs::span("bench.png");
    let png = jedule_render::png::encode_with(&canvas, opts.threads);
    Figure {
        stats: scene.stats,
        pixels: (canvas.width * canvas.height) as u64,
        png_in: (canvas.height * (1 + canvas.width * 3)) as u64,
        png_out: png.len() as u64,
        png,
        prep: None,
    }
}

/// The CLI's SWF conversion (`args::swf_to_schedule`): cluster geometry
/// from the header, falling back to the widest job.
fn swf_schedule(src: &str, threads: usize) -> Result<Schedule, String> {
    let (header, jobs) = {
        let _s = obs::span("bench.swf");
        jedule_workloads::parse_swf_parallel(src, threads).map_err(|e| e.to_string())?
    };
    let _s = obs::span("bench.convert");
    let total_nodes = header
        .max_nodes
        .or(header.max_procs)
        .unwrap_or_else(|| jobs.iter().map(|j| j.procs).max().unwrap_or(1));
    let opts = ConvertOptions {
        cluster_name: header.computer.unwrap_or_else(|| "swf".to_string()),
        total_nodes: total_nodes.max(1),
        reserved: 0,
        highlight_user: None,
        task_attrs: false,
    };
    Ok(jedule_workloads::jobs_to_schedule(&jobs, &opts))
}

fn read_text(path: &Path) -> Result<String, String> {
    let _s = obs::span("bench.read");
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// One figure from the SWF log on disk.
fn swf_figure(path: &Path) -> Result<Figure, String> {
    let _f = obs::span(FIGURE_SPAN);
    let opts = png_options();
    let src = read_text(path)?;
    let prep = PreparedSchedule::new(swf_schedule(&src, opts.threads)?);
    drop(src);
    let mut fig = export(&prep, &opts);
    fig.prep = Some(prep);
    Ok(fig)
}

fn write_input(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The generated log, set-up time and the reference digest every timed
/// figure must reproduce.
struct Setup {
    input: std::path::PathBuf,
    reference: u64,
    setup_s: f64,
}

fn setup(args: &Args, dir: &Path, report: &mut Report) -> Result<Setup, String> {
    let seed = Rng::fork(args.seed, 0x5746).next_u64();
    let input = dir.join("log.swf");
    {
        let jobs: Vec<_> = synth_scale_trace(SWF_JOBS, NODES, seed)
            .into_iter()
            .map(|a| a.job)
            .collect();
        let header = SwfHeader {
            computer: Some("scale".into()),
            max_nodes: Some(NODES),
            max_procs: Some(NODES),
            raw: Vec::new(),
        };
        write_input(&input, &write_swf(&header, &jobs))?;
    }
    // Set-up is the program's cold first figure through the one-call
    // `render_prepared`, exactly the CLI path, several times; its bytes
    // are the reference every layered figure must reproduce.
    let opts = png_options();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let src = std::fs::read_to_string(&input).map_err(|e| e.to_string())?;
        let prep = PreparedSchedule::new(swf_schedule(&src, opts.threads)?);
        drop(src);
        let bytes = jedule_render::render_prepared(&prep, &opts);
        setups.push(t.elapsed().as_secs_f64());
        drop(prep);
        report.check(!bytes.is_empty(), "reference figure is empty");
        digests.push(fnv1a64(&bytes));
    }
    report.check(
        digests.windows(2).all(|w| w[0] == w[1]),
        "cold figures of the same log differ",
    );
    report.note("input_jobs", SWF_JOBS.to_string());
    Ok(Setup {
        input,
        reference: digests[0],
        setup_s: median(&setups),
    })
}

/// Runs `swf_birdseye` and fills `report`.
pub fn run(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let spec = setup(args, dir, report)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut ledgers: Vec<FigureLedger> = Vec::new();
    let mut counts = Counts::default();
    let mut figure_bytes = Vec::new();
    report.peak_rss_start();
    let started = Instant::now();
    // Figure 0 warms the allocator and page cache and is checked but
    // not timed. A traced run then alternates plain and traced figures
    // so both see the same machine state; the plain ones give the
    // overhead baseline.
    let mut i = 0usize;
    while i < 3 || started.elapsed() < budget {
        let warm_up = i == 0;
        let traced = args.trace && !warm_up && i.is_multiple_of(2);
        let col = traced.then(Collector::new);
        let t = Instant::now();
        let fig = {
            let _g = col.as_ref().map(Collector::install);
            swf_figure(&spec.input)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        let fig = match fig {
            Ok(f) => f,
            Err(e) => {
                report.error(&e);
                i += 1;
                continue;
            }
        };
        if fnv1a64(&fig.png) != spec.reference {
            report.wrong("figure bytes differ from the render_prepared reference");
        }
        figure_bytes.push(fig.png.len() as f64);
        match col {
            _ if warm_up => {}
            Some(c) => {
                traced_ms.push(ms);
                ledgers.extend(ledger::figure_ledgers(&c.report()));
                counts.add(&fig);
            }
            None => plain_ms.push(ms),
        }
        drop(fig);
        i += 1;
    }
    report.peak_rss_end();

    report.metric("setup_s", spec.setup_s, "s");
    if args.trace {
        per_layer(report, &plain_ms, &traced_ms, &ledgers, &counts);
        return Ok(());
    }
    let s = Summary::of(&plain_ms).ok_or("no figure completed")?;
    report.note("figures", s.n.to_string());
    // The tail is stated, not a metric: a run's few figures leave fewer
    // than ten beyond any percentile worth naming.
    report.note("figure_ms_tail", s.tail_note());
    report.metric("figure_ms_p50", s.p50, "ms");
    let bytes = median(&figure_bytes);
    report.metric("figure_bytes", bytes, "bytes");
    // Batch export has no transport: the figure bytes are what crosses
    // to the consumer.
    report.metric("wire_bytes_per_req", bytes, "bytes");
    Ok(())
}

fn per_layer(
    report: &mut Report,
    plain_ms: &[f64],
    traced_ms: &[f64],
    ledgers: &[FigureLedger],
    c: &Counts,
) {
    let n = ledgers.len().max(1) as f64;
    for layer in ledger::layer_names() {
        let total: f64 = ledgers.iter().filter_map(|l| l.layers_ms.get(layer)).sum();
        report.metric(layer, total / n, "ms");
    }
    let wall: f64 = ledgers.iter().map(|l| l.wall_ms).sum();
    let unattributed: f64 = ledgers.iter().map(|l| l.unattributed_ms).sum();
    report.metric(
        "trace.unattributed_pct",
        100.0 * unattributed / wall.max(f64::MIN_POSITIVE),
        "%",
    );
    if !plain_ms.is_empty() && !traced_ms.is_empty() {
        let (p, t) = (median(plain_ms), median(traced_ms));
        report.metric("trace.overhead_pct", 100.0 * (t - p) / p, "%");
    }
    let f = c.figures.max(1) as f64;
    report.metric("render.layout.tasks_direct", c.direct as f64 / f, "count");
    report.metric(
        "render.layout.tasks_lod_binned",
        c.binned as f64 / f,
        "count",
    );
    report.metric("render.layout.tasks_culled", c.culled as f64 / f, "count");
    report.metric("render.layout.lod_strips", c.strips as f64 / f, "count");
    report.metric("render.raster.pixels", c.pixels as f64 / f, "count");
    report.metric("render.png.bytes_in", c.png_in as f64 / f, "bytes");
    report.metric("render.png.bytes_out", c.png_out as f64 / f, "bytes");
}
