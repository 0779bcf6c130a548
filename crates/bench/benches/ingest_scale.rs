//! Ingest scale benchmarks: chunked parallel parsing of million-job SWF
//! traces and their conversion to a schedule (node-assignment replay
//! plus task building), the CSV/JSONL schedule readers, and the
//! `PreparedSchedule` repeat-window render.
//!
//! These back the PR's acceptance numbers (see BENCH_ingest.json): at
//! one million jobs the parallel parse at 4+ threads should beat the
//! sequential parse by ≥ 3× on a multi-core host, and serving a series
//! of window renders from one `PreparedSchedule` should beat cold
//! per-frame renders by ≥ 2×.
//!
//! Set `JEDULE_BENCH_QUICK=1` to shrink sizes and sample counts so CI
//! can smoke-test the harness in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jedule_core::{PreparedSchedule, Schedule};
use jedule_render::{render, render_prepared, LodMode, RenderOptions};
use jedule_workloads::convert::{assigned_to_schedule, workload_colormap};
use jedule_workloads::swf::{parse_swf, parse_swf_parallel, write_swf};
use jedule_workloads::{jobs_to_schedule, synth_scale_trace, ConvertOptions};
use std::hint::black_box;

const NODES: u32 = 1024;
const WIDTH: f64 = 1920.0;

fn quick() -> bool {
    std::env::var_os("JEDULE_BENCH_QUICK").is_some()
}

fn scale_options() -> ConvertOptions {
    ConvertOptions {
        cluster_name: "scale".into(),
        total_nodes: NODES,
        reserved: 0,
        highlight_user: None,
        task_attrs: false,
    }
}

fn scale_schedule(jobs: usize) -> Schedule {
    let assigned = synth_scale_trace(jobs, NODES, 20070202);
    assigned_to_schedule(&assigned, &scale_options())
}

fn birdseye_options() -> RenderOptions {
    let mut o = RenderOptions::default()
        .with_size(WIDTH, None)
        .with_colormap(workload_colormap())
        .with_lod(LodMode::Off);
    o.show_labels = false;
    o.show_meta = false;
    o.show_composites = false;
    o
}

/// Sequential vs chunked parallel SWF parse of a big trace. Thread
/// counts beyond the host's core count measure splice overhead only.
fn bench_swf_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_swf_parse");
    g.sample_size(if quick() { 3 } else { 10 });
    let n = if quick() { 20_000 } else { 1_000_000 };
    let jobs: Vec<_> = synth_scale_trace(n, NODES, 7)
        .into_iter()
        .map(|a| a.job)
        .collect();
    let text = write_swf(&Default::default(), &jobs);
    g.bench_with_input(BenchmarkId::new("sequential", n), &text, |b, t| {
        b.iter(|| black_box(parse_swf(t).unwrap()))
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new(format!("parallel_j{threads}"), n),
            &text,
            |b, t| b.iter(|| black_box(parse_swf_parallel(t, threads).unwrap())),
        );
    }
    g.finish();
}

/// SWF conversion of the parsed log: the node-assignment replay plus
/// task building, the step `jedule render log.swf` runs between parse
/// and prepare.
fn bench_swf_convert(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_swf_convert");
    g.sample_size(if quick() { 3 } else { 10 });
    let n = if quick() { 20_000 } else { 1_000_000 };
    let jobs: Vec<_> = synth_scale_trace(n, NODES, 7)
        .into_iter()
        .map(|a| a.job)
        .collect();
    let (_, jobs) = parse_swf(&write_swf(&Default::default(), &jobs)).unwrap();
    let opts = scale_options();
    g.bench_with_input(BenchmarkId::new("jobs_to_schedule", n), &jobs, |b, j| {
        b.iter(|| black_box(jobs_to_schedule(j, &opts)))
    });
    g.finish();
}

/// Sequential vs parallel line-oriented schedule readers (CSV/JSONL).
fn bench_schedule_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest_schedule_read");
    g.sample_size(if quick() { 3 } else { 10 });
    let n = if quick() { 5_000 } else { 200_000 };
    let s = scale_schedule(n);
    let csv = jedule_xmlio::write_schedule_csv(&s);
    let jsonl = jedule_xmlio::write_schedule_jsonl(&s);
    g.bench_with_input(BenchmarkId::new("csv_sequential", n), &csv, |b, t| {
        b.iter(|| black_box(jedule_xmlio::read_schedule_csv(t).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("csv_parallel_j4", n), &csv, |b, t| {
        b.iter(|| black_box(jedule_xmlio::read_schedule_csv_parallel(t, 4).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("jsonl_sequential", n), &jsonl, |b, t| {
        b.iter(|| black_box(jedule_xmlio::read_schedule_jsonl(t).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("jsonl_parallel_j4", n), &jsonl, |b, t| {
        b.iter(|| black_box(jedule_xmlio::read_schedule_jsonl_parallel(t, 4).unwrap()))
    });
    g.finish();
}

/// The interactive pattern: a series of 1% window renders. Cold path
/// rebuilds index/extent/kinds per frame; the prepared path builds them
/// once and serves every frame from the cache.
fn bench_prepared_windows(c: &mut Criterion) {
    let mut g = c.benchmark_group("prepared_window_series");
    g.sample_size(if quick() { 3 } else { 10 });
    let n = if quick() { 20_000 } else { 1_000_000 };
    let s = scale_schedule(n);
    let lo = s
        .tasks
        .iter()
        .map(|t| t.start)
        .fold(f64::INFINITY, f64::min);
    let hi = s
        .tasks
        .iter()
        .map(|t| t.end)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo) * 0.01;
    let windows: Vec<(f64, f64)> = (0..8)
        .map(|i| {
            let t0 = lo + (hi - lo) * (0.1 + 0.1 * i as f64);
            (t0, t0 + span)
        })
        .collect();
    g.bench_with_input(BenchmarkId::new("cold_per_frame", n), &s, |b, s| {
        b.iter(|| {
            for &(t0, t1) in &windows {
                let o = birdseye_options().with_time_window(t0, t1);
                black_box(render(s, &o));
            }
        })
    });
    g.bench_with_input(BenchmarkId::new("prepared", n), &s, |b, s| {
        let prep = PreparedSchedule::new(s.clone());
        prep.warm();
        b.iter(|| {
            for &(t0, t1) in &windows {
                let o = birdseye_options().with_time_window(t0, t1);
                black_box(render_prepared(&prep, &o));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_swf_ingest,
    bench_swf_convert,
    bench_schedule_ingest,
    bench_prepared_windows
);
criterion_main!(benches);
