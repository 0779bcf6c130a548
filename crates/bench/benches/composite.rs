//! Fig. 3 family: composite-task computation on overlap-heavy schedules,
//! and on a bird's-eye batch trace where no two jobs share a node.
//!
//! Set `JEDULE_BENCH_QUICK=1` to shrink the bird's-eye trace so CI can
//! smoke-test the harness in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jedule_core::{composite_tasks, Allocation, CompositeOptions, Schedule, ScheduleBuilder, Task};
use jedule_workloads::convert::assigned_to_schedule;
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var_os("JEDULE_BENCH_QUICK").is_some()
}

/// A schedule where computation and transfers overlap on every host — the
/// §II-C3 scenario at scale.
fn overlapping_schedule(tasks: usize, hosts: u32) -> Schedule {
    let mut b = ScheduleBuilder::new().cluster(0, "c0", hosts);
    for i in 0..tasks {
        let h = (i as u32) % hosts;
        let t = (i / hosts as usize) as f64 * 2.0;
        b = b
            .task(
                Task::new(format!("c{i}"), "computation", t, t + 2.0)
                    .on(Allocation::contiguous(0, h, 1)),
            )
            .task(
                Task::new(format!("x{i}"), "transfer", t + 1.0, t + 1.8)
                    .on(Allocation::contiguous(0, h, 1)),
            );
    }
    b.build_unchecked()
}

/// The `birdseye_scale` trace (1024 nodes, seed 20070202): node
/// assignment never lets two jobs share a node, so no host row overlaps
/// and the sweep should cost little more than one ordered pass.
fn disjoint_schedule(jobs: usize) -> Schedule {
    let opts = ConvertOptions {
        cluster_name: "scale".into(),
        total_nodes: 1024,
        reserved: 0,
        highlight_user: None,
        task_attrs: false,
    };
    assigned_to_schedule(&synth_scale_trace(jobs, 1024, 20070202), &opts)
}

fn bench_composites(c: &mut Criterion) {
    let mut g = c.benchmark_group("composite_tasks");
    g.sample_size(10);
    for &n in &[500usize, 5_000, 50_000] {
        let s = overlapping_schedule(n, 32);
        g.bench_with_input(BenchmarkId::new("overlap_pairs", n), &s, |b, s| {
            b.iter(|| black_box(composite_tasks(s, &CompositeOptions::default())))
        });
    }
    let jobs = if quick() { 20_000 } else { 1_000_000 };
    let s = disjoint_schedule(jobs);
    g.bench_with_input(BenchmarkId::new("disjoint_lanes", jobs), &s, |b, s| {
        b.iter(|| black_box(composite_tasks(s, &CompositeOptions::default())))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let s = overlapping_schedule(20_000, 32);
    let mut g = c.benchmark_group("schedule_stats");
    g.sample_size(10);
    g.bench_function("stats_40k_tasks", |b| {
        b.iter(|| black_box(jedule_core::stats::schedule_stats(&s)))
    });
    g.bench_function("idle_holes_40k_tasks", |b| {
        b.iter(|| black_box(jedule_core::stats::idle_holes(&s, 0.01)))
    });
    g.finish();
}

criterion_group!(benches, bench_composites, bench_stats);
criterion_main!(benches);
