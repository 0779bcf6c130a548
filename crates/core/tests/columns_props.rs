//! Property tests of the columnar task view: [`TaskColumns`] must be a
//! faithful struct-of-arrays replay of `Vec<Task>` — same spans, same
//! kind slots, same host-lane segments in the same walk order — and the
//! index-free composite sweep over the columns must reproduce, content
//! and order, a reference sweep fed by the per-host interval index rows
//! for every worker count.

use jedule_core::composite::{ATTR_IDS, ATTR_TYPES, COMPOSITE_KIND};
use jedule_core::{
    composite_tasks, composite_tasks_columnar, Allocation, Cluster, CompositeOptions, HostSet,
    Schedule, ScheduleBuilder, ScheduleIndex, Task, TaskColumns,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Schedules with multi-allocation tasks and possibly non-contiguous
/// host sets, so the CSR flattening sees several segments per task.
fn arb_schedule() -> BoxedStrategy<Schedule> {
    let alloc = (0u32..2, proptest::collection::btree_set(0u32..8, 1..5))
        .prop_map(|(cluster, hosts)| Allocation::new(cluster, HostSet::from_hosts(hosts)));
    proptest::collection::vec(
        (
            0.0f64..50.0,
            0.0f64..10.0,
            0usize..3,
            proptest::collection::vec(alloc, 0..3),
        ),
        0..40,
    )
    .prop_map(|tasks| {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "alpha", 8)
            .cluster(1, "beta", 8);
        for (i, (start, dur, kind, allocs)) in tasks.into_iter().enumerate() {
            let mut t = Task::new(format!("t{i}"), ["a", "b", "c"][kind], start, start + dur);
            for a in allocs {
                t = t.on(a);
            }
            b = b.task(t);
        }
        b.build().expect("generated schedule is valid")
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every column is a bit-exact replay of the task walk.
    #[test]
    fn columns_replay_the_task_walk(s in arb_schedule()) {
        let cols = TaskColumns::build(&s);
        prop_assert_eq!(cols.len(), s.tasks.len());
        for (ti, t) in s.tasks.iter().enumerate() {
            prop_assert_eq!(cols.starts()[ti].to_bits(), t.start.to_bits());
            prop_assert_eq!(cols.ends()[ti].to_bits(), t.end.to_bits());
            prop_assert_eq!(&cols.kind_names()[cols.kind_ids()[ti] as usize], &t.kind);
            let want: Vec<(u32, u32, u32)> = t
                .allocations
                .iter()
                .flat_map(|a| {
                    a.hosts
                        .ranges()
                        .iter()
                        .map(|r| (a.cluster, r.start, r.nb))
                })
                .collect();
            let got: Vec<(u32, u32, u32)> = cols
                .segs(ti)
                .map(|seg| (seg.cluster, seg.row0, seg.nrows))
                .collect();
            prop_assert_eq!(got, want, "task {}", ti);
            for cid in [0u32, 1, 7] {
                prop_assert_eq!(
                    cols.on_cluster(ti, cid),
                    t.allocations.iter().any(|a| a.cluster == cid)
                );
            }
        }
        // Kind list equals the legend scan.
        let names: Vec<&str> = cols.kind_names().iter().map(String::as_str).collect();
        prop_assert_eq!(names, s.task_types());
    }

    /// The index-free sweep equals the index-fed reference — content
    /// and order — for every worker count, on schedules with duplicate
    /// host listings, dangling and out-of-range allocations, zero-length
    /// and touching tasks, sub-`min_duration` jitter and equal starts. A
    /// negative `min_duration` keeps zero-width segments, whose task sets
    /// depend on the order tied events are swept in, so it pins that
    /// order too.
    #[test]
    fn composites_match_index_fed_reference(
        s in arb_hostile_schedule(),
        threads_idx in 0usize..3,
        min_idx in 0usize..3,
    ) {
        let min_duration = [1e-12, 0.25, -1.0][min_idx];
        let base = reference_composites(&s, min_duration);
        let cols = TaskColumns::build(&s);
        let opts = CompositeOptions {
            min_duration,
            threads: [1usize, 2, 5][threads_idx],
        };
        prop_assert_eq!(composite_tasks_columnar(&s, &cols, &opts), base.clone());
        prop_assert_eq!(composite_tasks(&s, &opts), base);
    }
}

/// Times on a coarse grid (so starts tie and tasks touch) plus, for some
/// tasks, a jitter below either positive `min_duration` tested; and the
/// signed zeros, which compare equal but sweep in `total_cmp` order
/// (`-1 + 1` ends at `+0.0`, a start may be `-0.0`).
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..12, prop_oneof![Just(0.0), Just(1e-13), Just(0.1)])
            .prop_map(|(grid, jitter)| f64::from(grid) + jitter),
        Just(-0.0),
        Just(-1.0),
    ]
}

/// Schedules built without validation: cluster 7 is unknown, and host
/// ids reach past both clusters' host counts (8 and 6).
fn arb_hostile_schedule() -> BoxedStrategy<Schedule> {
    let alloc = (
        (0usize..9).prop_map(|k| [0u32, 0, 0, 0, 1, 1, 1, 1, 7][k]),
        proptest::collection::btree_set(0u32..10, 1..4),
    )
        .prop_map(|(cluster, hosts)| Allocation::new(cluster, HostSet::from_hosts(hosts)));
    let duration = prop_oneof![Just(0.0), (1u32..4).prop_map(f64::from), arb_time(),];
    proptest::collection::vec(
        (
            arb_time(),
            duration,
            0usize..3,
            proptest::collection::vec(alloc, 0..3),
            any::<bool>(),
        ),
        0..40,
    )
    .prop_map(|tasks| {
        let mut s = Schedule {
            clusters: vec![Cluster::new(0, "alpha", 8), Cluster::new(1, "beta", 6)],
            tasks: Vec::new(),
            meta: Default::default(),
        };
        for (i, (start, dur, kind, allocs, dup)) in tasks.into_iter().enumerate() {
            let mut t = Task::new(format!("t{i}"), ["a", "b", "c"][kind], start, start + dur);
            // `dup` lists the first allocation's hosts a second time.
            let again = allocs.first().filter(|_| dup).cloned();
            for a in allocs.into_iter().chain(again) {
                t = t.on(a);
            }
            s.tasks.push(t);
        }
        s
    })
    .boxed()
}

/// The composite sweep as it ran before it went index-free: each host's
/// task list is the interval index's host row, swept for overlaps, then
/// identical segments are merged across hosts and sorted. Kept here,
/// sequential, as the reference the columnar sweep must reproduce.
fn reference_composites(schedule: &Schedule, min_duration: f64) -> Vec<Task> {
    let index = ScheduleIndex::build_with_hosts(schedule);
    let mut out = Vec::new();
    for cluster in &schedule.clusters {
        let Some(ci) = index.cluster(cluster.id) else {
            continue;
        };
        type Key = (u64, u64, Vec<usize>);
        let mut groups: HashMap<Key, Vec<u32>> = HashMap::new();
        for h in 0..cluster.hosts {
            let row: Vec<usize> = ci
                .host(h)
                .map(|seq| seq.entries().iter().map(|e| e.task as usize).collect())
                .unwrap_or_default();
            for (start, end, tasks) in reference_host_overlaps(schedule, &row, min_duration) {
                groups
                    .entry((start.to_bits(), end.to_bits(), tasks))
                    .or_default()
                    .push(h);
            }
        }
        let mut segs: Vec<(Key, Vec<u32>)> = groups.into_iter().collect();
        segs.sort_by(|a, b| {
            f64::from_bits(a.0 .0)
                .total_cmp(&f64::from_bits(b.0 .0))
                .then(f64::from_bits(a.0 .1).total_cmp(&f64::from_bits(b.0 .1)))
                .then(a.0 .2.cmp(&b.0 .2))
        });
        for ((s_bits, e_bits, task_idx), hosts) in segs {
            let ids: Vec<&str> = task_idx
                .iter()
                .map(|&i| schedule.tasks[i].id.as_str())
                .collect();
            let mut types: Vec<&str> = task_idx
                .iter()
                .map(|&i| schedule.tasks[i].kind.as_str())
                .collect();
            types.sort_unstable();
            types.dedup();
            out.push(
                Task::new(
                    ids.join("+"),
                    COMPOSITE_KIND,
                    f64::from_bits(s_bits),
                    f64::from_bits(e_bits),
                )
                .on(Allocation::new(cluster.id, HostSet::from_hosts(hosts)))
                .with_attr(ATTR_IDS, ids.join("+"))
                .with_attr(ATTR_TYPES, types.join("+")),
            );
        }
    }
    out
}

/// One host's event sweep: maximal segments with ≥ 2 active tasks.
fn reference_host_overlaps(
    schedule: &Schedule,
    row: &[usize],
    min_duration: f64,
) -> Vec<(f64, f64, Vec<usize>)> {
    let mut events: Vec<(f64, i32, usize)> = Vec::new();
    for &ti in row {
        let t = &schedule.tasks[ti];
        if t.end > t.start {
            events.push((t.start, 1, ti));
            events.push((t.end, -1, ti));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active: Vec<usize> = Vec::new();
    let mut out: Vec<(f64, f64, Vec<usize>)> = Vec::new();
    let mut prev_t = f64::NEG_INFINITY;
    for (t, delta, ti) in events {
        if active.len() >= 2 && t - prev_t > min_duration {
            let mut tasks = active.clone();
            tasks.sort_unstable();
            match out.last_mut() {
                Some(last) if last.2 == tasks && (last.1 - prev_t).abs() < min_duration => {
                    last.1 = t;
                }
                _ => out.push((prev_t, t, tasks)),
            }
        }
        if delta > 0 {
            active.push(ti);
        } else if let Some(pos) = active.iter().position(|&x| x == ti) {
            active.swap_remove(pos);
        }
        prev_t = t;
    }
    out
}

fn one_cluster(hosts: u32, tasks: Vec<Task>) -> Schedule {
    Schedule {
        clusters: vec![Cluster::new(0, "c0", hosts)],
        tasks,
        meta: Default::default(),
    }
}

fn assert_matches_reference(s: &Schedule) -> Vec<Task> {
    let base = reference_composites(s, CompositeOptions::default().min_duration);
    for threads in [1, 2, 5] {
        let opts = CompositeOptions::default().with_threads(threads);
        assert_eq!(composite_tasks(s, &opts), base, "threads={threads}");
    }
    base
}

#[test]
fn one_overlapping_host_among_1024() {
    // Every host runs back-to-back (touching) tasks; host 517 alone gets
    // a third task overlapping its first two.
    let mut tasks = Vec::new();
    for h in 0..1024u32 {
        for k in 0..3u32 {
            let t0 = f64::from(k) * 2.0;
            tasks.push(
                Task::new(format!("h{h}k{k}"), "computation", t0, t0 + 2.0)
                    .on(Allocation::contiguous(0, h, 1)),
            );
        }
    }
    tasks.push(Task::new("x", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 517, 1)));
    let comps = assert_matches_reference(&one_cluster(1024, tasks));
    let ids: Vec<&str> = comps.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids, ["h517k0+x", "h517k1+x"]);
    for c in &comps {
        assert_eq!(c.allocations[0].hosts, HostSet::contiguous(517, 1));
    }
}

#[test]
fn every_host_overlapping() {
    // The `overlap_pairs` bench shape: a computation and a transfer
    // overlap on each of 32 hosts, repeated down the timeline.
    let mut tasks = Vec::new();
    for i in 0..2_000usize {
        let h = (i as u32) % 32;
        let t = (i / 32) as f64 * 2.0;
        tasks.push(
            Task::new(format!("c{i}"), "computation", t, t + 2.0)
                .on(Allocation::contiguous(0, h, 1)),
        );
        tasks.push(
            Task::new(format!("x{i}"), "transfer", t + 1.0, t + 1.8)
                .on(Allocation::contiguous(0, h, 1)),
        );
    }
    assert_eq!(
        assert_matches_reference(&one_cluster(32, tasks)).len(),
        2_000
    );
}
