//! Composite tasks (paper, §II-C3 and Fig. 3).
//!
//! A parallel system may execute tasks concurrently on the same resource.
//! For every resource shared by several tasks at the same time, Jedule
//! creates a *composite task* whose identifier is the concatenation of the
//! single task IDs and whose type is `"composite"`. The classic example is
//! the overlap of computation and communication on one host.
//!
//! The algorithm reads the columnar task view ([`TaskColumns`]) only —
//! no interval index — in three steps:
//!
//! 1. **Order.** Tasks are argsorted by `(start, task index)` (the
//!    `f64::total_cmp` order of the start).
//! 2. **Flag.** One pass in that order keeps, per host row, the latest
//!    end seen so far; a row is flagged when a positive-length task starts
//!    strictly before it. Flagged rows are a superset of the rows with
//!    composites: a row that is never flagged never has two tasks active
//!    at once, so its sweep would be empty. On a bird's-eye trace where no
//!    two jobs share a node, no row is flagged and the step below never
//!    runs.
//! 3. **Sweep.** Only flagged rows gather their task lists (in the same
//!    order, each task once) and sweep their timelines; identical overlap
//!    segments on different hosts are merged, so a composite spanning many
//!    hosts becomes a single multi-host task (one rectangle per contiguous
//!    host run).

use crate::columns::TaskColumns;
use crate::hostset::HostSet;
use crate::model::{Allocation, Cluster, Schedule, Task};
use crate::parallel::{chunk_bounds, effective_threads};
use std::collections::HashMap;

/// The type name assigned to generated composite tasks.
pub const COMPOSITE_KIND: &str = "composite";

/// Attribute key carrying the `+`-joined constituent task types.
pub const ATTR_TYPES: &str = "constituent_types";

/// Attribute key carrying the `+`-joined constituent task ids.
pub const ATTR_IDS: &str = "constituent_ids";

/// Options controlling composite computation.
#[derive(Debug, Clone, Copy)]
pub struct CompositeOptions {
    /// Overlap segments shorter than this are ignored (guards against
    /// floating-point touching of task boundaries).
    pub min_duration: f64,
    /// Worker threads for the per-host sweep: `0` = available
    /// parallelism, `1` = sequential. The output is identical for every
    /// worker count (hosts are chunked and merged in index order).
    pub threads: usize,
}

impl Default for CompositeOptions {
    fn default() -> Self {
        CompositeOptions {
            min_duration: 1e-12,
            threads: 0,
        }
    }
}

impl CompositeOptions {
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Key identifying a merged overlap segment: bit-exact start/end times
/// plus the sorted constituent task indices.
type SegKey = (u64, u64, Vec<usize>);

/// An overlap segment on one host before cross-host merging.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    start: f64,
    end: f64,
    /// Sorted indices of the overlapping tasks.
    tasks: Vec<usize>,
}

/// Computes the composite tasks of a schedule.
///
/// Returned tasks have type [`COMPOSITE_KIND`], an id of the form
/// `id1+id2+…`, and attributes [`ATTR_IDS`] / [`ATTR_TYPES`] used by color
/// maps to resolve composite colors.
pub fn composite_tasks(schedule: &Schedule, opts: &CompositeOptions) -> Vec<Task> {
    composite_tasks_columnar(schedule, &TaskColumns::build(schedule), opts)
}

/// [`composite_tasks`] over a pre-built columnar view of `schedule` (the
/// render pipeline's cached one), so the spans and host lanes are not
/// flattened again.
pub fn composite_tasks_columnar(
    schedule: &Schedule,
    cols: &TaskColumns,
    opts: &CompositeOptions,
) -> Vec<Task> {
    let (starts, ends) = (cols.starts(), cols.ends());
    let span_of = |ti: usize| (starts[ti], ends[ti]);
    let lanes = Lanes::new(&schedule.clusters);
    let order = start_order(cols);
    let flagged = flag_rows(cols, &order, &lanes);
    let rows = gather_rows(cols, &order, &lanes, &flagged);

    let mut out = Vec::new();
    for cluster in &schedule.clusters {
        // A duplicated cluster id resolves to its first declaration, as
        // everywhere else ([`crate::ScheduleIndex::cluster`]).
        let Some(slot) = lanes.slot(cluster.id) else {
            continue;
        };
        let base = lanes.base[slot];
        let hosts = (cluster.hosts as usize).min(lanes.base[slot + 1] - base);

        // Sweep each flagged host (in parallel across hosts); key segments
        // by (bit-exact times, task set). The work list and the merge
        // below are both in ascending host order regardless of the worker
        // count, so the result is deterministic.
        let lo = rows.partition_point(|(row, _)| *row < base);
        let hi = rows.partition_point(|(row, _)| *row < base + hosts);
        let work: Vec<(u32, &[usize])> = rows[lo..hi]
            .iter()
            .filter(|(_, tasks)| tasks.len() >= 2)
            .map(|(row, tasks)| ((row - base) as u32, tasks.as_slice()))
            .collect();
        let workers = effective_threads(opts.threads).min(work.len()).max(1);

        let swept: Vec<Vec<(u32, Vec<Segment>)>> = if workers <= 1 {
            vec![work
                .iter()
                .map(|&(host, tasks)| (host, host_overlaps(&span_of, tasks, opts)))
                .collect()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunk_bounds(work.len(), workers)
                    .into_iter()
                    .map(|(lo, hi)| {
                        let items = &work[lo..hi];
                        let span_of = &span_of;
                        scope.spawn(move || {
                            items
                                .iter()
                                .map(|&(host, tasks)| (host, host_overlaps(span_of, tasks, opts)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("composite sweep worker panicked"))
                    .collect()
            })
        };

        let mut groups: HashMap<SegKey, Vec<u32>> = HashMap::new();
        for (host, segs) in swept.into_iter().flatten() {
            for seg in segs {
                groups
                    .entry((seg.start.to_bits(), seg.end.to_bits(), seg.tasks))
                    .or_default()
                    .push(host);
            }
        }

        let mut segs: Vec<(SegKey, Vec<u32>)> = groups.into_iter().collect();
        // Deterministic output order: by start, end, then constituent ids.
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
            let task = Task::new(
                ids.join("+"),
                COMPOSITE_KIND,
                f64::from_bits(s_bits),
                f64::from_bits(e_bits),
            )
            .on(Allocation::new(cluster.id, HostSet::from_hosts(hosts)))
            .with_attr(ATTR_IDS, ids.join("+"))
            .with_attr(ATTR_TYPES, types.join("+"));
            out.push(task);
        }
    }
    out
}

/// Sort key of a time: the `f64::total_cmp` order as an unsigned word.
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The host rows of every cluster laid end to end: cluster slot `c`
/// (declaration order) owns global rows `base[c]..base[c + 1]`.
struct Lanes<'a> {
    clusters: &'a [Cluster],
    base: Vec<usize>,
}

impl<'a> Lanes<'a> {
    fn new(clusters: &'a [Cluster]) -> Self {
        let mut base = Vec::with_capacity(clusters.len() + 1);
        let mut next = 0usize;
        base.push(next);
        for c in clusters {
            next += c.hosts as usize;
            base.push(next);
        }
        Lanes { clusters, base }
    }

    fn rows(&self) -> usize {
        self.base[self.clusters.len()]
    }

    /// Slot of the first cluster declared with `id`.
    fn slot(&self, id: u32) -> Option<usize> {
        self.clusters.iter().position(|c| c.id == id)
    }

    /// Calls `f` with every global row task `ti` occupies, in segment
    /// walk order. Dangling cluster ids and rows beyond a cluster's host
    /// count are skipped.
    #[inline]
    fn for_rows(&self, cols: &TaskColumns, ti: usize, mut f: impl FnMut(usize)) {
        let (clusters, row0, nrows) = (cols.seg_clusters(), cols.seg_row0(), cols.seg_nrows());
        for si in cols.seg_range(ti) {
            let Some(slot) = self.slot(clusters[si]) else {
                continue;
            };
            let (base, end) = (self.base[slot], self.base[slot + 1]);
            let hi = (base + row0[si] as usize + nrows[si] as usize).min(end);
            let lo = (base + row0[si] as usize).min(hi);
            (lo..hi).for_each(&mut f);
        }
    }
}

/// The tasks that can take part in an overlap — positive length and at
/// least one host segment — argsorted by `(start, task index)`, the order
/// a host's timeline lists its tasks in.
fn start_order(cols: &TaskColumns) -> Vec<(u64, u64)> {
    let (starts, ends) = (cols.starts(), cols.ends());
    let mut order: Vec<(u64, u64)> = (0..cols.len())
        .filter(|&ti| ends[ti] > starts[ti] && !cols.seg_range(ti).is_empty())
        .map(|ti| (time_key(starts[ti]), ti as u64))
        .collect();
    order.sort_unstable();
    order
}

/// No task yet on a row.
const NO_TASK: u64 = u64::MAX;

/// Flags every row on which a task starts strictly before an
/// earlier-starting task ends. If the sweep ever sees tasks `x` and `y`
/// active together, `x` starting first, then `x` comes first in `order`
/// and `y` starts before `x` ends, hence before the row's running maximum
/// end: the row is flagged. Times compare as `total_cmp` keys — the order
/// of the sweep's event sort, where `-0.0` comes before `+0.0`. A task
/// listing a row twice is not compared with itself.
fn flag_rows(cols: &TaskColumns, order: &[(u64, u64)], lanes: &Lanes) -> Vec<bool> {
    let ends = cols.ends();
    // Per row: (latest end key so far, last task). End key 0 sorts below
    // every start key, so an untouched row never flags.
    let mut state = vec![(0u64, NO_TASK); lanes.rows()];
    let mut flagged = vec![false; lanes.rows()];
    for &(start_key, ti) in order {
        let end_key = time_key(ends[ti as usize]);
        lanes.for_rows(cols, ti as usize, |row| {
            let (busy_until, last) = &mut state[row];
            if *last != ti {
                flagged[row] |= start_key < *busy_until;
                *busy_until = (*busy_until).max(end_key);
                *last = ti;
            }
        });
    }
    flagged
}

/// The task lists of the flagged rows, as `(global row, tasks)` in
/// ascending row order; each list is in start order with every task once.
fn gather_rows(
    cols: &TaskColumns,
    order: &[(u64, u64)],
    lanes: &Lanes,
    flagged: &[bool],
) -> Vec<(usize, Vec<usize>)> {
    let mut slot_of = vec![usize::MAX; flagged.len()];
    let mut rows: Vec<(usize, Vec<usize>)> = Vec::new();
    for (row, _) in flagged.iter().enumerate().filter(|(_, &f)| f) {
        slot_of[row] = rows.len();
        rows.push((row, Vec::new()));
    }
    if rows.is_empty() {
        return rows;
    }
    for &(_, ti) in order {
        let ti = ti as usize;
        lanes.for_rows(cols, ti, |row| {
            if let Some((_, tasks)) = rows.get_mut(slot_of[row]) {
                if tasks.last() != Some(&ti) {
                    tasks.push(ti);
                }
            }
        });
    }
    rows
}

/// Sweeps one host's tasks and returns maximal segments where at least two
/// tasks are simultaneously active.
fn host_overlaps<F>(span_of: &F, task_indices: &[usize], opts: &CompositeOptions) -> Vec<Segment>
where
    F: Fn(usize) -> (f64, f64),
{
    // Event sweep: +1 at start, -1 at end.
    let mut events: Vec<(f64, i32, usize)> = Vec::with_capacity(task_indices.len() * 2);
    for &ti in task_indices {
        let (start, end) = span_of(ti);
        if end > start {
            events.push((start, 1, ti));
            events.push((end, -1, ti));
        }
    }
    // Ends before starts at equal times so touching tasks don't overlap.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut active: Vec<usize> = Vec::new();
    let mut out: Vec<Segment> = Vec::new();
    let mut prev_t = f64::NEG_INFINITY;
    for (t, delta, ti) in events {
        if active.len() >= 2 && t - prev_t > opts.min_duration {
            let mut tasks = active.clone();
            tasks.sort_unstable();
            // Extend the previous segment if it has the same constituents
            // and touches (can happen when an unrelated event splits it).
            // The comparison is strict: a gap of exactly `min_duration`
            // is a real (just-suppressed) interval, not floating-point
            // noise, and must keep the segments apart.
            if let Some(last) = out.last_mut() {
                if last.tasks == tasks && (last.end - prev_t).abs() < opts.min_duration {
                    last.end = t;
                } else {
                    out.push(Segment {
                        start: prev_t,
                        end: t,
                        tasks,
                    });
                }
            } else {
                out.push(Segment {
                    start: prev_t,
                    end: t,
                    tasks,
                });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Cluster;

    fn schedule_with(tasks: Vec<Task>) -> Schedule {
        Schedule {
            clusters: vec![Cluster::new(0, "c0", 8)],
            tasks,
            meta: Default::default(),
        }
    }

    #[test]
    fn no_overlap_no_composites() {
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 1.0).on(Allocation::contiguous(0, 0, 4)),
            Task::new("b", "computation", 1.0, 2.0).on(Allocation::contiguous(0, 0, 4)),
        ]);
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn simple_overlap_creates_one_composite() {
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 2.0).on(Allocation::contiguous(0, 0, 4)),
            Task::new("b", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 0, 4)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        let c = &comps[0];
        assert_eq!(c.kind, COMPOSITE_KIND);
        assert_eq!(c.id, "a+b");
        assert_eq!(c.start, 1.0);
        assert_eq!(c.end, 2.0);
        assert_eq!(c.allocations.len(), 1);
        assert_eq!(c.allocations[0].hosts, HostSet::contiguous(0, 4));
        let types = c
            .attrs
            .iter()
            .find(|(k, _)| k == ATTR_TYPES)
            .map(|(_, v)| v.as_str());
        assert_eq!(types, Some("computation+transfer"));
    }

    #[test]
    fn partial_host_overlap_restricts_hosts() {
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 2.0).on(Allocation::contiguous(0, 0, 4)),
            Task::new("b", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 2, 4)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].allocations[0].hosts, HostSet::contiguous(2, 2));
    }

    #[test]
    fn triple_overlap_produces_staged_composites() {
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 2.0, 8.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("c", "z", 4.0, 6.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        // [2,4): a+b, [4,6): a+b+c, [6,8): a+b
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].id, "a+b");
        assert_eq!((comps[0].start, comps[0].end), (2.0, 4.0));
        assert_eq!(comps[1].id, "a+b+c");
        assert_eq!((comps[1].start, comps[1].end), (4.0, 6.0));
        assert_eq!(comps[2].id, "a+b");
        assert_eq!((comps[2].start, comps[2].end), (6.0, 8.0));
    }

    #[test]
    fn touching_tasks_do_not_compose() {
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 1.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 1.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn composites_respect_cluster_boundaries() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 2), Cluster::new(1, "c1", 2)],
            tasks: vec![
                Task::new("a", "x", 0.0, 2.0).on(Allocation::contiguous(0, 0, 2)),
                Task::new("b", "y", 1.0, 3.0).on(Allocation::contiguous(1, 0, 2)),
            ],
            meta: Default::default(),
        };
        // Same host indices but different clusters: no shared resource.
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn zero_duration_tasks_ignored() {
        let s = schedule_with(vec![
            Task::new("a", "x", 1.0, 1.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 0.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn duplicate_allocations_do_not_self_compose() {
        // A task listed twice on the same host (two allocations on one
        // cluster) must not overlap itself and emit an `a+a` composite.
        let s = schedule_with(vec![Task::new("a", "computation", 0.0, 2.0)
            .on(Allocation::contiguous(0, 0, 2))
            .on(Allocation::contiguous(0, 1, 2))]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert!(
            comps.is_empty(),
            "lone task self-composed: {:?}",
            comps.iter().map(|c| c.id.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicate_allocations_still_compose_with_real_overlaps() {
        // The deduped task still composes with a genuinely overlapping
        // one — as `a+b`, never `a+a` or `a+a+b`.
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 2.0)
                .on(Allocation::contiguous(0, 1, 1))
                .on(Allocation::contiguous(0, 1, 1)),
            Task::new("b", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 1, 1)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id, "a+b");
        assert_eq!((comps[0].start, comps[0].end), (1.0, 2.0));
    }

    #[test]
    fn gap_of_exactly_min_duration_is_not_glued() {
        // a and b overlap throughout [0, 10]; c joins for exactly
        // min_duration at [5, 5.5]. The a+b+c segment is suppressed
        // (== min_duration), but the two surrounding a+b segments are
        // separated by that real interval and must NOT be merged into
        // one [0, 10] segment.
        let opts = CompositeOptions {
            min_duration: 0.5,
            ..CompositeOptions::default()
        };
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("c", "z", 5.0, 5.5).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &opts);
        let ab: Vec<(f64, f64)> = comps
            .iter()
            .filter(|c| c.id == "a+b")
            .map(|c| (c.start, c.end))
            .collect();
        assert_eq!(
            ab,
            vec![(0.0, 5.0), (5.5, 10.0)],
            "boundary gap glued: {comps:?}"
        );
    }

    #[test]
    fn sub_min_duration_jitter_still_merges() {
        // The merge exists to bridge floating-point-sized splits from
        // unrelated events; a split far below min_duration still glues.
        let opts = CompositeOptions {
            min_duration: 0.5,
            ..CompositeOptions::default()
        };
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("c", "z", 5.0, 5.1).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &opts);
        let ab: Vec<(f64, f64)> = comps
            .iter()
            .filter(|c| c.id == "a+b")
            .map(|c| (c.start, c.end))
            .collect();
        assert_eq!(ab, vec![(0.0, 10.0)]);
    }

    #[test]
    fn output_is_identical_for_any_worker_count() {
        // A many-host schedule with overlaps everywhere: the composite
        // list (content *and* order) must not depend on `threads`.
        let mut tasks = Vec::new();
        for i in 0..40u32 {
            let h = i % 8;
            let start = f64::from(i % 5);
            tasks.push(
                Task::new(
                    format!("t{i}"),
                    if i % 2 == 0 {
                        "computation"
                    } else {
                        "transfer"
                    },
                    start,
                    start + 2.0,
                )
                .on(Allocation::contiguous(0, h, 1 + (i % 3))),
            );
        }
        let s = schedule_with(tasks);
        let base = composite_tasks(&s, &CompositeOptions::default().with_threads(1));
        assert!(!base.is_empty());
        for threads in [0, 2, 3, 5, 8, 16] {
            let got = composite_tasks(&s, &CompositeOptions::default().with_threads(threads));
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn only_overlapping_rows_are_flagged() {
        // Host 5 carries the one overlap; the rest hold back-to-back
        // (touching) tasks, a zero-length task, a task listing its host
        // twice and allocations past the host count or on an unknown
        // cluster — none of which may flag a row.
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 2.0).on(Allocation::contiguous(0, 0, 8)),
            Task::new("b", "y", 2.0, 4.0).on(Allocation::contiguous(0, 0, 5)),
            Task::new("c", "y", 1.0, 3.0).on(Allocation::contiguous(0, 5, 1)),
            Task::new("z", "y", 1.0, 1.0).on(Allocation::contiguous(0, 6, 1)),
            Task::new("d", "y", 2.0, 4.0)
                .on(Allocation::contiguous(0, 7, 1))
                .on(Allocation::contiguous(0, 7, 1)),
            Task::new("e", "y", 0.0, 4.0)
                .on(Allocation::contiguous(0, 8, 4))
                .on(Allocation::contiguous(9, 0, 8)),
        ]);
        let cols = TaskColumns::build(&s);
        let lanes = Lanes::new(&s.clusters);
        let order = start_order(&cols);
        let flagged = flag_rows(&cols, &order, &lanes);
        let hosts: Vec<usize> = (0..flagged.len()).filter(|&r| flagged[r]).collect();
        assert_eq!(hosts, vec![5]);
        let rows = gather_rows(&cols, &order, &lanes, &flagged);
        assert_eq!(rows, vec![(5, vec![0, 2])]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id, "a+c");
    }

    #[test]
    fn flags_follow_the_sweep_order_of_signed_zeros() {
        // `b` starts at -0.0 and `a` ends at +0.0: equal as numbers, but
        // the sweep orders events by `total_cmp`, where -0.0 comes first,
        // so both are active for a zero-width instant. With a negative
        // `min_duration` that instant is a composite — the flag pass must
        // compare in the same order or it would skip the host.
        let opts = CompositeOptions {
            min_duration: -1.0,
            ..CompositeOptions::default()
        };
        let s = schedule_with(vec![
            Task::new("a", "x", -1.0, 0.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", -0.0, 1.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &opts);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id, "a+b");
        assert_eq!(comps[0].start.to_bits(), (-0.0f64).to_bits());
        assert_eq!(comps[0].end.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn noncontiguous_composite_hosts() {
        // Overlap on hosts 0 and 2 only.
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 2.0).on(Allocation::new(0, HostSet::from_hosts([0, 2]))),
            Task::new("b", "y", 1.0, 3.0).on(Allocation::contiguous(0, 0, 4)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].allocations[0].hosts, HostSet::from_hosts([0, 2]));
        assert!(!comps[0].allocations[0].hosts.is_contiguous());
    }
}
