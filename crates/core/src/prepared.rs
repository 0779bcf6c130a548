//! A schedule prepared for repeated serving.
//!
//! Interactive trace browsing (zoom, pan, repeated `--window` renders)
//! asks for many views of one schedule, but every cold render pays the
//! same per-schedule fixed work again: a full extent scan, an interval
//! index build, a legend-type scan and per-task type classification.
//! At a million tasks that fixed work dominates a windowed render — the
//! tasks actually drawn are a tiny fraction of the trace.
//!
//! [`PreparedSchedule`] bundles a schedule with lazily built, cached
//! derived data so the fixed work is paid **once** and every subsequent
//! view is bounded by what it draws:
//!
//! * the per-cluster/per-host [`ScheduleIndex`] (window culling,
//!   statistics, hit-testing — built only when one of them asks),
//! * global and per-cluster time extents for both [`AlignMode`]s,
//! * the distinct task kinds in first-appearance order plus a per-task
//!   kind slot (legend + classify/colormap memo), and
//! * the default composite-task sweep.
//!
//! All caches are [`OnceLock`]s: a `PreparedSchedule` is `Send + Sync`,
//! costs nothing beyond the schedule itself until a consumer asks for a
//! piece, and hands out the same borrow on every later ask. The wrapped
//! schedule is immutable (no `&mut` accessor), so the caches can never
//! go stale.

use crate::align::{AlignMode, TimeExtent};
use crate::columns::TaskColumns;
use crate::composite::{composite_tasks_columnar, CompositeOptions};
use crate::index::ScheduleIndex;
use crate::model::{Cluster, MetaInfo, Schedule, Task};
use crate::obs;
use crate::snap::{PackNames, PackedSchedule};
use std::sync::OnceLock;

/// Cached extents: the global one plus each cluster's local one, stored
/// in cluster declaration order.
#[derive(Debug)]
struct Extents {
    global: Option<TimeExtent>,
    per_cluster: Vec<Option<TimeExtent>>,
}

/// A [`Schedule`] plus memoized derived data for serving many renders.
///
/// ```
/// use jedule_core::{PreparedSchedule, ScheduleBuilder};
/// let s = ScheduleBuilder::new().cluster(0, "c", 4).build().unwrap();
/// let prep = PreparedSchedule::new(s);
/// let _idx = prep.index(); // built now, reused by every later call
/// assert!(prep.kinds().is_empty());
/// ```
#[derive(Debug)]
pub struct PreparedSchedule {
    /// Where the tasks come from. `Owned` means `schedule` was set at
    /// construction; `Packed` keeps the cheap structure (clusters, meta,
    /// lazily-read names) and materializes `schedule` only on demand.
    source: Source,
    schedule: OnceLock<Schedule>,
    index: OnceLock<ScheduleIndex>,
    extents: OnceLock<Extents>,
    columns: OnceLock<TaskColumns>,
    composites: OnceLock<Vec<Task>>,
}

#[derive(Debug)]
enum Source {
    Owned,
    Packed {
        clusters: Vec<Cluster>,
        meta: MetaInfo,
        names: PackNames,
    },
}

impl PreparedSchedule {
    /// Wraps a schedule. No derived data is built yet — each cache fills
    /// on first use.
    pub fn new(schedule: Schedule) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(schedule);
        PreparedSchedule {
            source: Source::Owned,
            schedule: cell,
            index: OnceLock::new(),
            extents: OnceLock::new(),
            columns: OnceLock::new(),
            composites: OnceLock::new(),
        }
    }

    /// Wraps a loaded `.jpack` snapshot. Every cache a windowed render
    /// touches (index, extents, columns, composites) is pre-seeded from
    /// the pack — the inverse of the text path, where the schedule is
    /// eager and the caches lazy. Here only the full `Schedule` (task
    /// structs with owned strings) stays lazy; rendering never asks for
    /// it.
    pub fn from_pack(packed: PackedSchedule) -> Self {
        let PackedSchedule {
            clusters,
            meta,
            columns,
            index,
            global,
            per_cluster,
            composites,
            names,
            ..
        } = packed;
        let prep = PreparedSchedule {
            source: Source::Packed {
                clusters,
                meta,
                names,
            },
            schedule: OnceLock::new(),
            index: OnceLock::new(),
            extents: OnceLock::new(),
            columns: OnceLock::new(),
            composites: OnceLock::new(),
        };
        let _ = prep.index.set(index);
        let _ = prep.extents.set(Extents {
            global,
            per_cluster,
        });
        let _ = prep.columns.set(columns);
        let _ = prep.composites.set(composites);
        prep
    }

    /// Whether this schedule came from a `.jpack` snapshot.
    pub fn is_packed(&self) -> bool {
        matches!(self.source, Source::Packed { .. })
    }

    /// Whether the full `Schedule` has been built. Owned sources are
    /// materialized by construction; a packed source stays
    /// unmaterialized until something calls [`Self::schedule`] — tests
    /// use this to prove the render path never does.
    pub fn is_materialized(&self) -> bool {
        self.schedule.get().is_some()
    }

    /// The wrapped schedule. For packed sources this materializes the
    /// full task list (owned strings, allocations, attrs) on first call;
    /// paths that only render never pay it.
    pub fn schedule(&self) -> &Schedule {
        if let Some(s) = self.schedule.get() {
            return s;
        }
        self.schedule.get_or_init(|| match &self.source {
            Source::Owned => unreachable!("owned schedule is set at construction"),
            Source::Packed {
                clusters,
                meta,
                names,
            } => {
                let _s = obs::span("prepare.materialize");
                Schedule {
                    clusters: clusters.clone(),
                    tasks: names.build_tasks(self.columns.get().expect("packed columns preset")),
                    meta: meta.clone(),
                }
            }
        })
    }

    /// The clusters, without materializing a packed schedule.
    pub fn clusters(&self) -> &[Cluster] {
        match &self.source {
            Source::Owned => &self.schedule.get().expect("owned schedule set").clusters,
            Source::Packed { clusters, .. } => clusters,
        }
    }

    /// The meta info, without materializing a packed schedule.
    pub fn meta(&self) -> &MetaInfo {
        match &self.source {
            Source::Owned => &self.schedule.get().expect("owned schedule set").meta,
            Source::Packed { meta, .. } => meta,
        }
    }

    /// Task `ti`'s id string, without materializing a packed schedule
    /// (label paths read it straight from the pack's string blob).
    pub fn task_id(&self, ti: usize) -> &str {
        match &self.source {
            Source::Owned => &self.schedule.get().expect("owned schedule set").tasks[ti].id,
            Source::Packed { names, .. } => names.task_id(ti),
        }
    }

    /// Number of tasks, without materializing a packed schedule.
    pub fn task_count(&self) -> usize {
        match &self.source {
            Source::Owned => self.schedule.get().expect("owned schedule set").tasks.len(),
            Source::Packed { .. } => self.columns.get().expect("packed columns preset").len(),
        }
    }

    /// Unwraps the schedule (materializing it for packed sources),
    /// dropping the caches.
    pub fn into_schedule(self) -> Schedule {
        self.schedule();
        self.schedule.into_inner().expect("just materialized")
    }

    /// The interval index, built with per-host rows on first use (a
    /// superset of the cluster-only index, so one cache serves window
    /// culling, statistics and hit-testing alike). Full-extent renders
    /// never ask for it: the composite sweep reads the columns only.
    pub fn index(&self) -> &ScheduleIndex {
        if let Some(built) = self.index.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.index.get_or_init(|| {
            let schedule = self.schedule();
            let _s = obs::span("prepare.index");
            obs::count("prepared.cache_build", 1);
            ScheduleIndex::build_with_hosts(schedule)
        })
    }

    /// Eagerly builds every cache a windowed render touches (index,
    /// extents, columns). Useful to move the one-time cost out of the
    /// first frame — e.g. before entering an interactive loop, whose
    /// zooms cull through the index. Composites stay lazy: they need
    /// only the columns and are swept on first draw.
    pub fn warm(&self) -> &Self {
        self.index();
        self.extents();
        self.columns();
        self
    }

    fn extents(&self) -> &Extents {
        if let Some(built) = self.extents.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.extents.get_or_init(|| {
            let schedule = self.schedule();
            let _s = obs::span("prepare.extents");
            obs::count("prepared.cache_build", 1);
            // One pass over tasks × allocations computes what
            // `align::global_extent` + per-cluster `align::cluster_extent`
            // would, with identical min/max accumulation semantics.
            let slot = |id: u32| schedule.clusters.iter().position(|c| c.id == id);
            let mut global: Option<TimeExtent> = None;
            let mut per_cluster: Vec<Option<TimeExtent>> = vec![None; schedule.clusters.len()];
            for t in &schedule.tasks {
                let g = global.get_or_insert(TimeExtent::new(t.start, t.end));
                g.start = g.start.min(t.start);
                g.end = g.end.max(t.end);
                for a in &t.allocations {
                    let Some(ci) = slot(a.cluster) else { continue };
                    let e = per_cluster[ci].get_or_insert(TimeExtent::new(t.start, t.end));
                    e.start = e.start.min(t.start);
                    e.end = e.end.max(t.end);
                }
            }
            Extents {
                global,
                per_cluster,
            }
        })
    }

    /// The global `[min start, max end]` extent (`None` when empty),
    /// equal to [`crate::align::global_extent`].
    pub fn global_extent(&self) -> Option<TimeExtent> {
        self.extents().global
    }

    /// The extent to draw `cluster` with under `mode`, equal to
    /// [`crate::align::extent_for`] — cached instead of rescanned.
    pub fn extent_for(&self, cluster: u32, mode: AlignMode) -> Option<TimeExtent> {
        let ex = self.extents();
        match mode {
            AlignMode::Aligned => ex.global,
            AlignMode::Scaled => {
                let pos = self.clusters().iter().position(|c| c.id == cluster)?;
                ex.per_cluster[pos]
            }
        }
    }

    /// The columnar task view ([`TaskColumns`]): per-task start/end/kind
    /// columns plus the CSR host-lane segments, built once and scanned
    /// linearly by the render hot path and the composite sweep.
    pub fn columns(&self) -> &TaskColumns {
        if let Some(built) = self.columns.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.columns.get_or_init(|| {
            let schedule = self.schedule();
            let _s = obs::span("prepare.columns");
            obs::count("prepared.cache_build", 1);
            TaskColumns::build(schedule)
        })
    }

    /// The distinct task kinds in order of first appearance — exactly
    /// the list a legend scan over all tasks collects. Served from the
    /// columnar cache.
    pub fn kinds(&self) -> &[String] {
        self.columns().kind_names()
    }

    /// For each task (by index), the slot of its kind in [`kinds`]
    /// (`self.kinds()[kind_ids()[ti] as usize] == tasks[ti].kind`).
    /// Classifiers can resolve each kind against a color map once and
    /// then look tasks up by slot instead of comparing strings.
    pub fn kind_ids(&self) -> &[u32] {
        self.columns().kind_ids()
    }

    /// Composite tasks of overlap regions under default
    /// [`CompositeOptions`] — what the layout engine draws. Computed on
    /// first use from the columns alone (the sweep never needs the
    /// interval index) and cached.
    pub fn composites(&self) -> &[Task] {
        if let Some(built) = self.composites.get() {
            obs::count("prepared.cache_hit", 1);
            return built.as_slice();
        }
        self.composites
            .get_or_init(|| {
                // Resolve the schedule and column dependencies *before*
                // opening the span so their build time is attributed to
                // prepare.columns, not here.
                let schedule = self.schedule();
                let columns = self.columns();
                let _s = obs::span("prepare.composites");
                obs::count("prepared.cache_build", 1);
                composite_tasks_columnar(schedule, columns, &CompositeOptions::default())
            })
            .as_slice()
    }
}

impl From<Schedule> for PreparedSchedule {
    fn from(schedule: Schedule) -> Self {
        PreparedSchedule::new(schedule)
    }
}

impl std::ops::Deref for PreparedSchedule {
    type Target = Schedule;

    fn deref(&self) -> &Schedule {
        self.schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{extent_for, global_extent};
    use crate::builder::ScheduleBuilder;
    use crate::composite::composite_tasks;
    use crate::model::{Allocation, Task};

    fn sched() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(3, "c1", 4)
            .task(Task::new("a", "computation", 1.0, 4.0).on(Allocation::contiguous(0, 0, 4)))
            .task(Task::new("b", "transfer", 3.0, 6.0).on(Allocation::contiguous(0, 2, 2)))
            .task(Task::new("c", "computation", 0.5, 5.0).on(Allocation::contiguous(3, 0, 4)))
            .build()
            .unwrap()
    }

    #[test]
    fn extents_match_align_module() {
        let s = sched();
        let p = PreparedSchedule::new(s.clone());
        assert_eq!(p.global_extent(), global_extent(&s));
        for cid in [0u32, 3, 99] {
            for mode in [AlignMode::Scaled, AlignMode::Aligned] {
                assert_eq!(
                    p.extent_for(cid, mode),
                    extent_for(&s, cid, mode),
                    "cluster {cid} mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn empty_schedule_extents() {
        let s = ScheduleBuilder::new().cluster(0, "c", 2).build().unwrap();
        let p = PreparedSchedule::new(s.clone());
        assert_eq!(p.global_extent(), None);
        assert_eq!(p.extent_for(0, AlignMode::Scaled), None);
        // Aligned mode hands task-less clusters the global extent — which
        // is None here, matching align::extent_for.
        assert_eq!(
            p.extent_for(0, AlignMode::Aligned),
            extent_for(&s, 0, AlignMode::Aligned)
        );
    }

    #[test]
    fn kinds_in_first_appearance_order_with_slots() {
        let s = sched();
        let p = PreparedSchedule::new(s.clone());
        assert_eq!(
            p.kinds(),
            ["computation".to_string(), "transfer".to_string()]
        );
        assert_eq!(p.kind_ids(), [0, 1, 0]);
        for (ti, t) in s.tasks.iter().enumerate() {
            assert_eq!(p.kinds()[p.kind_ids()[ti] as usize], t.kind);
        }
    }

    #[test]
    fn index_is_built_once_and_has_hosts() {
        let p = PreparedSchedule::new(sched());
        let a = p.index() as *const _;
        let b = p.index() as *const _;
        assert_eq!(a, b);
        assert!(p.index().has_hosts());
        assert_eq!(p.index().cluster(0).unwrap().query(0.0, 10.0), vec![0, 1]);
    }

    #[test]
    fn composites_match_uncached_sweep() {
        let s = sched();
        let p = PreparedSchedule::new(s.clone());
        let cold = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(p.composites(), cold.as_slice());
        // Cached: same borrow twice.
        assert_eq!(p.composites().as_ptr(), p.composites().as_ptr());
    }

    #[test]
    fn deref_and_unwrap() {
        let s = sched();
        let p = PreparedSchedule::from(s.clone());
        assert_eq!(p.tasks.len(), 3); // Deref
        assert_eq!(p.schedule(), &s);
        p.warm();
        assert_eq!(p.into_schedule(), s);
    }

    #[test]
    fn cache_counters_distinguish_build_from_hit() {
        let col = obs::Collector::new();
        let _g = col.install();
        let p = PreparedSchedule::new(sched());
        p.index();
        p.index();
        p.composites(); // builds columns + composites, never asks the index
        p.composites();
        let rep = col.report();
        assert_eq!(rep.counter("prepared.cache_build"), 3);
        assert_eq!(rep.counter("prepared.cache_hit"), 2);
        assert!(rep.spans.iter().any(|s| s.name == "prepare.index"));
        assert!(rep.spans.iter().any(|s| s.name == "prepare.columns"));
        assert!(rep.spans.iter().any(|s| s.name == "prepare.composites"));
    }

    #[test]
    fn prepared_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<PreparedSchedule>();
    }
}
