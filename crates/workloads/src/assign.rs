//! Node-assignment reconstruction.
//!
//! SWF traces record how many processors each job used, but not *which*
//! nodes — yet the Fig. 13 bird's-eye view needs rectangles on concrete
//! rows. This module replays the trace through an event-driven allocator:
//! jobs grab nodes at their start time (first-fit contiguous, falling
//! back to the lowest free indices when fragmented — producing the
//! multi-rectangle tasks Jedule exists to draw) and release them at their
//! end time. The first `reserved` nodes are never allocated, matching
//! "20 nodes of this cluster were reserved as login and debug nodes …
//! jobs get only executed by nodes with a number greater than 20".

use crate::swf::Job;
use jedule_core::{HostRange, HostSet};

/// A job with reconstructed nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignedJob {
    pub job: Job,
    pub nodes: HostSet,
    /// True when the allocator could not find enough free nodes and the
    /// job was truncated to what was available (dirty traces only).
    pub truncated: bool,
}

/// The free nodes of `[reserved, total)` as one sorted, coalesced list
/// of ranges, edited in place. `free` is the running node count.
struct FreeList {
    ranges: Vec<HostRange>,
    free: u32,
}

impl FreeList {
    fn new(total: u32, reserved: u32) -> Self {
        let free = total.saturating_sub(reserved);
        FreeList {
            ranges: HostSet::contiguous(reserved, free).ranges().to_vec(),
            free,
        }
    }

    /// Takes `min(n, free)` nodes: a contiguous run from the first range
    /// that holds them, else the lowest free indices.
    fn take(&mut self, n: u32) -> HostSet {
        let n = n.min(self.free);
        if n == 0 {
            return HostSet::new();
        }
        self.free -= n;
        // First fit: shrink the lowest range big enough.
        if let Some(i) = self.ranges.iter().position(|r| r.nb >= n) {
            let r = &mut self.ranges[i];
            let taken = HostSet::contiguous(r.start, n);
            r.start += n;
            r.nb -= n;
            if r.nb == 0 {
                self.ranges.remove(i);
            }
            return taken;
        }
        // Scatter: every range is smaller than `n`, so whole ranges are
        // drained from the front and the rest cut from the next one.
        let mut need = n;
        let mut whole = 0;
        while need > 0 && need >= self.ranges[whole].nb {
            need -= self.ranges[whole].nb;
            whole += 1;
        }
        let mut picked: Vec<HostRange> = self.ranges.drain(..whole).collect();
        if need > 0 {
            let r = &mut self.ranges[0];
            picked.push(HostRange::new(r.start, need));
            r.start += need;
            r.nb -= need;
        }
        HostSet::from_ranges(picked)
    }

    /// Returns `set`, whose nodes are all in use, merging each range
    /// with its free neighbours.
    fn give_back(&mut self, set: &HostSet) {
        for &r in set.ranges() {
            let i = self.ranges.partition_point(|f| f.start < r.start);
            let joins_prev = i > 0 && self.ranges[i - 1].end() == r.start;
            let joins_next = i < self.ranges.len() && self.ranges[i].start == r.end();
            match (joins_prev, joins_next) {
                (true, true) => {
                    self.ranges[i - 1].nb += r.nb + self.ranges[i].nb;
                    self.ranges.remove(i);
                }
                (true, false) => self.ranges[i - 1].nb += r.nb,
                (false, true) => {
                    self.ranges[i].start = r.start;
                    self.ranges[i].nb += r.nb;
                }
                (false, false) => self.ranges.insert(i, r),
            }
            self.free += r.nb;
        }
    }
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

/// Marks a start event in the second key word; ends leave it clear.
const START: u64 = 1 << 63;

/// Replays `jobs` and returns the node set of every job, indexed like
/// `jobs`. See [`assign_nodes`] for the rules.
pub(crate) fn replay(jobs: &[Job], total_nodes: u32, reserved: u32) -> Vec<HostSet> {
    // One event per start and per end of a job with positive length,
    // keyed (time, tag | index): ends (tag 0) before starts (tag 1) at
    // equal times, job order within each. Keys are unique, so an
    // unstable sort gives exactly that order.
    let mut events: Vec<(u64, u64)> = Vec::with_capacity(jobs.len() * 2);
    for (i, j) in jobs.iter().enumerate() {
        let (start, end) = (time_key(j.start()), time_key(j.end()));
        events.push((start, START | i as u64));
        if end > start {
            events.push((end, i as u64));
        }
    }
    events.sort_unstable();

    let mut pool = FreeList::new(total_nodes, reserved);
    let mut nodes = vec![HostSet::new(); jobs.len()];
    for (_, ev) in events {
        let i = (ev & !START) as usize;
        if ev & START == 0 {
            pool.give_back(&nodes[i]);
            continue;
        }
        nodes[i] = pool.take(jobs[i].procs);
        // A zero-length job has no end event: it frees its nodes right
        // after its own grab.
        if time_key(jobs[i].end()) <= time_key(jobs[i].start()) {
            pool.give_back(&nodes[i]);
        }
    }
    nodes
}

/// Replays `jobs` over a machine of `total_nodes`, the first `reserved`
/// of which are never used.
///
/// Jobs are processed in event order: by time, releases before grabs at
/// equal times, and in job order among equal events. A grab takes the
/// first free contiguous run that holds the job (lowest start), else the
/// lowest free indices. A zero-length job (`end == start`) releases its
/// nodes right after its own grab, so they are free again for the next
/// job starting at the same time. Jobs asking for more nodes than are
/// free are truncated to what is available.
pub fn assign_nodes(jobs: &[Job], total_nodes: u32, reserved: u32) -> Vec<AssignedJob> {
    jobs.iter()
        .zip(replay(jobs, total_nodes, reserved))
        .map(|(job, nodes)| AssignedJob {
            job: job.clone(),
            truncated: nodes.count() < job.procs,
            nodes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: i64, submit: f64, run: f64, procs: u32) -> Job {
        Job {
            id,
            submit,
            wait: 0.0,
            run,
            procs,
            user: 0,
            group: 0,
            queue: 0,
            status: 1,
        }
    }

    #[test]
    fn reserved_nodes_never_used() {
        let jobs = vec![job(1, 0.0, 10.0, 8)];
        let a = assign_nodes(&jobs, 32, 20);
        assert_eq!(a[0].nodes.min_host(), Some(20));
        assert_eq!(a[0].nodes.count(), 8);
        assert!(!a[0].truncated);
    }

    #[test]
    fn concurrent_jobs_get_disjoint_nodes() {
        let jobs = vec![job(1, 0.0, 10.0, 8), job(2, 1.0, 10.0, 8)];
        let a = assign_nodes(&jobs, 32, 0);
        assert!(!a[0].nodes.intersects(&a[1].nodes));
        assert_eq!(a[0].nodes.count() + a[1].nodes.count(), 16);
    }

    #[test]
    fn nodes_reused_after_release() {
        let jobs = vec![job(1, 0.0, 10.0, 16), job(2, 10.0, 10.0, 16)];
        let a = assign_nodes(&jobs, 16, 0);
        // Release at t=10 happens before the grab at t=10.
        assert_eq!(a[1].nodes.count(), 16);
        assert!(!a[1].truncated);
        assert_eq!(a[0].nodes, a[1].nodes);
    }

    #[test]
    fn fragmentation_produces_noncontiguous_sets() {
        // j1 [0..4), j2 [4..8), j3 [8..12); j2 releases; j4 wants 6 →
        // must scatter across the [4..8) hole and [12..16).
        let jobs = vec![
            job(1, 0.0, 100.0, 4),
            job(2, 0.0, 10.0, 4),
            job(3, 0.0, 100.0, 4),
            job(4, 20.0, 10.0, 6),
        ];
        let a = assign_nodes(&jobs, 16, 0);
        let j4 = a.iter().find(|x| x.job.id == 4).unwrap();
        assert_eq!(j4.nodes.count(), 6);
        assert!(!j4.nodes.is_contiguous(), "nodes {}", j4.nodes);
    }

    #[test]
    fn oversized_jobs_truncated() {
        let jobs = vec![job(1, 0.0, 10.0, 64)];
        let a = assign_nodes(&jobs, 32, 20);
        assert!(a[0].truncated);
        assert_eq!(a[0].nodes.count(), 12);
    }

    #[test]
    fn no_overlap_invariant_on_dense_trace() {
        // Many random-ish jobs; verify the fundamental invariant: at any
        // time, node sets of running jobs are pairwise disjoint.
        let mut jobs = Vec::new();
        for i in 0..60i64 {
            jobs.push(job(
                i,
                (i % 17) as f64,
                5.0 + (i % 7) as f64,
                1 + (i % 9) as u32,
            ));
        }
        let a = assign_nodes(&jobs, 48, 4);
        for (x, ja) in a.iter().enumerate() {
            assert!(ja.nodes.min_host().is_none_or(|m| m >= 4));
            for jb in &a[x + 1..] {
                let overlap_time = ja.job.start() < jb.job.end() && jb.job.start() < ja.job.end();
                if overlap_time {
                    assert!(
                        !ja.nodes.intersects(&jb.nodes),
                        "jobs {} and {} share nodes",
                        ja.job.id,
                        jb.job.id
                    );
                }
            }
        }
    }

    #[test]
    fn zero_run_job_frees_its_nodes() {
        // Job 1's end sorts before its own start; its nodes must still
        // come back, or job 2 finds the machine full.
        let jobs = vec![job(1, 0.0, 0.0, 16), job(2, 10.0, 5.0, 16)];
        let a = assign_nodes(&jobs, 16, 0);
        assert_eq!(a[0].nodes, HostSet::contiguous(0, 16));
        assert_eq!(a[1].nodes, HostSet::contiguous(0, 16));
        assert!(!a[1].truncated);
    }

    #[test]
    fn zero_proc_job_gets_nothing() {
        let jobs = vec![job(1, 0.0, 10.0, 0)];
        let a = assign_nodes(&jobs, 8, 0);
        assert!(a[0].nodes.is_empty());
    }
}
