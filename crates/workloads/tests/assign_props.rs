//! Property tests of node-assignment reconstruction against a naive
//! per-node oracle: a `Vec<bool>` of free flags, scanned host by host.
//!
//! Traces are random and dense on purpose: integer times make equal
//! start and end times common, zero-run jobs, oversized jobs and a
//! non-zero reservation are all drawn, and mixed job widths on a small
//! machine fragment the free nodes heavily. The replay must reproduce
//! the oracle's assignment exactly (first fit at the lowest start, else
//! the lowest free indices, plus the truncation flag), and
//! `jobs_to_schedule` must draw exactly those assignments.

use jedule_core::HostSet;
use jedule_workloads::{assign_nodes, jobs_to_schedule, ConvertOptions, Job};
use proptest::prelude::*;

/// A random trace: `(total_nodes, reserved, jobs)`. Job widths are
/// drawn wide and folded onto the machine, so most jobs are narrow and
/// a few are wider than the whole machine.
fn arb_trace() -> impl Strategy<Value = (u32, u32, Vec<Job>)> {
    (
        1u32..40,
        0u32..8,
        proptest::collection::vec((0u32..30, 0u32..3, 0u32..8, 0u32..64, 0u32..4), 0..60),
    )
        .prop_map(|(total, reserved, raw)| {
            let jobs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (submit, wait, run, width, user))| Job {
                    id: i as i64 + 1,
                    submit: f64::from(submit),
                    wait: f64::from(wait),
                    // Three runs in eight are zero.
                    run: f64::from(run.saturating_sub(2)),
                    procs: if width >= 60 {
                        total + width - 60
                    } else {
                        width % (total / 2 + 2)
                    },
                    user: i64::from(user),
                    group: 0,
                    queue: 0,
                    status: 1,
                })
                .collect();
            (total, reserved.min(total + 1), jobs)
        })
}

/// The oracle: nodes as free flags, events by (time, end before start,
/// job order); a zero-length job frees its nodes right after its grab.
fn oracle(jobs: &[Job], total: u32, reserved: u32) -> Vec<(Vec<u32>, bool)> {
    let mut free: Vec<bool> = (0..total).map(|h| h >= reserved).collect();
    let mut events: Vec<(f64, u8, usize)> = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        events.push((j.start(), 1, i));
        events.push((j.end(), 0, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut out: Vec<(Vec<u32>, bool)> = vec![(Vec::new(), false); jobs.len()];
    let release = |hosts: &[u32], free: &mut [bool]| {
        for &h in hosts {
            assert!(!free[h as usize], "host {h} released twice");
            free[h as usize] = true;
        }
    };
    for (_, tag, i) in events {
        let zero_length = jobs[i].end() <= jobs[i].start();
        if tag == 0 {
            if !zero_length {
                release(&out[i].0, &mut free);
            }
            continue;
        }
        let want = jobs[i].procs as usize;
        let n = want.min(free.iter().filter(|&&f| f).count());
        let first_fit =
            (0..free.len()).find(|&h| h + n <= free.len() && free[h..h + n].iter().all(|&f| f));
        let hosts: Vec<u32> = match first_fit {
            Some(h) if n > 0 => (h..h + n).map(|h| h as u32).collect(),
            _ => (0..free.len())
                .filter(|&h| free[h])
                .take(n)
                .map(|h| h as u32)
                .collect(),
        };
        for &h in &hosts {
            free[h as usize] = false;
        }
        out[i] = (hosts, n < want);
        if zero_length {
            release(&out[i].0, &mut free);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn replay_matches_per_node_oracle(trace in arb_trace()) {
        let (total, reserved, jobs) = trace;
        let got = assign_nodes(&jobs, total, reserved);
        let want = oracle(&jobs, total, reserved);
        prop_assert_eq!(got.len(), jobs.len());
        for ((a, job), (hosts, truncated)) in got.iter().zip(&jobs).zip(&want) {
            prop_assert_eq!(&a.job, job);
            prop_assert_eq!(&a.nodes, &HostSet::from_hosts(hosts.iter().copied()), "job {}", job.id);
            prop_assert_eq!(a.truncated, *truncated, "job {}", job.id);
        }

        // Invariants, independent of the oracle.
        for (x, a) in got.iter().enumerate() {
            prop_assert!(a.nodes.min_host().is_none_or(|h| h >= reserved));
            prop_assert!(a.nodes.max_host().is_none_or(|h| h < total));
            for b in &got[x + 1..] {
                let overlap = a.job.start() < b.job.end() && b.job.start() < a.job.end();
                prop_assert!(
                    !overlap || !a.nodes.intersects(&b.nodes),
                    "jobs {} and {} share nodes", a.job.id, b.job.id
                );
            }
        }

        // The conversion draws exactly these assignments, in job order.
        let opts = ConvertOptions {
            total_nodes: total,
            reserved,
            highlight_user: Some(1),
            ..ConvertOptions::default()
        };
        let s = jobs_to_schedule(&jobs, &opts);
        let drawn: Vec<_> = got.iter().filter(|a| !a.nodes.is_empty()).collect();
        prop_assert_eq!(s.tasks.len(), drawn.len());
        for (t, a) in s.tasks.iter().zip(drawn) {
            prop_assert_eq!(&t.id, &a.job.id.to_string());
            prop_assert_eq!(t.start, a.job.start());
            prop_assert_eq!(t.end, a.job.end());
            prop_assert_eq!(&t.allocations[0].hosts, &a.nodes);
        }
    }
}
