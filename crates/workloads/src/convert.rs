//! Conversion of workloads to Jedule schedules (the Fig. 13 view).

use crate::assign::{replay, AssignedJob};
use crate::swf::Job;
use jedule_core::{
    Allocation, Color, ColorMap, ColorPair, HostSet, Schedule, ScheduleBuilder, Task,
};

/// Conversion options.
#[derive(Debug, Clone)]
pub struct ConvertOptions {
    pub cluster_name: String,
    pub total_nodes: u32,
    /// First nodes reserved for login/debug (drawn empty).
    pub reserved: u32,
    /// Jobs of this user get the task type `"highlight"` ("we also
    /// highlighted in yellow the jobs of user 6447").
    pub highlight_user: Option<i64>,
    /// Attach per-task `user`/`procs` attributes (for the interactive
    /// task-info popup). Disable for bird's-eye ingest of very large
    /// traces: a million tasks otherwise materialize two extra strings
    /// and a vector each — hundreds of megabytes that the renderer never
    /// reads, interleaved between the fields it does read.
    pub task_attrs: bool,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        ConvertOptions {
            cluster_name: "thunder".into(),
            total_nodes: 1024,
            reserved: 20,
            highlight_user: Some(6447),
            task_attrs: true,
        }
    }
}

/// Assigns nodes and converts to a Jedule schedule.
pub fn jobs_to_schedule(jobs: &[Job], opts: &ConvertOptions) -> Schedule {
    let nodes = replay(jobs, opts.total_nodes, opts.reserved);
    to_schedule(jobs.iter().zip(nodes), opts)
}

/// Converts pre-assigned jobs.
pub fn assigned_to_schedule(assigned: &[AssignedJob], opts: &ConvertOptions) -> Schedule {
    to_schedule(assigned.iter().map(|a| (&a.job, a.nodes.clone())), opts)
}

/// One task per job that got nodes, in job order.
fn to_schedule<'a>(
    jobs: impl ExactSizeIterator<Item = (&'a Job, HostSet)>,
    opts: &ConvertOptions,
) -> Schedule {
    let n = jobs.len();
    let mut b = ScheduleBuilder::new()
        .cluster(0, opts.cluster_name.clone(), opts.total_nodes)
        .reserve_tasks(n)
        .meta("jobs", n.to_string())
        .meta("reserved_nodes", opts.reserved.to_string());
    if let Some(u) = opts.highlight_user {
        b = b.meta("highlight_user", u.to_string());
    }
    for (job, nodes) in jobs {
        if nodes.is_empty() {
            continue;
        }
        let kind = match opts.highlight_user {
            Some(u) if job.user == u => "highlight",
            _ => "job",
        };
        // One allocation, sized exactly: `Task::on` would reserve four.
        let mut task = Task {
            allocations: vec![Allocation::new(0, nodes)],
            ..Task::new(job.id.to_string(), kind, job.start(), job.end())
        };
        if opts.task_attrs {
            task = task
                .with_attr("user", job.user.to_string())
                .with_attr("procs", job.procs.to_string());
        }
        b = b.task(task);
    }
    b.build_unchecked()
}

/// The Fig. 13 color map: regular jobs muted, the highlighted user's
/// jobs yellow.
pub fn workload_colormap() -> ColorMap {
    let mut m = ColorMap::new("workload");
    m.set(
        "job",
        ColorPair::new(Color::WHITE, Color::parse("4682b4").unwrap()),
    );
    m.set(
        "highlight",
        ColorPair::new(Color::BLACK, Color::parse("ffd700").unwrap()),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synth_thunder_day, ThunderParams};
    use jedule_core::validate;

    #[test]
    fn thunder_day_schedule_is_valid() {
        let p = ThunderParams::default();
        let jobs = synth_thunder_day(&p);
        let s = jobs_to_schedule(&jobs, &ConvertOptions::default());
        assert!(validate(&s).is_empty());
        assert_eq!(s.total_hosts(), 1024);
        assert!(s.tasks.len() > 700, "{} tasks", s.tasks.len());
    }

    #[test]
    fn reserved_nodes_stay_empty() {
        let jobs = synth_thunder_day(&ThunderParams::default());
        let s = jobs_to_schedule(&jobs, &ConvertOptions::default());
        for host in 0..20 {
            assert!(
                s.tasks_on_host(0, host).is_empty(),
                "reserved node {host} was used"
            );
        }
    }

    #[test]
    fn highlight_user_typed_separately() {
        let p = ThunderParams::default();
        let jobs = synth_thunder_day(&p);
        let s = jobs_to_schedule(&jobs, &ConvertOptions::default());
        let highlighted = s.tasks.iter().filter(|t| t.kind == "highlight").count();
        assert!(highlighted > 0);
        assert!(s.tasks.iter().any(|t| t.kind == "job"));
        // Highlighted tasks all belong to the user.
        for t in s.tasks.iter().filter(|t| t.kind == "highlight") {
            let user = t.attrs.iter().find(|(k, _)| k == "user").unwrap();
            assert_eq!(user.1, "6447");
        }
    }

    #[test]
    fn no_highlighting_when_disabled() {
        let jobs = synth_thunder_day(&ThunderParams::default());
        let opts = ConvertOptions {
            highlight_user: None,
            ..Default::default()
        };
        let s = jobs_to_schedule(&jobs, &opts);
        assert!(s.tasks.iter().all(|t| t.kind == "job"));
    }

    #[test]
    fn colormap_has_yellow_highlight() {
        let m = workload_colormap();
        assert_eq!(m.get("highlight").unwrap().bg, Color::new(0xff, 0xd7, 0));
    }

    #[test]
    fn meta_records_the_setup() {
        let jobs = synth_thunder_day(&ThunderParams::default());
        let s = jobs_to_schedule(&jobs, &ConvertOptions::default());
        assert_eq!(s.meta.get("reserved_nodes"), Some("20"));
        assert_eq!(s.meta.get("highlight_user"), Some("6447"));
    }
}
