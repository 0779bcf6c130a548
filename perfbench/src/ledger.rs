//! Layer ledger for the batch workload: turns the span tree of one
//! traced figure into per-layer self times that add up to its wall time.
//!
//! The harness opens a `bench.*` span around every layer call it makes
//! (the program's own spans stay untouched); the program's existing
//! `prepare.*` spans mark the lazy [`PreparedSchedule`] builds, which
//! happen inside whichever layer first asks for them. A layer's self
//! time is its span's duration minus the time covered by nested spans
//! that belong to another layer; spans the table does not name (the
//! program's internal `ingest.*`, `raster.band` …) count
//! toward their nearest named ancestor. Spans on other threads run
//! concurrently with the calling thread and are not subtracted.
//!
//! [`PreparedSchedule`]: jedule_core::PreparedSchedule

use jedule_core::obs::{ObsReport, SpanRecord};
use std::collections::BTreeMap;

/// The span that brackets one whole figure; its self time is the part
/// of the wall no layer claims.
pub const FIGURE_SPAN: &str = "bench.figure";

/// Span name → the per-layer metric its self time is reported under.
/// `bench.*` spans are opened by the harness; `prepare.*` are the
/// program's own.
const LAYERS: &[(&str, &str)] = &[
    ("bench.read", "io.read.ms"),
    ("bench.swf", "workloads.swf.ms"),
    ("bench.convert", "workloads.convert.ms"),
    ("prepare.index", "core.prepared.index_ms"),
    ("prepare.composites", "core.prepared.composites_ms"),
    ("prepare.columns", "core.prepared.columns_ms"),
    ("prepare.extents", "core.prepared.extents_ms"),
    ("bench.layout", "render.layout.ms"),
    ("bench.raster", "render.raster.ms"),
    ("bench.png", "render.png.ms"),
];

/// Every layer metric the batch ledger can report, in report order.
pub fn layer_names() -> impl Iterator<Item = &'static str> {
    LAYERS.iter().map(|&(_, layer)| layer)
}

fn layer_of(span: &str) -> Option<&'static str> {
    LAYERS.iter().find(|&&(s, _)| s == span).map(|&(_, l)| l)
}

/// Self times of one figure, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct FigureLedger {
    pub wall_ms: f64,
    /// Wall time no layer span covers.
    pub unattributed_ms: f64,
    pub layers_ms: BTreeMap<&'static str, f64>,
}

/// Builds the ledger for every `bench.figure` span in `report`.
pub fn figure_ledgers(report: &ObsReport) -> Vec<FigureLedger> {
    let mut children: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for s in &report.spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    report
        .spans
        .iter()
        .filter(|s| s.name == FIGURE_SPAN)
        .map(|root| {
            let mut ledger = FigureLedger {
                wall_ms: root.dur_us / 1e3,
                ..FigureLedger::default()
            };
            ledger.unattributed_ms = walk(root, &children, &mut ledger.layers_ms) / 1e3;
            ledger
        })
        .collect()
}

/// Accumulates self times (ms) of the named spans under `span` into
/// `out` and returns the self time (µs) of `span` itself: its duration
/// minus every nested named span on the same thread (unnamed spans are
/// transparent).
fn walk(
    span: &SpanRecord,
    children: &BTreeMap<u32, Vec<&SpanRecord>>,
    out: &mut BTreeMap<&'static str, f64>,
) -> f64 {
    let mut claimed = 0.0;
    let mut stack: Vec<&SpanRecord> = children.get(&span.id).cloned().unwrap_or_default();
    while let Some(c) = stack.pop() {
        if c.thread != span.thread {
            continue;
        }
        match layer_of(c.name) {
            Some(layer) => {
                let own = walk(c, children, out);
                *out.entry(layer).or_insert(0.0) += own / 1e3;
                claimed += c.dur_us;
            }
            None => stack.extend(children.get(&c.id).into_iter().flatten()),
        }
    }
    span.dur_us - claimed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            detail: None,
            thread: 1,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_times_partition_the_wall() {
        let mut worker = span(6, None, "raster.band", 12.0, 5.0);
        worker.thread = 2;
        let report = ObsReport {
            spans: vec![
                span(0, None, FIGURE_SPAN, 0.0, 100.0),
                span(1, Some(0), "bench.read", 0.0, 10.0),
                span(2, Some(0), "bench.layout", 10.0, 50.0),
                span(3, Some(2), "prepare.index", 12.0, 20.0),
                // An unnamed library span: transparent, so the nested
                // prepare span is still subtracted from layout.
                span(4, Some(2), "layout.inner", 35.0, 10.0),
                span(5, Some(4), "prepare.columns", 36.0, 4.0),
                worker,
                span(7, Some(0), "bench.png", 60.0, 38.0),
            ],
            counters: Vec::new(),
        };
        let l = &figure_ledgers(&report)[0];
        assert_eq!(l.wall_ms, 0.1);
        assert_eq!(l.layers_ms["io.read.ms"], 0.010);
        assert_eq!(l.layers_ms["core.prepared.index_ms"], 0.020);
        assert_eq!(l.layers_ms["core.prepared.columns_ms"], 0.004);
        assert_eq!(l.layers_ms["render.layout.ms"], 0.026);
        assert_eq!(l.layers_ms["render.png.ms"], 0.038);
        let sum: f64 = l.layers_ms.values().sum::<f64>() + l.unattributed_ms;
        assert!((sum - l.wall_ms).abs() < 1e-12);
        assert!((l.unattributed_ms - 0.002).abs() < 1e-12);
    }
}
