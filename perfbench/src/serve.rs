//! `serve_explore`: an open-loop replay of explorer sessions against an
//! in-process `jedule serve` over loopback.
//!
//! Users each run explorer sessions back to back: the `/explore` shell,
//! `/meta`, the overview tile, then a walk of the page's own gestures
//! (0.8× / 1.25× wheel zooms around the cursor, drag pans, double-click
//! resets) with seeded cursor positions and drag distances, each
//! answered by a `tile=1&fmt=svg` fetch built exactly as the page builds
//! it. Every user keeps a browser cache of ETags and revalidates with
//! `If-None-Match`. Beside them a monitor polls a small `.jed` trace
//! (the Fig. 13 Thunder day) as PNG, and the generator periodically
//! rewrites that file (atomic rename), so digest invalidation, the XML
//! parse inside serve and cache churn happen under the same load.
//!
//! Requests are due on a Poisson schedule and timed from when they were
//! due. Load comes from two generator threads with one keep-alive
//! connection each, shared like a browser's connection pool: a free
//! connection takes the next due request, and a request waits only when
//! both are busy. Bodies are digested as they arrive and compared after
//! the run against references rendered offline from the text path.
//!
//! The end-to-end run offers the light rate for its whole length. The
//! traced run offers the light rate, the loaded rate, the loaded rate
//! again while polling `/debug/log` (the per-layer ledger), and a short
//! search for the highest rate whose p90 stays within 250 ms.

use crate::http::Conn;
use crate::report::Report;
use crate::stats::{median, percentile, tail_percentile, Rng, Summary};
use crate::Args;
use jedule_core::obs::{HistogramSnapshot, Registry};
use jedule_core::{snap, PreparedSchedule};
use jedule_render::{FrameGeom, OutputFormat, RenderOptions};
use jedule_serve::cache::fnv1a64;
use jedule_serve::{render_options_from_params, ServeConfig, Server, ServerHandle};
use jedule_workloads::convert::assigned_to_schedule;
use jedule_workloads::{jobs_to_schedule, synth_scale_trace, synth_thunder_day, ConvertOptions};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TRACE_TASKS: usize = 50_000;
const TRACE: &str = "trace.csv";
const MONITOR: &str = "thunder.jed";
/// The explorer page's `boot.width`.
const WIDTH: &str = "1600";
const MONITOR_WIDTH: &str = "900";
/// Offered rates of the two fixed-rate phases, requests per second.
/// About ¼ and ⅔ of `serve.max_rps_slo` when the benchmark was defined.
const LIGHT_RPS: f64 = 12.0;
const LOADED_RPS: f64 = 30.0;
/// Latency limit on the tail for `serve.max_rps_slo`.
const SLO_MS: f64 = 250.0;
/// Concurrent explorer users, and the keep-alive connections (one per
/// generator thread) their requests share.
///
/// The traffic mix — `USERS`, `MONITOR_SHARE`, `REWRITE_EVERY` and
/// [`WALK`] — is assumed, not measured: no usage log of the explorer
/// exists to derive it from. It sets the body, tile and plan cache hit
/// ratios, the share of 304s, and so `figure_ms_*`, `figure_bytes` and
/// `wire_bytes_per_req`; a later change to it is a change of workload.
const USERS: usize = 6;
const CONNS: usize = 2;
/// Share of due slots that are monitor polls; every `REWRITE_EVERY`th
/// poll first rewrites the monitored file.
const MONITOR_SHARE: f64 = 0.05;
const REWRITE_EVERY: u64 = 3;
/// Distinct contents the monitored file cycles through.
const MONITOR_VERSIONS: usize = 24;
/// Server set-ups timed for `setup_s` (median).
const SETUPS: usize = 5;
/// Scene units per CSS pixel: the 1600-unit scene drawn in the page's
/// ~1072 px content box.
const CSS_SCALE: f64 = 1.5;
/// A run whose generator sent its tail request this late is invalid.
const MAX_LAG_TAIL_MS: f64 = 25.0;

/// What a planned request asks for.
#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Shell,
    Meta,
    /// A tile fetch; `None` is the unwindowed overview.
    Tile(Option<String>),
    /// A monitor poll; `Some(n)` first makes rewrite `n` of the file
    /// (to version [`version_of`]`(n)`).
    Monitor(Option<u64>),
    /// `/debug/log` tail (traced phase only; not a user request).
    LogPoll,
}

impl Kind {
    fn is_figure(&self) -> bool {
        matches!(self, Kind::Tile(_) | Kind::Monitor(_))
    }
}

#[derive(Debug, Clone)]
struct Planned {
    /// Seconds after the phase start.
    due: f64,
    user: usize,
    kind: Kind,
}

impl Planned {
    fn target(&self) -> String {
        match &self.kind {
            Kind::Shell => format!("/explore?file={TRACE}&width={WIDTH}"),
            Kind::Meta => format!("/meta?file={TRACE}&width={WIDTH}"),
            Kind::Tile(None) => format!("/explore?file={TRACE}&tile=1&fmt=svg&width={WIDTH}"),
            Kind::Tile(Some(w)) => {
                format!("/explore?file={TRACE}&tile=1&fmt=svg&width={WIDTH}&window={w}")
            }
            Kind::Monitor(_) => format!("/render?file={MONITOR}&fmt=png&width={MONITOR_WIDTH}"),
            Kind::LogPoll => "/debug/log?n=512".to_string(),
        }
    }
}

/// The page's view math (`zoomSpan` / `panSpan` in `explorer.html`).
#[derive(Clone, Copy)]
struct View {
    full: (f64, f64),
    /// Panel left edge and width in scene units.
    px: f64,
    pw: f64,
}

impl View {
    fn zoom(&self, win: (f64, f64), factor: f64, center: f64) -> (f64, f64) {
        let full = self.full;
        let mut span = (win.1 - win.0) * factor;
        let full_span = full.1 - full.0;
        if full_span.is_nan() || full_span <= 0.0 {
            return win;
        }
        if span > full_span {
            span = full_span;
        }
        if span < full_span / 1e6 {
            span = full_span / 1e6;
        }
        let mut frac = (center - win.0) / (win.1 - win.0);
        if !frac.is_finite() {
            frac = 0.5;
        }
        let mut a = center - frac * span;
        let mut b = a + span;
        if a < full.0 {
            b += full.0 - a;
            a = full.0;
        }
        if b > full.1 {
            a -= b - full.1;
            b = full.1;
            if a < full.0 {
                a = full.0;
            }
        }
        (a, b)
    }

    fn pan(&self, win: (f64, f64), dt: f64) -> (f64, f64) {
        let span = win.1 - win.0;
        let mut a = win.0 + dt;
        if a < self.full.0 {
            a = self.full.0;
        }
        if a + span > self.full.1 {
            a = self.full.1 - span;
        }
        if a < self.full.0 {
            a = self.full.0;
        }
        (a, a + span)
    }
}

/// One gesture of the explorer page.
#[derive(Clone, Copy)]
enum Gesture {
    /// `n` wheel ticks towards the cursor (0.8× each).
    ZoomIn(usize),
    /// `n` wheel ticks away (1.25× each).
    ZoomOut(usize),
    /// One drag on the time axis.
    Pan,
    /// Double-click: back to the overview.
    Reset,
    /// Repeats walk step `i` (a zoom) with the same cursor: after a
    /// reset this lands on a window the browser already holds, so the
    /// fetch revalidates.
    Revisit(usize),
}

/// Every session walks the same gesture sequence; where the cursor sits
/// and how far each drag goes are drawn from the seed (continuously, so
/// two users never share a window by chance). The zoom depths — and so
/// the task counts the tiles carry — and the share of revalidations are
/// the same for every seed, which keeps the request mix comparable
/// between runs.
const WALK: [Gesture; 15] = [
    Gesture::ZoomIn(2),
    Gesture::ZoomIn(1),
    Gesture::Pan,
    Gesture::ZoomIn(2),
    Gesture::Pan,
    Gesture::Pan,
    Gesture::ZoomOut(1),
    Gesture::ZoomIn(1),
    Gesture::Pan,
    Gesture::ZoomOut(2),
    Gesture::Pan,
    Gesture::Reset,
    Gesture::Revisit(0),
    Gesture::Revisit(1),
    Gesture::Reset,
];

/// One simulated browser: explorer sessions back to back.
struct User {
    rng: Rng,
    /// Requests issued in the current session.
    step: usize,
    win: Option<(f64, f64)>,
    /// Cursor position (fraction of the panel) of each zoom step.
    cursors: [f64; WALK.len()],
}

impl User {
    fn new(rng: Rng) -> User {
        User {
            rng,
            step: 0,
            win: None,
            cursors: [0.5; WALK.len()],
        }
    }

    /// The next request of the current session, starting a new session
    /// when the walk is over.
    fn next(&mut self, view: &View) -> Kind {
        if self.step >= 3 + WALK.len() {
            self.step = 0;
            self.win = None;
        }
        let step = self.step;
        self.step += 1;
        match step {
            0 => Kind::Shell,
            1 => Kind::Meta,
            2 => Kind::Tile(None),
            _ => {
                self.win = self.gesture(step - 3, view);
                Kind::Tile(self.win.map(|(a, b)| format!("{a}:{b}")))
            }
        }
    }

    /// Walk step `i`'s effect on the window, as the page computes it.
    fn gesture(&mut self, i: usize, view: &View) -> Option<(f64, f64)> {
        let wheel = |win: Option<(f64, f64)>, factor: f64, ticks: usize, frac: f64| {
            let cursor = view.px + view.pw * frac;
            let mut win = win;
            for _ in 0..ticks {
                let ext = win.unwrap_or(view.full);
                let t = ext.0 + (cursor - view.px) / view.pw * (ext.1 - ext.0);
                win = Some(view.zoom(ext, factor, t));
            }
            win
        };
        let (g, frac) = match WALK[i] {
            Gesture::Revisit(j) => (WALK[j], self.cursors[j]),
            g => {
                self.cursors[i] = 0.05 + 0.9 * self.rng.unit();
                (g, self.cursors[i])
            }
        };
        match g {
            Gesture::ZoomIn(n) => wheel(self.win, 0.8, n, frac),
            Gesture::ZoomOut(n) => wheel(self.win, 1.25, n, frac),
            Gesture::Pan => {
                let sign = if self.rng.unit() < 0.5 { -1.0 } else { 1.0 };
                let dx = sign * (40.0 + 280.0 * self.rng.unit());
                let ext = self.win.unwrap_or(view.full);
                let dt = -dx * CSS_SCALE * (ext.1 - ext.0) / view.pw;
                Some(view.pan(ext, dt))
            }
            Gesture::Reset | Gesture::Revisit(_) => None,
        }
    }
}

/// Plans requests for all users and the monitor over one phase.
struct Planner {
    rng: Rng,
    users: Vec<User>,
    view: View,
    polls: u64,
    rewrites: u64,
}

impl Planner {
    fn new(seed: u64, view: View) -> Planner {
        Planner {
            rng: Rng::fork(seed, 0x504c_414e),
            users: (0..USERS)
                .map(|k| User::new(Rng::fork(seed, 0x5553_0000 + k as u64)))
                .collect(),
            view,
            polls: 0,
            rewrites: 0,
        }
    }

    /// A Poisson schedule at `rate` for `seconds`, in due order.
    /// `log_polls` adds a `/debug/log` tail every second.
    fn phase(&mut self, rate: f64, seconds: f64, log_polls: bool) -> Vec<Planned> {
        let mut plan = Vec::new();
        let mut t = 0.0;
        loop {
            t += self.rng.exp_gap(rate);
            if t >= seconds {
                break;
            }
            if self.rng.unit() < MONITOR_SHARE {
                self.polls += 1;
                let rewrite = self.polls.is_multiple_of(REWRITE_EVERY).then(|| {
                    self.rewrites += 1;
                    self.rewrites
                });
                plan.push(Planned {
                    due: t,
                    user: USERS,
                    kind: Kind::Monitor(rewrite),
                });
            } else {
                let k = self.rng.below(USERS);
                let kind = self.users[k].next(&self.view);
                plan.push(Planned {
                    due: t,
                    user: k,
                    kind,
                });
            }
        }
        if log_polls {
            let mut s = 1.0;
            while s < seconds {
                plan.push(Planned {
                    due: s,
                    user: USERS + 1,
                    kind: Kind::LogPoll,
                });
                s += 1.0;
            }
            plan.sort_by(|a, b| a.due.total_cmp(&b.due));
        }
        plan
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    target: String,
    sent_etag: Option<String>,
    status: u16,
    refused: bool,
    error: Option<String>,
    etag: Option<String>,
    request_id: Option<u64>,
    digest: u64,
    body_bytes: u64,
    wire_bytes: u64,
    /// Due → last body byte.
    e2e_ms: f64,
    /// How late the generator sent a request a connection was free for.
    lag_ms: f64,
    /// Due → a connection came free, when both were busy at the due time.
    conn_wait_ms: f64,
    /// Sent → first response byte.
    ttfb_ms: f64,
    /// First → last response byte.
    transfer_ms: f64,
    /// The body of a `/debug/log` poll (JSONL access records).
    log: Option<String>,
    /// The latest monitor rewrite that had finished when the request
    /// went out, and when its reply arrived.
    published: (u64, u64),
}

impl Sample {
    fn new(kind: Kind, target: String) -> Sample {
        Sample {
            kind,
            target,
            sent_etag: None,
            status: 0,
            refused: false,
            error: None,
            etag: None,
            request_id: None,
            digest: 0,
            body_bytes: 0,
            wire_bytes: 0,
            e2e_ms: 0.0,
            lag_ms: 0.0,
            conn_wait_ms: 0.0,
            ttfb_ms: 0.0,
            transfer_ms: 0.0,
            log: None,
            published: (0, 0),
        }
    }
}

/// A cheap word-at-a-time digest for bodies on the hot path; references
/// are digested the same way.
fn body_digest(b: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ b.len() as u64;
    let mut words = b.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    for &byte in words.remainder() {
        h = (h.rotate_left(5) ^ u64::from(byte)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// The version of the monitored file rewrite `n` writes (rewrite 0 is
/// the file as first written).
fn version_of(rewrite: u64) -> usize {
    (rewrite % MONITOR_VERSIONS as u64) as usize
}

/// Everything the client threads share.
struct Fixture {
    root: PathBuf,
    /// The contents the monitored file cycles through, written by rename.
    monitor_versions: Vec<String>,
    /// The latest rewrite whose rename has finished.
    published: Mutex<u64>,
}

impl Fixture {
    fn write_monitor(&self, version: usize) -> Result<(), String> {
        let tmp = self.root.join(format!("{MONITOR}.tmp"));
        std::fs::write(&tmp, &self.monitor_versions[version])
            .and_then(|()| std::fs::rename(&tmp, self.root.join(MONITOR)))
            .map_err(|e| format!("rewrite {MONITOR}: {e}"))
    }

    /// Makes rewrite `n`, unless a later one has already landed. The
    /// lock is held across the rename, so once it has finished every
    /// reader of [`Fixture::published`] sees `n`.
    fn rewrite_monitor(&self, n: u64) -> Result<(), String> {
        let mut published = self.published.lock().expect("rewrite lock poisoned");
        if n > *published {
            self.write_monitor(version_of(n))?;
            *published = n;
        }
        Ok(())
    }

    fn published(&self) -> u64 {
        *self.published.lock().expect("rewrite lock poisoned")
    }
}

/// Every user's browser cache: (user, target) → ETag.
type Caches = Mutex<HashMap<(usize, String), String>>;

/// One phase as the client threads see it: the schedule and the index
/// of the next request nobody has claimed yet.
struct Dispatch<'a> {
    plan: &'a [Planned],
    next: Mutex<usize>,
    t0: Instant,
}

impl Dispatch<'_> {
    fn due(&self, i: usize) -> Instant {
        self.t0 + Duration::from_secs_f64(self.plan[i].due)
    }

    /// Blocks until the next request is due and claims it; `None` once
    /// the schedule is exhausted.
    fn claim(&self) -> Option<usize> {
        loop {
            let mut next = self.next.lock().expect("dispatch lock poisoned");
            if *next >= self.plan.len() {
                return None;
            }
            let wait = self.due(*next).saturating_duration_since(Instant::now());
            if wait.is_zero() {
                *next += 1;
                return Some(*next - 1);
            }
            drop(next);
            std::thread::sleep(wait);
        }
    }
}

/// Splits the time from a request's due time to its pick-up into the
/// client-side queue (`conn_wait`: the connection that took it was
/// still busy at the due time) and the generator's own lateness
/// (`lag`: from when it could have gone out to when it went).
fn waits(due: Instant, free_since: Instant, picked: Instant) -> (Duration, Duration) {
    if free_since > due {
        (
            free_since - due,
            picked.saturating_duration_since(free_since),
        )
    } else {
        (Duration::ZERO, picked.saturating_duration_since(due))
    }
}

/// One browser connection: whenever it is free it takes the next due
/// request, like a browser's connection pool (no pipelining), so a
/// request waits only when every connection is busy.
fn run_connection(
    addr: SocketAddr,
    dispatch: &Dispatch<'_>,
    fixture: &Fixture,
    caches: &Caches,
) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::open(addr)?;
    let mut samples = Vec::new();
    let mut free_since = dispatch.t0;
    while let Some(i) = dispatch.claim() {
        let p = &dispatch.plan[i];
        let due = dispatch.due(i);
        let picked = Instant::now();
        if let Kind::Monitor(Some(n)) = p.kind {
            fixture.rewrite_monitor(n)?;
        }
        let published = fixture.published();
        let key = (p.user, p.target());
        let sent_etag = caches
            .lock()
            .expect("cache lock poisoned")
            .get(&key)
            .cloned();
        let reply = conn.get(&key.1, sent_etag.as_deref());
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let (conn_wait, lag) = waits(due, free_since, picked);
        let mut s = Sample {
            sent_etag,
            lag_ms: ms(lag),
            conn_wait_ms: ms(conn_wait),
            published: (published, fixture.published()),
            ..Sample::new(p.kind.clone(), key.1.clone())
        };
        match reply {
            Ok((sent, r)) => {
                s.status = r.status;
                s.refused = r.refused;
                s.request_id = r.request_id;
                s.digest = body_digest(&r.body);
                s.body_bytes = r.body.len() as u64;
                s.wire_bytes = r.wire_bytes;
                s.e2e_ms = ms(r.last_byte - due);
                s.ttfb_ms = ms(r.first_byte.saturating_duration_since(sent));
                s.transfer_ms = ms(r.last_byte - r.first_byte);
                free_since = r.last_byte;
                if p.kind == Kind::LogPoll {
                    s.log = String::from_utf8(r.body).ok();
                }
                if let (200, Some(etag)) = (r.status, &r.etag) {
                    caches
                        .lock()
                        .expect("cache lock poisoned")
                        .insert(key, etag.clone());
                }
                s.etag = r.etag;
            }
            Err(e) => {
                // The connection's stream position is lost: count the
                // request as failed and continue on a fresh connection.
                s.error = Some(e);
                free_since = Instant::now();
                conn = Conn::open(addr)?;
            }
        }
        samples.push(s);
    }
    Ok(samples)
}

/// Runs one phase on all connections at once.
fn run_phase(
    addr: SocketAddr,
    plan: &[Planned],
    fixture: &Fixture,
    caches: &Caches,
) -> Result<Vec<Sample>, String> {
    let dispatch = Dispatch {
        plan,
        next: Mutex::new(0),
        t0: Instant::now() + Duration::from_millis(20),
    };
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| s.spawn(|| run_connection(addr, &dispatch, fixture, caches)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Registry readings a phase is measured between.
#[derive(Default)]
struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistogramSnapshot>,
}

const COUNTERS: &[&str] = &[
    "jedule_render_cache_hits_total",
    "jedule_render_cache_misses_total",
    "jedule_render_not_modified_total",
    "jedule_prepared_cache_misses_total",
    "jedule_tile_cache_hits_total",
    "jedule_tile_cache_misses_total",
    "jedule_tile_lookups_total",
    "jedule_plan_cache_hits_total",
    "jedule_plan_cache_misses_total",
];

const HISTS: &[&str] = &[
    "jedule_render_queue_wait_seconds",
    "jedule_wake_dispatch_seconds",
    "jedule_worker_job_seconds",
];

impl Snapshot {
    fn take(reg: &Registry) -> Snapshot {
        let mut s = Snapshot::default();
        for &c in COUNTERS {
            s.counters.insert(c, reg.counter_total(c));
        }
        for &h in HISTS {
            if let Some(snap) = reg.histogram(h, &[]) {
                s.hists.insert(h, snap);
            }
        }
        s
    }

    fn delta(&self, before: &Snapshot, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    }

    /// Seconds summed into a histogram since `before`.
    fn hist_sum(&self, before: &Snapshot, name: &str) -> f64 {
        let sum = |s: &Snapshot| s.hists.get(name).map_or(0.0, |h| h.sum);
        sum(self) - sum(before)
    }

    /// (mean ms, tail ms) of a histogram's observations since `before`;
    /// the tail is interpolated inside its bucket.
    fn hist_ms(&self, before: &Snapshot, name: &str) -> (f64, f64) {
        let Some(h) = self.hists.get(name) else {
            return (0.0, 0.0);
        };
        let (b_cum, b_count) = before
            .hists
            .get(name)
            .map_or((vec![0; h.cumulative.len()], 0), |b| {
                (b.cumulative.clone(), b.count)
            });
        let n = h.count - b_count;
        if n == 0 {
            return (0.0, 0.0);
        }
        let mean = self.hist_sum(before, name) / n as f64 * 1e3;
        let p = tail_percentile(n as usize).unwrap_or(0.9);
        let want = p * n as f64;
        let mut lo_bound = 0.0;
        let mut lo_cum = 0.0;
        for (i, &b) in h.bounds.iter().enumerate() {
            let c = (h.cumulative[i] - b_cum[i]) as f64;
            if c >= want {
                let frac = if c > lo_cum {
                    (want - lo_cum) / (c - lo_cum)
                } else {
                    1.0
                };
                return (mean, (lo_bound + frac * (b - lo_bound)) * 1e3);
            }
            lo_bound = b;
            lo_cum = c;
        }
        (mean, lo_bound * 1e3)
    }
}

/// Offline references: expected body digest and ETag per target.
struct References {
    trace_prep: PreparedSchedule,
    trace_digest: u64,
    monitor_preps: Vec<PreparedSchedule>,
    monitor_digests: Vec<u64>,
    memo: HashMap<RefKey, (u64, String)>,
}

/// What a reference is rendered for: the target, and for the monitor
/// the version of the file the response's ETag names.
type RefKey = (String, usize);

fn etag(file_digest: u64, opt_key: &str) -> String {
    format!(
        "\"{file_digest:016x}-{:016x}\"",
        fnv1a64(opt_key.as_bytes())
    )
}

impl References {
    /// Parses the inputs again from their text. Built after the run, so
    /// no reference is resident while the timed phase is measured.
    fn build(trace_csv: &str, monitor_versions: &[String]) -> Result<References, String> {
        let schedule = jedule_xmlio::parse_any(trace_csv, Some(Path::new(TRACE)))
            .map_err(|e| e.to_string())?;
        let mut monitor_preps = Vec::with_capacity(monitor_versions.len());
        for text in monitor_versions {
            let schedule = jedule_xmlio::parse_any(text, Some(Path::new(MONITOR)))
                .map_err(|e| e.to_string())?;
            monitor_preps.push(PreparedSchedule::new(schedule));
        }
        Ok(References {
            trace_prep: PreparedSchedule::new(schedule),
            trace_digest: fnv1a64(trace_csv.as_bytes()),
            monitor_preps,
            monitor_digests: monitor_versions
                .iter()
                .map(|v| fnv1a64(v.as_bytes()))
                .collect(),
            memo: HashMap::new(),
        })
    }

    /// The monitored file's version an ETag was computed from.
    fn monitor_version(&self, etag: Option<&str>) -> Option<usize> {
        let hex = etag?.trim_matches('"').split('-').next()?;
        let digest = u64::from_str_radix(hex, 16).ok()?;
        self.monitor_digests.iter().position(|&d| d == digest)
    }

    /// The reference a sample is checked against, if its version is
    /// known. A monitor 304 is checked against the validator it
    /// confirmed.
    fn key(&self, s: &Sample) -> Option<RefKey> {
        let version = match s.kind {
            Kind::Monitor(_) => {
                let tag = if s.status == 304 {
                    s.sent_etag.as_deref()
                } else {
                    s.etag.as_deref()
                };
                self.monitor_version(tag)?
            }
            _ => 0,
        };
        Some((s.target.clone(), version))
    }

    /// Renders the expected (body digest, ETag) for one key.
    fn render(&self, kind: &Kind, (target, version): &RefKey) -> (u64, String) {
        match kind {
            Kind::Shell => (
                body_digest(jedule_render::html::explore_shell(TRACE, 1600.0).as_bytes()),
                String::new(),
            ),
            Kind::Meta => {
                let opts = RenderOptions {
                    width: 1600.0,
                    threads: 1,
                    ..RenderOptions::default()
                };
                let json = jedule_render::html::meta_json_prepared(&self.trace_prep, &opts);
                (
                    body_digest(json.as_bytes()),
                    etag(self.trace_digest, "meta;w=1600"),
                )
            }
            Kind::Tile(window) => {
                let (opts, key) =
                    render_options_from_params(Some("svg"), Some(WIDTH), window.as_deref(), None)
                        .expect("planned tile parameters are valid");
                let body = jedule_render::render_prepared(&self.trace_prep, &opts);
                (body_digest(&body), etag(self.trace_digest, &key))
            }
            Kind::Monitor(_) => {
                let (opts, key) =
                    render_options_from_params(Some("png"), Some(MONITOR_WIDTH), None, None)
                        .expect("monitor parameters are valid");
                let body = jedule_render::render_prepared(&self.monitor_preps[*version], &opts);
                (
                    body_digest(&body),
                    etag(self.monitor_digests[*version], &key),
                )
            }
            Kind::LogPoll => unreachable!("{target}: log polls have no reference"),
        }
    }

    /// Renders every reference the samples need, on all cores.
    fn prepare(&mut self, samples: &[&Sample]) {
        let mut todo: Vec<(Kind, RefKey)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for s in samples {
            if let Some(key) = self.key(s) {
                if !self.memo.contains_key(&key) && seen.insert(key.clone()) {
                    todo.push((s.kind.clone(), key));
                }
            }
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let this = &*self;
        let done: Vec<(RefKey, (u64, String))> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let todo = &todo;
                    scope.spawn(move || {
                        todo.iter()
                            .skip(w)
                            .step_by(workers)
                            .map(|(kind, key)| (key.clone(), this.render(kind, key)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference renderer panicked"))
                .collect()
        });
        self.memo.extend(done);
    }

    /// Checks one sample against its (prepared) reference.
    fn verify(&self, s: &Sample) -> Result<(), String> {
        let key = self
            .key(s)
            .ok_or_else(|| format!("{} names no known version of the input", s.target))?;
        if let Kind::Monitor(_) = s.kind {
            fresh_monitor(key.1, s.published)?;
        }
        let (digest, tag) = self
            .memo
            .get(&key)
            .ok_or_else(|| format!("no reference rendered for {}", s.target))?;
        match s.status {
            200 if *digest == s.digest && (tag.is_empty() || s.etag.as_ref() == Some(tag)) => {
                Ok(())
            }
            200 => Err(format!(
                "body or ETag differs from the reference for {}",
                s.target
            )),
            304 if !tag.is_empty() && s.sent_etag.as_ref() == Some(tag) => Ok(()),
            304 => Err(format!("304 for {} without a matching validator", s.target)),
            other => Err(format!("status {other} for {}", s.target)),
        }
    }
}

/// A monitor answer must come from a rewrite no older than the last one
/// finished before the request went out (and no newer than the last
/// one finished when the reply arrived). An old body, an old ETag or a
/// 304 to an old validator means the server missed a rewrite.
fn fresh_monitor(version: usize, (sent, answered): (u64, u64)) -> Result<(), String> {
    if (sent..=answered).any(|n| version_of(n) == version) {
        Ok(())
    } else {
        Err(format!(
            "monitor answered with version {version} after rewrite {sent} (version {}) had landed",
            version_of(sent)
        ))
    }
}

/// The 50k-task explorer trace as CSV.
fn trace_csv(seed: u64) -> String {
    let assigned = synth_scale_trace(TRACE_TASKS, 1024, Rng::fork(seed, 0x5345).next_u64());
    let schedule = assigned_to_schedule(
        &assigned,
        &ConvertOptions {
            cluster_name: "scale".into(),
            total_nodes: 1024,
            reserved: 0,
            highlight_user: None,
            task_attrs: false,
        },
    );
    drop(assigned);
    jedule_xmlio::write_schedule_csv(&schedule)
}

/// The contents the monitored file cycles through: Thunder days of
/// pairwise different lengths, so every rewrite changes the
/// (mtime, len) stat the server validates against, and no version
/// repeats soon enough to still sit in a cache.
fn monitor_versions(seed: u64) -> Vec<String> {
    let mut thunder_seed = Rng::fork(seed, 0x5448).next_u64();
    let mut versions: Vec<String> = Vec::with_capacity(MONITOR_VERSIONS);
    while versions.len() < MONITOR_VERSIONS {
        thunder_seed = thunder_seed.wrapping_add(1);
        let jobs = synth_thunder_day(&jedule_workloads::ThunderParams {
            seed: thunder_seed,
            ..Default::default()
        });
        let text = jedule_xmlio::write_schedule_string(&jobs_to_schedule(
            &jobs,
            &ConvertOptions::default(),
        ));
        if versions.iter().all(|v| v.len() != text.len()) {
            versions.push(text);
        }
    }
    versions
}

/// Inputs for one seed, written under `root`: the trace with the
/// sidecar `jedule pack` would write, and the monitored file.
fn make_inputs(seed: u64, root: &Path) -> Result<(Fixture, View), String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    let csv = trace_csv(seed);
    let trace_path = root.join(TRACE);
    std::fs::write(&trace_path, &csv).map_err(|e| e.to_string())?;
    let trace_prep = PreparedSchedule::new(
        jedule_xmlio::parse_any(&csv, Some(&trace_path)).map_err(|e| e.to_string())?,
    );
    snap::write_pack_file(
        &trace_prep,
        snap::source_digest(csv.as_bytes()),
        &snap::sidecar_path(&trace_path),
    )
    .map_err(|e| e.to_string())?;
    let fixture = Fixture {
        root: root.to_path_buf(),
        monitor_versions: monitor_versions(seed),
        published: Mutex::new(0),
    };
    fixture.write_monitor(0)?;
    let full = trace_prep.global_extent().ok_or("trace has no extent")?;
    let geom: FrameGeom = jedule_render::frame_geometry_prepared(
        &trace_prep,
        &RenderOptions {
            width: 1600.0,
            format: OutputFormat::Svg,
            ..RenderOptions::default()
        },
    );
    let panel = geom.panels.first().ok_or("trace has no panel")?;
    let view = View {
        full: (full.start, full.end),
        px: panel.x,
        pw: panel.w,
    };
    Ok((fixture, view))
}

/// Binds a server on the fixture root and warms it the way a first
/// visitor would: shell, meta (the first sidecar load), overview tile,
/// and one monitor render. Returns the handle and the seconds it took.
fn start_server(fixture: &Fixture) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        root: fixture.root.clone(),
        ..ServeConfig::default()
    })?
    .spawn();
    let mut conn = Conn::open(server.addr())?;
    for kind in [
        Kind::Shell,
        Kind::Meta,
        Kind::Tile(None),
        Kind::Monitor(None),
    ] {
        let target = Planned {
            due: 0.0,
            user: 0,
            kind,
        }
        .target();
        let (_, reply) = conn.get(&target, None)?;
        if reply.status != 200 {
            return Err(format!("warm-up {target} answered {}", reply.status));
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Latency summary of the user requests of a phase (log polls aside).
struct PhaseStats {
    all: Option<Summary>,
    figures: Option<Summary>,
    samples: Vec<Sample>,
    seconds: f64,
    rate: f64,
}

fn phase_stats(samples: Vec<Sample>, rate: f64, seconds: f64) -> PhaseStats {
    let user: Vec<&Sample> = samples.iter().filter(|s| s.kind != Kind::LogPoll).collect();
    // A refused or failed request misses every latency limit.
    let lat = |s: &&Sample| {
        if s.refused || s.error.is_some() {
            f64::INFINITY
        } else {
            s.e2e_ms
        }
    };
    let all: Vec<f64> = user.iter().map(lat).collect();
    let figures: Vec<f64> = user
        .iter()
        .filter(|s| s.kind.is_figure())
        .map(lat)
        .collect();
    PhaseStats {
        all: Summary::of(&all),
        figures: Summary::of(&figures),
        samples,
        seconds,
        rate,
    }
}

pub fn run(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let root = dir.join("root");
    let (fixture, view) = make_inputs(args.seed, &root)?;
    report.note("input_tasks", TRACE_TASKS.to_string());

    // Set-up: bind + first sidecar load + warm-up, several times; the
    // last server stays up for the measurement.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (s, secs) = start_server(&fixture)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("the last set-up keeps its server");
    report.metric("setup_s", median(&setups), "s");
    let reg = server.registry();
    let addr = server.addr();
    let sidecar_hits = reg.counter_value("jedule_pack_sidecar_total", &[("result", "hit")]);
    report.check(
        sidecar_hits == 1,
        "the warm-up did not load the trace through its sidecar",
    );

    let mut planner = Planner::new(args.seed, view);
    let caches: Caches = Mutex::new(HashMap::new());
    report.peak_rss_start();
    let before_all = Snapshot::take(&reg);
    let mut phases: Vec<(&'static str, PhaseStats)> = Vec::new();
    let mut traced_window = None;
    let mut phase_log = String::new();
    let s = args.seconds;
    let plan: Vec<(&'static str, f64, f64, bool)> = if args.trace {
        vec![
            ("light", LIGHT_RPS, 0.2 * s, false),
            ("loaded", LOADED_RPS, 0.2 * s, false),
            ("traced", LOADED_RPS, 0.2 * s, true),
        ]
    } else {
        // The end-to-end figures are taken at the light rate only: at
        // the loaded rate requests often wait for both connections to
        // come free, and that queueing swings the percentiles between
        // identical runs by more than any useful bound.
        vec![("light", LIGHT_RPS, s, false)]
    };
    for (name, rate, secs, traced) in plan {
        let plans = planner.phase(rate, secs, traced);
        let before = Snapshot::take(&reg);
        let samples = run_phase(addr, &plans, &fixture, &caches)?;
        if traced {
            traced_window = Some((before, Snapshot::take(&reg)));
            // The ring still holds the whole phase; later phases would
            // push its last records out.
            phase_log = fetch_log(addr)?;
        }
        phases.push((name, phase_stats(samples, rate, secs)));
    }
    let mut max_rps = None;
    if args.trace {
        let (rps, samples) = search_max_rps(&mut planner, addr, &fixture, &caches, 0.4 * s)?;
        max_rps = Some(rps);
        phases.push(("search", phase_stats(samples, rps, 0.4 * s)));
    }
    report.peak_rss_end();
    let after_all = Snapshot::take(&reg);
    let workers = reg.gauge_value("jedule_render_workers", &[]).unwrap_or(1.0);
    server.shutdown()?;

    // Verification and the registry partitions, over every phase.
    let mut figure_200 = 0u64;
    let mut not_modified = 0u64;
    let mut lag = Vec::new();
    let answered: Vec<&Sample> = phases
        .iter()
        .flat_map(|(_, ph)| &ph.samples)
        .filter(|s| s.kind != Kind::LogPoll && s.error.is_none() && !s.refused)
        .collect();
    let trace_csv = std::fs::read_to_string(root.join(TRACE)).map_err(|e| e.to_string())?;
    let mut refs = References::build(&trace_csv, &fixture.monitor_versions)?;
    drop(trace_csv);
    refs.prepare(&answered);
    for (_, ph) in &phases {
        for smp in ph.samples.iter().filter(|s| s.kind != Kind::LogPoll) {
            report.attempted += 1;
            lag.push(smp.lag_ms);
            if let Some(e) = &smp.error {
                report.error(e);
            } else if smp.refused {
                report.refused();
            } else if let Err(e) = refs.verify(smp) {
                report.wrong(&e);
            }
            match (smp.status, &smp.kind) {
                (200, Kind::Tile(_) | Kind::Meta | Kind::Monitor(_)) => figure_200 += 1,
                (304, _) => not_modified += 1,
                _ => {}
            }
        }
    }
    let body_lookups = after_all.delta(&before_all, "jedule_render_cache_hits_total")
        + after_all.delta(&before_all, "jedule_render_cache_misses_total");
    report.check(
        body_lookups == figure_200,
        "body-cache hits + misses != 200 figure responses",
    );
    report.check(
        after_all.delta(&before_all, "jedule_render_not_modified_total") == not_modified,
        "not-modified counter != 304 responses",
    );
    report.check(
        after_all.delta(&before_all, "jedule_tile_cache_hits_total")
            + after_all.delta(&before_all, "jedule_tile_cache_misses_total")
            == after_all.delta(&before_all, "jedule_tile_lookups_total"),
        "tile hits + misses != tile lookups",
    );
    let lag_tail = Summary::of(&lag).map_or(0.0, |s| s.tail_or_p90());
    if lag_tail > MAX_LAG_TAIL_MS {
        report.invalid(&format!(
            "generator fell behind: lag tail {lag_tail:.1} ms > {MAX_LAG_TAIL_MS} ms"
        ));
    }

    for (name, ph) in &phases {
        let n = ph.all.as_ref().map_or(0, |s| s.n);
        report.note(
            &format!("phase.{name}"),
            format!(
                "{} rps offered for {:.1} s, {n} requests",
                ph.rate, ph.seconds
            ),
        );
    }
    if args.trace {
        let window = traced_window
            .as_ref()
            .expect("a traced run has a traced phase");
        let mut logs: Vec<&str> = phases
            .iter()
            .flat_map(|(_, ph)| ph.samples.iter().filter_map(|s| s.log.as_deref()))
            .collect();
        logs.push(&phase_log);
        serve_layers(report, &phases, window, &logs, workers);
        // The sidecar is mapped once, during set-up: report that load.
        if let Some(h) = reg.histogram("jedule_stage_duration_seconds", &[("stage", "pack.load")]) {
            report.metric(
                "core.snap.load_ms",
                h.sum / h.count.max(1) as f64 * 1e3,
                "ms",
            );
        }
        let sidecar = snap::sidecar_path(&root.join(TRACE));
        let bytes = std::fs::metadata(sidecar).map_or(0, |m| m.len());
        report.metric("core.snap.bytes", bytes as f64, "bytes");
        report.metric("serve.max_rps_slo", max_rps.unwrap_or(0.0), "1/s");
        report.metric("gen.lag_ms_tail", lag_tail, "ms");
        return Ok(());
    }
    let light = &phases[0].1;
    let mut mix: BTreeMap<String, usize> = BTreeMap::new();
    for s in &light.samples {
        let kind = match &s.kind {
            Kind::Shell => "shell",
            Kind::Meta => "meta",
            Kind::Tile(None) => "overview",
            Kind::Tile(Some(_)) => "tile",
            Kind::Monitor(_) => "monitor",
            Kind::LogPoll => "log",
        };
        *mix.entry(format!("{kind}/{}", s.status)).or_insert(0) += 1;
    }
    report.note("mix", format!("{mix:?}"));
    let figs = light
        .figures
        .as_ref()
        .ok_or("no figure requests in the run")?;
    // The tail is stated, not a metric: between identical runs on a
    // shared 2-vCPU host it moved by more than any useful bound. The
    // traced run reports it as `serve.req_ms_tail.*`.
    report.note("figure_ms_tail", figs.tail_note());
    report.metric("figure_ms_p50", figs.p50, "ms");
    let ok200: Vec<&Sample> = light
        .samples
        .iter()
        .filter(|s| s.kind.is_figure() && s.status == 200)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.metric(
        "figure_bytes",
        mean(
            &ok200
                .iter()
                .map(|s| s.body_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    let user: Vec<f64> = light
        .samples
        .iter()
        .filter(|s| s.kind != Kind::LogPoll)
        .map(|s| s.wire_bytes as f64)
        .collect();
    report.metric("wire_bytes_per_req", mean(&user), "bytes");
    Ok(())
}

/// Raises the offered rate while the p90 stays within the limit, then
/// bisects; each step is a short open-loop phase. A refused or failed
/// request misses the limit, and a growing backlog shows as requests
/// timed from their due time drifting past it.
fn search_max_rps(
    planner: &mut Planner,
    addr: SocketAddr,
    fixture: &Fixture,
    caches: &Caches,
    seconds: f64,
) -> Result<(f64, Vec<Sample>), String> {
    const STEPS: usize = 4;
    let step_secs = seconds / STEPS as f64;
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let mut rate = LOADED_RPS;
    let mut all = Vec::new();
    for _ in 0..STEPS {
        let plans = planner.phase(rate, step_secs, false);
        let samples = run_phase(addr, &plans, fixture, caches)?;
        let mut lat: Vec<f64> = samples
            .iter()
            .map(|s| {
                if s.refused || s.error.is_some() {
                    f64::INFINITY
                } else {
                    s.e2e_ms
                }
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        let tail = if lat.is_empty() {
            0.0
        } else {
            percentile(&lat, 0.9)
        };
        if tail <= SLO_MS {
            lo = lo.max(rate);
        } else {
            hi = hi.min(rate);
        }
        rate = if hi.is_finite() {
            (lo.max(rate / 2.0) + hi) / 2.0
        } else {
            rate * 1.5
        };
        all.extend(samples);
    }
    Ok((lo, all))
}

/// The access-log tail (the last 512 records).
fn fetch_log(addr: SocketAddr) -> Result<String, String> {
    let poll = Planned {
        due: 0.0,
        user: USERS + 1,
        kind: Kind::LogPoll,
    };
    let (_, reply) = Conn::open(addr)?.get(&poll.target(), None)?;
    String::from_utf8(reply.body).map_err(|_| "access log is not UTF-8".into())
}

/// One `/debug/log` access record: handler time and per-stage micros.
struct Record {
    dur_us: f64,
    stages_us: BTreeMap<String, f64>,
}

/// Parses the fields the ledger needs from JSONL access records,
/// keyed by request id (later polls overwrite earlier ones).
fn parse_records(logs: &[&str]) -> HashMap<u64, Record> {
    fn num_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(rest.len());
        Some(&rest[..end])
    }
    let mut out = HashMap::new();
    for line in logs.iter().flat_map(|l| l.lines()) {
        let (Some(id), Some(dur)) = (num_after(line, "{\"id\":"), num_after(line, "\"dur_us\":"))
        else {
            continue;
        };
        let (Ok(id), Ok(dur_us)) = (id.parse::<u64>(), dur.parse::<f64>()) else {
            continue;
        };
        let mut stages_us = BTreeMap::new();
        if let Some(at) = line.find("\"stages_us\":{") {
            let body = &line[at + 13..];
            let body = &body[..body.find('}').unwrap_or(body.len())];
            for entry in body.split(',').filter(|e| !e.is_empty()) {
                if let Some((k, v)) = entry.split_once(':') {
                    if let Ok(v) = v.parse::<f64>() {
                        stages_us.insert(k.trim_matches('"').to_string(), v);
                    }
                }
            }
        }
        out.insert(id, Record { dur_us, stages_us });
    }
    out
}

/// Per-layer metrics a request's handler time splits into, from its
/// flattened stage map. Each layer is a stage's total minus the stages
/// known to nest inside it, so the parts add up to the handler time.
const HANDLER_LAYERS: &[&str] = &[
    "io.read.ms",
    "xmlio.parse.ms",
    "core.prepared.index_ms",
    "core.prepared.composites_ms",
    "core.prepared.columns_ms",
    "core.prepared.extents_ms",
    "render.layout.ms",
    "serve.tiles.ms",
    "serve.cache.ms",
    "serve.handler_other.ms",
];

fn handler_split(r: &Record) -> [f64; 10] {
    let t = |name: &str| r.stages_us.get(name).copied().unwrap_or(0.0);
    let prepared = [
        t("prepare.index"),
        t("prepare.composites"),
        t("prepare.columns"),
        t("prepare.extents"),
    ];
    // prepare.* nest in whichever stage first asked: layout on a tile
    // miss, the metadata encoder on a `/meta` miss (which stays in
    // `serve.handler_other.ms` minus them).
    let layout = if r.stages_us.contains_key("render.layout") {
        t("render.layout") - prepared.iter().sum::<f64>()
    } else {
        0.0
    };
    let read = t("serve.read");
    let parse = t("serve.ingest");
    let tiles = t("serve.render") - t("render.layout");
    // The figure pipeline's own time: digest validation, ETag check,
    // body- and prepared-cache lookups, sidecar probe.
    let cache = t("serve.figure") - read - parse - t("serve.render") - t("serve.meta_encode");
    let parts = [
        read,
        parse,
        prepared[0],
        prepared[1],
        prepared[2],
        prepared[3],
        layout,
        tiles,
        cache,
    ];
    let other = r.dur_us - parts.iter().sum::<f64>();
    let mut out = [0.0; 10];
    for (o, v) in out.iter_mut().zip(parts.iter().chain([other].iter())) {
        *o = v / 1e3;
    }
    out
}

fn serve_layers(
    report: &mut Report,
    phases: &[(&'static str, PhaseStats)],
    window: &(Snapshot, Snapshot),
    logs: &[&str],
    workers: f64,
) {
    let phase = |name: &str| {
        &phases
            .iter()
            .find(|(n, _)| *n == name)
            .expect("phase ran")
            .1
    };
    for name in ["light", "loaded"] {
        if let Some(s) = &phase(name).all {
            report.metric(&format!("serve.req_ms_p50.{name}"), s.p50, "ms");
            report.metric(&format!("serve.req_ms_tail.{name}"), s.tail_or_p90(), "ms");
            report.note(&format!("serve.req_ms_tail.{name}_is"), s.tail_label());
        }
    }
    let (before, after) = window;
    let traced = phase("traced");
    let ratio = |hits: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let d = |name| after.delta(before, name);
    report.metric(
        "serve.body_cache.hit_ratio",
        ratio(
            d("jedule_render_cache_hits_total"),
            d("jedule_render_cache_hits_total") + d("jedule_render_cache_misses_total"),
        ),
        "ratio",
    );
    report.metric(
        "serve.tile_cache.hit_ratio",
        ratio(
            d("jedule_tile_cache_hits_total"),
            d("jedule_tile_lookups_total"),
        ),
        "ratio",
    );
    report.metric(
        "serve.plan_cache.hit_ratio",
        ratio(
            d("jedule_plan_cache_hits_total"),
            d("jedule_plan_cache_hits_total") + d("jedule_plan_cache_misses_total"),
        ),
        "ratio",
    );
    report.metric(
        "serve.prepared_cache.misses",
        d("jedule_prepared_cache_misses_total") as f64,
        "count",
    );
    report.metric(
        "serve.not_modified",
        d("jedule_render_not_modified_total") as f64,
        "count",
    );
    let (queue_mean, queue_tail) = after.hist_ms(before, "jedule_render_queue_wait_seconds");
    let (dispatch_mean, dispatch_tail) = after.hist_ms(before, "jedule_wake_dispatch_seconds");
    report.metric("serve.queue_wait_ms", queue_mean, "ms");
    report.metric("serve.queue_wait_ms_tail", queue_tail, "ms");
    report.metric("serve.wake_dispatch_ms", dispatch_mean, "ms");
    report.metric("serve.wake_dispatch_ms_tail", dispatch_tail, "ms");
    let busy_s = after.hist_sum(before, "jedule_worker_job_seconds");
    report.metric(
        "serve.worker_busy_frac",
        busy_s / (traced.seconds * workers),
        "ratio",
    );

    // The ledger: every traced-phase user request joined with its access
    // record by request id. Means per request.
    let records = parse_records(logs);
    let joined: Vec<(&Sample, &Record)> = traced
        .samples
        .iter()
        .filter(|s| s.kind != Kind::LogPoll && s.error.is_none())
        .filter_map(|s| records.get(&s.request_id?).map(|r| (s, r)))
        .collect();
    let n = joined.len().max(1) as f64;
    let mean =
        |f: &dyn Fn(&Sample, &Record) -> f64| joined.iter().map(|(s, r)| f(s, r)).sum::<f64>() / n;
    let e2e = mean(&|s, _| s.e2e_ms);
    let lag = mean(&|s, _| s.lag_ms);
    let conn_wait = mean(&|s, _| s.conn_wait_ms);
    let transfer = mean(&|s, _| s.transfer_ms);
    let handler = mean(&|_, r| r.dur_us / 1e3);
    let mut split = [0.0; 10];
    for (_, r) in &joined {
        for (acc, v) in split.iter_mut().zip(handler_split(r)) {
            *acc += v / n;
        }
    }
    for (name, v) in HANDLER_LAYERS.iter().zip(split) {
        report.metric(name, v, "ms");
    }
    report.metric("serve.handler_ms", handler, "ms");
    report.metric("gen.lag_ms", lag, "ms");
    report.metric("serve.client.conn_wait_ms", conn_wait, "ms");
    report.metric("serve.client.transfer_ms", transfer, "ms");
    let accounted = lag + conn_wait + queue_mean + dispatch_mean + handler + transfer;
    report.metric(
        "trace.unattributed_pct",
        100.0 * (e2e - accounted) / e2e.max(f64::MIN_POSITIVE),
        "%",
    );
    report.note(
        "trace.joined_requests",
        format!("{} of {}", joined.len(), traced.samples.len()),
    );
    let user: Vec<&Sample> = traced
        .samples
        .iter()
        .filter(|s| s.kind != Kind::LogPoll)
        .collect();
    let med = |f: &dyn Fn(&Sample) -> f64| median(&user.iter().map(|s| f(s)).collect::<Vec<_>>());
    if !user.is_empty() {
        report.metric("serve.client.ttfb_ms_p50", med(&|s| s.ttfb_ms), "ms");
        report.metric(
            "serve.client.transfer_ms_p50",
            med(&|s| s.transfer_ms),
            "ms",
        );
    }
    // The server's spans are always on; what tracing adds is the
    // harness polling `/debug/log`. Its cost: the traced phase's median
    // user-request latency against the loaded phase's, at the same rate.
    if let (Some(t), Some(l)) = (&traced.all, &phase("loaded").all) {
        report.metric("trace.overhead_pct", 100.0 * (t.p50 - l.p50) / l.p50, "%");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> View {
        View {
            full: (0.0, 1000.0),
            px: 72.0,
            pw: 1500.0,
        }
    }

    #[test]
    fn schedule_is_poisson_at_the_offered_rate() {
        let mut p = Planner::new(7, view());
        let plan = p.phase(50.0, 200.0, false);
        // 10 000 expected arrivals; a Poisson count is within 4 sigma.
        assert!(
            (plan.len() as f64 - 10_000.0).abs() < 400.0,
            "{}",
            plan.len()
        );
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(plan.iter().all(|r| (0.0..200.0).contains(&r.due)));
        let gaps: Vec<f64> = plan.windows(2).map(|w| w[1].due - w[0].due).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential gaps: standard deviation equals the mean.
        assert!((mean - 0.02).abs() < 0.001 && (var.sqrt() / mean - 1.0).abs() < 0.05);
        let monitor = plan
            .iter()
            .filter(|r| matches!(r.kind, Kind::Monitor(_)))
            .count();
        assert!((monitor as f64 / plan.len() as f64 - MONITOR_SHARE).abs() < 0.01);
        // Same seed, same schedule.
        let again = Planner::new(7, view()).phase(50.0, 200.0, false);
        assert!(plan
            .iter()
            .zip(&again)
            .all(|(a, b)| a.due == b.due && a.kind == b.kind));
    }

    #[test]
    fn log_polls_join_the_schedule_in_due_order() {
        let plan = Planner::new(1, view()).phase(10.0, 5.0, true);
        assert_eq!(plan.iter().filter(|r| r.kind == Kind::LogPoll).count(), 4);
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn waits_split_queueing_from_generator_lateness() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        // Connection free at the due time: all lateness is the generator's.
        assert_eq!(
            waits(ms(10), ms(5), ms(12)),
            (Duration::ZERO, Duration::from_millis(2))
        );
        // Busy until 30: 20 ms queued for the connection, then 1 ms late.
        assert_eq!(
            waits(ms(10), ms(30), ms(31)),
            (Duration::from_millis(20), Duration::from_millis(1))
        );
    }

    #[test]
    fn sessions_follow_the_page_and_revisit() {
        let v = view();
        let mut u = User::new(Rng::fork(3, 3));
        let kinds: Vec<Kind> = (0..3 + WALK.len()).map(|_| u.next(&v)).collect();
        assert_eq!(kinds[0], Kind::Shell);
        assert_eq!(kinds[1], Kind::Meta);
        assert_eq!(kinds[2], Kind::Tile(None));
        // The two revisits land exactly on the first two walk windows.
        assert_eq!(kinds[3 + 12], kinds[3]);
        assert_eq!(kinds[3 + 13], kinds[4]);
        assert_eq!(kinds[3 + 11], Kind::Tile(None));
        // Then a new session starts.
        assert_eq!(u.next(&v), Kind::Shell);
    }

    #[test]
    fn view_math_matches_the_page() {
        let v = view();
        // Zooming in around the centre keeps it centred.
        assert_eq!(v.zoom((0.0, 1000.0), 0.8, 500.0), (100.0, 900.0));
        // Zooming out past the extent clamps to it.
        assert_eq!(v.zoom((100.0, 900.0), 1.25 * 1.25, 500.0), (0.0, 1000.0));
        // Near an edge the window slides back inside.
        assert_eq!(v.zoom((0.0, 100.0), 1.25, 0.0), (0.0, 125.0));
        // Pans clamp at both ends.
        assert_eq!(v.pan((100.0, 200.0), -500.0), (0.0, 100.0));
        assert_eq!(v.pan((100.0, 200.0), 5000.0), (900.0, 1000.0));
    }

    #[test]
    fn access_records_split_handler_time_exactly() {
        let line = r#"{"id":42,"ts_ms":1,"method":"GET","path":"/explore?file=t","opt":"fmt=svg","status":200,"cache":"miss","dur_us":1000.0,"bytes":5,"stages_us":{"prepare.index":50.0,"render.layout":300.0,"serve.figure":900.0,"serve.render":800.0,"serve.request":950.0}}"#;
        let records = parse_records(&[line, "not json"]);
        let r = &records[&42];
        assert_eq!(r.dur_us, 1000.0);
        let split = handler_split(r);
        let by: HashMap<&str, f64> = HANDLER_LAYERS.iter().copied().zip(split).collect();
        assert_eq!(by["core.prepared.index_ms"], 0.05);
        assert_eq!(by["render.layout.ms"], 0.25);
        assert_eq!(by["serve.tiles.ms"], 0.5);
        assert_eq!(by["serve.cache.ms"], 0.1);
        assert!((split.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_monitor_answer_older_than_the_last_rewrite_fails() {
        let versions = monitor_versions(5);
        let mut refs = References::build(&trace_csv(5), &versions).unwrap();
        let poll = Planned {
            due: 0.0,
            user: USERS,
            kind: Kind::Monitor(None),
        }
        .target();
        let kind = Kind::Monitor(None);
        let expect = |v: usize| refs.render(&kind, &(poll.clone(), v));
        let (body0, tag0) = expect(0);
        let (body1, tag1) = expect(1);
        let answer =
            |status: u16, sent: Option<&String>, got: Option<(u64, &String)>, window| Sample {
                status,
                sent_etag: sent.cloned(),
                digest: got.map_or(0, |g| g.0),
                etag: got.map(|g| g.1.clone()).or(sent.cloned()),
                published: window,
                ..Sample::new(kind.clone(), poll.clone())
            };
        let samples = [
            // Before any rewrite, version 0 is the answer.
            (answer(200, None, Some((body0, &tag0)), (0, 0)), true),
            // A rewrite racing the request may go either way.
            (answer(200, None, Some((body0, &tag0)), (0, 1)), true),
            (answer(200, None, Some((body1, &tag1)), (0, 1)), true),
            // After rewrite 1 landed: the new version, or a 304 to it.
            (answer(200, Some(&tag0), Some((body1, &tag1)), (1, 1)), true),
            (answer(304, Some(&tag1), None, (1, 1)), true),
            // A server that missed the rewrite: the old body and ETag,
            // or a 304 to the old validator.
            (answer(200, None, Some((body0, &tag0)), (1, 1)), false),
            (answer(304, Some(&tag0), None, (1, 1)), false),
            (answer(304, Some(&tag0), None, (1, 2)), false),
        ];
        let all: Vec<&Sample> = samples.iter().map(|(s, _)| s).collect();
        refs.prepare(&all);
        for (i, (s, ok)) in samples.iter().enumerate() {
            assert_eq!(
                refs.verify(s).is_ok(),
                *ok,
                "sample {i}: {:?}",
                refs.verify(s)
            );
        }
        // Rewrites cycle through the versions.
        assert!(fresh_monitor(
            1,
            (MONITOR_VERSIONS as u64 + 1, MONITOR_VERSIONS as u64 + 1)
        )
        .is_ok());
    }

    #[test]
    fn body_digest_sees_every_byte() {
        let a = body_digest(b"0123456789abcdef!");
        assert_ne!(a, body_digest(b"0123456789abcdef?"));
        assert_ne!(a, body_digest(b"1123456789abcdef!"));
        assert_ne!(body_digest(b""), body_digest(b"\0"));
    }
}
