//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public
//! function: its name, start and end (seconds since the recorder was
//! enabled), the span that was open on the same thread when it began,
//! and, for served traffic, the request it belongs to. Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//! With the recorder off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Request id for served traffic (0 = none).
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ON: AtomicBool = AtomicBool::new(false);
/// Nanoseconds spent inside the recorder itself, on every thread.
static RECORDER_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        t0: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next: AtomicU64::new(1),
    })
}

/// Turns recording on or off for the spans that begin afterwards.
pub fn set_enabled(on: bool) {
    recorder();
    ON.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ON.load(Ordering::SeqCst)
}

/// Seconds since the recorder was created (the span clock).
pub fn now() -> f64 {
    recorder().t0.elapsed().as_secs_f64()
}

/// Converts an [`Instant`] to the span clock.
pub fn at(instant: Instant) -> f64 {
    instant
        .saturating_duration_since(recorder().t0)
        .as_secs_f64()
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_req(name, 0, f)
}

/// Runs `f` inside a span named `name` that belongs to request `req`.
pub fn span_req<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let rec = recorder();
    let id = rec.next.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = now();
    let out = f();
    let end = now();
    STACK.with(|s| s.borrow_mut().pop());
    push(Span {
        id,
        parent,
        name,
        start,
        end,
        req,
    });
    out
}

/// Records a span measured by the caller (for intervals that are not
/// one call, such as the wait for a response head).
pub fn record(name: &'static str, req: u64, start: f64, end: f64) {
    if !enabled() {
        return;
    }
    let rec = recorder();
    let id = rec.next.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    push(Span {
        id,
        parent,
        name,
        start,
        end,
        req,
    });
}

fn push(span: Span) {
    let t = Instant::now();
    recorder()
        .spans
        .lock()
        .expect("span buffer lock is never held across a panic")
        .push(span);
    RECORDER_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Seconds spent recording spans so far, summed over threads: the
/// recorder's own cost, which the traced run reports as its overhead.
pub fn recorder_seconds() -> f64 {
    RECORDER_NS.load(Ordering::Relaxed) as f64 / 1e9
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span buffer lock is never held across a panic")
        .clone()
}

/// Per-name self time: each span's duration minus the time its child
/// spans cover, summed by name over `spans`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_default() += s.dur();
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s.dur() - child_time.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own.max(0.0);
    }
    out
}

/// Share of the window `[start, end]` that no span without children
/// (a named call into a layer) covers, on any thread.
pub fn uncovered_share(spans: &[Span], start: f64, end: f64) -> f64 {
    let parents: std::collections::HashSet<u64> = spans.iter().map(|s| s.parent).collect();
    let mut leaves: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| !parents.contains(&s.id))
        .map(|s| (s.start.max(start), s.end.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    leaves.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in leaves {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    let window = (end - start).max(f64::MIN_POSITIVE);
    ((window - covered) / window).clamp(0.0, 1.0)
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start, s.end, s.req
        )?;
    }
    out.flush()
}
