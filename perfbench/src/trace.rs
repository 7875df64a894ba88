//! Spans recorded from outside the engine: an in-memory span log, a
//! tracing [`Device`] decorator, per-name self times, and export in the
//! Chrome trace-event format (a plain JSON file, loadable in
//! `chrome://tracing` or Perfetto).
//!
//! A span is `(name, id, parent, operation id, thread, start, end)` in
//! wall-clock nanoseconds since the tracer was created. The benchmark opens
//! one operation span per query, update transaction or batch call, child
//! spans around its calls into the parser, the plan executor and the
//! updater, and the device decorator adds a leaf span per `submit`, `poll`
//! and `read_sync`. A span's *self time* is its duration minus the part of
//! it covered by its children.

use pathix::storage::{Completion, Device, DeviceStats, IoError, PageId, SimClock};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `plan.execute`.
    pub name: &'static str,
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Id of the enclosing span, 0 for none.
    pub parent: u64,
    /// Id of the operation span this span belongs to, 0 for none.
    pub op: u64,
    /// Thread lane: 0 for the benchmark thread, `1 + worker` for batch workers.
    pub tid: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// Innermost open span of the benchmark thread. Device spans of batch
    /// workers take it as their parent: the benchmark thread sits inside
    /// the batch call while they run.
    current: AtomicU64,
    /// Operation the benchmark thread is inside.
    op: AtomicU64,
    /// Sum and number of device queue depths (`in_flight`) seen by
    /// `submit` and `poll`.
    depth_sum: AtomicU64,
    depth_samples: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            op: AtomicU64::new(0),
            depth_sum: AtomicU64::new(0),
            depth_samples: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Opens a span nested in the benchmark thread's innermost open span.
    /// It closes when the guard drops; guards must drop in reverse order.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Opens an operation span: a span that also names the operation every
    /// span inside it belongs to.
    pub fn op(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, true)
    }

    fn open(&self, name: &'static str, is_op: bool) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        let op = if is_op {
            self.op.store(id, Ordering::Relaxed);
            id
        } else {
            self.op.load(Ordering::Relaxed)
        };
        SpanGuard {
            tracer: self,
            name,
            id,
            parent,
            op,
            is_op,
            start_ns: self.now_ns(),
        }
    }

    /// Records a leaf span around `f`, under the current span.
    fn leaf<R>(&self, name: &'static str, tid: u32, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(Span {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            op: self.op.load(Ordering::Relaxed),
            tid,
            start_ns,
            end_ns,
        });
        out
    }

    fn note_depth(&self, depth: usize) {
        self.depth_sum.fetch_add(depth as u64, Ordering::Relaxed);
        self.depth_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Mean device queue depth over `submit`/`poll` calls, 0 if none.
    pub fn mean_queue_depth(&self) -> f64 {
        let n = self.depth_samples.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.depth_sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// A copy of every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: u64,
    op: u64,
    is_op: bool,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let t = self.tracer;
        let end_ns = t.now_ns();
        t.current.store(self.parent, Ordering::Relaxed);
        if self.is_op {
            t.op.store(0, Ordering::Relaxed);
        }
        t.record(Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            op: self.op,
            tid: 0,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Opens `name` on `tracer` if there is one.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

/// Opens operation span `name` on `tracer` if there is one.
pub fn op<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.op(name))
}

/// A [`Device`] decorator that records a span per `submit`, `poll` and
/// `read_sync`, plus the queue depth (`in_flight`) each `submit`/`poll`
/// sees. Shaped like the pacing decorator of the thread-scaling harness:
/// it forwards every call and changes nothing simulated.
pub struct TracedDevice {
    inner: Box<dyn Device + Send>,
    tracer: Arc<Tracer>,
    tid: u32,
}

impl TracedDevice {
    /// Wraps `inner`; its spans go to `tracer` on lane `tid`.
    pub fn new(inner: Box<dyn Device + Send>, tracer: Arc<Tracer>, tid: u32) -> Self {
        Self { inner, tracer, tid }
    }
}

impl Device for TracedDevice {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        let inner = &mut self.inner;
        self.tracer.leaf("sim_disk.read_sync", self.tid, || {
            inner.read_sync(page, clock)
        })
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        let inner = &mut self.inner;
        self.tracer
            .leaf("sim_disk.submit", self.tid, || inner.submit(page, clock));
        self.tracer.note_depth(self.inner.in_flight());
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        self.tracer.note_depth(self.inner.in_flight());
        let inner = &mut self.inner;
        self.tracer
            .leaf("sim_disk.poll", self.tid, || inner.poll(clock, block))
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        self.inner.append_page(bytes)
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        self.inner.write_page(page, bytes);
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn access_trace(&self) -> &[PageId] {
        self.inner.access_trace()
    }

    fn set_trace(&mut self, enabled: bool) {
        self.inner.set_trace(enabled);
    }

    fn park(&mut self) {
        self.inner.park();
    }

    fn try_fork(&self) -> Option<Box<dyn Device + Send>> {
        self.inner.try_fork()
    }
}

/// Count, total and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-name span statistics; self time subtracts the union of a span's
/// children, so overlapping children (parallel workers) count once.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Writes the first `limit` spans (by start time) as a Chrome trace-event
/// file: complete (`"ph": "X"`) events with microsecond timestamps, the
/// span, parent and operation ids under `args`.
pub fn write_chrome_trace(path: &Path, spans: &[Span], limit: usize) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n")?;
    for (i, s) in sorted.iter().take(limit).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        write!(
            w,
            "{sep}{{\"name\": \"{}\", \"cat\": \"pathix\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("plan.execute", 1, 0, 0, 100),
            span("sim_disk.poll", 2, 1, 10, 30),
            // Overlaps the first child: counted once.
            span("sim_disk.poll", 3, 1, 20, 40),
            span("sim_disk.poll", 4, 1, 90, 120),
        ];
        let s = summarize(&spans);
        assert_eq!(s["plan.execute"].self_ns, 100 - 30 - 10);
        assert_eq!(s["sim_disk.poll"].count, 3);
        assert_eq!(s["sim_disk.poll"].self_ns, 20 + 20 + 30);
    }

    #[test]
    fn guards_nest_and_restore_the_parent() {
        let t = Tracer::new();
        {
            let _op = t.op("query");
            let _inner = t.span("plan.execute");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans
            .iter()
            .find(|s| s.name == "plan.execute")
            .expect("inner");
        let outer = spans.iter().find(|s| s.name == "query").expect("outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, outer.id);
        assert_eq!(outer.parent, 0);
    }
}
