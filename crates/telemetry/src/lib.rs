//! Per-layer latency telemetry for the DuraSSD reproduction.
//!
//! The paper's central claims (Tables 1–5, Figs 5–6) are about *where the
//! host waits*: FLUSH CACHE latency, fsync tail latency, and commit-time
//! variance between a durable-cache SSD and volatile-cache baselines. Coarse
//! cumulative counters cannot express a p99 or attribute a wait to a cause,
//! so this crate provides the measurement substrate used by every layer of
//! the stack:
//!
//! * [`Histogram`] — HDR-style log-bucketed latency histogram (power-of-two
//!   buckets with 16 linear sub-buckets each) with p50/p90/p99/p999/max.
//! * [`Telemetry`] — a cheaply clonable handle (`Rc<RefCell<..>>`; the
//!   simulation is single-threaded virtual time) holding named histograms,
//!   counters and gauges plus the optional trace ring, gauge sampler and
//!   latency anatomy. Layers embed it.
//! * [`Scope`] — the one instrumentation primitive: an operation opens a
//!   scope at issue time ([`Scope::open`]) and closes it at completion
//!   ([`Scope::close`]). [`Rec`] says what the scope records — its trace
//!   span, a latency histogram sample, an anatomy frame.
//! * [`SegKind`] / [`OpBreakdown`] — the per-operation latency anatomy:
//!   each host op carries a segment breakdown (queueing wait vs service per
//!   resource) that sums exactly to its wall latency, plus per-kind
//!   `seg.<label>` histograms and a bounded tail-outlier capturer (see the
//!   `anatomy` module docs). The segment kinds are the only taxonomy of
//!   waiting time: a run-wide "where did the time go" line is the sums of
//!   the `seg.*` histograms.
//! * JSON export/import ([`Telemetry::to_json`], [`Telemetry::from_json`]) —
//!   hand-rolled, no external dependencies, exact round-trip.

use simkit::Nanos;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

mod anatomy;
mod hist;
mod json;
mod trace;

pub use anatomy::{Anatomy, OpBreakdown, OutlierCap, SegKind, N_SEG};
pub use hist::Histogram;
pub use json::{parse as parse_json, JsonValue};
pub use trace::{
    validate_chrome_json, Event, Phase, Sampler, Series, TraceBuf, TraceCheck, TraceId,
    CHROME_EVENT_FIELDS,
};

/// What a [`Scope`] records between [`Scope::open`] and [`Scope::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rec<'a> {
    /// The trace span only: device-internal work such as a NAND program,
    /// a GC pass or a cache drain.
    Span,
    /// The span, and the latency into the named histogram (WAL, buffer
    /// pool).
    Hist(&'a str),
    /// The span, the latency under the span's own name, and an anatomy
    /// frame: one device command issued by a volume.
    Command,
    /// As [`Rec::Command`], under a fresh trace-ID that every event emitted
    /// underneath inherits: one host operation (engine or docstore op).
    Op,
    /// An anatomy frame only, whose segment charges stay inside it: work
    /// issued on behalf of no enclosing operation (the WAL's deferred group
    /// flush, issued before the op that happens to fire it began).
    Detached,
}

/// One instrumented operation, opened at its issue time by [`Scope::open`]
/// and closed at its completion by [`Scope::close`] (or [`Scope::abort`]
/// when it failed). A scope opened without a telemetry handle records
/// nothing.
#[must_use = "close the scope at the operation's completion"]
#[derive(Debug)]
pub struct Scope<'a> {
    tel: Option<Telemetry>,
    cat: &'a str,
    name: &'a str,
    start: Nanos,
    rec: Rec<'a>,
}

impl<'a> Scope<'a> {
    /// Open a scope on `tel` for one operation issued at `ts`: emits the
    /// span's `Begin` event (under a fresh trace-ID for [`Rec::Op`]) and
    /// opens the anatomy frame when `rec` asks for one. With tracing and
    /// anatomy disabled this touches nothing but the handle.
    #[inline]
    pub fn open(
        tel: Option<&Telemetry>,
        cat: &'a str,
        name: &'a str,
        ts: Nanos,
        rec: Rec<'a>,
    ) -> Self {
        if let Some(tel) = tel {
            tel.inner.borrow_mut().begin_scope(cat, name, ts, rec);
        }
        Scope { tel: tel.cloned(), cat, name, start: ts, rec }
    }

    /// Close the scope at the operation's completion time `end`: records
    /// the latency sample (if the scope keeps one), closes the anatomy
    /// frame and emits the span's `End` event.
    #[inline]
    pub fn close(self, end: Nanos) {
        if let Some(tel) = &self.tel {
            tel.inner.borrow_mut().end_scope(&self, end, true);
        }
    }

    /// Close the scope of an operation that failed, at `at`: the frame and
    /// the span end there, and no latency sample is recorded.
    #[inline]
    pub fn abort(self, at: Nanos) {
        if let Some(tel) = &self.tel {
            tel.inner.borrow_mut().end_scope(&self, at, false);
        }
    }
}

/// The registry behind a [`Telemetry`] handle.
#[derive(Debug, Default)]
struct Inner {
    hists: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    trace: Option<TraceBuf>,
    trace_stack: Vec<TraceId>,
    next_trace: u64,
    sampler: Option<Sampler>,
    anatomy: Option<Anatomy>,
}

impl Inner {
    /// Allocation-free after the first sample of a name.
    fn record(&mut self, name: &str, ns: Nanos) {
        if let Some(h) = self.hists.get_mut(name) {
            h.record(ns);
        } else {
            self.hists.entry(name.to_string()).or_default().record(ns);
        }
    }

    /// Push a trace event under the current trace-ID. No-op (before any
    /// name interning) when tracing is disabled.
    fn event(&mut self, ts: Nanos, ph: Phase, cat: &str, name: &str) {
        let Some(t) = self.trace.as_mut() else { return };
        t.push(ts, *self.trace_stack.last().unwrap_or(&0), ph, cat, name);
    }

    fn begin_frame(&mut self, name: &str, ts: Nanos, detached: bool) {
        let trace = *self.trace_stack.last().unwrap_or(&0);
        if let Some(a) = self.anatomy.as_mut() {
            a.begin(name, ts, trace, detached);
        }
    }

    fn end_frame(&mut self, name: &str, ts: Nanos) {
        let host = self.anatomy.as_mut().and_then(|a| a.end(name, ts));
        if let Some(host) = host.filter(|&h| h > 0) {
            self.record(SegKind::Host.hist_name(), host);
        }
    }

    /// The opening half of [`Scope::open`].
    fn begin_scope(&mut self, cat: &str, name: &str, ts: Nanos, rec: Rec<'_>) {
        if rec == Rec::Op && self.trace.is_some() {
            self.next_trace += 1;
            self.trace_stack.push(self.next_trace);
        }
        if rec != Rec::Detached {
            self.event(ts, Phase::Begin, cat, name);
        }
        if matches!(rec, Rec::Command | Rec::Op | Rec::Detached) {
            self.begin_frame(name, ts, rec == Rec::Detached);
        }
    }

    /// Close `s` at `end`: the latency sample (when `sample` and the scope
    /// keeps one), the frame, then the span's `End` event.
    fn end_scope(&mut self, s: &Scope<'_>, end: Nanos, sample: bool) {
        if sample {
            let ns = end.saturating_sub(s.start);
            match s.rec {
                Rec::Hist(h) => self.record(h, ns),
                Rec::Command | Rec::Op => self.record(s.name, ns),
                Rec::Span | Rec::Detached => {}
            }
        }
        if matches!(s.rec, Rec::Command | Rec::Op | Rec::Detached) {
            self.end_frame(s.name, end);
        }
        match s.rec {
            Rec::Detached => {}
            Rec::Op => {
                if let Some(t) = self.trace.as_mut() {
                    let id = self.trace_stack.pop().unwrap_or(0);
                    t.push(end, id, Phase::End, s.cat, s.name);
                }
            }
            _ => self.event(end, Phase::End, s.cat, s.name),
        }
    }
}

/// Cheaply clonable handle to one telemetry domain: named histograms,
/// counters and gauges, and (when enabled) the event-trace ring with its
/// trace-ID stack, the gauge sampler and the latency anatomy. The
/// simulation runs on a single thread in virtual time, so interior
/// mutability via `RefCell` is sufficient, and recording on the hot path
/// stays allocation-free for existing names.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<Inner>>,
}

impl Telemetry {
    /// Fresh handle with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample into the named histogram.
    ///
    /// Steady-state recording is allocation-free: the name is only turned
    /// into an owned `String` the first time it is seen.
    pub fn record(&self, name: &str, ns: Nanos) {
        self.inner.borrow_mut().record(name, ns);
    }

    /// Add to a named counter (allocation-free after the first sample).
    pub fn incr(&self, name: &str, by: u64) {
        let counters = &mut self.inner.borrow_mut().counters;
        if let Some(c) = counters.get_mut(name) {
            *c += by;
        } else {
            counters.insert(name.to_string(), by);
        }
    }

    /// Set a named gauge (allocation-free after the first sample).
    pub fn set_gauge(&self, name: &str, value: i64) {
        let gauges = &mut self.inner.borrow_mut().gauges;
        if let Some(g) = gauges.get_mut(name) {
            *g = value;
        } else {
            gauges.insert(name.to_string(), value);
        }
    }

    /// Clone of the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().hists.get(name).cloned()
    }

    /// Named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Named gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Start recording trace events into a ring of `capacity` events.
    pub fn enable_tracing(&self, capacity: usize) {
        self.inner.borrow_mut().trace = Some(TraceBuf::new(capacity));
    }

    /// True once tracing was enabled on this domain.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.borrow().trace.is_some()
    }

    /// Record an `Instant` trace event under the current trace-ID (no-op
    /// when tracing is disabled).
    pub fn trace_instant(&self, cat: &str, name: &str, ts: Nanos) {
        self.inner.borrow_mut().event(ts, Phase::Instant, cat, name);
    }

    /// Export the trace ring as Chrome trace-event JSON, if tracing is
    /// enabled.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.inner.borrow().trace.as_ref().map(|t| t.to_chrome_json())
    }

    /// `(recorded, dropped)` event totals of the trace ring, if enabled.
    pub fn trace_counts(&self) -> Option<(u64, u64)> {
        self.inner.borrow().trace.as_ref().map(|t| (t.recorded(), t.dropped()))
    }

    /// Start sampling all gauges every `cadence` virtual nanoseconds.
    pub fn enable_sampling(&self, cadence: Nanos) {
        self.inner.borrow_mut().sampler = Some(Sampler::new(cadence));
    }

    /// Tick the sampler at virtual time `now` (no-op unless sampling is
    /// enabled and the cadence has elapsed). The engine and docstore call
    /// this once per operation, so bench bins never need loop access.
    pub fn sample(&self, now: Nanos) {
        let r = &mut *self.inner.borrow_mut();
        if let Some(s) = r.sampler.as_mut() {
            s.sample_if_due(now, &r.gauges);
        }
    }

    /// Take the final sample at end-of-run (always fires; see
    /// [`Sampler::finish`]).
    pub fn finish_sampling(&self, now: Nanos) {
        let r = &mut *self.inner.borrow_mut();
        if let Some(s) = r.sampler.as_mut() {
            s.finish(now, &r.gauges);
        }
    }

    /// Export the sampled gauge series as CSV, if sampling is enabled.
    pub fn series_csv(&self) -> Option<String> {
        self.inner.borrow().sampler.as_ref().map(|s| s.to_csv())
    }

    /// Start per-operation latency-anatomy tracking, capturing the `k`
    /// slowest ops per name in the tail-outlier capturer. Until this is
    /// called, every frame/segment hook is a free no-op.
    pub fn enable_anatomy(&self, k: usize) {
        self.inner.borrow_mut().anatomy = Some(Anatomy::new(k));
    }

    /// Open a bare attribution frame for op `name` at `ts`, with no span
    /// and no latency sample (harnesses that frame device commands
    /// directly). The frame inherits the current trace-ID. No-op when
    /// anatomy is disabled.
    pub fn begin_frame(&self, name: &str, ts: Nanos) {
        self.inner.borrow_mut().begin_frame(name, ts, false);
    }

    /// Close the innermost attribution frame at `ts`: audits the
    /// conservation identity, sweeps the unattributed remainder into
    /// [`SegKind::Host`] (recording it in the `seg.host` histogram), and
    /// offers the breakdown to the outlier capturer. No-op when anatomy is
    /// disabled or no frame is open.
    pub fn end_frame(&self, name: &str, ts: Nanos) {
        self.inner.borrow_mut().end_frame(name, ts);
    }

    /// Charge `ns` nanoseconds of causally attributed segment `kind` into
    /// the open frames (see [`Anatomy::charge`]) and the per-kind
    /// `seg.<label>` histogram. A charge with no open frame (background
    /// work outside any host op) is dropped; zero-length charges are free
    /// no-ops.
    pub fn seg(&self, kind: SegKind, ns: Nanos) {
        if ns == 0 {
            return;
        }
        let mut r = self.inner.borrow_mut();
        if r.anatomy.as_mut().is_some_and(|a| a.charge(kind, ns)) {
            r.record(kind.hist_name(), ns);
        }
    }

    /// Ops whose claimed segments exceeded wall latency (must stay 0; the
    /// anatomy conservation audit).
    pub fn anatomy_violations(&self) -> u64 {
        self.inner.borrow().anatomy.as_ref().map_or(0, |a| a.violations())
    }

    /// Clone of the most recently closed per-op breakdown.
    pub fn last_breakdown(&self) -> Option<OpBreakdown> {
        self.inner.borrow().anatomy.as_ref().and_then(|a| a.last()).cloned()
    }

    /// Number of attribution frames currently open.
    pub fn frame_depth(&self) -> usize {
        self.inner.borrow().anatomy.as_ref().map_or(0, |a| a.depth())
    }

    /// Retained tail outliers for one op name, slowest first.
    pub fn outliers_for(&self, name: &str) -> Vec<OpBreakdown> {
        let r = self.inner.borrow();
        r.anatomy.as_ref().map_or_else(Vec::new, |a| a.outliers().for_op(name).to_vec())
    }

    /// JSON export of the tail-outlier capturer (written next to the
    /// Chrome trace), if anatomy is enabled.
    pub fn outliers_json(&self) -> Option<String> {
        self.inner.borrow().anatomy.as_ref().map(|a| a.outliers().to_json())
    }

    /// Drop all recorded data. Tracing, sampling and anatomy stay enabled
    /// with their buffers emptied; trace-IDs keep advancing.
    pub fn reset(&self) {
        let r = &mut *self.inner.borrow_mut();
        r.hists.clear();
        r.counters.clear();
        r.gauges.clear();
        if let Some(t) = &mut r.trace {
            t.clear();
        }
        if let Some(s) = &mut r.sampler {
            s.clear();
        }
        if let Some(a) = &mut r.anatomy {
            a.clear();
        }
    }

    /// Serialise counters, gauges, histograms and (when sampling) the gauge
    /// series to a JSON object. Histograms are exported with their raw
    /// (index, count) bucket list so the export is lossless.
    pub fn to_json(&self) -> String {
        fn section<V>(
            out: &mut String,
            key: &str,
            m: &BTreeMap<String, V>,
            v: impl Fn(&V) -> String,
        ) {
            out.push_str(&format!("\"{key}\":{{"));
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json::quote(k), v(x)));
            }
            out.push('}');
        }
        let r = self.inner.borrow();
        let mut out = String::with_capacity(4096);
        out.push('{');
        section(&mut out, "counters", &r.counters, |v| v.to_string());
        out.push(',');
        section(&mut out, "gauges", &r.gauges, |v| v.to_string());
        out.push(',');
        section(&mut out, "histograms", &r.hists, |h| h.to_json());
        if let Some(s) = &r.sampler {
            out.push_str(",\"series\":");
            out.push_str(&s.to_json());
        }
        out.push('}');
        out
    }

    /// Rebuild a handle from the output of [`Telemetry::to_json`].
    /// `from_json(to_json(t)).to_json() == to_json(t)` holds exactly.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        let obj = v.as_object().ok_or("telemetry: expected object")?;
        let mut r = Inner::default();
        if let Some(cs) = obj.get("counters").and_then(|v| v.as_object()) {
            for (k, v) in cs {
                r.counters.insert(k.clone(), v.as_u64().ok_or("counter: expected u64")?);
            }
        }
        if let Some(gs) = obj.get("gauges").and_then(|v| v.as_object()) {
            for (k, v) in gs {
                r.gauges.insert(k.clone(), v.as_i64().ok_or("gauge: expected i64")?);
            }
        }
        if let Some(hs) = obj.get("histograms").and_then(|v| v.as_object()) {
            for (k, v) in hs {
                r.hists.insert(k.clone(), Histogram::from_json_value(v)?);
            }
        }
        if let Some(sv) = obj.get("series") {
            r.sampler = Some(Sampler::from_json_value(sv)?);
        }
        Ok(Self { inner: Rc::new(RefCell::new(r)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let t = Telemetry::new();
        t.incr("ops", 3);
        t.incr("ops", 2);
        t.set_gauge("depth", -4);
        assert_eq!(t.counter("ops"), 5);
        assert_eq!(t.gauge("depth"), Some(-4));
        assert_eq!(t.counter("missing"), 0);
        assert_eq!(t.gauge("missing"), None);
    }

    #[test]
    fn spans_record_durations() {
        let t = Telemetry::new();
        let s = Scope::open(Some(&t), "wal", "wal.commit", 100, Rec::Hist("wal.commit"));
        s.close(350);
        let h = t.histogram("wal.commit").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 250);
        // A span-only scope keeps no sample; a failed command keeps none.
        Scope::open(Some(&t), "nand", "nand.program", 0, Rec::Span).close(10);
        assert!(t.histogram("nand.program").is_none());
        Scope::open(Some(&t), "dev", "dev.x.write", 0, Rec::Command).abort(0);
        assert!(t.histogram("dev.x.write").is_none());
        // Without a handle a scope records nothing.
        Scope::open(None, "wal", "wal.commit", 0, Rec::Hist("wal.commit")).close(99);
        assert_eq!(t.histogram("wal.commit").unwrap().count(), 1);
    }

    #[test]
    fn shared_handle_sees_all_writes() {
        let a = Telemetry::new();
        let b = a.clone();
        a.incr("x", 1);
        b.incr("x", 1);
        assert_eq!(a.counter("x"), 2);
    }

    #[test]
    fn json_round_trips_exactly() {
        let t = Telemetry::new();
        t.incr("engine.commits", 42);
        t.set_gauge("pool.dirty", 17);
        t.set_gauge("neg", -3);
        for v in [0u64, 1, 5, 1000, 123_456_789, u64::MAX] {
            t.record("dev.write", v);
        }
        t.record("odd \"name\" \\ here", 77);
        let j1 = t.to_json();
        let back = Telemetry::from_json(&j1).expect("parse back");
        assert_eq!(j1, back.to_json(), "round trip must be lossless");
        assert_eq!(back.counter("engine.commits"), 42);
        assert_eq!(back.gauge("neg"), Some(-3));
        let h = back.histogram("dev.write").unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn op_scopes_assign_trace_ids_and_nest() {
        let t = Telemetry::new();
        // Disabled: an op scope emits nothing and allocates no trace-ID.
        Scope::open(Some(&t), "engine", "engine.put", 0, Rec::Op).close(5);
        assert_eq!(t.trace_counts(), None);
        t.enable_tracing(1024);
        let op = Scope::open(Some(&t), "engine", "engine.put", 10, Rec::Op);
        let wal = Scope::open(Some(&t), "wal", "wal.append", 12, Rec::Span);
        wal.close(20);
        op.close(25);
        Scope::open(Some(&t), "engine", "engine.commit", 30, Rec::Op).close(40);
        let doc = t.trace_chrome_json().unwrap();
        let chk = validate_chrome_json(&doc).expect("valid chrome trace");
        assert_eq!(chk.begins, 3);
        assert_eq!(chk.tracks, 2, "each op gets a fresh trace-ID");
        // The wal event inherited op 1's trace-ID.
        assert!(doc.contains(
            "\"name\":\"wal.append\",\"cat\":\"wal\",\"ph\":\"B\",\"ts\":0.012,\"pid\":1,\"tid\":1"
        ));
        assert!(doc.contains("\"name\":\"engine.commit\",\"cat\":\"engine\",\"ph\":\"E\""));
        assert!(doc.contains("\"tid\":2"));
        assert_eq!(t.trace_counts(), Some((6, 0)));
    }

    #[test]
    fn registry_json_round_trips_with_series() {
        let t = Telemetry::new();
        t.enable_sampling(100);
        t.set_gauge("pool.dirty_pages", 5);
        t.sample(0);
        t.set_gauge("pool.dirty_pages", 9);
        t.set_gauge("ssd.cache_occupancy", 3);
        t.sample(150);
        t.finish_sampling(220);
        t.incr("ops", 2);
        let j1 = t.to_json();
        assert!(j1.contains("\"series\":{"), "series section must be exported");
        let back = Telemetry::from_json(&j1).expect("parse back");
        assert_eq!(back.to_json(), j1, "series round trip must be lossless");
        assert_eq!(
            back.series_csv().unwrap(),
            "t_ns,pool.dirty_pages,ssd.cache_occupancy\n0,5,\n150,9,3\n220,9,3\n"
        );
    }

    #[test]
    fn sampling_is_cadence_gated() {
        let t = Telemetry::new();
        t.sample(0); // no-op before enable
        t.enable_sampling(1_000);
        t.set_gauge("g", 1);
        t.sample(0);
        t.sample(10); // below cadence: skipped
        t.sample(999);
        t.sample(1_000);
        t.finish_sampling(1_500);
        let csv = t.series_csv().unwrap();
        assert_eq!(csv, "t_ns,g\n0,1\n1000,1\n1500,1\n");
    }

    #[test]
    fn reset_clears_trace_and_series_but_keeps_them_enabled() {
        let t = Telemetry::new();
        t.enable_tracing(64);
        t.enable_sampling(10);
        t.set_gauge("g", 1);
        Scope::open(Some(&t), "engine", "op", 0, Rec::Op).close(5);
        t.sample(0);
        t.reset();
        assert!(t.tracing_enabled());
        assert_eq!(t.trace_counts().map(|(r, _)| r), Some(2), "counters survive reset");
        let doc = t.trace_chrome_json().unwrap();
        assert_eq!(validate_chrome_json(&doc).unwrap().events, 0);
        assert!(t.series_csv().unwrap().lines().count() == 1, "header only");
        // Trace-IDs keep advancing; no reuse after reset.
        Scope::open(Some(&t), "engine", "op", 10, Rec::Op).close(12);
        assert!(t.trace_chrome_json().unwrap().contains("\"tid\":2"));
    }

    #[test]
    fn anatomy_frames_ride_op_scopes_and_conserve() {
        let t = Telemetry::new();
        // Disabled: all hooks are free no-ops.
        t.begin_frame("engine.commit", 0);
        t.seg(SegKind::WalFsync, 10);
        t.end_frame("engine.commit", 100);
        assert!(t.last_breakdown().is_none());
        assert_eq!(t.anatomy_violations(), 0);

        t.enable_anatomy(4);
        // Frames open with op scopes even with tracing disabled.
        let op = Scope::open(Some(&t), "engine", "engine.commit", 1_000, Rec::Op);
        assert_eq!(t.frame_depth(), 1);
        let dev = Scope::open(Some(&t), "dev", "dev.log.write", 1_100, Rec::Command);
        t.seg(SegKind::MediaProgram, 300);
        t.seg(SegKind::NcqWait, 50);
        dev.close(1_500);
        let dev = t.last_breakdown().unwrap();
        assert_eq!(dev.wall, 400);
        assert_eq!(dev.seg(SegKind::MediaProgram), 300);
        assert_eq!(dev.seg(SegKind::Host), 50, "400 - 350 attributed");
        assert!(dev.is_conserved());
        t.seg(SegKind::WalFsync, 200);
        op.close(2_000);
        let op = t.last_breakdown().unwrap();
        assert_eq!(op.name, "engine.commit");
        assert_eq!(op.wall, 1_000);
        // Child's segments rolled up into the enclosing commit frame.
        assert_eq!(op.seg(SegKind::MediaProgram), 300);
        assert_eq!(op.seg(SegKind::WalFsync), 200);
        assert!(op.is_conserved());
        assert_eq!(t.anatomy_violations(), 0);
        assert_eq!(t.frame_depth(), 0);
        // Per-kind histograms recorded on every charge + host remainders,
        // and each scope's own latency sample.
        assert_eq!(t.histogram("seg.media_program").unwrap().count(), 1);
        assert_eq!(t.histogram("seg.wal_fsync").unwrap().count(), 1);
        assert_eq!(t.histogram("seg.host").unwrap().count(), 2);
        assert_eq!(t.histogram("engine.commit").unwrap().max(), 1_000);
        assert_eq!(t.histogram("dev.log.write").unwrap().max(), 400);
        // Both closed frames were offered to the outlier capturer.
        assert_eq!(t.outliers_for("engine.commit").len(), 1);
        assert_eq!(t.outliers_for("dev.log.write").len(), 1);
        assert!(t.outliers_json().unwrap().contains("\"engine.commit\""));
    }

    #[test]
    fn detached_scopes_keep_their_charges() {
        let t = Telemetry::new();
        t.enable_tracing(64);
        t.enable_anatomy(4);
        let op = Scope::open(Some(&t), "engine", "engine.commit", 1_000, Rec::Op);
        // Background work the op did not wait for, issued before it began.
        let bg = Scope::open(Some(&t), "wal", "wal.group_flush", 900, Rec::Detached);
        let dev = Scope::open(Some(&t), "dev", "dev.log.write", 900, Rec::Command);
        t.seg(SegKind::MediaProgram, 300);
        dev.close(1_200);
        bg.close(1_200);
        let bg = t.last_breakdown().unwrap();
        assert_eq!(bg.seg(SegKind::MediaProgram), 300, "child charges reach the detached frame");
        op.close(1_000);
        let op = t.last_breakdown().unwrap();
        assert_eq!(op.wall, 0);
        assert_eq!(op.seg(SegKind::MediaProgram), 0, "and stop there");
        assert_eq!(t.anatomy_violations(), 0);
        // A detached scope emits no span and keeps no latency sample.
        assert!(!t.trace_chrome_json().unwrap().contains("wal.group_flush"));
        assert!(t.histogram("wal.group_flush").is_none());
    }

    #[test]
    fn anatomy_frames_inherit_trace_ids() {
        let t = Telemetry::new();
        t.enable_tracing(256);
        t.enable_anatomy(2);
        let op = Scope::open(Some(&t), "doc", "doc.set", 10, Rec::Op);
        t.begin_frame("dev.doc.write", 20);
        t.end_frame("dev.doc.write", 30);
        assert_eq!(t.last_breakdown().unwrap().trace, 1, "frame carries op trace-ID");
        op.close(40);
        assert_eq!(t.last_breakdown().unwrap().trace, 1);
        // Bare frames emit no trace events: only the op's Begin/End pair exists.
        assert_eq!(t.trace_counts(), Some((2, 0)));
    }

    #[test]
    fn outlier_capturer_agrees_with_exact_hist_extremes() {
        // The histogram's exact min/max (not log-bucket approximations)
        // cross-check the tail capturer: the slowest retained outlier must
        // be *the* max the op histogram observed.
        let t = Telemetry::new();
        t.enable_anatomy(3);
        let walls = [700u64, 23, 9_999, 140, 3, 9_999, 512];
        let mut now = 0;
        for w in walls {
            let s = Scope::open(Some(&t), "doc", "doc.set", now, Rec::Op);
            s.close(now + w);
            now += w;
        }
        let h = t.histogram("doc.set").unwrap();
        assert_eq!(h.max(), 9_999);
        assert_eq!(h.min(), 3);
        let top = t.outliers_for("doc.set");
        assert_eq!(top[0].wall, h.max(), "slowest outlier is the exact hist max");
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|b| b.wall >= 512), "top-3 of the wall list");
        // Every retained wall really was observed by the histogram.
        assert!(top.iter().all(|b| b.wall >= h.min() && b.wall <= h.max()));
    }

    #[test]
    fn anatomy_json_export_is_unchanged() {
        // Anatomy state lives outside the registry JSON (outliers export
        // separately), so the exact round-trip contract is unaffected.
        let t = Telemetry::new();
        t.incr("ops", 1);
        let before = t.to_json();
        t.enable_anatomy(4);
        assert_eq!(t.to_json(), before);
        let back = Telemetry::from_json(&before).expect("parse back");
        assert_eq!(back.to_json(), before);
    }

    #[test]
    fn reset_clears_anatomy_but_keeps_it_enabled() {
        let t = Telemetry::new();
        t.enable_anatomy(3);
        t.begin_frame("op", 0);
        t.seg(SegKind::Xfer, 10);
        t.end_frame("op", 50);
        assert!(t.last_breakdown().is_some());
        t.reset();
        assert!(t.last_breakdown().is_none());
        assert_eq!(t.anatomy_violations(), 0);
        assert!(t.outliers_for("op").is_empty());
        t.begin_frame("op2", 100);
        t.end_frame("op2", 130);
        assert_eq!(t.last_breakdown().unwrap().wall, 30, "anatomy still enabled");
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::new();
        t.incr("a", 1);
        t.record("h", 10);
        t.set_gauge("g", 2);
        t.reset();
        assert_eq!(t.counter("a"), 0);
        assert!(t.histogram("h").is_none());
        assert_eq!(t.gauge("g"), None);
    }
}
