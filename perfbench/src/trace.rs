//! The traced run's instruments: an in-memory span log and the `Probe`
//! block-device decorator that times every device call from outside.
//!
//! Spans are recorded at each boundary the benchmark drives: the workload
//! op (root) → the call into `storage`, `docstore`, `relstore` or
//! `workloads::tpcc` → the `durassd` device call made beneath it. Nesting
//! is strict because everything runs on one thread, so a span's self time
//! is its duration minus the durations of its direct children.

use simkit::alloc::alloc_count;
use simkit::Nanos;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;
use storage::device::{BlockDevice, DevResult, DeviceStats, WriteCause};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One measured workload op (root).
    Op,
    /// One restart after the measured phase (root).
    Restart,
    StorageWrite,
    StorageFsync,
    StorageRead,
    StorageReboot,
    DocSet,
    DocGet,
    DocCrash,
    DocRecover,
    RelPut,
    RelCommit,
    RelGet,
    RelCrash,
    RelRecover,
    TpccRun,
    DevRead,
    DevWrite,
    DevFlush,
    DevDiscard,
    DevCut,
    DevReboot,
}

impl Name {
    /// Span label, `<layer>.<call>`.
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "workloads.op",
            Name::Restart => "workloads.restart",
            Name::StorageWrite => "storage.write",
            Name::StorageFsync => "storage.fsync",
            Name::StorageRead => "storage.read",
            Name::StorageReboot => "storage.reboot",
            Name::DocSet => "docstore.set",
            Name::DocGet => "docstore.get",
            Name::DocCrash => "docstore.crash",
            Name::DocRecover => "docstore.recover",
            Name::RelPut => "relstore.put",
            Name::RelCommit => "relstore.commit",
            Name::RelGet => "relstore.get",
            Name::RelCrash => "relstore.crash",
            Name::RelRecover => "relstore.recover",
            Name::TpccRun => "relstore.tpcc_run",
            Name::DevRead => "durassd.read",
            Name::DevWrite => "durassd.write",
            Name::DevFlush => "durassd.flush",
            Name::DevDiscard => "durassd.discard",
            Name::DevCut => "durassd.power_cut",
            Name::DevReboot => "durassd.reboot",
        }
    }

    /// The layer (crate) the span's self time is charged to.
    pub fn layer(self) -> &'static str {
        let l = self.label();
        &l[..l.find('.').expect("labels are <layer>.<call>")]
    }
}

/// Which device of the stack a device span ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Not a device span.
    Host,
    /// The raw fio device.
    Fio,
    /// A document-store device.
    Doc,
    /// A relational data device.
    Data,
    /// A relational log device.
    Log,
}

/// One closed (or still open) span. Times are host nanoseconds since the
/// log was created; `sim_ns` is the virtual time a device call took
/// (returned completion − `now`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub role: Role,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Root op the span belongs to (its index among roots, from 0).
    pub op: u32,
    pub start: u64,
    pub end: u64,
    pub sim_ns: Nanos,
    /// Heap allocations made while the span was open.
    pub allocs: u64,
}

struct Log {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    roots: u32,
    recording: bool,
}

/// Index returned by [`Tracer::begin`] while recording is off.
const OFF: u32 = u32::MAX;

/// Shared handle on the span log (cheap to clone; single-threaded).
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Log>>);

impl Tracer {
    /// An empty log with room for `capacity` spans, so recording does not
    /// allocate until that many spans exist.
    pub(crate) fn new(capacity: usize) -> Self {
        Tracer(Rc::new(RefCell::new(Log {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            roots: 0,
            recording: true,
        })))
    }

    /// Turn recording on or off (off during set-up). Toggle only while no
    /// span is open.
    pub(crate) fn set_recording(&self, on: bool) {
        self.0.borrow_mut().recording = on;
    }

    /// Open a span under the innermost open one; returns its index.
    pub(crate) fn begin(&self, name: Name, role: Role) -> u32 {
        let mut log = self.0.borrow_mut();
        if !log.recording {
            return OFF;
        }
        let idx = log.spans.len() as u32;
        let parent = log.open.last().copied().unwrap_or(u32::MAX);
        let op = if parent == u32::MAX {
            log.roots += 1;
            log.roots - 1
        } else {
            log.spans[parent as usize].op
        };
        log.open.push(idx);
        let allocs = alloc_count();
        let start = log.epoch.elapsed().as_nanos() as u64;
        log.spans.push(Span { name, role, parent, op, start, end: start, sim_ns: 0, allocs });
        idx
    }

    /// Close span `idx` (which must be the innermost open one).
    pub(crate) fn end(&self, idx: u32, sim_ns: Nanos) {
        if idx == OFF {
            return;
        }
        let allocs = alloc_count();
        let mut log = self.0.borrow_mut();
        let now = log.epoch.elapsed().as_nanos() as u64;
        let top = log.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        let s = &mut log.spans[idx as usize];
        s.end = now;
        s.sim_ns = sim_ns;
        s.allocs = allocs - s.allocs;
    }

    /// Run `f` inside a span.
    pub(crate) fn scope<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, Role::Host);
        let out = f();
        self.end(s, 0);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, [Span]> {
        std::cell::Ref::map(self.0.borrow(), |log| log.spans.as_slice())
    }
}

/// Run `f` inside a span when tracing, or bare when not.
pub(crate) fn scope<T>(tr: Option<&Tracer>, name: Name, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.scope(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus its direct children's.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != u32::MAX {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Whether the self times of every root's tree sum to the root's
/// duration (children never overlap or outlast their parent).
pub fn self_times_conserved(spans: &[Span]) -> bool {
    let own = self_times(spans);
    let mut per_root: Vec<u64> = Vec::new();
    for (s, o) in spans.iter().zip(&own) {
        if s.parent == u32::MAX {
            per_root.push(0);
        }
        per_root[s.op as usize] += o;
    }
    spans
        .iter()
        .filter(|s| s.parent == u32::MAX)
        .all(|s| per_root[s.op as usize] == s.end - s.start)
}

/// Chrome trace-event JSON (the layout `telemetry::trace` exports: `B`/`E`
/// pairs with `name`, `cat`, `ph`, `ts` in µs, `pid`, and one `tid` per
/// root op) for whole root ops, from the first, until `max_spans` spans
/// are written. Each `B` carries its span index and parent index in `args`.
pub fn chrome_json(spans: &[Span], max_spans: usize) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut open: Vec<usize> = Vec::new();
    let mut ev = |s: &mut String, i: usize, ph: char, ts: u64| {
        let sp = &spans[i];
        if !std::mem::take(&mut first) {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}",
            sp.name.label(),
            sp.name.layer(),
            ts / 1000,
            ts % 1000,
            sp.op
        );
        if ph == 'B' {
            let parent = if sp.parent == u32::MAX { -1 } else { sp.parent as i64 };
            let _ =
                write!(s, ",\"args\":{{\"id\":{i},\"parent\":{parent},\"sim_ns\":{}}}", sp.sim_ns);
        }
        s.push('}');
    };
    for (i, sp) in spans.iter().enumerate() {
        if sp.parent == u32::MAX && i >= max_spans {
            break;
        }
        while let Some(&top) = open.last() {
            if top as u32 == sp.parent {
                break;
            }
            ev(&mut s, top, 'E', spans[top].end);
            open.pop();
        }
        ev(&mut s, i, 'B', sp.start);
        open.push(i);
    }
    while let Some(top) = open.pop() {
        ev(&mut s, top, 'E', spans[top].end);
    }
    s.push_str("]}");
    s
}

/// A `BlockDevice` decorator that records one span per device call:
/// host wall time, virtual time and allocations. It forwards every trait
/// method, records into preallocated storage, and changes no result.
pub struct Probe<D> {
    inner: D,
    tr: Tracer,
    role: Role,
}

impl<D> Probe<D> {
    /// Wrap `inner`; its spans carry `role`.
    pub(crate) fn new(inner: D, tr: Tracer, role: Role) -> Self {
        Self { inner, tr, role }
    }

    /// The wrapped device.
    pub(crate) fn inner(&self) -> &D {
        &self.inner
    }

    fn timed(
        &mut self,
        name: Name,
        now: Nanos,
        f: impl FnOnce(&mut D) -> DevResult<Nanos>,
    ) -> DevResult<Nanos> {
        let s = self.tr.begin(name, self.role);
        let r = f(&mut self.inner);
        self.tr.end(s, r.as_ref().map_or(0, |&done| done.saturating_sub(now)));
        r
    }
}

impl<D: BlockDevice> BlockDevice for Probe<D> {
    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        self.timed(Name::DevRead, now, |d| d.read(lpn, pages, buf, now))
    }

    fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        self.timed(Name::DevWrite, now, |d| d.write(lpn, data, now))
    }

    fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
        self.timed(Name::DevFlush, now, |d| d.flush(now))
    }

    fn power_cut(&mut self, now: Nanos) {
        let _ = self.timed(Name::DevCut, now, |d| {
            d.power_cut(now);
            Ok(now)
        });
    }

    fn reboot(&mut self, now: Nanos) -> Nanos {
        let s = self.tr.begin(Name::DevReboot, self.role);
        let done = self.inner.reboot(now);
        self.tr.end(s, done.saturating_sub(now));
        done
    }

    fn is_powered(&self) -> bool {
        self.inner.is_powered()
    }

    fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        self.timed(Name::DevDiscard, now, |d| d.discard(lpn, pages, now))
    }

    fn set_write_cause(&mut self, cause: WriteCause) {
        self.inner.set_write_cause(cause);
    }

    fn gc_time(&self) -> Nanos {
        self.inner.gc_time()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}
