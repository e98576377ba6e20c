//! Latency anatomy: per-operation critical-path attribution.
//!
//! A run-wide histogram answers "how slow were the commits"; it cannot
//! answer "why was *this* p999 commit slow". This module adds the
//! per-operation view: every host operation opens a **frame**, layers
//! underneath charge causally attributed **segments** (queueing wait vs
//! service time per resource) into the open frames, and closing the frame
//! yields an [`OpBreakdown`] that satisfies a hard **conservation
//! identity**:
//!
//! ```text
//!   sum(segments) == wall latency          (exactly, in virtual nanoseconds)
//! ```
//!
//! The identity holds by construction: any nanosecond no layer claimed is
//! swept into the [`SegKind::Host`] remainder when the frame closes, and a
//! frame whose claimed segments *exceed* its wall time (an attribution bug —
//! some layer double-charged or charged outside its causal window) trips a
//! `violations` counter that tests and the simtest fuzzer assert stays zero.
//! This mirrors the write-provenance byte conservation audit in
//! `Ssd::check_invariants`: bytes there, nanoseconds here.
//!
//! Frames nest (an `engine.commit` frame encloses the `dev.log.write` frames
//! of the WAL appends it forced), and a segment charge lands in **every**
//! open frame: the charged window is inside the child's wall and the child's
//! wall is inside the parent's, so the parent's identity still holds — its
//! own `host` remainder simply shrinks. Only the innermost frame's remainder
//! is *computed*; parents absorb their children's totals transparently.
//!
//! The one exception is a **detached** frame: work issued on behalf of no
//! enclosing operation (the WAL's deferred group flush, which starts where
//! the previous flush ended, before the commit that happens to fire it).
//! Its wall is not inside its parent's, so charges land in it and in the
//! frames it encloses, and stop there.
//!
//! On top of the per-op breakdowns sit two aggregate views:
//!
//! * per-segment-kind latency **histograms** (`seg.<label>`) recorded into
//!   the owning registry on every charge, so a report can show the full
//!   distribution of e.g. `flush_cache` segment durations, and
//! * a bounded **tail-outlier capturer** ([`OutlierCap`]): the top-K slowest
//!   operations per op name, each with its full segment breakdown and
//!   trace-ID, exported as JSON next to the Chrome trace so a tail sample in
//!   a report is one Perfetto click away from its causal decomposition.
//!
//! Everything here is opt-in (`enable_anatomy`): when disabled, the frame
//! and segment hooks return before any allocation or arithmetic, preserving
//! the zero-cost steady state of domains that never asked for anatomy.

use crate::json;
use simkit::Nanos;
use std::collections::BTreeMap;

use crate::trace::TraceId;

/// Number of segment kinds (length of [`SegKind::ALL`]).
pub const N_SEG: usize = 12;

/// Causally attributed latency segment kinds — the anatomy taxonomy.
///
/// Each kind is either *queueing wait* (time a command sat behind other work
/// on a shared resource) or *service* (time the resource actively spent on
/// this command). The split is explicit in the naming: `ChannelWait` /
/// `NcqWait` / `CacheAdmit` / `GcWait` / `HddDestage` are waits,
/// `MediaRead` / `MediaProgram` / `Xfer` / `MapPersist` are service,
/// `WalFsync` / `FlushCache` are host-visible durability waits, and `Host`
/// is fixed per-op overhead plus any unattributed remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegKind {
    /// Wait for a NAND channel/plane to free up (queueing behind other
    /// media commands, including programs issued by background drain).
    ChannelWait,
    /// Wait for the host interface (SATA NCQ / dispatch pipe) to accept
    /// the command.
    NcqWait,
    /// Wait for a free write-cache slot when the cache is full (admission
    /// stall while the drain engine frees slots).
    CacheAdmit,
    /// Wait caused by FTL garbage collection preempting the command.
    GcWait,
    /// Wait for a WAL buffer flush + fsync at commit time.
    WalFsync,
    /// Persisting the logical-to-physical mapping journal.
    MapPersist,
    /// Wait for the HDD cache to destage dirty sectors (admission or
    /// explicit flush destage).
    HddDestage,
    /// NAND read service time (cell read + bus transfer).
    MediaRead,
    /// NAND program service time (bus transfer + cell program).
    MediaProgram,
    /// Host-visible FLUSH CACHE / write-barrier drain time.
    FlushCache,
    /// Host-interface data transfer service time.
    Xfer,
    /// Fixed host/firmware overhead plus unattributed remainder (computed
    /// at frame close; never charged explicitly by layers).
    Host,
}

impl SegKind {
    /// All kinds, in display order.
    pub const ALL: [SegKind; N_SEG] = [
        SegKind::ChannelWait,
        SegKind::NcqWait,
        SegKind::CacheAdmit,
        SegKind::GcWait,
        SegKind::WalFsync,
        SegKind::MapPersist,
        SegKind::HddDestage,
        SegKind::MediaRead,
        SegKind::MediaProgram,
        SegKind::FlushCache,
        SegKind::Xfer,
        SegKind::Host,
    ];

    /// Stable snake_case label used in JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            SegKind::ChannelWait => "channel_wait",
            SegKind::NcqWait => "ncq_wait",
            SegKind::CacheAdmit => "cache_admit",
            SegKind::GcWait => "gc_wait",
            SegKind::WalFsync => "wal_fsync",
            SegKind::MapPersist => "map_persist",
            SegKind::HddDestage => "hdd_destage",
            SegKind::MediaRead => "media_read",
            SegKind::MediaProgram => "media_program",
            SegKind::FlushCache => "flush_cache",
            SegKind::Xfer => "xfer",
            SegKind::Host => "host",
        }
    }

    /// Name of the per-kind segment-duration histogram in the registry.
    pub fn hist_name(self) -> &'static str {
        match self {
            SegKind::ChannelWait => "seg.channel_wait",
            SegKind::NcqWait => "seg.ncq_wait",
            SegKind::CacheAdmit => "seg.cache_admit",
            SegKind::GcWait => "seg.gc_wait",
            SegKind::WalFsync => "seg.wal_fsync",
            SegKind::MapPersist => "seg.map_persist",
            SegKind::HddDestage => "seg.hdd_destage",
            SegKind::MediaRead => "seg.media_read",
            SegKind::MediaProgram => "seg.media_program",
            SegKind::FlushCache => "seg.flush_cache",
            SegKind::Xfer => "seg.xfer",
            SegKind::Host => "seg.host",
        }
    }

    /// Dense index into a per-kind array (matches [`SegKind::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            SegKind::ChannelWait => 0,
            SegKind::NcqWait => 1,
            SegKind::CacheAdmit => 2,
            SegKind::GcWait => 3,
            SegKind::WalFsync => 4,
            SegKind::MapPersist => 5,
            SegKind::HddDestage => 6,
            SegKind::MediaRead => 7,
            SegKind::MediaProgram => 8,
            SegKind::FlushCache => 9,
            SegKind::Xfer => 10,
            SegKind::Host => 11,
        }
    }
}

/// An open per-operation attribution frame (one entry of the frame stack).
#[derive(Debug, Clone)]
struct Frame {
    name: String,
    start: Nanos,
    trace: TraceId,
    /// Charges stop here instead of reaching the enclosing frames.
    detached: bool,
    segs: [Nanos; N_SEG],
}

/// The closed, conserved breakdown of one host operation: wall latency and
/// its exact decomposition into attributed segments.
///
/// Invariant (checked by [`OpBreakdown::is_conserved`], enforced at frame
/// close): `segments().sum() == wall`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBreakdown {
    /// Operation name (histogram name of the op, e.g. `engine.commit`).
    pub name: String,
    /// Virtual time the operation started.
    pub start: Nanos,
    /// End-to-end virtual-time latency.
    pub wall: Nanos,
    /// Trace-ID of the op scope (0 when tracing was disabled), linking the
    /// breakdown to its span in the Chrome trace.
    pub trace: TraceId,
    /// Attributed nanoseconds per [`SegKind`], indexed by `SegKind::index`.
    pub segs: [Nanos; N_SEG],
}

impl OpBreakdown {
    /// Attributed time of one segment kind.
    pub fn seg(&self, kind: SegKind) -> Nanos {
        self.segs[kind.index()]
    }

    /// Sum over all segments (equals `wall` when conserved).
    pub fn total(&self) -> Nanos {
        self.segs.iter().sum()
    }

    /// The conservation identity: segments sum exactly to wall latency.
    pub fn is_conserved(&self) -> bool {
        self.total() == self.wall
    }

    /// Fraction of wall latency attributed to `kind` (0.0 when wall is 0).
    pub fn frac(&self, kind: SegKind) -> f64 {
        if self.wall == 0 {
            0.0
        } else {
            self.seg(kind) as f64 / self.wall as f64
        }
    }

    /// JSON object: name, trace, start, wall and the non-zero segments.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":{},\"trace\":{},\"start\":{},\"wall\":{},\"segments\":{{",
            json::quote(&self.name),
            self.trace,
            self.start,
            self.wall
        );
        let mut first = true;
        for kind in SegKind::ALL {
            let v = self.seg(kind);
            if v == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", kind.label(), v));
        }
        out.push_str("}}");
        out
    }
}

/// Bounded tail-outlier capture: the top-K slowest operations per op name,
/// each with its full segment breakdown. Memory is bounded at
/// `K × distinct op names` breakdowns regardless of run length.
#[derive(Debug, Clone)]
pub struct OutlierCap {
    k: usize,
    per_op: BTreeMap<String, Vec<OpBreakdown>>,
}

impl OutlierCap {
    /// Capture the `k` slowest ops per name.
    pub fn new(k: usize) -> Self {
        Self { k: k.max(1), per_op: BTreeMap::new() }
    }

    /// Capacity per op name.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offer a closed breakdown; retained iff it ranks in the top-K wall
    /// latencies for its op name. The per-name list stays sorted slowest
    /// first, so insertion is a short shift in a K-length vector.
    pub fn offer(&mut self, bd: &OpBreakdown) {
        if let Some(v) = self.per_op.get_mut(&bd.name) {
            if v.len() >= self.k && bd.wall <= v.last().map_or(0, |b| b.wall) {
                return; // fast path: slower than every retained outlier
            }
            let pos = v.partition_point(|b| b.wall >= bd.wall);
            v.insert(pos, bd.clone());
            v.truncate(self.k);
        } else {
            self.per_op.insert(bd.name.clone(), vec![bd.clone()]);
        }
    }

    /// The retained outliers for one op name, slowest first.
    pub fn for_op(&self, name: &str) -> &[OpBreakdown] {
        self.per_op.get(name).map_or(&[], |v| v.as_slice())
    }

    /// All op names with at least one retained outlier.
    pub fn op_names(&self) -> Vec<String> {
        self.per_op.keys().cloned().collect()
    }

    /// Drop all retained outliers (capacity unchanged).
    pub fn clear(&mut self) {
        self.per_op.clear();
    }

    /// JSON document: `{"k":K,"ops":{"<name>":[<breakdown>...]}}`, written
    /// next to the Chrome trace by bench bins.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"k\":{},\"ops\":{{", self.k);
        for (i, (name, v)) in self.per_op.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:[", json::quote(name)));
            for (j, bd) in v.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&bd.to_json());
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

/// Per-registry anatomy state: the open-frame stack, the most recent closed
/// breakdown (for audits), the conservation-violation counter, and the
/// tail-outlier capturer.
#[derive(Debug, Clone)]
pub struct Anatomy {
    frames: Vec<Frame>,
    last: Option<OpBreakdown>,
    violations: u64,
    outliers: OutlierCap,
}

impl Anatomy {
    /// Fresh anatomy state capturing the `k` slowest ops per name.
    pub fn new(k: usize) -> Self {
        Self { frames: Vec::new(), last: None, violations: 0, outliers: OutlierCap::new(k) }
    }

    /// Open a frame for the named op at `ts` under trace-ID `trace`;
    /// a `detached` frame keeps its charges from the frames enclosing it.
    pub fn begin(&mut self, name: &str, ts: Nanos, trace: TraceId, detached: bool) {
        let segs = [0; N_SEG];
        self.frames.push(Frame { name: name.to_string(), start: ts, trace, detached, segs });
    }

    /// Charge `ns` of `kind` into every open frame from the innermost out
    /// to the innermost detached one. Returns `true` if at least one frame
    /// was charged (the caller then records the per-kind histogram sample).
    pub fn charge(&mut self, kind: SegKind, ns: Nanos) -> bool {
        if self.frames.is_empty() {
            return false;
        }
        for f in self.frames.iter_mut().rev() {
            f.segs[kind.index()] += ns;
            if f.detached {
                break;
            }
        }
        true
    }

    /// Close the innermost frame at `ts`: compute wall, audit the
    /// conservation identity, sweep the unattributed remainder into
    /// [`SegKind::Host`], and offer the breakdown to the outlier capturer.
    /// Returns the host remainder (for histogram recording), or `None` if
    /// no frame was open.
    pub fn end(&mut self, name: &str, ts: Nanos) -> Option<Nanos> {
        let mut f = self.frames.pop()?;
        debug_assert_eq!(f.name, name, "anatomy frame stack mismatch");
        let wall = ts.saturating_sub(f.start);
        let covered: Nanos = f.segs.iter().sum();
        if covered > wall {
            // Over-attribution: some layer charged outside its causal
            // window. Count it; the breakdown keeps the raw segments so
            // the bug is visible in the outlier export.
            self.violations += 1;
        }
        let host = wall.saturating_sub(covered);
        f.segs[SegKind::Host.index()] += host;
        let bd = OpBreakdown { name: f.name, start: f.start, wall, trace: f.trace, segs: f.segs };
        self.outliers.offer(&bd);
        self.last = Some(bd);
        Some(host)
    }

    /// Number of frames currently open.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Ops whose claimed segments exceeded their wall time (must be 0).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The most recently closed breakdown, if any.
    pub fn last(&self) -> Option<&OpBreakdown> {
        self.last.as_ref()
    }

    /// The tail-outlier capturer.
    pub fn outliers(&self) -> &OutlierCap {
        &self.outliers
    }

    /// Drop all recorded state (open frames, last breakdown, violation
    /// count, outliers); anatomy stays enabled.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.last = None;
        self.violations = 0;
        self.outliers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(name: &str, wall: Nanos) -> OpBreakdown {
        let mut segs = [0; N_SEG];
        segs[SegKind::Host.index()] = wall;
        OpBreakdown { name: name.to_string(), start: 0, wall, trace: 0, segs }
    }

    #[test]
    fn taxonomy_is_dense_and_stable() {
        assert_eq!(SegKind::ALL.len(), N_SEG);
        for (i, k) in SegKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "index must match ALL order");
            assert_eq!(k.hist_name(), format!("seg.{}", k.label()));
        }
    }

    #[test]
    fn frame_close_sweeps_remainder_and_conserves() {
        let mut a = Anatomy::new(4);
        a.begin("op", 100, 7, false);
        assert!(a.charge(SegKind::MediaRead, 30));
        assert!(a.charge(SegKind::NcqWait, 20));
        let host = a.end("op", 180).unwrap();
        assert_eq!(host, 30, "180-100 wall minus 50 attributed");
        let b = a.last().unwrap();
        assert_eq!(b.wall, 80);
        assert_eq!(b.trace, 7);
        assert_eq!(b.seg(SegKind::MediaRead), 30);
        assert_eq!(b.seg(SegKind::Host), 30);
        assert!(b.is_conserved());
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn nested_frames_each_conserve() {
        let mut a = Anatomy::new(4);
        a.begin("outer", 0, 1, false);
        a.charge(SegKind::WalFsync, 10);
        a.begin("inner", 50, 2, false);
        a.charge(SegKind::MediaProgram, 25); // lands in both frames
        a.end("inner", 80);
        let inner = a.last().unwrap().clone();
        a.end("outer", 200);
        let outer = a.last().unwrap();
        assert_eq!(inner.wall, 30);
        assert_eq!(inner.seg(SegKind::MediaProgram), 25);
        assert_eq!(inner.seg(SegKind::Host), 5);
        assert!(inner.is_conserved());
        assert_eq!(outer.wall, 200);
        assert_eq!(outer.seg(SegKind::MediaProgram), 25);
        assert_eq!(outer.seg(SegKind::WalFsync), 10);
        assert_eq!(outer.seg(SegKind::Host), 165);
        assert!(outer.is_conserved());
        assert_eq!(a.violations(), 0);
        assert_eq!(a.depth(), 0);
    }

    #[test]
    fn over_attribution_counts_a_violation() {
        let mut a = Anatomy::new(4);
        a.begin("op", 0, 0, false);
        a.charge(SegKind::Xfer, 500);
        a.end("op", 100); // wall 100 < claimed 500
        assert_eq!(a.violations(), 1);
        let b = a.last().unwrap();
        assert_eq!(b.seg(SegKind::Host), 0, "no negative remainder");
        assert!(!b.is_conserved());
    }

    #[test]
    fn charge_outside_any_frame_is_dropped() {
        let mut a = Anatomy::new(4);
        assert!(!a.charge(SegKind::MediaRead, 99));
        a.begin("op", 0, 0, false);
        a.end("op", 10);
        assert_eq!(a.last().unwrap().seg(SegKind::MediaRead), 0);
    }

    #[test]
    fn outlier_cap_keeps_top_k_sorted() {
        let mut cap = OutlierCap::new(3);
        for wall in [50, 10, 99, 5, 70, 99, 20] {
            cap.offer(&bd("engine.commit", wall));
        }
        cap.offer(&bd("doc.set", 1));
        let top: Vec<Nanos> = cap.for_op("engine.commit").iter().map(|b| b.wall).collect();
        assert_eq!(top, vec![99, 99, 70], "slowest first, duplicates kept");
        assert_eq!(cap.for_op("doc.set").len(), 1);
        assert_eq!(cap.for_op("missing").len(), 0);
        assert_eq!(cap.op_names(), vec!["doc.set".to_string(), "engine.commit".to_string()]);
    }

    #[test]
    fn outlier_json_shape() {
        let mut cap = OutlierCap::new(2);
        let mut b = bd("doc.set", 40);
        b.trace = 9;
        b.start = 5;
        b.segs = [0; N_SEG];
        b.segs[SegKind::FlushCache.index()] = 30;
        b.segs[SegKind::Host.index()] = 10;
        cap.offer(&b);
        let j = cap.to_json();
        assert_eq!(
            j,
            "{\"k\":2,\"ops\":{\"doc.set\":[{\"name\":\"doc.set\",\"trace\":9,\
             \"start\":5,\"wall\":40,\"segments\":{\"flush_cache\":30,\"host\":10}}]}}"
        );
    }

    #[test]
    fn breakdown_frac_and_total() {
        let mut b = bd("op", 200);
        b.segs = [0; N_SEG];
        b.segs[SegKind::FlushCache.index()] = 150;
        b.segs[SegKind::Host.index()] = 50;
        assert_eq!(b.total(), 200);
        assert!((b.frac(SegKind::FlushCache) - 0.75).abs() < 1e-12);
        let z = OpBreakdown { name: "z".into(), start: 0, wall: 0, trace: 0, segs: [0; N_SEG] };
        assert_eq!(z.frac(SegKind::Host), 0.0);
    }

    #[test]
    fn clear_resets_state_but_keeps_capacity() {
        let mut a = Anatomy::new(2);
        a.begin("op", 0, 0, false);
        a.charge(SegKind::Xfer, 10);
        a.end("op", 5); // violation
        a.begin("dangling", 0, 0, false);
        a.clear();
        assert_eq!(a.depth(), 0);
        assert_eq!(a.violations(), 0);
        assert!(a.last().is_none());
        assert!(a.outliers().op_names().is_empty());
        assert_eq!(a.outliers().k(), 2);
    }
}
