//! Volumes: a block device plus the host's barrier policy, and a trivial
//! extent allocator for carving page files out of a device.

use crate::device::{
    check_io, BlockDevice, CauseCounts, DevResult, DeviceStats, WriteCause, LOGICAL_PAGE,
};
use forensics::{EvidenceKind, Ledger};
use simkit::Nanos;
use telemetry::{Rec, Scope, SegKind, Telemetry};

/// Cost of an `fsync` that does **not** reach the device (metadata bookkeeping
/// in the kernel): a couple of microseconds. This is what the paper's
/// `nobarrier` mount option reduces fsync to.
const FSYNC_SOFT_COST: Nanos = 2_000;

/// Index of each command's pre-formatted name in [`VolumeTel::names`].
const READ: usize = 0;
const WRITE: usize = 1;
const FLUSH: usize = 2;
const DISCARD: usize = 3;
const FSYNC_SOFT: usize = 4;

/// A volume's telemetry handle and its `dev.<label>.<command>` names,
/// formatted once so the hot path does not re-allocate metric keys per I/O.
struct VolumeTel {
    tel: Telemetry,
    names: [String; 5],
}

/// A mounted device with a write-barrier policy.
///
/// * `barriers = true` — the file-system default: `fsync` issues a FLUSH
///   CACHE command to the device and blocks until it completes (paper Fig 2).
/// * `barriers = false` — the `nobarrier` mount option: `fsync` orders writes
///   in the kernel but never flushes the device cache. Safe **only** on a
///   device with a durable cache (DuraSSD §2.2); on a volatile cache it
///   trades durability for speed.
///
/// A volume is the natural place to observe *host-visible* device latency,
/// so when a [`Telemetry`] handle is attached every device command runs in
/// one [`Rec::Command`] scope: a `dev` trace span, a latency sample per
/// device and command, and an anatomy frame that the device's segment
/// charges land in.
pub struct Volume<D: BlockDevice> {
    dev: D,
    barriers: bool,
    fsyncs: u64,
    tel: Option<VolumeTel>,
    ledger: Option<Ledger>,
    /// Write-provenance stack: the innermost pushed cause tags every write
    /// until popped ([`WriteCause::HostData`] when empty). Same discipline
    /// as the anatomy's frame stack.
    cause_stack: Vec<WriteCause>,
    /// Host-issued logical pages per declared cause (host boundary of the
    /// WAF pipeline; the device counts its own received/media boundaries).
    host_pages_by_cause: CauseCounts,
}

impl<D: BlockDevice> Volume<D> {
    /// Mount `dev` with the given barrier policy.
    pub fn new(dev: D, barriers: bool) -> Self {
        Self {
            dev,
            barriers,
            fsyncs: 0,
            tel: None,
            ledger: None,
            cause_stack: Vec::new(),
            host_pages_by_cause: CauseCounts::default(),
        }
    }

    /// Push a write-provenance cause: every write until the matching
    /// [`Volume::pop_cause`] is tagged with it (innermost wins).
    pub fn push_cause(&mut self, cause: WriteCause) {
        self.cause_stack.push(cause);
    }

    /// Pop the innermost write-provenance cause.
    pub fn pop_cause(&mut self) {
        self.cause_stack.pop();
    }

    /// The cause the next write would be tagged with.
    pub fn current_cause(&self) -> WriteCause {
        self.cause_stack.last().copied().unwrap_or_default()
    }

    /// Host-issued logical pages per cause (see [`WriteCause::index`]).
    pub fn host_pages_by_cause(&self) -> CauseCounts {
        self.host_pages_by_cause
    }

    /// Attach a durability ledger: every fsync acknowledgement is recorded
    /// as `fsync-ack` evidence. With barriers on the ack is backed by a
    /// device flush (a barrier contract); with barriers off the volume
    /// acknowledges without flushing — the ledger tags the ack with the
    /// device cache's own contract, which is exactly the promise a power
    /// cut puts to the test.
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.ledger = Some(ledger);
    }

    /// Attach a telemetry handle to the volume and, through
    /// [`BlockDevice::attach_telemetry`], to the device under it, so one
    /// attach reaches every layer of the stack. Latencies are recorded
    /// under `dev.<label>.{read,write,flush,discard,fsync_soft}`.
    pub fn attach_telemetry(&mut self, tel: Telemetry, label: &str) {
        self.dev.attach_telemetry(tel.clone());
        let names = ["read", "write", "flush", "discard", "fsync_soft"]
            .map(|cmd| format!("dev.{label}.{cmd}"));
        self.tel = Some(VolumeTel { tel, names });
    }

    /// Whether write barriers are enabled.
    pub fn barriers(&self) -> bool {
        self.barriers
    }

    /// Change the barrier policy (remount).
    pub fn set_barriers(&mut self, on: bool) {
        self.barriers = on;
    }

    /// Issue one device command inside a [`Rec::Command`] scope named
    /// `names[name]`. The device's segment charges — NCQ wait, channel
    /// wait, media service, GC, flush-cache — land both in the command's
    /// own frame and, because frames nest, in whatever host operation
    /// (engine commit, docstore set) encloses it. A failed command closes
    /// its scope at `now` without a latency sample, so it never leaves a
    /// dangling frame behind.
    fn command(
        &mut self,
        name: usize,
        now: Nanos,
        cmd: impl FnOnce(&mut D) -> DevResult<Nanos>,
    ) -> DevResult<Nanos> {
        let Some(vt) = &self.tel else { return cmd(&mut self.dev) };
        let scope = Scope::open(Some(&vt.tel), "dev", &vt.names[name], now, Rec::Command);
        let res = cmd(&mut self.dev);
        match res {
            Ok(end) => scope.close(end),
            Err(_) => scope.abort(now),
        }
        res
    }

    /// Direct read of logical pages.
    pub fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
        self.command(READ, now, |dev| dev.read(lpn, pages, buf, now))
    }

    /// Direct write of logical pages, tagged with the innermost pushed
    /// cause (provenance for the WAF accounting at every boundary below).
    pub fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
        let cause = self.current_cause();
        self.host_pages_by_cause[cause.index()] += (data.len() / LOGICAL_PAGE) as u64;
        self.dev.set_write_cause(cause);
        self.command(WRITE, now, |dev| dev.write(lpn, data, now))
    }

    /// `fsync`: flush the device cache if barriers are on, otherwise only
    /// pay the in-kernel cost.
    ///
    /// With barriers the wait is a FLUSH CACHE command, whose drain the
    /// device charges as `flush_cache` segments. Without barriers no FLUSH
    /// CACHE is issued: the soft in-kernel cost is histogrammed separately
    /// and charged as `wal_fsync`, never `flush_cache` — which is exactly
    /// why a durable-cache device mounted `nobarrier` shows a zero
    /// `flush_cache` share in the benchmark reports.
    pub fn fsync(&mut self, now: Nanos) -> DevResult<Nanos> {
        self.fsyncs += 1;
        if self.barriers {
            let done = self.command(FLUSH, now, |dev| dev.flush(now))?;
            if let Some(ledger) = &self.ledger {
                ledger.evidence(EvidenceKind::FsyncAck, self.fsyncs, done, true);
            }
            Ok(done)
        } else {
            let done = now + FSYNC_SOFT_COST;
            if let Some(vt) = &self.tel {
                let name = &vt.names[FSYNC_SOFT];
                vt.tel.record(name, FSYNC_SOFT_COST);
                vt.tel.trace_instant("dev", name, now);
                // The in-kernel cost of a nobarrier fsync is WAL-fsync
                // time in the anatomy: it is what commit-time durability
                // costs when no FLUSH CACHE is issued, and it is the
                // *only* durability segment a durable-cache deployment
                // should ever show.
                vt.tel.begin_frame(name, now);
                vt.tel.seg(SegKind::WalFsync, FSYNC_SOFT_COST);
                vt.tel.end_frame(name, done);
            }
            if let Some(ledger) = &self.ledger {
                // No barrier was issued: the ack rides on the device cache's
                // own contract.
                ledger.evidence(EvidenceKind::FsyncAck, self.fsyncs, done, false);
            }
            Ok(done)
        }
    }

    /// Number of fsync calls made against this volume.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Device capacity in logical pages.
    pub fn capacity_pages(&self) -> u64 {
        self.dev.capacity_pages()
    }

    /// TRIM a range (file deletion, compaction).
    pub fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        self.command(DISCARD, now, |dev| dev.discard(lpn, pages, now))
    }

    /// Cut power to the underlying device.
    pub fn power_cut(&mut self, now: Nanos) {
        self.dev.power_cut(now);
    }

    /// Reboot the underlying device; returns when it is ready.
    pub fn reboot(&mut self, now: Nanos) -> Nanos {
        self.dev.reboot(now)
    }

    /// Device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.dev.stats()
    }

    /// Access the device model directly (used by tests and fault-injection
    /// harnesses).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the device model.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Unmount: take the device back (e.g. to hand it to recovery).
    pub fn into_device(self) -> D {
        self.dev
    }
}

/// Hands out non-overlapping extents of a volume as page files.
///
/// This stands in for the file system's allocator; databases in the paper's
/// setup use `O_DIRECT` pre-allocated files, so contiguous extents are the
/// faithful model.
pub struct VolumeManager {
    capacity: u64,
    next_free: u64,
}

/// A named, contiguous extent on a volume (in logical pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical page of the extent.
    pub base: u64,
    /// Length in logical pages.
    pub pages: u64,
}

impl VolumeManager {
    /// Manage a device of `capacity` logical pages.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, next_free: 0 }
    }

    /// Allocate `pages` logical pages; panics if the volume is exhausted
    /// (experiment setup error, not a runtime condition).
    pub fn alloc(&mut self, pages: u64) -> Extent {
        assert!(
            self.next_free + pages <= self.capacity,
            "volume exhausted: want {pages} pages, {} free",
            self.capacity - self.next_free
        );
        let e = Extent { base: self.next_free, pages };
        self.next_free += pages;
        e
    }

    /// Logical pages not yet allocated.
    pub fn free_pages(&self) -> u64 {
        self.capacity - self.next_free
    }
}

/// Check a file-relative I/O fits inside an extent, returning the absolute
/// logical page number.
pub fn extent_io(e: Extent, rel_lpn: u64, pages: u32, buf_len: usize) -> DevResult<u64> {
    check_io(rel_lpn, pages, buf_len, e.pages)?;
    // Extent bases are small in practice; overflow cannot occur after the
    // capacity check, but be explicit.
    Ok(e.base + rel_lpn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DevError, LOGICAL_PAGE};
    use crate::testdev::MemDevice;

    #[test]
    fn fsync_with_barriers_flushes_device() {
        let mut v = Volume::new(MemDevice::new(16), true);
        v.fsync(0).unwrap();
        assert_eq!(v.device_stats().flushes, 1);
        assert_eq!(v.fsync_count(), 1);
    }

    #[test]
    fn fsync_without_barriers_skips_flush() {
        let mut v = Volume::new(MemDevice::new(16), false);
        let t = v.fsync(0).unwrap();
        assert_eq!(t, FSYNC_SOFT_COST);
        assert_eq!(v.device_stats().flushes, 0);
    }

    #[test]
    fn volume_round_trips_data() {
        let mut v = Volume::new(MemDevice::new(16), true);
        let data = vec![7u8; LOGICAL_PAGE];
        v.write(3, &data, 0).unwrap();
        let mut back = vec![0u8; LOGICAL_PAGE];
        v.read(3, 1, &mut back, 100).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn allocator_hands_out_disjoint_extents() {
        let mut m = VolumeManager::new(100);
        let a = m.alloc(10);
        let b = m.alloc(20);
        assert_eq!(a, Extent { base: 0, pages: 10 });
        assert_eq!(b, Extent { base: 10, pages: 20 });
        assert_eq!(m.free_pages(), 70);
    }

    #[test]
    #[should_panic(expected = "volume exhausted")]
    fn allocator_panics_when_full() {
        let mut m = VolumeManager::new(8);
        m.alloc(9);
    }

    #[test]
    fn extent_io_translates_and_checks() {
        let e = Extent { base: 100, pages: 10 };
        assert_eq!(extent_io(e, 3, 1, LOGICAL_PAGE).unwrap(), 103);
        assert!(matches!(extent_io(e, 9, 2, 2 * LOGICAL_PAGE), Err(DevError::OutOfRange { .. })));
    }

    #[test]
    fn discard_passthrough_defaults_to_noop() {
        let mut v = Volume::new(MemDevice::new(16), true);
        let data = vec![7u8; LOGICAL_PAGE];
        v.write(3, &data, 0).unwrap();
        let t = v.discard(3, 1, 100).unwrap();
        assert_eq!(t, 100, "default discard is free");
        let mut back = vec![0u8; LOGICAL_PAGE];
        v.read(3, 1, &mut back, t).unwrap();
        assert_eq!(back, data, "no-op discard keeps data");
    }

    #[test]
    fn cause_stack_innermost_wins_and_defaults_to_host_data() {
        use crate::device::WriteCause;
        let mut v = Volume::new(MemDevice::new(16), true);
        let data = vec![7u8; LOGICAL_PAGE];
        // No declared cause: host data.
        assert_eq!(v.current_cause(), WriteCause::HostData);
        v.write(0, &data, 0).unwrap();
        // Nested contexts: the innermost annotation wins.
        v.push_cause(WriteCause::WalAppend);
        v.write(1, &data, 10).unwrap();
        v.push_cause(WriteCause::PageImage);
        assert_eq!(v.current_cause(), WriteCause::PageImage);
        v.write(2, &data, 20).unwrap();
        v.pop_cause();
        v.write(3, &data, 30).unwrap();
        v.pop_cause();
        // Popped back to the default.
        v.write(4, &data, 40).unwrap();
        let by_cause = v.host_pages_by_cause();
        assert_eq!(by_cause[WriteCause::HostData.index()], 2);
        assert_eq!(by_cause[WriteCause::WalAppend.index()], 2);
        assert_eq!(by_cause[WriteCause::PageImage.index()], 1);
        let total: u64 = by_cause.iter().sum();
        assert_eq!(total, v.device_stats().pages_written, "every host page attributed");
    }

    #[test]
    fn volume_ops_open_anatomy_frames() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut v = Volume::new(MemDevice::new(16), true);
        v.attach_telemetry(tel.clone(), "t");
        let data = vec![7u8; LOGICAL_PAGE];
        let t = v.write(3, &data, 0).unwrap();
        let bd = tel.last_breakdown().unwrap();
        assert_eq!(bd.name, "dev.t.write");
        assert!(bd.is_conserved());
        let mut back = vec![0u8; LOGICAL_PAGE];
        let t = v.read(3, 1, &mut back, t).unwrap();
        assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.read");
        let t = v.fsync(t).unwrap();
        assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.flush");
        v.discard(3, 1, t).unwrap();
        assert_eq!(tel.last_breakdown().unwrap().name, "dev.t.discard");
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0, "no dangling frames");
    }

    /// A device that splits each command's service time into `xfer` and
    /// media segments, once a telemetry handle has reached it.
    struct ChargingDevice {
        inner: MemDevice,
        tel: Option<Telemetry>,
    }

    impl ChargingDevice {
        fn charge(&self, media: SegKind, start: Nanos, done: DevResult<Nanos>) -> DevResult<Nanos> {
            if let (Some(tel), Ok(done)) = (&self.tel, &done) {
                let xfer = (done - start) / 4;
                tel.seg(SegKind::Xfer, xfer);
                tel.seg(media, done - start - xfer);
            }
            done
        }
    }

    impl BlockDevice for ChargingDevice {
        fn capacity_pages(&self) -> u64 {
            self.inner.capacity_pages()
        }
        fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
            let done = self.inner.read(lpn, pages, buf, now);
            self.charge(SegKind::MediaRead, now, done)
        }
        fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
            let done = self.inner.write(lpn, data, now);
            self.charge(SegKind::MediaProgram, now, done)
        }
        fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
            self.inner.flush(now)
        }
        fn power_cut(&mut self, now: Nanos) {
            self.inner.power_cut(now);
        }
        fn reboot(&mut self, now: Nanos) -> Nanos {
            self.inner.reboot(now)
        }
        fn is_powered(&self) -> bool {
            self.inner.is_powered()
        }
        fn attach_telemetry(&mut self, tel: Telemetry) {
            self.tel = Some(tel);
        }
        fn stats(&self) -> DeviceStats {
            self.inner.stats()
        }
    }

    #[test]
    fn one_attach_reaches_the_device_segments() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let dev = ChargingDevice { inner: MemDevice::new(16), tel: None };
        let mut v = Volume::new(dev, true);
        v.attach_telemetry(tel.clone(), "t");
        assert!(v.device().tel.is_some(), "the volume forwards its handle");
        let t = v.write(3, &vec![7u8; LOGICAL_PAGE], 0).unwrap();
        let bd = tel.last_breakdown().unwrap();
        assert_eq!(bd.name, "dev.t.write");
        assert_eq!(bd.seg(SegKind::Xfer) + bd.seg(SegKind::MediaProgram), bd.wall);
        assert!(bd.seg(SegKind::Xfer) > 0 && bd.seg(SegKind::MediaProgram) > 0);
        v.read(3, 1, &mut vec![0u8; LOGICAL_PAGE], t).unwrap();
        let bd = tel.last_breakdown().unwrap();
        assert_eq!(bd.name, "dev.t.read");
        assert!(bd.seg(SegKind::Xfer) > 0 && bd.seg(SegKind::MediaRead) > 0);
        assert_eq!(bd.seg(SegKind::Host), 0, "the device claimed the whole command");
        assert!(tel.histogram("seg.media_read").is_some());
        assert_eq!(tel.anatomy_violations(), 0);
    }

    #[test]
    fn nobarrier_fsync_charges_wal_fsync_not_flush_cache() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut v = Volume::new(MemDevice::new(16), false);
        v.attach_telemetry(tel.clone(), "t");
        // Enclosing host-op frame, as a commit would open.
        tel.begin_frame("engine.commit", 0);
        let done = v.fsync(0).unwrap();
        tel.end_frame("engine.commit", done);
        let bd = tel.last_breakdown().unwrap();
        assert_eq!(bd.seg(SegKind::WalFsync), FSYNC_SOFT_COST, "soft cost is wal_fsync");
        assert_eq!(bd.seg(SegKind::FlushCache), 0, "nobarrier: no flush segment, ever");
        assert!(bd.is_conserved());
        // The fsync's own frame conserved too.
        let soft = tel.outliers_for("dev.t.fsync_soft");
        assert_eq!(soft.len(), 1);
        assert_eq!(soft[0].wall, FSYNC_SOFT_COST);
        assert_eq!(soft[0].seg(SegKind::WalFsync), FSYNC_SOFT_COST);
    }

    #[test]
    fn failed_command_does_not_leak_a_frame() {
        let tel = Telemetry::new();
        tel.enable_anatomy(2);
        let mut v = Volume::new(MemDevice::new(16), true);
        v.attach_telemetry(tel.clone(), "t");
        let data = vec![7u8; LOGICAL_PAGE];
        assert!(v.write(99, &data, 0).is_err(), "out of range");
        assert_eq!(tel.frame_depth(), 0, "error path must close its frame");
        assert_eq!(tel.anatomy_violations(), 0);
    }

    #[test]
    fn barrier_remount_changes_fsync_behaviour() {
        let mut v = Volume::new(MemDevice::new(16), true);
        v.fsync(0).unwrap();
        assert_eq!(v.device_stats().flushes, 1);
        v.set_barriers(false);
        v.fsync(10).unwrap();
        assert_eq!(v.device_stats().flushes, 1, "nobarrier fsync must not flush");
        assert!(!v.barriers());
    }
}
