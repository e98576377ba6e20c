//! The block-device abstraction all simulated hardware implements.

use simkit::Nanos;
use telemetry::Telemetry;

/// The logical sector size every device in this repository exposes: 4KB, the
/// flash-page granularity the paper argues databases should adopt (§2.4).
/// Larger database pages are written as runs of consecutive logical pages.
pub const LOGICAL_PAGE: usize = 4096;

/// Errors a device can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// Address or address+length beyond the device capacity.
    OutOfRange { lpn: u64, pages: u32, capacity: u64 },
    /// Buffer length is not a multiple of [`LOGICAL_PAGE`] or doesn't match
    /// the requested page count.
    BadLength { expected: usize, got: usize },
    /// The device is powered off; I/O is impossible until `reboot`.
    PoweredOff,
    /// A read found a page damaged by an interrupted program operation
    /// (a *shorn write*, §2.1 / §5.2): the caller sees a mix of old and new
    /// sectors and must treat the page as corrupt.
    ShornPage { lpn: u64 },
    /// An unexpected media-level failure surfaced by the device's internal
    /// machinery (FTL garbage collection, mapped-slot reads). The string
    /// carries the underlying cause; callers treat it as an I/O error
    /// rather than a process abort.
    Media { what: String },
}

impl std::fmt::Display for DevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DevError::OutOfRange { lpn, pages, capacity } => {
                write!(f, "I/O at lpn {lpn} (+{pages}) beyond capacity {capacity}")
            }
            DevError::BadLength { expected, got } => {
                write!(f, "buffer length {got} does not match expected {expected}")
            }
            DevError::PoweredOff => write!(f, "device is powered off"),
            DevError::ShornPage { lpn } => {
                write!(f, "shorn (partially programmed) page at lpn {lpn}")
            }
            DevError::Media { what } => write!(f, "media failure: {what}"),
        }
    }
}

impl std::error::Error for DevError {}

/// Result alias for device operations.
pub type DevResult<T> = Result<T, DevError>;

/// Why a page write happened — the provenance tag threaded from the host
/// software (WAL, double-write buffer, document-store COW path) through the
/// volume into the device, and inside the device from the write cache down
/// to the media. Every boundary counts pages per cause, so write
/// amplification can be attributed end to end instead of reported as one
/// opaque ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WriteCause {
    /// Ordinary host data: table/index pages, raw fio blocks — anything no
    /// layer claimed a more specific cause for.
    #[default]
    HostData,
    /// Write-ahead-log appends (relstore WAL blocks, docstore headers ride
    /// their own cause below).
    WalAppend,
    /// Full page images: the double-write buffer area and WAL page-image
    /// sidecars (InnoDB full-page-writes analogue).
    PageImage,
    /// Document-store copy-on-write rewrites: the appended docs, B-tree
    /// path nodes and commit headers of the couchstore-style engine.
    DocRewrite,
    /// FTL garbage collection relocating still-valid slots.
    GcRelocate,
    /// FTL mapping-journal persistence (meta-block programs).
    MapPersist,
    /// Re-programs of cache slots recovered from an emergency capacitor
    /// dump after a power cut.
    EmergencyDump,
    /// HDD write-cache destages to the platter.
    Destage,
}

impl WriteCause {
    /// Number of causes (array dimension for per-cause counters).
    pub const COUNT: usize = 8;

    /// Every cause, in `index()` order.
    pub const ALL: [WriteCause; WriteCause::COUNT] = [
        WriteCause::HostData,
        WriteCause::WalAppend,
        WriteCause::PageImage,
        WriteCause::DocRewrite,
        WriteCause::GcRelocate,
        WriteCause::MapPersist,
        WriteCause::EmergencyDump,
        WriteCause::Destage,
    ];

    /// Dense index for per-cause counter arrays.
    pub fn index(self) -> usize {
        match self {
            WriteCause::HostData => 0,
            WriteCause::WalAppend => 1,
            WriteCause::PageImage => 2,
            WriteCause::DocRewrite => 3,
            WriteCause::GcRelocate => 4,
            WriteCause::MapPersist => 5,
            WriteCause::EmergencyDump => 6,
            WriteCause::Destage => 7,
        }
    }

    /// Stable snake_case label (JSON keys, report columns).
    pub fn label(self) -> &'static str {
        match self {
            WriteCause::HostData => "host_data",
            WriteCause::WalAppend => "wal_append",
            WriteCause::PageImage => "page_image",
            WriteCause::DocRewrite => "doc_rewrite",
            WriteCause::GcRelocate => "gc_relocate",
            WriteCause::MapPersist => "map_persist",
            WriteCause::EmergencyDump => "emergency_dump",
            WriteCause::Destage => "destage",
        }
    }
}

/// Per-cause page counters (indexed by [`WriteCause::index`]).
pub type CauseCounts = [u64; WriteCause::COUNT];

/// Cumulative device statistics, used by the experiment harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Host read commands served.
    pub reads: u64,
    /// Host write commands served.
    pub writes: u64,
    /// Logical pages written by the host (a 16KB write counts 4).
    pub pages_written: u64,
    /// FLUSH CACHE commands served.
    pub flushes: u64,
    /// Physical media writes, in logical-page units. The ratio
    /// `media_pages_written / pages_written` is the write amplification the
    /// paper's §1 bullet 4 talks about (redundant writes shorten SSD life).
    pub media_pages_written: u64,
    /// Garbage-collection block erases (SSD only).
    pub gc_erases: u64,
    /// Total block erases (SSD only).
    pub erases: u64,
    /// Host-issued logical pages received, split by the cause the host
    /// declared (device-received boundary; sums to `pages_written`).
    pub pages_by_cause: CauseCounts,
    /// Media pages written per cause, in logical-page units (NAND programs
    /// for SSDs, platter writes for HDDs; sums to `media_pages_written`).
    /// Device-internal traffic (GC, mapping persistence, dump recovery,
    /// destage) appears only here, never in `pages_by_cause`.
    pub media_pages_by_cause: CauseCounts,
}

/// A simulated block device.
///
/// All methods take the caller's current virtual time and return the virtual
/// time at which the operation completes (the host blocks until then; the
/// device may keep doing background work afterwards).
pub trait BlockDevice {
    /// Number of addressable logical pages.
    fn capacity_pages(&self) -> u64;

    /// Read `pages` logical pages starting at `lpn` into `buf`
    /// (`buf.len() == pages * LOGICAL_PAGE`).
    fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos>;

    /// Write `data` (a whole number of logical pages) at `lpn`. Completion
    /// means the device *acknowledged* the write — for write-back caches that
    /// is when data reached device DRAM, not media.
    fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos>;

    /// FLUSH CACHE: returns when everything acknowledged so far is on stable
    /// media (or, for a durable cache, when the device decides it is safe —
    /// DuraSSD§3.3 completes this quickly without draining to flash).
    fn flush(&mut self, now: Nanos) -> DevResult<Nanos>;

    /// Cut power at `now`. Volatile state is lost according to the device
    /// model; in-flight programs shear.
    fn power_cut(&mut self, now: Nanos);

    /// Power the device back on; runs the device's recovery procedure.
    /// Returns the virtual time at which the device is ready.
    fn reboot(&mut self, now: Nanos) -> Nanos;

    /// Whether the device is currently powered.
    fn is_powered(&self) -> bool;

    /// TRIM/DISCARD `pages` logical pages at `lpn`: the contents become
    /// undefined (read as zero here) and the device may reclaim the space.
    /// Default: unsupported no-op (disks).
    fn discard(&mut self, lpn: u64, pages: u32, now: Nanos) -> DevResult<Nanos> {
        let _ = (lpn, pages);
        Ok(now)
    }

    /// Declare the cause of subsequent writes (provenance tag). The volume
    /// calls this before every write with the innermost cause its host
    /// pushed; devices that account per-cause WAF store it, others ignore
    /// it. Default: no-op.
    fn set_write_cause(&mut self, cause: WriteCause) {
        let _ = cause;
    }

    /// Cumulative host-visible delay (ns) caused by background garbage
    /// collection stalling foreground commands (SSDs only). Harnesses
    /// sample it around a command to see whether GC interfered. Default: a
    /// device with no GC reports 0.
    fn gc_time(&self) -> Nanos {
        0
    }

    /// Attach a telemetry handle to the device model and every layer
    /// inside it (an SSD's FTL and NAND array). [`crate::Volume`] forwards
    /// its own handle here, so one attach per device stack reaches all of
    /// them. Default: a device that records nothing ignores it.
    fn attach_telemetry(&mut self, tel: Telemetry) {
        let _ = tel;
    }

    /// Cumulative statistics.
    fn stats(&self) -> DeviceStats;
}

/// Validate an I/O request against a device capacity; shared by the device
/// implementations.
pub fn check_io(lpn: u64, pages: u32, buf_len: usize, capacity: u64) -> DevResult<()> {
    if pages == 0 || lpn.checked_add(pages as u64).is_none_or(|end| end > capacity) {
        return Err(DevError::OutOfRange { lpn, pages, capacity });
    }
    let expected = pages as usize * LOGICAL_PAGE;
    if buf_len != expected {
        return Err(DevError::BadLength { expected, got: buf_len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_io_accepts_valid() {
        assert!(check_io(0, 1, LOGICAL_PAGE, 10).is_ok());
        assert!(check_io(6, 4, 4 * LOGICAL_PAGE, 10).is_ok());
    }

    #[test]
    fn check_io_rejects_out_of_range() {
        assert!(matches!(check_io(7, 4, 4 * LOGICAL_PAGE, 10), Err(DevError::OutOfRange { .. })));
        assert!(matches!(check_io(0, 0, 0, 10), Err(DevError::OutOfRange { .. })));
        // Overflow must not wrap.
        assert!(matches!(
            check_io(u64::MAX, 2, 2 * LOGICAL_PAGE, 10),
            Err(DevError::OutOfRange { .. })
        ));
    }

    #[test]
    fn check_io_rejects_bad_length() {
        assert!(matches!(
            check_io(0, 2, LOGICAL_PAGE, 10),
            Err(DevError::BadLength { expected, got })
                if expected == 2 * LOGICAL_PAGE && got == LOGICAL_PAGE
        ));
    }

    #[test]
    fn error_display() {
        let e = DevError::ShornPage { lpn: 9 };
        assert!(e.to_string().contains("shorn"));
    }
}
