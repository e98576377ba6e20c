//! Write-ahead redo log with group commit and typed logical records.
//!
//! The paper's database setups put the log on its own device, flush the log
//! tail on every transaction commit, and use three log files "to minimize
//! the interference from logging" (§4.2). This crate reproduces that:
//!
//! * Appends take a typed [`LogRecord`] (logical `Put`/`Delete`/`DocSet`/
//!   `DocDelete`, checkpoint `Begin`/`End` markers, physical `PageImages`
//!   sidecars). Each record is framed `[len][lsn][crc]payload` and appended
//!   to an in-memory tail buffer; `commit(lsn)` makes everything up to
//!   `lsn` durable by writing whole 4KB log blocks sequentially and calling
//!   `fsync` on the log volume (which turns into a device FLUSH only when
//!   barriers are on — exactly the knob the paper evaluates).
//! * **Group commit** falls out of the timing model: while one flush is in
//!   flight, later committers wait for it and the next flush covers all of
//!   their records at once.
//! * The physical log is a circular space over the configured files; a
//!   header block records the checkpoint LSN so recovery knows where to
//!   start scanning. A [`CheckpointPolicy`] decides when the engine should
//!   take the next checkpoint.
//! * Recovery classifies how the scan ended: a zeroed or stale header is
//!   the *clean* end of the committed prefix, while a CRC-failing or
//!   undecodable record is a **tear** — reported in [`LogScan::tear`] with
//!   truncate-at-tear semantics (the valid prefix is kept, appends resume
//!   at the tear point).
//!
//! Durability is *honest*: log blocks travel through the simulated device,
//! so a power cut takes with it whatever the device's cache model loses —
//! running the log with barriers off on a volatile-cache SSD really does
//! lose committed transactions, which is the paper's §2.2 warning.
//!
//! ## Group commit and the simulation
//!
//! In a real engine, threads that arrive while a flush is in progress
//! append their records and *join the next flush together*. A conservative
//! discrete-event simulation executes clients one at a time in virtual-time
//! order, so the joint flush cannot literally contain records that have not
//! been generated yet. [`Wal::set_group_commit`] enables a faithful
//! throughput model: a committer that finds a flush in flight is
//! acknowledged at the *estimated* completion of the next (batched) flush,
//! and the physical flush is issued as soon as the in-flight one completes.
//! The cost: an acknowledgement may precede media durability by at most one
//! flush window, so durability-sensitive tests either keep the strict mode
//! (default) or call [`Wal::quiesce`] before inspecting the device.

pub mod record;

use forensics::{EvidenceKind, Ledger};
use simkit::{crc32, Nanos};
use storage::device::{BlockDevice, WriteCause, LOGICAL_PAGE};
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Rec, Scope, SegKind, Telemetry};

pub use record::{CheckpointPolicy, LogRecord, RECORD_VERSION};

/// Log sequence number: byte offset in the infinite log stream.
pub type Lsn = u64;

/// Record header: len (u32) + lsn (u64) + crc (u32).
const REC_HDR: usize = 16;
/// Log block size.
const BLOCK: usize = LOGICAL_PAGE;
/// Magic for the log header block.
const HDR_MAGIC: u64 = 0x57414c_4844523031;

/// A decoded record surfaced by [`Wal::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// The record's LSN (stream offset of its frame header).
    pub lsn: Lsn,
    /// The decoded record.
    pub record: LogRecord,
}

/// How a recovery scan stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearKind {
    /// The frame's payload CRC failed: a partially-persisted record.
    TornFrame,
    /// The CRC held but the payload is not a valid [`LogRecord`]: garbage
    /// was appended or the log was corrupted in a CRC-colliding way.
    BadRecord,
}

/// A torn/garbage record found mid-scan. Recovery truncates at the tear:
/// everything before it is kept, the tear and everything after is dropped,
/// and new appends resume at `lsn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tear {
    /// LSN of the first unusable record.
    pub lsn: Lsn,
    /// Why the record was unusable.
    pub kind: TearKind,
}

/// The outcome of a recovery scan: the decoded valid prefix since the
/// checkpoint header, plus how the scan ended.
#[derive(Debug, Clone, Default)]
pub struct LogScan {
    /// Valid records in LSN order, starting at the checkpoint header.
    pub records: Vec<ScannedRecord>,
    /// `Some` when the scan stopped at a torn or garbage record rather
    /// than the clean end of the log.
    pub tear: Option<Tear>,
}

impl LogScan {
    /// Index and Begin-LSN of the last *complete* checkpoint in the scan:
    /// the newest [`LogRecord::CheckpointEnd`], whose `lsn` names the
    /// matching Begin. Records at or before this index are already
    /// reflected on the data volume and may be skipped by replay.
    pub fn replay_bound(&self) -> Option<(usize, Lsn)> {
        let mut bound = None;
        for (i, sr) in self.records.iter().enumerate() {
            if let LogRecord::CheckpointEnd { lsn } = sr.record {
                bound = Some((i, lsn));
            }
        }
        bound
    }
}

/// Log statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Commit calls.
    pub commits: u64,
    /// Physical flushes (write+fsync batches).
    pub flushes: u64,
    /// Commits satisfied by an already-running or completed flush.
    pub piggybacked_commits: u64,
    /// Commits that joined a batched group flush (group-commit mode).
    pub group_joins: u64,
    /// Log bytes written to the device (including block padding rewrites).
    pub bytes_written: u64,
}

/// The write-ahead log.
pub struct Wal {
    files: Vec<PageFile>,
    data_blocks: u64,
    buf: Vec<u8>,
    /// Stream offset of the first byte in `buf`.
    buf_start: Lsn,
    next_lsn: Lsn,
    durable_lsn: Lsn,
    /// A flush in flight: (completion time, covers-up-to LSN).
    inflight: Option<(Nanos, Lsn)>,
    /// Group-commit mode (see module docs).
    group_commit: bool,
    /// Promised completion of the queued (not yet physical) group flush.
    group_end: Option<Nanos>,
    /// Duration of the most recent physical flush (group-ack estimator).
    last_flush_dur: Nanos,
    checkpoint_lsn: Lsn,
    /// When `needs_checkpoint` should fire (see [`CheckpointPolicy`]).
    policy: CheckpointPolicy,
    /// Commits since the last checkpoint (drives `EveryNCommits`).
    commits_since_ckpt: u64,
    /// Content of the current partial tail block, as durable on disk.
    tail_image: Vec<u8>,
    /// Bytes of the tail buffer occupied by [`LogRecord::PageImages`]
    /// frames; classifies the next flush's write provenance.
    image_bytes_buffered: u64,
    /// Grow-only scratch for materialising the block run of a flush; reused
    /// across flushes so steady-state commits do not allocate.
    run_scratch: Vec<u8>,
    stats: WalStats,
    /// Optional telemetry sink; see [`Wal::attach_telemetry`].
    tel: Option<Telemetry>,
    /// Optional durability ledger: each physical flush completion is
    /// recorded as `wal-flush` evidence with the LSN it covered.
    ledger: Option<Ledger>,
}

impl Wal {
    /// Create a fresh log over `files_n` files of `file_blocks` 4KB blocks
    /// each, allocated from `vm`, and write the initial header.
    pub fn create<D: BlockDevice>(
        vol: &mut Volume<D>,
        vm: &mut VolumeManager,
        files_n: usize,
        file_blocks: u64,
        now: Nanos,
    ) -> (Self, Nanos) {
        assert!(files_n >= 1 && file_blocks >= 2, "log too small");
        let files: Vec<PageFile> =
            (0..files_n).map(|_| PageFile::create(vm, file_blocks, BLOCK)).collect();
        // Block 0 of file 0 is the header; the rest is the circular data area.
        let data_blocks = files_n as u64 * file_blocks - 1;
        let mut wal = Self {
            files,
            data_blocks,
            buf: Vec::new(),
            buf_start: 0,
            next_lsn: 0,
            durable_lsn: 0,
            inflight: None,
            group_commit: false,
            group_end: None,
            last_flush_dur: 1_000_000,
            checkpoint_lsn: 0,
            policy: CheckpointPolicy::default(),
            commits_since_ckpt: 0,
            tail_image: vec![0u8; BLOCK],
            image_bytes_buffered: 0,
            run_scratch: Vec::new(),
            stats: WalStats::default(),
            tel: None,
            ledger: None,
        };
        let t = wal.write_header(vol, now);
        (wal, t)
    }

    /// Statistics so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Attach a telemetry sink. Commits, quiesces, checkpoints and
    /// physical flushes each run in one `wal` scope that records a latency
    /// histogram of the same name (`wal.commit`, `wal.quiesce`,
    /// `wal.checkpoint`, `wal.flush`); time spent queueing behind a flush
    /// is charged to the enclosing operation's latency anatomy.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = Some(tel);
    }

    /// Attach a durability ledger: every physical flush completion is
    /// recorded as `wal-flush` evidence carrying the LSN it covered and
    /// whether the underlying fsync was barrier-backed.
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.ledger = Some(ledger);
    }

    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Everything up to (exclusive) this LSN has been handed to the device
    /// and fsynced.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// The persisted checkpoint LSN (where the next recovery scan starts).
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Capacity of the circular data area in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.data_blocks * BLOCK as u64
    }

    /// Live (un-checkpointed) log length in bytes.
    pub fn live_bytes(&self) -> u64 {
        self.next_lsn - self.checkpoint_lsn
    }

    /// Install the checkpoint-scheduling policy (engines pass their
    /// config's policy down at create/recover time).
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        policy.validate();
        self.policy = policy;
    }

    /// Whether the engine should checkpoint soon, per the installed
    /// [`CheckpointPolicy`]. Every policy keeps a hard overflow guard:
    /// whatever the schedule, a live log past 7/8 of the circular capacity
    /// demands a checkpoint, because overflow is a panic.
    pub fn needs_checkpoint(&self) -> bool {
        let overflow_guard = self.live_bytes() * 8 > self.capacity_bytes() * 7;
        match self.policy {
            CheckpointPolicy::Explicit => overflow_guard,
            CheckpointPolicy::LiveBytesPct(pct) => {
                overflow_guard || self.live_bytes() * 100 > self.capacity_bytes() * pct as u64
            }
            CheckpointPolicy::EveryNCommits(n) => overflow_guard || self.commits_since_ckpt >= n,
        }
    }

    /// Append a typed record; returns its LSN. Not yet durable.
    pub fn append(&mut self, rec: &LogRecord) -> Lsn {
        let before = self.buf.len();
        let lsn = self.append_with(|out| rec.encode_into(out));
        if matches!(rec, LogRecord::PageImages { .. }) {
            self.image_bytes_buffered += (self.buf.len() - before) as u64;
        }
        lsn
    }

    /// Append `LogRecord::Put { tree, key, value }` encoded straight from
    /// the borrowed parts, with no owned record; the log bytes are
    /// identical to [`Wal::append`] of the owned record.
    pub fn append_put(&mut self, tree: u32, key: &[u8], value: &[u8]) -> Lsn {
        self.append_with(|out| LogRecord::encode_put_into(out, tree, key, value))
    }

    /// Append a pre-encoded payload. Exposed for corruption-injection
    /// tests; engines should go through [`Wal::append`] so recovery can
    /// decode what it scans.
    #[doc(hidden)]
    pub fn append_raw(&mut self, payload: &[u8]) -> Lsn {
        self.append_with(|out| out.extend_from_slice(payload))
    }

    /// Frame a payload straight into the tail buffer: `payload` writes it
    /// after a reserved `[len u32][lsn u64][crc u32]` header, which is
    /// patched once the payload is in place (no staging copy).
    fn append_with(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> Lsn {
        let lsn = self.next_lsn;
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; REC_HDR]);
        payload(&mut self.buf);
        let len = self.buf.len() - start - REC_HDR;
        self.next_lsn += (REC_HDR + len) as u64;
        assert!(
            self.live_bytes() < self.capacity_bytes(),
            "log overflow: checkpoint was not taken in time"
        );
        let crc = crc32(&self.buf[start + REC_HDR..]);
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf[start + 4..start + 12].copy_from_slice(&lsn.to_le_bytes());
        self.buf[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
        self.stats.appends += 1;
        if let Some(tel) = &self.tel {
            tel.set_gauge("wal.buffered_bytes", self.buf.len() as i64);
        }
        lsn
    }

    /// Translate a stream block index to (file, block-in-file), skipping the
    /// header block.
    fn locate(&self, stream_block: u64) -> (usize, u64) {
        let pos = 1 + (stream_block % self.data_blocks);
        let per_file = self.files[0].pages();
        ((pos / per_file) as usize, pos % per_file)
    }

    /// Write all buffered bytes as whole blocks and fsync. Returns
    /// completion time. Caller manages `inflight`/`durable_lsn`.
    fn flush_buffer<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        debug_assert!(!self.buf.is_empty());
        let scope = Scope::open(self.tel.as_ref(), "wal", "wal.flush", now, Rec::Hist("wal.flush"));
        // Provenance: a flush dominated by full-page-image sidecars is
        // page-image traffic, otherwise plain log appends. (One flush covers
        // one cause — block-granular classification by majority byte count,
        // documented in DESIGN.md.)
        let cause = if self.image_bytes_buffered * 2 >= self.buf.len() as u64 {
            WriteCause::PageImage
        } else {
            WriteCause::WalAppend
        };
        vol.push_cause(cause);
        self.image_bytes_buffered = 0;
        let start_block = self.buf_start / BLOCK as u64;
        let start_off = (self.buf_start % BLOCK as u64) as usize;
        let end = self.buf_start + self.buf.len() as u64;
        let end_block = end.div_ceil(BLOCK as u64);
        // Materialise the block run: durable prefix of the first block, the
        // buffered bytes, zero padding to the block boundary. The scratch is
        // reused flush to flush (taken out of `self` so the file-write calls
        // below can borrow `self.files` mutably).
        let nblocks = (end_block - start_block) as usize;
        let mut run = std::mem::take(&mut self.run_scratch);
        run.clear();
        run.resize(nblocks * BLOCK, 0);
        run[..start_off].copy_from_slice(&self.tail_image[..start_off]);
        run[start_off..start_off + self.buf.len()].copy_from_slice(&self.buf);
        // Issue per-block-run writes, splitting at file boundaries and wrap.
        let mut t = now;
        let mut b = 0usize;
        while b < nblocks {
            let (file, in_file) = self.locate(start_block + b as u64);
            // Contiguous run within this file.
            let mut len = 1usize;
            while b + len < nblocks {
                let (f2, if2) = self.locate(start_block + (b + len) as u64);
                if f2 != file || if2 != in_file + len as u64 {
                    break;
                }
                len += 1;
            }
            let data = &run[b * BLOCK..(b + len) * BLOCK];
            t = self.files[file]
                .write_pages(vol, in_file, data, t)
                .expect("log geometry is static");
            self.stats.bytes_written += (len * BLOCK) as u64;
            b += len;
        }
        let t = vol.fsync(t).expect("log device reachable");
        vol.pop_cause();
        // Remember the new partial tail image.
        let tail_off = (end % BLOCK as u64) as usize;
        if tail_off == 0 {
            self.tail_image.fill(0);
        } else {
            let last = &run[(nblocks - 1) * BLOCK..];
            self.tail_image[..tail_off].copy_from_slice(&last[..tail_off]);
            self.tail_image[tail_off..].fill(0);
        }
        self.buf_start = end;
        self.buf.clear();
        self.run_scratch = run;
        self.stats.flushes += 1;
        scope.close(t);
        if let Some(tel) = &self.tel {
            tel.set_gauge("wal.buffered_bytes", 0);
        }
        if let Some(ledger) = &self.ledger {
            // The flush covered the stream up to `end`: with barriers the
            // ack is barrier-backed, otherwise it rides on the device cache.
            ledger.evidence(EvidenceKind::WalFlush, end, t, vol.barriers());
        }
        t
    }

    /// Enable or disable the group-commit throughput model (see module
    /// docs). Strict mode (false, the default) never acknowledges a commit
    /// before its flush completes.
    pub fn set_group_commit(&mut self, on: bool) {
        self.group_commit = on;
    }

    /// Charge time spent waiting on an in-flight or promised log flush (a
    /// wait that never reaches the device layer) to the enclosing op's
    /// latency anatomy, so group-commit queueing shows up per op. The segment
    /// kind follows what the awaited flush *is*: with write barriers the
    /// flush is overwhelmingly a FLUSH CACHE drain, so queueing behind it
    /// is `flush_cache` time; on a nobarrier (durable-cache) deployment it
    /// is pure log commit, `wal_fsync`.
    fn note_wait(&self, ns: Nanos, barriers: bool) {
        if ns > 0 {
            if let Some(tel) = &self.tel {
                tel.seg(if barriers { SegKind::FlushCache } else { SegKind::WalFsync }, ns);
            }
        }
    }

    /// Retire a completed in-flight flush and, in group-commit mode, fire
    /// the queued group flush.
    fn advance<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) {
        if let Some((end, upto)) = self.inflight {
            if end <= now {
                self.durable_lsn = self.durable_lsn.max(upto);
                self.inflight = None;
                if self.group_end.take().is_some() && !self.buf.is_empty() {
                    // The queued group flush starts right where the previous
                    // one ended. It runs on behalf of the commits that joined
                    // it, which were charged their wait when they joined, not
                    // of the operation that happens to fire it: a detached
                    // frame keeps its device time out of that operation.
                    let covers = self.next_lsn;
                    let scope = Scope::open(
                        self.tel.as_ref(),
                        "wal",
                        "wal.group_flush",
                        end,
                        Rec::Detached,
                    );
                    let done = self.flush_buffer(vol, end);
                    scope.close(done);
                    self.last_flush_dur = done.saturating_sub(end).max(1);
                    self.inflight = Some((done, covers));
                    self.durable_lsn = covers;
                }
            }
        }
    }

    /// Make everything up to `lsn` durable; returns the completion time.
    /// Implements group commit: a commit whose records are covered by a
    /// flush already in flight just waits for it; in group-commit mode, a
    /// commit whose records are *not* covered joins the next batched flush.
    pub fn commit<D: BlockDevice>(&mut self, vol: &mut Volume<D>, lsn: Lsn, now: Nanos) -> Nanos {
        let scope =
            Scope::open(self.tel.as_ref(), "wal", "wal.commit", now, Rec::Hist("wal.commit"));
        self.commits_since_ckpt += 1;
        let done = self.commit_inner(vol, lsn, now);
        scope.close(done);
        done
    }

    fn commit_inner<D: BlockDevice>(&mut self, vol: &mut Volume<D>, lsn: Lsn, now: Nanos) -> Nanos {
        self.stats.commits += 1;
        self.advance(vol, now);
        if lsn < self.durable_lsn {
            self.stats.piggybacked_commits += 1;
            return now;
        }
        let mut t = now;
        if let Some((end, upto)) = self.inflight {
            if lsn < upto {
                self.stats.piggybacked_commits += 1;
                self.note_wait(end.saturating_sub(t), vol.barriers());
                return t.max(end);
            }
            if self.group_commit {
                // Join the next batched flush; acknowledged at its estimated
                // completion.
                self.stats.group_joins += 1;
                let est = end + self.last_flush_dur;
                let promised = self.group_end.map_or(est, |g| g.max(est)).max(now);
                self.group_end = Some(promised);
                self.note_wait(promised - now, vol.barriers());
                return promised;
            }
            // Strict mode: wait out the in-flight flush.
            self.note_wait(end.saturating_sub(t), vol.barriers());
            t = t.max(end);
            self.durable_lsn = self.durable_lsn.max(upto);
            self.inflight = None;
            if lsn < self.durable_lsn {
                self.stats.piggybacked_commits += 1;
                return t;
            }
        }
        if self.buf.is_empty() {
            // Everything appended so far was flushed by an earlier commit or
            // by the engine's eviction-time WAL-rule flush.
            self.durable_lsn = self.durable_lsn.max(self.next_lsn);
            self.stats.piggybacked_commits += 1;
            return t;
        }
        let covers = self.next_lsn;
        let done = self.flush_buffer(vol, t);
        self.last_flush_dur = done.saturating_sub(t).max(1);
        self.inflight = Some((done, covers));
        self.durable_lsn = covers; // durable as of `done`, which we return
        done
    }

    /// Force every appended record onto the device and wait for it: used by
    /// checkpoints and by crash harnesses that need strict durability under
    /// group-commit mode. Returns the completion time.
    pub fn quiesce<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        let quiesce = Rec::Hist("wal.quiesce");
        let scope = Scope::open(self.tel.as_ref(), "wal", "wal.quiesce", now, quiesce);
        let mut t = now;
        if let Some((end, upto)) = self.inflight.take() {
            self.note_wait(end.saturating_sub(t), vol.barriers());
            t = t.max(end);
            self.durable_lsn = self.durable_lsn.max(upto);
        }
        self.group_end = None;
        if !self.buf.is_empty() {
            let covers = self.next_lsn;
            t = self.flush_buffer(vol, t);
            self.durable_lsn = covers;
        }
        scope.close(t);
        t
    }

    /// Record a checkpoint at `lsn`: everything older may be overwritten.
    /// Persists the header (write + fsync) and resets the commit counter
    /// that drives [`CheckpointPolicy::EveryNCommits`].
    pub fn checkpoint<D: BlockDevice>(
        &mut self,
        vol: &mut Volume<D>,
        lsn: Lsn,
        now: Nanos,
    ) -> Nanos {
        assert!(lsn <= self.next_lsn);
        self.checkpoint_lsn = self.checkpoint_lsn.max(lsn);
        self.commits_since_ckpt = 0;
        let checkpoint = Rec::Hist("wal.checkpoint");
        let scope = Scope::open(self.tel.as_ref(), "wal", "wal.checkpoint", now, checkpoint);
        let done = self.write_header(vol, now);
        scope.close(done);
        done
    }

    fn write_header<D: BlockDevice>(&mut self, vol: &mut Volume<D>, now: Nanos) -> Nanos {
        let mut hdr = [0u8; BLOCK];
        hdr[..8].copy_from_slice(&HDR_MAGIC.to_le_bytes());
        hdr[8..16].copy_from_slice(&self.checkpoint_lsn.to_le_bytes());
        let crc = crc32(&hdr[..16]);
        hdr[16..20].copy_from_slice(&crc.to_le_bytes());
        vol.push_cause(WriteCause::WalAppend);
        let t = self.files[0].write_page(vol, 0, &hdr, now).expect("header block exists");
        let t = vol.fsync(t).expect("log device reachable");
        vol.pop_cause();
        t
    }

    /// Recover the log from a volume after a crash: read the header, scan
    /// records from the checkpoint LSN, stop at the clean end of the log or
    /// the first torn/garbage record (reported in [`LogScan::tear`]).
    /// Returns the recovered log (positioned at the end of the valid
    /// suffix), the scan, and the completion time.
    pub fn recover<D: BlockDevice>(
        vol: &mut Volume<D>,
        files: Vec<PageFile>,
        now: Nanos,
    ) -> (Self, LogScan, Nanos) {
        let data_blocks = files.len() as u64 * files[0].pages() - 1;
        let mut wal = Self {
            files,
            data_blocks,
            buf: Vec::new(),
            buf_start: 0,
            next_lsn: 0,
            durable_lsn: 0,
            inflight: None,
            group_commit: false,
            group_end: None,
            last_flush_dur: 1_000_000,
            checkpoint_lsn: 0,
            policy: CheckpointPolicy::default(),
            commits_since_ckpt: 0,
            tail_image: vec![0u8; BLOCK],
            image_bytes_buffered: 0,
            run_scratch: Vec::new(),
            stats: WalStats::default(),
            tel: None,
            ledger: None,
        };
        let mut scan = LogScan::default();
        let mut hdr = vec![0u8; BLOCK];
        let mut t = wal.files[0].read_page(vol, 0, &mut hdr, now).expect("header block");
        let magic = u64::from_le_bytes(hdr[..8].try_into().unwrap());
        let ckpt = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let crc = u32::from_le_bytes(hdr[16..20].try_into().unwrap());
        if magic != HDR_MAGIC || crc != crc32(&hdr[..16]) {
            // Unformatted or corrupt header: empty log.
            return (wal, scan, t);
        }
        wal.checkpoint_lsn = ckpt;
        // Scan forward from the checkpoint.
        let mut lsn = ckpt;
        let mut cursor = ScanCursor::new();
        let mut payload = Vec::new();
        loop {
            // A record never exceeds the remaining capacity; stop when the
            // scan has covered a full circle.
            if lsn - ckpt >= wal.capacity_bytes() {
                break;
            }
            let mut hdr_bytes = [0u8; REC_HDR];
            cursor.copy(&wal, vol, lsn, &mut hdr_bytes, &mut t);
            let len = u32::from_le_bytes(hdr_bytes[..4].try_into().unwrap()) as usize;
            let rec_lsn = u64::from_le_bytes(hdr_bytes[4..12].try_into().unwrap());
            let crc = u32::from_le_bytes(hdr_bytes[12..16].try_into().unwrap());
            if rec_lsn != lsn || len == 0 || len as u64 > wal.capacity_bytes() {
                // Clean end: zeroed space, or stale residue from a previous
                // lap of the circle (its embedded LSN cannot match).
                break;
            }
            payload.resize(len, 0);
            cursor.copy(&wal, vol, lsn + REC_HDR as u64, &mut payload, &mut t);
            if crc32(&payload) != crc {
                // A record frame that matches this position but fails its
                // CRC is a partially-persisted write: a torn tail.
                scan.tear = Some(Tear { lsn, kind: TearKind::TornFrame });
                break;
            }
            match LogRecord::decode(&payload) {
                Some((record, used)) if used == payload.len() => {
                    scan.records.push(ScannedRecord { lsn, record });
                    lsn += (REC_HDR + len) as u64;
                }
                _ => {
                    // CRC-valid bytes that are not a record: garbage was
                    // logged, or corruption collided with the CRC.
                    scan.tear = Some(Tear { lsn, kind: TearKind::BadRecord });
                    break;
                }
            }
        }
        wal.next_lsn = lsn;
        wal.durable_lsn = lsn;
        wal.buf_start = lsn;
        // Rebuild the partial tail image so appends continue seamlessly.
        let tail_off = (lsn % BLOCK as u64) as usize;
        if tail_off != 0 {
            let blk = lsn / BLOCK as u64;
            let (file, in_file) = wal.locate(blk);
            t = wal.files[file].read_page(vol, in_file, &mut wal.tail_image, t).expect("log block");
            wal.tail_image[tail_off..].fill(0);
        }
        (wal, scan, t)
    }
}

/// Sequential reader for the recovery scan: holds one log block at a time
/// and copies contiguous runs out of it. Each stream block is read once,
/// when the scan first reaches it, so the device sees one read per block in
/// stream order.
struct ScanCursor {
    /// Stream block held in `buf`, if any.
    blk: Option<u64>,
    buf: Vec<u8>,
}

impl ScanCursor {
    fn new() -> Self {
        Self { blk: None, buf: vec![0u8; BLOCK] }
    }

    /// Fill `out` with the stream bytes starting at `off`, advancing `t`
    /// past every block read this needs.
    fn copy<D: BlockDevice>(
        &mut self,
        wal: &Wal,
        vol: &mut Volume<D>,
        mut off: u64,
        out: &mut [u8],
        t: &mut Nanos,
    ) {
        let mut done = 0;
        while done < out.len() {
            let blk = off / BLOCK as u64;
            if self.blk != Some(blk) {
                let (file, in_file) = wal.locate(blk);
                *t = wal.files[file].read_page(vol, in_file, &mut self.buf, *t).expect("log block");
                self.blk = Some(blk);
            }
            let at = (off % BLOCK as u64) as usize;
            let n = (BLOCK - at).min(out.len() - done);
            out[done..done + n].copy_from_slice(&self.buf[at..at + n]);
            done += n;
            off += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::device::{DevResult, DeviceStats};
    use storage::testdev::MemDevice;

    fn setup(files: usize, blocks: u64) -> (Volume<MemDevice>, Wal) {
        let mut vol = Volume::new(MemDevice::new(4096), true);
        let mut vm = VolumeManager::new(4096);
        let (wal, _) = Wal::create(&mut vol, &mut vm, files, blocks, 0);
        (vol, wal)
    }

    /// A minimal typed record whose payload is `bytes` (tests only care
    /// about sizes and byte survival, not the record's meaning).
    fn rec(bytes: &[u8]) -> LogRecord {
        LogRecord::DocSet { key: Vec::new(), value: bytes.to_vec() }
    }

    /// The payload carried by a recovered [`rec`] record.
    fn value_of(sr: &ScannedRecord) -> &[u8] {
        match &sr.record {
            LogRecord::DocSet { value, .. } => value,
            other => panic!("expected DocSet, got {other:?}"),
        }
    }

    #[test]
    fn append_assigns_monotonic_lsns() {
        let (_, mut wal) = setup(3, 16);
        let one = rec(b"one");
        let two = rec(b"two!");
        let a = wal.append(&one);
        let b = wal.append(&two);
        assert_eq!(a, 0);
        assert_eq!(b, (REC_HDR + one.encode().len()) as u64);
        assert_eq!(wal.next_lsn(), b + (REC_HDR + two.encode().len()) as u64);
    }

    #[test]
    fn append_put_frames_the_same_bytes_as_an_owned_put() {
        let (_, mut owned) = setup(3, 16);
        let (_, mut borrowed) = setup(3, 16);
        for i in 0..20u8 {
            let (key, value) = (vec![i; 1 + i as usize], vec![!i; 30 * i as usize]);
            let a = owned.append(&LogRecord::Put {
                tree: i as u32,
                key: key.clone(),
                value: value.clone(),
            });
            let b = borrowed.append_put(i as u32, &key, &value);
            assert_eq!(a, b);
        }
        assert_eq!(owned.buf, borrowed.buf);
        assert_eq!(owned.next_lsn(), borrowed.next_lsn());
    }

    #[test]
    fn commit_makes_records_durable_and_counts_flush() {
        let (mut vol, mut wal) = setup(3, 16);
        let lsn = wal.append(&rec(b"hello"));
        let t = wal.commit(&mut vol, lsn, 1000);
        assert!(t > 1000);
        assert!(wal.durable_lsn() > lsn);
        assert_eq!(wal.stats().flushes, 1);
        assert!(vol.device_stats().flushes >= 1);
    }

    #[test]
    fn committed_records_survive_recovery() {
        let (mut vol, mut wal) = setup(3, 16);
        let mut lsns = Vec::new();
        for i in 0..10u8 {
            lsns.push(wal.append(&rec(&[i; 100])));
        }
        let t = wal.commit(&mut vol, *lsns.last().unwrap(), 0);
        let files = wal.files.clone();
        let end = wal.next_lsn();
        drop(wal);
        let (wal2, scan, _) = Wal::recover(&mut vol, files, t);
        assert_eq!(scan.records.len(), 10);
        assert!(scan.tear.is_none());
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(value_of(r), &[i as u8; 100]);
            assert_eq!(r.lsn, lsns[i]);
        }
        assert_eq!(wal2.next_lsn(), end);
    }

    #[test]
    fn uncommitted_tail_does_not_survive() {
        let (mut vol, mut wal) = setup(3, 16);
        let a = wal.append(&rec(b"committed"));
        wal.commit(&mut vol, a, 0);
        let _ = wal.append(&rec(b"lost"));
        // No commit for the second record: crash now.
        let files = wal.files.clone();
        let (_, scan, _) = Wal::recover(&mut vol, files, 0);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(value_of(&scan.records[0]), b"committed");
        assert!(scan.tear.is_none(), "unwritten space is a clean end, not a tear");
    }

    #[test]
    fn group_commit_piggybacks() {
        let (mut vol, mut wal) = setup(3, 64);
        let a = wal.append(&rec(b"a"));
        let t1 = wal.commit(&mut vol, a, 0);
        // Two more records appended "while the flush runs" (arrival before
        // t1): the second commit of the pair piggybacks on the first.
        let b = wal.append(&rec(b"b"));
        let c = wal.append(&rec(b"c"));
        let t2 = wal.commit(&mut vol, c, t1 / 2);
        let t3 = wal.commit(&mut vol, b, t1 / 2 + 1);
        assert!(t2 >= t1, "second flush after the first");
        assert_eq!(t3, t1 / 2 + 1, "b was covered by c's flush");
        assert_eq!(wal.stats().piggybacked_commits, 1);
        assert_eq!(wal.stats().flushes, 2);
    }

    #[test]
    fn appends_continue_after_recovery() {
        let (mut vol, mut wal) = setup(3, 16);
        let a = wal.append(&rec(b"first"));
        let t = wal.commit(&mut vol, a, 0);
        let files = wal.files.clone();
        let (mut wal2, _, t2) = Wal::recover(&mut vol, files.clone(), t);
        let b = wal2.append(&rec(b"second"));
        let t3 = wal2.commit(&mut vol, b, t2);
        let (_, scan, _) = Wal::recover(&mut vol, files, t3);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(value_of(&scan.records[1]), b"second");
    }

    #[test]
    fn wraps_around_the_circular_space() {
        let (mut vol, mut wal) = setup(2, 4); // 7 data blocks = 28KB
        let mut t = 0;
        // Write ~3 capacities' worth with checkpoints to allow reuse.
        for round in 0..12u64 {
            let lsn = wal.append(&rec(&vec![round as u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
            // Checkpoint aggressively so the circle never overflows.
            t = wal.checkpoint(&mut vol, wal.next_lsn(), t);
        }
        let files = wal.files.clone();
        let ckpt = wal.checkpoint_lsn;
        let (wal2, scan, _) = Wal::recover(&mut vol, files, t);
        // Everything after the final checkpoint (nothing) scans cleanly.
        assert_eq!(wal2.checkpoint_lsn, ckpt);
        assert!(scan.records.is_empty());
        assert!(scan.tear.is_none(), "stale previous-lap bytes are a clean end");
    }

    #[test]
    fn checkpoint_threshold_reporting() {
        let (mut vol, mut wal) = setup(2, 4);
        assert!(!wal.needs_checkpoint());
        let mut t = 0;
        let mut lsn = 0;
        for _ in 0..11 {
            lsn = wal.append(&rec(&[9u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
        }
        assert!(wal.needs_checkpoint());
        wal.checkpoint(&mut vol, lsn, t);
        assert!(!wal.needs_checkpoint());
    }

    #[test]
    fn explicit_policy_reports_only_near_overflow() {
        let (mut vol, mut wal) = setup(2, 4); // 28KB capacity
        wal.set_checkpoint_policy(CheckpointPolicy::Explicit);
        let mut t = 0;
        for _ in 0..11 {
            let lsn = wal.append(&rec(&[9u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
        }
        // 11 records (~22KB) exceed 75% but not the 7/8 overflow guard.
        assert!(!wal.needs_checkpoint(), "explicit policy stays quiet below the guard");
        for _ in 0..2 {
            let lsn = wal.append(&rec(&[9u8; 2000]));
            t = wal.commit(&mut vol, lsn, t);
        }
        assert!(wal.needs_checkpoint(), "the overflow guard still fires");
    }

    #[test]
    fn every_n_commits_policy_counts_commits() {
        let (mut vol, mut wal) = setup(3, 16);
        wal.set_checkpoint_policy(CheckpointPolicy::EveryNCommits(3));
        let mut t = 0;
        for i in 0..3u64 {
            assert!(!wal.needs_checkpoint(), "commit {i}");
            let lsn = wal.append(&rec(b"x"));
            t = wal.commit(&mut vol, lsn, t);
        }
        assert!(wal.needs_checkpoint());
        wal.checkpoint(&mut vol, wal.next_lsn(), t);
        assert!(!wal.needs_checkpoint(), "checkpoint resets the commit counter");
    }

    #[test]
    #[should_panic(expected = "log overflow")]
    fn overflow_without_checkpoint_panics() {
        let (_, mut wal) = setup(2, 4);
        for _ in 0..40 {
            wal.append(&rec(&[1u8; 2000]));
        }
    }

    #[test]
    fn recovery_of_unformatted_volume_is_empty() {
        let mut vol = Volume::new(MemDevice::new(256), true);
        let mut vm = VolumeManager::new(256);
        let files = vec![PageFile::create(&mut vm, 8, BLOCK)];
        let (wal, scan, _) = Wal::recover(&mut vol, files, 0);
        assert!(scan.records.is_empty());
        assert!(scan.tear.is_none());
        assert_eq!(wal.next_lsn(), 0);
    }

    /// Regression: a bit flip inside a committed mid-log record must not
    /// assert or mis-decode — recovery keeps the prefix before the flip and
    /// reports a torn frame at the flipped record's LSN.
    #[test]
    fn bit_flipped_record_truncates_at_tear() {
        let (mut vol, mut wal) = setup(3, 16);
        let mut lsns = Vec::new();
        for i in 0..5u8 {
            lsns.push(wal.append(&rec(&[i; 200])));
        }
        let t = wal.commit(&mut vol, *lsns.last().unwrap(), 0);
        // Flip one byte in record 2's payload, on the device.
        let victim = lsns[2] + REC_HDR as u64 + 40;
        let blk = victim / BLOCK as u64;
        let (file, in_file) = wal.locate(blk);
        let mut buf = vec![0u8; BLOCK];
        let t = wal.files[file].read_page(&mut vol, in_file, &mut buf, t).unwrap();
        buf[(victim % BLOCK as u64) as usize] ^= 0x10;
        let t = wal.files[file].write_page(&mut vol, in_file, &buf, t).unwrap();
        let files = wal.files.clone();
        drop(wal);
        let (wal2, scan, _) = Wal::recover(&mut vol, files, t);
        assert_eq!(scan.records.len(), 2, "only the prefix before the flip survives");
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(value_of(r), &[i as u8; 200]);
        }
        assert_eq!(scan.tear, Some(Tear { lsn: lsns[2], kind: TearKind::TornFrame }));
        // Truncate-at-tear: the log resumes at the torn record's LSN.
        assert_eq!(wal2.next_lsn(), lsns[2]);
    }

    /// A [`MemDevice`] that records the first page of every read, in order.
    struct ReadLog {
        dev: MemDevice,
        reads: Vec<u64>,
    }

    impl BlockDevice for ReadLog {
        fn capacity_pages(&self) -> u64 {
            self.dev.capacity_pages()
        }
        fn read(&mut self, lpn: u64, pages: u32, buf: &mut [u8], now: Nanos) -> DevResult<Nanos> {
            self.reads.push(lpn);
            self.dev.read(lpn, pages, buf, now)
        }
        fn write(&mut self, lpn: u64, data: &[u8], now: Nanos) -> DevResult<Nanos> {
            self.dev.write(lpn, data, now)
        }
        fn flush(&mut self, now: Nanos) -> DevResult<Nanos> {
            self.dev.flush(now)
        }
        fn power_cut(&mut self, now: Nanos) {
            self.dev.power_cut(now)
        }
        fn reboot(&mut self, now: Nanos) -> Nanos {
            self.dev.reboot(now)
        }
        fn is_powered(&self) -> bool {
            self.dev.is_powered()
        }
        fn stats(&self) -> DeviceStats {
            self.dev.stats()
        }
    }

    /// The recovery scan of a fixed log — a checkpoint, records spanning
    /// up to three blocks, and a torn final record — pinned to the values
    /// the byte-at-a-time scan produced: the same records and tear, the
    /// same device reads in the same order, the same completion time.
    #[test]
    fn torn_tail_scan_is_pinned() {
        let mut vol = Volume::new(ReadLog { dev: MemDevice::new(4096), reads: Vec::new() }, true);
        let mut vm = VolumeManager::new(4096);
        let (mut wal, t) = Wal::create(&mut vol, &mut vm, 3, 16, 0);
        let mut t = t;
        for i in 0..4u8 {
            let lsn = wal.append(&rec(&[i; 700]));
            t = wal.commit(&mut vol, lsn, t);
        }
        let ckpt = wal.next_lsn();
        t = wal.checkpoint(&mut vol, ckpt, t);
        let mut last = 0;
        for (i, n) in [100usize, 5000, 300, 9000, 50, 2000, 6000].into_iter().enumerate() {
            last = wal.append(&rec(&vec![i as u8 + 10; n]));
            t = wal.commit(&mut vol, last, t);
        }
        // Tear the final record: flip a byte of its payload on the device.
        let victim = last + REC_HDR as u64 + 5000;
        let (file, in_file) = wal.locate(victim / BLOCK as u64);
        let mut buf = vec![0u8; BLOCK];
        t = wal.files[file].read_page(&mut vol, in_file, &mut buf, t).unwrap();
        buf[(victim % BLOCK as u64) as usize] ^= 0x01;
        t = wal.files[file].write_page(&mut vol, in_file, &buf, t).unwrap();
        let files = wal.files.clone();
        drop(wal);
        vol.device_mut().reads.clear();

        let (wal2, scan, done) = Wal::recover(&mut vol, files, t);
        let sizes: Vec<usize> = scan.records.iter().map(|r| value_of(r).len()).collect();
        let lsns: Vec<Lsn> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(ckpt, 2928);
        assert_eq!(sizes, [100, 5000, 300, 9000, 50, 2000]);
        assert_eq!(lsns, [2928, 3060, 8092, 8424, 17456, 17538]);
        assert_eq!(scan.tear, Some(Tear { lsn: last, kind: TearKind::TornFrame }));
        assert_eq!(wal2.next_lsn(), 19_570);
        // Header, each stream block once in order, then the tail block.
        assert_eq!(vol.device().reads, [0, 1, 2, 3, 4, 5, 6, 7, 5]);
        assert_eq!((t, done), (1_590_000, 1_680_000));
    }

    /// CRC-valid bytes that are not a [`LogRecord`] are a distinct tear
    /// kind: the frame survived but its content is garbage.
    #[test]
    fn undecodable_record_is_a_bad_record_tear() {
        let (mut vol, mut wal) = setup(3, 16);
        let a = wal.append(&rec(b"good"));
        let garbage = wal.append_raw(b"this is not a log record");
        wal.commit(&mut vol, garbage, 0);
        let _ = a;
        let files = wal.files.clone();
        let (_, scan, _) = Wal::recover(&mut vol, files, 0);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.tear, Some(Tear { lsn: garbage, kind: TearKind::BadRecord }));
    }

    #[test]
    fn replay_bound_finds_last_complete_checkpoint() {
        let mut scan = LogScan::default();
        let push = |scan: &mut LogScan, lsn: Lsn, record: LogRecord| {
            scan.records.push(ScannedRecord { lsn, record });
        };
        push(&mut scan, 0, rec(b"a"));
        assert!(scan.replay_bound().is_none());
        push(&mut scan, 10, LogRecord::CheckpointBegin { lsn: 10 });
        push(&mut scan, 20, LogRecord::CheckpointEnd { lsn: 10 });
        push(&mut scan, 30, rec(b"b"));
        assert_eq!(scan.replay_bound(), Some((2, 10)));
        // A later Begin with no End does not move the bound.
        push(&mut scan, 40, LogRecord::CheckpointBegin { lsn: 40 });
        assert_eq!(scan.replay_bound(), Some((2, 10)));
        push(&mut scan, 50, LogRecord::CheckpointEnd { lsn: 40 });
        assert_eq!(scan.replay_bound(), Some((5, 40)));
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};
        use storage::testdev::MemDevice;

        /// Arbitrary append/commit interleavings recover exactly the
        /// committed prefix.
        #[test]
        fn committed_prefix_recovers() {
            let mut rg = rng(0x3A1);
            for _ in 0..64 {
                let recs: Vec<(Vec<u8>, bool)> = (0..rg.gen_range(1..40usize))
                    .map(|_| {
                        let len = rg.gen_range(1..400usize);
                        ((0..len).map(|_| rg.gen::<u8>()).collect(), rg.gen::<bool>())
                    })
                    .collect();
                let mut vol = Volume::new(MemDevice::new(8192), true);
                let mut vm = VolumeManager::new(8192);
                let (mut wal, mut t) = Wal::create(&mut vol, &mut vm, 2, 256, 0);
                let mut committed = Vec::new();
                let mut pending = Vec::new();
                for (payload, commit) in recs {
                    let lsn = wal.append(&rec(&payload));
                    pending.push((lsn, payload));
                    if commit {
                        t = wal.commit(&mut vol, lsn, t);
                        committed.append(&mut pending);
                    }
                }
                let files = wal.files.clone();
                drop(wal);
                let (_, scan, _) = Wal::recover(&mut vol, files, t);
                assert_eq!(scan.records.len(), committed.len());
                assert!(scan.tear.is_none());
                for (r, (lsn, payload)) in scan.records.iter().zip(committed.iter()) {
                    assert_eq!(r.lsn, *lsn);
                    assert_eq!(value_of(r), payload);
                }
            }
        }
    }
}
