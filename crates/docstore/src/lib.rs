//! `docstore` — a Couchbase-like document store (the paper's §4.3.3).
//!
//! Couchbase's storage engine (couchstore) is append-only: an update writes
//! the document, then rewrites every B-tree node on the root-to-leaf path,
//! and appends a header; durability comes from an fsync every `batch_size`
//! updates ("Couchbase can adjust the fsync frequency in order to trade
//! durability for performance"). With the paper's numbers — 1KB documents, a
//! ~4-level tree of 4KB nodes — each update writes ~20KB.
//!
//! This crate reproduces that design:
//!
//! * [`append::AppendSpace`] — the append-only file substrate,
//! * [`cowtree`] — immutable (copy-on-write) node encoding,
//! * [`DocStore`] — the store: memory-first document cache (the memcached
//!   layer), COW updates, batched fsync, block-aligned headers, backward
//!   header scan on recovery, and compaction.

pub mod append;
pub mod cowtree;

use append::{AppendSpace, BLOCK};
use cowtree::{decode_node, encode_node, route, split_entries, Entry, KIND_INTERNAL, KIND_LEAF};
use forensics::{Ledger, UnitKind};
use simkit::{crc32, DetHashMap, Nanos, Recovered, ReplayStats, Timed};
use std::rc::Rc;
use storage::device::BlockDevice;
use storage::file::PageFile;
use storage::volume::{Volume, VolumeManager};
use telemetry::{Rec, Scope, Telemetry};
use wal::LogRecord;

const HEADER_MAGIC: u64 = 0x434f_5543_4848_4452;
/// Offset sentinel: "no such header".
const NO_OFF: u64 = u64::MAX;

/// A decoded node (kind, entries) as the node cache holds it. Appended
/// nodes never change, so the cache and every reader share one immutable
/// copy instead of cloning it.
type Node = Rc<(u8, Vec<Entry>)>;

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct DocStoreConfig {
    /// fsync every `batch_size` updates (Table 5 sweeps 1, 2, 5, 10, 100).
    pub batch_size: u32,
    /// Write barriers on the volume (fsync ⇒ FLUSH CACHE).
    pub barriers: bool,
    /// File size in 4KB blocks.
    pub file_blocks: u64,
    /// Auto-compact when the append file exceeds this fraction (percent) of
    /// its capacity — Couchbase's fragmentation-threshold auto-compaction.
    /// 0 disables.
    pub auto_compact_pct: u8,
    /// Every `n`-th commit header is promoted to a checkpoint *anchor* —
    /// the header-chain analogue of the relational engine's checkpoint.
    /// Recovery counts the commit headers it finds between the newest
    /// header and its anchor as `skipped` work a WAL engine would have had
    /// to replay. Must be at least 1 (1 = every header is an anchor).
    pub checkpoint_every_n_commits: u64,
}

impl DocStoreConfig {
    /// Defaults: fsync every update, barriers on, 64MB file, auto-compact
    /// at 75% fill, a checkpoint anchor every 8 commit headers.
    pub fn new() -> Self {
        Self {
            batch_size: 1,
            barriers: true,
            file_blocks: 16_384,
            auto_compact_pct: 75,
            checkpoint_every_n_commits: 8,
        }
    }

    /// Check internal consistency; called by `create` and `recover`.
    pub fn validate(&self) {
        assert!(self.batch_size >= 1, "batch size must be at least 1 update");
        assert!(self.file_blocks >= 4, "append file too small");
        assert!(
            self.checkpoint_every_n_commits >= 1,
            "checkpoint interval must be at least 1 commit"
        );
    }
}

impl Default for DocStoreConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Store statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DocStats {
    /// Set (insert/update) operations.
    pub sets: u64,
    /// Get operations.
    pub gets: u64,
    /// Deletes.
    pub deletes: u64,
    /// Gets served from the in-memory object cache.
    pub cache_hits: u64,
    /// fsync batches (headers written).
    pub headers: u64,
    /// Bytes appended (docs + nodes + headers).
    pub bytes_appended: u64,
    /// Unreadable nodes/documents encountered (post-crash corruption).
    pub corrupt_reads: u64,
    /// Compactions run.
    pub compactions: u64,
}

/// The document store over a block device.
pub struct DocStore<D: BlockDevice> {
    vol: Volume<D>,
    space: AppendSpace,
    root: Option<(u64, u32)>,
    depth: u32,
    seq: u64,
    /// Byte offset of the most recent commit header ([`NO_OFF`] if none) —
    /// the head of the backward header chain.
    prev_header_off: u64,
    /// Byte offset of the most recent checkpoint anchor header.
    ckpt_off: u64,
    /// Commit headers written since the last anchor.
    headers_since_ckpt: u64,
    cfg: DocStoreConfig,
    /// Memory-first object cache (Couchbase's managed-cache layer). Keys
    /// share their bytes with the tree entries.
    doc_cache: DetHashMap<Rc<[u8]>, Option<Vec<u8>>>,
    /// Node cache (OS page cache stand-in) over the live tree only: a
    /// path node superseded by a copy-on-write update is dropped.
    node_cache: DetHashMap<u64, Node>,
    updates_since_sync: u32,
    stats: DocStats,
    /// Optional telemetry sink; see [`DocStore::attach_telemetry`].
    tel: Option<Telemetry>,
    /// Optional durability ledger; see [`DocStore::attach_ledger`].
    ledger: Option<Ledger>,
}

/// Frame a document for the append space as a self-describing
/// [`LogRecord::DocSet`] — the same versioned, CRC-guarded framing the WAL
/// uses, so the append file's record stream is decodable on its own.
fn frame_doc(key: &[u8], doc: &[u8]) -> Vec<u8> {
    LogRecord::encode_doc_set(key, doc)
}

/// Unframe a [`frame_doc`]'d record; `None` on corruption.
fn unframe_doc(framed: &[u8]) -> Option<Vec<u8>> {
    match LogRecord::decode(framed) {
        Some((LogRecord::DocSet { value, .. }, _)) => Some(value),
        _ => None,
    }
}

impl<D: BlockDevice> DocStore<D> {
    /// Create a fresh (empty) store on `dev`.
    pub fn create(dev: D, cfg: DocStoreConfig) -> Self {
        cfg.validate();
        let vol = Volume::new(dev, cfg.barriers);
        let mut vm = VolumeManager::new(vol.capacity_pages());
        let file = PageFile::create(&mut vm, cfg.file_blocks.min(vol.capacity_pages()), BLOCK);
        Self {
            vol,
            space: AppendSpace::new(file),
            root: None,
            depth: 0,
            seq: 0,
            prev_header_off: NO_OFF,
            ckpt_off: NO_OFF,
            headers_since_ckpt: 0,
            cfg,
            doc_cache: DetHashMap::default(),
            node_cache: DetHashMap::default(),
            updates_since_sync: 0,
            stats: DocStats::default(),
            tel: None,
            ledger: None,
        }
    }

    /// Statistics.
    pub fn stats(&self) -> DocStats {
        self.stats
    }

    /// Attach a telemetry sink to the store, its volume and, through the
    /// volume, its device: device latency histograms land under
    /// `dev.doc.*`, and the store records `doc.set` / `doc.get` /
    /// `doc.commit` operation latencies and anatomy frames.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.vol.attach_telemetry(tel.clone(), "doc");
        self.tel = Some(tel);
    }

    /// Attach a durability ledger to the store and its volume. Every `set`
    /// / `delete` pends a [`UnitKind::DocstoreUpdate`] unit; the batch
    /// header fsync (the couchstore commit point) acknowledges everything
    /// pending, under the flush-barrier contract when barriers are on and
    /// the device's own contract when they are off.
    pub fn attach_ledger(&mut self, ledger: Ledger) {
        self.vol.attach_ledger(ledger.clone());
        self.ledger = Some(ledger);
    }

    /// Open a per-operation [`Rec::Op`] scope (see
    /// `relstore::Engine::open_op`): spans emitted below the store while
    /// the operation runs share the trace-ID allocated here, and with
    /// latency anatomy enabled the scope is also the attribution frame
    /// lower layers charge segments against (frames nest: `doc.set` may
    /// contain a `doc.commit` frame; both see the same segments, so each
    /// level's conservation identity holds).
    fn open_op(&self, name: &'static str, now: Nanos) -> Scope<'static> {
        Scope::open(self.tel.as_ref(), "doc", name, now, Rec::Op)
    }

    /// Close the scope from [`DocStore::open_op`] at `done` (recording the
    /// op's latency histogram), and let the gauge sampler take a
    /// cadence-gated snapshot.
    fn close_op(&self, op: Scope<'static>, done: Nanos) {
        op.close(done);
        if let Some(tel) = &self.tel {
            tel.sample(done);
        }
    }

    /// Tree depth (levels of internal nodes above the leaves).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Header sequence number (monotone commit counter).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Device statistics of the underlying volume.
    pub fn device_stats(&self) -> storage::device::DeviceStats {
        self.vol.device_stats()
    }

    /// The underlying device (read-only), e.g. to collect forensic
    /// snapshots after recovery.
    pub fn device(&self) -> &D {
        self.vol.device()
    }

    /// Bytes appended so far.
    pub fn file_len(&self) -> u64 {
        self.space.len()
    }

    /// Bytes appended since the last checkpoint anchor header (the whole
    /// file if no anchor has been committed yet) — the docstore analogue of
    /// outstanding WAL.
    pub fn outstanding_bytes(&self) -> u64 {
        if self.ckpt_off == NO_OFF {
            self.space.len()
        } else {
            self.space.len().saturating_sub(self.ckpt_off)
        }
    }

    /// Drop the in-memory object cache (test hook: forces tree walks).
    pub fn clear_object_cache(&mut self) {
        self.doc_cache.clear();
    }

    /// A node through the cache: shared, loaded on a miss.
    fn read_node(&mut self, ptr: u64, len: u32, now: Nanos) -> (Option<Node>, Nanos) {
        if let Some(n) = self.node_cache.get(&ptr) {
            return (Some(Rc::clone(n)), now);
        }
        let (node, t) = self.load_node(ptr, len, now);
        let node = node.map(Rc::new);
        if let Some(n) = &node {
            self.node_cache.insert(ptr, Rc::clone(n));
        }
        (node, t)
    }

    /// A path node about to be superseded by a copy-on-write update: taken
    /// out of the cache (nothing reachable from the new root points at it)
    /// and returned owned, or loaded without caching it.
    fn take_node(&mut self, ptr: u64, len: u32, now: Nanos) -> (Option<(u8, Vec<Entry>)>, Nanos) {
        match self.node_cache.remove(&ptr) {
            Some(n) => (Some(Rc::try_unwrap(n).unwrap_or_else(|shared| (*shared).clone())), now),
            None => self.load_node(ptr, len, now),
        }
    }

    fn load_node(&mut self, ptr: u64, len: u32, now: Nanos) -> (Option<(u8, Vec<Entry>)>, Nanos) {
        match self.space.read(&mut self.vol, ptr, len as usize, now) {
            Ok((bytes, t)) => {
                let node = decode_node(&bytes);
                if node.is_none() {
                    self.stats.corrupt_reads += 1;
                }
                (node, t)
            }
            Err(_) => {
                self.stats.corrupt_reads += 1;
                (None, now)
            }
        }
    }

    /// Append one node and return the parent entry that points at it (its
    /// max key, offset and length). The entries move into the node cache.
    fn append_node(&mut self, kind: u8, entries: Vec<Entry>) -> Entry {
        let bytes = encode_node(kind, &entries);
        let ptr = self.space.append(&bytes);
        self.stats.bytes_appended += bytes.len() as u64;
        let key = Rc::clone(&entries.last().expect("nodes are non-empty").key);
        self.node_cache.insert(ptr, Rc::new((kind, entries)));
        Entry { key, ptr, len: bytes.len() as u32 }
    }

    /// Append `entries` as one node of `kind`, or several when they do not
    /// fit one, and return the parent entries that point at them.
    fn append_split(&mut self, kind: u8, entries: Vec<Entry>) -> Vec<Entry> {
        split_entries(entries).into_iter().map(|c| self.append_node(kind, c)).collect()
    }

    /// Recursive COW insert. Returns the replacement entries for this
    /// subtree (1 normally, more after splits).
    fn insert_rec(
        &mut self,
        ptr: u64,
        len: u32,
        level: u32,
        doc_entry: &Entry,
        now: Nanos,
    ) -> (Vec<Entry>, Nanos) {
        let (node, t) = self.take_node(ptr, len, now);
        let Some((kind, mut entries)) = node else {
            // Corrupt node: rebuild this subtree as a single-leaf with the
            // new entry (data under it is lost; counted in corrupt_reads).
            return (vec![self.append_node(KIND_LEAF, vec![doc_entry.clone()])], now);
        };
        if level == 0 {
            debug_assert_eq!(kind, KIND_LEAF);
            match entries.binary_search_by(|e| e.key.cmp(&doc_entry.key)) {
                Ok(i) => entries[i] = doc_entry.clone(),
                Err(i) => entries.insert(i, doc_entry.clone()),
            }
            (self.append_split(KIND_LEAF, entries), t)
        } else {
            debug_assert_eq!(kind, KIND_INTERNAL);
            let idx = route(&entries, &doc_entry.key);
            let (child_ptr, child_len) = (entries[idx].ptr, entries[idx].len);
            let (repl, t) = self.insert_rec(child_ptr, child_len, level - 1, doc_entry, t);
            entries.splice(idx..idx + 1, repl);
            (self.append_split(KIND_INTERNAL, entries), t)
        }
    }

    fn apply_tree_update(&mut self, doc_entry: Entry, now: Nanos) -> Nanos {
        let mut t = now;
        let mut tops = match self.root {
            None => vec![self.append_node(KIND_LEAF, vec![doc_entry])],
            Some((rp, rl)) => {
                let depth = self.depth;
                let (repl, t2) = self.insert_rec(rp, rl, depth, &doc_entry, now);
                t = t2;
                repl
            }
        };
        // Grow the root while the replacement set does not fit one node.
        while tops.len() > 1 {
            tops = self.append_split(KIND_INTERNAL, tops);
            self.depth += 1;
        }
        let top = &tops[0];
        self.root = Some((top.ptr, top.len));
        t
    }

    /// Record a document (`None`: deleted) in the object cache, overwriting
    /// a cached value in place.
    fn cache_doc(&mut self, key: &Rc<[u8]>, doc: Option<&[u8]>) {
        match (self.doc_cache.get_mut(&**key), doc) {
            (Some(Some(v)), Some(d)) => {
                v.clear();
                v.extend_from_slice(d);
            }
            (Some(slot), d) => *slot = d.map(<[u8]>::to_vec),
            (None, d) => {
                self.doc_cache.insert(Rc::clone(key), d.map(<[u8]>::to_vec));
            }
        }
    }

    /// After a mutation: push bytes to the device, fsync per batch size, and
    /// auto-compact once the append file is mostly garbage.
    fn finish_update(&mut self, now: Nanos) -> Nanos {
        let t = self.space.write_out(&mut self.vol, now);
        self.updates_since_sync += 1;
        let t =
            if self.updates_since_sync >= self.cfg.batch_size { self.commit_header(t) } else { t };
        if self.cfg.auto_compact_pct > 0
            && self.space.len() * 100 > self.space.capacity() * self.cfg.auto_compact_pct as u64
        {
            return self.compact(t);
        }
        t
    }

    /// Append a header block and fsync (the commit point). Every
    /// `checkpoint_every_n_commits`-th header is promoted to a checkpoint
    /// anchor automatically.
    pub fn commit_header(&mut self, now: Nanos) -> Nanos {
        let op = self.open_op("doc.commit", now);
        let due = self.headers_since_ckpt + 1 >= self.cfg.checkpoint_every_n_commits;
        let done = self.commit_header_inner(due, now);
        self.close_op(op, done);
        done
    }

    /// Commit with a forced checkpoint anchor: the header-chain analogue of
    /// the relational engine's `checkpoint`. Recovery measures its header
    /// walk (the `skipped` count) back to the newest anchor.
    pub fn commit_checkpoint(&mut self, now: Nanos) -> Nanos {
        let op = self.open_op("doc.checkpoint", now);
        let done = self.commit_header_inner(true, now);
        self.close_op(op, done);
        done
    }

    fn commit_header_inner(&mut self, anchor: bool, now: Nanos) -> Nanos {
        self.seq += 1;
        self.space.align_to_block();
        let off = self.space.len();
        if anchor {
            self.ckpt_off = off;
            self.headers_since_ckpt = 0;
        } else {
            self.headers_since_ckpt += 1;
        }
        // Header block: magic, seq, root, depth, then the backward chain —
        // the previous header's offset and the newest anchor's offset.
        let mut hdr = vec![0u8; BLOCK];
        hdr[..8].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
        hdr[8..16].copy_from_slice(&self.seq.to_le_bytes());
        let (rp, rl) = self.root.unwrap_or((u64::MAX, 0));
        hdr[16..24].copy_from_slice(&rp.to_le_bytes());
        hdr[24..28].copy_from_slice(&rl.to_le_bytes());
        hdr[28..32].copy_from_slice(&self.depth.to_le_bytes());
        hdr[32..40].copy_from_slice(&self.prev_header_off.to_le_bytes());
        hdr[40..48].copy_from_slice(&self.ckpt_off.to_le_bytes());
        let crc = crc32(&hdr[..48]);
        hdr[48..52].copy_from_slice(&crc.to_le_bytes());
        self.space.append(&hdr);
        self.prev_header_off = off;
        self.stats.bytes_appended += hdr.len() as u64;
        self.stats.headers += 1;
        self.updates_since_sync = 0;
        let done = self.space.sync(&mut self.vol, now);
        if let Some(ledger) = &self.ledger {
            // The header fsync is couchstore's commit point: everything
            // appended since the previous header is now acknowledged.
            ledger.ack_all_pending(done, self.cfg.barriers);
        }
        done
    }

    /// Insert or update a document. Returns the completion time.
    pub fn set(&mut self, key: &[u8], doc: &[u8], now: Nanos) -> Nanos {
        self.stats.sets += 1;
        let op = self.open_op("doc.set", now);
        if let Some(ledger) = &self.ledger {
            ledger.pend(UnitKind::DocstoreUpdate, key, Ledger::digest(doc), now);
        }
        let framed = frame_doc(key, doc);
        let ptr = self.space.append(&framed);
        self.stats.bytes_appended += framed.len() as u64;
        let key: Rc<[u8]> = key.into();
        let entry = Entry { key: Rc::clone(&key), ptr, len: framed.len() as u32 };
        let t = self.apply_tree_update(entry, now);
        self.cache_doc(&key, Some(doc));
        let done = self.finish_update(t);
        self.close_op(op, done);
        done
    }

    /// Delete a document (tombstone entry).
    pub fn delete(&mut self, key: &[u8], now: Nanos) -> Nanos {
        self.stats.deletes += 1;
        let op = self.open_op("doc.delete", now);
        if let Some(ledger) = &self.ledger {
            // Tombstone digest: a surviving delete reads back as Missing.
            ledger.pend(UnitKind::DocstoreUpdate, key, Ledger::digest(&[]), now);
        }
        // Breadcrumb record: the tombstone itself lives in the tree entry
        // (ptr 0 / len 0), but the append stream stays self-describing.
        let framed = LogRecord::DocDelete { key: key.to_vec() }.encode();
        self.space.append(&framed);
        self.stats.bytes_appended += framed.len() as u64;
        let key: Rc<[u8]> = key.into();
        let entry = Entry { key: Rc::clone(&key), ptr: 0, len: 0 };
        let t = self.apply_tree_update(entry, now);
        self.cache_doc(&key, None);
        let done = self.finish_update(t);
        self.close_op(op, done);
        done
    }

    /// Fetch a document. Memory-first: the object cache serves hot keys; a
    /// miss walks the on-disk tree.
    pub fn get(&mut self, key: &[u8], now: Nanos) -> Timed<Option<Vec<u8>>> {
        let op = self.open_op("doc.get", now);
        let (v, done) = self.get_inner(key, now);
        self.close_op(op, done);
        Timed::new(v, done)
    }

    fn get_inner(&mut self, key: &[u8], now: Nanos) -> (Option<Vec<u8>>, Nanos) {
        self.stats.gets += 1;
        if let Some(v) = self.doc_cache.get(key) {
            self.stats.cache_hits += 1;
            // Object-cache hit: sub-microsecond.
            return (v.clone(), now + 500);
        }
        let Some((mut ptr, mut len)) = self.root else {
            return (None, now);
        };
        let mut t = now;
        loop {
            let (node, t2) = self.read_node(ptr, len, t);
            t = t2;
            let Some(node) = node else {
                return (None, t);
            };
            let (kind, entries) = &*node;
            if *kind == KIND_LEAF {
                let found = match entries.binary_search_by(|e| (*e.key).cmp(key)) {
                    Ok(i) => {
                        let e = &entries[i];
                        if e.len == 0 {
                            None // tombstone
                        } else {
                            match self.space.read(&mut self.vol, e.ptr, e.len as usize, t) {
                                Ok((framed, t2)) => {
                                    t = t2;
                                    match unframe_doc(&framed) {
                                        Some(body) => Some(body),
                                        None => {
                                            self.stats.corrupt_reads += 1;
                                            None
                                        }
                                    }
                                }
                                Err(_) => {
                                    self.stats.corrupt_reads += 1;
                                    None
                                }
                            }
                        }
                    }
                    Err(_) => None,
                };
                if let Some(doc) = &found {
                    self.doc_cache.insert(key.into(), Some(doc.clone()));
                }
                return (found, t);
            }
            if entries.is_empty() {
                return (None, t);
            }
            let idx = route(entries, key);
            // A key greater than every max-key cannot be in the tree.
            if key > &*entries[idx].key {
                return (None, t);
            }
            ptr = entries[idx].ptr;
            len = entries[idx].len;
        }
    }

    /// All live `(key, doc)` pairs in order (compaction walk).
    #[allow(clippy::type_complexity)]
    fn collect_live(&mut self, now: Nanos) -> (Vec<(Rc<[u8]>, Vec<u8>)>, Nanos) {
        let Some((rp, rl)) = self.root else {
            return (Vec::new(), now);
        };
        let mut out = Vec::new();
        let mut t = now;
        let mut stack = vec![(rp, rl, self.depth)];
        while let Some((ptr, len, level)) = stack.pop() {
            let (node, t2) = self.read_node(ptr, len, t);
            t = t2;
            let Some(node) = node else { continue };
            let (kind, entries) = &*node;
            if *kind == KIND_LEAF {
                for e in entries {
                    if e.len == 0 {
                        continue;
                    }
                    if let Ok((framed, t3)) =
                        self.space.read(&mut self.vol, e.ptr, e.len as usize, t)
                    {
                        t = t3;
                        if let Some(body) = unframe_doc(&framed) {
                            out.push((Rc::clone(&e.key), body));
                        }
                    }
                }
            } else {
                for e in entries.iter().rev() {
                    stack.push((e.ptr, e.len, level.saturating_sub(1)));
                }
            }
        }
        (out, t)
    }

    /// Compaction: rewrite the live data as a fresh, dense tree at the start
    /// of the file (modelling couchstore's copy-compaction into a new file),
    /// then TRIM the reclaimed tail so the SSD can drop the stale blocks.
    pub fn compact(&mut self, now: Nanos) -> Nanos {
        self.stats.compactions += 1;
        let old_len = self.space.len();
        let (live, t) = self.collect_live(now);
        // Fresh space over the same region.
        let file = self.space_file();
        self.space = AppendSpace::new(file);
        self.node_cache.clear();
        self.root = None;
        self.depth = 0;
        // The old header chain died with the old file contents.
        self.prev_header_off = NO_OFF;
        self.ckpt_off = NO_OFF;
        self.headers_since_ckpt = 0;
        // Bulk-load bottom-up: docs + leaves, then internal levels.
        let mut level_entries: Vec<Entry> = Vec::new();
        for (key, doc) in &live {
            let framed = frame_doc(key, doc);
            let ptr = self.space.append(&framed);
            self.stats.bytes_appended += framed.len() as u64;
            level_entries.push(Entry { key: Rc::clone(key), ptr, len: framed.len() as u32 });
        }
        if !level_entries.is_empty() {
            let mut kind = KIND_LEAF;
            loop {
                let next = self.append_split(kind, level_entries);
                if next.len() == 1 {
                    self.root = Some((next[0].ptr, next[0].len));
                    break;
                }
                level_entries = next;
                kind = KIND_INTERNAL;
                self.depth += 1;
            }
        }
        // A compaction is a checkpoint by construction: the fresh file is
        // exactly the live state, so the first header is an anchor.
        let t = self.commit_checkpoint(t);
        // TRIM everything between the new end of file and the old one.
        let new_blocks = self.space.len().div_ceil(BLOCK as u64);
        let old_blocks = old_len.div_ceil(BLOCK as u64);

        if old_blocks > new_blocks {
            self.vol.discard(new_blocks, (old_blocks - new_blocks) as u32, t).unwrap_or(t)
        } else {
            t
        }
    }

    fn space_file(&self) -> PageFile {
        // The layout is deterministic: one file at the start of the volume.
        let mut vm = VolumeManager::new(self.vol.capacity_pages());
        PageFile::create(&mut vm, self.cfg.file_blocks.min(self.vol.capacity_pages()), BLOCK)
    }

    /// Crash: cut device power and surrender the device.
    pub fn crash(mut self, now: Nanos) -> D {
        self.vol.power_cut(now);
        self.vol.into_device()
    }

    /// Recover a store from a device: reboot, scan backwards for the newest
    /// valid header, resume after it. Updates past the last header are lost
    /// (that is couchstore's contract).
    ///
    /// The returned [`Recovered`] mirrors the relational engine's report:
    /// `skipped` counts the commit headers walked back from the newest
    /// header to its checkpoint anchor (batches a WAL engine would have had
    /// to replay), `checkpoint_lsn` is the anchor's byte offset, and
    /// `replayed`/`torn` are always 0 — couchstore replays nothing (the
    /// newest header *is* the recovered state) and an interrupted append
    /// tail is indistinguishable from unwritten space.
    pub fn recover(dev: D, cfg: DocStoreConfig, now: Nanos) -> Recovered<Self> {
        cfg.validate();
        let mut vol = Volume::new(dev, cfg.barriers);
        let mut t = now;
        if !vol.device().is_powered() {
            t = vol.reboot(t);
        }
        let mut vm = VolumeManager::new(vol.capacity_pages());
        let file = PageFile::create(&mut vm, cfg.file_blocks.min(vol.capacity_pages()), BLOCK);
        // (block, root, len, depth, seq, prev_off, ckpt_off)
        let mut found: Option<(u64, u64, u32, u32, u64, u64, u64)> = None;
        let mut buf = vec![0u8; BLOCK];
        for blk in (0..file.pages()).rev() {
            match file.read_page(&mut vol, blk, &mut buf, t) {
                Ok(t2) => t = t2,
                Err(_) => continue,
            }
            if u64::from_le_bytes(buf[..8].try_into().expect("hdr")) != HEADER_MAGIC {
                continue;
            }
            let crc = u32::from_le_bytes(buf[48..52].try_into().expect("hdr"));
            if crc != crc32(&buf[..48]) {
                continue;
            }
            let seq = u64::from_le_bytes(buf[8..16].try_into().expect("hdr"));
            let root = u64::from_le_bytes(buf[16..24].try_into().expect("hdr"));
            let len = u32::from_le_bytes(buf[24..28].try_into().expect("hdr"));
            let depth = u32::from_le_bytes(buf[28..32].try_into().expect("hdr"));
            let prev_off = u64::from_le_bytes(buf[32..40].try_into().expect("hdr"));
            let ckpt_off = u64::from_le_bytes(buf[40..48].try_into().expect("hdr"));
            found = Some((blk, root, len, depth, seq, prev_off, ckpt_off));
            break;
        }
        let mut replay = ReplayStats::default();
        let (space, root, depth, seq, prev_header_off, ckpt_off) = match found {
            Some((blk, root, len, depth, seq, prev_off, ckpt_off)) => {
                // Walk the header chain back to the checkpoint anchor: each
                // header after the anchor is a commit batch the header-chain
                // design spared us from replaying.
                let newest_off = blk * BLOCK as u64;
                replay.checkpoint_lsn = if ckpt_off == NO_OFF { 0 } else { ckpt_off };
                let mut off = newest_off;
                let mut prev = prev_off;
                let mut guard = file.pages();
                while ckpt_off != NO_OFF && off > ckpt_off && guard > 0 {
                    replay.skipped += 1;
                    guard -= 1;
                    if prev == NO_OFF || prev >= off {
                        break; // chain truncated or corrupt: stop counting
                    }
                    let pblk = prev / BLOCK as u64;
                    match file.read_page(&mut vol, pblk, &mut buf, t) {
                        Ok(t2) => t = t2,
                        Err(_) => break,
                    }
                    let magic_ok =
                        u64::from_le_bytes(buf[..8].try_into().expect("hdr")) == HEADER_MAGIC;
                    let crc = u32::from_le_bytes(buf[48..52].try_into().expect("hdr"));
                    if !magic_ok || crc != crc32(&buf[..48]) {
                        break;
                    }
                    off = prev;
                    prev = u64::from_le_bytes(buf[32..40].try_into().expect("hdr"));
                }
                let resume = (blk + 1) * BLOCK as u64;
                let space = AppendSpace::reopen(file, resume, vec![0u8; BLOCK]);
                let root = if root == u64::MAX { None } else { Some((root, len)) };
                let ckpt = if ckpt_off == NO_OFF { NO_OFF } else { ckpt_off };
                (space, root, depth, seq, newest_off, ckpt)
            }
            None => (AppendSpace::new(file), None, 0, 0, NO_OFF, NO_OFF),
        };
        let store = Self {
            vol,
            space,
            root,
            depth,
            seq,
            prev_header_off,
            ckpt_off,
            headers_since_ckpt: 0,
            cfg,
            doc_cache: DetHashMap::default(),
            node_cache: DetHashMap::default(),
            updates_since_sync: 0,
            stats: DocStats::default(),
            tel: None,
            ledger: None,
        };
        replay.replay_ns = t.saturating_sub(now);
        Recovered::new(store, t, replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durassd::{Ssd, SsdConfig};
    use std::collections::HashMap;
    use storage::testdev::MemDevice;

    fn store(batch: u32) -> DocStore<MemDevice> {
        let cfg = DocStoreConfig {
            batch_size: batch,
            barriers: true,
            file_blocks: 8192,
            auto_compact_pct: 0,
            checkpoint_every_n_commits: 8,
        };
        DocStore::create(MemDevice::new(8192), cfg)
    }

    fn doc(i: u64) -> Vec<u8> {
        format!("document-{i}-{}", "d".repeat(200)).into_bytes()
    }

    #[test]
    fn anatomy_frames_doc_sets_and_conserve() {
        let tel = Telemetry::new();
        tel.enable_anatomy(4);
        let mut s = store(1);
        s.attach_telemetry(tel.clone());
        let mut t = 0;
        for i in 0..20u64 {
            t = s.set(format!("k{i}").as_bytes(), &doc(i), t);
            let bd = tel.last_breakdown().expect("set closes a frame");
            assert_eq!(bd.name, "doc.set");
            assert!(bd.is_conserved(), "segments within wall: {}", bd.to_json());
        }
        assert_eq!(tel.anatomy_violations(), 0);
        assert_eq!(tel.frame_depth(), 0);
        assert!(!tel.outliers_for("doc.set").is_empty());
    }

    /// Offsets of every node reachable from the root.
    fn reachable_nodes(s: &mut DocStore<MemDevice>) -> std::collections::HashSet<u64> {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<(u64, u32)> = s.root.into_iter().collect();
        while let Some((ptr, len)) = stack.pop() {
            seen.insert(ptr);
            let (node, _) = s.read_node(ptr, len, 0);
            let node = node.expect("live node decodes");
            if node.0 == KIND_INTERNAL {
                stack.extend(node.1.iter().map(|e| (e.ptr, e.len)));
            }
        }
        seen
    }

    #[test]
    fn node_cache_holds_only_the_live_tree() {
        let mut s = store(10);
        let zipf = simkit::dist::ScrambledZipfian::new(1000);
        let mut r = simkit::dist::rng(0xD0C5);
        let mut latest = HashMap::new();
        let mut t = 0;
        for i in 0..2000u64 {
            let key = format!("user{:06}", zipf.sample(&mut r));
            t = s.set(key.as_bytes(), &doc(i), t);
            latest.insert(key, i);
        }
        assert!(s.depth() >= 1, "the updates must build a multi-level tree");
        let cached: Vec<u64> = s.node_cache.keys().copied().collect();
        let live = reachable_nodes(&mut s);
        assert!(cached.len() <= live.len(), "{} cached, {} reachable", cached.len(), live.len());
        assert!(cached.iter().all(|p| live.contains(p)), "a superseded node stayed cached");
        s.clear_object_cache();
        for (key, i) in &latest {
            let (v, t2) = s.get(key.as_bytes(), t).into_parts();
            t = t2;
            assert_eq!(v.as_deref(), Some(&doc(*i)[..]), "{key}");
        }
        assert_eq!(s.stats().corrupt_reads, 0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut s = store(1);
        let t = s.set(b"k1", &doc(1), 0);
        let (v, _) = s.get(b"k1", t).into_parts();
        assert_eq!(v.unwrap(), doc(1));
        let (v, _) = s.get(b"nope", t).into_parts();
        assert!(v.is_none());
    }

    #[test]
    fn updates_overwrite() {
        let mut s = store(1);
        let t = s.set(b"k", b"old", 0);
        let t = s.set(b"k", b"new", t);
        let (v, _) = s.get(b"k", t).into_parts();
        assert_eq!(v.unwrap(), b"new");
    }

    #[test]
    fn tree_grows_and_finds_everything() {
        let mut s = store(100);
        let mut t = 0;
        for i in 0..2000u64 {
            t = s.set(format!("key{:06}", i * 37 % 2000).as_bytes(), &doc(i), t);
        }
        assert!(s.depth() >= 1, "2000 docs must split the root leaf");
        // Clear the object cache to force tree walks.
        s.clear_object_cache();
        for i in (0..2000u64).step_by(97) {
            let (v, t2) = s.get(format!("key{:06}", i).as_bytes(), t).into_parts();
            t = t2;
            assert!(v.is_some(), "missing key {i}");
        }
        assert_eq!(s.stats().corrupt_reads, 0);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut s = store(1);
        let t = s.set(b"k", &doc(1), 0);
        let t = s.delete(b"k", t);
        s.clear_object_cache();
        let (v, _) = s.get(b"k", t).into_parts();
        assert!(v.is_none());
    }

    #[test]
    fn batch_size_controls_fsync_frequency() {
        let mut s1 = store(1);
        let mut s100 = store(100);
        let mut t1 = 0;
        let mut t100 = 0;
        for i in 0..100u64 {
            t1 = s1.set(format!("k{i}").as_bytes(), &doc(i), t1);
            t100 = s100.set(format!("k{i}").as_bytes(), &doc(i), t100);
        }
        assert_eq!(s1.stats().headers, 100);
        assert_eq!(s100.stats().headers, 1);
        assert!(s1.device_stats().flushes > s100.device_stats().flushes);
    }

    #[test]
    fn synced_updates_survive_recovery() {
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: true,
            file_blocks: 8192,
            auto_compact_pct: 0,
            checkpoint_every_n_commits: 8,
        };
        let mut s = DocStore::create(MemDevice::new(8192), cfg);
        let mut t = 0;
        for i in 0..50u64 {
            t = s.set(format!("k{i:03}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, mut t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        assert_eq!(s2.seq(), 50);
        for i in 0..50u64 {
            let (v, t3) = s2.get(format!("k{i:03}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert_eq!(v.unwrap(), doc(i), "k{i:03}");
        }
    }

    #[test]
    fn unsynced_tail_is_lost_on_recovery() {
        let cfg = DocStoreConfig {
            batch_size: 10,
            barriers: true,
            file_blocks: 8192,
            auto_compact_pct: 0,
            checkpoint_every_n_commits: 8,
        };
        let mut s = DocStore::create(MemDevice::new(8192), cfg);
        let mut t = 0;
        for i in 0..10u64 {
            t = s.set(format!("synced{i}").as_bytes(), &doc(i), t);
        }
        // 3 more updates, no header yet (batch of 10).
        for i in 0..3u64 {
            t = s.set(format!("tail{i}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        let (v, t3) = s2.get(b"synced5", t2).into_parts();
        assert!(v.is_some(), "synced batch must survive");
        let (v, _) = s2.get(b"tail0", t3).into_parts();
        assert!(v.is_none(), "unsynced tail must be gone");
    }

    #[test]
    fn compaction_preserves_data_and_shrinks_file() {
        let mut s = store(100);
        let mut t = 0;
        for round in 0..5u64 {
            for i in 0..200u64 {
                t = s.set(format!("k{i:04}").as_bytes(), &doc(round * 1000 + i), t);
            }
        }
        let before = s.file_len();
        t = s.compact(t);
        assert!(s.file_len() < before / 2, "compaction should reclaim garbage");
        s.clear_object_cache();
        for i in (0..200u64).step_by(11) {
            let (v, t2) = s.get(format!("k{i:04}").as_bytes(), t).into_parts();
            t = t2;
            assert_eq!(v.unwrap(), doc(4000 + i));
        }
    }

    #[test]
    fn works_on_durassd_without_barriers() {
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: false,
            file_blocks: 1024,
            auto_compact_pct: 0,
            checkpoint_every_n_commits: 8,
        };
        let mut s = DocStore::create(Ssd::new(SsdConfig::tiny_test()), cfg);
        let mut t = 0;
        for i in 0..20u64 {
            t = s.set(format!("k{i}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, mut t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        for i in 0..20u64 {
            let (v, t3) = s2.get(format!("k{i}").as_bytes(), t2).into_parts();
            t2 = t3;
            assert!(v.is_some(), "durable cache must preserve acked batch k{i}");
        }
    }

    #[test]
    fn volatile_device_without_barriers_loses_data() {
        let cfg = DocStoreConfig {
            batch_size: 1,
            barriers: false,
            file_blocks: 1024,
            auto_compact_pct: 0,
            checkpoint_every_n_commits: 8,
        };
        let mut s = DocStore::create(Ssd::new(SsdConfig::tiny_volatile()), cfg);
        let mut t = 0;
        for i in 0..20u64 {
            t = s.set(format!("k{i}").as_bytes(), &doc(i), t);
        }
        let dev = s.crash(t);
        let (mut s2, mut t2) = DocStore::recover(dev, cfg, t + 1).into_parts();
        let mut lost = 0;
        for i in 0..20u64 {
            let (v, t3) = s2.get(format!("k{i}").as_bytes(), t2).into_parts();
            t2 = t3;
            if v != Some(doc(i)) {
                lost += 1;
            }
        }
        assert!(lost > 0, "nobarrier on a volatile cache must lose acked updates");
    }

    #[test]
    fn auto_compaction_keeps_file_bounded() {
        // Small file + heavy rewrite churn: auto-compaction must fire and
        // keep the append cursor within the file while preserving data.
        let cfg = DocStoreConfig {
            batch_size: 10,
            barriers: true,
            file_blocks: 512, // 2MB
            auto_compact_pct: 60,
            checkpoint_every_n_commits: 8,
        };
        let mut s = DocStore::create(MemDevice::new(1024), cfg);
        let mut t = 0;
        for round in 0..40u64 {
            for i in 0..40u64 {
                t = s.set(format!("k{i:02}").as_bytes(), &doc(round * 100 + i), t);
            }
        }
        assert!(s.stats().compactions > 0, "churn must trigger auto-compaction");
        assert!(s.file_len() < 512 * 4096, "file stayed within bounds");
        s.clear_object_cache();
        for i in 0..40u64 {
            let (v, t2) = s.get(format!("k{i:02}").as_bytes(), t).into_parts();
            t = t2;
            assert_eq!(v.unwrap(), doc(3900 + i), "k{i:02} after auto-compaction");
        }
    }
}
