//! The DRAM write cache (§3.1.1).
//!
//! A FIFO of dirty 4KB slots with duplicate-write coalescing: when the host
//! overwrites a page that is still waiting in the cache, the old copy is
//! replaced in place — the paper notes this improves endurance because only
//! the latest version reaches flash.
//!
//! Entries move through three states:
//!
//! * **dirty** — waiting for the flusher;
//! * **draining** — a NAND program has been scheduled but has not completed;
//!   the DRAM slot is still occupied (and still dump-covered on power cut);
//! * gone — the program completed, the slot was reclaimed (lazy).
//!
//! ## Zero-copy and complexity
//!
//! Slot contents live in [`PageBuf`] leases from the device's page pool, so
//! admission, drain and reclaim move *ownership*, never bytes: the flusher
//! borrows a popped slot's data in place ([`WriteCache::pop_dirty`] returns
//! the LPN; the caller reads via [`WriteCache::get`]) and the slot's buffer
//! returns to the pool when the entry is reclaimed. The hot-path queries the
//! device issues per host command are kept cheap with two side structures:
//!
//! * `draining_by_done` — drain completion times sorted ascending, so
//!   [`occupied_at`](WriteCache::occupied_at) is a binary search,
//!   [`earliest_drain_done`](WriteCache::earliest_drain_done) is a peek and
//!   [`reclaim`](WriteCache::reclaim) pops a prefix, instead of each being a
//!   full scan of the slot table;
//! * `ack_heap` — a lazy min-heap over command acknowledgement times, so
//!   [`next_ackable`](WriteCache::next_ackable) is an amortised peek.
//!
//! Both structures are bookkeeping only: every query returns exactly what
//! the scan-based implementation returned, so virtual-time results are
//! byte-identical.

use simkit::DetHashMap;
use simkit::{Nanos, PageBuf};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use storage::device::WriteCause;

/// `draining_until` sentinel between `pop_dirty` and `set_draining`: the
/// entry has been handed to the flusher but its program completion time is
/// not known yet. Sentinel-marked entries count as occupied at every `t`
/// (like the real completion, which is always in the future) and are not in
/// `draining_by_done`.
const DRAIN_PENDING: Nanos = Nanos::MAX;

/// One cached 4KB slot.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Page content (4KB), leased from the device's buffer pool.
    pub data: PageBuf,
    /// When `Some(done)`, a NAND program for this entry completes at `done`;
    /// the slot is reclaimable after that time.
    pub draining_until: Option<Nanos>,
    /// The host command's acknowledgement time. The flusher must not pick
    /// the entry up earlier: an unacknowledged command has to remain fully
    /// discardable for the atomic writer (§3.2).
    pub ackable_at: Nanos,
    /// Why this page was written (provenance carried from admission to the
    /// NAND program, since the drain happens long after the host command).
    pub cause: WriteCause,
    /// Generation tag matching this entry to its FIFO reference; entries
    /// removed (TRIM) or replaced leave stale references behind, which the
    /// flusher recognises by generation mismatch.
    gen: u64,
}

/// The write cache.
#[derive(Debug, Default)]
pub struct WriteCache {
    entries: DetHashMap<u64, CacheEntry>,
    /// FIFO of `(lpn, generation)` awaiting drain. May contain stale
    /// references; `pop_dirty` skips them by generation mismatch.
    fifo: VecDeque<(u64, u64)>,
    /// Number of entries not yet handed to the flusher (== live fifo refs).
    dirty: usize,
    next_gen: u64,
    /// `(done, lpn)` for every entry with a known drain completion time,
    /// sorted ascending by `done`. Exactly mirrors the entries whose
    /// `draining_until` is `Some(d)` with `d != DRAIN_PENDING`.
    draining_by_done: VecDeque<(Nanos, u64)>,
    /// Lazy min-heap of `(ackable_at, lpn, gen)` over dirty entries. May
    /// hold stale tuples (dead generation, changed ack time, drained);
    /// `next_ackable` pops them on sight.
    ack_heap: BinaryHeap<Reverse<(Nanos, u64, u64)>>,
    /// Overwrites coalesced onto a still-dirty slot: each one is a NAND
    /// program the durable cache saved (the paper's endurance argument,
    /// §3.1.1). Overwrites of *draining* slots don't count — their old copy
    /// already reached (or is reaching) flash.
    coalesced: u64,
}

impl WriteCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total occupied slots (dirty + draining).
    pub fn occupied(&self) -> usize {
        self.entries.len()
    }

    /// Slots still occupied at time `t`: entries whose drain has not
    /// completed by then. Used for flow-control capacity checks *without*
    /// discarding entries — a completed-but-unreclaimed entry must survive
    /// in DRAM until the device knows no power cut can predate its program
    /// (see `Ssd::note_arrival`).
    pub fn occupied_at(&self, t: Nanos) -> usize {
        let drained = self.draining_by_done.partition_point(|&(done, _)| done <= t);
        self.entries.len() - drained
    }

    /// Slots waiting for the flusher.
    pub fn dirty(&self) -> usize {
        self.dirty
    }

    /// Occupied bytes (what the capacitors must be able to dump).
    pub fn occupied_bytes(&self) -> u64 {
        self.entries.len() as u64 * 4096
    }

    /// Look up a slot (read hit path). Draining entries still hit. The
    /// caller copies into its own buffer — the cache never clones a page to
    /// serve a read.
    pub fn get(&self, lpn: u64) -> Option<&[u8]> {
        self.entries.get(&lpn).map(|e| &*e.data)
    }

    /// Provenance of a cached slot ([`WriteCause::HostData`] if absent —
    /// the flusher only asks for slots it just popped).
    pub fn cause_of(&self, lpn: u64) -> WriteCause {
        self.entries.get(&lpn).map(|e| e.cause).unwrap_or_default()
    }

    /// Overwrites coalesced onto still-dirty slots so far (NAND programs
    /// the cache absorbed).
    pub fn coalesced_overwrites(&self) -> u64 {
        self.coalesced
    }

    /// Remove the `(done, lpn)` reference from the sorted drain index.
    fn remove_drain_ref(&mut self, done: Nanos, lpn: u64) {
        if done == DRAIN_PENDING {
            return; // sentinel entries are not indexed
        }
        let mut i = self.draining_by_done.partition_point(|&(d, _)| d < done);
        while let Some(&(d, l)) = self.draining_by_done.get(i) {
            debug_assert!(d >= done);
            if d != done {
                break;
            }
            if l == lpn {
                self.draining_by_done.remove(i);
                return;
            }
            i += 1;
        }
        debug_assert!(false, "drain ref ({done}, {lpn}) missing from index");
    }

    /// Insert `(done, lpn)` into the sorted drain index (usually at the
    /// back: completions are handed out in near-ascending order).
    fn insert_drain_ref(&mut self, done: Nanos, lpn: u64) {
        let i = self.draining_by_done.partition_point(|&(d, _)| d <= done);
        if i == self.draining_by_done.len() {
            self.draining_by_done.push_back((done, lpn));
        } else {
            self.draining_by_done.insert(i, (done, lpn));
        }
    }

    /// Drop stale tuples so the heap stays proportional to the live set.
    fn maybe_shrink_ack_heap(&mut self) {
        if self.ack_heap.len() > 2 * self.entries.len() + 1024 {
            let mut heap = std::mem::take(&mut self.ack_heap);
            let drained: Vec<_> = heap.drain().collect();
            for Reverse((a, lpn, gen)) in drained {
                if let Some(e) = self.entries.get(&lpn) {
                    if e.gen == gen && e.draining_until.is_none() && e.ackable_at == a {
                        heap.push(Reverse((a, lpn, gen)));
                    }
                }
            }
            self.ack_heap = heap;
        }
    }

    /// Insert or coalesce a host write whose command acknowledges at
    /// `ackable_at`. Returns the entry this write replaced, if any (the
    /// atomic writer keeps it as a pre-image while the command is in
    /// flight).
    pub fn insert(
        &mut self,
        lpn: u64,
        data: PageBuf,
        ackable_at: Nanos,
        cause: WriteCause,
    ) -> Option<CacheEntry> {
        // Coalescing with a still-dirty copy keeps its FIFO position (same
        // generation); otherwise the entry gets a fresh reference.
        let keep_gen = self.entries.get(&lpn).and_then(|e| {
            if e.draining_until.is_none() {
                Some(e.gen)
            } else {
                None
            }
        });
        let gen = keep_gen.unwrap_or_else(|| {
            self.next_gen += 1;
            self.next_gen
        });
        if keep_gen.is_some() {
            self.coalesced += 1;
        }
        let prev = self
            .entries
            .insert(lpn, CacheEntry { data, draining_until: None, ackable_at, cause, gen });
        if let Some(p) = &prev {
            if let Some(d) = p.draining_until {
                // Replaced a draining entry: its completion no longer
                // matters for occupancy — the slot is re-occupied by the
                // new dirty copy.
                self.remove_drain_ref(d, lpn);
            }
        }
        if keep_gen.is_none() {
            self.fifo.push_back((lpn, gen));
            self.dirty += 1;
        }
        self.ack_heap.push(Reverse((ackable_at, lpn, gen)));
        self.maybe_shrink_ack_heap();
        prev
    }

    /// Undo an in-flight host write at power-cut time: restore the
    /// pre-image (or remove the entry if the page was not cached before).
    ///
    /// Runs in two stages so every combination of (current state,
    /// pre-image state) keeps the dirty counter and the side structures
    /// consistent — the original single-pass version over-counted `dirty`
    /// when the aborted write had replaced a *draining* entry (the fresh
    /// FIFO reference it minted was never retired) and under-counted it
    /// when the entry had been removed between the write and the cut
    /// (TRIM of an un-acked write). Found by the simtest fuzzer
    /// (`--target dura --seed 0`, minimal trace `w:12:4 w:21:2 cw:11:2`;
    /// the TRIM variant by seed 11, trace `w:14:4 tcw:17`).
    pub fn rollback(&mut self, lpn: u64, pre: Option<CacheEntry>) {
        // 1. Retire whatever currently occupies the slot (the state the
        //    rolled-back write left behind, if anything).
        if let Some(cur) = self.entries.remove(&lpn) {
            match cur.draining_until {
                None => self.dirty -= 1, // its FIFO ref goes stale
                Some(d) => self.remove_drain_ref(d, lpn),
            }
        }
        // 2. Restore the pre-image from scratch.
        let Some(mut e) = pre else { return };
        match e.draining_until {
            Some(d) => {
                if d != DRAIN_PENDING {
                    self.insert_drain_ref(d, lpn);
                }
                self.entries.insert(lpn, e);
            }
            None => {
                // A restored dirty entry needs a guaranteed-live FIFO slot
                // and ack tuple. Mint a fresh generation: any references the
                // aborted write (or the pre-image's former life) left in the
                // FIFO or the ack heap turn stale and are skipped lazily.
                self.next_gen += 1;
                e.gen = self.next_gen;
                self.fifo.push_back((lpn, e.gen));
                self.dirty += 1;
                self.ack_heap.push(Reverse((e.ackable_at, lpn, e.gen)));
                self.entries.insert(lpn, e);
            }
        }
    }

    /// Take the oldest dirty entry whose command has acknowledged by `now`,
    /// marking it drain-pending, and return its LPN. The caller reads the
    /// page data in place via [`WriteCache::get`] — nothing is copied — and
    /// records the program completion time with [`WriteCache::set_draining`]
    /// once the program is scheduled.
    pub fn pop_dirty(&mut self, now: Nanos) -> Option<u64> {
        while let Some(&(lpn, gen)) = self.fifo.front() {
            match self.entries.get_mut(&lpn) {
                Some(e) if e.gen == gen && e.draining_until.is_none() => {
                    if e.ackable_at > now {
                        // FIFO order tracks ack order; nothing older exists.
                        return None;
                    }
                    self.fifo.pop_front();
                    self.dirty -= 1;
                    e.draining_until = Some(DRAIN_PENDING);
                    return Some(lpn);
                }
                // Stale reference: removed, replaced or already draining.
                _ => {
                    self.fifo.pop_front();
                }
            }
        }
        None
    }

    /// Earliest time at which a currently-dirty entry becomes drainable, if
    /// any entry is still gated on its command acknowledgement.
    pub fn next_ackable(&mut self) -> Option<Nanos> {
        while let Some(&Reverse((a, lpn, gen))) = self.ack_heap.peek() {
            match self.entries.get(&lpn) {
                Some(e) if e.gen == gen && e.draining_until.is_none() && e.ackable_at == a => {
                    return Some(a);
                }
                _ => {
                    self.ack_heap.pop();
                }
            }
        }
        None
    }

    /// Record the NAND completion time for an entry handed out by
    /// [`WriteCache::pop_dirty`].
    pub fn set_draining(&mut self, lpn: u64, done: Nanos) {
        let Some(e) = self.entries.get_mut(&lpn) else { return };
        let old = e.draining_until.replace(done);
        match old {
            Some(o) if o == done => return, // already indexed at this time
            Some(o) if o != DRAIN_PENDING => self.remove_drain_ref(o, lpn),
            _ => {}
        }
        self.insert_drain_ref(done, lpn);
    }

    /// Reclaim slots whose programs completed by `now`. Their page buffers
    /// return to the pool as the entries drop.
    pub fn reclaim(&mut self, now: Nanos) {
        while let Some(&(done, lpn)) = self.draining_by_done.front() {
            if done > now {
                break;
            }
            self.draining_by_done.pop_front();
            let removed = self.entries.remove(&lpn);
            debug_assert!(
                removed.as_ref().is_some_and(|e| e.draining_until == Some(done)),
                "drain index out of sync for lpn {lpn}"
            );
        }
    }

    /// Earliest completion among draining entries (for flow-control waits).
    pub fn earliest_drain_done(&self) -> Option<Nanos> {
        self.draining_by_done.front().map(|&(done, _)| done)
    }

    /// Latest completion among draining entries (FLUSH CACHE waits for the
    /// entire in-flight set).
    pub fn latest_drain_done(&self) -> Option<Nanos> {
        self.draining_by_done.back().map(|&(done, _)| done)
    }

    /// All occupied entries (dump path).
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &CacheEntry)> {
        self.entries.iter()
    }

    /// Remove an entry outright (TRIM): whatever state it was in, it is
    /// gone and will not be flushed.
    pub fn remove(&mut self, lpn: u64) {
        if let Some(e) = self.entries.remove(&lpn) {
            match e.draining_until {
                None => self.dirty = self.dirty.saturating_sub(1),
                Some(d) => self.remove_drain_ref(d, lpn),
            }
        }
    }

    /// Re-mark every draining entry as dirty (recovery path: the NAND
    /// programs they were waiting on sheared when power was cut, so the
    /// dumped copies must be flushed again). Returns how many were requeued.
    ///
    /// The requeue order is deterministic — drain-completion time first
    /// (mirroring the order the flusher issued the programs), lpn as the
    /// tie-break, schedule-pending entries last — because `entries` is a
    /// hash map whose iteration order varies per process, and recovery must
    /// replay identically for a fixed seed.
    pub fn requeue_draining(&mut self) -> usize {
        let mut order: Vec<(Nanos, u64)> = self
            .entries
            .iter()
            .filter_map(|(lpn, e)| e.draining_until.map(|d| (d, *lpn)))
            .collect();
        order.sort_unstable();
        let n = order.len();
        for (_, lpn) in order {
            let e = self.entries.get_mut(&lpn).expect("collected above");
            e.draining_until = None;
            // The re-program is recovery work, not host traffic: attribute
            // it to the dump replay, whatever originally wrote the page.
            e.cause = WriteCause::EmergencyDump;
            self.next_gen += 1;
            e.gen = self.next_gen;
            self.fifo.push_back((lpn, e.gen));
            self.ack_heap.push(Reverse((e.ackable_at, lpn, e.gen)));
        }
        self.draining_by_done.clear();
        self.dirty += n;
        n
    }

    /// Structural audit of the cache bookkeeping, for the simulation-test
    /// harness. Checked invariants:
    ///
    /// 1. **dirty count**: `dirty` equals both the number of entries with no
    ///    drain scheduled and the number of *live* FIFO references (entry
    ///    present, generation matches, not draining);
    /// 2. **FIFO coverage**: every dirty entry is reachable through exactly
    ///    one live FIFO reference (an unreferenced dirty entry would never
    ///    be flushed — a permanent slot leak);
    /// 3. **drain index**: `draining_by_done` is sorted ascending and is
    ///    exactly the multiset of `(done, lpn)` for entries draining at a
    ///    known completion time (sentinel-marked entries are not indexed).
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1 + 2. Dirty entries vs live FIFO references.
        let mut live_refs: HashMap<u64, usize> = HashMap::new();
        for &(lpn, gen) in &self.fifo {
            if let Some(e) = self.entries.get(&lpn) {
                if e.gen == gen && e.draining_until.is_none() {
                    *live_refs.entry(lpn).or_insert(0) += 1;
                }
            }
        }
        let dirty_entries = self.entries.values().filter(|e| e.draining_until.is_none()).count();
        if dirty_entries != self.dirty {
            return Err(format!(
                "dirty count drift: counter = {}, entries say {dirty_entries}",
                self.dirty
            ));
        }
        let total_refs: usize = live_refs.values().sum();
        if total_refs != self.dirty {
            return Err(format!("dirty count {} != live fifo refs {total_refs}", self.dirty));
        }
        for (lpn, e) in &self.entries {
            if e.draining_until.is_none() {
                match live_refs.get(lpn) {
                    Some(1) => {}
                    Some(n) => return Err(format!("dirty lpn {lpn} has {n} live fifo refs")),
                    None => {
                        return Err(format!(
                            "dirty lpn {lpn} unreachable from the fifo (leaked slot)"
                        ))
                    }
                }
            }
        }
        // 3. Drain index mirrors the draining entries exactly.
        let mut want: Vec<(Nanos, u64)> = self
            .entries
            .iter()
            .filter_map(|(&lpn, e)| match e.draining_until {
                Some(d) if d != DRAIN_PENDING => Some((d, lpn)),
                _ => None,
            })
            .collect();
        want.sort_unstable();
        let mut have: Vec<(Nanos, u64)> = self.draining_by_done.iter().copied().collect();
        if have.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err("draining_by_done not sorted by completion time".into());
        }
        have.sort_unstable();
        if have != want {
            return Err(format!(
                "drain index mismatch: index has {} refs, entries say {}",
                have.len(),
                want.len()
            ));
        }
        Ok(())
    }

    /// Discard everything (volatile cache on power cut). Returns how many
    /// slots were lost. The page buffers return to the pool immediately.
    pub fn discard_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.fifo.clear();
        self.draining_by_done.clear();
        self.ack_heap.clear();
        self.dirty = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::BufPool;

    fn pool() -> BufPool {
        BufPool::new(4096)
    }

    fn data(pool: &BufPool, fill: u8) -> PageBuf {
        let mut b = pool.checkout();
        b.fill(fill);
        b
    }

    #[test]
    fn insert_and_get() {
        let p = pool();
        let mut c = WriteCache::new();
        assert!(c.insert(5, data(&p, 1), 0, WriteCause::HostData).is_none());
        assert_eq!(c.get(5).unwrap()[0], 1);
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.dirty(), 1);
    }

    #[test]
    fn coalescing_keeps_one_copy() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(5, data(&p, 1), 0, WriteCause::HostData);
        let prev = c.insert(5, data(&p, 2), 0, WriteCause::HostData).unwrap();
        assert_eq!(prev.data[0], 1);
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.dirty(), 1);
        assert_eq!(c.get(5).unwrap()[0], 2);
        // Only the latest version is handed to the flusher.
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        assert_eq!(lpn, 5);
        assert_eq!(c.get(lpn).unwrap()[0], 2);
        assert!(c.pop_dirty(u64::MAX).is_none());
    }

    #[test]
    fn fifo_order_preserved() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        c.insert(3, data(&p, 3), 0, WriteCause::HostData);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 1);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 2);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 3);
    }

    #[test]
    fn pop_serves_data_in_place_without_copying() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(7, data(&p, 9), 0, WriteCause::HostData);
        let before = p.checkouts();
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        // The flusher reads the popped entry's bytes where they are: no
        // pool checkout (and no heap allocation) happened.
        assert_eq!(c.get(lpn).unwrap()[0], 9);
        assert_eq!(p.checkouts(), before);
    }

    #[test]
    fn draining_entries_still_serve_reads_then_reclaim() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(7, data(&p, 9), 0, WriteCause::HostData);
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(lpn, 1000);
        assert_eq!(c.get(7).unwrap()[0], 9);
        c.reclaim(999);
        assert!(c.get(7).is_some(), "not reclaimable before completion");
        c.reclaim(1000);
        assert!(c.get(7).is_none());
        // The reclaimed entry's buffer went back to the pool.
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn rewrite_of_draining_entry_requeues() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(lpn, 1000);
        assert_eq!(c.dirty(), 0);
        // Host rewrites the page while the old version is still draining.
        c.insert(7, data(&p, 2), 0, WriteCause::HostData);
        assert_eq!(c.dirty(), 1);
        let l = c.pop_dirty(u64::MAX).unwrap();
        assert_eq!(c.get(l).unwrap()[0], 2);
    }

    #[test]
    fn rollback_restores_preimage() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        let pre = c.insert(7, data(&p, 2), 0, WriteCause::HostData);
        c.rollback(7, pre);
        assert_eq!(c.get(7).unwrap()[0], 1);
        // Rolling back a fresh insert removes it.
        let pre2 = c.insert(9, data(&p, 3), 0, WriteCause::HostData);
        c.rollback(9, pre2);
        assert!(c.get(9).is_none());
        assert_eq!(c.dirty(), 1); // only lpn 7 remains dirty
    }

    #[test]
    fn rollback_of_draining_preimage_keeps_drain_index_consistent() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        let lpn = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(lpn, 1000);
        // Host overwrites the draining entry; the pre-image is the draining
        // copy.
        let pre = c.insert(7, data(&p, 2), 0, WriteCause::HostData);
        assert!(pre.as_ref().unwrap().draining_until.is_some());
        assert_eq!(c.earliest_drain_done(), None, "replaced drain no longer pending");
        c.rollback(7, pre);
        assert_eq!(c.earliest_drain_done(), Some(1000), "restored drain re-indexed");
        c.reclaim(1000);
        assert!(c.get(7).is_none());
    }

    #[test]
    fn discard_all_clears_everything() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        assert_eq!(c.discard_all(), 2);
        assert_eq!(c.occupied(), 0);
        assert!(c.pop_dirty(u64::MAX).is_none());
        assert_eq!(p.outstanding(), 0, "discarded buffers returned to pool");
    }

    #[test]
    fn earliest_and_latest_drain_done() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        let a = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(a, 500);
        let b = c.pop_dirty(u64::MAX).unwrap();
        c.set_draining(b, 300);
        assert_eq!(c.earliest_drain_done(), Some(300));
        assert_eq!(c.latest_drain_done(), Some(500));
    }

    #[test]
    fn occupied_at_counts_by_completion_time() {
        let p = pool();
        let mut c = WriteCache::new();
        for lpn in 0..4 {
            c.insert(lpn, data(&p, lpn as u8), 0, WriteCause::HostData);
        }
        for done in [100u64, 200, 300] {
            let l = c.pop_dirty(u64::MAX).unwrap();
            c.set_draining(l, done);
        }
        assert_eq!(c.occupied(), 4);
        assert_eq!(c.occupied_at(0), 4);
        assert_eq!(c.occupied_at(100), 3);
        assert_eq!(c.occupied_at(250), 2);
        assert_eq!(c.occupied_at(300), 1, "only the dirty entry remains");
    }

    #[test]
    fn unacked_entries_are_not_drainable() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 100, WriteCause::HostData); // acks at t=100
        assert!(c.pop_dirty(50).is_none(), "flusher must not see unacked data");
        assert_eq!(c.next_ackable(), Some(100));
        assert_eq!(c.pop_dirty(100).unwrap(), 1);
    }

    #[test]
    fn ack_gate_blocks_younger_entries_behind_fifo_head() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 100, WriteCause::HostData);
        c.insert(2, data(&p, 2), 50, WriteCause::HostData);
        // FIFO head (lpn 1) not ackable at 60: drain stalls even though
        // lpn 2 acked earlier (ack order == FIFO order in the device).
        assert!(c.pop_dirty(60).is_none());
        assert_eq!(c.pop_dirty(100).unwrap(), 1);
        assert_eq!(c.pop_dirty(100).unwrap(), 2);
    }

    #[test]
    fn next_ackable_tracks_coalesced_ack_times() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 100, WriteCause::HostData);
        // Coalescing moves the ack time later; the stale heap tuple must
        // not surface.
        c.insert(1, data(&p, 2), 400, WriteCause::HostData);
        assert_eq!(c.next_ackable(), Some(400));
        c.insert(2, data(&p, 3), 250, WriteCause::HostData);
        assert_eq!(c.next_ackable(), Some(250));
        // The FIFO head (lpn 1, acks at 400) gates the queue even though
        // lpn 2 acked earlier.
        assert!(c.pop_dirty(250).is_none());
        assert_eq!(c.pop_dirty(400).unwrap(), 1);
        assert_eq!(c.pop_dirty(400).unwrap(), 2);
    }

    #[test]
    fn remove_clears_any_state() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.remove(1);
        assert!(c.get(1).is_none());
        assert_eq!(c.dirty(), 0);
        // Removing a draining entry.
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        let l = c.pop_dirty(10).unwrap();
        c.set_draining(l, 100);
        c.remove(2);
        assert!(c.get(2).is_none());
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.earliest_drain_done(), None);
    }

    #[test]
    fn requeue_draining_restores_dirty_and_clears_index() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(1, data(&p, 1), 0, WriteCause::HostData);
        c.insert(2, data(&p, 2), 0, WriteCause::HostData);
        for _ in 0..2 {
            let l = c.pop_dirty(u64::MAX).unwrap();
            c.set_draining(l, 900);
        }
        assert_eq!(c.requeue_draining(), 2);
        assert_eq!(c.dirty(), 2);
        assert_eq!(c.earliest_drain_done(), None);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 1);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 2);
    }

    #[test]
    fn ack_heap_shrinks_under_churn() {
        let p = pool();
        let mut c = WriteCache::new();
        // Hammer one LPN with coalescing writes: each insert pushes a heap
        // tuple but the live set stays size 1. The lazy shrink keeps the
        // heap bounded.
        for i in 0..100_000u64 {
            c.insert(1, data(&p, (i % 251) as u8), i, WriteCause::HostData);
        }
        assert!(c.ack_heap.len() <= 2 * c.entries.len() + 1024);
        assert_eq!(c.next_ackable(), Some(99_999));
    }

    /// Regression, found by the simtest fuzzer (`--target dura --seed 0`,
    /// minimal trace `w:12:4 w:21:2 cw:11:2`): a write replaces a
    /// *draining* entry (fresh generation, `dirty += 1`), then a power cut
    /// rolls the write back. The old single-pass rollback restored the
    /// draining pre-image without retiring the aborted write's dirty
    /// reference, leaving the dirty counter permanently one too high.
    #[test]
    fn rollback_over_draining_preimage_keeps_dirty_count() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(5, data(&p, 1), 0, WriteCause::HostData);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 5);
        c.set_draining(5, 1_000);
        // New write coalesces onto the draining slot: pre-image is the
        // draining entry, the new copy is dirty.
        let pre = c.insert(5, data(&p, 2), 10, WriteCause::HostData);
        assert!(pre.as_ref().unwrap().draining_until.is_some());
        assert_eq!(c.dirty(), 1);
        // Power cut before the ack: roll the write back.
        c.rollback(5, pre);
        c.check_invariants().unwrap();
        assert_eq!(c.dirty(), 0, "restored pre-image is draining, not dirty");
        assert_eq!(c.occupied(), 1);
        assert_eq!(c.get(5).unwrap()[0], 1, "pre-image content restored");
        assert!(c.pop_dirty(u64::MAX).is_none(), "no live dirty refs remain");
    }

    /// Regression, found by the simtest fuzzer (`--target dura --seed 11`,
    /// minimal trace `w:14:4 tcw:17`): TRIM removes an un-acked write's
    /// entry, then the cut rolls the write back and must re-account the
    /// restored *dirty* pre-image — the old code under-counted `dirty`.
    #[test]
    fn rollback_after_trim_restores_dirty_accounting() {
        let p = pool();
        let mut c = WriteCache::new();
        c.insert(7, data(&p, 1), 0, WriteCause::HostData);
        // Overwrite while still dirty: coalesces, pre-image is dirty.
        let pre = c.insert(7, data(&p, 2), 10, WriteCause::HostData);
        assert!(pre.as_ref().unwrap().draining_until.is_none());
        // TRIM lands between the write and its ack.
        c.remove(7);
        assert_eq!(c.dirty(), 0);
        // Cut before the ack: restore the dirty pre-image.
        c.rollback(7, pre);
        c.check_invariants().unwrap();
        assert_eq!(c.dirty(), 1, "restored pre-image is dirty again");
        assert_eq!(c.get(7).unwrap()[0], 1);
        assert_eq!(c.pop_dirty(u64::MAX).unwrap(), 7, "flusher can still drain it");
    }

    /// Rollback with no pre-image (page was not cached before the write)
    /// retires the aborted entry whether it is dirty or draining.
    #[test]
    fn rollback_without_preimage_clears_the_slot() {
        let p = pool();
        let mut c = WriteCache::new();
        let pre = c.insert(9, data(&p, 3), 5, WriteCause::HostData);
        assert!(pre.is_none());
        c.rollback(9, pre);
        c.check_invariants().unwrap();
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.dirty(), 0);
        assert!(c.get(9).is_none());
    }
}
