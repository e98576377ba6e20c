//! Flash translation layer (§3.1.2).
//!
//! * **4KB mapping over 8KB NAND pages**: the mapping unit is a 4KB *slot*;
//!   each physical page holds `slots_per_page` (2) of them. Under write
//!   load the flusher finds slot pairs to combine into one program — the
//!   paper's answer to the physical/logical granularity disparity.
//! * **Per-plane write frontiers**: each plane fills its own active block, so
//!   consecutive flushes stripe across all planes and channels (the §2.3
//!   parallelism argument).
//! * **Garbage collection**: greedy min-valid victim per plane, triggered
//!   when a plane's free-block pool dips below a threshold.
//! * **Mapping journal**: modified mapping entries are tracked; volatile
//!   devices persist them on FLUSH (and lose un-journalled updates on power
//!   cuts), DuraSSD dumps them under capacitor power (§3.4.1).
//! * **Dump area**: a reserved set of always-clean blocks per plane so the
//!   power-failure dump never waits for an erase.

use crate::config::SsdConfig;
use crate::error::{Error, Result};
use nand::{NandArray, NandError};
use simkit::Nanos;
use storage::device::{CauseCounts, DevError, WriteCause};
use telemetry::{Rec, Scope, Telemetry};

/// Sentinel: logical page not mapped / slot not in use.
const NONE: u64 = u64::MAX;

/// What a block is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// In the plane's free pool.
    Free,
    /// The plane's active write frontier.
    Frontier,
    /// Full of data (GC candidate).
    Sealed,
    /// Mapping-journal block (cycled, never GC'd).
    Meta,
    /// Power-failure dump area (kept erased).
    Dump,
}

/// Outcome of a slot read.
#[derive(Debug, PartialEq, Eq)]
pub enum SlotRead {
    /// Data copied into the buffer; media access completed at the time.
    Ok(Nanos),
    /// Logical page never written: buffer zero-filled, no media access.
    Unmapped,
    /// The backing physical page is unreadable: either shorn by a power cut
    /// mid-program, or the mapping is corrupt (it points at erased flash —
    /// the "metadata corruption" failure mode Zheng et al. observed on
    /// volatile-cache SSDs after mapping rollback).
    Shorn,
}

/// FTL statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Data-page programs issued (pairs count once).
    pub data_programs: u64,
    /// 4KB slots written to media (including GC relocations).
    pub slots_programmed: u64,
    /// Slots relocated by garbage collection.
    pub gc_relocated_slots: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Mapping-journal page programs.
    pub meta_programs: u64,
    /// Cumulative host-visible GC pause time (ns): how long foreground
    /// programs were delayed behind GC relocations and erases.
    pub gc_ns: Nanos,
    /// 4KB media slots programmed per [`WriteCause`]. Conservation: the
    /// array sums to `slots_programmed + meta_programs * spp` (meta pages
    /// carry no data slots but stress the media all the same, so they are
    /// attributed to `MapPersist` at full page width).
    pub slots_by_cause: CauseCounts,
}

/// The flash translation layer.
pub struct Ftl {
    spp: usize,
    map: Vec<u64>,
    rmap: Vec<u64>,
    valid: Vec<u32>,
    role: Vec<Role>,
    plane_free: Vec<Vec<u32>>,
    frontier: Vec<(u32, u32)>, // per plane: (block, next slot index within block)
    meta_block: Vec<u32>,      // per plane
    meta_next: Vec<u32>,       // next page within meta block
    dump_blocks: Vec<u32>,
    plane_cursor: usize,
    planes: usize,
    slots_per_block: u32,
    gc_threshold: usize,
    /// Flat unpersisted-map overlay, replacing a per-entry hash map: for
    /// every lpn whose mapping changed since the last persist,
    /// `up_mark[lpn] == up_epoch` and `up_old[lpn]` holds the value at the
    /// last persist. `up_list` records touched lpns in first-touch order;
    /// a persist advances the epoch instead of clearing the arrays, so the
    /// hot path is two dense-array accesses and zero allocations.
    up_old: Vec<u64>,
    up_mark: Vec<u32>,
    up_epoch: u32,
    up_list: Vec<u64>,
    /// Grow-once scratch page for frontier/meta programs (no `vec!` per
    /// program).
    page_scratch: Vec<u8>,
    /// Grow-once scratch page for slot/GC reads.
    read_scratch: Vec<u8>,
    /// GC relocation staging: survivor lpns and their 4KB slot data, flat.
    /// Reused across collections (grow-only).
    gc_lpns: Vec<u64>,
    gc_data: Vec<u8>,
    stats: FtlStats,
    tel: Option<Telemetry>,
    /// GC pause of the most recent [`Ftl::program_slots_tagged`] call (0
    /// when no GC preempted it): the latency-anatomy `gc_wait` segment for
    /// the command that suffered it. Read together with
    /// `NandArray::last_split` for the same call's wait/service split.
    last_gc_pause: Nanos,
}

impl Ftl {
    /// Build an FTL for the given config over a pristine NAND array.
    pub fn new(cfg: &SsdConfig) -> Self {
        let geo = cfg.geometry;
        let planes = geo.planes();
        let spp = cfg.slots_per_page();
        let total_blocks = geo.blocks();
        let total_slots = geo.total_pages() * spp as u64;
        let mut role = vec![Role::Free; total_blocks];
        let mut plane_free: Vec<Vec<u32>> = vec![Vec::new(); planes];
        // Blocks stripe across planes: block b is on plane b % planes.
        for b in (0..total_blocks as u32).rev() {
            plane_free[b as usize % planes].push(b);
        }
        // Reserve dump blocks and one meta block per plane, then open a
        // frontier per plane.
        let mut dump_blocks = Vec::new();
        let mut meta_block = Vec::with_capacity(planes);
        let mut frontier = Vec::with_capacity(planes);
        for free in plane_free.iter_mut() {
            for _ in 0..cfg.dump_reserve_blocks {
                let b = free.pop().expect("plane too small for dump reserve");
                role[b as usize] = Role::Dump;
                dump_blocks.push(b);
            }
            let m = free.pop().expect("plane too small for meta block");
            role[m as usize] = Role::Meta;
            meta_block.push(m);
            let f = free.pop().expect("plane too small for frontier");
            role[f as usize] = Role::Frontier;
            frontier.push((f, 0));
        }
        Self {
            spp,
            map: vec![NONE; cfg.logical_capacity_pages as usize],
            rmap: vec![NONE; total_slots as usize],
            valid: vec![0; total_blocks],
            role,
            plane_free,
            frontier,
            meta_next: vec![0; planes],
            meta_block,
            dump_blocks,
            plane_cursor: 0,
            planes,
            slots_per_block: (geo.pages_per_block * spp) as u32,
            gc_threshold: cfg.gc_free_threshold,
            up_old: vec![NONE; cfg.logical_capacity_pages as usize],
            up_mark: vec![0; cfg.logical_capacity_pages as usize],
            up_epoch: 1,
            up_list: Vec::new(),
            page_scratch: vec![0u8; geo.page_size],
            read_scratch: vec![0u8; geo.page_size],
            gc_lpns: Vec::new(),
            gc_data: Vec::new(),
            stats: FtlStats::default(),
            tel: None,
            last_gc_pause: 0,
        }
    }

    /// Attach a telemetry handle: GC pauses are histogrammed under
    /// `ftl.gc_pause` and NAND program/erase service times under
    /// `nand.program` / `nand.erase`.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = Some(tel);
    }

    /// FTL statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Cumulative host-visible GC pause time (ns).
    pub fn gc_time(&self) -> Nanos {
        self.stats.gc_ns
    }

    /// GC pause suffered by the most recent `program_slots*` call (0 when
    /// GC did not preempt it).
    pub fn last_gc_pause(&self) -> Nanos {
        self.last_gc_pause
    }

    /// Number of mapping entries modified since the last persist.
    pub fn unpersisted_entries(&self) -> usize {
        self.up_list.len()
    }

    /// The un-journalled mapping delta, for the power-cut postmortem:
    /// `(lpn, old_slot)` pairs, `old_slot == None` when the page was mapped
    /// for the first time since the last persist. Sorted by LPN so reports
    /// are deterministic.
    pub fn unpersisted_delta(&self) -> Vec<(u64, Option<u64>)> {
        let mut v: Vec<(u64, Option<u64>)> = self
            .up_list
            .iter()
            .map(|&lpn| {
                let old = self.up_old[lpn as usize];
                (lpn, (old != NONE).then_some(old))
            })
            .collect();
        v.sort_unstable_by_key(|&(lpn, _)| lpn);
        v
    }

    /// The reserved dump blocks (used by the device's recovery manager).
    pub fn dump_blocks(&self) -> &[u32] {
        &self.dump_blocks
    }

    /// Current mapping of an lpn (testing / recovery).
    pub fn slot_of(&self, lpn: u64) -> Option<u64> {
        match self.map.get(lpn as usize) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    fn note_map_change(&mut self, lpn: u64, old: u64) {
        let i = lpn as usize;
        if self.up_mark[i] != self.up_epoch {
            self.up_mark[i] = self.up_epoch;
            self.up_old[i] = old;
            self.up_list.push(lpn);
        }
    }

    /// Forget the delta by advancing the epoch (the dense arrays are left
    /// in place; a u32 wrap resets the marks so stale epochs cannot alias).
    fn clear_unpersisted(&mut self) {
        self.up_list.clear();
        self.up_epoch = self.up_epoch.wrapping_add(1);
        if self.up_epoch == 0 {
            self.up_mark.fill(0);
            self.up_epoch = 1;
        }
    }

    fn invalidate(&mut self, slot: u64) {
        if slot == NONE {
            return;
        }
        let block = (slot / self.slots_per_block as u64) as usize;
        self.rmap[slot as usize] = NONE;
        self.valid[block] = self.valid[block].saturating_sub(1);
    }

    fn set_mapping(&mut self, lpn: u64, slot: u64) {
        let old = self.map[lpn as usize];
        self.note_map_change(lpn, old);
        self.invalidate(old);
        // Evict a phantom owner. The slot being programmed sits on a freshly
        // erased frontier page, so any surviving reverse-map entry is stale —
        // it can only come from a mapping rollback that restored a pre-cut
        // owner whose block was recycled after the persist point. Leaving the
        // phantom's forward pointer in place breaks the map/rmap bijection on
        // the next audit (simtest fuzzer, `--target volatile --seed 12`).
        let phantom = self.rmap[slot as usize];
        if phantom != NONE {
            if self.map[phantom as usize] == slot {
                self.note_map_change(phantom, slot);
                self.map[phantom as usize] = NONE;
            }
            self.invalidate(slot);
        }
        self.map[lpn as usize] = slot;
        self.rmap[slot as usize] = lpn;
        self.valid[(slot / self.slots_per_block as u64) as usize] += 1;
    }

    /// Advance the plane cursor and return the chosen plane.
    fn next_plane(&mut self) -> usize {
        let p = self.plane_cursor;
        self.plane_cursor = (self.plane_cursor + 1) % self.planes;
        p
    }

    /// Whether the next program on the round-robin plane could start at or
    /// before `now` (backend idle check for opportunistic draining).
    pub fn next_plane_idle(&self, nand: &NandArray, now: Nanos) -> bool {
        nand.plane_busy_until(self.plane_cursor) <= now
    }

    /// Program up to `spp` slots as one physical page on the next
    /// round-robin plane. Returns the NAND completion time.
    ///
    /// Triggers GC first if the target plane is short on free blocks; a
    /// media failure inside GC propagates as [`Error`] instead of aborting
    /// the process.
    pub fn program_slots(
        &mut self,
        nand: &mut NandArray,
        items: &[(u64, &[u8])],
        now: Nanos,
    ) -> Result<Nanos> {
        const HOST: [WriteCause; 16] = [WriteCause::HostData; 16];
        self.program_slots_tagged(nand, items, &HOST[..items.len()], now)
    }

    /// [`Ftl::program_slots`] with a per-slot provenance tag: `causes[i]`
    /// says why slot `items[i]` is being written (a drained pair can mix
    /// causes, so the tag is slot-granular, not page-granular).
    pub fn program_slots_tagged(
        &mut self,
        nand: &mut NandArray,
        items: &[(u64, &[u8])],
        causes: &[WriteCause],
        now: Nanos,
    ) -> Result<Nanos> {
        assert!(!items.is_empty() && items.len() <= self.spp, "bad pair size");
        assert_eq!(items.len(), causes.len(), "one cause per slot");
        let plane = self.next_plane();
        let gc_end = self.maybe_gc(nand, plane, now)?;
        self.last_gc_pause = gc_end.saturating_sub(now);
        if gc_end > now {
            // The foreground program queues behind the GC work on this
            // plane: the whole episode is a host-visible GC pause, recorded
            // both as a histogram sample and as a trace span.
            let pause = gc_end - now;
            self.stats.gc_ns += pause;
            Scope::open(self.tel.as_ref(), "ftl", "ftl.gc", now, Rec::Hist("ftl.gc_pause"))
                .close(gc_end);
        }
        let done = self.program_on_plane(nand, plane, items, now);
        if let Some(tel) = &self.tel {
            tel.record("nand.program", done.saturating_sub(now));
        }
        self.stats.data_programs += 1;
        self.stats.slots_programmed += items.len() as u64;
        for &c in causes {
            self.stats.slots_by_cause[c.index()] += 1;
        }
        Ok(done)
    }

    /// Program `items` on a specific plane's frontier (shared by the host
    /// path and GC relocation).
    fn program_on_plane(
        &mut self,
        nand: &mut NandArray,
        plane: usize,
        items: &[(u64, &[u8])],
        now: Nanos,
    ) -> Nanos {
        let geo = *nand.geometry();
        let (block, page) = self.take_frontier_page(plane);
        let ppn = geo.make_ppn(block, page);
        // Stage the slots in the reusable page scratch (no per-program heap
        // allocation); the tail beyond the last slot must stay zeroed so the
        // programmed NAND bytes are identical to the old `vec![0u8; ..]` path.
        for (i, (lpn, data)) in items.iter().enumerate() {
            assert_eq!(data.len(), 4096, "slots are 4KB");
            self.page_scratch[i * 4096..(i + 1) * 4096].copy_from_slice(data);
            let slot = ppn * self.spp as u64 + i as u64;
            self.set_mapping(*lpn, slot);
        }
        if items.len() * 4096 < geo.page_size {
            self.page_scratch[items.len() * 4096..].fill(0);
        }
        nand.program(ppn, &self.page_scratch, now).expect("frontier program is always in order")
    }

    /// Hand out the frontier page of a plane, opening a new block as needed.
    fn take_frontier_page(&mut self, plane: usize) -> (u32, u32) {
        let (block, next) = self.frontier[plane];
        let pages_per_block = self.slots_per_block / self.spp as u32;
        if next < pages_per_block {
            self.frontier[plane].1 += 1;
            return (block, next);
        }
        // Frontier full: seal it and open a new one.
        self.role[block as usize] = Role::Sealed;
        let fresh =
            self.plane_free[plane].pop().expect("GC keeps at least one free block per plane");
        self.role[fresh as usize] = Role::Frontier;
        self.frontier[plane] = (fresh, 1);
        (fresh, 0)
    }

    /// Run GC on `plane` until its free pool is back above the threshold.
    /// Returns the virtual time at which the GC work completes (`now` when
    /// no GC ran).
    fn maybe_gc(&mut self, nand: &mut NandArray, plane: usize, now: Nanos) -> Result<Nanos> {
        let mut guard = 0;
        let mut t = now;
        while self.plane_free[plane].len() < self.gc_threshold {
            guard += 1;
            assert!(guard < 1024, "GC cannot make progress (device over-filled?)");
            let Some(victim) = self.pick_victim(nand, plane) else {
                // Nothing sealed to collect yet; rely on remaining frontier.
                return Ok(t);
            };
            t = self.collect(nand, plane, victim, t)?;
        }
        Ok(t)
    }

    /// Victim selection: greedy by valid count, wear-aware tie-breaking.
    /// A block's score is its relocation cost (valid slots) plus a wear
    /// penalty, so hot low-valid blocks are preferred but worn blocks are
    /// spared — a simple cost-benefit wear-leveling policy.
    fn pick_victim(&self, nand: &NandArray, plane: usize) -> Option<u32> {
        let mut best: Option<(u32, u64)> = None;
        let mut b = plane as u32;
        while (b as usize) < self.role.len() {
            if self.role[b as usize] == Role::Sealed {
                let valid = self.valid[b as usize] as u64;
                let wear = nand.erase_count(b) as u64;
                let score = valid * 8 + wear;
                if best.is_none_or(|(_, bs)| score < bs) {
                    best = Some((b, score));
                }
            }
            b += self.planes as u32;
        }
        best.map(|(b, _)| b)
    }

    /// Spread of erase counts across all blocks (wear-leveling metric).
    pub fn wear_spread(&self, nand: &NandArray) -> (u32, u32) {
        let mut min = u32::MAX;
        let mut max = 0;
        for b in 0..self.role.len() as u32 {
            let e = nand.erase_count(b);
            min = min.min(e);
            max = max.max(e);
        }
        (min, max)
    }

    /// Relocate a victim block's valid slots and erase it. Returns the
    /// completion time of the final erase, or an [`Error`] if a victim page
    /// read fails for a reason other than shorn/unwritten media.
    fn collect(
        &mut self,
        nand: &mut NandArray,
        plane: usize,
        victim: u32,
        now: Nanos,
    ) -> Result<Nanos> {
        let geo = *nand.geometry();
        let pages_per_block = geo.pages_per_block as u32;
        // Stage survivors flat in the reusable GC scratch (parallel arrays:
        // lpn list + 4KB-per-slot data blob) — no per-slot `to_vec()`.
        let mut gc_lpns = std::mem::take(&mut self.gc_lpns);
        let mut gc_data = std::mem::take(&mut self.gc_data);
        gc_lpns.clear();
        gc_data.clear();
        let mut read_buf = std::mem::take(&mut self.read_scratch);
        let mut t = now;
        const MAX_SPP: usize = 16;
        assert!(self.spp <= MAX_SPP, "spp fits the stack staging arrays");
        for page in 0..pages_per_block {
            let ppn = geo.make_ppn(victim, page);
            let base_slot = ppn * self.spp as u64;
            let mut live = [0usize; MAX_SPP];
            let mut n_live = 0;
            for i in 0..self.spp {
                if self.rmap[(base_slot + i as u64) as usize] != NONE {
                    live[n_live] = i;
                    n_live += 1;
                }
            }
            if n_live == 0 {
                continue;
            }
            match nand.read(ppn, &mut read_buf, t) {
                Ok(done) => t = done,
                Err(NandError::Shorn { .. }) | Err(NandError::Unwritten { .. }) => {
                    // A shorn page can hold no valid mapping in a correctly
                    // recovered device; treat its slots as dead.
                    for &i in &live[..n_live] {
                        let s = base_slot + i as u64;
                        let lpn = self.rmap[s as usize];
                        if lpn != NONE {
                            // Defensive: drop the mapping rather than
                            // propagate garbage. The drop must enter the
                            // unpersisted delta like any other map change,
                            // or a later rollback resurrects the lpn into
                            // the erased victim block.
                            self.note_map_change(lpn, s);
                            self.map[lpn as usize] = NONE;
                            self.invalidate(s);
                        }
                    }
                    continue;
                }
                Err(e) => {
                    // Restore the scratch buffers before bailing so a failed
                    // collection does not leak the staging capacity.
                    self.read_scratch = read_buf;
                    self.gc_lpns = gc_lpns;
                    self.gc_data = gc_data;
                    return Err(Error::Dev(DevError::Media {
                        what: format!("GC read of block {victim} page {page} failed: {e}"),
                    }));
                }
            }
            for &i in &live[..n_live] {
                let lpn = self.rmap[(base_slot + i as u64) as usize];
                gc_lpns.push(lpn);
                gc_data.extend_from_slice(&read_buf[i * 4096..(i + 1) * 4096]);
            }
        }
        // Re-program the survivors in pairs on this plane.
        for (ci, chunk) in gc_lpns.chunks(self.spp).enumerate() {
            let mut items: [(u64, &[u8]); MAX_SPP] = [(0, &[]); MAX_SPP];
            let base = ci * self.spp;
            for (j, &lpn) in chunk.iter().enumerate() {
                let off = (base + j) * 4096;
                items[j] = (lpn, &gc_data[off..off + 4096]);
            }
            t = self.program_on_plane(nand, plane, &items[..chunk.len()], t);
            self.stats.gc_relocated_slots += chunk.len() as u64;
            self.stats.slots_programmed += chunk.len() as u64;
            self.stats.slots_by_cause[WriteCause::GcRelocate.index()] += chunk.len() as u64;
            self.stats.data_programs += 1;
        }
        self.read_scratch = read_buf;
        self.gc_lpns = gc_lpns;
        self.gc_data = gc_data;
        let end = nand.erase(victim, t).expect("victim block exists");
        if let Some(tel) = &self.tel {
            tel.record("nand.erase", end.saturating_sub(t));
        }
        self.stats.gc_erases += 1;
        self.role[victim as usize] = Role::Free;
        // After a mapping rollback the valid count can carry phantom
        // references (mapping corruption on volatile devices); erasing the
        // block resolves them to zero by definition.
        self.valid[victim as usize] = 0;
        self.plane_free[plane].push(victim);
        Ok(end)
    }

    /// Read the slot of `lpn` into `buf` (4KB). A media failure other than
    /// shorn/unwritten flash propagates as [`Error`] instead of aborting
    /// the process.
    pub fn read_slot(
        &mut self,
        nand: &mut NandArray,
        lpn: u64,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<SlotRead> {
        assert_eq!(buf.len(), 4096);
        let slot = self.map[lpn as usize];
        if slot == NONE {
            buf.fill(0);
            return Ok(SlotRead::Unmapped);
        }
        let ppn = slot / self.spp as u64;
        let idx = (slot % self.spp as u64) as usize;
        let mut page = std::mem::take(&mut self.read_scratch);
        let res = nand.read(ppn, &mut page, now);
        let out = match res {
            Ok(done) => {
                buf.copy_from_slice(&page[idx * 4096..(idx + 1) * 4096]);
                Ok(SlotRead::Ok(done))
            }
            // Shorn program, or mapping pointing at erased flash after a
            // rollback: both surface as unreadable data.
            Err(NandError::Shorn { .. }) | Err(NandError::Unwritten { .. }) => Ok(SlotRead::Shorn),
            Err(e) => Err(Error::Dev(DevError::Media {
                what: format!("read of mapped slot for lpn {lpn} failed: {e}"),
            })),
        };
        self.read_scratch = page;
        out
    }

    /// Persist the mapping journal: programs `ceil(delta/entries_per_page)`
    /// metadata pages and clears the delta. Returns the completion time.
    pub fn persist_mapping(&mut self, nand: &mut NandArray, now: Nanos) -> Nanos {
        let geo = *nand.geometry();
        let entries_per_page = geo.page_size / 8; // (lpn, slot) pairs, 8B packed
        let pages = self.up_list.len().div_ceil(entries_per_page).max(1);
        let scope = Scope::open(self.tel.as_ref(), "ftl", "ftl.map_persist", now, Rec::Span);
        let mut t = now;
        for _ in 0..pages {
            t = self.program_meta_page(nand, t);
        }
        scope.close(t);
        self.clear_unpersisted();
        t
    }

    /// One mapping-journal page program, cycling the per-plane meta block.
    fn program_meta_page(&mut self, nand: &mut NandArray, now: Nanos) -> Nanos {
        let geo = *nand.geometry();
        let plane = self.plane_cursor % self.planes;
        let block = self.meta_block[plane];
        if self.meta_next[plane] as usize >= geo.pages_per_block {
            let done = nand.erase(block, now).expect("meta block exists");
            self.meta_next[plane] = 0;
            return self.program_meta_page_at(nand, plane, done);
        }
        self.program_meta_page_at(nand, plane, now)
    }

    fn program_meta_page_at(&mut self, nand: &mut NandArray, plane: usize, now: Nanos) -> Nanos {
        let geo = *nand.geometry();
        let block = self.meta_block[plane];
        let page = self.meta_next[plane];
        self.meta_next[plane] += 1;
        let ppn = geo.make_ppn(block, page);
        self.page_scratch.fill(0);
        self.stats.meta_programs += 1;
        // A meta page occupies the same media as spp data slots; attribute
        // it at full width so per-cause slots sum to total media pages.
        self.stats.slots_by_cause[WriteCause::MapPersist.index()] += self.spp as u64;
        nand.program(ppn, &self.page_scratch, now).expect("meta frontier in order")
    }

    /// TRIM a logical page: drop its mapping so GC never relocates the
    /// stale data. Returns whether the page was mapped.
    pub fn trim(&mut self, lpn: u64) -> bool {
        let old = self.map[lpn as usize];
        if old == NONE {
            return false;
        }
        self.note_map_change(lpn, old);
        self.invalidate(old);
        self.map[lpn as usize] = NONE;
        true
    }

    /// Reconstruct the mapping after a power cut on a volatile-cache
    /// device, modelling the journal-plus-out-of-band boot scan of a
    /// conventional SSD: the RAM mapping table is gone, the journal holds
    /// the last persisted state, and the boot scan walks pages programmed
    /// since then to find newer durable copies. For every lpn changed
    /// since the last persist the surviving mapping is therefore
    ///
    /// 1. its **current** slot, when that program physically completed
    ///    before the cut (the scan finds the newest intact copy);
    /// 2. else its **journalled** pre-persist slot, when that page still
    ///    exists (not sheared, its block not erased) and no newer copy
    ///    claimed the slot;
    /// 3. else unmapped.
    ///
    /// Call only after [`NandArray::power_cut`] has sheared in-flight
    /// programs and resolved in-flight erases, so "intact" reflects the
    /// post-cut media.
    ///
    /// Two-phase on purpose. A slot can appear as one lpn's *pre-persist*
    /// home and another lpn's *current* home in the same delta (host write
    /// moved A off slot S, GC later parked B on the recycled S). A single
    /// interleaved pass is order-dependent: restoring A's `rmap[S] = A`
    /// first and then detaching B (`invalidate(S)`) clobbers the restore
    /// and leaves `map[A] = S` with `rmap[S] = NONE`. Detach everything,
    /// then resolve — newest copies first, journal fallbacks second, so an
    /// out-of-date journal entry never steals a slot whose data now
    /// belongs to a newer lpn. (Both found by the simtest fuzzer:
    /// `--target volatile --seed 15` for the clobber, `--seed 9` for the
    /// journal pointing into a GC-erased block.)
    pub fn rollback_unpersisted(&mut self, nand: &NandArray) {
        let list = std::mem::take(&mut self.up_list);
        // Phase 1: detach every changed lpn's current mapping, remembering
        // it as the newest-copy candidate.
        let mut curs = std::mem::take(&mut self.gc_lpns); // reuse scratch
        curs.clear();
        for &lpn in &list {
            let cur = self.map[lpn as usize];
            curs.push(cur);
            if cur != NONE {
                self.invalidate(cur);
                self.map[lpn as usize] = NONE;
            }
        }
        // Phase 2a: newest durable copies win (the boot scan finds them).
        for (i, &lpn) in list.iter().enumerate() {
            let cur = curs[i];
            if cur != NONE && self.slot_intact(nand, cur) && self.rmap[cur as usize] == NONE {
                self.map[lpn as usize] = cur;
                self.rmap[cur as usize] = lpn;
                self.valid[(cur / self.slots_per_block as u64) as usize] += 1;
            }
        }
        // Phase 2b: fall back to the journalled home when it is still
        // physically readable and unclaimed.
        for &lpn in &list {
            if self.map[lpn as usize] != NONE {
                continue;
            }
            let old_slot = self.up_old[lpn as usize];
            if old_slot != NONE
                && self.slot_intact(nand, old_slot)
                && self.rmap[old_slot as usize] == NONE
            {
                self.map[lpn as usize] = old_slot;
                self.rmap[old_slot as usize] = lpn;
                self.valid[(old_slot / self.slots_per_block as u64) as usize] += 1;
            }
        }
        self.gc_lpns = curs;
        self.up_list = list;
        self.clear_unpersisted();
    }

    /// Whether the physical page holding `slot` still carries fully
    /// programmed data.
    fn slot_intact(&self, nand: &NandArray, slot: u64) -> bool {
        nand.page_intact(slot / self.spp as u64)
    }

    /// Reconcile the FTL's bookkeeping with the post-power-cut NAND state
    /// at reboot. Two kinds of damage need repair (both found by the
    /// simtest fuzzer, `--target dura --seed 0` and the torn-erase
    /// regression in `device.rs`):
    ///
    /// * **Torn erases** — a cut mid-erase leaves the block refusing
    ///   programs until erased again, but the FTL has already recycled it
    ///   (a GC victim re-enters the free pool, may even have reopened as a
    ///   write frontier with sheared programs on it). Every page resident
    ///   on a torn block was programmed after the erase was issued, so it
    ///   is shorn: drop its mappings (same policy as the shorn-read branch
    ///   of GC relocation), re-erase, and reset any frontier/meta cursor.
    ///
    /// * **Restored erases** — a cut *before* the erase pulse started
    ///   restores the block's old contents, so a block the FTL recycled as
    ///   free/frontier/meta suddenly has data on it again. If recovery
    ///   re-adopted mappings into it (journal fallback), seal it and let
    ///   GC reclaim it later; if it only holds garbage, erase it. Open
    ///   frontier/meta cursors resync to the NAND write position.
    ///
    /// Returns the completion time of the last repair erase and the number
    /// of blocks repaired.
    pub fn repair_media_after_cut(&mut self, nand: &mut NandArray, now: Nanos) -> (Nanos, u64) {
        let mut done = now;
        let mut repaired = 0u64;
        for b in 0..self.role.len() as u32 {
            let bi = b as usize;
            if nand.has_torn_erase(b) {
                // Drop every mapping into the block: its resident pages
                // are all shorn (programmed after the torn erase was
                // issued).
                let base = b as u64 * self.slots_per_block as u64;
                for s in base..base + self.slots_per_block as u64 {
                    let lpn = self.rmap[s as usize];
                    if lpn == NONE {
                        continue;
                    }
                    if self.map[lpn as usize] == s {
                        self.note_map_change(lpn, s);
                        self.map[lpn as usize] = NONE;
                    }
                    self.rmap[s as usize] = NONE;
                }
                self.valid[bi] = 0;
                let d = nand.erase(b, now).expect("re-erase of a torn block is always in range");
                done = done.max(d);
                repaired += 1;
                for f in self.frontier.iter_mut() {
                    if f.0 == b {
                        f.1 = 0;
                    }
                }
                for (plane, &m) in self.meta_block.iter().enumerate() {
                    if m == b {
                        self.meta_next[plane] = 0;
                    }
                }
                continue;
            }
            let nand_next = nand.next_free_page(b);
            match self.role[bi] {
                Role::Free if nand_next != 0 => {
                    // A restored erase re-filled a recycled block.
                    if self.valid[bi] == 0 {
                        // Garbage only: erase it back to a truly free state.
                        let d = nand.erase(b, now).expect("free block in range");
                        done = done.max(d);
                    } else {
                        // Recovery re-adopted data here: pull it out of the
                        // free pool and let GC reclaim it normally.
                        let plane = bi % self.planes;
                        self.plane_free[plane].retain(|&x| x != b);
                        self.role[bi] = Role::Sealed;
                    }
                    repaired += 1;
                }
                Role::Frontier => {
                    for f in self.frontier.iter_mut() {
                        if f.0 == b && f.1 != nand_next {
                            // Resync the cursor; a full block seals itself
                            // on the next program.
                            f.1 = nand_next;
                            repaired += 1;
                        }
                    }
                }
                Role::Meta => {
                    for (plane, &m) in self.meta_block.iter().enumerate() {
                        if m == b && self.meta_next[plane] != nand_next {
                            self.meta_next[plane] = nand_next;
                            repaired += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        (done, repaired)
    }

    /// Total free blocks (all planes) — test instrumentation.
    pub fn free_blocks(&self) -> usize {
        self.plane_free.iter().map(Vec::len).sum()
    }

    /// GC pressure: how many free blocks each plane is short of its GC
    /// trigger threshold, summed across planes (0 = no pressure; every
    /// positive unit means the next program on that plane stalls behind a
    /// collection).
    pub fn gc_debt(&self) -> usize {
        self.plane_free.iter().map(|f| self.gc_threshold.saturating_sub(f.len())).sum()
    }

    /// `(live, total)` data-slot counts on media — the numerator and
    /// denominator of the device's valid ratio (GC efficiency gauge).
    /// O(blocks); callers refresh it on a stride, not per command.
    pub fn live_slots(&self) -> (u64, u64) {
        let live: u64 = self.valid.iter().map(|&v| v as u64).sum();
        (live, self.rmap.len() as u64)
    }

    /// Structural audit of the FTL's internal bookkeeping, for the
    /// simulation-test harness (cheap enough to run after every step on
    /// test geometries; debug builds of the device call it from
    /// [`crate::Ssd::check_invariants`]).
    ///
    /// Checked invariants:
    ///
    /// 1. **map → rmap**: every mapped lpn's slot points back at it;
    /// 2. **rmap → map**: every slot owner's forward mapping agrees;
    /// 3. **valid counts**: `valid[b]` equals the number of rmap entries in
    ///    block `b`, for every block;
    /// 4. **role partition**: the free pools hold exactly the `Free` blocks
    ///    of their plane (no duplicates), each plane's frontier/meta block
    ///    has the matching role, dump blocks keep the `Dump` role;
    /// 5. **meta/dump hygiene**: journal and dump blocks never hold data
    ///    slots (`valid == 0`, no rmap entries);
    /// 6. **frontier position**: the per-plane frontier cursor agrees with
    ///    the NAND array's next programmable page of that block;
    /// 7. **unpersisted overlay**: `up_list` has no duplicates, every listed
    ///    lpn is marked with the current epoch and lies inside the map;
    /// 8. **provenance conservation**: every NAND program is attributed to
    ///    exactly one [`WriteCause`] — `nand.programs` equals
    ///    `data_programs + meta_programs`, and the per-cause slot counters
    ///    sum to `slots_programmed + meta_programs * spp` with the GC and
    ///    mapping-journal causes matching their dedicated counters exactly.
    ///    (Program counters are never rolled back by a power cut — shorn
    ///    programs stressed the cells — so the identities hold across cuts.)
    pub fn check_invariants(&self, nand: &NandArray) -> std::result::Result<(), String> {
        // 8. Provenance conservation.
        let nand_programs = nand.stats().programs;
        let s = &self.stats;
        if nand_programs != s.data_programs + s.meta_programs {
            return Err(format!(
                "program attribution leak: NAND reports {nand_programs} programs, \
                 FTL accounts {} data + {} meta",
                s.data_programs, s.meta_programs
            ));
        }
        let by_cause: u64 = s.slots_by_cause.iter().sum();
        let expect = s.slots_programmed + s.meta_programs * self.spp as u64;
        if by_cause != expect {
            return Err(format!(
                "per-cause slot conservation broken: causes sum to {by_cause}, \
                 expected {expect} ({} data slots + {} meta pages x {} spp)",
                s.slots_programmed, s.meta_programs, self.spp
            ));
        }
        let gc = s.slots_by_cause[WriteCause::GcRelocate.index()];
        if gc != s.gc_relocated_slots {
            return Err(format!(
                "GC attribution drift: {gc} slots tagged GcRelocate, {} relocated",
                s.gc_relocated_slots
            ));
        }
        let mp = s.slots_by_cause[WriteCause::MapPersist.index()];
        if mp != s.meta_programs * self.spp as u64 {
            return Err(format!(
                "map-persist attribution drift: {mp} slots tagged MapPersist, \
                 {} meta programs x {} spp",
                s.meta_programs, self.spp
            ));
        }
        // 1. map → rmap.
        for (lpn, &slot) in self.map.iter().enumerate() {
            if slot == NONE {
                continue;
            }
            if slot as usize >= self.rmap.len() {
                return Err(format!("map[{lpn}] = {slot} beyond physical slots"));
            }
            let owner = self.rmap[slot as usize];
            if owner != lpn as u64 {
                return Err(format!(
                    "map/rmap bijection broken: map[{lpn}] = {slot} but rmap[{slot}] = {owner}"
                ));
            }
        }
        // 2. rmap → map, and 3. per-block valid counts.
        let mut counted = vec![0u32; self.valid.len()];
        for (slot, &lpn) in self.rmap.iter().enumerate() {
            if lpn == NONE {
                continue;
            }
            counted[slot / self.slots_per_block as usize] += 1;
            let fwd = self.map.get(lpn as usize).copied().unwrap_or(NONE);
            if fwd != slot as u64 {
                return Err(format!(
                    "rmap/map bijection broken: rmap[{slot}] = {lpn} but map[{lpn}] = {fwd}"
                ));
            }
        }
        for (b, (&have, &want)) in self.valid.iter().zip(counted.iter()).enumerate() {
            if have != want {
                return Err(format!(
                    "valid count drift on block {b}: valid[] = {have}, rmap says {want}"
                ));
            }
        }
        // 4. Role partition vs the free pools / frontier / meta / dump sets.
        let mut seen_free = vec![false; self.role.len()];
        for (plane, free) in self.plane_free.iter().enumerate() {
            for &b in free {
                let bi = b as usize;
                if bi % self.planes != plane {
                    return Err(format!("block {b} in free pool of wrong plane {plane}"));
                }
                if seen_free[bi] {
                    return Err(format!("block {b} appears twice in the free pools"));
                }
                seen_free[bi] = true;
                if self.role[bi] != Role::Free {
                    return Err(format!("free-pool block {b} has role {:?}", self.role[bi]));
                }
            }
        }
        for (bi, &role) in self.role.iter().enumerate() {
            if role == Role::Free && !seen_free[bi] {
                return Err(format!("block {bi} is Free but missing from its plane's pool"));
            }
        }
        for (plane, &(b, next)) in self.frontier.iter().enumerate() {
            if self.role[b as usize] != Role::Frontier {
                return Err(format!(
                    "frontier block {b} of plane {plane} has role {:?}",
                    self.role[b as usize]
                ));
            }
            // 6. The frontier cursor is in page units on the NAND side.
            let nand_next = nand.next_free_page(b);
            if nand_next != next {
                return Err(format!(
                    "frontier drift on plane {plane}: cursor at page {next}, NAND at {nand_next}"
                ));
            }
        }
        for (plane, &m) in self.meta_block.iter().enumerate() {
            if self.role[m as usize] != Role::Meta {
                return Err(format!(
                    "meta block {m} of plane {plane} has role {:?}",
                    self.role[m as usize]
                ));
            }
        }
        for &d in &self.dump_blocks {
            if self.role[d as usize] != Role::Dump {
                return Err(format!("dump block {d} has role {:?}", self.role[d as usize]));
            }
        }
        // 5. Meta/dump blocks never hold data slots.
        for (bi, &role) in self.role.iter().enumerate() {
            if matches!(role, Role::Meta | Role::Dump) && self.valid[bi] != 0 {
                return Err(format!("{role:?} block {bi} holds {} data slots", self.valid[bi]));
            }
        }
        // 7. Unpersisted overlay consistency.
        let mut listed = std::collections::HashSet::with_capacity(self.up_list.len());
        for &lpn in &self.up_list {
            if lpn as usize >= self.map.len() {
                return Err(format!("unpersisted lpn {lpn} outside the logical space"));
            }
            if !listed.insert(lpn) {
                return Err(format!("unpersisted lpn {lpn} listed twice"));
            }
            if self.up_mark[lpn as usize] != self.up_epoch {
                return Err(format!("unpersisted lpn {lpn} carries a stale epoch mark"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Ftl, NandArray) {
        let cfg = SsdConfig::tiny_test();
        let nand = NandArray::new(cfg.geometry);
        (Ftl::new(&cfg), nand)
    }

    fn slot_data(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(7);
        let done = ftl.program_slots(&mut nand, &[(3, &d)], 0).unwrap();
        let mut buf = vec![0u8; 4096];
        assert!(matches!(ftl.read_slot(&mut nand, 3, &mut buf, done).unwrap(), SlotRead::Ok(_)));
        assert_eq!(buf, d);
    }

    #[test]
    fn unmapped_reads_zero() {
        let (mut ftl, mut nand) = setup();
        let mut buf = vec![1u8; 4096];
        assert_eq!(ftl.read_slot(&mut nand, 9, &mut buf, 0).unwrap(), SlotRead::Unmapped);
        assert_eq!(buf, vec![0u8; 4096]);
    }

    #[test]
    fn pair_program_shares_one_physical_page() {
        let (mut ftl, mut nand) = setup();
        let a = slot_data(1);
        let b = slot_data(2);
        ftl.program_slots(&mut nand, &[(10, &a), (11, &b)], 0).unwrap();
        assert_eq!(ftl.stats().data_programs, 1);
        assert_eq!(ftl.stats().slots_programmed, 2);
        let (sa, sb) = (ftl.slot_of(10).unwrap(), ftl.slot_of(11).unwrap());
        assert_eq!(sa / 2, sb / 2, "both slots on the same NAND page");
        let mut buf = vec![0u8; 4096];
        ftl.read_slot(&mut nand, 11, &mut buf, 10_000_000).unwrap();
        assert_eq!(buf, b);
    }

    #[test]
    fn overwrite_invalidates_old_slot() {
        let (mut ftl, mut nand) = setup();
        let a = slot_data(1);
        let b = slot_data(2);
        ftl.program_slots(&mut nand, &[(5, &a)], 0).unwrap();
        let s1 = ftl.slot_of(5).unwrap();
        ftl.program_slots(&mut nand, &[(5, &b)], 1_000_000).unwrap();
        let s2 = ftl.slot_of(5).unwrap();
        assert_ne!(s1, s2, "flash never overwrites in place");
        let mut buf = vec![0u8; 4096];
        ftl.read_slot(&mut nand, 5, &mut buf, 10_000_000).unwrap();
        assert_eq!(buf, b);
    }

    #[test]
    fn programs_stripe_across_planes() {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(1);
        // Four programs on a 4-plane device land on four different planes:
        // all four complete in roughly one program time.
        let mut last = 0;
        for i in 0..4 {
            last = ftl.program_slots(&mut nand, &[(i, &d)], 0).unwrap();
        }
        let geo = *nand.geometry();
        assert!(last < 2 * geo.t_program, "four programs should overlap: {last}");
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_churn() {
        let (mut ftl, mut nand) = setup();
        // Tiny device: hammer a small working set far beyond raw capacity.
        let mut t = 0;
        for round in 0..40u64 {
            for lpn in 0..32u64 {
                let d = slot_data((round % 251) as u8);
                t = ftl.program_slots(&mut nand, &[(lpn, &d), (lpn + 32, &d)], t).unwrap();
            }
        }
        assert!(ftl.stats().gc_erases > 0, "churn must trigger GC");
        // All data still readable with the latest value.
        let mut buf = vec![0u8; 4096];
        for lpn in 0..32u64 {
            assert!(matches!(ftl.read_slot(&mut nand, lpn, &mut buf, t).unwrap(), SlotRead::Ok(_)));
            assert_eq!(buf[0], 39);
        }
        assert!(ftl.free_blocks() > 0);
    }

    #[test]
    fn mapping_persist_clears_delta_and_writes_meta() {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(1);
        ftl.program_slots(&mut nand, &[(1, &d)], 0).unwrap();
        ftl.program_slots(&mut nand, &[(2, &d)], 0).unwrap();
        assert_eq!(ftl.unpersisted_entries(), 2);
        ftl.persist_mapping(&mut nand, 10_000_000);
        assert_eq!(ftl.unpersisted_entries(), 0);
        assert!(ftl.stats().meta_programs >= 1);
    }

    #[test]
    fn rollback_restores_pre_persist_mapping_when_new_copy_sheared() {
        let (mut ftl, mut nand) = setup();
        let a = slot_data(1);
        let b = slot_data(2);
        ftl.program_slots(&mut nand, &[(5, &a)], 0).unwrap();
        let t = ftl.persist_mapping(&mut nand, 5_000_000);
        let s_old = ftl.slot_of(5).unwrap();
        // Unpersisted overwrite whose program shears at the cut...
        let done = ftl.program_slots(&mut nand, &[(5, &b)], t).unwrap();
        assert_ne!(ftl.slot_of(5).unwrap(), s_old);
        nand.power_cut(done - 1);
        // ...so recovery falls back to the journalled home: reads see the
        // old value again.
        ftl.rollback_unpersisted(&nand);
        assert_eq!(ftl.slot_of(5).unwrap(), s_old);
        let mut buf = vec![0u8; 4096];
        ftl.read_slot(&mut nand, 5, &mut buf, 20_000_000).unwrap();
        assert_eq!(buf, a);
    }

    #[test]
    fn rollback_keeps_durable_unjournalled_copies() {
        // The boot scan finds copies that completed before the cut even if
        // the journal never recorded them: an acked-but-unjournalled write
        // survives (it may legitimately survive on real hardware too — the
        // oracle treats such lpns as fuzzy after a cut).
        let (mut ftl, mut nand) = setup();
        let b = slot_data(2);
        let done = ftl.program_slots(&mut nand, &[(5, &b)], 0).unwrap();
        let s_new = ftl.slot_of(5).unwrap();
        nand.power_cut(done); // exactly at completion: the program is stable
        ftl.rollback_unpersisted(&nand);
        assert_eq!(ftl.slot_of(5), Some(s_new));
        let mut buf = vec![0u8; 4096];
        ftl.read_slot(&mut nand, 5, &mut buf, 20_000_000).unwrap();
        assert_eq!(buf, b);
        ftl.check_invariants(&nand).unwrap();
    }

    #[test]
    fn rollback_of_sheared_fresh_write_unmaps() {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(3);
        let done = ftl.program_slots(&mut nand, &[(7, &d)], 0).unwrap();
        nand.power_cut(done - 1);
        ftl.rollback_unpersisted(&nand);
        assert_eq!(ftl.slot_of(7), None);
        let mut buf = vec![1u8; 4096];
        assert_eq!(ftl.read_slot(&mut nand, 7, &mut buf, 10_000_000).unwrap(), SlotRead::Unmapped);
    }

    #[test]
    fn dump_blocks_are_reserved_per_plane() {
        let cfg = SsdConfig::tiny_test();
        let ftl = Ftl::new(&cfg);
        assert_eq!(ftl.dump_blocks().len(), cfg.geometry.planes() * cfg.dump_reserve_blocks);
    }

    /// Build the state both rollback regressions need: persist a mapping
    /// for lpns 0..64, trim them all (un-journalled — their home blocks go
    /// `valid == 0` and are prime GC victims), then churn a disjoint lpn
    /// range until GC has erased and recycled those blocks so fresh writes
    /// land on the trimmed lpns' pre-persist slots. First-touch order in
    /// the unpersisted delta now puts each trimmed lpn *before* the new
    /// occupant of its old slot — exactly the order the single-pass
    /// rollback clobbered. Returns the virtual time reached.
    fn churn_past_gc_then(f: impl FnOnce(&mut Ftl, &mut NandArray, Nanos)) {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(7);
        let mut t = 0;
        for lpn in 0..64u64 {
            t = ftl.program_slots(&mut nand, &[(lpn, &d)], t).unwrap();
        }
        t = ftl.persist_mapping(&mut nand, t);
        for lpn in 0..64u64 {
            assert!(ftl.trim(lpn));
        }
        let before = ftl.stats().gc_erases;
        let mut guard = 0;
        while ftl.stats().gc_erases < before + 8 {
            for lpn in 200..264u64 {
                t = ftl.program_slots(&mut nand, &[(lpn, &d)], t).unwrap();
            }
            guard += 1;
            assert!(guard < 1024, "GC never triggered");
        }
        f(&mut ftl, &mut nand, t);
    }

    /// Regression (simtest fuzzer, `--target volatile --seed 15`): a slot
    /// can be one lpn's pre-persist home and another lpn's current home in
    /// the same unpersisted delta. The old single-pass rollback was
    /// order-dependent and left `map[a] = s` with `rmap[s] = NONE`; the
    /// trimmed lpns' journalled homes are also physically gone (their
    /// blocks were GC-erased), so resurrection must not happen either.
    #[test]
    fn rollback_after_gc_recycling_keeps_bijection() {
        churn_past_gc_then(|ftl, nand, _t| {
            ftl.rollback_unpersisted(nand);
            ftl.check_invariants(nand).expect("map/rmap bijection after rollback");
            // The churned lpns' newest copies are durable (no cut): kept.
            for lpn in 200..264u64 {
                assert!(ftl.slot_of(lpn).is_some(), "durable copy of lpn {lpn} kept");
            }
        });
    }

    /// Regression (simtest fuzzer, `--target volatile --seed 12`): a
    /// mapping rollback can restore an owner into a block that GC recycled
    /// after the persist point — including the currently *open* write
    /// frontier. The next program on such a slot must evict the phantom
    /// owner; leaving its forward pointer in place broke the map/rmap
    /// bijection. The test plants exactly the reverse-map state rollback
    /// phase 2 produces, on the slot the next plane-0 program will take.
    #[test]
    fn program_over_rolled_back_phantom_owner_evicts_it() {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(9);
        let mut t = ftl.program_slots(&mut nand, &[(5, &d)], 0).unwrap();
        // The slot the next plane-0 frontier program will occupy.
        let (b, n) = ftl.frontier[0];
        let planted = nand.geometry().make_ppn(b, n) * ftl.spp as u64;
        // What rollback does when lpn 6's pre-persist home is that slot:
        ftl.map[6] = planted;
        ftl.rmap[planted as usize] = 6;
        ftl.valid[b as usize] += 1;
        // Round-robin the other planes, then land on the planted slot.
        for lpn in [7u64, 8, 9, 10] {
            t = ftl.program_slots(&mut nand, &[(lpn, &d)], t).unwrap();
        }
        assert_eq!(ftl.slot_of(10), Some(planted), "test drives the planted slot");
        assert_eq!(ftl.slot_of(6), None, "phantom owner must be evicted");
        ftl.check_invariants(&nand).expect("bijection after programming over a phantom");
    }

    /// Regression for the GC shorn-read branch: dropping a mapping during
    /// relocation must enter the unpersisted delta, or a later rollback
    /// resurrects the lpn into the erased victim block and breaks the
    /// bijection audit.
    #[test]
    fn gc_shorn_drop_is_recorded_in_unpersisted_delta() {
        let (mut ftl, mut nand) = setup();
        let d = slot_data(5);
        // Shear lpn 500's program mid-flight: its slot stays mapped but the
        // page refuses reads (this models a capacitor-backed device whose
        // pre-cut drain program tore).
        let done = ftl.program_slots(&mut nand, &[(500, &d)], 0).unwrap();
        nand.power_cut(done - 1);
        // The mapping to the shorn page is part of the journalled state.
        let mut t = ftl.persist_mapping(&mut nand, done);
        let shorn_slot = ftl.slot_of(500).unwrap();
        // Churn other lpns until GC collects the shorn page's block.
        let mut guard = 0;
        while ftl.slot_of(500) == Some(shorn_slot) {
            for lpn in 0..64u64 {
                t = ftl.program_slots(&mut nand, &[(lpn, &d)], t).unwrap();
            }
            guard += 1;
            assert!(guard < 256, "GC never collected the shorn block");
        }
        // The defensive drop must be in the delta like any map change...
        assert_eq!(ftl.slot_of(500), None, "shorn slot is dropped, not relocated");
        assert!(
            ftl.unpersisted_delta().iter().any(|&(lpn, old)| lpn == 500 && old == Some(shorn_slot)),
            "GC's defensive drop of lpn 500 must enter the unpersisted delta"
        );
        // ...so the post-rollback state passes the structural audit.
        ftl.rollback_unpersisted(&nand);
        ftl.check_invariants(&nand).expect("bijection after rollback over a GC shorn-drop");
    }
}
