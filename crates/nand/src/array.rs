//! The NAND array: state, timing and failure model.

use crate::geometry::{Geometry, Ppn};
use simkit::{BufPool, DetHashMap, Nanos, PageBuf, Timeline};
use telemetry::{Rec, Scope, Telemetry};

/// Errors raised by raw NAND operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// Program targeted a page other than the block's next free page
    /// (NAND requires strictly sequential in-block programming).
    OutOfOrderProgram { block: u32, expected: u32, got: u32 },
    /// Program targeted a page in a block that is full.
    BlockFull { block: u32 },
    /// Read of a page that was never programmed (or was erased).
    Unwritten { ppn: Ppn },
    /// Read of a page damaged by a power cut mid-program.
    Shorn { ppn: Ppn },
    /// Block or page index beyond the geometry.
    OutOfRange,
    /// Buffer size does not match the physical page size.
    BadLength { expected: usize, got: usize },
}

impl std::fmt::Display for NandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NandError::OutOfOrderProgram { block, expected, got } => write!(
                f,
                "out-of-order program in block {block}: expected page {expected}, got {got}"
            ),
            NandError::BlockFull { block } => write!(f, "block {block} is full"),
            NandError::Unwritten { ppn } => write!(f, "read of unwritten page {ppn}"),
            NandError::Shorn { ppn } => write!(f, "read of shorn page {ppn}"),
            NandError::OutOfRange => write!(f, "address out of range"),
            NandError::BadLength { expected, got } => {
                write!(f, "buffer length {got}, physical page is {expected}")
            }
        }
    }
}

impl std::error::Error for NandError {}

/// Cumulative NAND statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NandStats {
    /// Page reads performed.
    pub reads: u64,
    /// Page programs performed.
    pub programs: u64,
    /// Block erases performed.
    pub erases: u64,
    /// Pages destroyed by power cuts mid-program.
    pub shorn_pages: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    next_page: u32,
    erase_count: u32,
    /// Cumulative page programs issued to this block (wear metric; shorn
    /// programs still stressed the cells, so power cuts never roll it back).
    program_count: u32,
    /// An erase was in flight when power was cut; the block must be erased
    /// again before use.
    torn_erase: bool,
}

/// One programmed page. `data` is a leased slab buffer: erasing the block
/// (or dropping the array) returns it to the pool instead of freeing it, so
/// steady-state program/erase churn recycles a bounded set of page-sized
/// allocations.
#[derive(Debug, Clone)]
struct PageState {
    data: PageBuf,
    shorn: bool,
}

/// An erase whose completion lies in the future. The block's old contents
/// stay parked here until the erase completes (they drop back to the buffer
/// pool lazily) so that a power cut arriving *before the erase physically
/// starts* can restore the block unchanged — the cells were never touched.
/// A cut mid-erase drops the contents and marks the block torn.
struct EraseInFlight {
    block: u32,
    /// When the plane actually starts the erase pulse (`done - t_erase`);
    /// the issue time can be earlier if the command queued behind other
    /// plane work.
    start: Nanos,
    done: Nanos,
    saved_next: u32,
    saved_pages: Vec<(Ppn, PageState)>,
}

/// The flash array.
///
/// All operations take "now" and return the virtual completion time.
/// Contention is modelled with one [`Timeline`] per channel bus and one per
/// plane (cell operations occupy exactly one plane).
pub struct NandArray {
    geo: Geometry,
    blocks: Vec<BlockState>,
    pages: DetHashMap<Ppn, PageState>,
    channel_bus: Vec<Timeline>,
    planes: Vec<Timeline>,
    /// Highest arrival watermark passed to [`NandArray::purge_before`]. A
    /// plane drops its intervals ending at or before it when next acquired
    /// ([`NandArray::plane`]) instead of at every purge: a host command
    /// touches one or two of the planes, and arrivals never precede the
    /// watermark, so a stale interval can never move where work is placed.
    plane_watermark: Nanos,
    stats: NandStats,
    /// Programs/erases whose completion may still be in the future; purged
    /// lazily. Used to shear pages on power cuts.
    inflight_programs: Vec<(Ppn, Nanos)>,
    inflight_erases: Vec<EraseInFlight>,
    /// Recycled `saved_pages` vectors from retired [`EraseInFlight`]
    /// records, so steady-state erases park their contents without touching
    /// the allocator (high-water-mark discipline, like every other pool).
    erase_scratch: Vec<Vec<(Ppn, PageState)>>,
    /// Slab of physical-page buffers backing [`PageState::data`].
    page_pool: BufPool,
    /// Optional telemetry sink: media-level trace events are emitted here,
    /// at the source, under whatever trace-ID the host operation above us
    /// pushed — the bottom of the causal chain.
    tel: Option<Telemetry>,
    /// Queueing wait of the most recent read/program (completion minus
    /// issue minus pure service): the raw material for the latency-anatomy
    /// channel-wait attribution. Stamped by [`NandArray::read`] and
    /// [`NandArray::program`].
    last_wait: Nanos,
    /// Pure service time (cell op + bus transfer) of the most recent
    /// read/program.
    last_service: Nanos,
}

impl NandArray {
    /// A pristine (all-erased) array with the given geometry.
    pub fn new(geo: Geometry) -> Self {
        Self {
            blocks: vec![BlockState::default(); geo.blocks()],
            pages: DetHashMap::default(),
            channel_bus: vec![Timeline::new(); geo.channels],
            planes: vec![Timeline::new(); geo.planes()],
            plane_watermark: 0,
            geo,
            stats: NandStats::default(),
            inflight_programs: Vec::new(),
            inflight_erases: Vec::new(),
            erase_scratch: Vec::new(),
            page_pool: BufPool::new(geo.page_size),
            tel: None,
            last_wait: 0,
            last_service: 0,
        }
    }

    /// `(queue wait, service)` split of the most recent read or program:
    /// `wait + service == done - now` for that command, exactly. The wait
    /// is time spent queued behind other plane/bus work (including GC);
    /// the service is the command's own cell + bus time.
    pub fn last_split(&self) -> (Nanos, Nanos) {
        (self.last_wait, self.last_service)
    }

    /// Number of channel buses (gauge fan-out bound).
    pub fn channel_count(&self) -> usize {
        self.channel_bus.len()
    }

    /// Pending-work backlog of one channel bus at virtual time `t`, in
    /// nanoseconds (see [`Timeline::backlog_at`]).
    pub fn channel_backlog_at(&self, channel: usize, t: Nanos) -> Nanos {
        self.channel_bus[channel].backlog_at(t)
    }

    /// Disjoint busy intervals still open on one channel bus at `t` — the
    /// NCQ-style occupancy gauge (lower bound; back-to-back commands
    /// coalesce).
    pub fn channel_occupancy_at(&self, channel: usize, t: Nanos) -> usize {
        self.channel_bus[channel].intervals_after(t)
    }

    /// Attach a telemetry handle: every program/erase (and read) emits a
    /// trace span under the caller's current trace-ID.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = Some(tel);
    }

    /// Preallocate every structure to its geometric bound so that no later
    /// program/erase ever touches the heap.
    ///
    /// A real device has all of its media up front; the simulator stays
    /// lazy by default so a multi-gigabyte geometry costs memory only for
    /// pages actually written. Opting in trades resident memory (one buffer
    /// per *physical* page, plus the page map at full occupancy) for fully
    /// allocation-free operation — useful for allocation-regression tests
    /// and latency-jitter-sensitive runs on small geometries.
    pub fn prewarm(&mut self) {
        let total = self.geo.total_pages() as usize;
        // Live pages can never exceed the physical page count, so a free
        // list covering the gap means `program` always recycles.
        self.page_pool.reserve_free(total.saturating_sub(self.pages.len()));
        self.pages.reserve(total.saturating_sub(self.pages.len()));
        // At most one in-flight erase per block; programs are bounded by
        // the per-plane pipelining window, for which a block's worth of
        // pages per plane is a comfortable ceiling.
        let blocks = self.geo.blocks();
        let programs = self.geo.pages_per_block * self.geo.planes();
        self.inflight_erases.reserve(blocks.saturating_sub(self.inflight_erases.len()));
        self.inflight_programs.reserve(programs.saturating_sub(self.inflight_programs.len()));
        // One parked-contents vector per possible concurrent erase, each at
        // its full per-block capacity, so parking old contents never grows.
        let ppb = self.geo.pages_per_block;
        self.erase_scratch.reserve(blocks.saturating_sub(self.erase_scratch.len()));
        while self.erase_scratch.len() + self.inflight_erases.len() < blocks {
            self.erase_scratch.push(Vec::with_capacity(ppb));
        }
        for v in &mut self.erase_scratch {
            v.reserve(ppb); // scratch vecs are empty: ensures capacity >= ppb
        }
    }

    /// Emit a completed media-operation span (`B` at issue, `E` at the
    /// virtual completion time).
    fn trace_span(&self, name: &str, start: Nanos, done: Nanos) {
        Scope::open(self.tel.as_ref(), "nand", name, start, Rec::Span).close(done);
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NandStats {
        self.stats
    }

    /// Erase count of one block (wear-leveling instrumentation).
    pub fn erase_count(&self, block: u32) -> u32 {
        self.blocks[block as usize].erase_count
    }

    /// How many page programs this block has absorbed over its lifetime.
    pub fn program_count(&self, block: u32) -> u32 {
        self.blocks[block as usize].program_count
    }

    /// Next free page index in a block (`pages_per_block` when full).
    pub fn next_free_page(&self, block: u32) -> u32 {
        self.blocks[block as usize].next_page
    }

    /// Whether an interrupted erase left this block unusable until re-erased.
    pub fn has_torn_erase(&self, block: u32) -> bool {
        self.blocks[block as usize].torn_erase
    }

    /// Whether `ppn` currently holds fully programmed, readable data (no
    /// shear, not erased). Recovery code uses this to decide which mapping
    /// candidates an out-of-band scan could actually reconstruct.
    pub fn page_intact(&self, ppn: Ppn) -> bool {
        self.pages.get(&ppn).is_some_and(|p| !p.shorn)
    }

    /// Plane `plane`'s timeline, first purged up to the watermark.
    fn plane(&mut self, plane: usize) -> &mut Timeline {
        let tl = &mut self.planes[plane];
        tl.purge_before(self.plane_watermark);
        tl
    }

    fn purge_inflight(&mut self, now: Nanos) {
        self.inflight_programs.retain(|&(_, done)| done > now);
        // Manual sweep instead of `retain`: retired records hand their
        // (emptied) `saved_pages` allocation back to the scratch pool, and
        // the parked `PageState`s drop their buffers back to the page pool.
        let mut i = 0;
        while i < self.inflight_erases.len() {
            if self.inflight_erases[i].done > now {
                i += 1;
            } else {
                let mut e = self.inflight_erases.swap_remove(i);
                e.saved_pages.clear();
                self.erase_scratch.push(e.saved_pages);
            }
        }
    }

    /// Read one physical page. Completion = plane cell-read, then bus
    /// transfer out.
    pub fn read(&mut self, ppn: Ppn, buf: &mut [u8], now: Nanos) -> Result<Nanos, NandError> {
        if ppn >= self.geo.total_pages() {
            return Err(NandError::OutOfRange);
        }
        if buf.len() != self.geo.page_size {
            return Err(NandError::BadLength { expected: self.geo.page_size, got: buf.len() });
        }
        let (block, _) = self.geo.split_ppn(ppn);
        let plane = self.geo.plane_of_block(block);
        let channel = self.geo.channel_of_block(block);
        let t_read = self.geo.t_read;
        let cell_done = self.plane(plane).acquire(now, t_read);
        let done = self.channel_bus[channel].acquire(cell_done, self.geo.bus_time(buf.len()));
        self.last_service = self.geo.t_read + self.geo.bus_time(buf.len());
        self.last_wait = (done - now).saturating_sub(self.last_service);
        self.stats.reads += 1;
        self.trace_span("nand.read", now, done);
        match self.pages.get(&ppn) {
            None => Err(NandError::Unwritten { ppn }),
            Some(p) if p.shorn => Err(NandError::Shorn { ppn }),
            Some(p) => {
                buf.copy_from_slice(&p.data);
                Ok(done)
            }
        }
    }

    /// Program one physical page. Pages within a block must be programmed in
    /// order. Completion = bus transfer in, then plane cell-program.
    pub fn program(&mut self, ppn: Ppn, data: &[u8], now: Nanos) -> Result<Nanos, NandError> {
        if ppn >= self.geo.total_pages() {
            return Err(NandError::OutOfRange);
        }
        if data.len() != self.geo.page_size {
            return Err(NandError::BadLength { expected: self.geo.page_size, got: data.len() });
        }
        self.purge_inflight(now);
        let (block, page) = self.geo.split_ppn(ppn);
        let st = &mut self.blocks[block as usize];
        if st.torn_erase {
            // Must erase again before programming.
            return Err(NandError::OutOfOrderProgram { block, expected: u32::MAX, got: page });
        }
        if st.next_page as usize >= self.geo.pages_per_block {
            return Err(NandError::BlockFull { block });
        }
        if page != st.next_page {
            return Err(NandError::OutOfOrderProgram { block, expected: st.next_page, got: page });
        }
        st.next_page += 1;
        st.program_count += 1;
        let plane = self.geo.plane_of_block(block);
        let channel = self.geo.channel_of_block(block);
        let xfer_done = self.channel_bus[channel].acquire(now, self.geo.bus_time(data.len()));
        let t_program = self.geo.t_program;
        let done = self.plane(plane).acquire(xfer_done, t_program);
        self.last_service = self.geo.bus_time(data.len()) + self.geo.t_program;
        self.last_wait = (done - now).saturating_sub(self.last_service);
        // Reuse the target page's old buffer when overwriting after a shear
        // (normal programs never hit an occupied slot); otherwise lease a
        // buffer from the slab — erases return buffers there, so the pool
        // reaches a steady state sized by the live page count.
        match self.pages.get_mut(&ppn) {
            Some(p) => {
                p.data.copy_from_slice(data);
                p.shorn = false;
            }
            None => {
                self.pages.insert(
                    ppn,
                    PageState { data: self.page_pool.checkout_from(data), shorn: false },
                );
            }
        }
        self.inflight_programs.push((ppn, done));
        self.stats.programs += 1;
        self.trace_span("nand.program", now, done);
        Ok(done)
    }

    /// Erase a block: all its pages become unwritten and it may be
    /// programmed again from page 0.
    pub fn erase(&mut self, block: u32, now: Nanos) -> Result<Nanos, NandError> {
        if block as usize >= self.geo.blocks() {
            return Err(NandError::OutOfRange);
        }
        self.purge_inflight(now);
        let plane = self.geo.plane_of_block(block);
        let t_erase = self.geo.t_erase;
        let done = self.plane(plane).acquire(now, t_erase);
        let st = &mut self.blocks[block as usize];
        let saved_next = st.next_page;
        st.next_page = 0;
        st.erase_count += 1;
        st.torn_erase = false;
        let first = self.geo.make_ppn(block, 0);
        // Park the old contents with the in-flight record instead of
        // dropping them: a power cut before the erase pulse starts restores
        // the block; otherwise they return to the pool when the record is
        // purged.
        let mut saved_pages = self.erase_scratch.pop().unwrap_or_default();
        for p in 0..self.geo.pages_per_block as u64 {
            if let Some(ps) = self.pages.remove(&(first + p)) {
                saved_pages.push((first + p, ps));
            }
        }
        self.inflight_erases.push(EraseInFlight {
            block,
            start: done - self.geo.t_erase,
            done,
            saved_next,
            saved_pages,
        });
        self.stats.erases += 1;
        self.trace_span("nand.erase", now, done);
        Ok(done)
    }

    /// Cut power at `now`: programs still in flight shear their target page,
    /// erases in flight leave the block needing a fresh erase. (NAND cells
    /// themselves are non-volatile, so nothing else is lost.)
    pub fn power_cut(&mut self, now: Nanos) {
        let shear: Vec<Ppn> = self
            .inflight_programs
            .iter()
            .filter(|&&(_, done)| done > now)
            .map(|&(ppn, _)| ppn)
            .collect();
        for ppn in shear {
            if let Some(p) = self.pages.get_mut(&ppn) {
                p.shorn = true;
                self.stats.shorn_pages += 1;
            }
        }
        for e in self.inflight_erases.drain(..) {
            if e.done <= now {
                continue; // completed: cells are stably erased
            }
            if now <= e.start {
                // The erase pulse never began (the command was queued or in
                // transfer): the cells are untouched — restore the block
                // exactly as it was, including its parked contents. Any
                // programs issued causally after this erase were sheared
                // above; the pre-erase data overwrites their page entries.
                let st = &mut self.blocks[e.block as usize];
                st.next_page = e.saved_next;
                st.erase_count = st.erase_count.saturating_sub(1);
                st.torn_erase = false;
                for (ppn, ps) in e.saved_pages {
                    self.pages.insert(ppn, ps);
                }
            } else {
                // Mid-pulse: the block is partially erased and must be
                // erased again before use; its old contents are gone.
                self.blocks[e.block as usize].torn_erase = true;
            }
        }
        self.inflight_programs.clear();
        // Whatever the controller had queued on buses/planes is abandoned.
        for t in &mut self.channel_bus {
            t.reset();
        }
        for t in &mut self.planes {
            t.reset();
        }
        self.plane_watermark = 0;
    }

    /// A plane's last busy instant as a purge up to the watermark would
    /// leave it: 0 (idle) once all its work ends at or before the watermark.
    fn live_busy_until(&self, tl: &Timeline) -> Nanos {
        let b = tl.busy_until();
        if b <= self.plane_watermark {
            0
        } else {
            b
        }
    }

    /// When a given plane becomes free (for backend idle checks).
    pub fn plane_busy_until(&self, plane: usize) -> Nanos {
        self.live_busy_until(&self.planes[plane])
    }

    /// Inform the array that no future operation will be scheduled before
    /// `t` (host arrival watermark): old busy intervals can be dropped. The
    /// few channel buses are purged now; each plane purges when it is next
    /// acquired (see [`NandArray::plane`]).
    pub fn purge_before(&mut self, t: Nanos) {
        self.plane_watermark = self.plane_watermark.max(t);
        for c in &mut self.channel_bus {
            c.purge_before(t);
        }
    }

    /// Reference for [`NandArray::purge_before`]: sweep every timeline now.
    #[cfg(test)]
    fn purge_before_eager(&mut self, t: Nanos) {
        for p in &mut self.planes {
            p.purge_before(t);
        }
        for c in &mut self.channel_bus {
            c.purge_before(t);
        }
    }

    /// Virtual time at which every queued plane/bus operation has drained.
    pub fn all_quiet(&self) -> Nanos {
        let p = self.planes.iter().map(|tl| self.live_busy_until(tl)).max().unwrap_or(0);
        let c = self.channel_bus.iter().map(Timeline::busy_until).max().unwrap_or(0);
        p.max(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> NandArray {
        NandArray::new(Geometry::tiny())
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 8192]
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut a = array();
        let done = a.program(0, &page(7), 0).unwrap();
        assert!(done >= 900_000);
        let mut buf = page(0);
        a.read(0, &mut buf, done).unwrap();
        assert_eq!(buf, page(7));
    }

    #[test]
    fn last_split_decomposes_command_latency_exactly() {
        let mut a = array();
        let g = *a.geometry();
        let d1 = a.program(0, &page(1), 0).unwrap();
        let (w1, s1) = a.last_split();
        assert_eq!(w1, 0, "idle array: pure service");
        assert_eq!(s1, g.bus_time(g.page_size) + g.t_program);
        assert_eq!(w1 + s1, d1);
        // Same plane, issued while the first program still runs: queued.
        let d2 = a.program(1, &page(2), 0).unwrap();
        let (w2, s2) = a.last_split();
        assert!(w2 > 0, "second program must wait behind the first");
        assert_eq!(w2 + s2, d2, "wait + service == done - now, exactly");
        // Reads split the same way.
        let d3 = a.read(0, &mut page(0), d2).unwrap();
        let (w3, s3) = a.last_split();
        assert_eq!(s3, g.t_read + g.bus_time(g.page_size));
        assert_eq!(w3 + s3, d3 - d2);
        // Channel gauges see the accepted work.
        assert!(a.channel_count() >= 1);
        assert_eq!(a.channel_backlog_at(0, d3), 0);
        assert!(a.channel_backlog_at(0, 0) > 0);
        assert!(a.channel_occupancy_at(0, 0) >= 1);
    }

    #[test]
    fn read_unwritten_fails() {
        let mut a = array();
        let mut buf = page(0);
        assert!(matches!(a.read(5, &mut buf, 0), Err(NandError::Unwritten { ppn: 5 })));
    }

    #[test]
    fn in_block_programs_must_be_sequential() {
        let mut a = array();
        a.program(0, &page(1), 0).unwrap();
        // Skipping page 1 is rejected.
        assert!(matches!(
            a.program(2, &page(2), 0),
            Err(NandError::OutOfOrderProgram { expected: 1, got: 2, .. })
        ));
        a.program(1, &page(2), 0).unwrap();
    }

    #[test]
    fn no_reprogram_without_erase() {
        let mut a = array();
        let g = *a.geometry();
        for p in 0..g.pages_per_block as u64 {
            a.program(p, &page(p as u8), 0).unwrap();
        }
        // Any further program to the full block is rejected.
        assert!(matches!(a.program(0, &page(9), 0), Err(NandError::BlockFull { block: 0 })));
        assert!(matches!(
            a.program(g.pages_per_block as u64 - 1, &page(9), 0),
            Err(NandError::BlockFull { block: 0 })
        ));
    }

    #[test]
    fn erase_frees_block_and_counts_wear() {
        let mut a = array();
        a.program(0, &page(1), 0).unwrap();
        let done = a.erase(0, 1_000_000).unwrap();
        assert!(done >= 4_000_000);
        assert_eq!(a.erase_count(0), 1);
        assert_eq!(a.next_free_page(0), 0);
        let mut buf = page(0);
        assert!(matches!(a.read(0, &mut buf, done), Err(NandError::Unwritten { .. })));
        // Programmable again from page 0.
        a.program(0, &page(2), done).unwrap();
    }

    #[test]
    fn parallel_blocks_use_different_planes() {
        let mut a = array();
        let g = *a.geometry();
        // Blocks 0 and 1 are on different planes and channels.
        let d0 = a.program(g.make_ppn(0, 0), &page(1), 0).unwrap();
        let d1 = a.program(g.make_ppn(1, 0), &page(2), 0).unwrap();
        // Full overlap: both finish around t_program + transfer, not 2x.
        assert!(d1 < d0 + g.t_program / 2, "no overlap: d0={d0} d1={d1}");
    }

    #[test]
    fn same_plane_blocks_serialise() {
        let mut a = array();
        let g = *a.geometry();
        let planes = g.planes() as u32;
        // Blocks 0 and `planes` are on the same plane.
        let d0 = a.program(g.make_ppn(0, 0), &page(1), 0).unwrap();
        let d1 = a.program(g.make_ppn(planes, 0), &page(2), 0).unwrap();
        assert!(d1 >= d0 + g.t_program, "same-plane ops must serialise");
    }

    #[test]
    fn power_cut_shears_inflight_program() {
        let mut a = array();
        let done = a.program(0, &page(1), 0).unwrap();
        a.power_cut(done / 2); // mid-program
        let mut buf = page(0);
        assert!(matches!(a.read(0, &mut buf, done), Err(NandError::Shorn { ppn: 0 })));
        assert_eq!(a.stats().shorn_pages, 1);
    }

    #[test]
    fn power_cut_after_completion_is_safe() {
        let mut a = array();
        let done = a.program(0, &page(1), 0).unwrap();
        a.power_cut(done); // exactly at completion: data is stable
        let mut buf = page(0);
        a.read(0, &mut buf, done).unwrap();
        assert_eq!(buf, page(1));
    }

    #[test]
    fn power_cut_before_erase_pulse_restores_the_block() {
        let mut a = array();
        let pdone = a.program(0, &page(7), 0).unwrap();
        let edone = a.erase(0, pdone).unwrap();
        // The erase pulse starts at `edone - t_erase`; cutting at or before
        // that instant means the cells were never touched.
        a.power_cut(edone - a.geometry().t_erase);
        assert!(!a.has_torn_erase(0), "un-started erase must not tear the block");
        assert_eq!(a.next_free_page(0), 1, "write cursor restored");
        let mut buf = page(0);
        a.read(0, &mut buf, edone).unwrap();
        assert_eq!(buf, page(7), "pre-erase contents restored");
    }

    #[test]
    fn torn_erase_blocks_until_reerased() {
        let mut a = array();
        a.program(0, &page(1), 0).unwrap();
        let done = a.erase(0, 2_000_000).unwrap();
        a.power_cut(done - 1);
        assert!(a.has_torn_erase(0));
        assert!(a.program(0, &page(2), done).is_err());
        let d2 = a.erase(0, done).unwrap();
        a.program(0, &page(2), d2).unwrap();
    }

    #[test]
    fn stats_accumulate() {
        let mut a = array();
        a.program(0, &page(1), 0).unwrap();
        let mut buf = page(0);
        let _ = a.read(0, &mut buf, 10_000_000);
        a.erase(1, 0).unwrap();
        let s = a.stats();
        assert_eq!((s.programs, s.reads, s.erases), (1, 1, 1));
    }

    mod proptests {
        use super::*;
        use simkit::dist::{rng, Rng};

        /// The lazy plane purge is observably identical to sweeping every
        /// timeline at each `purge_before`: same completion times, same
        /// idle/busy answers, same channel backlogs, after every step of a
        /// seeded mix of reads, programs, erases and purges whose arrivals
        /// never precede the watermark.
        #[test]
        fn lazy_plane_purge_matches_eager_sweep() {
            let mut r = rng(0x1A2B);
            for _ in 0..64 {
                let mut lazy = NandArray::new(Geometry::tiny());
                let mut eager = NandArray::new(Geometry::tiny());
                let g = *lazy.geometry();
                let mut cursor = vec![0u32; g.blocks()];
                let mut watermark = 0u64;
                let mut buf = vec![0u8; g.page_size];
                for step in 0..400 {
                    // Arrivals scatter ahead of the watermark, out of order,
                    // like interleaved closed-loop clients.
                    let now = watermark + r.gen_range(0..8_000_000u64);
                    let block = r.gen_range(0..g.blocks() as u32);
                    let (a, b) = match r.gen_range(0..10u32) {
                        0..=3 => {
                            let page = r.gen_range(0..g.pages_per_block as u32);
                            let ppn = g.make_ppn(block, page);
                            (
                                lazy.read(ppn, &mut buf, now).map_err(|e| e.to_string()),
                                eager.read(ppn, &mut buf, now).map_err(|e| e.to_string()),
                            )
                        }
                        4..=7 if (cursor[block as usize] as usize) < g.pages_per_block => {
                            let ppn = g.make_ppn(block, cursor[block as usize]);
                            cursor[block as usize] += 1;
                            let data = vec![step as u8; g.page_size];
                            (
                                lazy.program(ppn, &data, now).map_err(|e| e.to_string()),
                                eager.program(ppn, &data, now).map_err(|e| e.to_string()),
                            )
                        }
                        4..=8 => {
                            cursor[block as usize] = 0;
                            (
                                lazy.erase(block, now).map_err(|e| e.to_string()),
                                eager.erase(block, now).map_err(|e| e.to_string()),
                            )
                        }
                        _ => {
                            watermark += r.gen_range(0..6_000_000u64);
                            lazy.purge_before(watermark);
                            eager.purge_before_eager(watermark);
                            (Ok(0), Ok(0))
                        }
                    };
                    assert_eq!(a, b, "step {step}: completion");
                    assert_eq!(lazy.last_split(), eager.last_split(), "step {step}: split");
                    assert_eq!(lazy.all_quiet(), eager.all_quiet(), "step {step}: all_quiet");
                    for p in 0..g.planes() {
                        assert_eq!(
                            lazy.plane_busy_until(p),
                            eager.plane_busy_until(p),
                            "step {step}: plane {p}"
                        );
                    }
                    for c in 0..lazy.channel_count() {
                        for t in [watermark, now] {
                            assert_eq!(
                                lazy.channel_backlog_at(c, t),
                                eager.channel_backlog_at(c, t),
                                "step {step}: channel {c} at {t}"
                            );
                        }
                    }
                }
            }
        }

        /// Model-based test: arbitrary interleavings of program/erase across
        /// blocks behave like a per-block append-log with erase reset.
        #[test]
        fn random_program_erase_matches_model() {
            let mut r = rng(0xA4D);
            for _ in 0..256 {
                let ops: Vec<(u32, bool, u8)> = (0..r.gen_range(1..300usize))
                    .map(|_| (r.gen_range(0..8u32), r.gen::<bool>(), r.gen::<u8>()))
                    .collect();
                let mut a = NandArray::new(Geometry::tiny());
                let g = *a.geometry();
                // Model: per block, a vec of programmed page contents.
                let mut model: Vec<Vec<u8>> = vec![Vec::new(); 8];
                let mut t = 0u64;
                for (block, is_erase, fill) in ops {
                    if is_erase {
                        t = a.erase(block, t).unwrap();
                        model[block as usize].clear();
                    } else if model[block as usize].len() < g.pages_per_block {
                        let page_idx = model[block as usize].len() as u32;
                        let ppn = g.make_ppn(block, page_idx);
                        t = a.program(ppn, &vec![fill; g.page_size], t).unwrap();
                        model[block as usize].push(fill);
                    } else {
                        // Full block: program must fail.
                        let ppn = g.make_ppn(block, 0);
                        assert!(a.program(ppn, &vec![fill; g.page_size], t).is_err());
                    }
                }
                // Read-back check, far enough in the future that all
                // programs are stable.
                t += 1_000_000_000;
                let mut buf = vec![0u8; g.page_size];
                for (b, pages) in model.iter().enumerate() {
                    for (i, fill) in pages.iter().enumerate() {
                        let ppn = g.make_ppn(b as u32, i as u32);
                        a.read(ppn, &mut buf, t).unwrap();
                        assert!(buf.iter().all(|x| x == fill));
                    }
                    // The next page is unwritten.
                    if pages.len() < g.pages_per_block {
                        let ppn = g.make_ppn(b as u32, pages.len() as u32);
                        let unwritten =
                            matches!(a.read(ppn, &mut buf, t), Err(NandError::Unwritten { .. }));
                        assert!(unwritten);
                    }
                }
            }
        }
    }
}
