//! The scenario catalogue: the two deployments and three device stacks the
//! `observatory` and `trace` bins run, built in one place.
//!
//! * **durable** — DuraSSD (capacitor-backed cache) with barriers off, the
//!   paper's deployment: fsync is acknowledged from the durable cache, so
//!   overwrites coalesce in DRAM and no commit waits on FLUSH CACHE;
//! * **volatile** — SSD-A (volatile cache) with barriers on: every fsync is
//!   a real FLUSH CACHE, the cache drains constantly and nothing is
//!   absorbed.
//!
//! The stacks are fio random writes straight on a [`Volume`], YCSB-A on the
//! document store and a TPC-C slice on the relational engine. [`run_cell`]
//! runs one workload × deployment cell once with latency anatomy on and
//! keeps both what `BENCH_waf.json` is rendered from (the devices' write
//! counters) and what `BENCH_latency.json` is rendered from (the commit op's
//! anatomy). [`mixed_run`] is the tail experiment: 64 readers and 16
//! writers on a bare volume.

use crate::{anatomy_telemetry, durassd_bench, latency_row_json, ssd_a_bench};
use docstore::{DocStore, DocStoreConfig};
use durassd::Ssd;
use forensics::{DeviceHealth, Forensic};
use relstore::{Engine, EngineConfig};
use simkit::dist::{rng, Rng};
use simkit::stats::LatencyStats;
use simkit::{ClosedLoop, Nanos};
use storage::device::{BlockDevice, CauseCounts, WriteCause, LOGICAL_PAGE};
use storage::volume::Volume;
use telemetry::Telemetry;
use workloads::fio::FioSpec;
use workloads::tpcc::{TpccDb, TpccSpec};
use workloads::ycsb::YcsbSpec;
use workloads::{fio, tpcc, ycsb};

/// Where a cell runs: the device and whether the host sends barriers.
#[derive(Clone, Copy, Debug)]
pub struct Deployment {
    /// The `mode` field of a report row.
    pub mode: &'static str,
    /// The `device` field of a report row.
    pub device: &'static str,
    /// Whether fsync reaches the device as FLUSH CACHE.
    pub barriers: bool,
    new_ssd: fn(bool) -> Ssd,
}

impl Deployment {
    /// DuraSSD, barriers off.
    pub const DURABLE: Deployment =
        Deployment { mode: "durable", device: "durassd", barriers: false, new_ssd: durassd_bench };
    /// SSD-A, barriers on.
    pub const VOLATILE: Deployment =
        Deployment { mode: "volatile", device: "ssd_a", barriers: true, new_ssd: ssd_a_bench };
    /// Both deployments, durable first (the order of the report rows).
    pub const BOTH: [Deployment; 2] = [Self::DURABLE, Self::VOLATILE];

    /// A fresh device at benchmark scale, write cache on.
    pub fn ssd(self) -> Ssd {
        (self.new_ssd)(true)
    }
}

/// The fio stack: a volume straight on `dev`, its commands recorded as
/// `dev.fio.*`.
pub fn fio_volume<D: BlockDevice>(dev: D, barriers: bool, tel: &Telemetry) -> Volume<D> {
    let mut vol = Volume::new(dev, barriers);
    vol.attach_telemetry(tel.clone(), "fio");
    vol
}

/// The YCSB-A stack: a document store on `dev` (batch 10, 200,000 file
/// blocks, no auto-compaction, a checkpoint every 8th commit), loaded with
/// `records` documents from `start`. Returns the store, the workload and
/// the end of the load.
pub fn ycsb_store<D: BlockDevice>(
    mut dev: D,
    barriers: bool,
    records: u64,
    ops: u64,
    start: Nanos,
    tel: &Telemetry,
) -> (DocStore<D>, YcsbSpec, Nanos) {
    dev.attach_telemetry(tel.clone());
    let cfg = DocStoreConfig {
        batch_size: 10,
        barriers,
        file_blocks: 200_000,
        auto_compact_pct: 0,
        checkpoint_every_n_commits: 8,
    };
    let mut store = DocStore::create(dev, cfg);
    store.attach_telemetry(tel.clone());
    let spec = YcsbSpec::workload_a(records, ops);
    let t = ycsb::load(&mut store, &spec, start);
    (store, spec, t)
}

/// The TPC-C stack: an engine on `data` and `log` created at `start` (8
/// clients, a buffer pool of about a tenth of the estimated data, 8,192 log
/// blocks) and a loaded database. Returns the engine, the database, the
/// workload and the end of the load.
pub fn tpcc_engine<D: BlockDevice>(
    mut data: D,
    mut log: D,
    barriers: bool,
    warehouses: u32,
    txns: u64,
    start: Nanos,
    tel: &Telemetry,
) -> (Engine<D, D>, TpccDb, TpccSpec, Nanos) {
    data.attach_telemetry(tel.clone());
    log.attach_telemetry(tel.clone());
    let spec = TpccSpec { clients: 8, ..TpccSpec::scaled(warehouses, txns) };
    let est = warehouses as u64
        * (spec.items as u64 * 300 + spec.districts as u64 * spec.customers as u64 * 470 + 40_960);
    let ecfg = EngineConfig::builder(4096)
        .buffer_pool_bytes((est / 10).max(512 * 1024))
        .barriers(barriers)
        .data_pages((est * 4 / 4096).max(16_384))
        .log_file_blocks(8_192)
        .build();
    let (mut engine, t) = Engine::create(data, log, ecfg, start).into_parts();
    engine.attach_telemetry(tel.clone());
    let (db, t) = tpcc::load(&mut engine, &spec, t);
    (engine, db, spec, t)
}

/// Workload sizes for one run of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// fio writes (each followed by an fsync).
    pub fio_ops: u64,
    /// fio span in 4 KiB blocks.
    pub fio_span: u64,
    /// YCSB-A documents loaded.
    pub ycsb_records: u64,
    /// YCSB-A operations run.
    pub ycsb_ops: u64,
    /// TPC-C warehouses.
    pub warehouses: u32,
    /// TPC-C transactions.
    pub txns: u64,
    /// Operations of each mixed read/write tail run.
    pub mixed_ops: u64,
}

impl Default for Scale {
    /// The scale of the checked-in `BENCH_waf.json` and `BENCH_latency.json`.
    fn default() -> Self {
        Scale {
            fio_ops: 40_000,
            fio_span: 2_048,
            ycsb_records: 1_000,
            ycsb_ops: 6_000,
            warehouses: 1,
            txns: 300,
            mixed_ops: 60_000,
        }
    }
}

/// The three workloads of the catalogue, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// fio 4 KiB random writes over a small span, fsync after every write.
    Fio,
    /// YCSB-A (50/50 read/update) on the document store.
    YcsbA,
    /// A TPC-C slice on the relational engine.
    Tpcc,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Fio, Workload::YcsbA, Workload::Tpcc];

    /// The `workload` field of a report row.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fio => "fio_overwrite_4k",
            Workload::YcsbA => "ycsb_a_docstore",
            Workload::Tpcc => "tpcc_relstore",
        }
    }
}

/// Host and media write counters summed over a cell's devices. Sums keep
/// conservation: the per-cause counts still add up to the totals.
#[derive(Clone, Debug, Default)]
pub struct WriteCounts {
    /// Pages the host wrote.
    pub host_pages: u64,
    /// Pages programmed on NAND.
    pub media_pages: u64,
    /// Host pages the write cache coalesced before they reached flash.
    pub absorbed: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Largest max-minus-min erase count across one device's blocks.
    pub wear_spread: u32,
    /// Host pages by [`WriteCause`].
    pub host_by_cause: CauseCounts,
    /// Media pages by [`WriteCause`].
    pub media_by_cause: CauseCounts,
}

impl WriteCounts {
    fn add(&mut self, ssd: &Ssd) {
        let s = ssd.stats();
        self.host_pages += s.pages_written;
        self.media_pages += s.media_pages_written;
        self.absorbed += ssd.absorbed_overwrites();
        self.gc_erases += s.gc_erases;
        let erases = ssd.wear_profile().into_iter().map(|(e, _)| e);
        let (min, max) = erases.fold((u32::MAX, 0), |(lo, hi), e| (lo.min(e), hi.max(e)));
        self.wear_spread = self.wear_spread.max(max.saturating_sub(min));
        for c in WriteCause::ALL {
            self.host_by_cause[c.index()] += s.pages_by_cause[c.index()];
            self.media_by_cause[c.index()] += s.media_pages_by_cause[c.index()];
        }
    }

    /// Media pages per host page.
    pub fn waf(&self) -> f64 {
        self.media_pages as f64 / self.host_pages.max(1) as f64
    }

    /// Share of host pages that died in DRAM instead of costing a program.
    pub fn absorption_pct(&self) -> f64 {
        100.0 * self.absorbed as f64 / self.host_pages.max(1) as f64
    }
}

/// One workload × deployment cell after its run.
pub struct Cell {
    /// Which workload ran.
    pub workload: Workload,
    /// Where it ran.
    pub deployment: Deployment,
    /// The histogram of the op that commits: fio's fsync, `doc.set` or
    /// `engine.commit`.
    pub commit_op: &'static str,
    /// The run's telemetry, anatomy on.
    pub tel: Telemetry,
    /// Write counters of the cell's devices.
    pub writes: WriteCounts,
    /// Virtual time at which the run finished.
    pub end: Nanos,
}

/// A telemetry handle for one run: anatomy on, and a Chrome trace ring when
/// `trace` is set.
fn run_telemetry(trace: bool) -> Telemetry {
    let tel = anatomy_telemetry();
    if trace {
        tel.enable_tracing(1 << 20);
    }
    tel
}

/// Run one cell from fresh devices at `scale`.
pub fn run_cell(workload: Workload, dep: Deployment, scale: &Scale, trace: bool) -> Cell {
    let tel = run_telemetry(trace);
    let mut writes = WriteCounts::default();
    let barriers = dep.barriers;
    let (commit_op, end) = match workload {
        // The commit op is the fsync itself: a real FLUSH CACHE when
        // barriers are on, the soft fsync (pure `wal_fsync`) without them.
        Workload::Fio => {
            let mut vol = fio_volume(dep.ssd(), barriers, &tel);
            let spec = FioSpec::random_write_4k(scale.fio_span, Some(1), scale.fio_ops);
            let rep = fio::run(&mut vol, &spec, 0);
            writes.add(vol.device());
            let op = if barriers { "dev.fio.flush" } else { "dev.fio.fsync_soft" };
            (op, rep.finished_at)
        }
        // Batched commits close inside the `doc.set` frame that triggers them.
        Workload::YcsbA => {
            let (ycsb_records, ycsb_ops) = (scale.ycsb_records, scale.ycsb_ops);
            let (mut store, spec, t) =
                ycsb_store(dep.ssd(), barriers, ycsb_records, ycsb_ops, 0, &tel);
            let rep = ycsb::run(&mut store, &spec, t);
            writes.add(store.device());
            ("doc.set", rep.finished_at)
        }
        // WAL appends and double-write images on the log device, home pages
        // on the data device: the counters sum both.
        Workload::Tpcc => {
            let (data, log) = (dep.ssd(), dep.ssd());
            let (mut engine, mut db, spec, t) =
                tpcc_engine(data, log, barriers, scale.warehouses, scale.txns, 0, &tel);
            let rep = tpcc::run(&mut engine, &mut db, &spec, t);
            writes.add(engine.data_volume().device());
            writes.add(engine.log_volume().device());
            ("engine.commit", rep.finished_at)
        }
    };
    Cell { workload, deployment: dep, commit_op, tel, writes, end }
}

/// Every cell of the catalogue, workloads in report order, durable first.
pub fn run_cells(scale: &Scale, trace: bool) -> Vec<Cell> {
    Workload::ALL
        .into_iter()
        .flat_map(|w| Deployment::BOTH.map(|d| run_cell(w, d, scale, trace)))
        .collect()
}

fn by_cause_json(counts: &CauseCounts) -> String {
    let parts: Vec<String> = WriteCause::ALL
        .iter()
        .map(|c| format!("\"{}\":{}", c.label(), counts[c.index()]))
        .collect();
    format!("{{{}}}", parts.join(","))
}

impl Cell {
    /// This cell's `durassd.waf.v1` row.
    pub fn waf_row_json(&self) -> String {
        let w = &self.writes;
        format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"device\":\"{}\",\
             \"host_pages\":{},\"media_pages\":{},\"waf\":{:.4},\
             \"absorbed_overwrites\":{},\"absorption_pct\":{:.2},\
             \"gc_erases\":{},\"wear_spread\":{},\
             \"host_by_cause\":{},\"media_by_cause\":{}}}",
            self.workload.name(),
            self.deployment.mode,
            self.deployment.device,
            w.host_pages,
            w.media_pages,
            w.waf(),
            w.absorbed,
            w.absorption_pct(),
            w.gc_erases,
            w.wear_spread,
            by_cause_json(&w.host_by_cause),
            by_cause_json(&w.media_by_cause),
        )
    }

    /// This cell's `durassd.latency.v1` row.
    pub fn latency_row_json(&self) -> String {
        let d = self.deployment;
        latency_row_json(self.workload.name(), d.mode, d.device, self.commit_op, &self.tel)
            .expect("commit op recorded and captured")
    }
}

/// One mixed read/write run of the tail experiment.
pub struct MixedRun {
    /// Where it ran.
    pub deployment: Deployment,
    /// Telemetry of the mixed phase (the preload is not recorded).
    pub tel: Telemetry,
    /// Read latencies.
    pub reads: LatencyStats,
    /// Write latencies, fsync included when a write carried one.
    pub writes: LatencyStats,
    /// The device's durability health after the run.
    pub health: Option<DeviceHealth>,
    /// Virtual time at which the run finished.
    pub end: Nanos,
}

/// The tail experiment on `dep`: preload 16,384 pages, then 64 readers and
/// 16 writers (each writer fsyncs every 8th write) for `ops` operations over
/// those pages. Reads queue behind writes and, with barriers, behind cache
/// drains.
pub fn mixed_run(dep: Deployment, ops: u64, trace: bool) -> MixedRun {
    let tel = run_telemetry(trace);
    let mut vol = Volume::new(dep.ssd(), dep.barriers);
    let span = 16_384.min(vol.capacity_pages() / 2);
    let page = vec![1u8; LOGICAL_PAGE];
    let mut t = 0;
    for lpn in 0..span {
        t = vol.write(lpn, &page, t).expect("preload write");
    }
    t = vol.fsync(t).expect("preload fsync");
    // Attach after the preload so only the mixed phase is measured.
    vol.attach_telemetry(tel.clone(), "tail");
    let clients = 80usize;
    let mut rngs: Vec<_> = (0..clients).map(|c| rng(0xFEED ^ (c as u64) << 20)).collect();
    let mut since = vec![0u32; clients];
    let (mut reads, mut writes) = (LatencyStats::new(), LatencyStats::new());
    let mut rbuf = vec![0u8; LOGICAL_PAGE];
    let mut driver = ClosedLoop::new(clients, t);
    let rep = driver.run(ops, |c, now| {
        let lpn = rngs[c].gen_range(0..span);
        if c < 64 {
            let done = vol.read(lpn, 1, &mut rbuf, now).expect("mixed read");
            reads.record(done - now);
            done
        } else {
            let mut done = vol.write(lpn, &page, now).expect("mixed write");
            since[c] += 1;
            if since[c] >= 8 {
                since[c] = 0;
                done = vol.fsync(done).expect("mixed fsync");
            }
            writes.record(done - now);
            done
        }
    });
    let health = vol.device().health();
    MixedRun { deployment: dep, tel, reads, writes, health, end: rep.finished_at }
}

impl MixedRun {
    /// The run's `durassd.latency.v1` rows: the slowest reads, then the
    /// slowest writes, with their breakdowns.
    pub fn latency_rows_json(&self) -> Vec<String> {
        let d = self.deployment;
        [("tail_mixed_reads", "dev.tail.read"), ("tail_mixed_writes", "dev.tail.write")]
            .into_iter()
            .filter_map(|(w, op)| latency_row_json(w, d.mode, d.device, op, &self.tel))
            .collect()
    }
}
