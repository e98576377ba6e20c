//! The repository benchmark: simulator cost and model results on four
//! workloads, timed layer by layer from outside the program.
//!
//! Every layer is driven through its public functions (`storage::Volume`,
//! `docstore::DocStore`, `relstore::Engine`, `workloads::tpcc::run`). The
//! untraced run uses plain [`Ssd`] devices and yields the end-to-end
//! metrics; the traced run wraps every device in [`trace::Probe`], attaches
//! `telemetry` to every stack, records spans around every call it makes,
//! and yields the per-layer metrics. See `README.md` for the layer →
//! metric → end-to-end map.

pub mod metrics;
pub mod trace;

mod crash;
mod fio;
mod tpcc;
mod ycsb;

use bufferpool::PoolStats;
use durassd::ftl::FtlStats;
use durassd::{Ssd, SsdConfig, SsdStats};
use relstore::{Engine, EngineStats};
use simkit::alloc::alloc_count;
use simkit::Nanos;
use std::time::Instant;
use storage::device::{BlockDevice, DeviceStats, WriteCause};
use telemetry::Telemetry;
use trace::{Probe, Role, Tracer};
use wal::WalStats;

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FioRandwrite,
    YcsbA,
    Tpcc,
    CrashRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::FioRandwrite, Workload::YcsbA, Workload::Tpcc, Workload::CrashRecover];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FioRandwrite => "fio_randwrite",
            Workload::YcsbA => "ycsb_a",
            Workload::Tpcc => "tpcc",
            Workload::CrashRecover => "crash_recover",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Measured ops per second of `--seconds`: the measured phase is a
    /// fixed op count, so every virtual-time metric repeats exactly for a
    /// seed, sized to take about `--seconds` on a 2-vCPU host.
    fn ops_per_second(self) -> u64 {
        match self {
            Workload::FioRandwrite => 100_000,
            Workload::YcsbA => 20_000,
            Workload::Tpcc => 1_200,
            Workload::CrashRecover => 30,
        }
    }
}

/// What one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Measured ops (fio writes, YCSB ops, TPC-C transactions, crash cycles).
    pub ops: u64,
    /// How many times set-up is repeated (the last stack is measured).
    pub setups: usize,
    /// Tiny devices and data sets, for the self-test.
    pub tiny: bool,
}

impl Params {
    /// Full-scale parameters for a run of about `seconds`.
    pub fn full(workload: Workload, seed: u64, seconds: u64) -> Self {
        Self {
            workload,
            seed,
            ops: workload.ops_per_second() * seconds.max(1),
            setups: 3,
            tiny: false,
        }
    }

    /// Tiny parameters for the self-test: the same code path in seconds.
    pub fn tiny(workload: Workload, seed: u64) -> Self {
        let ops = match workload {
            Workload::FioRandwrite => 2_000,
            Workload::YcsbA => 500,
            Workload::Tpcc => 64,
            Workload::CrashRecover => 2,
        };
        Self { workload, seed, ops, setups: 1, tiny: true }
    }
}

/// A device the workloads can run on: a plain [`Ssd`] or a probed one.
pub(crate) trait Dev: BlockDevice {
    fn ssd(&self) -> &Ssd;
}

impl Dev for Ssd {
    fn ssd(&self) -> &Ssd {
        self
    }
}

impl Dev for Probe<Ssd> {
    fn ssd(&self) -> &Ssd {
        self.inner()
    }
}

/// How a workload builds its stack: plain, or probed and instrumented.
pub(crate) struct Env<'a, D> {
    /// Turn a freshly built [`Ssd`] into the device the stack mounts.
    mk: &'a dyn Fn(Ssd, Role) -> D,
    tr: Option<&'a Tracer>,
    tel: Option<&'a Telemetry>,
}

impl<D> Env<'_, D> {
    /// Open a root span (traced run only).
    fn root(&self, name: trace::Name) -> Option<u32> {
        self.tr.map(|t| t.begin(name, Role::Host))
    }

    fn end(&self, span: Option<u32>) {
        if let (Some(t), Some(s)) = (self.tr, span) {
            t.end(s, 0);
        }
    }

    fn scope<T>(&self, name: trace::Name, f: impl FnOnce() -> T) -> T {
        trace::scope(self.tr, name, f)
    }

    /// Start of the measured phase: drop what telemetry saw during set-up.
    fn start_measuring(&self) {
        if let Some(t) = self.tel {
            t.reset();
        }
        if let Some(t) = self.tr {
            t.set_recording(true);
        }
    }
}

/// Device counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Snap {
    pub dev: DeviceStats,
    pub ftl: FtlStats,
    pub ssd: SsdStats,
    pub absorbed: u64,
    pub sata_busy: Nanos,
    pub pipe_busy: Nanos,
}

impl Snap {
    fn of(s: &Ssd) -> Self {
        let (sata_busy, pipe_busy, _) = s.busy_times();
        Self {
            dev: s.stats(),
            ftl: s.ftl_stats(),
            ssd: s.ssd_stats(),
            absorbed: s.absorbed_overwrites(),
            sata_busy,
            pipe_busy,
        }
    }
}

/// Device counters summed over a workload's devices, as deltas over the
/// measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevDelta {
    pub devices: u64,
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    pub host_pages: u64,
    pub media_pages: u64,
    pub media_by_cause: [u64; WriteCause::COUNT],
    pub gc_erases: u64,
    pub gc_relocated: u64,
    pub meta_programs: u64,
    pub gc_ns: u64,
    pub cache_hit_reads: u64,
    pub absorbed: u64,
    pub sata_busy: u64,
    pub pipe_busy: u64,
}

impl DevDelta {
    fn between(before: &[Snap], after: &[Snap]) -> Self {
        let mut d = DevDelta { devices: after.len() as u64, ..Default::default() };
        for (a, b) in before.iter().zip(after) {
            d.reads += b.dev.reads - a.dev.reads;
            d.writes += b.dev.writes - a.dev.writes;
            d.flushes += b.dev.flushes - a.dev.flushes;
            d.host_pages += b.dev.pages_written - a.dev.pages_written;
            d.media_pages += b.dev.media_pages_written - a.dev.media_pages_written;
            for c in 0..WriteCause::COUNT {
                d.media_by_cause[c] +=
                    b.dev.media_pages_by_cause[c] - a.dev.media_pages_by_cause[c];
            }
            d.gc_erases += b.ftl.gc_erases - a.ftl.gc_erases;
            d.gc_relocated += b.ftl.gc_relocated_slots - a.ftl.gc_relocated_slots;
            d.meta_programs += b.ftl.meta_programs - a.ftl.meta_programs;
            d.gc_ns += b.ftl.gc_ns - a.ftl.gc_ns;
            d.cache_hit_reads += b.ssd.cache_hit_reads - a.ssd.cache_hit_reads;
            d.absorbed += b.absorbed - a.absorbed;
            d.sata_busy += b.sata_busy - a.sata_busy;
            d.pipe_busy += b.pipe_busy - a.pipe_busy;
        }
        d
    }
}

/// One recovery: wall time of the recovery calls and the virtual outage
/// from the power cut to a usable store.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub wall_ns: u64,
    pub sim_ns: Nanos,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub violations: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Wall ops/s of each measured chunk.
    pub chunk_rates: Vec<f64>,
    pub allocs: u64,
    /// Virtual duration of the measured phase.
    pub sim_ns: Nanos,
    /// Virtual latency of each measured op (empty for TPC-C: `tpcc::run`
    /// reports none).
    pub op_lat: Vec<Nanos>,
    pub dev: DevDelta,
    pub lost_acked_slots: u64,
    pub recoveries: Vec<Recovery>,
    /// Relational transactions (TPC-C transactions, crash-cycle commits).
    pub rel_txns: u64,
    /// Per-layer values only the workload can compute, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Report {
    /// Virtual-time results and counts that must repeat exactly, and be
    /// identical between the traced and the untraced run.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut v = vec![self.ops, self.attempted, self.failed, self.sim_ns, self.rel_txns];
        v.extend(&self.op_lat);
        v.extend(self.recoveries.iter().map(|r| r.sim_ns));
        let d = &self.dev;
        v.extend([d.reads, d.writes, d.flushes, d.host_pages, d.media_pages, d.gc_erases]);
        v.extend([d.gc_relocated, d.meta_programs, d.gc_ns, d.cache_hit_reads, d.absorbed]);
        v.extend([d.sata_busy, d.pipe_busy, self.lost_acked_slots]);
        v.extend(d.media_by_cause);
        v.extend(self.layer.iter().map(|(_, x)| x.to_bits()));
        v
    }

    /// Gate every device: structural invariants and no acknowledged slot
    /// lost.
    fn check_devices<'a>(&mut self, ssds: impl IntoIterator<Item = &'a Ssd>) {
        for (i, s) in ssds.into_iter().enumerate() {
            if let Err(e) = s.check_invariants() {
                self.violations.push(format!("device {i}: {e}"));
            }
            let lost = s.ssd_stats().lost_acked_slots;
            self.lost_acked_slots += lost;
            if lost > 0 {
                self.violations.push(format!("device {i}: {lost} acknowledged slots lost"));
            }
        }
    }
}

/// Engine, WAL and buffer-pool counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct RelSnap {
    e: EngineStats,
    w: WalStats,
    p: PoolStats,
}

impl RelSnap {
    fn of<D: Dev, L: Dev>(e: &Engine<D, L>) -> Self {
        Self { e: e.stats(), w: e.wal_stats(), p: e.pool_stats() }
    }
}

/// Relational counters summed over stretches of the measured phase (the
/// engine restarts its counters at recovery, `tpcc::run` resets the pool's).
#[derive(Debug, Clone, Copy, Default)]
struct RelCounters {
    page_reads: u64,
    page_writes: u64,
    dwb_writes: u64,
    accesses: u64,
    misses: u64,
    blocked_reads: u64,
    dirty_evictions: u64,
    commits: u64,
    flushes: u64,
    piggybacked: u64,
    log_bytes: u64,
}

impl RelCounters {
    fn add(&mut self, a: &RelSnap, b: &RelSnap) {
        self.page_reads += b.e.page_reads - a.e.page_reads;
        self.page_writes += b.e.page_writes - a.e.page_writes;
        self.dwb_writes += b.e.dwb_writes - a.e.dwb_writes;
        self.accesses += b.p.accesses - a.p.accesses;
        self.misses += b.p.misses - a.p.misses;
        self.blocked_reads += b.p.blocked_reads - a.p.blocked_reads;
        self.dirty_evictions += b.p.dirty_evictions - a.p.dirty_evictions;
        self.commits += b.w.commits - a.w.commits;
        self.flushes += b.w.flushes - a.w.flushes;
        self.piggybacked += b.w.piggybacked_commits - a.w.piggybacked_commits;
        self.log_bytes += b.w.bytes_written - a.w.bytes_written;
    }

    /// The relstore, bufferpool and WAL per-layer metrics over `txns`.
    fn metrics(&self, txns: u64) -> Vec<(&'static str, f64)> {
        let per_txn = |v: u64| v as f64 / txns.max(1) as f64;
        let per_commit = |v: u64| v as f64 / self.commits.max(1) as f64;
        vec![
            ("relstore.page_reads_per_txn", per_txn(self.page_reads)),
            ("relstore.page_writes_per_txn", per_txn(self.page_writes)),
            ("relstore.dwb_writes_per_txn", per_txn(self.dwb_writes)),
            ("bufferpool.miss_ratio", self.misses as f64 / self.accesses.max(1) as f64),
            ("bufferpool.blocked_read_frac", self.blocked_reads as f64 / self.misses.max(1) as f64),
            ("bufferpool.dirty_evictions_per_txn", per_txn(self.dirty_evictions)),
            ("wal.flushes_per_commit", per_commit(self.flushes)),
            ("wal.piggyback_frac", per_commit(self.piggybacked)),
            ("wal.bytes_per_commit", per_commit(self.log_bytes)),
        ]
    }
}

/// Counts wall time and allocations over the measured phase, in chunks.
struct Meter {
    every: u64,
    done: u64,
    t0: Instant,
    chunk_t: Instant,
    chunk_done: u64,
    a0: u64,
    rates: Vec<f64>,
}

/// Chunks per measured phase; wall ops/s is their median.
const CHUNKS: u64 = 32;

impl Meter {
    fn new(ops: u64) -> Self {
        let now = Instant::now();
        Self {
            every: (ops / CHUNKS).max(1),
            done: 0,
            t0: now,
            chunk_t: now,
            chunk_done: 0,
            a0: alloc_count(),
            rates: Vec::with_capacity(CHUNKS as usize + 1),
        }
    }

    /// `n` more ops completed.
    fn tick(&mut self, n: u64) {
        self.done += n;
        if self.done - self.chunk_done >= self.every {
            let now = Instant::now();
            let dt = now.duration_since(self.chunk_t).as_secs_f64();
            self.rates.push((self.done - self.chunk_done) as f64 / dt);
            self.chunk_t = now;
            self.chunk_done = self.done;
        }
    }

    fn finish(self, rep: &mut Report) {
        rep.allocs = alloc_count() - self.a0;
        rep.chunk_rates = self.rates;
        if rep.chunk_rates.is_empty() {
            rep.chunk_rates.push(self.done as f64 / self.t0.elapsed().as_secs_f64());
        }
    }
}

/// Build a stack `n` times, timing each build; keep the last.
fn timed_setups<T>(n: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// The DuraSSD device every workload runs on: the profile, timings and
/// 256-plane geometry of `bench::durassd_bench` (`BENCH_BLOCKS_PER_PLANE`
/// blocks per plane), with 16-page erase blocks instead of 128. The NAND
/// model keeps every programmed page in memory until its block is erased,
/// so resident memory grows with the bytes written until the device is
/// full enough to collect garbage: ~3.4 GiB with 128-page blocks, ~0.4 GiB
/// here. Fewer blocks per plane is not an option: `Ftl::maybe_gc` panics
/// at 8 or 10 (see README.md). `chips` is the chips per package: 4 as in
/// `bench::durassd_bench`, or 1 (64 planes, 128 MiB raw) for a workload
/// that runs three devices.
fn device(chips: usize) -> Ssd {
    let mut cfg = SsdConfig::durassd(bench::BENCH_BLOCKS_PER_PLANE);
    cfg.geometry.pages_per_block = 16;
    cfg.geometry.chips_per_package = chips;
    cfg.logical_capacity_pages = cfg.geometry.capacity_bytes() / 4096 * 84 / 100;
    Ssd::new(cfg)
}

/// A seed for a sub-stream (chunk, cycle, phase) of the run.
fn mix(seed: u64, stream: u64) -> u64 {
    simkit::dist::fnv1a(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run one workload on plain devices (untraced) or probed ones (traced).
pub fn run_plain(p: &Params) -> Report {
    let env: Env<Ssd> = Env { mk: &|s, _| s, tr: None, tel: None };
    dispatch(p, &env)
}

/// The traced run: probed devices, telemetry with anatomy and tracing on,
/// and benchmark spans. Returns the report, the spans and the telemetry.
pub fn run_traced(p: &Params) -> (Report, Tracer, Telemetry) {
    let tel = Telemetry::new();
    tel.enable_anatomy(8);
    tel.enable_tracing(1 << 16);
    let tr = Tracer::new(span_capacity(p));
    let mk = |mut s: Ssd, role: Role| {
        s.attach_telemetry(tel.clone());
        Probe::new(s, tr.clone(), role)
    };
    let env = Env { mk: &mk, tr: Some(&tr), tel: Some(&tel) };
    let rep = dispatch(p, &env);
    (rep, tr, tel)
}

/// Spans preallocated for a traced run, so recording stays off the heap.
fn span_capacity(p: &Params) -> usize {
    let per_op = match p.workload {
        Workload::FioRandwrite => 4,
        Workload::YcsbA => 6,
        Workload::Tpcc => 64,
        Workload::CrashRecover => 20_000,
    };
    (p.ops as usize * per_op).min(1 << 24)
}

fn dispatch<D: Dev>(p: &Params, env: &Env<D>) -> Report {
    if let Some(t) = env.tr {
        t.set_recording(false);
    }
    match p.workload {
        Workload::FioRandwrite => fio::run(p, env),
        Workload::YcsbA => ycsb::run(p, env),
        Workload::Tpcc => tpcc::run(p, env),
        Workload::CrashRecover => crash::run(p, env),
    }
}
