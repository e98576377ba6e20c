//! The metrics `BENCHMARK.json` names, and how each is computed from a
//! [`Report`] (end to end) or from a traced report, its spans and its
//! telemetry (per layer). README.md maps each per-layer metric to the
//! end-to-end metric it should move.

use crate::trace::{self_times, Name, Role, Span};
use crate::Report;
use std::collections::BTreeMap;
use storage::device::WriteCause;
use telemetry::{SegKind, Telemetry};

/// End-to-end metrics: `(name, unit)`. All come from the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_ops_per_s", "op/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("allocs_per_op", "count/op"),
    ("sim_ops_per_s", "op/s"),
    ("device_waf", "ratio"),
    ("recovery_sim_ms_p50", "ms"),
];

/// Printed with the end-to-end metrics but not reported in the result
/// line: their run-to-run spread on a shared 2-vCPU host (recovery wall
/// time) or their absence on a workload (TPC-C has no per-transaction
/// latency) keeps them out of the gated set. README.md has the numbers.
pub const INFORMATIONAL: &[(&str, &str)] =
    &[("recovery_wall_ms_p50", "ms"), ("sim_op_p50_us", "us"), ("sim_op_p99_us", "us")];

/// Per-layer metrics: `(name, unit)`. All come from the traced run; a
/// layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("durassd.wall_frac", "ratio"),
    ("durassd.read.calls_per_op", "count/op"),
    ("durassd.read.wall_ns_p50", "ns"),
    ("durassd.write.calls_per_op", "count/op"),
    ("durassd.write.wall_ns_p50", "ns"),
    ("durassd.flush.calls_per_op", "count/op"),
    ("durassd.flush.wall_us_p50", "us"),
    ("durassd.reboot.wall_ms", "ms"),
    ("durassd.allocs_per_call", "count/call"),
    ("durassd.write.sim_us_p99", "us"),
    ("durassd.flush.sim_us_p50", "us"),
    ("durassd.read.sim_us_p50", "us"),
    ("durassd.absorbed_frac", "ratio"),
    ("durassd.cache_hit_read_frac", "ratio"),
    ("durassd.sata_busy_frac", "ratio"),
    ("durassd.pipe_busy_frac", "ratio"),
    ("durassd.lost_acked_slots", "count"),
    ("ftl.gc_erases_per_kop", "count/kop"),
    ("ftl.gc_relocated_per_kop", "count/kop"),
    ("ftl.meta_programs_per_kop", "count/kop"),
    ("ftl.gc_pause_us_per_op", "us/op"),
    ("waf.host_data", "ratio"),
    ("waf.wal_append", "ratio"),
    ("waf.page_image", "ratio"),
    ("waf.doc_rewrite", "ratio"),
    ("waf.gc_relocate", "ratio"),
    ("waf.map_persist", "ratio"),
    ("waf.emergency_dump", "ratio"),
    ("storage.self_ns_per_op", "ns/op"),
    ("docstore.set.wall_us_p50", "us"),
    ("docstore.get.wall_ns_p50", "ns"),
    ("docstore.self_frac", "ratio"),
    ("docstore.set.allocs_per_call", "count/call"),
    ("docstore.bytes_appended_per_set", "B/set"),
    ("docstore.compactions_per_kop", "count/kop"),
    ("docstore.get.cache_hit_ratio", "ratio"),
    ("docstore.recover.wall_ms_p50", "ms"),
    ("docstore.recover.read_calls", "count"),
    ("relstore.self_frac", "ratio"),
    ("relstore.allocs_per_txn", "count/txn"),
    ("relstore.page_reads_per_txn", "count/txn"),
    ("relstore.page_writes_per_txn", "count/txn"),
    ("relstore.dwb_writes_per_txn", "count/txn"),
    ("relstore.recover.wall_ms_p50", "ms"),
    ("relstore.replayed_per_recovery", "count"),
    ("bufferpool.miss_ratio", "ratio"),
    ("bufferpool.blocked_read_frac", "ratio"),
    ("bufferpool.dirty_evictions_per_txn", "count/txn"),
    ("wal.flushes_per_commit", "ratio"),
    ("wal.piggyback_frac", "ratio"),
    ("wal.bytes_per_commit", "B/commit"),
    ("wal.device_wall_frac", "ratio"),
    ("workloads.gen_wall_frac", "ratio"),
    ("workloads.sim_op_p50_us", "us"),
    ("workloads.sim_op_p99_us", "us"),
    ("telemetry.overhead_frac", "ratio"),
    ("seg.flush_cache_frac", "ratio"),
    ("seg.gc_wait_frac", "ratio"),
    ("seg.wal_fsync_frac", "ratio"),
    ("seg.media_program_frac", "ratio"),
    ("seg.host_frac", "ratio"),
    ("anatomy.violations", "count"),
];

/// Nearest-rank percentile of a sorted slice (0 when empty).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (0 when empty).
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn wall_ops_per_s(rep: &Report) -> f64 {
    median(&rep.chunk_rates)
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(rep: &Report, peak_rss_bytes: u64) -> Vec<f64> {
    let rec_sim: Vec<f64> = rep.recoveries.iter().map(|r| r.sim_ns as f64 / 1e6).collect();
    vec![
        wall_ops_per_s(rep),
        median(&rep.setup_s),
        peak_rss_bytes as f64 / (1024.0 * 1024.0),
        ratio(rep.allocs, rep.ops),
        rep.ops as f64 / (rep.sim_ns.max(1) as f64 / 1e9),
        ratio(rep.dev.media_pages, rep.dev.host_pages),
        median(&rec_sim),
    ]
}

/// The [`INFORMATIONAL`] metrics of an untraced run, in order.
pub fn informational(rep: &Report) -> Vec<f64> {
    let rec_wall: Vec<f64> = rep.recoveries.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let mut lat = rep.op_lat.clone();
    lat.sort_unstable();
    vec![median(&rec_wall), pct(&lat, 50.0) as f64 / 1e3, pct(&lat, 99.0) as f64 / 1e3]
}

/// Span durations, sim times and allocation counts by span name, over the
/// spans of one phase.
#[derive(Default)]
struct ByName {
    wall: Vec<u64>,
    sim: Vec<u64>,
    own: u64,
    allocs: u64,
}

impl ByName {
    fn calls(&self) -> u64 {
        self.wall.len() as u64
    }
    fn wall_sum(&self) -> u64 {
        self.wall.iter().sum()
    }
}

fn add(m: &mut BTreeMap<&'static str, ByName>, s: &Span, own: u64) {
    let b = m.entry(s.name.label()).or_default();
    b.wall.push(s.end - s.start);
    b.sim.push(s.sim_ns);
    b.own += own;
    b.allocs += s.allocs;
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
/// `plain` is the untraced run of the same parameters.
pub fn per_layer(rep: &Report, plain: &Report, spans: &[Span], tel: &Telemetry) -> Vec<f64> {
    let own = self_times(spans);
    // Which root each span hangs under: measured op or restart.
    let mut measured_root = Vec::new();
    let mut measured: BTreeMap<&'static str, ByName> = BTreeMap::new();
    let mut any: BTreeMap<&'static str, ByName> = BTreeMap::new();
    let (mut wall, mut log_wall) = (0u64, 0u64);
    let mut recover_reads: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == u32::MAX {
            measured_root.push(s.name == Name::Op);
        }
        let in_measured = measured_root[s.op as usize];
        let dur = s.end - s.start;
        if in_measured && s.parent == u32::MAX {
            wall += dur;
        }
        if in_measured && s.role == Role::Log {
            log_wall += dur;
        }
        if s.name == Name::DevRead
            && s.parent != u32::MAX
            && spans[s.parent as usize].name == Name::DocRecover
        {
            *recover_reads.entry(s.parent).or_default() += 1;
        }
        if in_measured {
            add(&mut measured, s, own[i]);
        }
        add(&mut any, s, own[i]);
    }
    for m in [&mut measured, &mut any] {
        for b in m.values_mut() {
            b.wall.sort_unstable();
            b.sim.sort_unstable();
        }
    }
    let empty = ByName::default();
    let m = |n: Name| measured.get(n.label()).unwrap_or(&empty);
    let a = |n: Name| any.get(n.label()).unwrap_or(&empty);
    let layer_sum = |layer: &str, f: &dyn Fn(&ByName) -> u64| -> u64 {
        measured.iter().filter(|(k, _)| k.starts_with(layer)).map(|(_, b)| f(b)).sum()
    };
    let dev_calls = layer_sum("durassd.", &|b| b.calls());
    let dev_wall = layer_sum("durassd.", &|b| b.wall_sum());
    let dev_allocs = layer_sum("durassd.", &|b| b.allocs);
    let ops = rep.ops.max(1) as f64;
    let d = &rep.dev;
    let per_kop = |v: u64| v as f64 * 1e3 / ops;
    let busy = |v: u64| v as f64 / (rep.sim_ns.max(1) as f64 * d.devices.max(1) as f64);
    let waf = |c: WriteCause| ratio(d.media_by_cause[c.index()], d.host_pages);
    let mut lat = rep.op_lat.clone();
    lat.sort_unstable();
    let seg = |k: SegKind| tel.histogram(k.hist_name()).map_or(0, |h| h.sum()) as f64;
    let seg_total: f64 = SegKind::ALL.iter().map(|&k| seg(k)).sum::<f64>().max(1.0);
    let mut doc_reads: Vec<u64> = recover_reads.into_values().collect();
    doc_reads.sort_unstable();
    let rel_top = [Name::RelPut, Name::RelCommit, Name::TpccRun];
    let rel_allocs: u64 = rel_top.iter().map(|&n| m(n).allocs).sum();
    let from_workload =
        |name: &str| rep.layer.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| *v);
    let wall_f = wall.max(1) as f64;
    let values: BTreeMap<&str, f64> = [
        ("durassd.wall_frac", dev_wall as f64 / wall_f),
        ("durassd.read.calls_per_op", m(Name::DevRead).calls() as f64 / ops),
        ("durassd.read.wall_ns_p50", pct(&m(Name::DevRead).wall, 50.0) as f64),
        ("durassd.write.calls_per_op", m(Name::DevWrite).calls() as f64 / ops),
        ("durassd.write.wall_ns_p50", pct(&m(Name::DevWrite).wall, 50.0) as f64),
        ("durassd.flush.calls_per_op", m(Name::DevFlush).calls() as f64 / ops),
        ("durassd.flush.wall_us_p50", pct(&m(Name::DevFlush).wall, 50.0) as f64 / 1e3),
        ("durassd.reboot.wall_ms", pct(&a(Name::DevReboot).wall, 50.0) as f64 / 1e6),
        ("durassd.allocs_per_call", ratio(dev_allocs, dev_calls)),
        ("durassd.write.sim_us_p99", pct(&m(Name::DevWrite).sim, 99.0) as f64 / 1e3),
        ("durassd.flush.sim_us_p50", pct(&m(Name::DevFlush).sim, 50.0) as f64 / 1e3),
        ("durassd.read.sim_us_p50", pct(&m(Name::DevRead).sim, 50.0) as f64 / 1e3),
        ("durassd.absorbed_frac", ratio(d.absorbed, d.host_pages)),
        ("durassd.cache_hit_read_frac", ratio(d.cache_hit_reads, d.reads)),
        ("durassd.sata_busy_frac", busy(d.sata_busy)),
        ("durassd.pipe_busy_frac", busy(d.pipe_busy)),
        ("durassd.lost_acked_slots", rep.lost_acked_slots as f64),
        ("ftl.gc_erases_per_kop", per_kop(d.gc_erases)),
        ("ftl.gc_relocated_per_kop", per_kop(d.gc_relocated)),
        ("ftl.meta_programs_per_kop", per_kop(d.meta_programs)),
        ("ftl.gc_pause_us_per_op", d.gc_ns as f64 / 1e3 / ops),
        ("waf.host_data", waf(WriteCause::HostData)),
        ("waf.wal_append", waf(WriteCause::WalAppend)),
        ("waf.page_image", waf(WriteCause::PageImage)),
        ("waf.doc_rewrite", waf(WriteCause::DocRewrite)),
        ("waf.gc_relocate", waf(WriteCause::GcRelocate)),
        ("waf.map_persist", waf(WriteCause::MapPersist)),
        ("waf.emergency_dump", waf(WriteCause::EmergencyDump)),
        ("storage.self_ns_per_op", layer_sum("storage.", &|b| b.own) as f64 / ops),
        ("docstore.set.wall_us_p50", pct(&m(Name::DocSet).wall, 50.0) as f64 / 1e3),
        ("docstore.get.wall_ns_p50", pct(&m(Name::DocGet).wall, 50.0) as f64),
        ("docstore.self_frac", layer_sum("docstore.", &|b| b.own) as f64 / wall_f),
        ("docstore.set.allocs_per_call", ratio(m(Name::DocSet).allocs, m(Name::DocSet).calls())),
        ("docstore.recover.wall_ms_p50", pct(&a(Name::DocRecover).wall, 50.0) as f64 / 1e6),
        ("docstore.recover.read_calls", pct(&doc_reads, 50.0) as f64),
        ("relstore.self_frac", layer_sum("relstore.", &|b| b.own) as f64 / wall_f),
        ("relstore.allocs_per_txn", ratio(rel_allocs, rep.rel_txns)),
        ("relstore.recover.wall_ms_p50", pct(&a(Name::RelRecover).wall, 50.0) as f64 / 1e6),
        ("wal.device_wall_frac", log_wall as f64 / wall_f),
        ("workloads.gen_wall_frac", layer_sum("workloads.", &|b| b.own) as f64 / wall_f),
        ("workloads.sim_op_p50_us", pct(&lat, 50.0) as f64 / 1e3),
        ("workloads.sim_op_p99_us", pct(&lat, 99.0) as f64 / 1e3),
        ("telemetry.overhead_frac", 1.0 - wall_ops_per_s(rep) / wall_ops_per_s(plain).max(1e-9)),
        ("seg.flush_cache_frac", seg(SegKind::FlushCache) / seg_total),
        ("seg.gc_wait_frac", seg(SegKind::GcWait) / seg_total),
        ("seg.wal_fsync_frac", seg(SegKind::WalFsync) / seg_total),
        ("seg.media_program_frac", seg(SegKind::MediaProgram) / seg_total),
        ("seg.host_frac", seg(SegKind::Host) / seg_total),
        ("anatomy.violations", tel.anatomy_violations() as f64),
    ]
    .into_iter()
    .collect();
    PER_LAYER
        .iter()
        .map(|(name, _)| values.get(name).copied().unwrap_or_else(|| from_workload(name)))
        .collect()
}
