//! **latency** — per-op latency anatomy: where every commit nanosecond went.
//!
//! Every host operation runs inside a telemetry *frame*; the layers below it
//! (SATA link, NAND channels, cache admission, GC, WAL, map persistence,
//! FLUSH CACHE drains) charge causally attributed segments against that
//! frame, and the close audits the conservation identity — segments never
//! exceed the op's wall latency, with the un-attributed remainder swept into
//! a `host` segment. This bin runs the same three workloads as `waf` — fio
//! fsync-per-write random writes, YCSB-A on the document store, a TPC-C
//! slice on the relational engine — each in two deployments:
//!
//! * **durable** — DuraSSD (capacitor-backed cache), barriers OFF: fsync is
//!   acknowledged from the durable cache, so no commit ever waits on a
//!   FLUSH CACHE drain;
//! * **volatile** — SSD-A (volatile cache), barriers ON: every commit pays a
//!   real cache drain, and the tail is flush-dominated.
//!
//! Per row it reports the commit-op percentile ladder, the per-segment-kind
//! histograms for the whole run, and the slowest captured commit's full
//! breakdown (the "tail" object). `--check` gates the paper's durability
//! claim restated as latency anatomy: durable tails contain **zero**
//! flush-cache time while every volatile tail is flush-dominated
//! ([`bench::schema::check_latency_report`]).
//!
//! Flags: `--fio-ops N`, `--fio-span N`, `--ycsb-records N`, `--ycsb-ops N`,
//! `--warehouses N`, `--txns N`, `--top-k N` (outliers kept per op),
//! `--out PATH` (default `BENCH_latency.json`), `--check`,
//! `--trace-out PREFIX` (per-row Chrome trace + tail-outlier JSON sibling).
//!
//! Run: `cargo run -p bench --release --bin latency`

use bench::schema::{check_latency_report, LATENCY_SCHEMA};
use bench::{
    arg_flag, arg_str, arg_u64, durassd_bench, fmt_ns, latency_row_json, rule, ssd_a_bench,
    write_atomic,
};
use docstore::{DocStore, DocStoreConfig};
use durassd::Ssd;
use relstore::{Engine, EngineConfig};
use storage::device::BlockDevice;
use storage::volume::Volume;
use telemetry::{SegKind, Telemetry};
use workloads::fio::FioSpec;
use workloads::{fio, tpcc, ycsb};

/// One workload × deployment cell; the row keeps its whole registry so the
/// renderer can read commit histograms, segment histograms, and outliers.
struct LatRow {
    workload: &'static str,
    mode: &'static str,
    device: &'static str,
    commit_op: &'static str,
    tel: Telemetry,
}

/// A fresh anatomy-enabled registry for one row.
fn row_tel(top_k: u64, trace: bool) -> Telemetry {
    let tel = Telemetry::new();
    tel.enable_anatomy(top_k as usize);
    if trace {
        tel.enable_tracing(1 << 20);
    }
    tel
}

/// The device under test for one deployment mode: DuraSSD (nobarrier) or
/// SSD-A (barriers). Returns the device and whether barriers are honoured.
fn device_for(durable: bool) -> (Ssd, bool, &'static str) {
    if durable {
        (durassd_bench(true), false, "durassd")
    } else {
        (ssd_a_bench(true), true, "ssd_a")
    }
}

fn mode_name(durable: bool) -> &'static str {
    if durable {
        "durable"
    } else {
        "volatile"
    }
}

/// fio with an fsync after every 4KB write. The commit op is the fsync
/// itself: a real FLUSH CACHE frame when barriers are on, the in-kernel
/// soft-fsync frame (pure `wal_fsync` time) on the nobarrier deployment.
fn fio_row(durable: bool, ops: u64, span: u64, top_k: u64, trace: bool) -> LatRow {
    let (dev, barriers, device) = device_for(durable);
    let tel = row_tel(top_k, trace);
    let mut vol = Volume::new(dev, barriers);
    vol.attach_telemetry(tel.clone(), "fio");
    let spec = FioSpec::random_write_4k(span, Some(1), ops);
    fio::run(&mut vol, &spec, 0);
    LatRow {
        workload: "fio_overwrite_4k",
        mode: mode_name(durable),
        device,
        commit_op: if durable { "dev.fio.fsync_soft" } else { "dev.fio.flush" },
        tel,
    }
}

/// YCSB-A on the document store; the commit op is `doc.set` (batched
/// commits close inside the set frame that triggered them).
fn ycsb_row(durable: bool, records: u64, ops: u64, top_k: u64, trace: bool) -> LatRow {
    let (mut dev, barriers, device) = device_for(durable);
    let tel = row_tel(top_k, trace);
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
    let spec = ycsb::YcsbSpec::workload_a(records, ops);
    let t0 = ycsb::load(&mut store, &spec, 0);
    ycsb::run(&mut store, &spec, t0);
    LatRow {
        workload: "ycsb_a_docstore",
        mode: mode_name(durable),
        device,
        commit_op: "doc.set",
        tel,
    }
}

/// A TPC-C slice on the relational engine; the commit op is
/// `engine.commit` (WAL group commit + log flush).
fn tpcc_row(durable: bool, warehouses: u32, txns: u64, top_k: u64, trace: bool) -> LatRow {
    let (mut data, barriers, device) = device_for(durable);
    let (mut log, _, _) = device_for(durable);
    let tel = row_tel(top_k, trace);
    data.attach_telemetry(tel.clone());
    log.attach_telemetry(tel.clone());
    let spec = tpcc::TpccSpec { clients: 8, ..tpcc::TpccSpec::scaled(warehouses, txns) };
    let est = warehouses as u64
        * (spec.items as u64 * 300 + spec.districts as u64 * spec.customers as u64 * 470 + 40_960);
    let ecfg = EngineConfig::builder(4096)
        .buffer_pool_bytes((est / 10).max(512 * 1024))
        .barriers(barriers)
        .data_pages((est * 4 / 4096).max(16_384))
        .log_file_blocks(8_192)
        .build();
    let (mut engine, t0) = Engine::create(data, log, ecfg, 0).into_parts();
    engine.attach_telemetry(tel.clone());
    let (mut db, t1) = tpcc::load(&mut engine, &spec, t0);
    tpcc::run(&mut engine, &mut db, &spec, t1);
    LatRow {
        workload: "tpcc_relstore",
        mode: mode_name(durable),
        device,
        commit_op: "engine.commit",
        tel,
    }
}

fn render_json(rows: &[LatRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"schema\":\"{LATENCY_SCHEMA}\",\"rows\":["));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let row = latency_row_json(r.workload, r.mode, r.device, r.commit_op, &r.tel);
        out.push_str(&row.expect("commit op recorded and captured"));
    }
    out.push_str("]}");
    out
}

fn main() {
    let fio_ops = arg_u64("--fio-ops", 40_000);
    let fio_span = arg_u64("--fio-span", 2_048);
    let ycsb_records = arg_u64("--ycsb-records", 1_000);
    let ycsb_ops = arg_u64("--ycsb-ops", 6_000);
    let warehouses = arg_u64("--warehouses", 1) as u32;
    let txns = arg_u64("--txns", 300);
    let top_k = arg_u64("--top-k", 8);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_latency.json".to_string());
    let trace_out = arg_str("--trace-out");
    let check = arg_flag("--check");

    println!(
        "latency: per-op anatomy — fio {fio_ops} ops over {fio_span} blocks, \
         YCSB-A {ycsb_records} recs/{ycsb_ops} ops, TPC-C {warehouses} wh/{txns} txns"
    );
    println!("durable = DuraSSD nobarrier; volatile = SSD-A with barriers\n");

    let trace = trace_out.is_some();
    let rows = vec![
        fio_row(true, fio_ops, fio_span, top_k, trace),
        fio_row(false, fio_ops, fio_span, top_k, trace),
        ycsb_row(true, ycsb_records, ycsb_ops, top_k, trace),
        ycsb_row(false, ycsb_records, ycsb_ops, top_k, trace),
        tpcc_row(true, warehouses, txns, top_k, trace),
        tpcc_row(false, warehouses, txns, top_k, trace),
    ];

    println!(
        "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "workload", "mode", "commit op", "count", "p50", "p99", "p99.9", "max"
    );
    rule(102);
    for r in &rows {
        let h = r.tel.histogram(r.commit_op).expect("commit op recorded");
        println!(
            "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
            r.workload,
            r.mode,
            r.commit_op,
            h.count(),
            fmt_ns(h.p50()),
            fmt_ns(h.p99()),
            fmt_ns(h.p999()),
            fmt_ns(h.max()),
        );
    }
    println!();
    // The anatomy story: where the slowest commit's nanoseconds went.
    for r in &rows {
        let tail = r.tel.outliers_for(r.commit_op);
        let Some(bd) = tail.first() else { continue };
        let mut parts = Vec::new();
        for k in SegKind::ALL {
            let ns = bd.seg(k);
            if ns > 0 {
                parts.push(format!("{} {}", k.label(), fmt_ns(ns)));
            }
        }
        println!(
            "{:<18} {:<9} tail {} = {}",
            r.workload,
            r.mode,
            fmt_ns(bd.wall),
            parts.join("  ")
        );
    }

    if let Some(prefix) = &trace_out {
        for r in &rows {
            let base = format!("{prefix}.{}.{}", r.workload, r.mode);
            if let Some(doc) = r.tel.trace_chrome_json() {
                write_atomic(&format!("{base}.trace.json"), &doc)
                    .expect("trace output path is writable");
            }
            if let Some(doc) = r.tel.outliers_json() {
                write_atomic(&format!("{base}.outliers.json"), &doc)
                    .expect("outlier output path is writable");
            }
        }
        println!("\nwrote per-row traces and outliers under {prefix}.*");
    }

    let doc = render_json(&rows);
    write_atomic(&out, &doc).expect("latency output path is writable");
    println!("\nwrote {out}");

    if check {
        let failures = check_latency_report(&doc);
        if failures.is_empty() {
            println!(
                "check : OK (schema, conservation, durable tail flush-free, \
                 volatile tail flush-dominated)"
            );
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
