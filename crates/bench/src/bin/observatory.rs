//! **observatory** — the paper's three device-level claims from one run of
//! the scenario catalogue ([`bench::scenario`]):
//!
//! * **write amplification** — the durable cache absorbs overwrites. Every
//!   page write carries a [`WriteCause`] from the engine that issued it down
//!   to the NAND program that retired it; per cell the bin reports host
//!   pages, media pages, WAF, absorbed overwrites and the per-cause split at
//!   both boundaries (`BENCH_waf.json`).
//! * **latency anatomy** — commits never wait on FLUSH CACHE. Every host op
//!   runs inside a telemetry frame the layers below charge causally
//!   attributed segments against; per cell the bin reports the commit op's
//!   percentile ladder, the run's segment table and the slowest commit's
//!   breakdown (`BENCH_latency.json`).
//! * **tail latency** — reads stop queueing behind drains. A mixed run of 64
//!   readers and 16 writers per deployment adds four latency rows (slowest
//!   reads and writes × volatile/durable) and the read-tail improvement.
//!
//! The six cells are fio fsync-per-write random writes, YCSB-A on the
//! document store and a TPC-C slice on the relational engine, each durable
//! (DuraSSD, barriers off) and volatile (SSD-A, barriers on). Each cell runs
//! once with anatomy on, and both documents are rendered from that run.
//! `--check` gates both: per-cause conservation and durable ≥ volatile
//! absorption ([`bench::schema::check_waf_report`]); durable tails free of
//! flush-cache time and volatile tails flush-dominated
//! ([`bench::schema::check_latency_report`]).
//!
//! Flags: `--fio-ops N`, `--fio-span N`, `--ycsb-records N`, `--ycsb-ops N`,
//! `--warehouses N`, `--txns N`, `--mixed-ops N`, `--out-dir DIR` (default
//! `.`), `--trace-out PREFIX` (per-run Chrome trace and tail-outlier JSON),
//! `--telemetry-out PATH`, `--check`.
//!
//! Run: `cargo run -p bench --release --bin observatory`

use bench::scenario::{mixed_run, run_cells, Deployment, MixedRun, Scale};
use bench::schema::{check_latency_report, check_waf_report, LATENCY_SCHEMA, WAF_SCHEMA};
use bench::{
    arg_flag, arg_str, arg_u64, fmt_ns, print_telemetry, rule, ssd_health_line, write_atomic,
    TelemetrySink,
};
use storage::device::WriteCause;
use telemetry::{SegKind, Telemetry};

/// Write `<base>.trace.json` and `<base>.outliers.json` for one run.
fn write_trace(base: &str, tel: &Telemetry) {
    if let Some(doc) = tel.trace_chrome_json() {
        write_atomic(&format!("{base}.trace.json"), &doc).expect("trace output path is writable");
    }
    if let Some(doc) = tel.outliers_json() {
        write_atomic(&format!("{base}.outliers.json"), &doc)
            .expect("outlier output path is writable");
    }
}

/// Print the read and write percentile ladder of one mixed run, in ms.
fn report_mixed(name: &str, m: &mut MixedRun) {
    let ms = |v: u64| v as f64 / 1e6;
    for (label, kind, s) in [(name, "reads ", &mut m.reads), ("", "writes", &mut m.writes)] {
        println!(
            "{label:<38} {kind} p50 {:>7.3}  p99 {:>8.3}  p99.9 {:>8.3}  max {:>8.3} (ms)",
            ms(s.percentile(50.0)),
            ms(s.percentile(99.0)),
            ms(s.percentile(99.9)),
            ms(s.max())
        );
    }
}

/// Validate one written document; print each failure and return whether
/// there were none.
fn gate(what: &str, failures: Vec<String>) -> bool {
    for f in &failures {
        eprintln!("check FAILED: {what}: {f}");
    }
    failures.is_empty()
}

fn main() {
    let d = Scale::default();
    let scale = Scale {
        fio_ops: arg_u64("--fio-ops", d.fio_ops),
        fio_span: arg_u64("--fio-span", d.fio_span),
        ycsb_records: arg_u64("--ycsb-records", d.ycsb_records),
        ycsb_ops: arg_u64("--ycsb-ops", d.ycsb_ops),
        warehouses: arg_u64("--warehouses", d.warehouses as u64) as u32,
        txns: arg_u64("--txns", d.txns),
        mixed_ops: arg_u64("--mixed-ops", d.mixed_ops),
    };
    let out_dir = arg_str("--out-dir").unwrap_or_else(|| ".".to_string());
    let trace_out = arg_str("--trace-out");
    let check = arg_flag("--check");
    let mut sink = TelemetrySink::from_args();
    let trace = trace_out.is_some();

    println!(
        "observatory: fio {} ops over {} blocks, YCSB-A {} recs/{} ops, TPC-C {} wh/{} txns, \
         mixed tail {} ops",
        scale.fio_ops,
        scale.fio_span,
        scale.ycsb_records,
        scale.ycsb_ops,
        scale.warehouses,
        scale.txns,
        scale.mixed_ops
    );
    println!("durable = DuraSSD nobarrier; volatile = SSD-A with barriers\n");
    let cells = run_cells(&scale, trace);

    println!(
        "{:<18} {:<9} {:>10} {:>10} {:>6} {:>10} {:>8} {:>6}",
        "workload", "mode", "host pgs", "media pgs", "waf", "absorbed", "absorb%", "wear"
    );
    rule(84);
    for c in &cells {
        let w = &c.writes;
        println!(
            "{:<18} {:<9} {:>10} {:>10} {:>6.2} {:>10} {:>7.1}% {:>6}",
            c.workload.name(),
            c.deployment.mode,
            w.host_pages,
            w.media_pages,
            w.waf(),
            w.absorbed,
            w.absorption_pct(),
            w.wear_spread,
        );
    }
    println!();
    // Where every media page came from, per cell.
    for c in &cells {
        let parts: Vec<String> = WriteCause::ALL
            .iter()
            .filter(|k| c.writes.media_by_cause[k.index()] > 0)
            .map(|k| format!("{} {}", k.label(), c.writes.media_by_cause[k.index()]))
            .collect();
        let (w, m) = (c.workload.name(), c.deployment.mode);
        println!("{w:<18} {m:<9} media by cause: {}", parts.join("  "));
    }

    println!(
        "\n{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "workload", "mode", "commit op", "count", "p50", "p99", "p99.9", "max"
    );
    rule(102);
    for c in &cells {
        let h = c.tel.histogram(c.commit_op).expect("commit op recorded");
        println!(
            "{:<18} {:<9} {:<20} {:>8} {:>10} {:>10} {:>10} {:>10}",
            c.workload.name(),
            c.deployment.mode,
            c.commit_op,
            h.count(),
            fmt_ns(h.p50()),
            fmt_ns(h.p99()),
            fmt_ns(h.p999()),
            fmt_ns(h.max()),
        );
    }
    println!();
    // Where the slowest commit's nanoseconds went.
    for c in &cells {
        let tail = c.tel.outliers_for(c.commit_op);
        let Some(bd) = tail.first() else { continue };
        let parts: Vec<String> = SegKind::ALL
            .iter()
            .filter(|&&k| bd.seg(k) > 0)
            .map(|&k| format!("{} {}", k.label(), fmt_ns(bd.seg(k))))
            .collect();
        let (w, m) = (c.workload.name(), c.deployment.mode);
        println!("{w:<18} {m:<9} tail {} = {}", fmt_ns(bd.wall), parts.join("  "));
    }

    println!("\nTail latency under mixed read/write load (64 readers, 16 writers, fsync/8)");
    rule(110);
    let mut mixed =
        [Deployment::VOLATILE, Deployment::DURABLE].map(|d| mixed_run(d, scale.mixed_ops, trace));
    for (m, name) in mixed.iter_mut().zip(["volatile SSD, barriers ON", "DuraSSD, nobarrier"]) {
        report_mixed(name, m);
        print_telemetry("    ", &m.tel, &["dev.tail.read", "dev.tail.flush"]);
        if let Some(h) = &m.health {
            println!("    {}", ssd_health_line(h));
        }
    }
    rule(110);
    let [vol, dur] = &mut mixed;
    let mut ratio = |p: f64| vol.reads.percentile(p) as f64 / dur.reads.percentile(p).max(1) as f64;
    println!(
        "read-tail improvement: p99 {:.1}x   p99.9 {:.1}x — the paper's tail-tolerance claim",
        ratio(99.0),
        ratio(99.9)
    );

    let runs = cells.iter().map(|c| (c.workload.name(), c.deployment.mode, &c.tel));
    let runs = runs.chain(mixed.iter().map(|m| ("tail_mixed", m.deployment.mode, &m.tel)));
    for (workload, mode, tel) in runs {
        sink.add(&format!("{workload}/{mode}"), tel);
        if let Some(prefix) = &trace_out {
            write_trace(&format!("{prefix}.{workload}.{mode}"), tel);
        }
    }
    if let Some(prefix) = &trace_out {
        println!("\nwrote per-run traces and outliers under {prefix}.*");
    }
    sink.finish();

    let waf_rows: Vec<String> = cells.iter().map(|c| c.waf_row_json()).collect();
    let mut lat_rows: Vec<String> = cells.iter().map(|c| c.latency_row_json()).collect();
    lat_rows.extend(mixed.iter().flat_map(|m| m.latency_rows_json()));
    let waf_doc = format!("{{\"schema\":\"{WAF_SCHEMA}\",\"rows\":[{}]}}", waf_rows.join(","));
    let lat_doc = format!("{{\"schema\":\"{LATENCY_SCHEMA}\",\"rows\":[{}]}}", lat_rows.join(","));
    println!();
    for (name, doc) in [("BENCH_waf.json", &waf_doc), ("BENCH_latency.json", &lat_doc)] {
        let path = std::path::Path::new(&out_dir).join(name);
        let path = path.to_str().expect("output path is UTF-8");
        write_atomic(path, doc).expect("output directory is writable");
        println!("wrote {path}");
    }

    if check {
        let waf_ok = gate("BENCH_waf.json", check_waf_report(&waf_doc));
        let lat_ok = gate("BENCH_latency.json", check_latency_report(&lat_doc));
        if !(waf_ok && lat_ok) {
            std::process::exit(1);
        }
        println!(
            "check : OK (schemas, write-provenance conservation, durable ≥ volatile absorption, \
             anatomy conservation, durable tails flush-free, volatile tails flush-dominated)"
        );
    }
}
