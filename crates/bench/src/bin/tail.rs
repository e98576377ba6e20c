//! **Tail latency** — the paper's §1/§2 motivation: read latency varies
//! wildly when reads queue behind writes and cache flushes; DuraSSD
//! "alleviates the problem of high tail latency by minimizing write stalls".
//!
//! A mixed workload (readers + writers with fsync) runs directly on the
//! devices; read latency percentiles are reported for:
//!   * a volatile-cache SSD with barriers (fsync ⇒ FLUSH CACHE stalls), and
//!   * DuraSSD with `nobarrier` (fsync never reaches the device).
//!
//! Each run records the full latency anatomy: per-segment-kind histograms
//! plus the slowest captured read and write with their breakdowns. `--json
//! PATH` writes the reads/writes × durable/volatile rows as a
//! `durassd.latency.v1` document, and `--check` gates the anatomy form of
//! the tail claim — the durable runs contain zero flush-cache segment time
//! while the slowest volatile ops are flush-dominated.
//!
//! Run: `cargo run -p bench --release --bin tail [--ops N] [--json PATH]
//! [--check]`

use bench::schema::{check_latency_report_with, LATENCY_SCHEMA};
use bench::{
    anatomy_telemetry, arg_flag, arg_str, arg_u64, durassd_bench, latency_row_json,
    print_telemetry, rule, ssd_a_bench, ssd_health_line, write_atomic, TelemetrySink,
};
use durassd::Ssd;
use forensics::{DeviceHealth, Forensic};
use simkit::dist::rng;
use simkit::dist::Rng;
use simkit::stats::LatencyStats;
use simkit::ClosedLoop;
use storage::device::LOGICAL_PAGE;
use storage::volume::Volume;
use telemetry::Telemetry;

fn mixed_run(
    dev: Ssd,
    barriers: bool,
    ops: u64,
    tel: &Telemetry,
) -> (LatencyStats, LatencyStats, Option<DeviceHealth>) {
    let mut vol = Volume::new(dev, barriers);
    let span = vol.capacity_pages() / 2;
    // Preload so reads hit media.
    let page = vec![1u8; LOGICAL_PAGE];
    let mut t = 0;
    for lpn in 0..16_384.min(span) {
        t = vol.write(lpn, &page, t).unwrap();
    }
    t = vol.fsync(t).unwrap();
    // Attach after the preload so only the mixed phase is measured; the
    // volume forwards the handle to the device for the segments it charges.
    vol.attach_telemetry(tel.clone(), "tail");
    // 64 readers + 16 writers, writers fsync every 8 writes.
    let clients = 80usize;
    let mut rngs: Vec<_> = (0..clients).map(|c| rng(0xFEED ^ (c as u64) << 20)).collect();
    let mut since = vec![0u32; clients];
    let mut reads = LatencyStats::new();
    let mut writes = LatencyStats::new();
    let mut rbuf = vec![0u8; LOGICAL_PAGE];
    let mut driver = ClosedLoop::new(clients, t);
    driver.run(ops, |c, now| {
        let r = &mut rngs[c];
        let lpn = r.gen_range(0..16_384.min(span));
        if c < 64 {
            let done = vol.read(lpn, 1, &mut rbuf, now).unwrap();
            reads.record(done - now);
            done
        } else {
            let mut done = vol.write(lpn, &page, now).unwrap();
            since[c] += 1;
            if since[c] >= 8 {
                since[c] = 0;
                done = vol.fsync(done).unwrap();
            }
            writes.record(done - now);
            done
        }
    });
    let health = vol.device().health();
    (reads, writes, health)
}

fn report(name: &str, reads: &mut LatencyStats, writes: &mut LatencyStats) {
    let ms = |v: u64| v as f64 / 1e6;
    println!(
        "{:<38} reads  p50 {:>7.3}  p99 {:>8.3}  p99.9 {:>8.3}  max {:>8.3} (ms)",
        name,
        ms(reads.percentile(50.0)),
        ms(reads.percentile(99.0)),
        ms(reads.percentile(99.9)),
        ms(reads.max())
    );
    println!(
        "{:<38} writes p50 {:>7.3}  p99 {:>8.3}  p99.9 {:>8.3}  max {:>8.3}",
        "",
        ms(writes.percentile(50.0)),
        ms(writes.percentile(99.0)),
        ms(writes.percentile(99.9)),
        ms(writes.max())
    );
}

/// Anatomy rows for one run: the slowest reads and writes with their
/// causally attributed breakdowns.
fn anatomy_rows(tel: &Telemetry, mode: &str, device: &str) -> Vec<String> {
    [("tail_mixed_reads", "dev.tail.read"), ("tail_mixed_writes", "dev.tail.write")]
        .iter()
        .filter_map(|(workload, op)| latency_row_json(workload, mode, device, op, tel))
        .collect()
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let ops = arg_u64("--ops", 60_000);
    let json_out = arg_str("--json");
    let check = arg_flag("--check");
    println!("Tail latency under mixed read/write load (64 readers, 16 writers, fsync/8)\n");
    rule(110);
    let tel1 = anatomy_telemetry();
    let (mut r1, mut w1, h1) = mixed_run(ssd_a_bench(true), true, ops, &tel1);
    report("volatile SSD, barriers ON", &mut r1, &mut w1);
    print_telemetry("    ", &tel1, &["dev.tail.read", "dev.tail.flush"]);
    if let Some(h) = &h1 {
        println!("    {}", ssd_health_line(h));
    }
    sink.add("volatile SSD, barriers ON", &tel1);
    let tel2 = anatomy_telemetry();
    let (mut r2, mut w2, h2) = mixed_run(durassd_bench(true), false, ops, &tel2);
    report("DuraSSD, nobarrier", &mut r2, &mut w2);
    print_telemetry("    ", &tel2, &["dev.tail.read", "dev.tail.flush"]);
    if let Some(h) = &h2 {
        println!("    {}", ssd_health_line(h));
    }
    sink.add("DuraSSD, nobarrier", &tel2);
    sink.finish();
    rule(110);
    let f = |a: &mut LatencyStats, b: &mut LatencyStats, p: f64| {
        a.percentile(p) as f64 / b.percentile(p).max(1) as f64
    };
    println!(
        "read-tail improvement: p99 {:.1}x   p99.9 {:.1}x — the paper's tail-tolerance claim",
        f(&mut r1, &mut r2, 99.0),
        f(&mut r1, &mut r2, 99.9)
    );

    if json_out.is_some() || check {
        let mut rows = anatomy_rows(&tel1, "volatile", "ssd_a");
        rows.extend(anatomy_rows(&tel2, "durable", "durassd"));
        let doc = format!("{{\"schema\":\"{LATENCY_SCHEMA}\",\"rows\":[{}]}}", rows.join(","));
        if let Some(path) = &json_out {
            write_atomic(path, &doc).expect("tail output path is writable");
            println!("wrote {path}");
        }
        if check {
            let failures = check_latency_report_with(&doc, 2);
            if failures.is_empty() {
                println!(
                    "check : OK (anatomy conserved; durable runs flush-free, \
                     volatile tails flush-dominated)"
                );
            } else {
                for fmsg in &failures {
                    eprintln!("check FAILED: {fmsg}");
                }
                std::process::exit(1);
            }
        }
    }
}
