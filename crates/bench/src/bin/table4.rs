//! **Table 4** — TPC-C throughput (tpmC) on the commercial-DBMS
//! configuration: write barriers ON/OFF × page sizes 16/8/4KB.
//!
//! The commercial engine of §4.3.2 opens files with O_DSYNC (a barrier
//! request for every page write) and runs a small buffer pool (2GB against
//! a 100GB database — 2%), which is why its barrier-off gain (15–23x) is
//! even larger than MySQL's.
//!
//! Run: `cargo run -p bench --release --bin table4 [--warehouses N] [--txns N]`

use bench::{
    anatomy_telemetry, arg_u64, durassd_bench, fmt_rate, print_telemetry, rule, TelemetrySink,
};
use relstore::{Engine, EngineConfig};
use telemetry::Telemetry;
use workloads::tpcc::{load, run, TpccSpec};

const PAPER_ON: [u64; 3] = [4_291, 4_845, 7_729];
const PAPER_OFF: [u64; 3] = [65_809, 110_400, 150_815];

fn run_cell(barriers: bool, page_size: usize, warehouses: u32, txns: u64, tel: &Telemetry) -> f64 {
    // DB size scales with warehouses; the commercial setup's buffer is 2%
    // of the database (2GB : 100GB).
    let spec = TpccSpec { clients: 64, ..TpccSpec::scaled(warehouses, txns) };
    let est_db_bytes = warehouses as u64
        * (spec.items as u64 * 300
            + spec.districts as u64 * spec.customers as u64 * 470
            + 40 * 1024);
    let cfg = EngineConfig::commercial_like(page_size)
        .to_builder()
        .buffer_pool_bytes((est_db_bytes / 20).max(1536 * 1024))
        .barriers(barriers)
        .data_pages((est_db_bytes * 4 / page_size as u64).max(16384))
        .log_file_blocks(8192)
        .build();
    let (mut engine, t0) =
        Engine::create(durassd_bench(true), durassd_bench(true), cfg, 0).into_parts();
    engine.set_group_commit(true);
    let (mut db, t1) = load(&mut engine, &spec, t0);
    engine.attach_telemetry(tel.clone()); // after load: measure the run only
    let rep = run(&mut engine, &mut db, &spec, t1);
    rep.tpmc
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let warehouses = arg_u64("--warehouses", 8) as u32;
    let txns = arg_u64("--txns", 20_000);
    println!("Table 4: TPC-C throughput (tpmC), commercial-DBMS configuration");
    println!("({warehouses} warehouses, {txns} transactions, O_DSYNC writes)\n");
    println!("{:<14} {:>10} {:>10} {:>10}", "Barrier", "16KB", "8KB", "4KB");
    rule(48);
    for (label, barriers, paper) in
        [("Barrier On", true, PAPER_ON), ("Barrier Off", false, PAPER_OFF)]
    {
        let tel = anatomy_telemetry();
        let mut row = Vec::new();
        for page_size in [16384usize, 8192, 4096] {
            let t = if barriers { txns / 4 } else { txns };
            row.push(run_cell(barriers, page_size, warehouses, t, &tel));
        }
        println!(
            "{:<14} {:>10} {:>10} {:>10}",
            label,
            fmt_rate(row[0]),
            fmt_rate(row[1]),
            fmt_rate(row[2])
        );
        println!(
            "{:<14} {:>10} {:>10} {:>10}   <- paper",
            "",
            fmt_rate(paper[0] as f64),
            fmt_rate(paper[1] as f64),
            fmt_rate(paper[2] as f64)
        );
        print_telemetry("      ", &tel, &["engine.commit", "engine.put"]);
        sink.add(label, &tel);
    }
    sink.finish();
}
