//! **Figure 6** — LinkBench buffer miss ratio (a) and throughput (b) as the
//! buffer pool grows, under the OFF/OFF configuration, for page sizes
//! 16/8/4KB.
//!
//! The paper's shapes: the miss ratio falls as the pool grows and falls
//! *faster* for 4KB pages (less pollution per frame); throughput rises with
//! the pool without saturating, and the gap between page sizes widens.
//! Buffer sizes are expressed as a percentage of the database size (the
//! paper's 2–10GB against a 100GB database is 2–10%).
//!
//! Run: `cargo run -p bench --release --bin fig6 [--nodes N] [--ops N]`

use bench::{
    anatomy_telemetry, arg_u64, durassd_bench, fmt_rate, print_telemetry, rule, TelemetrySink,
};
use relstore::{Engine, EngineConfig};
use telemetry::Telemetry;
use workloads::linkbench::{load, run, LinkBenchSpec};

fn run_cell(
    page_size: usize,
    buffer_pct: u64,
    nodes: u64,
    ops: u64,
    tel: &Telemetry,
) -> (f64, f64) {
    let est_db_bytes = nodes * 900;
    let cfg = EngineConfig::builder(page_size)
        .buffer_pool_bytes((est_db_bytes * buffer_pct / 100).max(512 * 1024))
        .double_write(false)
        .barriers(false)
        .data_pages((est_db_bytes * 4 / page_size as u64).max(8192))
        .log_file_blocks(8192)
        .build();
    let (mut engine, t0) =
        Engine::create(durassd_bench(true), durassd_bench(true), cfg, 0).into_parts();
    engine.set_group_commit(true);
    let spec = LinkBenchSpec {
        warmup_ops: ops / 4,
        ops,
        // Lighter software cost than the Fig. 5 calibration so the I/O
        // effects of the buffer sweep are visible above the CPU floor.
        cpu_per_op: 250_000,
        ..LinkBenchSpec::scaled(nodes, ops)
    };
    let (mut graph, t1) = load(&mut engine, &spec, t0);
    engine.attach_telemetry(tel.clone()); // after load: measure the run only
    let rep = run(&mut engine, &mut graph, &spec, t1);
    (engine.miss_ratio() * 100.0, rep.tps)
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let nodes = arg_u64("--nodes", 60_000);
    let ops = arg_u64("--ops", 20_000);
    let buffers = [2u64, 4, 6, 8, 10];
    let sizes = [16384usize, 8192, 4096];
    println!("Figure 6: LinkBench vs buffer pool size (OFF/OFF, {nodes} nodes, {ops} ops)");
    println!("Buffer axis: % of database size (paper: 2-10GB of a 100GB DB).\n");
    let mut miss = vec![vec![0.0; buffers.len()]; sizes.len()];
    let mut tps = vec![vec![0.0; buffers.len()]; sizes.len()];
    let tels: Vec<Telemetry> = sizes.iter().map(|_| anatomy_telemetry()).collect();
    for (i, &ps) in sizes.iter().enumerate() {
        for (j, &b) in buffers.iter().enumerate() {
            let (m, t) = run_cell(ps, b, nodes, ops, &tels[i]);
            miss[i][j] = m;
            tps[i][j] = t;
        }
    }
    println!("(a) Buffer miss ratio (%)  — paper: ~8.5%..3.5%, 4KB lowest");
    print!("{:<8}", "pages");
    for b in buffers {
        print!("{:>9}", format!("{b}%"));
    }
    println!();
    rule(8 + 9 * buffers.len());
    for (i, &ps) in sizes.iter().enumerate() {
        print!("{:<8}", format!("{}KB", ps / 1024));
        for m in &miss[i] {
            print!("{:>9.2}", m);
        }
        println!();
    }
    println!("\n(b) Transactions per second — paper: rising, 4KB highest, no saturation");
    print!("{:<8}", "pages");
    for b in buffers {
        print!("{:>9}", format!("{b}%"));
    }
    println!();
    rule(8 + 9 * buffers.len());
    for (i, &ps) in sizes.iter().enumerate() {
        print!("{:<8}", format!("{}KB", ps / 1024));
        for t in &tps[i] {
            print!("{:>9}", fmt_rate(*t));
        }
        println!();
    }
    println!("\n(c) Segment shares and latency per page size (whole sweep)");
    for (i, &ps) in sizes.iter().enumerate() {
        println!("{}KB:", ps / 1024);
        print_telemetry("    ", &tels[i], &["engine.commit", "engine.get", "pool.miss_stall"]);
        sink.add(&format!("{}KB", ps / 1024), &tels[i]);
    }
    sink.finish();
}
