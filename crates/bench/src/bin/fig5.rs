//! **Figure 5** — LinkBench transaction throughput under the four
//! write-barrier × double-write-buffer configurations, at page sizes
//! 16/8/4KB, on DuraSSD (data + log devices).
//!
//! The paper's headline shapes this reproduces:
//! * turning the write barrier OFF is the big win (~6x at 4KB);
//! * turning double-write OFF gains ~2x with barriers on, ~25% with them off;
//! * best (OFF/OFF, 4KB) vs worst (ON/ON, 16KB) exceeds an order of
//!   magnitude;
//! * with barriers ON, 4KB is *not* better than 8KB (the deeper-B+-tree
//!   anomaly the paper calls out).
//!
//! Run: `cargo run -p bench --release --bin fig5 [--nodes N] [--ops N]`

use bench::{
    anatomy_telemetry, arg_u64, durassd_bench, fmt_rate, print_telemetry, rule, TelemetrySink,
};
use relstore::{Engine, EngineConfig};
use telemetry::Telemetry;
use workloads::linkbench::{load, run, LinkBenchSpec};

/// Approximate bar heights read off the paper's Figure 5 (TPS).
const PAPER: &[(&str, [u64; 3])] = &[
    ("ON  / ON ", [1_500, 2_700, 2_500]),
    ("ON  / OFF", [3_100, 5_300, 4_900]),
    ("OFF / ON ", [11_000, 17_000, 26_000]),
    ("OFF / OFF", [14_000, 21_000, 33_000]),
];

fn run_cell(
    barriers: bool,
    double_write: bool,
    page_size: usize,
    nodes: u64,
    ops: u64,
    tel: &Telemetry,
) -> (f64, f64) {
    // DB:buffer ratio ~10:1, like the paper's 100GB DB / 10GB pool. A
    // loaded graph costs ~900B/node across the three trees (with B+-tree
    // fill factor); the tablespace gets generous headroom for churn.
    let est_db_bytes = nodes * 900;
    let cfg = EngineConfig::builder(page_size)
        .buffer_pool_bytes(est_db_bytes / 10)
        .double_write(double_write)
        .barriers(barriers)
        .data_pages((est_db_bytes * 4 / page_size as u64).max(8192))
        .log_file_blocks(8192) // 32MB each
        .build();
    let data = durassd_bench(true);
    let log = durassd_bench(true);
    let (mut engine, t0) = Engine::create(data, log, cfg, 0).into_parts();
    engine.set_group_commit(true);
    let spec = LinkBenchSpec { warmup_ops: ops / 5, ops, ..LinkBenchSpec::scaled(nodes, ops) };
    let (mut graph, t1) = load(&mut engine, &spec, t0);
    engine.attach_telemetry(tel.clone()); // after load: measure the run only
    let rep = run(&mut engine, &mut graph, &spec, t1);
    (rep.tps, engine.miss_ratio())
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let nodes = arg_u64("--nodes", 60_000);
    let ops = arg_u64("--ops", 30_000);
    println!("Figure 5: LinkBench TPS, write-barrier / double-write grid");
    println!("({nodes} nodes, {ops} measured ops, 128 clients)\n");
    println!("{:<12} {:>9} {:>9} {:>9}", "Barr/DWB", "16KB", "8KB", "4KB");
    rule(42);
    for (label, paper) in PAPER {
        let barriers = label.starts_with("ON");
        let double_write = label.ends_with("ON ");
        let tel = anatomy_telemetry();
        let mut tps = Vec::new();
        for page_size in [16384usize, 8192, 4096] {
            let (v, _) = run_cell(barriers, double_write, page_size, nodes, ops, &tel);
            tps.push(v);
        }
        println!(
            "{:<12} {:>9} {:>9} {:>9}",
            label,
            fmt_rate(tps[0]),
            fmt_rate(tps[1]),
            fmt_rate(tps[2])
        );
        println!(
            "{:<12} {:>9} {:>9} {:>9}   <- paper (approx from figure)",
            "",
            fmt_rate(paper[0] as f64),
            fmt_rate(paper[1] as f64),
            fmt_rate(paper[2] as f64)
        );
        print_telemetry("    ", &tel, &["engine.commit", "engine.get"]);
        sink.add(label.trim_end(), &tel);
    }
    sink.finish();
    println!(
        "\nThe barrier rows pay their time to `flush_cache` (commit fsyncs that\n\
         drain the device cache) and their commit p50 sits in the milliseconds;\n\
         the OFF rows run the same commits with `flush_cache` at 0% — the\n\
         durable cache absorbs durability."
    );
}
