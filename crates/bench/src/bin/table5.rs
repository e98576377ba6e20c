//! **Table 5** — Couchbase throughput (ops/s) under YCSB workload-A.
//!
//! Sweeps the fsync batch size {1, 2, 5, 10, 100} with write barriers on
//! and off, for 100%-update and 50%-update mixes — the paper's
//! demonstration that DuraSSD lets Couchbase commit every update without
//! paying for flush-cache.
//!
//! Run: `cargo run -p bench --release --bin table5 [--records N] [--ops N]`

use bench::{
    anatomy_telemetry, arg_u64, durassd_bench, fmt_rate, print_telemetry, rule, TelemetrySink,
};
use docstore::{DocStore, DocStoreConfig};
use telemetry::Telemetry;
use workloads::ycsb::{load, run, YcsbSpec};

const BATCHES: [u32; 5] = [1, 2, 5, 10, 100];
const PAPER: &[(&str, bool, f64, [u64; 5])] = &[
    ("barrier ON,  update 100%", true, 1.0, [206, 398, 988, 1_954, 4_692]),
    ("barrier ON,  update  50%", true, 0.5, [195, 390, 1_400, 2_041, 4_921]),
    ("barrier OFF, update 100%", false, 1.0, [2_404, 3_464, 3_826, 4_959, 5_101]),
    ("barrier OFF, update  50%", false, 0.5, [2_406, 3_464, 4_209, 5_461, 6_208]),
];

fn run_cell(
    barriers: bool,
    update: f64,
    batch: u32,
    records: u64,
    ops: u64,
    tel: &Telemetry,
) -> f64 {
    let cfg = DocStoreConfig {
        batch_size: batch,
        barriers,
        file_blocks: 400_000,
        auto_compact_pct: 0,
        checkpoint_every_n_commits: 8,
    };
    let mut store = DocStore::create(durassd_bench(true), cfg);
    let mut spec = YcsbSpec::workload_a(records, ops);
    spec.update_fraction = update;
    let t = load(&mut store, &spec, 0);
    store.attach_telemetry(tel.clone()); // after load: measure the run only
    run(&mut store, &spec, t).throughput()
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let records = arg_u64("--records", 20_000);
    let ops = arg_u64("--ops", 20_000);
    println!("Table 5: Couchbase/YCSB-A throughput (OPS), {records} docs, {ops} ops\n");
    print!("{:<28}", "");
    for b in BATCHES {
        print!("{:>9}", format!("batch {b}"));
    }
    println!();
    rule(28 + 9 * BATCHES.len());
    for (label, barriers, update, paper) in PAPER {
        let tel = anatomy_telemetry();
        let mut row = Vec::new();
        for &b in &BATCHES {
            let cell_ops = if *barriers && b <= 2 { ops / 4 } else { ops };
            row.push(run_cell(*barriers, *update, b, records, cell_ops, &tel));
        }
        print!("{:<28}", label);
        for v in &row {
            print!("{:>9}", fmt_rate(*v));
        }
        println!();
        print!("{:<28}", "");
        for v in paper {
            print!("{:>9}", fmt_rate(*v as f64));
        }
        println!("   <- paper");
        print_telemetry("      ", &tel, &["doc.commit", "doc.set", "doc.get"]);
        sink.add(label, &tel);
    }
    sink.finish();
}
