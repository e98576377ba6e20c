//! **perf** — reproducible wall-clock performance harness.
//!
//! Every other bench bin in this repo measures *virtual* time: the
//! discrete-event model's answer to "how fast is the device". This one
//! measures the *simulator itself* — wall-clock ops/sec, allocator traffic
//! and peak RSS for three fixed, seeded scenarios — so successive PRs leave
//! a host-side performance trajectory in `BENCH_perf.json` at the repo root
//! instead of anecdotes.
//!
//! Scenarios (fixed op counts, fixed seeds — byte-identical virtual-time
//! results run to run):
//!
//! 1. `fio_randwrite_4k` — fio-style 4KB random writes on DuraSSD (cache
//!    ON, barriers, fsync every 32) — the Table 1 hot cell;
//! 2. `ycsb_a_docstore` — YCSB-A on the document store (batch-10 group
//!    commit, barriers ON);
//! 3. `tpcc_relstore` — a TPC-C slice on the relational engine (8 clients,
//!    strict commits).
//!
//! Each scenario runs [`REPS`] times, interleaved: one round
//! runs every scenario once, from a fresh stack, before the next round
//! starts, so a slow stretch of the host spreads over all scenarios
//! instead of landing on one.
//!
//! Reported per scenario: the median wall-clock ops/sec (the headline) with
//! the min and max over the repetitions, sim-time throughput (must stay
//! constant across host-side refactors — it is the determinism canary),
//! heap allocations from the counting global allocator and allocations/op.
//! Process-wide peak RSS (`VmHWM`) is reported once.
//!
//! Flags: `--fio-ops N`, `--ycsb-records N`, `--ycsb-ops N`,
//! `--warehouses N`, `--txns N`, `--out PATH` (default
//! `BENCH_perf.json`), `--check` (exit non-zero when sim throughput or the
//! allocation count differs between repetitions of a scenario, or the
//! written JSON fails validation: parses, schema tag, no NaN, no zero
//! throughput, min ≤ median ≤ max).
//!
//! Run: `cargo run -p bench --release --bin perf`

use bench::schema::{check_perf_report, PERF_SCHEMA};
use bench::{arg_flag, arg_str, arg_u64, durassd_bench, fmt_rate, rule, write_atomic};
use docstore::{DocStore, DocStoreConfig};
use relstore::{Engine, EngineConfig};
use simkit::alloc::{alloc_count, peak_rss_bytes, CountingAlloc};
use storage::volume::Volume;
use workloads::fio::FioSpec;
use workloads::{fio, tpcc, ycsb};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// JSON schema tag; bump on layout changes so downstream tooling can gate.
const SCHEMA: &str = PERF_SCHEMA;

/// Repetitions of every scenario; the median of five is the headline.
const REPS: usize = 5;

/// One measured run of one scenario.
struct Scenario {
    name: &'static str,
    ops: u64,
    wall_ns: u64,
    sim_ns: u64,
    allocs: u64,
}

/// Every repetition of one scenario, folded into the reported row.
struct Summary {
    name: &'static str,
    ops: u64,
    reps: usize,
    /// Wall time of the median, fastest and slowest repetition.
    wall_ns: u64,
    wall_ns_min: u64,
    wall_ns_max: u64,
    /// Deterministic quantities, taken from the first repetition; `stable`
    /// says whether every other repetition repeated them exactly.
    sim_ns: u64,
    allocs: u64,
    stable: bool,
}

fn per_sec(ops: u64, ns: u64) -> f64 {
    ops as f64 / (ns.max(1) as f64 / 1e9)
}

impl Summary {
    fn of(runs: &[Scenario]) -> Self {
        let first = &runs[0];
        let mut wall: Vec<u64> = runs.iter().map(|r| r.wall_ns).collect();
        wall.sort_unstable();
        Summary {
            name: first.name,
            ops: first.ops,
            reps: runs.len(),
            wall_ns: wall[wall.len() / 2],
            wall_ns_min: wall[0],
            wall_ns_max: wall[wall.len() - 1],
            sim_ns: first.sim_ns,
            allocs: first.allocs,
            stable: runs
                .iter()
                .all(|r| (r.ops, r.sim_ns, r.allocs) == (first.ops, first.sim_ns, first.allocs)),
        }
    }
    /// Median wall-clock ops/sec; the slowest run gives the min.
    fn wall_ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.wall_ns)
    }
    fn wall_ops_per_sec_min(&self) -> f64 {
        per_sec(self.ops, self.wall_ns_max)
    }
    fn wall_ops_per_sec_max(&self) -> f64 {
        per_sec(self.ops, self.wall_ns_min)
    }
    fn sim_ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.sim_ns)
    }
    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }
}

/// Measure a closure that returns `(ops, sim_ns)`; wall-clock and the
/// allocation counter bracket exactly the measured phase (setup and load
/// happen outside, in the caller).
fn measure(name: &'static str, f: impl FnOnce() -> (u64, u64)) -> Scenario {
    let a0 = alloc_count();
    let t0 = std::time::Instant::now();
    let (ops, sim_ns) = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc_count() - a0;
    Scenario { name, ops, wall_ns, sim_ns, allocs }
}

fn fio_scenario(ops: u64) -> Scenario {
    let mut vol = Volume::new(durassd_bench(true), true);
    let span = vol.capacity_pages() * 3 / 4;
    let spec = FioSpec::random_write_4k(span, Some(32), ops);
    measure("fio_randwrite_4k", || {
        let rep = fio::run(&mut vol, &spec, 0);
        (rep.ops, rep.elapsed())
    })
}

fn ycsb_scenario(records: u64, ops: u64) -> Scenario {
    let dev = durassd_bench(true);
    let cfg = DocStoreConfig {
        batch_size: 10,
        barriers: true,
        file_blocks: 200_000,
        auto_compact_pct: 0,
        checkpoint_every_n_commits: 8,
    };
    let mut store = DocStore::create(dev, cfg);
    let spec = ycsb::YcsbSpec::workload_a(records, ops);
    let t0 = ycsb::load(&mut store, &spec, 0);
    measure("ycsb_a_docstore", || {
        let rep = ycsb::run(&mut store, &spec, t0);
        (rep.ops, rep.elapsed())
    })
}

fn tpcc_scenario(warehouses: u32, txns: u64) -> Scenario {
    let data = durassd_bench(true);
    let log = durassd_bench(true);
    let spec = tpcc::TpccSpec { clients: 8, ..tpcc::TpccSpec::scaled(warehouses, txns) };
    let est = warehouses as u64
        * (spec.items as u64 * 300 + spec.districts as u64 * spec.customers as u64 * 470 + 40_960);
    let ecfg = EngineConfig::builder(4096)
        .buffer_pool_bytes((est / 10).max(512 * 1024))
        .barriers(true)
        .data_pages((est * 4 / 4096).max(16_384))
        .log_file_blocks(8_192)
        .build();
    let (mut engine, t0) = Engine::create(data, log, ecfg, 0).into_parts();
    let (mut db, t1) = tpcc::load(&mut engine, &spec, t0);
    measure("tpcc_relstore", || {
        let rep = tpcc::run(&mut engine, &mut db, &spec, t1);
        (txns, rep.finished_at.saturating_sub(t1).max(rep.elapsed))
    })
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        // Keep the document valid JSON even if a scenario degenerates; the
        // --check pass flags the zero.
        "0".to_string()
    }
}

fn render_json(scenarios: &[Summary], rss: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"schema\":\"{SCHEMA}\","));
    out.push_str(&format!(
        "\"profile\":\"{}\",",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    ));
    out.push_str(&format!("\"peak_rss_bytes\":{rss},"));
    out.push_str("\"scenarios\":[");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ops\":{},\"reps\":{},\"wall_ns\":{},\
             \"wall_ops_per_sec\":{},\"wall_ops_per_sec_min\":{},\"wall_ops_per_sec_max\":{},\
             \"sim_ns\":{},\"sim_ops_per_sec\":{},\"allocs\":{},\"allocs_per_op\":{}}}",
            s.name,
            s.ops,
            s.reps,
            s.wall_ns,
            json_f64(s.wall_ops_per_sec()),
            json_f64(s.wall_ops_per_sec_min()),
            json_f64(s.wall_ops_per_sec_max()),
            s.sim_ns,
            json_f64(s.sim_ops_per_sec()),
            s.allocs,
            json_f64(s.allocs_per_op()),
        ));
    }
    out.push_str("]}");
    out
}

fn main() {
    let fio_ops = arg_u64("--fio-ops", 60_000);
    let ycsb_records = arg_u64("--ycsb-records", 2_000);
    let ycsb_ops = arg_u64("--ycsb-ops", 8_000);
    let warehouses = arg_u64("--warehouses", 1) as u32;
    let txns = arg_u64("--txns", 300);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    let check = arg_flag("--check");

    println!(
        "perf: wall-clock harness ({} build) — fio {fio_ops} ops, \
         YCSB-A {ycsb_records} recs/{ycsb_ops} ops, TPC-C {warehouses} wh/{txns} txns, \
         {REPS} interleaved reps",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    println!();
    println!(
        "{:<18} {:>8} {:>12} {:>21} {:>12} {:>10} {:>10}",
        "scenario", "ops", "wall ops/s", "(min..max)", "sim ops/s", "allocs", "allocs/op"
    );
    rule(97);

    let mut runs: [Vec<Scenario>; 3] = Default::default();
    for _ in 0..REPS {
        runs[0].push(fio_scenario(fio_ops));
        runs[1].push(ycsb_scenario(ycsb_records, ycsb_ops));
        runs[2].push(tpcc_scenario(warehouses, txns));
    }
    let scenarios: Vec<Summary> = runs.iter().map(|r| Summary::of(r)).collect();
    for s in &scenarios {
        println!(
            "{:<18} {:>8} {:>12} {:>21} {:>12} {:>10} {:>10.2}",
            s.name,
            s.ops,
            fmt_rate(s.wall_ops_per_sec()),
            format!(
                "({}..{})",
                fmt_rate(s.wall_ops_per_sec_min()),
                fmt_rate(s.wall_ops_per_sec_max())
            ),
            fmt_rate(s.sim_ops_per_sec()),
            s.allocs,
            s.allocs_per_op(),
        );
    }
    let rss = peak_rss_bytes();
    println!();
    println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));

    let doc = render_json(&scenarios, rss);
    write_atomic(&out, &doc).expect("perf output path is writable");
    println!("wrote {out}");

    if check {
        let mut failures = check_perf_report(&doc);
        for s in scenarios.iter().filter(|s| !s.stable) {
            failures.push(format!(
                "{}: sim ops/s or allocs differ between repetitions (determinism lost)",
                s.name
            ));
        }
        if failures.is_empty() {
            println!(
                "check : OK (schema, finite positive throughputs, min <= median <= max, \
                 sim ops/s and allocs identical across {REPS} reps)"
            );
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
