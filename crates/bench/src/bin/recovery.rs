//! **recovery** — time-to-first-read after a crash, across device classes
//! and checkpoint cadences.
//!
//! The paper argues DuraSSD makes the *write path* fast; this bin measures
//! the flip side of that bargain: how long the database is unavailable
//! after a power cut. Each trial drives a committed workload with a deep
//! dirty pool and a large outstanding WAL, pulls the plug, then recovers
//! and issues one read. Reported per trial:
//!
//! - `replayed` / `skipped` / `torn` — the logical-replay accounting from
//!   [`simkit::ReplayStats`]: records re-applied after the last complete
//!   checkpoint, records the checkpoint let us skip, and torn tail frames;
//! - `outstanding_bytes` — log (or header-chain) bytes past the checkpoint
//!   at the moment of the cut;
//! - `recovery_sim_ns` — simulated time from reboot to a usable store;
//! - `ttfr_sim_ns` — simulated time to the first completed read (the
//!   user-visible outage), always ≥ `recovery_sim_ns`;
//! - `recovery_wall_ns` — host wall-clock spent inside recovery (the
//!   simulator-side cost, not a claim about real hardware).
//!
//! Three devices (DuraSSD lean mount without barriers, a volatile-cache
//! SSD and a Cheetah-class disk both with barriers) × two checkpoint
//! intervals, for both the relational engine and the document store.
//! Writes `BENCH_recovery.json` (schema `durassd.recovery.v1`); `--check`
//! re-validates it with [`bench::schema::check_recovery_report`] and exits
//! non-zero on violation.
//!
//! Flags: `--commits N` (relational commits per trial), `--doc-ops N`,
//! `--out PATH`, `--check`.
//!
//! Run: `cargo run -p bench --release --bin recovery`

use bench::schema::{check_recovery_report, RECOVERY_SCHEMA};
use bench::{
    arg_flag, arg_str, arg_u64, durassd_bench, fmt_ns, hdd_bench, rule, ssd_a_bench, write_atomic,
};
use docstore::{DocStore, DocStoreConfig};
use relstore::{Engine, EngineConfig};
use simkit::ReplayStats;
use storage::device::BlockDevice;

/// Checkpoint intervals (in commits) the sweep covers.
const INTERVALS: [u64; 2] = [256, 2048];

struct Row {
    engine: &'static str,
    device: &'static str,
    ckpt_interval: u64,
    commits: u64,
    outstanding_bytes: u64,
    stats: ReplayStats,
    recovery_wall_ns: u64,
    ttfr_sim_ns: u64,
}

fn key_of(i: u64) -> Vec<u8> {
    format!("k{:06}", i % 512).into_bytes()
}

fn val_of(i: u64) -> Vec<u8> {
    format!("v{i}:{}", "x".repeat(110)).into_bytes()
}

/// One relational trial: strict single-put commits with the engine's
/// `EveryNCommits` policy driving checkpoints, a crash mid-interval, then
/// recovery + one read.
fn rel_trial<D: BlockDevice>(
    data: D,
    log: D,
    device: &'static str,
    barriers: bool,
    interval: u64,
    commits: u64,
) -> Row {
    let cfg = EngineConfig::builder(4096)
        .buffer_pool_bytes(256 * 4096)
        .double_write(false)
        .barriers(barriers)
        .data_pages(16_384)
        .log_files(2)
        .log_file_blocks(2_048)
        .dwb_pages(32)
        .checkpoint_every_n_commits(interval)
        .build();
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..commits {
        now = e.put(tree, &key_of(i), &val_of(i), now);
        now = e.commit(now);
    }
    let outstanding = e.wal_outstanding_bytes();
    let cut = now + 1;
    let (d, l) = e.crash(cut);
    let wall0 = std::time::Instant::now();
    let recovered = Engine::recover(d, l, cfg, cut + 1).expect("recovery");
    let recovery_wall_ns = wall0.elapsed().as_nanos() as u64;
    let stats = recovered.stats;
    let (mut e2, t2) = recovered.into_parts();
    let (_, t3) = e2.get(tree, &key_of(commits - 1), t2).into_parts();
    Row {
        engine: "relstore",
        device,
        ckpt_interval: interval,
        commits,
        outstanding_bytes: outstanding,
        stats,
        recovery_wall_ns,
        ttfr_sim_ns: t3.saturating_sub(cut + 1),
    }
}

/// One document-store trial: single-set commit headers with every
/// `interval`-th header promoted to a checkpoint anchor.
fn doc_trial<D: BlockDevice>(
    dev: D,
    device: &'static str,
    barriers: bool,
    interval: u64,
    ops: u64,
) -> Row {
    let cfg = DocStoreConfig {
        batch_size: 1,
        barriers,
        file_blocks: 65_536,
        auto_compact_pct: 0,
        checkpoint_every_n_commits: interval,
    };
    let mut s = DocStore::create(dev, cfg);
    let mut now = 0;
    for i in 0..ops {
        now = s.set(&key_of(i), &val_of(i), now);
    }
    let outstanding = s.outstanding_bytes();
    let cut = now + 1;
    let dev = s.crash(cut);
    let wall0 = std::time::Instant::now();
    let recovered = DocStore::recover(dev, cfg, cut + 1);
    let recovery_wall_ns = wall0.elapsed().as_nanos() as u64;
    let stats = recovered.stats;
    let (mut s2, t2) = recovered.into_parts();
    let (_, t3) = s2.get(&key_of(ops - 1), t2).into_parts();
    Row {
        engine: "docstore",
        device,
        ckpt_interval: interval,
        commits: ops,
        outstanding_bytes: outstanding,
        stats,
        recovery_wall_ns,
        ttfr_sim_ns: t3.saturating_sub(cut + 1),
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"schema\":\"{RECOVERY_SCHEMA}\","));
    out.push_str(&format!(
        "\"profile\":\"{}\",",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    ));
    out.push_str("\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"engine\":\"{}\",\"device\":\"{}\",\"ckpt_interval\":{},\"commits\":{},\
             \"outstanding_bytes\":{},\"replayed\":{},\"skipped\":{},\"torn\":{},\
             \"checkpoint_lsn\":{},\"recovery_wall_ns\":{},\"recovery_sim_ns\":{},\
             \"ttfr_sim_ns\":{}}}",
            r.engine,
            r.device,
            r.ckpt_interval,
            r.commits,
            r.outstanding_bytes,
            r.stats.replayed,
            r.stats.skipped,
            r.stats.torn,
            r.stats.checkpoint_lsn,
            r.recovery_wall_ns,
            r.stats.replay_ns,
            r.ttfr_sim_ns,
        ));
    }
    out.push_str("]}");
    out
}

fn main() {
    let commits = arg_u64("--commits", 3_000);
    let doc_ops = arg_u64("--doc-ops", 3_000);
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_recovery.json".to_string());
    let check = arg_flag("--check");

    println!(
        "recovery: crash + time-to-first-read — {commits} relational commits, \
         {doc_ops} docstore sets, checkpoint intervals {INTERVALS:?}"
    );
    println!();
    println!(
        "{:<9} {:<13} {:>8} {:>9} {:>9} {:>5} {:>12} {:>12} {:>12}",
        "engine",
        "device",
        "ckpt_iv",
        "replayed",
        "skipped",
        "torn",
        "outstanding",
        "recovery",
        "ttfr"
    );
    rule(98);

    let mut rows = Vec::new();
    for interval in INTERVALS {
        // DuraSSD: the lean mount — no barriers, the capacitor carries it.
        rows.push(rel_trial(
            durassd_bench(true),
            durassd_bench(true),
            "durassd",
            false,
            interval,
            commits,
        ));
        // Volatile cache and spinning disk both need barriers to recover.
        rows.push(rel_trial(
            ssd_a_bench(true),
            ssd_a_bench(true),
            "ssd_volatile",
            true,
            interval,
            commits,
        ));
        rows.push(rel_trial(hdd_bench(true), hdd_bench(true), "hdd", true, interval, commits));
        rows.push(doc_trial(durassd_bench(true), "durassd", false, interval, doc_ops));
        rows.push(doc_trial(ssd_a_bench(true), "ssd_volatile", true, interval, doc_ops));
        rows.push(doc_trial(hdd_bench(true), "hdd", true, interval, doc_ops));
    }
    for r in &rows {
        println!(
            "{:<9} {:<13} {:>8} {:>9} {:>9} {:>5} {:>11}B {:>12} {:>12}",
            r.engine,
            r.device,
            r.ckpt_interval,
            r.stats.replayed,
            r.stats.skipped,
            r.stats.torn,
            r.outstanding_bytes,
            fmt_ns(r.stats.replay_ns),
            fmt_ns(r.ttfr_sim_ns),
        );
    }

    let doc = render_json(&rows);
    write_atomic(&out, &doc).expect("recovery output path is writable");
    println!();
    println!("wrote {out}");

    if check {
        let failures = check_recovery_report(&doc);
        if failures.is_empty() {
            println!("check : OK (schema, device/interval coverage, checkpoint-bounded replay)");
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
