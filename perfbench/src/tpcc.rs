//! `tpcc`: TPC-C through `workloads::tpcc::run` on `relstore` — 1
//! warehouse, 8 clients, double-write on, a buffer pool of about a tenth of
//! the data, data and log on separate DuraSSD devices mounted nobarrier.
//!
//! `tpcc::run` owns its closed loop and reports no per-transaction
//! latency, so the measured phase is a sequence of `run` calls (chunks),
//! each on its own seed and continuing the previous chunk's virtual clock.

use crate::trace::{Name, Role};
use crate::{
    device, mix, timed_setups, Dev, DevDelta, Env, Meter, Params, Recovery, RelCounters, RelSnap,
    Report, Snap,
};
use relstore::{Engine, EngineConfig};
use std::time::Instant;
use workloads::tpcc::{self, TpccSpec};

/// Measured chunks: one `tpcc::run` call each.
const CHUNKS: u64 = 32;
/// Restarts after the measured phase, each after `RESTART_TXNS`
/// transactions past a checkpoint.
const RESTARTS: u64 = 5;
const RESTART_TXNS: u64 = 100;

fn spec(tiny: bool, seed: u64, txns: u64) -> TpccSpec {
    let base = TpccSpec { clients: 8, seed, warmup_txns: 0, ..TpccSpec::scaled(1, txns) };
    if tiny {
        TpccSpec { districts: 2, customers: 10, items: 50, ..base }
    } else {
        base
    }
}

fn config(s: &TpccSpec) -> EngineConfig {
    // Bytes loaded (items, stock, customers, districts), as the perf bin
    // sizes it; the buffer pool holds about a tenth.
    let est = s.warehouses as u64
        * (s.items as u64 * 300 + s.districts as u64 * s.customers as u64 * 470 + 40_960);
    EngineConfig::builder(4096)
        .buffer_pool_bytes((est / 10).max(64 * 4096))
        .barriers(false)
        .double_write(true)
        .data_pages(65_536)
        .log_file_blocks(8_192)
        .build()
}

pub(crate) fn run<D: Dev>(p: &Params, env: &Env<D>) -> Report {
    let mut rep = Report::default();
    let chunk = (p.ops / CHUNKS).max(1);
    let base = spec(p.tiny, p.seed, chunk);
    let cfg = config(&base);

    // Set-up: create, load, and warm the buffer pool with up to 1,000
    // transactions.
    let ((mut engine, mut db, mut t), setup_s) = timed_setups(p.setups, || {
        let data = (env.mk)(device(4), Role::Data);
        let log = (env.mk)(device(4), Role::Log);
        let (mut engine, t) = Engine::create(data, log, cfg, 0).into_parts();
        if let Some(tel) = env.tel {
            engine.attach_telemetry(tel.clone());
        }
        let (mut db, t) = tpcc::load(&mut engine, &base, t);
        let warm = TpccSpec { seed: mix(p.seed, 1), txns: (p.ops / 10).clamp(1, 1_000), ..base };
        let t = tpcc::run(&mut engine, &mut db, &warm, t).finished_at;
        (engine, db, t)
    });
    rep.setup_s = setup_s;

    env.start_measuring();
    let ssds = |e: &Engine<D, D>| {
        [Snap::of(e.data_volume().device().ssd()), Snap::of(e.log_volume().device().ssd())]
    };
    let before = ssds(&engine);
    let mut rel = RelCounters::default();
    let mut meter = Meter::new(p.ops);
    let start = t;
    let mut txns = 0;
    for c in 0..CHUNKS {
        let s = TpccSpec { seed: mix(p.seed, 100 + c), ..base };
        // `run` resets the pool counters at its start.
        let a = RelSnap { p: Default::default(), ..RelSnap::of(&engine) };
        let root = env.root(Name::Op);
        let r = env.scope(Name::TpccRun, || tpcc::run(&mut engine, &mut db, &s, t));
        env.end(root);
        t = r.finished_at;
        txns += s.txns;
        rel.add(&a, &RelSnap::of(&engine));
        meter.tick(s.txns);
    }
    meter.finish(&mut rep);
    rep.ops = txns;
    rep.attempted = txns;
    rep.rel_txns = txns;
    rep.sim_ns = t - start;
    rep.dev = DevDelta::between(&before, &ssds(&engine));
    rep.layer = rel.metrics(txns);
    let mut replayed = Vec::with_capacity(RESTARTS as usize);

    // Restarts a fixed distance past a checkpoint, so recovery replays
    // about the same log whatever the seed: checkpoint, run a few
    // transactions, cut power to both devices, and recover the engine.
    for round in 0..RESTARTS {
        let root = env.root(Name::Restart);
        t = engine.checkpoint(t);
        let s = TpccSpec { seed: mix(p.seed, 200 + round), txns: RESTART_TXNS, ..base };
        t = tpcc::run(&mut engine, &mut db, &s, t).finished_at;
        let (data, log) = env.scope(Name::RelCrash, || engine.crash(t));
        let w = Instant::now();
        let rec = env.scope(Name::RelRecover, || Engine::recover(data, log, cfg, t));
        let wall_ns = w.elapsed().as_nanos() as u64;
        env.end(root);
        rep.attempted += RESTART_TXNS;
        let rec = match rec {
            Ok(rec) => rec,
            Err(err) => {
                // Without an engine the run cannot go on.
                rep.failed += RESTART_TXNS;
                rep.violations.push(format!("recovery failed: {err}"));
                return rep;
            }
        };
        rep.recoveries.push(Recovery { wall_ns, sim_ns: rec.done - t });
        replayed.push(rec.stats.replayed);
        if rec.value.tree_count() != 9 {
            rep.failed += 1;
            rep.violations.push(format!("recovered {} tables, want 9", rec.value.tree_count()));
        }
        (engine, t) = rec.into_parts();
        if let Some(tel) = env.tel {
            engine.attach_telemetry(tel.clone());
        }
    }
    replayed.sort_unstable();
    rep.layer.push(("relstore.replayed_per_recovery", replayed[replayed.len() / 2] as f64));
    rep.check_devices([engine.data_volume().device().ssd(), engine.log_volume().device().ssd()]);
    rep
}
