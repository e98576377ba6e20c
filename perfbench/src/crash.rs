//! `crash_recover`: cycles of acknowledged commits on `relstore` (put +
//! commit) and `docstore` (set, batch 1), each on its own DuraSSD devices
//! mounted nobarrier; a power cut at a seeded point inside an in-flight
//! commit; `Engine::recover` and `DocStore::recover`; then every
//! acknowledged commit is read back. The only workload whose measured ops
//! run the read and recovery paths.

use crate::trace::{Name, Role};
use crate::{
    device, mix, timed_setups, Dev, DevDelta, Env, Meter, Params, Recovery, RelCounters, RelSnap,
    Report, Snap,
};
use docstore::{DocStore, DocStoreConfig};
use relstore::{Engine, EngineConfig};
use simkit::dist::{rng, Rng};
use std::time::Instant;

/// Keys per store.
const KEYS: u64 = 256;
/// A cycle's burst is `BURST..2 * BURST` acknowledged commits, alternating
/// between the stores.
const BURST: u64 = 256;
const VALUE: usize = 128;

fn rel_config() -> EngineConfig {
    EngineConfig::builder(4096)
        .buffer_pool_bytes(256 * 4096)
        .barriers(false)
        .data_pages(8_192)
        .log_file_blocks(2_048)
        .checkpoint_every_n_commits(100)
        .build()
}

fn doc_config(tiny: bool) -> DocStoreConfig {
    DocStoreConfig {
        batch_size: 1,
        barriers: false,
        file_blocks: if tiny { 1_024 } else { 8_192 },
        auto_compact_pct: 75,
        checkpoint_every_n_commits: 8,
    }
}

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

/// A value tagged with the write that made it.
fn value(buf: &mut [u8; VALUE], tag: u64) -> &[u8] {
    buf[..8].copy_from_slice(&tag.to_le_bytes());
    &buf[..]
}

fn tag_of(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().expect("tagged value"))
}

/// Whether a read-back value carries one of the tags allowed for its key:
/// the acknowledged one, or the in-flight one the cut may or may not have
/// kept.
fn holds(got: Option<&[u8]>, acked: u64, inflight: Option<u64>) -> bool {
    let tag = got.map(tag_of);
    tag == Some(acked) || (tag.is_some() && tag == inflight)
}

type Stores<D> = (Engine<D, D>, DocStore<D>);

pub(crate) fn run<D: Dev>(p: &Params, env: &Env<D>) -> Report {
    let mut rep = Report::default();
    let (rcfg, dcfg) = (rel_config(), doc_config(p.tiny));
    let ssds = |(e, d): &Stores<D>| {
        [
            Snap::of(e.data_volume().device().ssd()),
            Snap::of(e.log_volume().device().ssd()),
            Snap::of(d.device().ssd()),
        ]
    };
    let attach = |(e, d): &mut Stores<D>| {
        if let Some(tel) = env.tel {
            e.attach_telemetry(tel.clone());
            d.attach_telemetry(tel.clone());
        }
    };

    let ((mut stores, tree, mut t), setup_s) = timed_setups(p.setups, || {
        let data = (env.mk)(device(1), Role::Data);
        let log = (env.mk)(device(1), Role::Log);
        let (mut engine, t) = Engine::create(data, log, rcfg, 0).into_parts();
        let (tree, mut t) = engine.create_tree(t).into_parts();
        let mut doc = DocStore::create((env.mk)(device(1), Role::Doc), dcfg);
        // Load every key: relstore tags 1..=KEYS, docstore the next KEYS.
        let mut buf = [b'c'; VALUE];
        for k in 0..KEYS {
            t = engine.put(tree, &key(k), value(&mut buf, 1 + k), t);
            t = engine.commit(t);
            t = doc.set(&key(k), value(&mut buf, 1 + KEYS + k), t);
        }
        let t = engine.checkpoint(t);
        let mut stores = (engine, doc);
        attach(&mut stores);
        (stores, tree, t)
    });
    rep.setup_s = setup_s;
    // Acknowledged tag per key, per store.
    let mut acked = [(1..=KEYS).collect::<Vec<u64>>(), (KEYS + 1..=2 * KEYS).collect()];
    let mut buf = [b'c'; VALUE];

    env.start_measuring();
    let before = ssds(&stores);
    // Engine counters restart at every recovery: sum them per burst.
    let mut rel = RelCounters::default();
    let mut meter = Meter::new(p.ops);
    let start = t;
    let mut lat = Vec::with_capacity(p.ops as usize);
    let mut tag = 2 * KEYS;
    let mut replayed = Vec::with_capacity(p.ops as usize);
    for c in 0..p.ops {
        let root = env.root(Name::Op);
        let cycle_start = t;
        let s0 = RelSnap::of(&stores.0);
        let mut r = rng(mix(p.seed, 1_000 + c));
        // Acknowledged commits, alternating stores; the last one of the
        // burst is in flight when the power is cut.
        let acks = r.gen_range(BURST..2 * BURST);
        let mut inflight = (0usize, 0u64, 0u64);
        let mut cut = t;
        for j in 0..=acks {
            let (store, k) = ((j % 2) as usize, r.gen_range(0..KEYS));
            tag += 1;
            let sent = t;
            let (e, d) = &mut stores;
            t = if store == 0 {
                let t1 = env.scope(Name::RelPut, || e.put(tree, &key(k), value(&mut buf, tag), t));
                env.scope(Name::RelCommit, || e.commit(t1))
            } else {
                env.scope(Name::DocSet, || d.set(&key(k), value(&mut buf, tag), t))
            };
            if j < acks {
                acked[store][k as usize] = tag;
            } else {
                inflight = (store, k, tag);
                cut = sent + r.gen_range(0..=t - sent);
            }
        }
        rep.attempted += acks;
        rep.rel_txns += acks.div_ceil(2);
        rel.add(&s0, &RelSnap::of(&stores.0));

        let (engine, doc) = stores;
        let (data, log) = env.scope(Name::RelCrash, || engine.crash(cut));
        let dev = env.scope(Name::DocCrash, || doc.crash(cut));
        let w = Instant::now();
        let rel = env.scope(Name::RelRecover, || Engine::recover(data, log, rcfg, cut));
        let doc = env.scope(Name::DocRecover, || DocStore::recover(dev, dcfg, cut));
        let wall_ns = w.elapsed().as_nanos() as u64;
        let rel = match rel {
            Ok(rel) => rel,
            Err(err) => {
                // Without a relational store the run cannot go on.
                rep.violations.push(format!("cycle {c}: relstore recovery failed: {err}"));
                rep.failed += rep.attempted;
                env.end(root);
                meter.finish(&mut rep);
                return rep;
            }
        };
        rep.recoveries.push(Recovery { wall_ns, sim_ns: rel.done.max(doc.done) - cut });
        replayed.push(rel.stats.replayed);
        t = rel.done.max(doc.done);
        stores = (rel.value, doc.value);
        attach(&mut stores);

        // Read every key back from both stores.
        let (e, d) = &mut stores;
        for k in 0..KEYS {
            let pending = |store| (inflight.0 == store && inflight.1 == k).then_some(inflight.2);
            let got = env.scope(Name::RelGet, || e.get(tree, &key(k), t));
            t = got.done;
            rep.failed += u64::from(!holds(got.value.as_deref(), acked[0][k as usize], pending(0)));
            let got = env.scope(Name::DocGet, || d.get(&key(k), t));
            t = got.done;
            rep.failed += u64::from(!holds(got.value.as_deref(), acked[1][k as usize], pending(1)));
        }
        rep.attempted += 2 * KEYS + 1;
        // The in-flight commit is acknowledged now in whichever state the
        // cut left it.
        let (store, k, _) = inflight;
        let now_holds = if store == 0 {
            env.scope(Name::RelGet, || e.get(tree, &key(k), t))
        } else {
            env.scope(Name::DocGet, || d.get(&key(k), t))
        };
        t = now_holds.done;
        match now_holds.value {
            Some(v) => acked[store][k as usize] = tag_of(&v),
            None => rep.failed += 1,
        }
        env.end(root);
        lat.push(t - cycle_start);
        meter.tick(1);
    }
    meter.finish(&mut rep);
    rep.ops = p.ops;
    rep.sim_ns = t - start;
    rep.op_lat = lat;
    rep.dev = DevDelta::between(&before, &ssds(&stores));
    replayed.sort_unstable();
    rep.layer = rel.metrics(rep.rel_txns);
    rep.layer.push((
        "relstore.replayed_per_recovery",
        replayed.get(replayed.len() / 2).copied().unwrap_or(0) as f64,
    ));
    let (e, d) = &stores;
    rep.check_devices([
        e.data_volume().device().ssd(),
        e.log_volume().device().ssd(),
        d.device().ssd(),
    ]);
    rep
}
