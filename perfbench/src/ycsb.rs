//! `ycsb_a`: YCSB workload-A (50/50 get/update, zipfian, 1 KB documents)
//! on `docstore`, batch size 10, DuraSSD mounted nobarrier (the paper's
//! Table 5 setting), driven op by op so every get is checked against a
//! shadow map. Auto-compaction is on and the append file is small enough
//! that compaction runs every ~1,200 updates.

use crate::trace::{Name, Role};
use crate::{device, mix, timed_setups, Dev, DevDelta, Env, Meter, Params, Recovery, Report, Snap};
use docstore::{DocStore, DocStoreConfig};
use simkit::dist::{rng, Rng, ScrambledZipfian, SimRng};
use simkit::{ClosedLoop, Nanos};
use std::time::Instant;
use workloads::cpu::CpuModel;
use workloads::ycsb::YcsbSpec;

/// Restarts after the measured phase, each after `RESTART_OPS` more ops.
const RESTARTS: u64 = 9;
const RESTART_OPS: u64 = 500;

fn config(tiny: bool) -> DocStoreConfig {
    DocStoreConfig {
        batch_size: 10,
        barriers: false,
        file_blocks: if tiny { 1_024 } else { 4_096 },
        auto_compact_pct: 50,
        checkpoint_every_n_commits: 8,
    }
}

/// The client: key chooser, CPU model, and the shadow of what each key
/// holds live and what its last commit header acknowledged.
struct Client {
    spec: YcsbSpec,
    chooser: ScrambledZipfian,
    r: SimRng,
    cpu: CpuModel,
    key: [u8; 16],
    doc: Vec<u8>,
    op_no: u64,
    live: Vec<u64>,
    acked: Vec<u64>,
    pending: Vec<(usize, u64)>,
    headers: u64,
}

impl Client {
    fn new(spec: YcsbSpec) -> Self {
        let live: Vec<u64> = (0..spec.records).collect();
        Self {
            chooser: ScrambledZipfian::new(spec.records),
            r: rng(spec.seed),
            cpu: CpuModel::new(spec.clients, spec.cpu_per_op),
            key: *b"user000000000000",
            doc: vec![b'v'; spec.value_size],
            op_no: spec.records,
            acked: live.clone(),
            live,
            pending: Vec::with_capacity(64),
            headers: 0,
            spec,
        }
    }

    /// Build key `user%012d` in place.
    fn set_key(&mut self, i: u64) {
        let mut v = i;
        for b in self.key[4..].iter_mut().rev() {
            *b = b'0' + (v % 10) as u8;
            v /= 10;
        }
    }

    fn load<D: Dev>(&mut self, store: &mut DocStore<D>) -> Nanos {
        let mut t = 0;
        for i in 0..self.spec.records {
            self.set_key(i);
            self.doc[..8].copy_from_slice(&i.to_le_bytes());
            t = store.set(&self.key, &self.doc, t);
        }
        let t = store.commit_header(t);
        self.headers = store.stats().headers;
        t
    }

    /// A new commit header acknowledges every pending update.
    fn note_headers<D: Dev>(&mut self, store: &DocStore<D>) {
        let h = store.stats().headers;
        if h != self.headers {
            self.headers = h;
            for (i, tag) in self.pending.drain(..) {
                self.acked[i] = tag;
            }
        }
    }

    /// One YCSB op issued at `now`; returns its completion and whether a
    /// get returned what the shadow map holds.
    fn op<D: Dev>(&mut self, env: &Env<D>, store: &mut DocStore<D>, now: Nanos) -> (Nanos, bool) {
        let i = self.chooser.sample(&mut self.r);
        self.set_key(i);
        let t0 = self.cpu.charge(now);
        if self.r.gen_bool(self.spec.update_fraction) {
            self.op_no += 1;
            self.doc[..8].copy_from_slice(&self.op_no.to_le_bytes());
            let done = env.scope(Name::DocSet, || store.set(&self.key, &self.doc, t0));
            self.live[i as usize] = self.op_no;
            self.pending.push((i as usize, self.op_no));
            self.note_headers(store);
            (done, true)
        } else {
            let got = env.scope(Name::DocGet, || store.get(&self.key, t0));
            let want = self.live[i as usize].to_le_bytes();
            let ok =
                got.value.as_deref().is_some_and(|d| d.len() == self.doc.len() && d[..8] == want);
            (got.done, ok)
        }
    }

    /// After a restart: every key must hold its acknowledged document.
    /// Returns the completion time and the number of keys that do not.
    fn verify<D: Dev>(
        &mut self,
        env: &Env<D>,
        store: &mut DocStore<D>,
        mut t: Nanos,
    ) -> (Nanos, u64) {
        self.pending.clear();
        self.live.clone_from(&self.acked);
        self.headers = store.stats().headers;
        let mut bad = 0;
        for i in 0..self.spec.records {
            self.set_key(i);
            let got = env.scope(Name::DocGet, || store.get(&self.key, t));
            t = got.done;
            let want = self.acked[i as usize].to_le_bytes();
            bad += u64::from(got.value.as_deref().is_none_or(|d| d[..8] != want));
        }
        (t, bad)
    }
}

pub(crate) fn run<D: Dev>(p: &Params, env: &Env<D>) -> Report {
    let mut rep = Report::default();
    let records = if p.tiny { 100 } else { 2_000 };
    let spec = YcsbSpec { seed: p.seed, ..YcsbSpec::workload_a(records, p.ops) };
    let cfg = config(p.tiny);

    let ((mut store, mut c, t), setup_s) = timed_setups(p.setups, || {
        let mut store = DocStore::create((env.mk)(device(4), Role::Doc), cfg);
        if let Some(tel) = env.tel {
            store.attach_telemetry(tel.clone());
        }
        let mut c = Client::new(spec);
        let t = c.load(&mut store);
        (store, c, t)
    });
    rep.setup_s = setup_s;

    env.start_measuring();
    let before = [Snap::of(store.device().ssd())];
    let s0 = store.stats();
    let mut meter = Meter::new(spec.ops);
    let mut lat = Vec::with_capacity(spec.ops as usize);
    let drv = ClosedLoop::new(spec.clients, t).run(spec.ops, |_, now| {
        let root = env.root(Name::Op);
        let (done, ok) = c.op(env, &mut store, now);
        rep.failed += u64::from(!ok);
        rep.attempted += 1;
        env.end(root);
        meter.tick(1);
        lat.push(done - now);
        done
    });
    meter.finish(&mut rep);
    let mut t = drv.finished_at;
    rep.ops = drv.ops;
    rep.sim_ns = drv.elapsed();
    rep.op_lat = lat;
    rep.dev = DevDelta::between(&before, &[Snap::of(store.device().ssd())]);
    let s1 = store.stats();
    let sets = (s1.sets - s0.sets).max(1) as f64;
    let gets = (s1.gets - s0.gets).max(1) as f64;
    rep.layer = vec![
        ("docstore.bytes_appended_per_set", (s1.bytes_appended - s0.bytes_appended) as f64 / sets),
        (
            "docstore.compactions_per_kop",
            (s1.compactions - s0.compactions) as f64 * 1e3 / rep.ops as f64,
        ),
        ("docstore.get.cache_hit_ratio", (s1.cache_hits - s0.cache_hits) as f64 / gets),
    ];

    // Restarts from a fixed distance past a compaction, so the recovery
    // scan is the same length whatever the seed: compact, run a few
    // hundred ops, cut power, recover, and read every key back.
    t = store.compact(t);
    c.note_headers(&store);
    c.r = rng(mix(p.seed, 2));
    for _ in 0..RESTARTS {
        let root = env.root(Name::Restart);
        for _ in 0..RESTART_OPS {
            let (done, ok) = c.op(env, &mut store, t);
            t = done;
            rep.failed += u64::from(!ok);
        }
        let dev = env.scope(Name::DocCrash, || store.crash(t));
        let w = Instant::now();
        let rec = env.scope(Name::DocRecover, || DocStore::recover(dev, cfg, t));
        rep.recoveries
            .push(Recovery { wall_ns: w.elapsed().as_nanos() as u64, sim_ns: rec.done - t });
        let up;
        (store, up) = rec.into_parts();
        if let Some(tel) = env.tel {
            store.attach_telemetry(tel.clone());
        }
        let (done, bad) = c.verify(env, &mut store, up);
        t = done;
        rep.failed += bad;
        rep.attempted += RESTART_OPS + records;
        env.end(root);
    }
    rep.check_devices([store.device().ssd()]);
    rep
}
