//! `fio_randwrite`: random 4 KiB overwrites, fsync every 32, barriers on,
//! straight through `storage::Volume` — device-bound, with no engine.
//!
//! The benchmark drives the writes itself (instead of `workloads::fio::run`,
//! which `expect`s every device result) so a failed call is counted, and it
//! stamps each page with its write number and LPN so read-back samples can
//! be checked against a shadow map after each restart.

use crate::trace::{Name, Role};
use crate::{device, mix, timed_setups, Dev, DevDelta, Env, Meter, Params, Recovery, Report, Snap};
use durassd::{Ssd, SsdConfig};
use simkit::dist::{rng, Rng, SimRng};
use simkit::{ClosedLoop, Nanos};
use std::time::Instant;
use storage::volume::Volume;
use workloads::fio::FioSpec;

/// Restarts after the measured phase, each after a burst of
/// `RESTART_WRITES` writes and followed by a read-back of `READBACK` LPNs.
const RESTARTS: u64 = 31;
const RESTART_WRITES: u64 = 64;
const READBACK: u64 = 512;

fn stamp(buf: &mut [u8], n: u64, lpn: u64) {
    buf[..8].copy_from_slice(&n.to_le_bytes());
    buf[8..16].copy_from_slice(&lpn.to_le_bytes());
}

/// The fio job: random LPNs over the span, each write stamped with its
/// write number, an fsync after every `fsync_every`-th write, and the
/// shadow of the write number each LPN holds (0: never written).
struct Job {
    r: SimRng,
    spec: FioSpec,
    n: u64,
    buf: Vec<u8>,
    shadow: Vec<u64>,
}

impl Job {
    /// One write (and fsync when due) issued at `now`; returns the
    /// completion and the number of calls that failed.
    fn op<D: Dev>(&mut self, env: &Env<D>, vol: &mut Volume<D>, now: Nanos) -> (Nanos, u64) {
        let lpn = self.r.gen_range(0..self.spec.span_blocks);
        self.n += 1;
        stamp(&mut self.buf, self.n, lpn);
        let (mut t, mut failed) =
            match env.scope(Name::StorageWrite, || vol.write(lpn, &self.buf, now)) {
                Ok(t) => (t, 0),
                Err(_) => (now, 1),
            };
        if failed == 0 {
            self.shadow[lpn as usize] = self.n;
        }
        let every = self.spec.fsync_every.expect("fsync cadence") as u64;
        if self.n.is_multiple_of(every) {
            match env.scope(Name::StorageFsync, || vol.fsync(t)) {
                Ok(done) => t = done,
                Err(_) => failed += 1,
            }
        }
        (t, failed)
    }

    /// Read a seeded sample of LPNs; returns the completion and the number
    /// that differ from the shadow map.
    fn read_back<D: Dev>(&mut self, env: &Env<D>, vol: &mut Volume<D>, now: Nanos) -> (Nanos, u64) {
        let mut want = [0u8; 16];
        let (mut t, mut bad) = (now, 0);
        for _ in 0..READBACK {
            let lpn = self.r.gen_range(0..self.spec.span_blocks);
            match env.scope(Name::StorageRead, || vol.read(lpn, 1, &mut self.buf, t)) {
                Ok(done) => {
                    t = done;
                    match self.shadow[lpn as usize] {
                        0 => want.fill(0),
                        n => stamp(&mut want, n, lpn),
                    }
                    bad += u64::from(self.buf[..16] != want);
                }
                Err(_) => bad += 1,
            }
        }
        (t, bad)
    }
}

pub(crate) fn run<D: Dev>(p: &Params, env: &Env<D>) -> Report {
    let mut rep = Report::default();
    // Half the exported capacity: at three quarters, `Ftl::maybe_gc`
    // panics ("GC cannot make progress") within a few hundred thousand
    // writes on this geometry (see README.md).
    let dev = || if p.tiny { Ssd::new(SsdConfig::tiny_test()) } else { device(4) };
    let span = dev().config().logical_capacity_pages / 2;
    let spec = FioSpec { seed: p.seed, ..FioSpec::random_write_4k(span, Some(32), p.ops) };
    let mut setup_failed = 0;

    // Set-up: prewarm the NAND, then precondition with three times the
    // span in random writes so the measured phase runs with GC active.
    let ((mut vol, mut job, t), setup_s) = timed_setups(p.setups, || {
        let mut ssd = dev();
        ssd.prewarm();
        let mut vol = Volume::new((env.mk)(ssd, Role::Fio), true);
        if let Some(tel) = env.tel {
            vol.attach_telemetry(tel.clone(), "fio");
        }
        let mut job = Job {
            r: rng(mix(p.seed, 1)),
            spec,
            n: 0,
            buf: vec![0u8; spec.block_size],
            shadow: vec![0; span as usize],
        };
        let mut t = 0;
        for _ in 0..3 * span {
            let (done, f) = job.op(env, &mut vol, t);
            t = done;
            setup_failed += f;
        }
        (vol, job, t)
    });
    rep.setup_s = setup_s;
    if setup_failed > 0 {
        rep.violations.push(format!("{setup_failed} device calls failed during set-up"));
    }
    if vol.device().ssd().ftl_stats().gc_erases == 0 {
        rep.violations.push("preconditioning did not reach garbage collection".into());
    }

    env.start_measuring();
    let before = [Snap::of(vol.device().ssd())];
    job.r = rng(spec.seed);
    let mut meter = Meter::new(spec.total_ops);
    let mut lat = Vec::with_capacity(spec.total_ops as usize);
    let drv = ClosedLoop::new(spec.jobs, t).run(spec.total_ops, |_, now| {
        let root = env.root(Name::Op);
        let (done, f) = job.op(env, &mut vol, now);
        rep.failed += f;
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
    rep.dev = DevDelta::between(&before, &[Snap::of(vol.device().ssd())]);

    // Restarts: a burst of writes, a power cut, a reboot, and a read-back
    // sample — every acknowledged write must survive.
    job.r = rng(mix(p.seed, 2));
    for _ in 0..RESTARTS {
        let root = env.root(Name::Restart);
        for _ in 0..RESTART_WRITES {
            let (done, f) = job.op(env, &mut vol, t);
            t = done;
            rep.failed += f;
        }
        vol.power_cut(t);
        let w = Instant::now();
        let up = env.scope(Name::StorageReboot, || vol.reboot(t));
        rep.recoveries.push(Recovery { wall_ns: w.elapsed().as_nanos() as u64, sim_ns: up - t });
        let (done, bad) = job.read_back(env, &mut vol, up);
        t = done;
        rep.attempted += RESTART_WRITES + READBACK;
        rep.failed += bad;
        env.end(root);
    }
    rep.check_devices([vol.device().ssd()]);
    rep
}
