//! Determinism gate for the scenario catalogue.
//!
//! Every catalogue cell and both mixed tail runs run twice at small scale in
//! one process. Each repetition must reach the same virtual end time, make
//! the same number of heap allocations and render byte-identical report
//! rows. Fixed seeds and fixed-key hashing (`simkit::DetHashMap`) make all
//! three exact, so a seed taken from outside the run, an iteration order
//! that depends on a hasher's keys or an allocation that depends on what ran
//! before fails here.
//!
//! The allocation counter is process-wide, so everything runs inside one
//! `#[test]` (the default harness runs tests concurrently, which would
//! cross-pollute the counts).

use bench::scenario::{mixed_run, run_cell, Deployment, Scale, Workload};
use simkit::alloc::{alloc_count, CountingAlloc};
use simkit::Nanos;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SCALE: Scale = Scale {
    fio_ops: 2_000,
    fio_span: 512,
    ycsb_records: 200,
    ycsb_ops: 800,
    warehouses: 1,
    txns: 40,
    mixed_ops: 4_000,
};

/// What one repetition must repeat exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    end: Nanos,
    allocs: u64,
    rows: Vec<String>,
}

/// Run `f` (from fresh devices to rendered rows) and count its allocations.
fn fingerprint(f: impl FnOnce() -> (Nanos, Vec<String>)) -> Fingerprint {
    let a0 = alloc_count();
    let (end, rows) = f();
    Fingerprint { end, allocs: alloc_count() - a0, rows }
}

#[test]
fn every_catalogue_run_repeats_exactly() {
    for workload in Workload::ALL {
        for dep in Deployment::BOTH {
            let rep = || {
                fingerprint(|| {
                    let cell = run_cell(workload, dep, &SCALE, false);
                    (cell.end, vec![cell.waf_row_json(), cell.latency_row_json()])
                })
            };
            let (first, second) = (rep(), rep());
            assert!(first.end > 0 && first.allocs > 0);
            assert_eq!(first, second, "{} / {}", workload.name(), dep.mode);
        }
    }
    for dep in Deployment::BOTH {
        let rep = || {
            fingerprint(|| {
                let run = mixed_run(dep, SCALE.mixed_ops, false);
                (run.end, run.latency_rows_json())
            })
        };
        let (first, second) = (rep(), rep());
        assert_eq!(first.rows.len(), 2, "slowest read and write captured");
        assert_eq!(first, second, "tail_mixed / {}", dep.mode);
    }
}
