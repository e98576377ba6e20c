//! Tiny-scale self-test of the benchmark's own code path: every workload,
//! untraced and traced, on tiny data sets.

use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::trace::{chrome_json, self_times_conserved};
use perfbench::{run_plain, run_traced, Params, Workload};
use simkit::alloc::{peak_rss_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The seed the self-test runs, and a held-out one that must run clean
/// and give different virtual-time results.
const SEED: u64 = 7;
const HELD_OUT: u64 = 1_000_003;

#[test]
fn benchmark_json_names_every_emitted_metric_with_its_unit() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let v = telemetry::parse_json(&doc).expect("BENCHMARK.json parses");
    let obj = v.as_object().expect("object");
    let listed = |key: &str| -> Vec<(String, String)> {
        obj[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = obj["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w.as_object().expect("workload")["name"].as_str().expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn every_workload_runs_clean_traced_and_untraced() {
    for w in Workload::ALL {
        let p = Params::tiny(w, SEED);
        let plain = run_plain(&p);
        let (traced, tr, tel) = run_traced(&p);
        for rep in [&plain, &traced] {
            assert!(rep.violations.is_empty(), "{}: {:?}", w.name(), rep.violations);
            assert_eq!(rep.failed, 0, "{}: failed ops", w.name());
            assert!(rep.attempted > 0 && rep.ops > 0, "{}", w.name());
        }
        // The decorator, telemetry and spans are transparent to the model.
        assert_eq!(
            plain.fingerprint(),
            traced.fingerprint(),
            "{}: tracing changed a result",
            w.name()
        );
        assert_eq!(tel.anatomy_violations(), 0, "{}", w.name());

        let e2e = metrics::end_to_end(&plain, peak_rss_bytes());
        assert_eq!(e2e.len(), END_TO_END.len());
        let spans = tr.spans();
        let layers = metrics::per_layer(&traced, &plain, &spans, &tel);
        assert_eq!(layers.len(), PER_LAYER.len());
        for ((name, _), v) in END_TO_END.iter().chain(PER_LAYER).zip(e2e.iter().chain(&layers)) {
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }

        assert!(self_times_conserved(&spans), "{}: self times do not sum to the root", w.name());
        // Every boundary the benchmark drives leaves a span with a parent
        // link, down to the device.
        let has =
            |label: &str| spans.iter().any(|s| s.name.label() == label && s.parent != u32::MAX);
        let below: &[&str] = match w {
            Workload::FioRandwrite => &[
                "storage.write",
                "storage.fsync",
                "storage.read",
                "durassd.write",
                "durassd.flush",
            ],
            Workload::YcsbA => {
                &["docstore.set", "docstore.get", "docstore.recover", "durassd.write"]
            }
            Workload::Tpcc => {
                &["relstore.tpcc_run", "relstore.recover", "durassd.read", "durassd.write"]
            }
            Workload::CrashRecover => &[
                "relstore.put",
                "relstore.commit",
                "docstore.set",
                "docstore.recover",
                "durassd.reboot",
            ],
        };
        for label in below {
            assert!(has(label), "{}: no {label} span", w.name());
        }
        let doc = chrome_json(&spans, 50);
        let check = telemetry::validate_chrome_json(&doc).expect("valid Chrome trace");
        assert!(check.begins > 0 && doc.contains("\"parent\":"), "{}", w.name());
    }
}

#[test]
fn the_seed_reaches_every_generator() {
    for w in Workload::ALL {
        let a = run_plain(&Params::tiny(w, SEED));
        let b = run_plain(&Params::tiny(w, HELD_OUT));
        assert!(
            b.violations.is_empty() && b.failed == 0,
            "{}: held-out seed: {:?}",
            w.name(),
            b.violations
        );
        assert_ne!(a.fingerprint(), b.fingerprint(), "{}: seed changed nothing", w.name());
        assert_eq!(
            a.fingerprint(),
            run_plain(&Params::tiny(w, SEED)).fingerprint(),
            "{}",
            w.name()
        );
    }
}
