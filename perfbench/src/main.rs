//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric with its unit, then, as the
//! last line of standard output, one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run (plus an
//! untraced run of the same size, for the tracing overhead and to check
//! that tracing changes no virtual-time result) and writes the spans as a
//! Chrome trace under `perfbench/out/`.

use perfbench::metrics::{self, END_TO_END, INFORMATIONAL, PER_LAYER};
use perfbench::trace::{chrome_json, self_times_conserved};
use perfbench::{run_plain, run_traced, Params, Report, Workload};
use simkit::alloc::{peak_rss_bytes, CountingAlloc};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Spans written to the Chrome trace (whole root ops, from the first).
const TRACE_SPANS: usize = 20_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|_| format!("{flag}: not a whole number"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args { workload, seed: num("--seed")?, seconds, trace })
}

/// Render the result line. Non-finite values are reported as 0 and make
/// the run incorrect.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &[f64],
) -> String {
    let finite = values.iter().all(|v| v.is_finite());
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((n, u), v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        correct && finite,
        attempted.max(1),
        metrics.join(",")
    )
}

fn report_violations(label: &str, rep: &Report) -> bool {
    for v in &rep.violations {
        eprintln!("perfbench: {label}: {v}");
    }
    rep.violations.is_empty()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fio_randwrite|ycsb_a|tpcc|crash_recover> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let p = Params::full(args.workload, args.seed, args.seconds);
    let name = args.workload.name();
    let mut extra = Vec::new();
    let (correct, attempted, failed, names, values) = if !args.trace {
        let rep = run_plain(&p);
        let values = metrics::end_to_end(&rep, peak_rss_bytes());
        extra = INFORMATIONAL.iter().zip(metrics::informational(&rep)).collect();
        let ok = report_violations(name, &rep) && rep.failed == 0;
        (ok, rep.attempted, rep.failed, END_TO_END, values)
    } else {
        // Both halves run half the ops, so the run takes about as long as
        // an untraced one.
        let half = Params { ops: (p.ops / 2).max(1), setups: 1, ..p };
        let plain = run_plain(&half);
        let (traced, tr, tel) = run_traced(&half);
        let spans = tr.spans();
        let mut ok = report_violations(name, &plain) && report_violations(name, &traced);
        if plain.fingerprint() != traced.fingerprint() {
            eprintln!("perfbench: {name}: tracing changed a virtual-time result or count");
            ok = false;
        }
        if tel.anatomy_violations() > 0 {
            eprintln!(
                "perfbench: {name}: {} anatomy conservation violations",
                tel.anatomy_violations()
            );
            ok = false;
        }
        if !self_times_conserved(&spans) {
            eprintln!("perfbench: {name}: span self times do not sum to their root");
            ok = false;
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{name}-seed{}.trace.json", args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, chrome_json(&spans, TRACE_SPANS)))
        {
            Ok(()) => {
                println!("trace: {} spans, the first ~{TRACE_SPANS} written to {path}", spans.len())
            }
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        let values = metrics::per_layer(&traced, &plain, &spans, &tel);
        let ok = ok && plain.failed == 0 && traced.failed == 0;
        (ok, plain.attempted + traced.attempted, plain.failed + traced.failed, PER_LAYER, values)
    };
    println!("workload {name} seed {} ops {} trace {}", args.seed, p.ops, u8::from(args.trace));
    for ((n, u), v) in names.iter().zip(&values) {
        println!("  {n:<36} {v:>16.4} {u}");
    }
    if !extra.is_empty() {
        println!("  not gated:");
    }
    for ((n, u), v) in extra {
        println!("  {n:<36} {v:>16.4} {u}");
    }
    println!("  {:<36} {:>16.4} ratio", "fail_frac", failed as f64 / attempted.max(1) as f64);
    println!("{}", result_json(correct, attempted, failed, names, &values));
    ExitCode::SUCCESS
}
