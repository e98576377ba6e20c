//! Structural validators for every machine-readable artifact the bench bins
//! write.
//!
//! Three bins emit schema-tagged JSON documents — `observatory`
//! (`BENCH_waf.json` and `BENCH_latency.json`), `recovery`
//! (`BENCH_recovery.json`) and `crashmatrix` (`--json`) — and each offers a
//! `--check` flag that `ci.sh` runs as a regression gate. This module is the
//! single home of those checks: one helper set, one validator per schema,
//! every validator returning the full list of violations (empty = valid) so
//! a gate can print them all instead of the first.

use std::collections::BTreeMap;
use storage::device::WriteCause;
use telemetry::JsonValue;

/// Schema tag for `BENCH_recovery.json` (the `recovery` bin).
pub const RECOVERY_SCHEMA: &str = "durassd.recovery.v1";
/// Schema tag for crash-campaign reports (`crashmatrix --json`).
pub const FORENSICS_SCHEMA: &str = "durassd.forensics.v1";
/// Schema tag for `BENCH_waf.json` (the `observatory` bin).
pub const WAF_SCHEMA: &str = "durassd.waf.v1";
/// Schema tag for `BENCH_latency.json` (the `observatory` bin).
pub const LATENCY_SCHEMA: &str = "durassd.latency.v1";

type Obj = BTreeMap<String, JsonValue>;

/// Parse `doc`, check its `schema` tag against `want` and take its
/// non-empty `rows` array. A wrong tag is recorded and the walk goes on; a
/// document without rows to walk records why and returns `None`.
fn tagged_rows(
    doc: &str,
    what: &str,
    want: &str,
    failures: &mut Vec<String>,
) -> Option<Vec<JsonValue>> {
    let v = match telemetry::parse_json(doc) {
        Ok(v) => v,
        Err(e) => {
            failures.push(format!("{what} does not parse: {e}"));
            return None;
        }
    };
    let Some(obj) = v.as_object() else {
        failures.push(format!("{what}: top level is not an object"));
        return None;
    };
    match obj.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == want => {}
        other => failures.push(format!("schema tag {other:?}, want {want:?}")),
    }
    match obj.get("rows").and_then(|r| r.as_array()) {
        None => failures.push("rows array missing".into()),
        Some(rows) if rows.is_empty() => failures.push("rows array empty".into()),
        Some(rows) => return Some(rows.clone()),
    }
    None
}

/// Fetch a numeric field as f64 (accepts any JSON number).
fn num(row: &Obj, key: &str) -> Option<f64> {
    row.get(key).and_then(|v| v.as_f64())
}

/// Validate a serialized `BENCH_recovery.json` document:
///
/// - parses as JSON, carries the [`RECOVERY_SCHEMA`] tag;
/// - a non-empty `rows` array covering ≥ 3 distinct devices and ≥ 2
///   distinct checkpoint intervals;
/// - every row has non-negative counters, a positive simulated recovery
///   time, and a time-to-first-read no smaller than the recovery time;
/// - the DuraSSD relational rows actually exercise checkpoint-bounded
///   replay: at least one record replayed *and* at least one skipped.
pub fn check_recovery_report(doc: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(rows) = tagged_rows(doc, "recovery report", RECOVERY_SCHEMA, &mut failures) else {
        return failures;
    };
    let mut devices = std::collections::BTreeSet::new();
    let mut intervals = std::collections::BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        let Some(row) = row.as_object() else {
            failures.push(format!("rows[{i}] is not an object"));
            continue;
        };
        let engine = row.get("engine").and_then(|v| v.as_str()).unwrap_or("?");
        let device = row.get("device").and_then(|v| v.as_str()).unwrap_or("?");
        devices.insert(device.to_string());
        if let Some(iv) = num(row, "ckpt_interval") {
            intervals.insert(iv as u64);
        } else {
            failures.push(format!("{engine}/{device}: ckpt_interval missing"));
        }
        for key in ["replayed", "skipped", "torn", "outstanding_bytes", "recovery_wall_ns"] {
            match num(row, key) {
                Some(x) if x >= 0.0 && x.is_finite() => {}
                other => failures
                    .push(format!("{engine}/{device}.{key} = {other:?}: want finite non-negative")),
            }
        }
        let rec_sim = num(row, "recovery_sim_ns");
        match rec_sim {
            Some(x) if x > 0.0 => {}
            other => {
                failures.push(format!("{engine}/{device}.recovery_sim_ns = {other:?}: want > 0"))
            }
        }
        match (num(row, "ttfr_sim_ns"), rec_sim) {
            (Some(ttfr), Some(rec)) if ttfr >= rec => {}
            (ttfr, rec) => failures.push(format!(
                "{engine}/{device}: ttfr_sim_ns {ttfr:?} must be ≥ recovery_sim_ns {rec:?}"
            )),
        }
        if engine == "relstore" && device == "durassd" {
            // The headline claim: recovery on DuraSSD is checkpoint-bounded
            // logical replay — some records replayed, the pre-checkpoint
            // prefix skipped.
            if num(row, "replayed").unwrap_or(0.0) < 1.0 {
                failures.push(format!("{engine}/{device}: expected ≥ 1 replayed record"));
            }
            if num(row, "skipped").unwrap_or(0.0) < 1.0 {
                failures.push(format!("{engine}/{device}: expected ≥ 1 skipped record"));
            }
        }
    }
    if devices.len() < 3 {
        failures.push(format!("want ≥ 3 distinct devices, got {devices:?}"));
    }
    if intervals.len() < 2 {
        failures.push(format!("want ≥ 2 distinct checkpoint intervals, got {intervals:?}"));
    }
    failures
}

const LOSS_CLASSES: [&str; 4] = ["acked-lost", "torn", "stale", "never-acked"];
const LOSS_LAYERS: [&str; 6] = [
    "cache-slot",
    "channel-queue",
    "lazy-ftl-map",
    "hdd-write-cache",
    "host-in-flight",
    "unattributed",
];

/// Structurally validate a `durassd.forensics.v1` crash-campaign document.
/// Checks the schema tag, that every row carries a tally / verdict /
/// postmortems, and that every loss row has a known classification and
/// layer attribution. Stops at the first problem (the walk is deep; later
/// findings would mostly repeat it).
pub fn check_forensics_report(doc: &str) -> Vec<String> {
    match forensics_first_problem(doc) {
        Ok(()) => Vec::new(),
        Err(e) => vec![e],
    }
}

fn forensics_first_problem(doc: &str) -> Result<(), String> {
    let v = telemetry::parse_json(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    match obj.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == FORENSICS_SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?}, expected {FORENSICS_SCHEMA:?}")),
        None => return Err("missing schema tag".into()),
    }
    for key in ["seed", "keys", "cuts"] {
        obj.get(key).and_then(|n| n.as_u64()).ok_or(format!("missing numeric {key:?}"))?;
    }
    let rows = obj.get("rows").and_then(|r| r.as_array()).ok_or("missing rows array")?;
    if rows.is_empty() {
        return Err("rows array is empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let r = row.as_object().ok_or(format!("row {i} is not an object"))?;
        let label =
            r.get("label").and_then(|l| l.as_str()).ok_or(format!("row {i} missing label"))?;
        let tally = r
            .get("tally")
            .and_then(|t| t.as_object())
            .ok_or(format!("row {label:?} missing tally"))?;
        for key in ["survived", "acked_lost", "torn", "stale", "never_acked"] {
            tally
                .get(key)
                .and_then(|n| n.as_u64())
                .ok_or(format!("row {label:?} tally missing {key:?}"))?;
        }
        r.get("verdict")
            .and_then(|s| s.as_str())
            .ok_or(format!("row {label:?} missing verdict"))?;
        r.get("cut_phase")
            .and_then(|s| s.as_str())
            .ok_or(format!("row {label:?} missing cut_phase"))?;
        let pms = r
            .get("postmortems")
            .and_then(|p| p.as_array())
            .ok_or(format!("row {label:?} missing postmortems"))?;
        for pm in pms {
            let p = pm.as_object().ok_or(format!("row {label:?}: postmortem not an object"))?;
            for key in ["device", "protection"] {
                p.get(key)
                    .and_then(|s| s.as_str())
                    .ok_or(format!("row {label:?} postmortem missing {key:?}"))?;
            }
            for key in ["dirty_slots", "discarded_dirty_slots", "nand_shorn_pages"] {
                p.get(key)
                    .and_then(|n| n.as_u64())
                    .ok_or(format!("row {label:?} postmortem missing {key:?}"))?;
            }
        }
        let losses = r
            .get("losses")
            .and_then(|l| l.as_array())
            .ok_or(format!("row {label:?} missing losses"))?;
        for loss in losses {
            let l = loss.as_object().ok_or(format!("row {label:?}: loss not an object"))?;
            l.get("unit")
                .and_then(|s| s.as_str())
                .ok_or_else(|| "loss missing unit".to_string())?;
            let class = l
                .get("classification")
                .and_then(|s| s.as_str())
                .ok_or(format!("row {label:?}: loss missing classification"))?;
            if !LOSS_CLASSES.contains(&class) {
                return Err(format!("row {label:?}: unknown classification {class:?}"));
            }
            let layer = l
                .get("layer")
                .and_then(|s| s.as_str())
                .ok_or(format!("row {label:?}: loss missing layer"))?;
            if !LOSS_LAYERS.contains(&layer) {
                return Err(format!("row {label:?}: unknown layer {layer:?}"));
            }
            l.get("evidence")
                .and_then(|s| s.as_str())
                .ok_or(format!("row {label:?}: loss missing evidence"))?;
        }
    }
    Ok(())
}

/// Validate a serialized `BENCH_waf.json` document:
///
/// - parses as JSON, carries the [`WAF_SCHEMA`] tag;
/// - a non-empty `rows` array covering ≥ 3 distinct workloads, each present
///   in both a `durable` and a `volatile` row;
/// - every row has positive host and media page counts, a finite positive
///   `waf`, and an `absorption_pct` in `[0, 100]`;
/// - per-row provenance conservation: the `media_by_cause` object carries
///   exactly the [`WriteCause::ALL`] labels and its values sum to
///   `media_pages` (and `host_by_cause` likewise to `host_pages`) — a write
///   the attribution layer cannot explain fails the gate;
/// - at least one durable row absorbed overwrites, and for every workload
///   the durable row absorbs at least as much as its volatile twin (the
///   paper's claim, stated as an inequality so it is scale-independent).
pub fn check_waf_report(doc: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(rows) = tagged_rows(doc, "BENCH_waf.json", WAF_SCHEMA, &mut failures) else {
        return failures;
    };
    let mut workloads = std::collections::BTreeSet::new();
    // workload → (durable absorbed, volatile absorbed)
    let mut absorbed: BTreeMap<String, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let Some(row) = row.as_object() else {
            failures.push(format!("rows[{i}] is not an object"));
            continue;
        };
        let workload = row.get("workload").and_then(|v| v.as_str()).unwrap_or("?");
        let mode = row.get("mode").and_then(|v| v.as_str()).unwrap_or("?");
        let tag = format!("{workload}/{mode}");
        if !["durable", "volatile"].contains(&mode) {
            failures.push(format!("{tag}: mode must be durable|volatile"));
        }
        workloads.insert(workload.to_string());
        if row.get("device").and_then(|v| v.as_str()).is_none() {
            failures.push(format!("{tag}: device missing"));
        }
        for key in ["host_pages", "media_pages"] {
            match num(row, key) {
                Some(x) if x > 0.0 && x.is_finite() => {}
                other => failures.push(format!("{tag}.{key} = {other:?}: want positive")),
            }
        }
        match num(row, "waf") {
            Some(x) if x.is_finite() && x > 0.0 => {}
            other => failures.push(format!("{tag}.waf = {other:?}: want finite positive")),
        }
        match num(row, "absorption_pct") {
            Some(x) if (0.0..=100.0).contains(&x) => {}
            other => failures.push(format!("{tag}.absorption_pct = {other:?}: want 0..=100")),
        }
        let slot = absorbed.entry(workload.to_string()).or_default();
        match mode {
            "durable" => slot.0 = num(row, "absorbed_overwrites"),
            "volatile" => slot.1 = num(row, "absorbed_overwrites"),
            _ => {}
        }
        // Conservation: the per-cause breakdowns must explain every page at
        // both boundaries, label for label.
        for (key, total_key) in [("media_by_cause", "media_pages"), ("host_by_cause", "host_pages")]
        {
            let Some(by_cause) = row.get(key).and_then(|v| v.as_object()) else {
                failures.push(format!("{tag}: {key} object missing"));
                continue;
            };
            let mut sum = 0.0;
            for cause in WriteCause::ALL {
                match by_cause.get(cause.label()).and_then(|v| v.as_f64()) {
                    Some(x) if x >= 0.0 && x.is_finite() => sum += x,
                    other => failures
                        .push(format!("{tag}.{key}.{} = {other:?}: want count", cause.label())),
                }
            }
            if by_cause.len() != WriteCause::ALL.len() {
                failures.push(format!(
                    "{tag}.{key}: {} entries, want exactly {}",
                    by_cause.len(),
                    WriteCause::ALL.len()
                ));
            }
            match num(row, total_key) {
                Some(total) if sum == total => {}
                total => failures.push(format!(
                    "{tag}: Σ {key} = {sum} does not equal {total_key} {total:?} — \
                     unattributed writes"
                )),
            }
        }
    }
    if workloads.len() < 3 {
        failures.push(format!("want ≥ 3 distinct workloads, got {workloads:?}"));
    }
    let mut any_absorbed = false;
    for (workload, (dur, vol)) in &absorbed {
        match (dur, vol) {
            (Some(d), Some(v)) => {
                if d >= &1.0 {
                    any_absorbed = true;
                }
                if d < v {
                    failures
                        .push(format!("{workload}: durable absorbed {d} < volatile absorbed {v}"));
                }
            }
            _ => failures.push(format!(
                "{workload}: need both durable and volatile rows (got durable {dur:?}, \
                 volatile {vol:?})"
            )),
        }
    }
    if !any_absorbed {
        failures.push("no durable row absorbed any overwrites".into());
    }
    failures
}

/// Validate one latency-anatomy segment table (`segments` object): every key
/// must be a known [`telemetry::SegKind`] label and every entry must carry
/// non-negative `count` / `total_ns` / `p50` / `p99` / `max` fields.
fn check_segment_table(tag: &str, segs: &Obj, failures: &mut Vec<String>) {
    let known: Vec<&str> = telemetry::SegKind::ALL.iter().map(|k| k.label()).collect();
    for (label, entry) in segs {
        if !known.contains(&label.as_str()) {
            failures.push(format!("{tag}.segments.{label}: unknown segment kind"));
            continue;
        }
        let Some(entry) = entry.as_object() else {
            failures.push(format!("{tag}.segments.{label}: not an object"));
            continue;
        };
        for key in ["count", "total_ns", "p50", "p99", "max"] {
            match entry.get(key).and_then(|v| v.as_f64()) {
                Some(x) if x >= 0.0 && x.is_finite() => {}
                other => failures.push(format!(
                    "{tag}.segments.{label}.{key} = {other:?}: want finite non-negative"
                )),
            }
        }
    }
}

/// Validate a serialized `BENCH_latency.json` document:
///
/// - parses as JSON, carries the [`LATENCY_SCHEMA`] tag;
/// - a non-empty `rows` array covering ≥ 3 distinct workloads, each present
///   in both a `durable` and a `volatile` row;
/// - every row has a positive commit-op `count`, ordered percentiles
///   (`min ≤ p50 ≤ p99 ≤ p999 ≤ max`), zero conservation `violations`, a
///   non-empty per-segment-kind table (known labels only), and a `tail`
///   object (slowest captured commit) whose breakdown is present;
/// - the paper's durability claim as a latency gate: durable-mode tails
///   contain **zero** flush-cache time (the write cache is power-loss-proof,
///   so commits never wait on FLUSH CACHE), while every volatile tail is
///   flush-dominated (`flush_frac ≥ 0.5`).
pub fn check_latency_report(doc: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(rows) = tagged_rows(doc, "BENCH_latency.json", LATENCY_SCHEMA, &mut failures) else {
        return failures;
    };
    let mut workloads: BTreeMap<String, (bool, bool)> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let Some(row) = row.as_object() else {
            failures.push(format!("rows[{i}] is not an object"));
            continue;
        };
        let workload = row.get("workload").and_then(|v| v.as_str()).unwrap_or("?");
        let mode = row.get("mode").and_then(|v| v.as_str()).unwrap_or("?");
        let tag = format!("{workload}/{mode}");
        let slot = workloads.entry(workload.to_string()).or_default();
        match mode {
            "durable" => slot.0 = true,
            "volatile" => slot.1 = true,
            _ => failures.push(format!("{tag}: mode must be durable|volatile")),
        }
        for key in ["device", "commit_op"] {
            if row.get(key).and_then(|v| v.as_str()).is_none() {
                failures.push(format!("{tag}: {key} missing"));
            }
        }
        match num(row, "count") {
            Some(x) if x > 0.0 => {}
            other => failures.push(format!("{tag}.count = {other:?}: want positive")),
        }
        let pct: Vec<Option<f64>> =
            ["min", "p50", "p99", "p999", "max"].iter().map(|k| num(row, k)).collect();
        if pct.iter().any(|p| !matches!(p, Some(x) if x.is_finite() && *x >= 0.0)) {
            failures.push(format!("{tag}: min/p50/p99/p999/max must all be present: {pct:?}"));
        } else if pct.windows(2).any(|w| w[0] > w[1]) {
            failures.push(format!("{tag}: percentiles not monotone: {pct:?}"));
        }
        match num(row, "violations") {
            Some(0.0) => {}
            other => failures
                .push(format!("{tag}.violations = {other:?}: segment sums exceeded wall latency")),
        }
        match row.get("segments").and_then(|v| v.as_object()) {
            None => failures.push(format!("{tag}: segments object missing")),
            Some(segs) if segs.is_empty() => failures.push(format!("{tag}: segments object empty")),
            Some(segs) => check_segment_table(&tag, segs, &mut failures),
        }
        let Some(tail) = row.get("tail").and_then(|v| v.as_object()) else {
            failures.push(format!("{tag}: tail object missing"));
            continue;
        };
        match num(tail, "wall") {
            Some(x) if x > 0.0 => {}
            other => failures.push(format!("{tag}.tail.wall = {other:?}: want positive")),
        }
        if tail.get("segments").and_then(|v| v.as_object()).is_none() {
            failures.push(format!("{tag}.tail: segments breakdown missing"));
        }
        let flush_ns = num(tail, "flush_cache_ns");
        let flush_frac = num(tail, "flush_frac");
        match mode {
            "durable" => {
                // Durable cache: FLUSH CACHE is free, so the *slowest* commit
                // observed must contain zero flush time — and so must the
                // whole run (segment histogram absent or empty).
                match flush_ns {
                    Some(0.0) => {}
                    other => failures.push(format!(
                        "{tag}: durable tail has flush_cache time {other:?}, want 0"
                    )),
                }
                if let Some(segs) = row.get("segments").and_then(|v| v.as_object()) {
                    if let Some(fc) = segs.get("flush_cache").and_then(|v| v.as_object()) {
                        match fc.get("count").and_then(|v| v.as_f64()) {
                            Some(0.0) => {}
                            c => failures.push(format!(
                                "{tag}: durable run recorded {c:?} flush_cache segments, want 0"
                            )),
                        }
                    }
                }
            }
            "volatile" => match flush_frac {
                Some(f) if f >= 0.5 => {}
                other => failures.push(format!(
                    "{tag}: volatile tail flush_frac = {other:?}, want ≥ 0.5 (flush-dominated)"
                )),
            },
            _ => {}
        }
    }
    if workloads.len() < 3 {
        let names: Vec<_> = workloads.keys().collect();
        failures.push(format!("want ≥ 3 distinct workloads, got {names:?}"));
    }
    for (workload, (dur, vol)) in &workloads {
        if !(*dur && *vol) {
            failures.push(format!(
                "{workload}: need both durable and volatile rows (durable {dur}, volatile {vol})"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waf_row(workload: &str, mode: &str, host: u64, media: u64, absorbed: u64) -> String {
        // Attribute everything to host_data at the host boundary and split
        // media pages between host_data and gc_relocate.
        let gc = media / 4;
        let mut host_bc = String::new();
        let mut media_bc = String::new();
        for cause in WriteCause::ALL {
            if !host_bc.is_empty() {
                host_bc.push(',');
                media_bc.push(',');
            }
            let (h, m) = match cause {
                WriteCause::HostData => (host, media - gc),
                WriteCause::GcRelocate => (0, gc),
                _ => (0, 0),
            };
            host_bc.push_str(&format!("\"{}\":{h}", cause.label()));
            media_bc.push_str(&format!("\"{}\":{m}", cause.label()));
        }
        format!(
            "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"device\":\"durassd\",\
             \"host_pages\":{host},\"media_pages\":{media},\"waf\":{:.4},\
             \"absorbed_overwrites\":{absorbed},\"absorption_pct\":{:.2},\
             \"host_by_cause\":{{{host_bc}}},\"media_by_cause\":{{{media_bc}}}}}",
            media as f64 / host as f64,
            100.0 * absorbed as f64 / (host + absorbed) as f64,
        )
    }

    fn waf_doc(rows: &[String]) -> String {
        format!("{{\"schema\":\"{WAF_SCHEMA}\",\"rows\":[{}]}}", rows.join(","))
    }

    #[test]
    fn waf_report_validation_accepts_conserved_documents() {
        let doc = waf_doc(&[
            waf_row("fio", "durable", 1000, 1200, 500),
            waf_row("fio", "volatile", 1500, 1900, 0),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
            waf_row("ycsb_a", "volatile", 800, 1100, 0),
            waf_row("tpcc", "durable", 600, 700, 40),
            waf_row("tpcc", "volatile", 600, 900, 0),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn waf_report_validation_rejects_violations() {
        // Not JSON / wrong tag.
        assert!(!check_waf_report("nope").is_empty());
        assert!(!check_waf_report("{\"schema\":\"other.v1\",\"rows\":[]}").is_empty());

        // A row whose per-cause counts do not sum to the total is the core
        // conservation gate.
        let mut leaky = waf_row("fio", "durable", 1000, 1200, 500);
        leaky = leaky.replace("\"media_pages\":1200", "\"media_pages\":1201");
        let doc = waf_doc(&[
            leaky,
            waf_row("fio", "volatile", 1500, 1900, 0),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
            waf_row("ycsb_a", "volatile", 800, 1100, 0),
            waf_row("tpcc", "durable", 600, 700, 40),
            waf_row("tpcc", "volatile", 600, 900, 0),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.iter().any(|f| f.contains("unattributed")), "{fails:?}");

        // Durable absorbing less than volatile contradicts the paper claim.
        let doc = waf_doc(&[
            waf_row("fio", "durable", 1000, 1200, 5),
            waf_row("fio", "volatile", 1500, 1900, 50),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
            waf_row("ycsb_a", "volatile", 800, 1100, 0),
            waf_row("tpcc", "durable", 600, 700, 40),
            waf_row("tpcc", "volatile", 600, 900, 0),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.iter().any(|f| f.contains("durable absorbed")), "{fails:?}");

        // Fewer than three workloads, or a missing mode twin.
        let doc = waf_doc(&[
            waf_row("fio", "durable", 1000, 1200, 500),
            waf_row("fio", "volatile", 1500, 1900, 0),
            waf_row("ycsb_a", "durable", 800, 1000, 60),
        ]);
        let fails = check_waf_report(&doc);
        assert!(fails.iter().any(|f| f.contains("distinct workloads")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("both durable and volatile")), "{fails:?}");
    }

    fn seg_entry(count: u64, total: u64) -> String {
        format!(
            "{{\"count\":{count},\"total_ns\":{total},\"p50\":{p},\"p99\":{p},\"max\":{p}}}",
            p = if count == 0 { 0 } else { total / count.max(1) }
        )
    }

    fn latency_row(workload: &str, mode: &str) -> String {
        let durable = mode == "durable";
        let (flush_ns, flush_frac) = if durable { (0u64, 0.0) } else { (90_000u64, 0.9) };
        let mut segs = format!("\"wal_fsync\":{}", seg_entry(100, 5_000_000));
        if !durable {
            segs.push_str(&format!(",\"flush_cache\":{}", seg_entry(100, 9_000_000)));
        }
        format!(
            "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"device\":\"d\",\
             \"commit_op\":\"engine.commit\",\"count\":100,\"min\":10,\"p50\":50,\
             \"p99\":900,\"p999\":1000,\"max\":100000,\"violations\":0,\
             \"segments\":{{{segs}}},\
             \"tail\":{{\"wall\":100000,\"flush_cache_ns\":{flush_ns},\
             \"flush_frac\":{flush_frac:.2},\"segments\":{{\"wal_fsync\":10000}}}}}}"
        )
    }

    fn latency_doc(rows: &[String]) -> String {
        format!("{{\"schema\":\"{LATENCY_SCHEMA}\",\"rows\":[{}]}}", rows.join(","))
    }

    fn full_latency_doc() -> Vec<String> {
        ["fio", "ycsb_a", "tpcc"]
            .iter()
            .flat_map(|w| ["durable", "volatile"].iter().map(|m| latency_row(w, m)))
            .collect()
    }

    #[test]
    fn latency_report_validation_accepts_good_documents() {
        let doc = latency_doc(&full_latency_doc());
        let fails = check_latency_report(&doc);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn latency_report_validation_rejects_violations() {
        assert!(!check_latency_report("nope").is_empty());
        assert!(!check_latency_report("{\"schema\":\"other.v1\",\"rows\":[]}").is_empty());

        // A durable tail containing flush-cache time contradicts the paper.
        let mut rows = full_latency_doc();
        rows[0] = rows[0].replace("\"flush_cache_ns\":0", "\"flush_cache_ns\":5000");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("durable tail has flush_cache")), "{fails:?}");

        // A durable run recording any flush_cache segments fails too.
        let mut rows = full_latency_doc();
        let inject = format!("}},\"flush_cache\":{}}},\"tail\"", seg_entry(3, 1000));
        rows[0] = rows[0].replacen("}},\"tail\"", &inject, 1);
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("flush_cache segments")), "{fails:?}");

        // A volatile tail that is not flush-dominated.
        let mut rows = full_latency_doc();
        rows[1] = rows[1].replace("\"flush_frac\":0.90", "\"flush_frac\":0.10");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("flush-dominated")), "{fails:?}");

        // Conservation violations gate the report outright.
        let mut rows = full_latency_doc();
        rows[2] = rows[2].replace("\"violations\":0", "\"violations\":2");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("exceeded wall")), "{fails:?}");

        // Unknown segment kinds are typos, not data.
        let mut rows = full_latency_doc();
        rows[3] = rows[3].replace("\"wal_fsync\":{\"count\"", "\"wal_fsyncc\":{\"count\"");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("unknown segment kind")), "{fails:?}");

        // Non-monotone percentiles.
        let mut rows = full_latency_doc();
        rows[4] = rows[4].replace("\"p999\":1000", "\"p999\":5");
        let fails = check_latency_report(&latency_doc(&rows));
        assert!(fails.iter().any(|f| f.contains("not monotone")), "{fails:?}");

        // Missing mode twin.
        let rows = full_latency_doc();
        let fails = check_latency_report(&latency_doc(&rows[..5]));
        assert!(fails.iter().any(|f| f.contains("both durable and volatile")), "{fails:?}");
    }

    fn sample_campaign() -> forensics::CampaignReport {
        use forensics::{
            reconcile, AckContract, CacheSlotSnap, CampaignReport, DevicePostmortem, DumpOutcome,
            Ledger, Probe, ProbeResult, RecoverySnap, UnitKind,
        };
        let l = Ledger::new(AckContract::VolatileAck);
        l.pend(UnitKind::RelstoreCommit, b"k0", Ledger::digest(b"v0"), 5);
        l.pend(UnitKind::RelstoreCommit, b"k1", Ledger::digest(b"v1"), 6);
        l.ack_all_pending(9, false);
        l.pend(UnitKind::RelstoreCommit, b"k2", Ledger::digest(b"v2"), 12);
        let pm = DevicePostmortem {
            device: "ssd".into(),
            protection: "volatile".into(),
            cut_at: 20,
            dirty_slots: vec![CacheSlotSnap { lpn: 3, draining: true, ackable_at: 8 }],
            discarded_dirty_slots: 1,
            channel_drain_positions: vec![0, 15],
            dump: Some(DumpOutcome { bytes: 4096, budget_bytes: 8192, within_budget: true }),
            unpersisted_map: vec![(3, None), (4, Some(9))],
            rolled_back_map_entries: 2,
            nand_shorn_pages: 1,
            aborted_inflight_writes: 1,
        };
        let rec = RecoverySnap {
            device: "ssd".into(),
            ready_at: 500,
            requeued_slots: 0,
            recovered_via_dump: false,
            scan_only: true,
        };
        let probes = vec![
            Probe::new(b"k0", ProbeResult::Value(Ledger::digest(b"v0"))),
            Probe::new(b"k1", ProbeResult::Missing),
            Probe::new(b"k2", ProbeResult::Missing),
        ];
        let row = reconcile(
            "engine SSD-A OFF/OFF",
            2,
            "after-commit",
            20,
            &l,
            &probes,
            vec![pm],
            vec![rec],
        );
        CampaignReport { seed: 7, keys: 3, cuts: 1, rows: vec![row] }
    }

    #[test]
    fn forensics_validation_accepts_real_reports() {
        let doc = sample_campaign().to_json();
        let fails = check_forensics_report(&doc);
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn forensics_validation_rejects_malformed_documents() {
        assert!(!check_forensics_report("{").is_empty());
        assert!(!check_forensics_report("{\"schema\":\"other.v9\"}").is_empty());
        let doc = sample_campaign().to_json();
        // Corrupt a classification: must be rejected.
        let bad = doc.replace("\"acked-lost\"", "\"evaporated\"");
        let errs = check_forensics_report(&bad);
        assert!(
            errs.iter().any(|e| e.contains("classification") || e.contains("evaporated")),
            "{errs:?}"
        );
        // Strip the rows: must be rejected.
        let empty =
            "{\"schema\":\"durassd.forensics.v1\",\"seed\":1,\"keys\":1,\"cuts\":1,\"rows\":[]}";
        assert!(!check_forensics_report(empty).is_empty());
    }
}
