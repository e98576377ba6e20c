//! Shared helpers for the experiment binaries (one per paper table/figure)
//! and the Criterion microbenches.
//!
//! Every binary prints the paper's rows next to the measured values so the
//! shape comparison is immediate. Scales are chosen so each cell finishes in
//! seconds of wall-clock time; override with `--scale N` where supported.

use durassd::{Ssd, SsdConfig};
use forensics::DeviceHealth;
use hdd::{Hdd, HddConfig};
use telemetry::{OpBreakdown, SegKind, Telemetry};

pub mod schema;

/// Blocks per plane used by the benchmark SSDs: 16 ⇒ 4GB raw, ~3.4GB
/// exported — big enough for realistic mapping-table behaviour, small enough
/// to simulate quickly.
pub const BENCH_BLOCKS_PER_PLANE: usize = 16;

/// The DuraSSD device at benchmark scale.
pub fn durassd_bench(cache_on: bool) -> Ssd {
    Ssd::new(
        SsdConfig::durassd(BENCH_BLOCKS_PER_PLANE).to_builder().cache_enabled(cache_on).build(),
    )
}

/// The SSD-A baseline at benchmark scale.
pub fn ssd_a_bench(cache_on: bool) -> Ssd {
    Ssd::new(SsdConfig::ssd_a(BENCH_BLOCKS_PER_PLANE).to_builder().cache_enabled(cache_on).build())
}

/// The SSD-B baseline at benchmark scale.
pub fn ssd_b_bench(cache_on: bool) -> Ssd {
    Ssd::new(SsdConfig::ssd_b(BENCH_BLOCKS_PER_PLANE).to_builder().cache_enabled(cache_on).build())
}

/// The Cheetah-class disk at benchmark scale.
pub fn hdd_bench(cache_on: bool) -> Hdd {
    let cfg = HddConfig { cache_enabled: cache_on, ..HddConfig::default() };
    Hdd::new(cfg)
}

/// The value of `--flag value` in `args` as a `u64`, or `default` when the
/// flag is absent. A flag without a value, or with one that does not parse,
/// is an error naming both.
pub fn parse_u64_flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(default) };
    let v = args.get(i + 1).ok_or_else(|| format!("{name}: missing value"))?;
    v.parse().map_err(|_| format!("{name}: expected an unsigned integer, got `{v}`"))
}

/// Parse a `--flag value` argument of the process with a default; exits
/// with status 2 and a message on a malformed value.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    parse_u64_flag(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parse a `--flag value` string argument (`None` when absent).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Write `content` to `path` atomically: write a `.tmp` sibling, then
/// rename over the target, so a crash or ctrl-C mid-write never leaves a
/// truncated artifact behind.
pub fn write_atomic(path: &str, content: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// Machine-readable telemetry output for the experiment binaries.
///
/// Every bin constructs one of these at the top of `main` and calls
/// [`TelemetrySink::add`] once per measured section (device row, pool size,
/// workload phase, ...) with the section's [`Telemetry`] registry, then
/// [`TelemetrySink::finish`] at the end. When the bin was invoked with
/// `--telemetry-out <path>`, finish writes one JSON document — an object
/// keyed by section label, each value the full registry export
/// ([`Telemetry::to_json`]: counters, gauges, histograms, and the
/// sampled time-series when sampling was enabled) — atomically (tmp +
/// rename) and prints the path. Without the flag everything is a no-op, so
/// the human-readable tables stay the default interface.
#[derive(Default)]
pub struct TelemetrySink {
    path: Option<String>,
    sections: Vec<(String, String)>,
}

impl TelemetrySink {
    /// Build from the process arguments (`--telemetry-out <path>`).
    pub fn from_args() -> Self {
        Self { path: arg_str("--telemetry-out"), sections: Vec::new() }
    }

    /// A sink that always writes to `path` (tests).
    pub fn to_path(path: &str) -> Self {
        Self { path: Some(path.to_string()), sections: Vec::new() }
    }

    /// Whether an output path was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Snapshot a section's registry under `label`. Duplicate labels get a
    /// numeric suffix so no section silently overwrites another.
    pub fn add(&mut self, label: &str, tel: &Telemetry) {
        if self.path.is_none() {
            return;
        }
        let mut name = label.to_string();
        let mut n = 1usize;
        while self.sections.iter().any(|(l, _)| *l == name) {
            n += 1;
            name = format!("{label}#{n}");
        }
        self.sections.push((name, tel.to_json()));
    }

    /// Write the collected sections (if an output path was given) and print
    /// where they went. Returns the path written, if any.
    pub fn finish(&self) -> Option<String> {
        let path = self.path.as_deref()?;
        let mut out = String::from("{");
        for (i, (label, json)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            for c in label.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push_str("\":");
            out.push_str(json);
        }
        out.push('}');
        write_atomic(path, &out).expect("telemetry output path is writable");
        println!("telemetry: wrote {} section(s) to {path}", self.sections.len());
        Some(path.to_string())
    }
}

/// Schema tag the `recovery` bin writes and [`validate_recovery_report`]
/// gates on. Re-exported from [`schema`], where all report validators live.
pub const RECOVERY_SCHEMA: &str = schema::RECOVERY_SCHEMA;

/// Validate a serialized `BENCH_recovery.json` document. Returns the list
/// of violations (empty = valid). Thin alias for
/// [`schema::check_recovery_report`], kept under the name the `recovery`
/// bin grew up with.
pub fn validate_recovery_report(doc: &str) -> Vec<String> {
    schema::check_recovery_report(doc)
}

/// Print a rule line for report tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// One-line latency anatomy of a run, by cause: the total segment time
/// (the sums of the `seg.*` histograms, which anatomy records) and the
/// share of each segment kind — `flush_cache` always, then the largest
/// other kinds.
///
/// This is the attribution the paper argues about in prose: a durable cache
/// deployment (nobarrier) should show `flush_cache 0.0%`, while a volatile
/// cache with barriers pays most of its time there.
pub fn stall_breakdown(tel: &Telemetry) -> String {
    let sums = SegKind::ALL.map(|k| (k, tel.histogram(k.hist_name()).map_or(0, |h| h.sum())));
    let total: u128 = sums.iter().map(|&(_, ns)| ns).sum();
    if total == 0 {
        return "segments: none recorded".to_string();
    }
    let share = |(k, ns): (SegKind, u128)| {
        format!("{} {:5.1}%", k.label(), 100.0 * ns as f64 / total as f64)
    };
    let mut rest: Vec<_> =
        sums.into_iter().filter(|&(k, ns)| k != SegKind::FlushCache && ns > 0).collect();
    rest.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let mut line = format!(
        "segments {:>9.1}ms | {}",
        total as f64 / 1e6,
        share(sums[SegKind::FlushCache.index()])
    );
    for &s in rest.iter().take(4) {
        line.push_str("  ");
        line.push_str(&share(s));
    }
    line
}

/// One-line durability-health summary for a device that tracks it
/// ([`forensics::Forensic::health`]): shorn reads, emergency dumps (and how
/// many blew the capacitor budget), the largest dump, recovery runs, and
/// acked slots destroyed. Printed next to the segment line so a run's
/// performance story and its durability story sit on adjacent lines.
pub fn ssd_health_line(h: &DeviceHealth) -> String {
    // WAF is media pages per host page; absorption is the share of host
    // pages the write cache coalesced away before they could reach flash.
    let waf = if h.host_pages_written > 0 {
        h.media_pages_written as f64 / h.host_pages_written as f64
    } else {
        0.0
    };
    let absorption = if h.host_pages_written > 0 {
        100.0 * h.absorbed_overwrites as f64 / h.host_pages_written as f64
    } else {
        0.0
    };
    format!(
        "ssd health | shorn_reads {}  dumps {} (over-budget {})  max_dump {}B  recoveries {}  \
         lost_acked {}  waf {waf:.2}  absorbed {absorption:.1}%  wear_spread {}",
        h.shorn_reads,
        h.dumps,
        h.dump_over_budget,
        h.max_dump_bytes,
        h.recoveries,
        h.lost_acked_slots,
        h.wear_spread
    )
}

/// Format nanoseconds compactly for latency tables (ns → µs → ms).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One-line latency summary (p50/p99/p999/max) for a named histogram.
pub fn latency_line(tel: &Telemetry, name: &str) -> Option<String> {
    let h = tel.histogram(name)?;
    if h.count() == 0 {
        return None;
    }
    Some(format!(
        "{name}: p50 {:>8}  p99 {:>8}  p999 {:>8}  max {:>8}  ({} samples)",
        fmt_ns(h.p50()),
        fmt_ns(h.p99()),
        fmt_ns(h.p999()),
        fmt_ns(h.max()),
        h.count()
    ))
}

/// A telemetry handle with latency anatomy on (8 tail outliers per op), as
/// the bins that print [`print_telemetry`]'s segment line need.
pub fn anatomy_telemetry() -> Telemetry {
    let tel = Telemetry::new();
    tel.enable_anatomy(8);
    tel
}

/// Print the standard per-run telemetry epilogue: the segment line plus
/// latency percentiles for every histogram in `names` that has samples.
/// Exits with status 1 when the anatomy counted a conservation violation
/// (an op whose segments exceed its wall latency): the line would then
/// attribute time that never passed.
pub fn print_telemetry(indent: &str, tel: &Telemetry, names: &[&str]) {
    println!("{indent}{}", stall_breakdown(tel));
    for name in names {
        if let Some(line) = latency_line(tel, name) {
            println!("{indent}{line}");
        }
    }
    let violations = tel.anatomy_violations();
    if violations > 0 {
        eprintln!("error: latency anatomy counted {violations} conservation violation(s)");
        std::process::exit(1);
    }
}

/// Per-segment-kind run histograms as a JSON object, empty kinds skipped:
/// `{"<label>":{"count":..,"total_ns":..,"p50":..,"p99":..,"max":..},...}`.
/// The table is the run-wide view of the latency anatomy — the per-op view
/// is [`breakdown_tail_json`].
pub fn seg_table_json(tel: &Telemetry) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for k in SegKind::ALL {
        let Some(h) = tel.histogram(k.hist_name()) else { continue };
        if h.count() == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"total_ns\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            k.label(),
            h.count(),
            h.sum(),
            h.p50(),
            h.p99(),
            h.max()
        ));
    }
    out.push('}');
    out
}

/// One captured op breakdown rendered as a `tail` object for
/// `durassd.latency.v1` rows: wall latency, its flush-cache share (the
/// durability gate both `latency --check` and `tail --check` run on), the
/// trace-ID for cross-referencing the Chrome trace, and the non-zero
/// segments.
pub fn breakdown_tail_json(bd: &OpBreakdown) -> String {
    let flush = bd.seg(SegKind::FlushCache);
    let frac = flush as f64 / bd.wall.max(1) as f64;
    let mut segs = String::from("{");
    let mut first = true;
    for k in SegKind::ALL {
        let ns = bd.seg(k);
        if ns == 0 {
            continue;
        }
        if !first {
            segs.push(',');
        }
        first = false;
        segs.push_str(&format!("\"{}\":{ns}", k.label()));
    }
    segs.push('}');
    format!(
        "{{\"wall\":{},\"flush_cache_ns\":{flush},\"flush_frac\":{frac:.4},\
         \"trace\":{},\"segments\":{segs}}}",
        bd.wall, bd.trace
    )
}

/// One `durassd.latency.v1` row for op `commit_op` out of `tel`: percentile
/// ladder, conservation-violation count, run segment table, and the slowest
/// captured breakdown. `None` when the op never ran (no histogram or no
/// captured outlier).
pub fn latency_row_json(
    workload: &str,
    mode: &str,
    device: &str,
    commit_op: &str,
    tel: &Telemetry,
) -> Option<String> {
    let h = tel.histogram(commit_op)?;
    if h.count() == 0 {
        return None;
    }
    let tail = tel.outliers_for(commit_op);
    let tail = tail.first()?;
    Some(format!(
        "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"device\":\"{device}\",\
         \"commit_op\":\"{commit_op}\",\"count\":{},\"min\":{},\"p50\":{},\"p99\":{},\
         \"p999\":{},\"max\":{},\"violations\":{},\"segments\":{},\"tail\":{}}}",
        h.count(),
        h.min(),
        h.p50(),
        h.p99(),
        h.p999(),
        h.max(),
        tel.anatomy_violations(),
        seg_table_json(tel),
        breakdown_tail_json(tail),
    ))
}

/// Format an IOPS/TPS value with thousands separators.
pub fn fmt_rate(v: f64) -> String {
    let n = v.round() as u64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(58.4), "58");
        assert_eq!(fmt_rate(15319.0), "15,319");
        assert_eq!(fmt_rate(1234567.0), "1,234,567");
    }

    #[test]
    fn stall_breakdown_and_latency_lines() {
        let t = Telemetry::new();
        assert_eq!(stall_breakdown(&t), "segments: none recorded");
        // Without anatomy no segment is recorded.
        t.seg(SegKind::MediaProgram, 1_000);
        assert_eq!(stall_breakdown(&t), "segments: none recorded");
        t.enable_anatomy(1);
        t.begin_frame("op", 0);
        t.seg(SegKind::MediaProgram, 3_000_000);
        t.seg(SegKind::Xfer, 500_000);
        t.seg(SegKind::NcqWait, 500_000);
        t.end_frame("op", 4_000_000);
        let line = stall_breakdown(&t);
        assert_eq!(
            line,
            "segments       4.0ms | flush_cache   0.0%  media_program  75.0%  \
             ncq_wait  12.5%  xfer  12.5%",
            "flush_cache always first, then the rest largest first"
        );
        t.begin_frame("op", 0);
        t.seg(SegKind::FlushCache, 4_000_000);
        t.end_frame("op", 4_000_000);
        let line = stall_breakdown(&t);
        assert!(line.starts_with("segments       8.0ms | flush_cache  50.0%"), "{line}");
        assert!(latency_line(&t, "missing").is_none());
        t.record("dev.x.write", 5_000);
        let lat = latency_line(&t, "dev.x.write").unwrap();
        assert!(lat.contains("p50") && lat.contains("p999"), "{lat}");
    }

    #[test]
    fn u64_flags_parse_or_name_the_bad_value() {
        let args: Vec<String> =
            ["bin", "--commits", "abc", "--ops", "12", "--seed"].map(String::from).to_vec();
        assert_eq!(parse_u64_flag(&args, "--ops", 5), Ok(12));
        assert_eq!(parse_u64_flag(&args, "--absent", 5), Ok(5));
        assert_eq!(
            parse_u64_flag(&args, "--commits", 3_000),
            Err("--commits: expected an unsigned integer, got `abc`".to_string())
        );
        assert_eq!(parse_u64_flag(&args, "--seed", 7), Err("--seed: missing value".to_string()));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(25_000), "25.0µs");
        assert_eq!(fmt_ns(12_000_000), "12.0ms");
    }

    #[test]
    fn telemetry_sink_writes_labeled_sections_atomically() {
        let dir = std::env::temp_dir().join("durassd_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path = path.to_str().unwrap().to_string();
        let mut sink = TelemetrySink::to_path(&path);
        assert!(sink.enabled());
        let t = Telemetry::new();
        t.incr("ops", 3);
        sink.add("row A", &t);
        sink.add("row A", &t); // duplicate label gets a suffix, not clobbered
        assert_eq!(sink.finish().as_deref(), Some(path.as_str()));
        let doc = std::fs::read_to_string(&path).unwrap();
        let v = telemetry::parse_json(&doc).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.contains_key("row A") && obj.contains_key("row A#2"), "{doc}");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists(), "tmp file renamed away");
        // Each section round-trips through the registry parser.
        std::fs::remove_file(&path).ok();
        // A sink without a path is inert.
        let mut off = TelemetrySink::default();
        off.add("x", &t);
        assert!(!off.enabled() && off.finish().is_none());
    }

    fn recovery_row(
        engine: &str,
        device: &str,
        interval: u64,
        replayed: u64,
        skipped: u64,
    ) -> String {
        format!(
            "{{\"engine\":\"{engine}\",\"device\":\"{device}\",\"ckpt_interval\":{interval},\
             \"replayed\":{replayed},\"skipped\":{skipped},\"torn\":0,\
             \"outstanding_bytes\":4096,\"recovery_wall_ns\":100,\
             \"recovery_sim_ns\":5000,\"ttfr_sim_ns\":6000}}"
        )
    }

    #[test]
    fn recovery_report_validation() {
        let good = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{},{},{},{}]}}",
            recovery_row("relstore", "durassd", 256, 3, 9),
            recovery_row("relstore", "ssd_volatile", 2048, 3, 9),
            recovery_row("relstore", "hdd", 256, 3, 9),
            recovery_row("docstore", "durassd", 256, 0, 4),
        );
        assert!(
            validate_recovery_report(&good).is_empty(),
            "{:?}",
            validate_recovery_report(&good)
        );

        // DuraSSD relstore row with nothing replayed: flagged.
        let bad = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{},{},{}]}}",
            recovery_row("relstore", "durassd", 256, 0, 0),
            recovery_row("relstore", "ssd_volatile", 2048, 3, 9),
            recovery_row("relstore", "hdd", 256, 3, 9),
        );
        let fails = validate_recovery_report(&bad);
        assert!(fails.iter().any(|f| f.contains("replayed")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("skipped")), "{fails:?}");

        // Too few devices / intervals.
        let narrow = format!(
            "{{\"schema\":\"{RECOVERY_SCHEMA}\",\"rows\":[{}]}}",
            recovery_row("relstore", "durassd", 256, 3, 9),
        );
        let fails = validate_recovery_report(&narrow);
        assert!(fails.iter().any(|f| f.contains("distinct devices")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("distinct checkpoint intervals")), "{fails:?}");

        // Wrong schema tag and garbage both flagged.
        assert!(!validate_recovery_report("{\"schema\":\"nope\",\"rows\":[]}").is_empty());
        assert!(!validate_recovery_report("not json").is_empty());
    }

    #[test]
    fn devices_construct() {
        assert!(durassd_bench(true).config().cache_enabled);
        assert!(!ssd_a_bench(false).config().cache_enabled);
        assert!(ssd_b_bench(true).config().cache_slots < ssd_a_bench(true).config().cache_slots);
        assert!(hdd_bench(true).config().cache_enabled);
    }
}
