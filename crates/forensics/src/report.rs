//! Campaign report: the machine-readable artifact of a crash campaign.
//!
//! One [`CampaignReport`] aggregates the [`CutReport`]s of every
//! device × configuration × cut-point trial into a single self-describing
//! JSON document (schema tag [`SCHEMA`]), written by `crashmatrix --json`.
//! Structural validation of the emitted document lives with the other
//! report gates in `bench::schema` (`check_forensics_report`), which
//! `crashmatrix --check` runs in-process.

use crate::reconcile::CutReport;
use crate::snapshot::DevicePostmortem;
use telemetry::quote_json;

/// Schema tag stamped into every report; bump on incompatible changes.
pub const SCHEMA: &str = "durassd.forensics.v1";

/// How many dirty-slot LPNs / mapping entries a postmortem lists verbatim in
/// the JSON before switching to counts only (keeps reports bounded).
const SNAPSHOT_LIST_CAP: usize = 64;

/// The aggregated result of a seeded crash campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// RNG seed that chose the cut points.
    pub seed: u64,
    /// Workload size (units attempted per trial).
    pub keys: u64,
    /// Cut points per configuration.
    pub cuts: u64,
    /// One row per device × configuration × cut.
    pub rows: Vec<CutReport>,
}

fn postmortem_json(p: &DevicePostmortem) -> String {
    let mut o = String::from("{");
    o.push_str(&format!("\"device\":{},", quote_json(&p.device)));
    o.push_str(&format!("\"protection\":{},", quote_json(&p.protection)));
    o.push_str(&format!("\"cut_at\":{},", p.cut_at));
    o.push_str(&format!("\"dirty_slots\":{},", p.dirty_slots.len()));
    let lpns: Vec<String> = p
        .dirty_slots
        .iter()
        .take(SNAPSHOT_LIST_CAP)
        .map(|s| {
            format!(
                "{{\"lpn\":{},\"draining\":{},\"ackable_at\":{}}}",
                s.lpn, s.draining, s.ackable_at
            )
        })
        .collect();
    o.push_str(&format!("\"dirty_slot_sample\":[{}],", lpns.join(",")));
    o.push_str(&format!("\"discarded_dirty_slots\":{},", p.discarded_dirty_slots));
    let drains: Vec<String> = p.channel_drain_positions.iter().map(|t| t.to_string()).collect();
    o.push_str(&format!("\"channel_drain_positions\":[{}],", drains.join(",")));
    match &p.dump {
        Some(d) => o.push_str(&format!(
            "\"dump\":{{\"bytes\":{},\"budget_bytes\":{},\"within_budget\":{}}},",
            d.bytes, d.budget_bytes, d.within_budget
        )),
        None => o.push_str("\"dump\":null,"),
    }
    o.push_str(&format!("\"unpersisted_map_entries\":{},", p.unpersisted_map.len()));
    let umap: Vec<String> = p
        .unpersisted_map
        .iter()
        .take(SNAPSHOT_LIST_CAP)
        .map(|(lpn, old)| match old {
            Some(s) => format!("{{\"lpn\":{lpn},\"old_slot\":{s}}}"),
            None => format!("{{\"lpn\":{lpn},\"old_slot\":null}}"),
        })
        .collect();
    o.push_str(&format!("\"unpersisted_map_sample\":[{}],", umap.join(",")));
    o.push_str(&format!("\"rolled_back_map_entries\":{},", p.rolled_back_map_entries));
    o.push_str(&format!("\"nand_shorn_pages\":{},", p.nand_shorn_pages));
    o.push_str(&format!("\"aborted_inflight_writes\":{}", p.aborted_inflight_writes));
    o.push('}');
    o
}

fn row_json(r: &CutReport) -> String {
    let mut o = String::from("{");
    o.push_str(&format!("\"label\":{},", quote_json(&r.label)));
    o.push_str(&format!("\"cut_at_op\":{},", r.cut_at_op));
    o.push_str(&format!("\"cut_phase\":{},", quote_json(&r.cut_phase)));
    o.push_str(&format!("\"cut_at_ns\":{},", r.cut_at_ns));
    o.push_str(&format!(
        "\"tally\":{{\"survived\":{},\"acked_lost\":{},\"torn\":{},\"stale\":{},\"never_acked\":{}}},",
        r.tally.survived, r.tally.acked_lost, r.tally.torn, r.tally.stale, r.tally.never_acked
    ));
    o.push_str(&format!("\"durable\":{},", r.durable));
    o.push_str(&format!("\"verdict\":{},", quote_json(&r.verdict)));
    let losses: Vec<String> = r
        .losses
        .iter()
        .map(|f| {
            let mut l = String::from("{");
            l.push_str(&format!("\"unit\":{},", quote_json(&f.unit)));
            l.push_str(&format!("\"kind\":{},", quote_json(f.kind.as_str())));
            l.push_str(&format!("\"classification\":{},", quote_json(f.classification.as_str())));
            match f.contract {
                Some(c) => l.push_str(&format!("\"contract\":{},", quote_json(c.as_str()))),
                None => l.push_str("\"contract\":null,"),
            }
            match f.acked_at {
                Some(t) => l.push_str(&format!("\"acked_at\":{t},")),
                None => l.push_str("\"acked_at\":null,"),
            }
            let layer = f.layer.map(|x| x.as_str()).unwrap_or("unattributed");
            l.push_str(&format!("\"layer\":{},", quote_json(layer)));
            l.push_str(&format!("\"evidence\":{}", quote_json(&f.evidence)));
            l.push('}');
            l
        })
        .collect();
    o.push_str(&format!("\"losses\":[{}],", losses.join(",")));
    let pms: Vec<String> = r.postmortems.iter().map(postmortem_json).collect();
    o.push_str(&format!("\"postmortems\":[{}],", pms.join(",")));
    let recs: Vec<String> = r
        .recoveries
        .iter()
        .map(|s| {
            format!(
                "{{\"device\":{},\"ready_at\":{},\"requeued_slots\":{},\"recovered_via_dump\":{},\"scan_only\":{}}}",
                quote_json(&s.device), s.ready_at, s.requeued_slots, s.recovered_via_dump, s.scan_only
            )
        })
        .collect();
    o.push_str(&format!("\"recoveries\":[{}],", recs.join(",")));
    let ev: Vec<String> = r
        .ack_evidence
        .iter()
        .map(|(k, row)| {
            let contract = row.last_contract.map(|c| quote_json(c.as_str())).unwrap_or("null".into());
            format!(
                "{}:{{\"count\":{},\"first_at\":{},\"last_at\":{},\"last_contract\":{},\"last_detail\":{}}}",
                quote_json(k.as_str()), row.count, row.first_at, row.last_at, contract, row.last_detail
            )
        })
        .collect();
    o.push_str(&format!("\"ack_evidence\":{{{}}}", ev.join(",")));
    o.push('}');
    o
}

impl CampaignReport {
    /// Serialize to the `durassd.forensics.v1` JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(row_json).collect();
        format!(
            "{{\"schema\":{},\"seed\":{},\"keys\":{},\"cuts\":{},\"rows\":[{}]}}",
            quote_json(SCHEMA),
            self.seed,
            self.keys,
            self.cuts,
            rows.join(",")
        )
    }

    /// Total acked-lost units across rows whose label contains `needle`.
    pub fn acked_lost_for(&self, needle: &str) -> u64 {
        self.rows.iter().filter(|r| r.label.contains(needle)).map(|r| r.tally.acked_lost).sum()
    }

    /// One-line summary per configuration label (rows share labels across
    /// cut points): `label → worst verdict`.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut labels: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !labels.contains(&r.label.as_str()) {
                labels.push(&r.label);
            }
        }
        labels
            .into_iter()
            .map(|l| {
                let rows: Vec<&CutReport> = self.rows.iter().filter(|r| r.label == l).collect();
                let lost: u64 = rows.iter().map(|r| r.tally.acked_lost).sum();
                let torn: u64 = rows.iter().map(|r| r.tally.torn).sum();
                let stale: u64 = rows.iter().map(|r| r.tally.stale).sum();
                let verdict = if lost + torn + stale == 0 {
                    format!("SAFE across {} cut(s)", rows.len())
                } else {
                    format!(
                        "{lost} acked-lost, {torn} torn, {stale} stale across {} cut(s)",
                        rows.len()
                    )
                };
                format!("{l:<34} {verdict}")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{AckContract, Ledger, UnitKind};
    use crate::reconcile::{reconcile, Probe, ProbeResult};
    use crate::snapshot::{CacheSlotSnap, DumpOutcome, RecoverySnap};

    fn sample_report() -> CampaignReport {
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
    fn report_json_round_trips() {
        let rep = sample_report();
        let doc = rep.to_json();
        let v = telemetry::parse_json(&doc).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o["schema"].as_str(), Some(SCHEMA));
        let row = o["rows"].as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(row["tally"].as_object().unwrap()["acked_lost"].as_u64(), Some(1));
        assert_eq!(row["tally"].as_object().unwrap()["never_acked"].as_u64(), Some(1));
        let losses = row["losses"].as_array().unwrap();
        assert_eq!(losses.len(), 2);
        let first = losses[0].as_object().unwrap();
        assert_eq!(first["classification"].as_str(), Some("acked-lost"));
        assert_eq!(first["layer"].as_str(), Some("cache-slot"));
        assert_eq!(first["contract"].as_str(), Some("volatile"));
        let pm = row["postmortems"].as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(pm["dirty_slots"].as_u64(), Some(1));
        assert_eq!(
            pm["dump"].as_object().unwrap()["within_budget"],
            telemetry::JsonValue::Bool(true)
        );
        assert_eq!(pm["rolled_back_map_entries"].as_u64(), Some(2));
        assert_eq!(rep.acked_lost_for("SSD-A"), 1);
        assert_eq!(rep.acked_lost_for("DuraSSD"), 0);
        assert_eq!(rep.summary_lines().len(), 1);
    }
}
