//! Per-layer metrics of the traced run, derived from the recorded spans
//! and the counters the workloads keep at the same call boundaries.

use crate::common::CloakStats;
use crate::stats::{median, percentile};
use crate::trace::{totals, Span, Totals};
use std::collections::HashMap;

/// Every per-layer metric, in report order, with its unit. A workload
/// that never calls a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("roadnet.map_s", "s"),
    ("roadnet.index_s", "s"),
    ("mobisim.init_s", "s"),
    ("mobisim.step_ms", "ms"),
    ("mobisim.capture_ms", "ms"),
    ("anonymizer.issue_ms", "ms"),
    ("anonymizer.issue_us_per_owner", "us"),
    ("anonymizer.verify_ms", "ms"),
    ("anonymizer.quality_ms", "ms"),
    ("anonymizer.fetch_keys_us", "us"),
    ("anonymizer.shard.rest_ms", "ms"),
    ("anonymizer.shard.handoffs_per_tick", "count"),
    ("cloak.attempts_per_receipt", "count"),
    ("cloak.draws_per_receipt", "count"),
    ("cloak.voided_draw_ratio", "ratio"),
    ("cloak.region_segments_p50", "segments"),
    ("cloak.region_segments_p90", "segments"),
    ("cloak.fail_ratio", "ratio"),
    ("cloak.decode_us", "us"),
    ("cloak.reduce_us", "us"),
    ("cloak.attack.observe_ms", "ms"),
    ("cloak.attack.baseline_observe_ms", "ms"),
    ("keystream.journal_records", "count"),
    ("keystream.journal_record_us", "us"),
    ("lbs.query_ms", "ms"),
    ("lbs.segments_visited_mean", "segments"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
];

/// What a traced workload hands over for its per-layer report.
pub struct TracedRun<'a> {
    /// Every span of the run. Spans with operation id 0 come from
    /// set-up and load generation; warm-up operations precede
    /// `first_op`.
    pub spans: &'a [Span],
    /// Root span name of one timed operation.
    pub root: &'static str,
    /// Operation id of the first timed operation.
    pub first_op: u64,
    /// Timed operations.
    pub ops: u64,
    /// Wall time of the same operations on the untraced twin system.
    pub untraced_ms: f64,
    pub cloak: &'a CloakStats,
    /// Owner requests attempted and refused in the timed operations.
    pub owner_requests: u64,
    pub refused: u64,
    pub extra: Vec<(&'static str, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl TracedRun<'_> {
    /// The value of every [`PER_LAYER`] metric, in order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = totals(self.spans, |s| s.op == 0 || s.op >= self.first_op);
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        let ops = self.ops as f64;
        let per_call_s = |x: Totals| ratio(x.total_ns as f64 / 1e9, x.calls as f64);
        let per_call_ms = |x: Totals| ratio(x.total_ms(), x.calls as f64);
        let per_call_us = |x: Totals| ratio(x.total_ns as f64 / 1e3, x.calls as f64);
        let per_op_ms = |x: Totals| ratio(x.total_ms(), ops);

        let issue = get("anonymizer.issue");
        let root = get(self.root);
        let reduce = get("cloak.reduce");
        let journal = get("keystream.journal");
        let c = self.cloak;
        let mut sizes = c.region_segments.clone();
        sizes.sort_by(f64::total_cmp);
        let size = |p: f64| {
            if sizes.is_empty() {
                0.0
            } else if p == 0.5 {
                median(&sizes)
            } else {
                percentile(&sizes, p)
            }
        };

        let mut values: HashMap<&str, f64> = HashMap::from([
            ("roadnet.map_s", per_call_s(get("roadnet.map"))),
            ("roadnet.index_s", per_call_s(get("roadnet.index"))),
            ("mobisim.init_s", per_call_s(get("mobisim.init"))),
            ("mobisim.step_ms", per_call_ms(get("mobisim.step"))),
            ("mobisim.capture_ms", per_call_ms(get("mobisim.capture"))),
            ("anonymizer.issue_ms", per_op_ms(issue)),
            (
                "anonymizer.issue_us_per_owner",
                ratio(issue.total_ns as f64 / 1e3, issue.items as f64),
            ),
            ("anonymizer.verify_ms", per_op_ms(get("anonymizer.verify"))),
            (
                "anonymizer.quality_ms",
                per_op_ms(get("anonymizer.quality")),
            ),
            (
                "anonymizer.fetch_keys_us",
                per_call_us(get("anonymizer.fetch_keys")),
            ),
            (
                "cloak.attempts_per_receipt",
                ratio(c.attempts as f64, c.receipts as f64),
            ),
            (
                "cloak.draws_per_receipt",
                ratio(c.draws as f64, c.receipts as f64),
            ),
            (
                "cloak.voided_draw_ratio",
                ratio(c.voided as f64, c.draws as f64),
            ),
            ("cloak.region_segments_p50", size(0.5)),
            ("cloak.region_segments_p90", size(0.9)),
            (
                "cloak.fail_ratio",
                ratio(self.refused as f64, self.owner_requests as f64),
            ),
            ("cloak.decode_us", per_call_us(get("cloak.decode"))),
            (
                "cloak.reduce_us",
                ratio(reduce.total_ns as f64 / 1e3, reduce.items as f64),
            ),
            (
                "cloak.attack.observe_ms",
                per_op_ms(get("cloak.attack.observe")),
            ),
            (
                "cloak.attack.baseline_observe_ms",
                per_op_ms(get("cloak.attack.baseline_observe")),
            ),
            (
                "keystream.journal_records",
                ratio(journal.calls as f64, ops),
            ),
            ("keystream.journal_record_us", per_call_us(journal)),
            ("lbs.query_ms", per_op_ms(get("lbs.query"))),
            (
                "trace.overhead_ratio",
                ratio(root.total_ms(), self.untraced_ms),
            ),
            ("trace.unattributed_ms", ratio(root.self_ms(), ops)),
        ]);
        for &(name, value) in &self.extra {
            values.insert(name, value);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}
