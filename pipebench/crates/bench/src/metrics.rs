//! The metric catalogue and the reduction of a run's passes to it.
//!
//! End-to-end metrics come from untraced passes only. Per-layer metrics
//! come from the traced pass of a `--trace 1` run; a layer the workload
//! does not exercise reports 0.

use std::collections::BTreeMap;

use crate::pass::Pass;
use crate::stats;
use crate::trace;

/// A metric's name, unit, and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Reported by every untraced run. An "operation" is one pipeline pass
/// (`verify_grid60`, `wan500_sharded`), one watch window (`watch_grid30`)
/// or one client request (`serve_grid60`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("op_p50_ms", "ms", "lower"),
    def("op_p99_ms", "ms", "lower"),
    def("ops_per_s", "1/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Spans whose total duration is reported as `<span>_ms`.
pub const SPAN_TOTALS: &[(&str, &str)] = &[
    ("conflint.analyze", "conflint.analyze_ms"),
    ("core.scenario", "core.scenario_ms"),
    ("core.watch_tick", "core.watch_tick_ms"),
    ("emulator.new", "emulator.new_ms"),
    ("emulator.converge", "emulator.converge_ms"),
    ("emulator.dataplane", "emulator.dataplane_ms"),
    ("emulator.run_until", "emulator.run_until_ms"),
    ("mgmt.collect", "mgmt.collect_ms"),
    ("mgmt.aft", "mgmt.aft_ms"),
    ("mgmt.watch_tick", "mgmt.watch_tick_ms"),
    ("mgmt.watch_status", "mgmt.watch_status_ms"),
    ("mgmt.watch_dataplane", "mgmt.watch_dataplane_ms"),
    ("dataplane.assemble", "dataplane.assemble_ms"),
    ("verify.classes", "verify.classes_ms"),
    ("verify.reach", "verify.reach_ms"),
    ("verify.loops", "verify.loops_ms"),
    ("verify.blackholes", "verify.blackholes_ms"),
    ("verify.standing_eval", "verify.standing_eval_ms"),
    ("serve.index", "serve.index_ms"),
    ("serve.warm", "serve.warm_ms"),
];

/// Layers whose self time is reported as `<layer>.self_ms`; `bench` is
/// the benchmark's own glue and checks.
pub const SELF_TIMES: &[(&str, &str)] = &[
    ("bench", "bench.self_ms"),
    ("core", "core.self_ms"),
    ("conflint", "conflint.self_ms"),
    ("emulator", "emulator.self_ms"),
    ("mgmt", "mgmt.self_ms"),
    ("dataplane", "dataplane.self_ms"),
    ("verify", "verify.self_ms"),
    ("serve", "serve.self_ms"),
];

/// Reported by every traced run.
pub const PER_LAYER: &[Def] = &[
    def("conflint.analyze_ms", "ms", "lower"),
    def("conflint.self_ms", "ms", "lower"),
    def("core.scenario_ms", "ms", "lower"),
    def("core.watch_tick_ms", "ms", "lower"),
    def("core.self_ms", "ms", "lower"),
    def("emulator.new_ms", "ms", "lower"),
    def("emulator.converge_ms", "ms", "lower"),
    def("emulator.dataplane_ms", "ms", "lower"),
    def("emulator.run_until_ms", "ms", "lower"),
    def("emulator.events", "count", "lower"),
    def("emulator.events_scheduled", "count", "lower"),
    def("emulator.messages", "count", "lower"),
    def("emulator.events_per_s", "1/s", "higher"),
    def("emulator.shards", "count", "higher"),
    def("emulator.self_ms", "ms", "lower"),
    def("mgmt.collect_ms", "ms", "lower"),
    def("mgmt.rpc_attempts", "count", "lower"),
    def("mgmt.aft_ms", "ms", "lower"),
    def("mgmt.aft_entries", "count", "lower"),
    def("mgmt.watch_tick_ms", "ms", "lower"),
    def("mgmt.watch_status_ms", "ms", "lower"),
    def("mgmt.watch_dataplane_ms", "ms", "lower"),
    def("mgmt.watch_gaps", "count", "lower"),
    def("mgmt.watch_resyncs", "count", "lower"),
    def("mgmt.self_ms", "ms", "lower"),
    def("dataplane.assemble_ms", "ms", "lower"),
    def("dataplane.fib_entries", "count", "lower"),
    def("dataplane.self_ms", "ms", "lower"),
    def("verify.classes_ms", "ms", "lower"),
    def("verify.classes_built", "count", "lower"),
    def("verify.reach_ms", "ms", "lower"),
    def("verify.loops_ms", "ms", "lower"),
    def("verify.blackholes_ms", "ms", "lower"),
    def("verify.memo_hits", "count", "higher"),
    def("verify.memo_misses", "count", "lower"),
    def("verify.standing_eval_ms", "ms", "lower"),
    def("verify.pairs_evaluated", "count", "lower"),
    def("verify.pairs_reused", "count", "higher"),
    def("verify.class_cache_hits", "count", "higher"),
    def("verify.class_cache_misses", "count", "lower"),
    def("verify.self_ms", "ms", "lower"),
    def("serve.index_ms", "ms", "lower"),
    def("serve.warm_ms", "ms", "lower"),
    def("serve.classes", "count", "lower"),
    def("serve.handle_us.REACH.p50", "us", "lower"),
    def("serve.handle_us.REACH.p99", "us", "lower"),
    def("serve.handle_us.FATE.p50", "us", "lower"),
    def("serve.handle_us.FATE.p99", "us", "lower"),
    def("serve.handle_us.TRACE.p50", "us", "lower"),
    def("serve.handle_us.TRACE.p99", "us", "lower"),
    def("serve.memo_miss_ratio", "ratio", "lower"),
    def("serve.wire_us", "us", "lower"),
    def("serve.self_ms", "ms", "lower"),
    def("bench.self_ms", "ms", "lower"),
    def("trace.overhead_ms", "ms", "lower"),
    def("trace.spans", "count", "lower"),
];

/// The end-to-end figures of an untraced run, with the tail percentile
/// actually reported and the sample count it rests on.
pub struct EndToEnd {
    pub values: BTreeMap<&'static str, f64>,
    pub tail: stats::Tail,
}

pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> EndToEnd {
    let setup: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    let busy: f64 = passes.iter().map(|p| p.busy_s).sum();
    let tail = stats::tail(&ops);
    let mut values = BTreeMap::new();
    values.insert("setup_s", stats::median(&setup));
    values.insert("op_p50_ms", stats::median(&ops));
    values.insert("op_p99_ms", tail.value);
    values.insert(
        "ops_per_s",
        if busy > 0.0 {
            ops.len() as f64 / busy
        } else {
            0.0
        },
    );
    values.insert("peak_rss_mb", peak_rss_mb);
    EndToEnd { values, tail }
}

/// The per-layer figures of a traced pass; `untraced` is the same pass
/// run without spans, for the tracing overhead.
pub fn per_layer(traced: &Pass, untraced: &Pass) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let totals = trace::total_ms(&traced.spans);
    for (span, metric) in SPAN_TOTALS {
        if let Some(v) = totals.get(span) {
            out.insert(metric, *v);
        }
    }
    let own = trace::layer_self_ms(&traced.spans);
    for (layer, metric) in SELF_TIMES {
        if let Some(v) = own.get(layer) {
            out.insert(metric, *v);
        }
    }
    let counts = traced.counters.iter().map(|(k, v)| (k, *v as f64));
    for (name, v) in counts.chain(traced.layer.iter().map(|(k, v)| (k, *v))) {
        if let Some(slot) = out.get_mut(name) {
            *slot = v;
        }
    }
    let converge_ms = out["emulator.converge_ms"];
    if converge_ms > 0.0 {
        out.insert(
            "emulator.events_per_s",
            out["emulator.events"] / (converge_ms / 1e3),
        );
    }
    out.insert("trace.overhead_ms", (traced.busy_s - untraced.busy_s) * 1e3);
    out.insert("trace.spans", traced.spans.len() as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_derived_metric_is_in_the_catalogue() {
        let names: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        for (_, m) in SPAN_TOTALS.iter().chain(SELF_TIMES) {
            assert!(names.contains(m), "{m} missing from PER_LAYER");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn end_to_end_reduces_pooled_samples() {
        let a = Pass {
            setup_s: vec![1.0, 3.0],
            ops_ms: vec![10.0, 20.0],
            busy_s: 0.5,
            ..Default::default()
        };
        let b = Pass {
            setup_s: vec![2.0],
            ops_ms: vec![30.0],
            busy_s: 0.25,
            ..Default::default()
        };
        let e = end_to_end(&[a, b], 12.5);
        assert_eq!(e.values["setup_s"], 2.0);
        assert_eq!(e.values["op_p50_ms"], 20.0);
        assert_eq!(e.values["op_p99_ms"], 20.0);
        assert_eq!(e.tail.pct, 50.0);
        assert_eq!(e.values["ops_per_s"], 4.0);
        assert_eq!(e.values["peak_rss_mb"], 12.5);
    }
}
