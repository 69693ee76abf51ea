//! End-to-end and per-layer benchmark of the model-free verification
//! pipeline: emulate → extract AFTs → assemble the dataplane → verify →
//! serve / watch.
//!
//! Four workloads each stress a different layer (see [`Workload`]). A run
//! repeats its workload's pass for a time budget, checks every answer,
//! checks that work counters repeat exactly from pass to pass, and reduces
//! the passes to the metrics in [`metrics`]. A traced run records a span
//! around every call into a layer and reports each layer's self time.

pub mod host;
pub mod metrics;
pub mod pass;
mod pipeline;
pub mod report;
mod serve;
mod stages;
pub mod stats;
mod stream;
pub mod trace;
mod watch;

use pass::Pass;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// grid60 snapshot to verdicts; propagation dominates.
    VerifyGrid60,
    /// 500-router WAN on nine machines, sharded; emulation dominates.
    Wan500Sharded,
    /// grid60 served to a closed loop of clients; the read path.
    ServeGrid60,
    /// Continuous verification of a 6×5 grid under chaos; the write path.
    WatchGrid30,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::VerifyGrid60,
        Workload::Wan500Sharded,
        Workload::ServeGrid60,
        Workload::WatchGrid30,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyGrid60 => "verify_grid60",
            Workload::Wan500Sharded => "wan500_sharded",
            Workload::ServeGrid60 => "serve_grid60",
            Workload::WatchGrid30 => "watch_grid30",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes every untraced run makes at least: two, so the work counters
    /// can be compared. The WAN makes three because its first pass also
    /// pays for faulting in a ~600 MB heap, and the median of three leaves
    /// that pass out.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Wan500Sharded => 3,
            _ => 2,
        }
    }

    /// Runs one pass of the workload, keeping the spans `tr` recorded.
    pub fn pass(self, seed: u64, tr: &Tracer) -> Pass {
        let mut p = match self {
            Workload::VerifyGrid60 => pipeline::pass(pipeline::Pipeline::Grid60, seed, tr),
            Workload::Wan500Sharded => pipeline::pass(pipeline::Pipeline::Wan500, seed, tr),
            Workload::ServeGrid60 => serve::pass(seed, tr),
            Workload::WatchGrid30 => watch::pass(seed, tr),
        };
        p.spans = tr.spans();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// workloads and metrics this binary runs and prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);

        for (key, defs) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
