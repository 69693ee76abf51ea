//! What one pass of a workload reports, and how a run's passes are
//! checked against each other.

use std::collections::{BTreeMap, BTreeSet};

use crate::trace::Span;

/// One pass of a workload: its set-up, its measured operations, its
/// correctness verdicts, and the work counters that must repeat exactly
/// on every pass with the same seed.
#[derive(Default)]
pub struct Pass {
    /// Set-up durations (seconds) — several per pass where set-up is cheap.
    pub setup_s: Vec<f64>,
    /// Latency of each measured operation (milliseconds).
    pub ops_ms: Vec<f64>,
    /// Wall time of the measured phase (seconds).
    pub busy_s: f64,
    /// Operations attempted (pipeline passes, watch windows, requests).
    pub attempted: u64,
    /// One entry per failed operation or failed correctness gate.
    pub failures: Vec<String>,
    /// Deterministic work counters and digests.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-layer figures that are not counts: ratios and in-process
    /// timings. (Counters double as per-layer figures of the same name.)
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans recorded by a traced pass.
    pub spans: Vec<Span>,
}

impl Pass {
    /// Records a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, v: u64) {
        self.counters.insert(name, v);
    }
}

/// Every counter that differs between a pass and the first pass of the
/// run, as one failure line each.
pub fn drift(passes: &[Pass]) -> Vec<String> {
    let mut out = Vec::new();
    let Some(first) = passes.first() else {
        return out;
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        let keys: BTreeSet<&str> = first
            .counters
            .keys()
            .chain(p.counters.keys())
            .copied()
            .collect();
        for k in keys {
            let (a, b) = (first.counters.get(k), p.counters.get(k));
            if a != b {
                out.push(format!(
                    "determinism: {k} is {a:?} on pass 0 but {b:?} on pass {i}"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_names_each_changed_or_missing_counter() {
        let mut a = Pass::default();
        a.count("emulator.events", 10);
        a.count("verify.memo_misses", 3);
        let mut b = Pass::default();
        b.count("emulator.events", 10);
        b.count("verify.memo_misses", 3);
        assert!(drift(&[a, b]).is_empty());

        let mut a = Pass::default();
        a.count("emulator.events", 10);
        a.count("verify.memo_misses", 3);
        let mut b = Pass::default();
        b.count("emulator.events", 11);
        b.count("serve.memo_misses", 1);
        let d = drift(&[a, b]);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].contains("emulator.events"));
    }
}
