//! What-if exploration over scenario contexts.
//!
//! §6 of the paper: checking invariants "in the face of any single link cut"
//! means one emulation per context; `any k link cuts` grows combinatorially.
//! This module enumerates cut contexts, runs the backend per context (in
//! parallel across OS threads), and reports the differential impact of each
//! context against the baseline snapshot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use mfv_types::{IpSet, LinkId};
use mfv_verify::{
    deliverability_changes, differential_reachability_with, DiffFinding, ForwardingAnalysis,
};

use crate::backend::{Backend, BackendError, EmulationBackend};
use crate::snapshot::Snapshot;

/// All `k`-subsets of the snapshot's links — the context space for a
/// "tolerates any k cuts" question. Its size is C(#links, k); the
/// combinatorial growth is exactly the cost §6 warns about.
pub fn link_cut_contexts(snapshot: &Snapshot, k: usize) -> Vec<Vec<LinkId>> {
    let links = snapshot.link_ids();
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(
        links: &[LinkId],
        start: usize,
        k: usize,
        current: &mut Vec<LinkId>,
        out: &mut Vec<Vec<LinkId>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for (i, link) in links.iter().enumerate().skip(start) {
            current.push(link.clone());
            rec(links, i + 1, k, current, out);
            current.pop();
        }
    }
    rec(&links, 0, k, &mut current, &mut out);
    out
}

/// Number of contexts for a k-cut sweep without materialising them.
pub fn link_cut_context_count(n_links: usize, k: usize) -> u128 {
    if k > n_links {
        return 0;
    }
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n_links - i) as u128 / (i + 1) as u128;
    }
    acc
}

/// The verdict for one cut context.
#[derive(Clone, Debug)]
pub struct CutVerdict {
    pub cuts: Vec<LinkId>,
    /// Differential findings against the baseline (path changes included).
    pub findings: Vec<DiffFinding>,
    /// Findings where deliverability changed — the outage signal.
    pub lost_reachability: usize,
}

impl CutVerdict {
    /// Did the network keep full reachability under this cut set?
    pub fn survives(&self) -> bool {
        self.lost_reachability == 0
    }
}

/// Why one context of a sweep failed. A failure is confined to its context;
/// the rest of the sweep still completes.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The backend could not produce a dataplane for this context.
    Backend(BackendError),
    /// The worker panicked while processing this context.
    Panic(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Backend(e) => write!(f, "{e}"),
            SweepError::Panic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Outcome of a full cut sweep: one verdict (or confined failure) per
/// context, in context order, plus class-reuse counters.
#[derive(Debug)]
pub struct SweepReport {
    pub verdicts: Vec<Result<CutVerdict, SweepError>>,
    /// `(reused, built)` per-node match classes, summed over the baseline
    /// analysis and every variant's. Each variant is carried forward from
    /// the baseline alone ([`ForwardingAnalysis::reusing`]), so it reuses
    /// the classes of every node its cuts left unchanged, and the split
    /// does not depend on which worker ran which context.
    pub class_cache: (usize, usize),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Runs one emulation per cut context and diffs each against the baseline
/// dataplane. Contexts fan out across OS threads, as the paper proposes
/// ("running emulation for each new context in parallel").
///
/// The baseline [`ForwardingAnalysis`] is built and warmed once and shared
/// by every context; each variant's analysis is carried forward from it,
/// reusing the match classes of nodes its cuts did not touch and the
/// baseline answers whose walks avoid them. One failing or panicking
/// context does not abort the sweep.
pub fn verify_link_cuts_detailed(
    snapshot: &Snapshot,
    backend: &EmulationBackend,
    contexts: Vec<Vec<LinkId>>,
    scope: Option<&IpSet>,
) -> Result<SweepReport, BackendError> {
    let baseline = backend.compute(snapshot)?;
    let fa_baseline = ForwardingAnalysis::new(&baseline.dataplane);
    // Warm the baseline before any variant is carried forward from it, so
    // every variant can keep the answers its cuts do not touch.
    let full = IpSet::full();
    for src in fa_baseline.node_names() {
        fa_baseline.dispositions_from(&src, scope.unwrap_or(&full));
    }
    let mut class_cache = fa_baseline.class_stats();

    let n = contexts.len();
    let mut results: Vec<Option<Result<CutVerdict, SweepError>>> = Vec::new();
    results.resize_with(n, || None);

    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
        .min(n.max(1));
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            handles.push(s.spawn(|| {
                let mut local = Vec::new();
                let mut classes = (0, 0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let Some(cuts) = contexts.get(i) else { break };
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let variant = snapshot.without_links(cuts);
                        backend.compute(&variant).map(|result| {
                            let fa_after =
                                ForwardingAnalysis::reusing(&result.dataplane, &fa_baseline);
                            let (reused, built) = fa_after.class_stats();
                            classes = (classes.0 + reused, classes.1 + built);
                            let findings =
                                differential_reachability_with(&fa_baseline, &fa_after, scope);
                            let lost = deliverability_changes(&findings)
                                .into_iter()
                                .filter(|f| f.before.is_delivered())
                                .count();
                            CutVerdict {
                                cuts: cuts.clone(),
                                findings,
                                lost_reachability: lost,
                            }
                        })
                    }));
                    local.push((
                        i,
                        match outcome {
                            Ok(Ok(v)) => Ok(v),
                            Ok(Err(e)) => Err(SweepError::Backend(e)),
                            Err(payload) => Err(SweepError::Panic(panic_message(payload))),
                        },
                    ));
                }
                (local, classes)
            }));
        }
        for h in handles {
            // Workers catch per-task panics, so join only fails on a panic
            // outside catch_unwind (e.g. in the scheduler itself). Even
            // then the sweep degrades: the lost worker's contexts stay
            // `None` and are reported as per-context failures below.
            if let Ok((local, (reused, built))) = h.join() {
                class_cache = (class_cache.0 + reused, class_cache.1 + built);
                for (i, verdict) in local {
                    if let Some(slot) = results.get_mut(i) {
                        *slot = Some(verdict);
                    }
                }
            }
        }
    });

    Ok(SweepReport {
        verdicts: results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(SweepError::Panic(
                        "worker thread lost before reporting this context".to_string(),
                    ))
                })
            })
            .collect(),
        class_cache,
    })
}

/// [`verify_link_cuts_detailed`] with the original all-or-nothing shape:
/// the first failed context aborts the result.
pub fn verify_link_cuts(
    snapshot: &Snapshot,
    backend: &EmulationBackend,
    contexts: Vec<Vec<LinkId>>,
    scope: Option<&IpSet>,
) -> Result<Vec<CutVerdict>, BackendError> {
    verify_link_cuts_detailed(snapshot, backend, contexts, scope)?
        .verdicts
        .into_iter()
        .map(|r| {
            r.map_err(|e| match e {
                SweepError::Backend(b) => b,
                SweepError::Panic(msg) => BackendError(format!("worker panicked: {msg}")),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn context_enumeration_counts() {
        let s = scenarios::six_node(); // 5 links
        assert_eq!(link_cut_contexts(&s, 1).len(), 5);
        assert_eq!(link_cut_contexts(&s, 2).len(), 10);
        assert_eq!(link_cut_contexts(&s, 0).len(), 1);
        assert_eq!(link_cut_context_count(5, 1), 5);
        assert_eq!(link_cut_context_count(5, 2), 10);
        assert_eq!(link_cut_context_count(5, 5), 1);
        assert_eq!(link_cut_context_count(5, 6), 0);
        // The exponential wall the paper worries about:
        assert_eq!(link_cut_context_count(200, 3), 1_313_400);
    }

    #[test]
    fn contexts_are_distinct_subsets() {
        let s = scenarios::six_node();
        let contexts = link_cut_contexts(&s, 2);
        let mut seen = std::collections::BTreeSet::new();
        for c in &contexts {
            assert_eq!(c.len(), 2);
            assert!(seen.insert(c.clone()), "duplicate context {c:?}");
        }
    }

    #[test]
    fn detailed_sweep_matches_plain_sweep() {
        let s = scenarios::six_node();
        let backend = EmulationBackend::default();
        let contexts = link_cut_contexts(&s, 1);
        let plain = verify_link_cuts(&s, &backend, contexts.clone(), None).unwrap();
        let detailed = verify_link_cuts_detailed(&s, &backend, contexts, None).unwrap();
        assert_eq!(plain.len(), detailed.verdicts.len());
        for (p, d) in plain.iter().zip(&detailed.verdicts) {
            let d = d.as_ref().expect("context verified");
            assert_eq!(p.cuts, d.cuts);
            assert_eq!(p.findings, d.findings);
            assert_eq!(p.lost_reachability, d.lost_reachability);
        }
    }

    /// Regression: a 1-link-cut sweep reuses the baseline's per-node
    /// classes for every node a cut did not perturb, instead of recomputing
    /// every node from scratch. The six-node chain is a worst case — a
    /// single cut reconverges most downstream FIBs — yet the variants must
    /// still reuse at least a full baseline's worth of node classes
    /// (measured: 12 reused / 24 built over the baseline and the 5
    /// contexts, i.e. every baseline class reused twice on average).
    #[test]
    fn single_cut_sweep_reuses_baseline_classes() {
        let s = scenarios::six_node();
        let backend = EmulationBackend::default();
        let contexts = link_cut_contexts(&s, 1);
        let n_contexts = contexts.len();
        let n_nodes = backend.compute(&s).unwrap().dataplane.nodes.len();
        let report = verify_link_cuts_detailed(&s, &backend, contexts, None).unwrap();
        assert!(report.verdicts.iter().all(|r| r.is_ok()));
        let (reused, built) = report.class_cache;
        let total = (n_contexts + 1) * n_nodes;
        assert_eq!(reused + built, total, "every node analysed exactly once");
        assert!(
            reused >= n_nodes,
            "sweep must reuse at least the baseline's node classes \
             (reused {reused}, built {built})"
        );
    }
}
