//! Standing queries: invariants verified continuously, re-evaluated
//! incrementally.
//!
//! A one-shot query answers once and forgets; continuous verification
//! keeps a set of invariants *standing* against a stream of dataplane
//! snapshots and reports only when a verdict changes.
//!
//! Re-evaluation is incremental through one mechanism: each evaluation's
//! [`ForwardingAnalysis`] is carried forward from the previous one
//! ([`ForwardingAnalysis::reusing`]). A node whose forwarding state is
//! unchanged keeps its match classes, and a memoised answer — one (src,
//! dst) reachability pair, or one source's loop or black-hole walk — is
//! kept while its dependency set ([`crate::graph::DepSet`]) avoids every
//! changed node. A quiet tick walks nothing; a single changed node
//! re-walks only what crosses it — work proportional to what changed, not
//! N². The [`StandingQueries::pair_stats`] and
//! [`StandingQueries::cache_stats`] counters make both claims testable.
//!
//! Verdicts carry the coverage caveats of the snapshot they were computed
//! from: while a telemetry stream is degraded, the verdict does not
//! silently claim authority over nodes it cannot see.

use std::collections::BTreeMap;

use mfv_dataplane::Dataplane;
use mfv_types::SimTime;

use crate::coverage::Coverage;
use crate::graph::ForwardingAnalysis;
use crate::queries::{detect_blackholes_with, detect_loops_with, unreachable_pairs_with};

/// The state of one standing invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// Does the invariant hold over the covered part of the network?
    pub holds: bool,
    /// Deterministic one-line summary of the findings.
    pub detail: String,
    /// Coverage qualifications: non-empty means the verdict does not
    /// speak for the whole network.
    pub caveats: Vec<String>,
}

/// A verdict transition: emitted only when `(holds, detail, caveats)`
/// changed since the previous evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerdictUpdate {
    pub at: SimTime,
    pub query: &'static str,
    pub verdict: Verdict,
}

impl std::fmt::Display for VerdictUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={}ms {} holds={} caveats={} — {}",
            self.at.0,
            self.query,
            self.verdict.holds,
            self.verdict.caveats.len(),
            self.verdict.detail,
        )
    }
}

/// The standing invariants of the continuous-verification loop:
/// full-mesh reachability, loop freedom, and black-hole freedom.
#[derive(Default)]
pub struct StandingQueries {
    /// The previous evaluation's analysis, carried into the next one.
    prev: Option<ForwardingAnalysis>,
    verdicts: BTreeMap<&'static str, Verdict>,
    evaluations: u64,
    updates: u64,
    /// Lifetime `(evaluated, reused)` walks: the analyses' memo misses
    /// and hits.
    pairs: (u64, u64),
    /// Lifetime `(reused, built)` per-node match classes.
    classes: (usize, usize),
}

impl StandingQueries {
    pub fn new() -> StandingQueries {
        StandingQueries::default()
    }

    /// `(reused, built)` per-node match classes over this instance's
    /// lifetime — the proof surface for single-node invalidation: after a
    /// content-preserving resync, reuses grow and builds do not.
    pub fn cache_stats(&self) -> (usize, usize) {
        self.classes
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// `(evaluated, reused)` pair-level work units over this instance's
    /// lifetime. One unit is a (src, dst) reachability pair or a
    /// per-source loop/black-hole walk. A quiet tick adds only reuses;
    /// this is the counter that proves re-evaluation work is proportional
    /// to changed nodes, not N².
    pub fn pair_stats(&self) -> (u64, u64) {
        self.pairs
    }

    /// Current verdict per query, if evaluated at least once.
    pub fn verdicts(&self) -> &BTreeMap<&'static str, Verdict> {
        &self.verdicts
    }

    /// Re-evaluates every standing query against `dp` and returns the
    /// verdicts that changed. The analysis is carried forward from the
    /// previous evaluation, so re-analysis cost is proportional to what
    /// changed.
    pub fn evaluate(
        &mut self,
        at: SimTime,
        dp: &Dataplane,
        coverage: &Coverage,
    ) -> Vec<VerdictUpdate> {
        self.evaluations += 1;
        // The previous analysis is dropped as soon as it is carried over,
        // so only one analysis is alive while the queries run.
        let fa = match self.prev.take() {
            Some(prev) => ForwardingAnalysis::reusing(dp, &prev),
            None => ForwardingAnalysis::new(dp),
        };
        let caveats = coverage.caveats();
        let verdict = |holds, detail| Verdict {
            holds,
            detail,
            caveats: caveats.clone(),
        };
        let mut out = Vec::new();

        let pairs = unreachable_pairs_with(&fa);
        let detail = match pairs.first() {
            None => format!("all {} covered node pairs reachable", {
                let n = dp.nodes.len();
                n * n.saturating_sub(1)
            }),
            Some(first) => format!(
                "{} unreachable pair(s) (first: {} -> {})",
                pairs.len(),
                first.src,
                first.dst_node
            ),
        };
        self.consider(
            at,
            "reachability",
            verdict(pairs.is_empty(), detail),
            &mut out,
        );

        let loops = detect_loops_with(&fa);
        let detail = match loops.first() {
            None => "no forwarding loops".to_string(),
            Some(first) => format!(
                "{} looping class(es) (first: from {} at {})",
                loops.len(),
                first.src,
                first.at
            ),
        };
        self.consider(
            at,
            "loop_freedom",
            verdict(loops.is_empty(), detail),
            &mut out,
        );

        let holes = detect_blackholes_with(&fa);
        let detail = match holes.first() {
            None => "no black holes toward owned addresses".to_string(),
            Some(first) => format!(
                "{} black-hole class(es) (first: from {} dropped at {})",
                holes.len(),
                first.src,
                first.dropped_at
            ),
        };
        self.consider(
            at,
            "blackhole_freedom",
            verdict(holes.is_empty(), detail),
            &mut out,
        );

        let (hits, misses) = fa.memo_stats();
        self.pairs.0 += misses as u64;
        self.pairs.1 += hits as u64;
        let (reused, built) = fa.class_stats();
        self.classes.0 += reused;
        self.classes.1 += built;
        self.prev = Some(fa);
        out
    }

    fn consider(
        &mut self,
        at: SimTime,
        query: &'static str,
        verdict: Verdict,
        out: &mut Vec<VerdictUpdate>,
    ) {
        if self.verdicts.get(query) == Some(&verdict) {
            return;
        }
        self.verdicts.insert(query, verdict.clone());
        self.updates += 1;
        out.push(VerdictUpdate { at, query, verdict });
    }

    /// Flushes counters into `obs` under `verify.standing.*`. Everything
    /// here is derived from dataplane state only, so it is byte-stable
    /// across same-seed runs.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
        let m = &mut obs.metrics;
        m.inc("verify.standing.evaluations", self.evaluations);
        m.inc("verify.standing.updates", self.updates);
        let (evaluated, reused) = self.pairs;
        m.inc("verify.standing.pair_evaluations", evaluated);
        m.inc("verify.standing.pair_reuses", reused);
        let (reused, built) = self.classes;
        m.inc("verify.standing.classes_reused", reused as u64);
        m.inc("verify.standing.classes_built", built as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
    use mfv_types::{ExtractionStatus, LinkId, NodeId, RouteProtocol};
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn entry(prefix: &str, iface: &str) -> FibEntry {
        FibEntry {
            prefix: prefix.parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![FibNextHop {
                iface: iface.into(),
                via: None,
            }],
        }
    }

    fn pair_dp() -> Dataplane {
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("2.2.2.2/32", "e0"));
        let mut f2 = Fib::new();
        f2.insert(entry("2.2.2.1/32", "e0"));
        dp.add_node("r1".into(), &f1, BTreeSet::from([addr("2.2.2.1")]), true);
        dp.add_node("r2".into(), &f2, BTreeSet::from([addr("2.2.2.2")]), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp
    }

    fn full_cov() -> Coverage {
        Coverage::from_status(
            &[
                ("r1", ExtractionStatus::Fresh),
                ("r2", ExtractionStatus::Fresh),
            ]
            .into_iter()
            .map(|(n, s)| (NodeId::from(n), s))
            .collect(),
        )
    }

    #[test]
    fn first_evaluation_emits_then_settles() {
        let mut sq = StandingQueries::new();
        let dp = pair_dp();
        let cov = full_cov();
        let updates = sq.evaluate(SimTime(1_000), &dp, &cov);
        assert_eq!(updates.len(), 3, "{updates:?}");
        assert!(updates.iter().all(|u| u.verdict.holds));
        // Unchanged snapshot: no transitions, classes all reused.
        let (reused0, built0) = sq.cache_stats();
        assert_eq!(built0, 2);
        let updates = sq.evaluate(SimTime(2_000), &dp, &cov);
        assert!(updates.is_empty());
        let (reused1, built1) = sq.cache_stats();
        assert_eq!(
            built1, built0,
            "no new class builds for an unchanged snapshot"
        );
        assert_eq!(reused1, reused0 + 2);
    }

    #[test]
    fn single_node_change_invalidates_one_class_entry() {
        let mut sq = StandingQueries::new();
        let cov = full_cov();
        let dp = pair_dp();
        sq.evaluate(SimTime(1_000), &dp, &cov);
        let (_, built0) = sq.cache_stats();

        // r1 loses its route: r1's forwarding state changes, r2's does not.
        let mut broken = pair_dp();
        if let Some(n) = broken.nodes.get_mut(&NodeId::from("r1")) {
            n.entries.clear();
        }
        let updates = sq.evaluate(SimTime(2_000), &broken, &cov);
        let (_, built1) = sq.cache_stats();
        assert_eq!(
            built1,
            built0 + 1,
            "exactly the changed node rebuilt its classes"
        );
        // Reachability and blackhole-freedom flip; loop freedom holds.
        let reach = updates.iter().find(|u| u.query == "reachability").unwrap();
        assert!(!reach.verdict.holds);
        assert!(reach.verdict.detail.contains("r1 -> r2"), "{reach:?}");
        assert!(updates.iter().all(|u| u.query != "loop_freedom"));
    }

    #[test]
    fn coverage_caveats_flip_verdicts() {
        let mut sq = StandingQueries::new();
        let dp = pair_dp();
        sq.evaluate(SimTime(1_000), &dp, &full_cov());
        // Same dataplane, degraded coverage: the caveat change alone is a
        // verdict transition.
        let degraded = Coverage::from_status(
            &[
                ("r1", ExtractionStatus::Fresh),
                ("r2", ExtractionStatus::Missing("stream down".into())),
            ]
            .into_iter()
            .map(|(n, s)| (NodeId::from(n), s))
            .collect(),
        );
        let updates = sq.evaluate(SimTime(2_000), &dp, &degraded);
        assert_eq!(updates.len(), 3);
        assert!(updates.iter().all(|u| !u.verdict.caveats.is_empty()));
        // Recovery: caveats clear, another transition.
        let updates = sq.evaluate(SimTime(3_000), &dp, &full_cov());
        assert_eq!(updates.len(), 3);
        assert!(updates.iter().all(|u| u.verdict.caveats.is_empty()));
    }

    /// A line of `n` routers where every loopback is routed hop by hop:
    /// node i owns 10.0.i.1 and routes every other loopback left or right.
    fn line_dp_n(n: usize) -> Dataplane {
        let mut dp = Dataplane::new();
        for i in 0..n {
            let mut fib = Fib::new();
            for j in 0..n {
                if i == j {
                    continue;
                }
                let iface = if j < i { "left" } else { "right" };
                fib.insert(entry(&format!("10.0.{j}.1/32"), iface));
            }
            dp.add_node(
                NodeId::from(format!("r{i:02}").as_str()),
                &fib,
                BTreeSet::from([Ipv4Addr::new(10, 0, i as u8, 1)]),
                true,
            );
        }
        for i in 0..n.saturating_sub(1) {
            dp.add_link(LinkId::new(
                (NodeId::from(format!("r{i:02}").as_str()), "right".into()),
                (
                    NodeId::from(format!("r{:02}", i + 1).as_str()),
                    "left".into(),
                ),
            ));
        }
        dp
    }

    fn line_cov(n: usize) -> Coverage {
        Coverage::from_status(
            &(0..n)
                .map(|i| {
                    (
                        NodeId::from(format!("r{i:02}").as_str()),
                        ExtractionStatus::Fresh,
                    )
                })
                .collect(),
        )
    }

    /// The tentpole claim: re-evaluation work per tick is proportional to
    /// the changed nodes, not N². A quiet tick does zero pair work; an
    /// end-node FIB change re-evaluates O(N) pairs on an N-node line.
    #[test]
    fn pair_work_is_subquadratic_in_changes() {
        const N: usize = 12;
        let mut sq = StandingQueries::new();
        let dp = line_dp_n(N);
        let cov = line_cov(N);

        // First evaluation pays the full N(N-1) pairs + 2N walks.
        let updates = sq.evaluate(SimTime(1_000), &dp, &cov);
        assert!(updates.iter().all(|u| u.verdict.holds), "{updates:?}");
        let full = (N * (N - 1) + 2 * N) as u64;
        assert_eq!(sq.pair_stats(), (full, 0));

        // Quiet tick: everything reuses, nothing evaluates.
        sq.evaluate(SimTime(2_000), &dp, &cov);
        assert_eq!(sq.pair_stats(), (full, full));

        // One end node loses a route: only pairs and walks whose
        // dependencies cross r00 re-evaluate — O(N), far below N².
        let mut broken = line_dp_n(N);
        if let Some(node) = broken.nodes.get_mut(&NodeId::from("r00")) {
            node.entries.clear();
        }
        let updates = sq.evaluate(SimTime(3_000), &broken, &cov);
        assert!(updates.iter().any(|u| !u.verdict.holds));
        let (evals, _) = sq.pair_stats();
        let delta = evals - full;
        // Pairs touching r00 as src or dst: 2(N-1); every source's loop
        // and black-hole walk depends on r00 (the line routes everything
        // through to it): 2N. Anything near N² means incrementality broke.
        assert!(
            delta <= (4 * N) as u64,
            "expected O(N) re-evaluations, got {delta} (full pass = {full})"
        );
        // And the verdict matches a from-scratch evaluation.
        let mut fresh = StandingQueries::new();
        fresh.evaluate(SimTime(3_000), &broken, &cov);
        assert_eq!(sq.verdicts(), fresh.verdicts());
    }

    /// Cutting a link must invalidate the pairs that routed across it even
    /// though no node's forwarding state changed.
    #[test]
    fn link_cut_invalidates_crossing_pairs() {
        const N: usize = 4;
        let mut sq = StandingQueries::new();
        let dp = line_dp_n(N);
        let cov = line_cov(N);
        sq.evaluate(SimTime(1_000), &dp, &cov);
        assert!(sq.verdicts().values().all(|v| v.holds));

        // Cut the middle link r01–r02: FIBs unchanged, reachability gone.
        let mut cut = line_dp_n(N);
        cut.links
            .retain(|l| !(l.touches(&NodeId::from("r01")) && l.touches(&NodeId::from("r02"))));
        let updates = sq.evaluate(SimTime(2_000), &cut, &cov);
        let reach = updates
            .iter()
            .find(|u| u.query == "reachability")
            .expect("link cut must flip reachability");
        assert!(!reach.verdict.holds);
        let mut fresh = StandingQueries::new();
        fresh.evaluate(SimTime(2_000), &cut, &cov);
        assert_eq!(sq.verdicts(), fresh.verdicts());
    }

    #[test]
    fn update_lines_render_deterministically() {
        let mut sq = StandingQueries::new();
        let updates = sq.evaluate(SimTime(1_000), &pair_dp(), &full_cov());
        let lines: Vec<String> = updates.iter().map(|u| u.to_string()).collect();
        assert_eq!(
            lines[0],
            "t=1000ms reachability holds=true caveats=0 — \
             all 2 covered node pairs reachable"
        );
        assert!(
            lines[2].contains("blackhole_freedom holds=true"),
            "{lines:?}"
        );
    }
}
