//! Symbolic forwarding analysis over a dataplane snapshot.
//!
//! The engine propagates *sets of destination addresses* (packet classes)
//! hop by hop: at each node the remaining class is partitioned by the FIB's
//! longest-prefix-match structure, each partition follows its next hops, and
//! every packet ends in exactly one [`Disposition`]. Because classes are
//! exact [`IpSet`]s, a query covers **all 2³² destinations at once** — the
//! exhaustive-search property that distinguishes verification from probing
//! (§3: "identifying specific routes that do not satisfy a desired invariant
//! or concluding no such routes exist").

// mfv-lint: allow-file(D3, relaxed atomics here are monotonic hit/miss diagnostics; RMW totals are exact under any ordering and never feed a schedule or verdict)
// mfv-lint: allow(D1, HashMap here backs the (node, scope) memo, which is probed by key and iterated only into another memo)
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mfv_dataplane::{Dataplane, NodeDataplane};
use mfv_routing::rib::{Fib, FibEntry};
use mfv_types::{IfaceId, IpSet, LinkId, NodeId, PrefixTrie};

/// The fate of a packet class.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Disposition {
    /// Delivered: the destination address is owned by this node.
    Accepted(NodeId),
    /// Dropped: no FIB entry matched at this node.
    NoRoute(NodeId),
    /// Dropped: matched a null/discard route at this node.
    NullRoute(NodeId),
    /// Left the modelled network via an interface with no attached link
    /// (e.g. toward an external peer) at this node.
    ExitsNetwork(NodeId),
    /// Dropped: the node was down (crashed/unbooted) when encountered.
    NodeDown(NodeId),
    /// Forwarding loop detected (the node that was revisited).
    Loop(NodeId),
    /// Equal-cost branches disagree about the fate of this class.
    EcmpDivergent(NodeId),
}

impl Disposition {
    /// Is this packet class successfully delivered?
    pub fn is_delivered(&self) -> bool {
        matches!(self, Disposition::Accepted(_))
    }

    /// The node where the fate was decided.
    pub fn node(&self) -> &NodeId {
        match self {
            Disposition::Accepted(n)
            | Disposition::NoRoute(n)
            | Disposition::NullRoute(n)
            | Disposition::ExitsNetwork(n)
            | Disposition::NodeDown(n)
            | Disposition::Loop(n)
            | Disposition::EcmpDivergent(n) => n,
        }
    }
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disposition::Accepted(n) => write!(f, "accepted at {n}"),
            Disposition::NoRoute(n) => write!(f, "no route at {n}"),
            Disposition::NullRoute(n) => write!(f, "null-routed at {n}"),
            Disposition::ExitsNetwork(n) => write!(f, "exits network at {n}"),
            Disposition::NodeDown(n) => write!(f, "dropped at down node {n}"),
            Disposition::Loop(n) => write!(f, "loops at {n}"),
            Disposition::EcmpDivergent(n) => write!(f, "ecmp-divergent at {n}"),
        }
    }
}

/// One hop of a single-packet trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceHop {
    pub node: NodeId,
    /// The egress interface taken (absent on the final hop).
    pub egress: Option<IfaceId>,
}

/// Result of a single-packet traceroute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    pub hops: Vec<TraceHop>,
    pub disposition: Disposition,
}

/// Everything a walk reads at one node. Built once per node and shared,
/// through one `Arc`, by every later analysis in which the node's
/// [`NodeDataplane`] is unchanged.
struct NodeState {
    fib: Fib,
    /// Disjoint effective match classes: (class, entry) where `class` is
    /// exactly the set of destinations this entry forwards (its prefix
    /// minus all more-specific prefixes in the same FIB).
    classes: Vec<(IpSet, FibEntry)>,
    /// Union of all matched destinations (complement = NoRoute).
    covered: IpSet,
    addresses: IpSet,
    up: bool,
}

impl NodeState {
    fn build(node: &NodeDataplane) -> NodeState {
        let fib = node.fib();
        // LPM holes are exactly the topmost more-specific prefixes present
        // in the same FIB; the trie walk finds them directly instead of
        // scanning all prefix pairs.
        let mut trie = PrefixTrie::new();
        for e in fib.entries() {
            trie.insert(e.prefix, ());
        }
        let mut covered = IpSet::empty();
        let mut classes = Vec::new();
        for e in fib.entries() {
            let mut eff = IpSet::from_prefix(&e.prefix);
            for hole in trie.max_descendants(&e.prefix) {
                eff = eff.subtract(&IpSet::from_prefix(&hole));
            }
            covered = covered.union(&IpSet::from_prefix(&e.prefix));
            if !eff.is_empty() {
                classes.push((eff, e.clone()));
            }
        }
        let mut addresses = IpSet::empty();
        for a in &node.addresses {
            addresses = addresses.union(&IpSet::single(*a));
        }
        NodeState {
            fib,
            classes,
            covered,
            addresses,
            up: node.up,
        }
    }
}

/// A disposition partition of some scope: disjoint packet classes, each
/// with the fate packets in it meet.
pub type DispositionRows = Vec<(IpSet, Disposition)>;

/// The nodes an exploration's answer was derived from: every node whose
/// FIB, liveness, or addresses the verdict depends on. If none of these
/// change between snapshots (and no adjacent link does), the answer is
/// still valid — the rule [`ForwardingAnalysis::reusing`] carries memo
/// entries forward by.
pub type DepSet = BTreeSet<NodeId>;

/// A memoised exploration: the disposition partition, the dependency set
/// the walk touched, and whether this analysis was asked for it. An entry
/// carried from the previous analysis and never asked again is not
/// carried further, so the memo holds at most two snapshots' questions.
struct MemoEntry {
    rows: Arc<DispositionRows>,
    deps: Arc<DepSet>,
    asked: bool,
}

/// The analysis context: a dataplane with per-node match classes
/// precomputed.
pub struct ForwardingAnalysis {
    nodes: BTreeMap<NodeId, Arc<NodeState>>,
    dp: Dataplane,
    /// Memoised disposition partitions per (entry node, scope). The
    /// baseline side of a differential sweep asks the same question once
    /// per variant; computing it once amortises the whole sweep.
    // mfv-lint: allow(D1, probed by (node, scope) key; iterated only into the next analysis' memo, where order is never observed)
    memo: Mutex<HashMap<(NodeId, IpSet), MemoEntry>>,
    memo_hits: AtomicUsize,
    memo_misses: AtomicUsize,
    /// Node states shared from the previous analysis.
    classes_reused: usize,
    /// Node states computed by this analysis.
    classes_built: usize,
}

impl ForwardingAnalysis {
    pub fn new(dp: &Dataplane) -> ForwardingAnalysis {
        Self::build(dp, None)
    }

    /// Like [`ForwardingAnalysis::new`], but carries `prev` forward: every
    /// node whose [`NodeDataplane`] is equal in both snapshots shares
    /// `prev`'s node state, and every answer `prev` was asked for whose
    /// dependency set avoids the changed nodes (see [`DepSet`]) is kept.
    /// Re-analysis then costs what changed, not the whole network.
    pub fn reusing(dp: &Dataplane, prev: &ForwardingAnalysis) -> ForwardingAnalysis {
        Self::build(dp, Some(prev))
    }

    fn build(dp: &Dataplane, prev: Option<&ForwardingAnalysis>) -> ForwardingAnalysis {
        let mut nodes = BTreeMap::new();
        // The nodes whose answers may differ from `prev`'s: first those
        // whose forwarding state, liveness or addresses differ (every node
        // when there is no `prev`).
        let mut changed = BTreeSet::new();
        for (name, node) in &dp.nodes {
            let shared = prev
                .filter(|p| p.dp.nodes.get(name) == Some(node))
                .and_then(|p| p.nodes.get(name));
            let state = match shared {
                Some(state) => Arc::clone(state),
                None => {
                    changed.insert(name.clone());
                    Arc::new(NodeState::build(node))
                }
            };
            nodes.insert(name.clone(), state);
        }
        let classes_built = changed.len();
        let memo = match prev {
            Some(p) => {
                // Then removed nodes, and both ends of an added or removed
                // link.
                let removed = p.dp.nodes.keys().filter(|n| !dp.nodes.contains_key(*n));
                changed.extend(removed.cloned());
                let before: BTreeSet<&LinkId> = p.dp.links.iter().collect();
                let after: BTreeSet<&LinkId> = dp.links.iter().collect();
                for link in before.symmetric_difference(&after) {
                    changed.insert(link.a.0.clone());
                    changed.insert(link.b.0.clone());
                }
                p.memo
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .filter(|(_, e)| e.asked && e.deps.is_disjoint(&changed))
                    .map(|(key, e)| {
                        let carried = MemoEntry {
                            rows: Arc::clone(&e.rows),
                            deps: Arc::clone(&e.deps),
                            asked: false,
                        };
                        (key.clone(), carried)
                    })
                    .collect()
            }
            // mfv-lint: allow(D1, memo is probed by key only; iteration order never observed)
            None => HashMap::new(),
        };
        ForwardingAnalysis {
            classes_reused: nodes.len() - classes_built,
            classes_built,
            nodes,
            dp: dp.clone(),
            memo: Mutex::new(memo),
            memo_hits: AtomicUsize::new(0),
            memo_misses: AtomicUsize::new(0),
        }
    }

    /// `(hits, misses)` of the per-(entry, scope) disposition memo. An
    /// answer carried from the previous analysis counts as a hit.
    pub fn memo_stats(&self) -> (usize, usize) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.memo_misses.load(Ordering::Relaxed),
        )
    }

    /// `(reused, built)` per-node match classes: shared from the previous
    /// analysis, or computed by this one.
    pub fn class_stats(&self) -> (usize, usize) {
        (self.classes_reused, self.classes_built)
    }

    /// Flushes this analysis' counters into `obs`. The second parameter is
    /// inert: it once carried a cross-snapshot class cache, and stays only
    /// until the benchmark harness, which passes `None`, changes with it.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs, _inert: Option<Infallible>) {
        let m = &mut obs.metrics;
        m.inc("verify.classes.built", self.classes_built as u64);
        let (mh, mm) = self.memo_stats();
        m.inc("verify.memo.hits", mh as u64);
        m.inc("verify.memo.misses", mm as u64);
    }

    pub fn dataplane(&self) -> &Dataplane {
        &self.dp
    }

    pub fn node_names(&self) -> Vec<NodeId> {
        self.nodes.keys().cloned().collect()
    }

    /// Exhaustively computes the fate of every destination in `dst`, for
    /// packets entering the network at `from`, with the dependency set:
    /// every node the exploration consulted (including the entry node and
    /// any down/missing node encountered). Memoised: repeated queries for
    /// the same (entry, scope) pair are computed once per analysis.
    pub fn dispositions_from(
        &self,
        from: &NodeId,
        dst: &IpSet,
    ) -> (Arc<DispositionRows>, Arc<DepSet>) {
        let key = (from.clone(), dst.clone());
        // Poisoning cannot corrupt the memo (insertions are atomic via the
        // entry API), so recover the guard instead of propagating a panic
        // from an unrelated worker thread.
        if let Some(e) = self
            .memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&key)
        {
            e.asked = true;
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&e.rows), Arc::clone(&e.deps));
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let mut visited = Vec::new();
        let mut deps = DepSet::new();
        // The entry node is always a dependency, even for an empty scope.
        deps.insert(from.clone());
        let mut out = self.explore(from, dst.clone(), &mut visited, &mut deps);
        // Canonical order for stable comparison.
        out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.ranges().cmp(b.0.ranges())));
        let computed = MemoEntry {
            rows: Arc::new(coalesce(out)),
            deps: Arc::new(deps),
            asked: true,
        };
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        let e = memo.entry(key).or_insert(computed);
        (Arc::clone(&e.rows), Arc::clone(&e.deps))
    }

    /// Point query: the fate of one packet `(from, dst)`, answered by a
    /// class lookup in the memoised full-space partition for `from`. The
    /// first query per entry node computes the partition; every subsequent
    /// point query for that node is a scan over its O(classes) rows rather
    /// than a fresh graph walk — the batching idiom the serve front end
    /// relies on.
    pub fn fate_of(&self, from: &NodeId, dst: Ipv4Addr) -> Disposition {
        let (rows, _) = self.dispositions_from(from, &IpSet::full());
        for (set, disp) in rows.iter() {
            if set.contains(dst) {
                return disp.clone();
            }
        }
        // Unreachable: the partition covers the full space. Conservative
        // fallback rather than a panic (P1).
        Disposition::NoRoute(from.clone())
    }

    fn explore(
        &self,
        node: &NodeId,
        dst: IpSet,
        visited: &mut Vec<NodeId>,
        deps: &mut DepSet,
    ) -> Vec<(IpSet, Disposition)> {
        if dst.is_empty() {
            return Vec::new();
        }
        deps.insert(node.clone());
        let Some(state) = self.nodes.get(node) else {
            return vec![(dst, Disposition::NodeDown(node.clone()))];
        };
        if !state.up {
            return vec![(dst, Disposition::NodeDown(node.clone()))];
        }
        let mut out = Vec::new();

        // Local delivery first.
        let accepted = dst.intersect(&state.addresses);
        if !accepted.is_empty() {
            out.push((accepted.clone(), Disposition::Accepted(node.clone())));
        }
        let mut rest = dst.subtract(&accepted);
        if rest.is_empty() {
            return out;
        }

        // Loop check: transit through an already-visited node.
        if visited.contains(node) {
            out.push((rest, Disposition::Loop(node.clone())));
            return out;
        }
        visited.push(node.clone());

        // Unrouted remainder.
        let unrouted = rest.subtract(&state.covered);
        if !unrouted.is_empty() {
            out.push((unrouted.clone(), Disposition::NoRoute(node.clone())));
            rest = rest.subtract(&unrouted);
        }

        for (eff, entry) in &state.classes {
            let cls = rest.intersect(eff);
            if cls.is_empty() {
                continue;
            }
            if entry.next_hops.is_empty() {
                out.push((cls, Disposition::NullRoute(node.clone())));
                continue;
            }
            // Explore every ECMP branch; merge their verdicts per subclass.
            let mut branch_results: Vec<Vec<(IpSet, Disposition)>> = Vec::new();
            for nh in &entry.next_hops {
                match self.dp.peer_of(node, &nh.iface) {
                    Some((peer, _)) => {
                        let peer = peer.clone();
                        branch_results.push(self.explore(&peer, cls.clone(), visited, deps));
                    }
                    None => {
                        branch_results
                            .push(vec![(cls.clone(), Disposition::ExitsNetwork(node.clone()))]);
                    }
                }
            }
            out.extend(merge_branches(node, branch_results));
        }
        visited.pop();
        out
    }

    /// Single-packet trace with full hop recording (ECMP: first next hop,
    /// as a hashing dataplane would pick deterministically for one flow).
    pub fn trace(&self, from: &NodeId, dst: Ipv4Addr) -> Trace {
        let mut hops = Vec::new();
        let mut node = from.clone();
        let mut seen: Vec<NodeId> = Vec::new();
        let disposition = loop {
            let Some(state) = self.nodes.get(&node).filter(|s| s.up) else {
                break Disposition::NodeDown(node.clone());
            };
            if state.addresses.contains(dst) {
                break Disposition::Accepted(node.clone());
            }
            if seen.contains(&node) {
                break Disposition::Loop(node.clone());
            }
            seen.push(node.clone());
            let Some(entry) = state.fib.lookup(dst) else {
                break Disposition::NoRoute(node.clone());
            };
            let Some(nh) = entry.next_hops.first() else {
                break Disposition::NullRoute(node.clone());
            };
            hops.push(TraceHop {
                node: node.clone(),
                egress: Some(nh.iface.clone()),
            });
            match self.dp.peer_of(&node, &nh.iface) {
                Some((peer, _)) => node = peer.clone(),
                None => {
                    return Trace {
                        hops,
                        disposition: Disposition::ExitsNetwork(node),
                    };
                }
            }
        };
        // Every fate but leaving the network ends with an egress-less hop.
        hops.push(TraceHop { node, egress: None });
        Trace { hops, disposition }
    }
}

/// Are two fates equivalent for ECMP purposes? Delivery must land at the
/// same node; failures of the same kind are equivalent wherever they occur
/// (flow hashing picks one branch — the *observable* fate class matters).
fn equivalent(a: &Disposition, b: &Disposition) -> bool {
    match (a, b) {
        (Disposition::Accepted(x), Disposition::Accepted(y)) => x == y,
        (Disposition::NoRoute(_), Disposition::NoRoute(_))
        | (Disposition::NullRoute(_), Disposition::NullRoute(_))
        | (Disposition::ExitsNetwork(_), Disposition::ExitsNetwork(_))
        | (Disposition::NodeDown(_), Disposition::NodeDown(_))
        | (Disposition::Loop(_), Disposition::Loop(_))
        | (Disposition::EcmpDivergent(_), Disposition::EcmpDivergent(_)) => true,
        _ => false,
    }
}

/// Merges per-branch verdicts: where branches agree the verdict stands;
/// where they disagree the class is ECMP-divergent.
fn merge_branches(
    node: &NodeId,
    mut branches: Vec<Vec<(IpSet, Disposition)>>,
) -> Vec<(IpSet, Disposition)> {
    let Some(mut acc) = branches.pop() else {
        return Vec::new();
    };
    while let Some(next) = branches.pop() {
        let mut merged = Vec::new();
        for (set_a, disp_a) in &acc {
            for (set_b, disp_b) in &next {
                let inter = set_a.intersect(set_b);
                if inter.is_empty() {
                    continue;
                }
                if equivalent(disp_a, disp_b) {
                    merged.push((inter, disp_a.clone()));
                } else {
                    merged.push((inter, Disposition::EcmpDivergent(node.clone())));
                }
            }
        }
        acc = merged;
    }
    acc
}

/// Coalesces adjacent result rows with the same disposition.
fn coalesce(rows: Vec<(IpSet, Disposition)>) -> Vec<(IpSet, Disposition)> {
    let mut by_disp: BTreeMap<Disposition, IpSet> = BTreeMap::new();
    for (set, disp) in rows {
        let entry = by_disp.entry(disp).or_insert_with(IpSet::empty);
        *entry = entry.union(&set);
    }
    by_disp.into_iter().map(|(d, s)| (s, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_routing::rib::{FibEntry, FibNextHop};
    use mfv_types::{LinkId, Prefix, RouteProtocol};
    use std::collections::BTreeSet;

    fn entry(prefix: &str, iface: &str, via: Option<&str>) -> FibEntry {
        FibEntry {
            prefix: prefix.parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![FibNextHop {
                iface: iface.into(),
                via: via.map(|v| v.parse().unwrap()),
            }],
        }
    }

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// r1 -- r2 -- r3 line where loopbacks 2.2.2.{1,2,3} are routed hop by
    /// hop.
    fn line_dp() -> Dataplane {
        let mut dp = Dataplane::new();
        let mk_fib = |entries: Vec<FibEntry>| {
            let mut f = Fib::new();
            for e in entries {
                f.insert(e);
            }
            f
        };
        dp.add_node(
            "r1".into(),
            &mk_fib(vec![
                entry("2.2.2.2/32", "e0", Some("10.0.12.2")),
                entry("2.2.2.3/32", "e0", Some("10.0.12.2")),
            ]),
            BTreeSet::from([addr("2.2.2.1"), addr("10.0.12.1")]),
            true,
        );
        dp.add_node(
            "r2".into(),
            &mk_fib(vec![
                entry("2.2.2.1/32", "e0", Some("10.0.12.1")),
                entry("2.2.2.3/32", "e1", Some("10.0.23.3")),
            ]),
            BTreeSet::from([addr("2.2.2.2"), addr("10.0.12.2"), addr("10.0.23.2")]),
            true,
        );
        dp.add_node(
            "r3".into(),
            &mk_fib(vec![
                entry("2.2.2.1/32", "e0", Some("10.0.23.2")),
                entry("2.2.2.2/32", "e0", Some("10.0.23.2")),
            ]),
            BTreeSet::from([addr("2.2.2.3"), addr("10.0.23.3")]),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp.add_link(LinkId::new(
            ("r2".into(), "e1".into()),
            ("r3".into(), "e0".into()),
        ));
        dp
    }

    #[test]
    fn transit_delivery_and_trace() {
        let fa = ForwardingAnalysis::new(&line_dp());
        let trace = fa.trace(&"r1".into(), addr("2.2.2.3"));
        assert_eq!(trace.disposition, Disposition::Accepted("r3".into()));
        let nodes: Vec<String> = trace.hops.iter().map(|h| h.node.to_string()).collect();
        assert_eq!(nodes, vec!["r1", "r2", "r3"]);
    }

    #[test]
    fn exhaustive_dispositions_partition_full_space() {
        let fa = ForwardingAnalysis::new(&line_dp());
        let (rows, _) = fa.dispositions_from(&"r1".into(), &IpSet::full());
        let total: u64 = rows.iter().map(|(s, _)| s.count()).sum();
        assert_eq!(
            total,
            1u64 << 32,
            "every destination classified exactly once"
        );
        // 2.2.2.3 delivered at r3; unknown space NoRoute at r1.
        let accepted_r3 = rows
            .iter()
            .find(|(_, d)| *d == Disposition::Accepted("r3".into()))
            .unwrap();
        assert!(accepted_r3.0.contains(addr("2.2.2.3")));
        let noroute = rows
            .iter()
            .find(|(_, d)| *d == Disposition::NoRoute("r1".into()))
            .unwrap();
        assert!(noroute.0.contains(addr("8.8.8.8")));
    }

    /// Carrying an analysis across a change at r3 alone: r1 and r2 share
    /// the base's node states, r3 is rebuilt, and exactly the base answers
    /// whose walks avoid r3 come back as memo hits.
    #[test]
    fn reusing_shares_unchanged_nodes_and_answers() {
        let base = ForwardingAnalysis::new(&line_dp());
        let scopes = [
            IpSet::full(),
            IpSet::single(addr("2.2.2.1")),
            IpSet::single(addr("2.2.2.2")),
        ];
        let mut keys = Vec::new();
        for src in base.node_names() {
            for scope in &scopes {
                base.dispositions_from(&src, scope);
                keys.push((src.clone(), scope.clone()));
            }
        }
        let mut variant = line_dp();
        let r3 = NodeId::from("r3");
        let lost: Prefix = "2.2.2.1/32".parse().unwrap();
        variant
            .nodes
            .get_mut(&r3)
            .unwrap()
            .entries
            .retain(|e| e.prefix != lost);
        let fa = ForwardingAnalysis::reusing(&variant, &base);
        assert_eq!(fa.class_stats(), (2, 1));

        let fresh = ForwardingAnalysis::new(&variant);
        let mut avoid_r3 = 0;
        for (src, scope) in &keys {
            if !base.dispositions_from(src, scope).1.contains(&r3) {
                avoid_r3 += 1;
            }
            assert_eq!(
                fa.dispositions_from(src, scope),
                fresh.dispositions_from(src, scope)
            );
        }
        // r1 and r2 toward 2.2.2.1 and 2.2.2.2; every full-space walk and
        // every walk from r3 reaches r3.
        assert_eq!(avoid_r3, 4);
        assert_eq!(fa.memo_stats(), (avoid_r3, keys.len() - avoid_r3));

        // An answer nobody asks again is not carried a second time.
        let skipped = ForwardingAnalysis::reusing(&variant, &base);
        let next = ForwardingAnalysis::reusing(&variant, &skipped);
        assert_eq!(next.class_stats(), (3, 0));
        next.dispositions_from(&"r1".into(), &IpSet::single(addr("2.2.2.1")));
        assert_eq!(next.memo_stats(), (0, 1));
    }

    #[test]
    fn loop_detected() {
        // r1 and r2 point 9.9.9.9/32 at each other.
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("9.9.9.9/32", "e0", None));
        let mut f2 = Fib::new();
        f2.insert(entry("9.9.9.9/32", "e0", None));
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node("r2".into(), &f2, BTreeSet::new(), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let trace = fa.trace(&"r1".into(), addr("9.9.9.9"));
        assert!(matches!(trace.disposition, Disposition::Loop(_)));
        let (rows, _) = fa.dispositions_from(&"r1".into(), &IpSet::single(addr("9.9.9.9")));
        assert!(matches!(rows[0].1, Disposition::Loop(_)));
    }

    #[test]
    fn null_route_and_exit() {
        let mut dp = Dataplane::new();
        let mut f = Fib::new();
        f.insert(FibEntry {
            prefix: "192.0.2.0/24".parse().unwrap(),
            proto: RouteProtocol::Static,
            next_hops: vec![],
        });
        f.insert(entry("198.51.100.0/24", "uplink", Some("100.64.0.1")));
        dp.add_node("r1".into(), &f, BTreeSet::new(), true);
        let fa = ForwardingAnalysis::new(&dp);
        assert_eq!(
            fa.trace(&"r1".into(), addr("192.0.2.5")).disposition,
            Disposition::NullRoute("r1".into())
        );
        assert_eq!(
            fa.trace(&"r1".into(), addr("198.51.100.5")).disposition,
            Disposition::ExitsNetwork("r1".into())
        );
    }

    #[test]
    fn down_node_drops() {
        let mut dp = line_dp();
        dp.nodes.get_mut(&NodeId::from("r2")).unwrap().up = false;
        let fa = ForwardingAnalysis::new(&dp);
        let trace = fa.trace(&"r1".into(), addr("2.2.2.3"));
        assert_eq!(trace.disposition, Disposition::NodeDown("r2".into()));
    }

    #[test]
    fn lpm_partition_respects_specificity() {
        // A /8 toward r2 with a /24 hole toward discard.
        let mut dp = Dataplane::new();
        let mut f = Fib::new();
        f.insert(entry("10.0.0.0/8", "e0", None));
        f.insert(FibEntry {
            prefix: "10.5.5.0/24".parse().unwrap(),
            proto: RouteProtocol::Static,
            next_hops: vec![],
        });
        dp.add_node("r1".into(), &f, BTreeSet::new(), true);
        dp.add_node(
            "r2".into(),
            &Fib::new(),
            BTreeSet::from([addr("10.1.1.1")]),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let (rows, _) = fa.dispositions_from(
            &"r1".into(),
            &IpSet::from_prefix(&"10.0.0.0/8".parse::<Prefix>().unwrap()),
        );
        let nulled = rows
            .iter()
            .find(|(_, d)| *d == Disposition::NullRoute("r1".into()))
            .unwrap();
        assert_eq!(nulled.0.count(), 256);
        assert!(nulled.0.contains(addr("10.5.5.99")));
        let accepted = rows
            .iter()
            .find(|(_, d)| *d == Disposition::Accepted("r2".into()))
            .unwrap();
        assert!(accepted.0.contains(addr("10.1.1.1")));
    }

    #[test]
    fn ecmp_divergence_flagged() {
        // r1 splits 9.9.9.0/24 across two branches: r2 accepts, r3 has no
        // route → divergent.
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(FibEntry {
            prefix: "9.9.9.0/24".parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![
                FibNextHop {
                    iface: "e0".into(),
                    via: None,
                },
                FibNextHop {
                    iface: "e1".into(),
                    via: None,
                },
            ],
        });
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node(
            "r2".into(),
            &Fib::new(),
            (0..256).map(|i| Ipv4Addr::new(9, 9, 9, i as u8)).collect(),
            true,
        );
        dp.add_node("r3".into(), &Fib::new(), BTreeSet::new(), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp.add_link(LinkId::new(
            ("r1".into(), "e1".into()),
            ("r3".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let (rows, _) = fa.dispositions_from(
            &"r1".into(),
            &IpSet::from_prefix(&"9.9.9.0/24".parse::<Prefix>().unwrap()),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Disposition::EcmpDivergent("r1".into()));
    }

    #[test]
    fn ecmp_agreement_is_transparent() {
        // Both branches deliver to nodes owning the same... instead: both
        // branches NoRoute → class reported NoRoute, not divergent.
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(FibEntry {
            prefix: "9.9.9.0/24".parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![
                FibNextHop {
                    iface: "e0".into(),
                    via: None,
                },
                FibNextHop {
                    iface: "e1".into(),
                    via: None,
                },
            ],
        });
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node("r2".into(), &Fib::new(), BTreeSet::new(), true);
        dp.add_node("r3".into(), &Fib::new(), BTreeSet::new(), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp.add_link(LinkId::new(
            ("r1".into(), "e1".into()),
            ("r3".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let (rows, _) = fa.dispositions_from(
            &"r1".into(),
            &IpSet::from_prefix(&"9.9.9.0/24".parse::<Prefix>().unwrap()),
        );
        assert!(rows
            .iter()
            .all(|(_, d)| matches!(d, Disposition::NoRoute(_))));
    }
}
