//! Property tests for the verification engine over randomly generated
//! dataplanes: exhaustiveness (every packet classified exactly once),
//! self-consistency between the symbolic engine and single-packet traces,
//! and differential-reachability identities.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;

use mfv_dataplane::Dataplane;
use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
use mfv_types::{ExtractionStatus, IpSet, LinkId, NodeId, Prefix, RouteProtocol, SimTime};
use mfv_verify::{
    differential_reachability, Coverage, Disposition, ForwardingAnalysis, StandingQueries,
};

/// A compact generator for random dataplanes: `n` nodes in a ring, each with
/// a handful of random prefix entries pointing at random neighbors (or
/// null-routed), plus owned addresses.
#[derive(Debug, Clone)]
struct DpShape {
    nodes: usize,
    /// Per node: (prefix bits, prefix len, egress choice, null?)
    entries: Vec<(u32, u8, u8, bool)>,
    owned: Vec<u8>,
}

fn arb_shape() -> impl Strategy<Value = DpShape> {
    (
        2usize..5,
        proptest::collection::vec((any::<u32>(), 8u8..=28, any::<u8>(), any::<bool>()), 0..24),
        proptest::collection::vec(any::<u8>(), 1..8),
    )
        .prop_map(|(nodes, entries, owned)| DpShape {
            nodes,
            entries,
            owned,
        })
}

fn build_dp(shape: &DpShape) -> Dataplane {
    let n = shape.nodes;
    let mut dp = Dataplane::new();
    let mut fibs: Vec<Fib> = (0..n).map(|_| Fib::new()).collect();
    let mut owned: Vec<BTreeSet<Ipv4Addr>> = vec![BTreeSet::new(); n];

    for (i, (bits, len, egress, null)) in shape.entries.iter().enumerate() {
        let node = i % n;
        let prefix = Prefix::from_bits(*bits, *len);
        let next_hops = if *null {
            vec![]
        } else {
            // Egress toward ring-left or ring-right.
            let iface = if egress % 2 == 0 { "left" } else { "right" };
            vec![FibNextHop {
                iface: iface.into(),
                via: None,
            }]
        };
        fibs[node].insert(FibEntry {
            prefix,
            proto: RouteProtocol::Isis,
            next_hops,
        });
    }
    for (i, octet) in shape.owned.iter().enumerate() {
        let node = i % n;
        owned[node].insert(Ipv4Addr::new(192, 168, node as u8, *octet));
    }

    for (i, fib) in fibs.iter().enumerate() {
        dp.add_node(
            NodeId::from(format!("n{i}").as_str()),
            fib,
            owned[i].clone(),
            true,
        );
    }
    // Ring links: n_i.right <-> n_{i+1}.left
    for i in 0..n {
        let j = (i + 1) % n;
        if n == 2 && i == 1 {
            break; // avoid reusing the same interfaces for a second link
        }
        dp.add_link(LinkId::new(
            (NodeId::from(format!("n{i}").as_str()), "right".into()),
            (NodeId::from(format!("n{j}").as_str()), "left".into()),
        ));
    }
    dp
}

/// One random snapshot delta: `action` picks a FIB clear, an added null
/// route, a dropped entry, a liveness flip, an added address, or a link
/// cut, applied to the node (or link) `which` selects.
fn apply_delta(dp: &mut Dataplane, &(which, action, bits, len): &(u8, u8, u32, u8)) {
    let names: Vec<NodeId> = dp.nodes.keys().cloned().collect();
    let name = &names[which as usize % names.len()];
    let Some(node) = dp.nodes.get_mut(name) else {
        return;
    };
    match action % 6 {
        0 => node.entries.clear(),
        1 => node.entries.push(FibEntry {
            prefix: Prefix::from_bits(bits, len),
            proto: RouteProtocol::Static,
            next_hops: vec![],
        }),
        2 => {
            node.entries.pop();
        }
        3 => node.up = !node.up,
        4 => {
            node.addresses.insert(Ipv4Addr::from(bits));
        }
        _ => {
            if !dp.links.is_empty() {
                let cut = which as usize % dp.links.len();
                dp.links.remove(cut);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dispositions_partition_the_scope(shape in arb_shape()) {
        let dp = build_dp(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let scope = IpSet::full();
        for src in fa.node_names() {
            let (rows, _) = fa.dispositions_from(&src, &scope);
            // Exhaustive: the classes cover the whole space...
            let total: u64 = rows.iter().map(|(s, _)| s.count()).sum();
            prop_assert_eq!(total, 1u64 << 32, "from {}", src);
            // ...and are pairwise disjoint.
            for (i, (a, _)) in rows.iter().enumerate() {
                for (b, _) in rows.iter().skip(i + 1) {
                    prop_assert!(a.intersect(b).is_empty());
                }
            }
        }
    }

    #[test]
    fn trace_agrees_with_symbolic_engine(shape in arb_shape(), probe in any::<u32>()) {
        let dp = build_dp(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let ip = Ipv4Addr::from(probe);
        for src in fa.node_names() {
            let trace = fa.trace(&src, ip);
            let (rows, _) = fa.dispositions_from(&src, &IpSet::single(ip));
            prop_assert_eq!(rows.len(), 1);
            let (_, symbolic) = &rows[0];
            // The single-packet trace follows the FIRST ECMP branch, so on
            // divergent classes it reports one concrete outcome; otherwise
            // the engines must agree exactly.
            match symbolic {
                Disposition::EcmpDivergent(_) => {}
                s => prop_assert_eq!(&trace.disposition, s, "src {} ip {}", src, ip),
            }
        }
    }

    #[test]
    fn differential_self_is_empty(shape in arb_shape()) {
        let dp = build_dp(&shape);
        let findings = differential_reachability(&dp, &dp, None);
        prop_assert!(findings.is_empty());
    }

    #[test]
    fn differential_findings_lie_in_scope(shape in arb_shape(), probe in any::<u32>()) {
        let dp_a = build_dp(&shape);
        // Perturb: drop one node's FIB.
        let mut dp_b = dp_a.clone();
        if let Some(first) = dp_b.nodes.values_mut().next() {
            first.entries.clear();
        }
        let scope = IpSet::from_prefix(&Prefix::from_bits(probe, 16));
        let findings = differential_reachability(&dp_a, &dp_b, Some(&scope));
        for f in findings {
            prop_assert!(f.dsts.subtract(&scope).is_empty(), "finding escapes scope");
        }
    }

    #[test]
    fn owned_addresses_accepted_locally(shape in arb_shape()) {
        let dp = build_dp(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        for (name, node) in &dp.nodes {
            for addr in &node.addresses {
                let trace = fa.trace(name, *addr);
                prop_assert_eq!(
                    &trace.disposition,
                    &Disposition::Accepted(name.clone()),
                    "own address must be delivered locally"
                );
            }
        }
    }

    #[test]
    fn down_node_blackholes_everything(shape in arb_shape(), probe in any::<u32>()) {
        let mut dp = build_dp(&shape);
        let first = dp.nodes.keys().next().unwrap().clone();
        dp.nodes.get_mut(&first).unwrap().up = false;
        let fa = ForwardingAnalysis::new(&dp);
        let (rows, _) = fa.dispositions_from(&first, &IpSet::single(Ipv4Addr::from(probe)));
        prop_assert_eq!(rows.len(), 1);
        prop_assert_eq!(&rows[0].1, &Disposition::NodeDown(first));
    }

    // Carrying an analysis forward must be invisible: after each delta
    // (FIB edits, liveness flips, address churn, link cuts), an analysis
    // carried from the previous one — the first warmed over the full
    // space from every source — gives the same rows and dependency sets
    // as one built from scratch, for every source.
    #[test]
    fn cached_analysis_matches_uncached(
        shape in arb_shape(),
        deltas in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), 8u8..=28),
            1..6,
        ),
    ) {
        let mut dp = build_dp(&shape);
        let scope = IpSet::full();
        let mut prev = ForwardingAnalysis::new(&dp);
        for src in prev.node_names() {
            prev.dispositions_from(&src, &scope);
        }
        for delta in &deltas {
            apply_delta(&mut dp, delta);
            let carried = ForwardingAnalysis::reusing(&dp, &prev);
            let fresh = ForwardingAnalysis::new(&dp);
            for src in fresh.node_names() {
                prop_assert_eq!(
                    carried.dispositions_from(&src, &scope),
                    fresh.dispositions_from(&src, &scope),
                    "carried analysis diverged from {} after delta {:?}",
                    src,
                    delta
                );
            }
            prev = carried;
        }
    }

    // The pair-level incremental standing layer must be invisible: after
    // any sequence of deltas (FIB edits, liveness flips, address churn,
    // link cuts), its verdicts are byte-identical to a from-scratch
    // evaluation of the same snapshot.
    #[test]
    fn incremental_standing_matches_from_scratch(
        shape in arb_shape(),
        deltas in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), 8u8..=28),
            1..6,
        ),
    ) {
        let mut dp = build_dp(&shape);
        let coverage_for = |dp: &Dataplane| {
            Coverage::from_status(
                &dp.nodes
                    .keys()
                    .map(|n| (n.clone(), ExtractionStatus::Fresh))
                    .collect(),
            )
        };
        let mut incremental = StandingQueries::new();
        incremental.evaluate(SimTime(0), &dp, &coverage_for(&dp));
        let mut at = 1_000;
        for (which, action, bits, len) in &deltas {
            let names: Vec<NodeId> = dp.nodes.keys().cloned().collect();
            let name = names[*which as usize % names.len()].clone();
            match action % 6 {
                0 => {
                    if let Some(node) = dp.nodes.get_mut(&name) {
                        node.entries.clear();
                    }
                }
                1 => {
                    if let Some(node) = dp.nodes.get_mut(&name) {
                        node.entries.push(FibEntry {
                            prefix: Prefix::from_bits(*bits, *len),
                            proto: RouteProtocol::Static,
                            next_hops: vec![],
                        });
                    }
                }
                2 => {
                    if let Some(node) = dp.nodes.get_mut(&name) {
                        node.entries.pop();
                    }
                }
                3 => {
                    if let Some(node) = dp.nodes.get_mut(&name) {
                        node.up = !node.up;
                    }
                }
                4 => {
                    if let Some(node) = dp.nodes.get_mut(&name) {
                        node.addresses.insert(std::net::Ipv4Addr::from(*bits));
                    }
                }
                _ => {
                    if !dp.links.is_empty() {
                        let cut = *which as usize % dp.links.len();
                        let mut i = 0;
                        dp.links.retain(|_| {
                            let keep = i != cut;
                            i += 1;
                            keep
                        });
                    }
                }
            }
            let cov = coverage_for(&dp);
            incremental.evaluate(SimTime(at), &dp, &cov);
            let mut fresh = StandingQueries::new();
            fresh.evaluate(SimTime(at), &dp, &cov);
            prop_assert_eq!(
                incremental.verdicts(),
                fresh.verdicts(),
                "incremental verdicts diverged after delta {:?}",
                (which, action, bits, len)
            );
            at += 1_000;
        }
    }
}
