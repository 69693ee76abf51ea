//! Seeded inputs: a SplitMix64 generator, the serve request stream, and
//! source samples. The same seed always gives the same bytes.

use std::net::Ipv4Addr;

/// SplitMix64 — small, seeded and dependency-free.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One request of the stream, with the client connection that sends it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    pub id: u64,
    pub client: usize,
    pub line: String,
}

impl Request {
    /// The verb (`REACH`, `FATE`, `TRACE`).
    pub fn verb(&self) -> &str {
        self.line.split(' ').next().unwrap_or("")
    }
}

/// The operator-debugging mix over all node pairs: every ordered pair
/// (src ≠ dst) is asked once as `REACH src dst`, in an order drawn from
/// `seed`, and each REACH is followed by a FATE lookup of three addresses
/// (the last one owned by nobody) and a TRACE walk from random sources.
/// The set of REACH scopes is the same for every seed; the seed changes
/// only the order and the FATE/TRACE parameters.
///
/// A request goes to client `src_index % clients`: every memo key of the
/// server (entry node, scope) is then asked by one connection only, so
/// the number of memo misses does not depend on how the clients interleave.
pub fn requests(
    nodes: &[String],
    addresses: &[Ipv4Addr],
    clients: usize,
    seed: u64,
) -> Vec<Request> {
    let mut out = Vec::new();
    if nodes.is_empty() || addresses.is_empty() {
        return out;
    }
    let pairs: Vec<(usize, usize)> = (0..nodes.len())
        .flat_map(|s| {
            (0..nodes.len())
                .filter(move |&d| d != s)
                .map(move |d| (s, d))
        })
        .collect();
    let mut mix = Mix::new(seed ^ 0x71_75_65_72_79);
    let clients = clients.max(1);
    let mut push = |src: usize, line: String| {
        let id = out.len() as u64;
        out.push(Request {
            id,
            client: src % clients,
            line,
        });
    };
    for (s, d) in sample(&pairs, pairs.len(), seed) {
        push(s, format!("REACH {} {}", nodes[s], nodes[d]));
        let f = mix.below(nodes.len());
        let a = addresses[mix.below(addresses.len())];
        let b = addresses[mix.below(addresses.len())];
        push(f, format!("FATE {} {a} {b} 203.0.113.77", nodes[f]));
        let t = mix.below(nodes.len());
        let c = addresses[mix.below(addresses.len())];
        push(t, format!("TRACE {} {c}", nodes[t]));
    }
    out
}

/// `k` distinct items of `items`, drawn from `seed`, in drawing order.
pub fn sample<T: Clone>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    let mut mix = Mix::new(seed ^ 0x73_61_6d_70_6c_65);
    let k = k.min(items.len());
    for i in 0..k {
        let j = i + mix.below(idx.len() - i);
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| items[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> Vec<String> {
        (1..=6).map(|i| format!("r{i}")).collect()
    }

    fn addrs() -> Vec<Ipv4Addr> {
        (1..=6).map(|i| Ipv4Addr::new(2, 2, 2, i)).collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        let a = requests(&nodes(), &addrs(), 2, 9);
        let b = requests(&nodes(), &addrs(), 2, 9);
        assert_eq!(a, b);
        let c = requests(&nodes(), &addrs(), 2, 10);
        assert_ne!(a, c);
        // Pinned prefix: the generator, not just its self-consistency.
        let lines: Vec<&str> = a.iter().take(3).map(|r| r.line.as_str()).collect();
        assert_eq!(lines, PINNED_SEED9);
    }

    const PINNED_SEED9: [&str; 3] = [
        "REACH r2 r3",
        "FATE r1 2.2.2.1 2.2.2.5 203.0.113.77",
        "TRACE r6 2.2.2.3",
    ];

    #[test]
    fn every_pair_is_reached_once_and_clients_split_by_source() {
        let reqs = requests(&nodes(), &addrs(), 2, 1);
        assert_eq!(reqs.len(), 3 * 6 * 5);
        for verb in ["REACH", "FATE", "TRACE"] {
            assert_eq!(reqs.iter().filter(|r| r.verb() == verb).count(), 30);
        }
        let mut reach: Vec<&str> = reqs
            .iter()
            .filter(|r| r.verb() == "REACH")
            .map(|r| r.line.as_str())
            .collect();
        reach.sort_unstable();
        reach.dedup();
        assert_eq!(reach.len(), 30);
        assert!(reach.iter().all(|l| {
            let w: Vec<&str> = l.split(' ').collect();
            w[1] != w[2]
        }));
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            let src = r.line.split(' ').nth(1).unwrap();
            let idx: usize = src[1..].parse::<usize>().unwrap() - 1;
            assert_eq!(r.client, idx % 2, "{}", r.line);
        }
    }

    #[test]
    fn sample_is_distinct_and_seeded() {
        let items: Vec<u32> = (0..50).collect();
        let s = sample(&items, 5, 3);
        assert_eq!(s, sample(&items, 5, 3));
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 5);
        assert_eq!(sample(&items, 99, 3).len(), 50);
    }
}
