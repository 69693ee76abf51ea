//! The `mfvctl run` pipeline, snapshot to verdicts: emulate, extract,
//! build the forwarding analysis, then check reachability, loops and
//! black holes.

use std::time::Instant;

use mfv_core::{scenarios, EmulationBackend, Snapshot};
use mfv_types::{IpSet, NodeId};
use mfv_verify::queries::{blackholes_from_with_deps, loops_from_with_deps, owned_address_scope};
use mfv_verify::{
    detect_blackholes_with, detect_loops_with, unreachable_pairs_with, ForwardingAnalysis,
};

use crate::pass::Pass;
use crate::stages;
use crate::stream;
use crate::trace::Tracer;

/// Which network, on which cluster, checked how.
#[derive(Clone, Copy, Debug)]
pub enum Pipeline {
    /// `isis_grid(10, 6)` on one machine; every check over every source.
    Grid60,
    /// `regional_wan(20, 25)` on nine machines (placement shards, two
    /// engine threads); loop and black-hole checks from a seeded sample of
    /// sources only.
    Wan500,
}

/// Sources the WAN's full-space loop and black-hole checks run from. One
/// full-space walk from a WAN source costs about as much as extraction, so
/// a small sample keeps emulation and extraction the bulk of the pass.
pub const WAN_SAMPLE: usize = 2;

/// Scenario generations per pass: generation takes milliseconds, so the
/// pass reports several and the run takes their median.
const SCENARIO_REPS: usize = 51;

impl Pipeline {
    fn scenario(self) -> Snapshot {
        match self {
            Pipeline::Grid60 => scenarios::isis_grid(10, 6),
            Pipeline::Wan500 => scenarios::regional_wan(20, 25),
        }
    }

    fn backend(self, seed: u64) -> EmulationBackend {
        let (cluster_machines, threads) = match self {
            Pipeline::Grid60 => (1, 1),
            Pipeline::Wan500 => (9, 2),
        };
        EmulationBackend {
            cluster_machines,
            threads,
            seed,
            ..Default::default()
        }
    }
}

/// One pass: scenario generation (set-up), then the timed pipeline, then
/// the correctness gates.
pub fn pass(kind: Pipeline, seed: u64, tr: &Tracer) -> Pass {
    let mut p = Pass::default();
    let _root = tr.enter("bench.pass");
    let mut snapshot = None;
    for _ in 0..SCENARIO_REPS {
        let t = Instant::now();
        snapshot = Some(tr.time("core.scenario", || kind.scenario()));
        p.setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some(snapshot) = snapshot else {
        return p;
    };

    p.attempted = 1;
    let t = Instant::now();
    let verdicts = run(kind, &snapshot, seed, tr, &mut p);
    let secs = t.elapsed().as_secs_f64();
    p.busy_s = secs;
    p.ops_ms.push(secs * 1e3);
    match verdicts {
        Ok((ex, findings)) => {
            stages::check_extraction(&ex, tr, &mut p);
            findings.gate(kind, &mut p);
        }
        Err(e) => p.failures.push(e),
    }
    p
}

/// What the checks found; the WAN runs no reach check.
struct Findings {
    unreachable: Option<usize>,
    loops: usize,
    blackholes: usize,
}

impl Findings {
    /// The findings every seed must give. The converged grid is clean. In
    /// the WAN, each region redistributes only its loopbacks, so every
    /// source black-holes the other regions' link addresses at itself:
    /// one finding per sampled source.
    fn expected(kind: Pipeline) -> (Option<usize>, usize, usize) {
        match kind {
            Pipeline::Grid60 => (Some(0), 0, 0),
            Pipeline::Wan500 => (None, 0, WAN_SAMPLE),
        }
    }

    fn gate(&self, kind: Pipeline, p: &mut Pass) {
        let found = (self.unreachable, self.loops, self.blackholes);
        let want = Findings::expected(kind);
        p.gate(found == want, || {
            format!("{kind:?}: (unreachable, loops, black holes) = {found:?}, want {want:?}")
        });
        if let Some(u) = self.unreachable {
            p.count("verify.unreachable_pairs", u as u64);
        }
        p.count("verify.loops", self.loops as u64);
        p.count("verify.blackholes", self.blackholes as u64);
    }
}

fn run(
    kind: Pipeline,
    snapshot: &Snapshot,
    seed: u64,
    tr: &Tracer,
    p: &mut Pass,
) -> Result<(stages::Extracted, Findings), String> {
    let backend = kind.backend(seed);
    let emu = stages::converge(&snapshot.topology, &backend, tr, p)?;
    let ex = stages::extract(&emu, &backend, tr, p);
    drop(emu);

    let fa = tr.time("verify.classes", || ForwardingAnalysis::new(&ex.dataplane));
    let findings = match kind {
        Pipeline::Grid60 => Findings {
            unreachable: Some(
                tr.time("verify.reach", || unreachable_pairs_with(&fa))
                    .len(),
            ),
            loops: tr.time("verify.loops", || detect_loops_with(&fa)).len(),
            blackholes: tr
                .time("verify.blackholes", || detect_blackholes_with(&fa))
                .len(),
        },
        Pipeline::Wan500 => {
            let sources: Vec<NodeId> = stream::sample(&fa.node_names(), WAN_SAMPLE, seed);
            let loops = tr.time("verify.loops", || {
                sources
                    .iter()
                    .map(|s| loops_from_with_deps(&fa, s).0.len())
                    .sum()
            });
            let blackholes = tr.time("verify.blackholes", || {
                let owned: IpSet = owned_address_scope(&fa);
                sources
                    .iter()
                    .map(|s| blackholes_from_with_deps(&fa, s, &owned).0.len())
                    .sum()
            });
            Findings {
                unreachable: None,
                loops,
                blackholes,
            }
        }
    };

    let mut obs = mfv_obs::Obs::new();
    fa.observe_into(&mut obs, None);
    let built = obs.metrics.counter("verify.classes.built");
    let (hits, misses) = fa.memo_stats();
    if let Pipeline::Grid60 = kind {
        // One partition per (source, destination node) reach scope, plus
        // one full-space and one owned-address scope per source.
        let n = fa.node_names().len();
        let want = n * (n - 1) + 2 * n;
        p.gate(misses == want, || {
            format!("Grid60: {misses} memo misses, want {want}")
        });
    }
    p.count("verify.classes_built", built);
    p.count("verify.memo_hits", hits as u64);
    p.count("verify.memo_misses", misses as u64);
    Ok((ex, findings))
}
