//! The write path: continuous verification of a 6×5 grid under chaos (a
//! link flap, a routing-process kill, a machine failure) over a lossy
//! telemetry stream, re-verifying incrementally after each FIB delta.
//!
//! The window is driven here through the same public per-tick calls as
//! `mfv_core::run_watch`, so each call can carry a span; a traced pass
//! also runs `run_watch` itself and gates on byte-equal verdict journals.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use mfv_core::{run_watch, scenarios, EmulationBackend, Snapshot, WatchRunConfig};
use mfv_emulator::{ChaosPlan, Emulation};
use mfv_mgmt::{StreamFaultModel, WatchConfig, Watcher};
use mfv_types::{NodeId, SimDuration, SimTime};
use mfv_verify::{Coverage, StandingQueries};

use crate::pass::Pass;
use crate::stages;
use crate::trace::Tracer;

/// Verdict updates of the window for seeds 1–10. Other seeds are checked
/// for determinism only.
const PINNED_UPDATES: &[(u64, u64)] = &[
    (1, 108),
    (2, 108),
    (3, 108),
    (4, 108),
    (5, 108),
    (6, 105),
    (7, 108),
    (8, 108),
    (9, 108),
    (10, 108),
];

/// Seed of the telemetry stream's fault draws. The number of stream gaps
/// sets how many re-evaluations a window pays for, and drawing the faults
/// per run seed moves window time by ±25% between seeds; with the draws
/// fixed, the run seed still varies the emulation (boot and link jitter)
/// and the window's work stays comparable from seed to seed.
const STREAM_SEED: u64 = 1;

/// The watch scenario of the repository's engine bench, on a 6×5 grid:
/// two machines (so a machine failure degrades the network rather than
/// erasing it), 10% batch drops and 2% session losses on the stream, and
/// three faults in a 60 s window.
fn config(snapshot: &Snapshot, seed: u64) -> WatchRunConfig {
    let topo = &snapshot.topology;
    let link = topo.links[0].id();
    let victim = topo.nodes[topo.nodes.len() / 2].name.clone();
    WatchRunConfig {
        backend: EmulationBackend {
            cluster_machines: 2,
            seed,
            ..Default::default()
        },
        watch: WatchConfig {
            seed: STREAM_SEED,
            faults: StreamFaultModel {
                drop_pct: 10,
                session_loss_pct: 2,
            },
            ..Default::default()
        },
        chaos: ChaosPlan::new()
            .link_flap(link, SimTime(5_000), SimDuration::from_secs(8))
            .kill_routing(victim, SimTime(20_000))
            .fail_machine("node-1", SimTime(35_000)),
        tick: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(60),
    }
}

/// What a window produced.
struct Window {
    journal: String,
    updates: u64,
    recovered: bool,
}

/// One pass: converge (set-up), then the watch window (the measured
/// operation), then the gates. A traced pass then runs `run_watch` itself,
/// outside its spans, and gates on byte-equal verdict journals.
pub fn pass(seed: u64, tr: &Tracer) -> Pass {
    let mut p = Pass::default();
    let done = {
        let _root = tr.enter("bench.pass");
        run(seed, tr, &mut p)
    };
    if let Some((snapshot, cfg, journal)) = done.filter(|_| tr.is_on()) {
        match run_watch(&snapshot, &cfg, &mut mfv_obs::Obs::new()) {
            Ok(r) => p.gate(r.journal_text == journal, || {
                "watch: verdict journal differs from run_watch's".into()
            }),
            Err(e) => p.failures.push(format!("watch: run_watch: {e}")),
        }
    }
    p
}

/// The pass under its root span; returns the scenario, its configuration
/// and the verdict journal.
fn run(seed: u64, tr: &Tracer, p: &mut Pass) -> Option<(Snapshot, WatchRunConfig, String)> {
    let t = Instant::now();
    let snapshot = tr.time("core.scenario", || scenarios::isis_grid(6, 5));
    let cfg = config(&snapshot, seed);
    let emu = stages::converge(&snapshot.topology, &cfg.backend, tr, p);
    p.setup_s.push(t.elapsed().as_secs_f64());
    p.attempted = 1;
    let emu = match emu {
        Ok(emu) => emu,
        Err(e) => {
            p.failures.push(e);
            return None;
        }
    };

    let t = Instant::now();
    let w = window(emu, &snapshot, &cfg, tr, p);
    let secs = t.elapsed().as_secs_f64();
    p.busy_s = secs;
    p.ops_ms.push(secs * 1e3);

    let _g = tr.enter("bench.check");
    p.gate(w.recovered, || {
        "watch: coverage did not recover by the end of the window".into()
    });
    if let Some(&(_, want)) = PINNED_UPDATES.iter().find(|(s, _)| *s == seed) {
        p.gate(w.updates == want, || {
            format!(
                "watch: {} verdict updates, pinned {want} for seed {seed}",
                w.updates
            )
        });
    }
    p.count("watch.verdict_updates", w.updates);
    p.count("watch.journal_digest", fnv1a(w.journal.as_bytes()));
    Some((snapshot, cfg, w.journal))
}

/// The coverage partition that triggers re-evaluation, as in `run_watch`.
type CoverageClass = (BTreeSet<NodeId>, BTreeSet<NodeId>, BTreeSet<NodeId>);

fn coverage_class(cov: &Coverage) -> CoverageClass {
    (
        cov.fresh.clone(),
        cov.stale.keys().cloned().collect(),
        cov.missing.keys().cloned().collect(),
    )
}

/// The `run_watch` loop, call for call.
fn window(
    mut emu: Emulation,
    snapshot: &Snapshot,
    cfg: &WatchRunConfig,
    tr: &Tracer,
    p: &mut Pass,
) -> Window {
    let started_at = emu.now();
    if !cfg.chaos.is_empty() {
        emu.schedule_chaos(&cfg.chaos.shifted(started_at - SimTime::ZERO));
    }
    let nodes: Vec<NodeId> = snapshot
        .topology
        .nodes
        .iter()
        .map(|n| n.name.clone())
        .collect();
    let mut watcher = Watcher::new(cfg.watch.clone(), nodes.iter().cloned());
    let mut standing = StandingQueries::new();
    let mut journal = String::new();
    let mut updates = 0u64;
    let mut last_class: Option<CoverageClass> = None;
    let end = started_at + cfg.duration;
    let mut now = started_at;
    let mut coverage = Coverage::default();
    while now < end {
        let _tick = tr.enter("core.watch_tick");
        now = (now + cfg.tick).min(end);
        tr.time("emulator.run_until", || emu.run_until(now));
        let report = tr.time("mgmt.watch_tick", || {
            watcher.tick(now, nodes.iter().map(|n| (n.clone(), emu.router(n))))
        });
        let status = tr.time("mgmt.watch_status", || watcher.status(now));
        coverage = Coverage::from_status(&status);
        let class = coverage_class(&coverage);
        if report.changed.is_empty() && last_class.as_ref() == Some(&class) {
            continue;
        }
        last_class = Some(class);
        let reference = tr.time("emulator.dataplane", || emu.dataplane());
        let dp = tr.time("mgmt.watch_dataplane", || {
            watcher.dataplane(now, &reference)
        });
        let batch = tr.time("verify.standing_eval", || {
            standing.evaluate(now, &dp, &coverage)
        });
        for u in batch {
            let _ = writeln!(journal, "{u}");
            updates += 1;
        }
    }

    let stats = watcher.stats();
    let (evaluated, reused) = standing.pair_stats();
    let (hits, misses) = standing.cache_stats();
    p.count("verify.evaluations", standing.evaluations());
    p.count("verify.pairs_evaluated", evaluated);
    p.count("verify.pairs_reused", reused);
    p.count("verify.class_cache_hits", hits as u64);
    p.count("verify.class_cache_misses", misses as u64);
    p.count("mgmt.watch_gaps", stats.gaps);
    p.count("mgmt.watch_resyncs", stats.resyncs);
    Window {
        journal,
        updates,
        recovered: coverage.is_complete(),
    }
}

/// FNV-1a, to fold a journal into a determinism counter.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
