//! Byte-level oracle for the emulator's event loop.
//!
//! The fixtures under `tests/fixtures/engine_oracle/` were recorded from
//! the engine as it ran before the single event loop replaced the sharded
//! one, with the whole topology in one shard. Every run here must
//! reproduce them byte for byte: the converged dataplane digest, every
//! node's AFT JSON, the `RunReport` Debug text and the sim-only obs export
//! (`to_json(false)`); for the oscillating run, the watchdog's verdict and
//! its churn evidence.
//!
//! The fixtures are never re-recorded. A diff here means the event loop's
//! behaviour changed, not that the fixture went stale.

use std::path::{Path, PathBuf};

use model_free_verification::core::scenarios;
use model_free_verification::emulator::{
    ChaosPlan, Cluster, ConvergenceVerdict, Emulation, EmulationConfig, MachineSpec, Topology,
};
use model_free_verification::mgmt::Telemetry;
use model_free_verification::types::{LinkId, NodeId, SimDuration, SimTime};

fn fixture_dir(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/engine_oracle")
        .join(case)
}

/// Asserts every `(file, bytes)` pair against the case's fixture dir, and
/// that the dir holds no file the run did not produce.
fn assert_matches_fixtures(case: &str, files: &[(String, String)]) {
    let dir = fixture_dir(case);
    for (name, got) in files {
        let want = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("fixture {case}/{name}: {e}"));
        assert!(
            *got == want,
            "{case}/{name} diverged from the recorded engine output"
        );
    }
    let mut recorded: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture dir {case}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    recorded.sort();
    let mut produced: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    produced.sort();
    assert_eq!(recorded, produced, "{case}: fixture file set changed");
}

/// A multi-vendor WAN with external route feeds: ISIS floods, the iBGP
/// mesh, feed injection and vendor-specific timing are all live.
fn wan_topology() -> Topology {
    scenarios::production_wan(9, 2, true, 40).topology
}

/// Flap a link twice, kill a router.
fn wan_chaos() -> ChaosPlan {
    ChaosPlan::new()
        .repeated_link_flap(
            LinkId::new(
                ("r2".into(), "Ethernet2".into()),
                ("r3".into(), "Ethernet1".into()),
            ),
            SimTime(500_000),
            SimDuration::from_secs(8),
            2,
            SimDuration::from_secs(20),
        )
        .kill_routing("r5", SimTime(560_000))
}

/// Everything a verification consumer can observe from one converged run,
/// as named byte strings.
fn observable_run(
    topology: Topology,
    cluster: Cluster,
    cfg: EmulationConfig,
) -> Vec<(String, String)> {
    let mut emu = Emulation::new(topology, cluster, cfg).expect("topology builds");
    let report = emu.run_until_converged();
    assert!(report.converged, "{report:?}");
    let dataplane = emu.dataplane();
    let mut files = vec![
        (
            "digest.txt".to_string(),
            format!("{:016x}\n", dataplane.digest()),
        ),
        ("report.txt".to_string(), format!("{report:#?}\n")),
        ("obs.json".to_string(), emu.export_obs().to_json(false)),
    ];
    for node in dataplane.nodes.keys() {
        let router = emu
            .router(&NodeId::from(node.as_str()))
            .expect("router booted");
        let telemetry = Telemetry::from_router(router).expect("state tree extracts");
        let aft = telemetry.aft().expect("telemetry carries an AFT");
        files.push((
            format!("aft_{node}.json"),
            aft.to_json().expect("AFT serialises"),
        ));
    }
    files
}

#[test]
fn wan_chaos_run_matches_recorded_engine() {
    let cfg = EmulationConfig {
        seed: 5,
        chaos: wan_chaos(),
        ..Default::default()
    };
    let files = observable_run(wan_topology(), Cluster::single_node(), cfg);
    assert_matches_fixtures("wan_chaos_seed5", &files);
}

/// Flapping a ring link every 20 s past a shortened budget keeps the
/// network from ever going quiet, so the watchdog must post-mortem it as
/// oscillating, from the churn it accumulated in steady state.
#[test]
fn oscillating_run_matches_recorded_engine() {
    // A fault-free control run finds the boot instant, so the flap train
    // lands entirely in steady state.
    let boot_ms = {
        let cfg = EmulationConfig {
            seed: 5,
            ..Default::default()
        };
        let mut emu =
            Emulation::new(wan_topology(), Cluster::single_node(), cfg).expect("topology builds");
        let report = emu.run_until_converged();
        assert!(report.converged, "{report:?}");
        report.boot_complete_at.expect("boot completed").0
    };
    let flapped = {
        let l = wan_topology().links.first().expect("WAN has links").clone();
        LinkId::new((l.a_node, l.a_iface), (l.b_node, l.b_iface))
    };
    let cfg = EmulationConfig {
        seed: 5,
        chaos: ChaosPlan::new().repeated_link_flap(
            flapped,
            SimTime(boot_ms + 60_000),
            SimDuration::from_secs(8),
            40,
            SimDuration::from_secs(20),
        ),
        max_sim_time: SimDuration::from_millis(boot_ms + 400_000),
        ..Default::default()
    };
    let mut emu =
        Emulation::new(wan_topology(), Cluster::single_node(), cfg).expect("topology builds");
    let report = emu.run_until_converged();
    assert!(
        matches!(report.verdict, ConvergenceVerdict::Oscillating { .. }),
        "{:?}",
        report.verdict
    );
    let churn = emu.churn_dump();
    assert!(!churn.is_empty(), "oscillation must leave churn evidence");
    let mut churn_text = String::new();
    for (prefix, instants) in &churn {
        let ms: Vec<String> = instants.iter().map(|t| t.as_millis().to_string()).collect();
        churn_text.push_str(&format!("{prefix} {}\n", ms.join(" ")));
    }
    let files = vec![
        (
            "verdict.txt".to_string(),
            format!("{:#?}\n", report.verdict),
        ),
        ("churn.txt".to_string(), churn_text),
    ];
    assert_matches_fixtures("wan_oscillating_seed5", &files);
}

/// Four small machines (six cEOS pods each) so the 15-router WAN spreads
/// over three of them and a machine failure has somewhere to reschedule.
fn small_cluster() -> Cluster {
    Cluster::new(
        (0..4)
            .map(|i| MachineSpec {
                name: format!("m{i}"),
                cpu_millis: 3_000,
                mem_mib: 6 * 1024,
            })
            .collect(),
    )
}

/// A three-region WAN across three machines — the layout the sharded
/// engine cut into one shard per machine — with a cross-region link flap
/// and the failure of the machine holding the last region's pods.
#[test]
fn multi_machine_wan_matches_recorded_engine() {
    let chaos = ChaosPlan::new()
        .link_flap(
            LinkId::new(
                ("r00x04".into(), "Ethernet8".into()),
                ("r01x00".into(), "Ethernet8".into()),
            ),
            SimTime(500_000),
            SimDuration::from_secs(10),
        )
        .fail_machine("m2", SimTime(550_000));
    let cfg = EmulationConfig {
        seed: 7,
        chaos,
        ..Default::default()
    };
    let files = observable_run(scenarios::regional_wan(3, 5).topology, small_cluster(), cfg);
    assert_matches_fixtures("regional_wan_3x5_machines4", &files);
}
