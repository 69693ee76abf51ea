//! The pipeline's front half, called layer by layer: conflint → boot →
//! converge → collect → AFTs → dataplane. It follows
//! `EmulationBackend::compute` call for call, so each call can carry its
//! own span.

use mfv_core::EmulationBackend;
use mfv_dataplane::Dataplane;
use mfv_emulator::{Cluster, Emulation, EmulationConfig};
use mfv_mgmt::{collect_afts, dataplane_from_afts};

use crate::pass::Pass;
use crate::trace::Tracer;

/// Boots and converges `topology` the way `EmulationBackend::run` does
/// for `backend` (conflint in its default warn-only mode first), recording
/// the engine's work counters into `pass`.
pub fn converge(
    topology: &mfv_emulator::Topology,
    backend: &EmulationBackend,
    tr: &Tracer,
    pass: &mut Pass,
) -> Result<Emulation, String> {
    tr.time("conflint.analyze", || mfv_conflint::analyze(topology))
        .map_err(|e| format!("conflint: {e}"))?;
    let cfg = EmulationConfig {
        seed: backend.seed,
        quiet_period: backend.quiet_period,
        max_sim_time: backend.max_sim_time,
        auto_restart_crashed: backend.auto_restart,
        profile_overrides: backend.profiles.clone(),
        inject_after_boot: true,
        chaos: backend.chaos.clone(),
        threads: backend.threads,
        ..Default::default()
    };
    let cluster = Cluster::of_size(backend.cluster_machines);
    let mut emu = tr
        .time("emulator.new", || {
            Emulation::new(topology.clone(), cluster, cfg)
        })
        .map_err(|e| format!("emulator: {e}"))?;
    let report = tr.time("emulator.converge", || emu.run_until_converged());
    if let Some(first) = report.unschedulable.first() {
        return Err(format!("unschedulable pod: {first}"));
    }
    pass.gate(report.converged, || {
        format!("emulation did not converge: {:?}", report.verdict)
    });
    pass.count("emulator.events", report.events_processed);
    pass.count("emulator.events_scheduled", report.events_scheduled);
    pass.count("emulator.messages", report.messages_delivered);
    pass.count("emulator.shards", emu.shard_count() as u64);
    Ok(emu)
}

/// A dataplane rebuilt from AFTs pulled over the management plane, plus
/// the emulator's own view of it for the lossless-extraction gate.
pub struct Extracted {
    pub dataplane: Dataplane,
    pub reference: Dataplane,
}

/// Collects every node's telemetry, converts it to AFTs and assembles the
/// network dataplane, as `extract_snapshot` does. Gates on full coverage.
pub fn extract(
    emu: &Emulation,
    backend: &EmulationBackend,
    tr: &Tracer,
    pass: &mut Pass,
) -> Extracted {
    let nodes: Vec<_> = emu
        .topology
        .nodes
        .iter()
        .map(|n| (n.name.clone(), emu.router(&n.name)))
        .collect();
    let report = tr.time("mgmt.collect", || backend.collector.collect(nodes));
    let afts = tr.time("mgmt.aft", || collect_afts(&report.telemetry));
    let reference = tr.time("emulator.dataplane", || emu.dataplane());
    let dataplane = tr.time("dataplane.assemble", || {
        dataplane_from_afts(&afts, &reference)
    });
    let coverage = report.coverage();
    pass.gate(coverage >= 1.0, || {
        format!("extraction coverage {coverage} < 1")
    });
    pass.count("mgmt.rpc_attempts", report.attempts);
    let aft_entries: usize = afts.values().map(|a| a.len()).sum();
    pass.count("mgmt.aft_entries", aft_entries as u64);
    let fib_entries: usize = dataplane.nodes.values().map(|n| n.entries.len()).sum();
    pass.count("dataplane.fib_entries", fib_entries as u64);
    Extracted {
        dataplane,
        reference,
    }
}

/// Gates the extracted dataplane against the emulator's and records its
/// digest as a determinism counter.
pub fn check_extraction(ex: &Extracted, tr: &Tracer, pass: &mut Pass) {
    let _g = tr.enter("bench.check");
    let got = ex.dataplane.digest();
    let want = ex.reference.digest();
    pass.gate(got == want, || {
        format!("extracted dataplane digest {got:#x} != emulator digest {want:#x}")
    });
    pass.count("dataplane.digest", got);
}
