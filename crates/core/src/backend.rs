//! Dataplane backends: the two ways to get from configuration to a
//! verifiable dataplane.
//!
//! [`EmulationBackend`] is the paper's contribution — boot real vendor
//! control planes, converge, extract AFTs over the management plane, and
//! hand the result to verification. [`ModelBackend`] is the traditional
//! path — parse with a reference model and compute the dataplane from it.
//! Both produce the same [`Dataplane`] type, so every verification query
//! runs unchanged against either (the "drop-in backend" property of §4).

use std::collections::BTreeMap;
use std::fmt;

use mfv_dataplane::Dataplane;
use mfv_emulator::{ChaosPlan, Cluster, ConvergenceVerdict, Emulation, EmulationConfig};
use mfv_mgmt::Collector;
use mfv_model::CoverageReport;
use mfv_types::{ExtractionStatus, NodeId, SimDuration};
use mfv_vrouter::VendorProfile;

use crate::extract::extract_snapshot_observed;
use crate::snapshot::Snapshot;

/// Why a backend could not produce a dataplane.
#[derive(Clone, Debug)]
pub struct BackendError(pub String);

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend error: {}", self.0)
    }
}

impl std::error::Error for BackendError {}

/// How the emulation backend treats the conflint static pass before
/// booting (the cheap tier of tiered verification: catch cross-device
/// config contradictions in milliseconds instead of emulating them).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConflintGate {
    /// Skip the static pass entirely.
    Off,
    /// Run it and record the summary, but boot regardless. The default:
    /// some scenarios (chaos studies, deliberately broken fixtures) emulate
    /// known-bad configs on purpose.
    #[default]
    Warn,
    /// Refuse to boot when the static pass reports errors.
    Deny,
}

/// Counts from the pre-emulation conflint pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConflintSummary {
    pub errors: usize,
    pub warnings: usize,
}

/// Metadata about how the dataplane was produced.
#[derive(Clone, Debug, Default)]
pub struct BackendMeta {
    /// Did the backend reach a stable state?
    pub converged: bool,
    /// Emulation: infrastructure startup (pod scheduling + container boot).
    pub boot_time: Option<SimDuration>,
    /// Emulation: time from startup-complete to dataplane quiescence.
    pub convergence_time: Option<SimDuration>,
    /// Emulation: control-plane messages exchanged.
    pub messages: u64,
    /// Emulation: routing-process crashes observed.
    pub crashes: u64,
    /// Model: per-config coverage reports (unrecognised lines — E2).
    pub coverage: Vec<CoverageReport>,
    /// Emulation: how the run ended (converged / oscillating / timed out).
    pub verdict: Option<ConvergenceVerdict>,
    /// Emulation: fraction of nodes whose AFTs were actually extracted.
    pub extraction_coverage: Option<f64>,
    /// Emulation: per-node extraction provenance.
    pub extraction_status: BTreeMap<NodeId, ExtractionStatus>,
    /// Emulation: result of the pre-boot conflint pass (None = gate off,
    /// or the model backend, which has no such tier).
    pub conflint: Option<ConflintSummary>,
}

/// A produced dataplane plus its provenance.
#[derive(Clone, Debug)]
pub struct BackendResult {
    pub dataplane: Dataplane,
    pub meta: BackendMeta,
}

/// Anything that can turn a snapshot into a dataplane.
pub trait Backend {
    fn name(&self) -> &'static str;
    fn compute(&self, snapshot: &Snapshot) -> Result<BackendResult, BackendError>;
}

/// The model-free backend: control-plane emulation + AFT extraction.
#[derive(Clone, Debug)]
pub struct EmulationBackend {
    /// Cluster machines (e2-standard-32 each).
    pub cluster_machines: usize,
    /// Emulation seed (ordering jitter).
    pub seed: u64,
    /// Per-node vendor profile overrides (bug injection).
    pub profiles: BTreeMap<NodeId, VendorProfile>,
    /// Dataplane quiescence window.
    pub quiet_period: SimDuration,
    /// Simulated-time budget.
    pub max_sim_time: SimDuration,
    /// Restart crashed routing processes (watchdog). Disable to freeze the
    /// post-crash state for inspection.
    pub auto_restart: bool,
    /// Fault-injection schedule replayed during the run (empty = none).
    pub chaos: ChaosPlan,
    /// Management-plane collector (retry policy + simulated RPC failures).
    pub collector: Collector,
    /// Pre-boot static-analysis gate (tiered verification).
    pub conflint: ConflintGate,
    /// Ignored: the engine runs one event loop on the calling thread. Kept
    /// only because the pipeline benchmark still sets it.
    pub threads: usize,
}

impl Default for EmulationBackend {
    fn default() -> Self {
        EmulationBackend {
            cluster_machines: 1,
            seed: 1,
            profiles: BTreeMap::new(),
            quiet_period: SimDuration::from_secs(12),
            max_sim_time: SimDuration::from_mins(120),
            auto_restart: true,
            chaos: ChaosPlan::default(),
            collector: Collector::default(),
            conflint: ConflintGate::default(),
            threads: 1,
        }
    }
}

impl EmulationBackend {
    pub fn with_seed(seed: u64) -> EmulationBackend {
        EmulationBackend {
            seed,
            ..Default::default()
        }
    }

    /// Runs the emulation and returns it alongside the report, for callers
    /// that want to keep poking at the live network (CLI, what-if).
    pub fn run(&self, snapshot: &Snapshot) -> Result<(Emulation, BackendMeta), BackendError> {
        // Tier 1: cross-device static analysis, before any pod is scheduled.
        let conflint = match self.conflint {
            ConflintGate::Off => None,
            ConflintGate::Warn | ConflintGate::Deny => {
                let report = mfv_conflint::analyze(&snapshot.topology)
                    .map_err(|e| BackendError(format!("conflint: {e}")))?;
                let summary = ConflintSummary {
                    errors: report.errors(),
                    warnings: report.warnings(),
                };
                if self.conflint == ConflintGate::Deny && summary.errors > 0 {
                    return Err(BackendError(format!(
                        "conflint gate: {} error(s) in '{}' — fix or suppress \
                         before emulating:\n{}",
                        summary.errors,
                        snapshot.topology.name,
                        report.render()
                    )));
                }
                Some(summary)
            }
        };
        let cfg = EmulationConfig {
            seed: self.seed,
            quiet_period: self.quiet_period,
            max_sim_time: self.max_sim_time,
            auto_restart_crashed: self.auto_restart,
            profile_overrides: self.profiles.clone(),
            inject_after_boot: true,
            chaos: self.chaos.clone(),
            ..Default::default()
        };
        let mut emu = Emulation::new(
            snapshot.topology.clone(),
            Cluster::of_size(self.cluster_machines),
            cfg,
        )
        .map_err(BackendError)?;
        let report = emu.run_until_converged();
        if let Some(first) = report.unschedulable.first() {
            return Err(BackendError(format!(
                "{} pods unschedulable on a {}-machine cluster (first: {})",
                report.unschedulable.len(),
                self.cluster_machines,
                first,
            )));
        }
        let meta = BackendMeta {
            converged: report.converged,
            boot_time: report
                .boot_complete_at
                .map(|t| t - mfv_types::SimTime::ZERO),
            convergence_time: report
                .boot_complete_at
                .map(|boot| report.converged_at.since(boot)),
            messages: report.messages_delivered,
            crashes: report.crashes,
            coverage: Vec::new(),
            verdict: Some(report.verdict.clone()),
            extraction_coverage: None,
            extraction_status: BTreeMap::new(),
            conflint,
        };
        Ok((emu, meta))
    }
}

impl Backend for EmulationBackend {
    fn name(&self) -> &'static str {
        "model-free (emulation)"
    }

    fn compute(&self, snapshot: &Snapshot) -> Result<BackendResult, BackendError> {
        self.compute_observed(snapshot, &mut mfv_obs::Obs::new())
    }
}

impl EmulationBackend {
    /// Like [`Backend::compute`], but folds the run's observability into
    /// `obs`: the engine's metrics/phases/journal ([`Emulation::export_obs`])
    /// plus the extraction sweep's `mgmt.*` tallies and `extract` span.
    pub fn compute_observed(
        &self,
        snapshot: &Snapshot,
        obs: &mut mfv_obs::Obs,
    ) -> Result<BackendResult, BackendError> {
        let (emu, mut meta) = self.run(snapshot)?;
        obs.merge(emu.export_obs());
        // The extraction step of §4.1: dump per-device AFTs through the
        // management plane and rebuild the network dataplane from them —
        // we deliberately do NOT shortcut via the emulator's internal state.
        let extracted = extract_snapshot_observed(&emu, &self.collector, obs);
        if self.collector.failures.is_noop() && extracted.is_complete() {
            debug_assert_eq!(
                extracted.dataplane.digest(),
                emu.dataplane().digest(),
                "AFT round-trip must be lossless"
            );
        }
        meta.extraction_coverage = Some(extracted.coverage);
        meta.extraction_status = extracted.status;
        Ok(BackendResult {
            dataplane: extracted.dataplane,
            meta,
        })
    }
}

/// The traditional backend: parse with the reference model, compute the
/// dataplane from the model.
#[derive(Clone, Debug, Default)]
pub struct ModelBackend;

impl Backend for ModelBackend {
    fn name(&self) -> &'static str {
        "model-based (baseline)"
    }

    fn compute(&self, snapshot: &Snapshot) -> Result<BackendResult, BackendError> {
        for node in &snapshot.topology.nodes {
            if node.vendor != mfv_config::Vendor::Ceos {
                return Err(BackendError(format!(
                    "the reference model has no parser for vendor '{}' (node {})",
                    node.vendor, node.name
                )));
            }
        }
        let configs: Vec<(NodeId, String)> = snapshot
            .topology
            .nodes
            .iter()
            .map(|n| (n.name.clone(), n.config_text.clone()))
            .collect();
        let (dataplane, coverage) =
            mfv_model::model_dataplane(&configs).map_err(|e| BackendError(e.to_string()))?;
        Ok(BackendResult {
            dataplane,
            meta: BackendMeta {
                converged: true,
                coverage,
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use mfv_config::{inject_misconfig, SeededMisconfig};

    #[test]
    fn conflint_gate_warn_records_clean_summary_and_boots() {
        let be = EmulationBackend::with_seed(3);
        let (_emu, meta) = be.run(&scenarios::conflint_base()).unwrap();
        let s = meta.conflint.expect("Warn gate must run the static pass");
        assert_eq!((s.errors, s.warnings), (0, 0));
    }

    #[test]
    fn conflint_gate_deny_refuses_contradictory_configs() {
        let mut configs = scenarios::conflint_base_configs();
        inject_misconfig(SeededMisconfig::EbgpAsnMismatch, &mut configs, 0).unwrap();
        let snap = crate::snapshot::Snapshot::new(
            "gate-deny".to_string(),
            scenarios::conflint_base_topology("gate-deny", &configs),
        );
        let mut be = EmulationBackend::with_seed(3);
        be.conflint = ConflintGate::Deny;
        let err = match be.run(&snap) {
            Err(e) => e,
            Ok(_) => panic!("Deny gate must refuse to boot"),
        };
        assert!(err.0.contains("conflint gate"), "{err}");
        assert!(err.0.contains("C1"), "{err}");

        // The same snapshot still boots under Warn (chaos studies emulate
        // known-bad configs on purpose) — with the findings on record.
        be.conflint = ConflintGate::Warn;
        let (_emu, meta) = be.run(&snap).unwrap();
        assert!(meta.conflint.unwrap().errors > 0);
    }

    #[test]
    fn conflint_gate_off_skips_the_pass() {
        let mut be = EmulationBackend::with_seed(3);
        be.conflint = ConflintGate::Off;
        let (_emu, meta) = be.run(&scenarios::conflint_base()).unwrap();
        assert!(meta.conflint.is_none());
    }
}
