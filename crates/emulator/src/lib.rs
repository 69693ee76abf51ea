//! The network emulator — this workspace's stand-in for Kubernetes Network
//! Emulator (KNE): it schedules router "pods" onto a simulated cluster,
//! boots vendor OS instances from their configs, wires virtual links with
//! latency and jitter, injects external BGP route feeds, detects dataplane
//! convergence, and extracts [`mfv_dataplane::Dataplane`] snapshots.
//!
//! - [`topology`] — the topology-file format (nodes, links, external peers)
//! - [`cluster`] — simulated k8s machines, bin-packing scheduler, boot model
//! - [`inject`] — synthetic production-route BGP feeds
//! - [`chaos`] — seeded fault-injection schedules and convergence verdicts
//! - [`engine`] — the discrete-event emulation itself
//! - [`parallel`] — multi-seed parallel runs for the non-determinism study

pub mod chaos;
pub mod cluster;
pub mod engine;
mod event_loop;
pub mod inject;
pub mod parallel;
mod pool;
pub mod topology;

pub use chaos::{ChaosEvent, ChaosPlan, ConvergenceVerdict, ImpairSpec};
pub use cluster::{Cluster, MachineSpec, PodRequest, Unschedulable};
pub use engine::{Emulation, EmulationConfig, RunReport};
pub use inject::{synthetic_prefixes, ExternalPeer};
pub use parallel::{outcome_distribution, run_seeds, run_seeds_detailed, SeedError, SeedRun};
pub use topology::{ExternalPeerSpec, NodeSpec, TopoLink, Topology};
