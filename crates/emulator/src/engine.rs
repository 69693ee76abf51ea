//! The discrete-event emulation engine — the workspace's stand-in for KNE.
//!
//! Owns the virtual routers, the simulated cluster that boots them, the
//! links between them, and the external route-injection peers. Runs on
//! virtual time with seeded per-link jitter: a given `(topology, seed)` pair
//! replays identically, and different seeds reorder message arrivals — which
//! is exactly the non-determinism surface §6 of the paper discusses.
//!
//! # One event loop
//!
//! Every event lives on one heap in one [`EventLoop`]. The coordinator
//! (`drive`) runs the loop up to cuts at exact sim instants: each chaos
//! timeline instant, the next pod-ready instant during boot, and the
//! earliest instant the quiet period could end. Between runs it applies
//! what must happen at those instants — chaos, boot completion, feed
//! activation, the churn gate, the convergence verdict — so they land on
//! the same instant in every replay. Same `(topology, seed, plan)` ⇒
//! byte-identical dataplanes, AFT dumps, and obs exports.
//!
//! Threads pay only across whole emulations: multi-seed runs
//! (`crate::parallel`) put each seed on its own worker.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mfv_dataplane::Dataplane;
use mfv_obs::{Journal, Obs, SimPhases, WallSection, WallTimer};
use mfv_types::{LinkId, NodeId, NodeRef, Prefix, SimDuration, SimTime};
use mfv_vrouter::{VendorProfile, VirtualRouter};

use crate::chaos::{ChaosEvent, ChaosPlan, ConvergenceVerdict};
use crate::cluster::{Cluster, PodRequest, Unschedulable};
use crate::event_loop::{stream_seed, EndInfo, EventKind, EventLoop, ImpairWindow, Net, Owner};
use crate::inject::{synthetic_prefixes, ExternalPeer};
use crate::topology::Topology;

/// Emulation tuning knobs.
#[derive(Clone, Debug)]
pub struct EmulationConfig {
    /// Seed for boot jitter and link jitter.
    pub seed: u64,
    /// Dataplane quiescence window for convergence detection ("we detect
    /// convergence to be complete once we observe the dataplane to
    /// stabilize at all routers", §5).
    pub quiet_period: SimDuration,
    /// Hard stop for a run.
    pub max_sim_time: SimDuration,
    /// Restart crashed routing processes after their vendor restart delay.
    pub auto_restart_crashed: bool,
    /// Per-node vendor profile overrides (bug injection).
    pub profile_overrides: BTreeMap<NodeId, VendorProfile>,
    /// Start external route feeds only once every pod is Ready — the
    /// paper's E5 measurement applies configuration and injection to an
    /// already-booted replica.
    pub inject_after_boot: bool,
    /// Scheduled fault injection. The default (empty) plan is a fault-free
    /// run; see [`ChaosPlan`] for what can be scheduled. Events referencing
    /// unknown links/nodes/machines are inert.
    pub chaos: ChaosPlan,
    /// Ignored: the engine runs one event loop on the calling thread. Kept
    /// only because the pipeline benchmark still sets it.
    pub threads: usize,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            seed: 1,
            quiet_period: SimDuration::from_secs(12),
            max_sim_time: SimDuration::from_mins(60),
            auto_restart_crashed: true,
            profile_overrides: BTreeMap::new(),
            inject_after_boot: true,
            chaos: ChaosPlan::default(),
            threads: 1,
        }
    }
}

/// Outcome of a convergence run.
///
/// `PartialEq` so determinism tests can compare whole reports: a replay of
/// the same `(topology, seed, plan)` must produce an identical one.
#[derive(Clone, PartialEq, Debug)]
pub struct RunReport {
    /// Whether the dataplane went quiet before `max_sim_time`.
    /// (Equivalent to `verdict.is_converged()`; kept for callers that only
    /// need the boolean.)
    pub converged: bool,
    /// The watchdog's full verdict: converged, oscillating (with the
    /// detected flap period and churning prefixes), or timed out.
    pub verdict: ConvergenceVerdict,
    /// When the last pod became Ready (emulation startup complete).
    pub boot_complete_at: Option<SimTime>,
    /// Time of the last dataplane change — the convergence instant.
    pub converged_at: SimTime,
    /// Control-plane messages delivered.
    pub messages_delivered: u64,
    /// Routing-process crashes observed.
    pub crashes: u64,
    /// Work items processed: heap events, demand-driven wake polls, and
    /// coordinator timeline actions.
    pub events_processed: u64,
    /// Events pushed onto the priority queue. Under demand-driven polling
    /// wake requests never enter the heap, so this counts only real work
    /// (deliveries, boot completions, restarts, chaos) — the engine's
    /// scheduling-cost metric tracked by the bench rig.
    pub events_scheduled: u64,
    /// Pods that could not be scheduled.
    pub unschedulable: Vec<Unschedulable>,
    /// Sim-time span per run phase (`boot`/`flood`/`converge`). Derived
    /// from sim state only, so replays compare equal; wall-clock twins live
    /// in the engine's [`Obs`] export, never here.
    pub phases: SimPhases,
}

/// Per-link canonical state plus the interned endpoints.
struct LinkRecord {
    id: LinkId,
    a: (NodeRef, mfv_types::IfaceRef),
    b: (NodeRef, mfv_types::IfaceRef),
    up: bool,
}

/// A coordinator-timeline entry: chaos that must fire at an exact global
/// instant, applied at a run cut to that instant.
enum GlobalAction {
    Link { slot: Option<usize>, up: bool },
    Kill(Option<NodeRef>),
    FailMachine(String),
}

/// Changes a prefix needs within the recent window to count as oscillating.
const OSCILLATION_MIN_CHANGES: usize = 4;

/// Coordinator-owned state: everything the cut logic touches that is not
/// inside the [`EventLoop`] or the read-only [`Net`].
struct Global {
    cfg: EmulationConfig,
    cluster: Cluster,
    /// Dedicated stream for boot/reschedule jitter, independent of message
    /// jitter so placement is a pure function of `(seed, topology)`.
    cluster_rng: ChaCha8Rng,
    node_total: usize,
    ext_total: usize,
    links: Vec<LinkRecord>,
    link_index: BTreeMap<LinkId, usize>,
    /// Chaos instants, keyed `(time, insertion order)` so same-instant
    /// entries apply in plan order.
    timeline: BTreeMap<(SimTime, u64), GlobalAction>,
    timeline_ord: u64,
    chaos_pending: usize,
    /// Scheduled-but-unfired PodReady instants per node (the coordinator
    /// schedules every one itself, so boot completion is detected at exact
    /// sim instants). A node evicted by a machine failure keeps any
    /// already-scheduled future instant — the stale event still boots a
    /// fresh router.
    pending_ready: BTreeMap<NodeRef, BTreeSet<SimTime>>,
    /// Nodes whose pod-ready instant has passed.
    ready: BTreeSet<NodeRef>,
    now: SimTime,
    /// Latest instant the run had reached at a cut: processed events, fired
    /// timeline instants, and earlier cut edges (the "how far did the run
    /// actually get" clock used by the oscillation post-mortem).
    t_max: SimTime,
    booted: bool,
    boot_complete_at: Option<SimTime>,
    feeds_done_at: Option<SimTime>,
    /// Whether the steady-state churn gate has been announced to the loop.
    /// Once boot and feed flooding are both complete, the loop gets
    /// `churn_from` and folds its own change records at each run end.
    churn_gate_set: bool,
    unschedulable: Vec<Unschedulable>,
    /// Coordinator milestones (chaos, boot, flood). Kept apart from the
    /// loop's journal because a milestone is only known after its instant
    /// has run; the export ranks it first among same-instant entries.
    journal: Journal,
    phases: SimPhases,
    wall: WallSection,
}

/// The running emulation.
pub struct Emulation {
    pub topology: Topology,
    net: Net,
    sim: EventLoop,
    glob: Global,
}

/// What the coordinator decided at a cut.
enum Plan {
    /// Run the loop up to this exclusive end instant.
    Run(SimTime),
    /// Quiescent for a full quiet period before anything else is due.
    Converged(SimTime),
    /// No work within the deadline (and not provably converged).
    Done,
}

/// Wall-clock phase-split tracking for `run_until_converged`.
struct WallProgress {
    timer: WallTimer,
    mark: u64,
    boot_done: bool,
    flood_done: bool,
}

impl Emulation {
    /// Prepares an emulation: validates the topology, parses every config
    /// in its vendor dialect (reporting config errors up front, as the real
    /// bring-up would), and builds the interned id space and link tables.
    pub fn new(
        topology: Topology,
        cluster: Cluster,
        cfg: EmulationConfig,
    ) -> Result<Emulation, String> {
        topology.validate()?;
        let mut interner = mfv_types::Interner::new();
        // Sorted interning: NodeRef order == name order, which keeps
        // ref-ordered iteration identical to the old BTreeMap<NodeId> walk.
        let mut names: Vec<&NodeId> = topology.nodes.iter().map(|n| &n.name).collect();
        names.sort();
        for name in names {
            interner.intern_node(name);
        }
        let mut parsed_configs: Vec<Option<mfv_config::Parsed>> =
            (0..interner.node_count()).map(|_| None).collect();
        for node in &topology.nodes {
            let parsed = node
                .parse_config()
                .map_err(|e| format!("config for {}: {e}", node.name))?;
            if let Some(r) = interner.resolve_node(&node.name) {
                if let Some(slot) = parsed_configs.get_mut(r.index()) {
                    *slot = Some(parsed);
                }
            }
        }
        let parsed_configs: Vec<mfv_config::Parsed> = parsed_configs
            .into_iter()
            .map(|p| p.ok_or_else(|| "node config missing after parse".to_string()))
            .collect::<Result<_, _>>()?;
        let mut ends = BTreeMap::new();
        let mut links = Vec::with_capacity(topology.links.len());
        let mut link_index = BTreeMap::new();
        for l in &topology.links {
            let an = interner.intern_node(&l.a_node);
            let ai = interner.intern_iface(&l.a_iface);
            let bn = interner.intern_node(&l.b_node);
            let bi = interner.intern_iface(&l.b_iface);
            let slot = links.len();
            // Latency clamp ≥ 1 ms: a frame never lands in the instant it
            // was sent.
            let latency_ms = l.latency_ms.max(1);
            ends.insert(
                (an, ai),
                EndInfo {
                    peer: bn,
                    peer_iface: bi,
                    latency_ms,
                    link_slot: slot,
                },
            );
            ends.insert(
                (bn, bi),
                EndInfo {
                    peer: an,
                    peer_iface: ai,
                    latency_ms,
                    link_slot: slot,
                },
            );
            link_index.insert(l.id(), slot);
            links.push(LinkRecord {
                id: l.id(),
                a: (an, ai),
                b: (bn, bi),
                up: true,
            });
        }
        // Vendor profiles with overrides pre-applied, and the static BGP
        // endpoint-address table. Addresses come from parsed configs (what
        // `VirtualRouter::addresses` reports after boot), so ownership
        // never depends on boot order; segments to a not-yet-booted node
        // are dropped at delivery instead of at send.
        let mut profiles = Vec::with_capacity(interner.node_count());
        let mut ip_owner: BTreeMap<Ipv4Addr, Owner> = BTreeMap::new();
        for r in interner.node_refs() {
            let name = interner.node(r).cloned();
            let vendor = name
                .as_ref()
                .and_then(|n| topology.node(n))
                .map(|s| s.vendor);
            let profile = name
                .as_ref()
                .and_then(|n| cfg.profile_overrides.get(n).cloned())
                .or_else(|| vendor.map(VendorProfile::for_vendor))
                .unwrap_or_else(|| VendorProfile::for_vendor(mfv_config::Vendor::Ceos));
            profiles.push(profile);
            if let Some(parsed) = parsed_configs.get(r.index()) {
                for iface in parsed.config.interfaces.iter().filter(|i| i.is_l3()) {
                    if let Some(a) = iface.addr {
                        ip_owner.insert(a.addr, Owner::Node(r));
                    }
                }
            }
        }
        let node_total = topology.nodes.len();
        let seed = cfg.seed;
        let cluster_rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, 0x3000_0000));
        let net = Net {
            interner,
            profiles,
            parsed_configs,
            ends,
            link_ends: links.iter().map(|l| (l.a, l.b)).collect(),
            ip_owner,
            seed,
            auto_restart: cfg.auto_restart_crashed,
            impairments: Vec::new(),
            link_impair: vec![Vec::new(); links.len()],
            pair_impair: BTreeMap::new(),
        };
        let sim = EventLoop::new(&net, links.len(), topology.external_peers.len());
        let glob = Global {
            cfg,
            cluster,
            cluster_rng,
            node_total,
            ext_total: topology.external_peers.len(),
            links,
            link_index,
            timeline: BTreeMap::new(),
            timeline_ord: 0,
            chaos_pending: 0,
            pending_ready: BTreeMap::new(),
            ready: BTreeSet::new(),
            now: SimTime::ZERO,
            t_max: SimTime::ZERO,
            booted: false,
            boot_complete_at: None,
            feeds_done_at: None,
            churn_gate_set: false,
            unschedulable: Vec::new(),
            journal: Journal::new(),
            phases: SimPhases::new(),
            wall: WallSection::new(),
        };
        Ok(Emulation {
            topology,
            net,
            sim,
            glob,
        })
    }

    pub fn now(&self) -> SimTime {
        self.glob.now
    }

    pub fn router(&self, node: &NodeId) -> Option<&VirtualRouter> {
        let r = self.net.interner.resolve_node(node)?;
        self.sim.routers.get(r.index())?.as_ref()
    }

    /// Runs an operator CLI command on a node (SSH-to-the-emulated-router).
    pub fn cli(&self, node: &NodeId, command: &str) -> Option<String> {
        self.router(node)
            .map(|r| mfv_vrouter::cli::exec(r, command))
    }

    /// Submits all pods to the cluster, schedules their boot events, and
    /// wires external peers. Called implicitly by the run entry points.
    fn boot(&mut self) {
        if self.glob.booted {
            return;
        }
        self.glob.booted = true;
        for i in 0..self.topology.nodes.len() {
            let name = self.topology.nodes[i].name.clone();
            let Some(node_ref) = self.net.interner.resolve_node(&name) else {
                continue;
            };
            let Some(profile) = self.net.profiles.get(node_ref.index()).cloned() else {
                continue;
            };
            let req = PodRequest {
                pod: name,
                cpu_millis: profile.cpu_millis,
                mem_mib: profile.mem_mib,
            };
            match self.glob.cluster.schedule(
                &req,
                self.glob.now,
                profile.boot_time,
                &mut self.glob.cluster_rng,
            ) {
                Ok(placement) => {
                    self.glob
                        .pending_ready
                        .entry(node_ref)
                        .or_default()
                        .insert(placement.ready_at);
                }
                Err(e) => {
                    self.glob.unschedulable.push(e);
                }
            }
        }
        // Boot events, in (node, instant) order.
        for (&node, etas) in &self.glob.pending_ready {
            for &eta in etas {
                self.sim.schedule_global(eta, EventKind::PodReady(node));
            }
        }
        // External peers.
        for idx in 0..self.topology.external_peers.len() {
            let (addr, asn, attach_to, base_octet, route_count) = {
                let spec = &self.topology.external_peers[idx];
                (
                    spec.addr,
                    spec.asn,
                    spec.attach_to.clone(),
                    spec.base_octet,
                    spec.route_count,
                )
            };
            // The router-side address: the attach node's interface on the
            // peer's subnet. Resolved from the config parsed at `new()`.
            let router_addr = self
                .net
                .interner
                .resolve_node(&attach_to)
                .and_then(|r| self.net.parsed_configs.get(r.index()))
                .and_then(|parsed| {
                    parsed
                        .config
                        .interfaces
                        .iter()
                        .filter(|i| i.is_l3())
                        .filter_map(|i| i.addr)
                        .find(|a| a.subnet().contains(addr))
                        .map(|a| a.addr)
                })
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let base = base_octet.unwrap_or(20 + idx as u8);
            let routes = synthetic_prefixes(base, route_count);
            let peer = ExternalPeer::new(addr, asn, router_addr, routes);
            // Router addresses win collisions, as they did when routers
            // re-registered over external entries at boot.
            self.net
                .ip_owner
                .entry(addr)
                .or_insert(Owner::External(idx));
            self.sim.install_external(idx, peer);
        }
        if !self.glob.cfg.inject_after_boot {
            self.sim.activate_feeds(SimTime(1_000));
        }
        // Chaos schedule: expand the plan into the coordinator timeline up
        // front so the whole fault timeline is part of the deterministic
        // cut structure.
        let plan = self.glob.cfg.chaos.clone();
        expand_chaos(&mut self.glob, &mut self.net, plan);
    }

    /// Injects a chaos schedule into a running emulation. Before boot the
    /// plan is folded into the configured one; after boot it expands into
    /// timeline entries immediately (instants already in the past fire at
    /// `now`). Used by the continuous-verification loop to start faulting
    /// only once the initial convergence is done.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) {
        if !self.glob.booted {
            self.glob
                .cfg
                .chaos
                .events
                .extend(plan.events.iter().cloned());
            return;
        }
        expand_chaos(&mut self.glob, &mut self.net, plan.clone());
    }

    /// Advances virtual time to exactly `deadline`, processing every work
    /// item due on the way, with none of the convergence machinery: no
    /// quiet-period fast-forward, no watchdog, no phase bookkeeping. The
    /// continuous-verification tick loop drives the steady-state emulation
    /// with this — chaos events fire, routers reconverge, and the clock
    /// lands on `deadline` even when the network is idle (so telemetry
    /// stamps and backoff timers keep moving). Returns the number of work
    /// items processed during this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.boot();
        let before = self.sim.events_processed;
        drive(
            &mut self.glob,
            &self.net,
            &mut self.sim,
            deadline,
            false,
            None,
        );
        self.sim.advance_clock(deadline);
        self.glob.now = self.glob.now.max(deadline);
        self.sim.events_processed - before
    }

    /// Runs the emulation until the dataplane is quiet (or the time cap),
    /// and renders the watchdog's [`ConvergenceVerdict`]: a quiet spell
    /// only counts once every scheduled fault has fired, and a run that
    /// exhausts its budget is post-mortemed for oscillation.
    pub fn run_until_converged(&mut self) -> RunReport {
        // Wall-clock phase splits. The sim-time twins are derived from
        // `boot_complete_at`/`feeds_done_at` below; only these wall marks
        // touch the real clock, and they land in the quarantined wall
        // section of the obs export.
        let mut wp = WallProgress {
            timer: WallTimer::start(),
            mark: 0,
            boot_done: self.glob.boot_complete_at.is_some(),
            flood_done: self.glob.feeds_done_at.is_some(),
        };
        self.boot();
        let deadline = SimTime(self.glob.cfg.max_sim_time.as_millis());
        let converged = drive(
            &mut self.glob,
            &self.net,
            &mut self.sim,
            deadline,
            true,
            Some(&mut wp),
        );
        self.glob.now = self.glob.now.max(self.glob.t_max);
        self.glob.wall.add_phase(
            "converge",
            wp.timer.elapsed_micros().saturating_sub(wp.mark),
        );
        let last_activity = self.sim.last_activity;
        let verdict = if converged {
            ConvergenceVerdict::Converged
        } else {
            oscillation_verdict(&self.glob, &self.sim)
        };
        // Sim-time spans mirror the wall splits, derived purely from sim
        // state so replays produce identical reports.
        if let Some(boot_at) = self.glob.boot_complete_at {
            self.glob.phases.record("boot", SimTime::ZERO, boot_at);
            let converge_from = match self.glob.feeds_done_at {
                Some(flood_at) => {
                    self.glob.phases.record("flood", boot_at, flood_at);
                    flood_at
                }
                None => boot_at,
            };
            self.glob
                .phases
                .record("converge", converge_from, last_activity.max(converge_from));
        }
        RunReport {
            converged,
            verdict,
            boot_complete_at: self.glob.boot_complete_at,
            converged_at: last_activity,
            messages_delivered: self.sim.messages_delivered,
            crashes: self.sim.crashes,
            events_processed: self.sim.events_processed,
            events_scheduled: self.sim.events_scheduled,
            unschedulable: self.glob.unschedulable.clone(),
            phases: self.glob.phases.clone(),
        }
    }

    /// Applies a configuration change to a running node (config push) and
    /// returns immediately; call `run_until_converged` to settle.
    pub fn push_config(&mut self, node: &NodeId, text: &str) -> Result<(), String> {
        let spec = self
            .topology
            .nodes
            .iter_mut()
            .find(|n| &n.name == node)
            .ok_or_else(|| format!("unknown node {node}"))?;
        let vendor = spec.vendor;
        let parsed = mfv_config::parse(vendor, text).map_err(|e| e.to_string())?;
        spec.config_text = text.to_string();
        let Some(node_ref) = self.net.interner.resolve_node(node) else {
            return Ok(());
        };
        let now = self.glob.now;
        let sim = &mut self.sim;
        sim.advance_clock(now);
        if let Some(router) = sim
            .routers
            .get_mut(node_ref.index())
            .and_then(|s| s.as_mut())
        {
            router.apply_config(parsed.config);
            for addr in router.addresses() {
                self.net.ip_owner.insert(addr, Owner::Node(node_ref));
            }
            sim.last_activity = sim.last_activity.max(now);
            sim.schedule_poll(node_ref, SimTime(now.0 + 1));
        }
        Ok(())
    }

    /// Brings a link up or down (failure injection). Unknown links are
    /// ignored.
    pub fn set_link(&mut self, link: &LinkId, up: bool) {
        let Some(&slot) = self.glob.link_index.get(link) else {
            return;
        };
        if let Some(rec) = self.glob.links.get_mut(slot) {
            rec.up = up;
        }
        self.sim.advance_clock(self.glob.now);
        self.sim.apply_link(&self.net, slot, up);
    }

    /// Administratively shuts a BGP session on a node.
    pub fn shutdown_bgp(&mut self, node: &NodeId, peer: Ipv4Addr) {
        let Some(node_ref) = self.net.interner.resolve_node(node) else {
            return;
        };
        let now = self.glob.now;
        let sim = &mut self.sim;
        sim.advance_clock(now);
        if let Some(router) = sim
            .routers
            .get_mut(node_ref.index())
            .and_then(|s| s.as_mut())
        {
            router.shutdown_bgp_session(peer, now);
            sim.last_activity = sim.last_activity.max(now);
            sim.schedule_poll(node_ref, SimTime(now.0 + 1));
        }
    }

    /// Extracts the current dataplane snapshot (the AFT dump step).
    /// `NodeRef` order is name order, so the walk matches the old
    /// string-keyed map's iteration byte for byte.
    pub fn dataplane(&self) -> Dataplane {
        let mut dp = Dataplane::new();
        for r in self.net.interner.node_refs() {
            let Some(router) = self.sim.routers.get(r.index()).and_then(|s| s.as_ref()) else {
                continue;
            };
            let Some(name) = self.net.interner.node(r) else {
                continue;
            };
            dp.add_node(
                name.clone(),
                router.fib(),
                router.addresses(),
                router.is_running(),
            );
        }
        for rec in &self.glob.links {
            if rec.up {
                dp.add_link(rec.id.clone());
            }
        }
        dp
    }

    /// The steady-state churn tracker: per prefix, the retained
    /// dataplane-change instants. Determinism tests digest it alongside
    /// the dataplane.
    pub fn churn_dump(&self) -> BTreeMap<Prefix, Vec<SimTime>> {
        self.sim
            .churn
            .iter()
            .map(|(p, q)| (*p, q.iter().copied().collect()))
            .collect()
    }

    /// Current cluster packing (pods per machine).
    pub fn cluster_packing(&self) -> Vec<(String, usize)> {
        self.glob.cluster.packing()
    }

    /// Always 1: the engine runs one event loop. Kept only because the
    /// pipeline benchmark still reads it.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Flushes the engine's plain-field counters — plus per-router
    /// aggregates from every live [`VirtualRouter`] — into an [`Obs`]
    /// snapshot. Everything except the `wall` section is derived from sim
    /// state only, so two same-seed runs export byte-identical
    /// `to_json(false)` dumps.
    pub fn export_obs(&self) -> Obs {
        let mut obs = Obs::new();
        let sim = &self.sim;
        let tally = sim.tally;
        let m = &mut obs.metrics;
        m.inc("engine.events.pod_ready", tally.pod_ready);
        m.inc("engine.events.deliver_isis", tally.deliver_isis);
        m.inc("engine.events.deliver_bgp", tally.deliver_bgp);
        m.inc("engine.events.deliver_external", tally.deliver_external);
        m.inc("engine.events.restart_router", tally.restart_router);
        m.inc("engine.events.chaos_link", tally.chaos_link);
        m.inc("engine.events.chaos_kill", tally.chaos_kill);
        m.inc("engine.events.chaos_fail_machine", tally.chaos_fail_machine);
        m.inc("engine.events.scheduled", sim.events_scheduled);
        m.inc("engine.events.processed", sim.events_processed);
        m.inc("engine.messages.delivered", sim.messages_delivered);
        m.inc("engine.crashes", sim.crashes);
        m.inc("engine.polls.router", tally.router_polls);
        m.inc("engine.polls.external", tally.ext_polls);
        m.inc("engine.impair.dropped", tally.impair_dropped);
        m.inc("engine.impair.duplicated", tally.impair_duplicated);
        m.inc("engine.encode_errors", tally.encode_errors);
        m.gauge("engine.nodes", self.topology.nodes.len() as i64);
        m.gauge("engine.links", self.glob.links.len() as i64);
        m.gauge("engine.unschedulable", self.glob.unschedulable.len() as i64);
        // Always 1; the gauge stays so the export keeps its shape.
        m.gauge("engine.shards", 1);
        m.merge_hist("engine.wake_depth", &sim.wake_depth);

        // Per-router aggregates (routers evicted by machine failures or
        // not yet booted contribute nothing). Walk in NodeRef order.
        let mut decode_errors = 0u64;
        let mut encode_errors = 0u64;
        let mut rib_resyncs = 0u64;
        let mut full_refreshes = 0u64;
        let mut fib_patches = 0u64;
        let mut bgp_transitions = 0u64;
        let mut isis_transitions = 0u64;
        let mut running = 0i64;
        for router in sim.routers.iter().flatten() {
            decode_errors += router.decode_errors;
            encode_errors += router.encode_errors;
            rib_resyncs += router.rib_resyncs;
            full_refreshes += router.full_fib_refreshes;
            fib_patches += router.fib_patches;
            bgp_transitions += router.bgp_session_transitions();
            isis_transitions += router.isis_adjacency_transitions();
            if router.is_running() {
                running += 1;
            }
        }
        m.inc("vrouter.decode_errors", decode_errors);
        m.inc("vrouter.encode_errors", encode_errors);
        m.inc("vrouter.rib.resyncs", rib_resyncs);
        m.inc("vrouter.fib.full_refreshes", full_refreshes);
        m.inc("vrouter.fib.patches", fib_patches);
        m.inc("vrouter.bgp.session_transitions", bgp_transitions);
        m.inc("vrouter.isis.adjacency_transitions", isis_transitions);
        m.gauge("vrouter.running", running);

        obs.phases = self.glob.phases.clone();
        obs.journal = self.merged_journal();
        obs.wall = self.glob.wall.clone();
        obs
    }

    /// Interleaves the coordinator journal and the loop's journal into one
    /// ring, ordered by `(time, source, local order)`: a coordinator
    /// milestone ranks before loop entries at the same instant, matching
    /// heap order, where coordinator-origin events sort first.
    fn merged_journal(&self) -> Journal {
        let coordinator = self.glob.journal.events().enumerate().map(|e| (0, e));
        let event_loop = self.sim.journal.events().enumerate().map(|e| (1, e));
        let mut entries: Vec<_> = coordinator.chain(event_loop).collect();
        entries.sort_by_key(|(rank, (idx, e))| (e.at, *rank, *idx));
        let mut out = Journal::new();
        for (_, (_, e)) in entries {
            out.push(e.at, e.kind, e.detail.clone());
        }
        out
    }
}

/// Expands a [`ChaosPlan`] into coordinator timeline entries and
/// impairment windows. Link/node targets resolve to slots/refs here, once.
fn expand_chaos(glob: &mut Global, net: &mut Net, plan: ChaosPlan) {
    let insert = |glob: &mut Global, at: SimTime, action: GlobalAction| {
        glob.timeline_ord += 1;
        let ord = glob.timeline_ord;
        glob.timeline.insert((at, ord), action);
    };
    for ev in plan.events {
        match ev {
            ChaosEvent::LinkFlap {
                link,
                at,
                down_for,
                repeats,
                every,
            } => {
                let slot = glob.link_index.get(&link).copied();
                for k in 0..repeats as u64 {
                    // `.max(now)` keeps late-scheduled plans legal: an
                    // instant already in the past fires immediately
                    // instead of rewinding the clock. At boot `now` is
                    // zero, so pre-run plans expand exactly as authored.
                    let down_at = (at + every.saturating_mul(k)).max(glob.now);
                    glob.chaos_pending += 2;
                    insert(glob, down_at, GlobalAction::Link { slot, up: false });
                    insert(
                        glob,
                        down_at + down_for,
                        GlobalAction::Link { slot, up: true },
                    );
                }
            }
            ChaosEvent::KillRouting { node, at } => {
                glob.chaos_pending += 1;
                let target = net.interner.resolve_node(&node);
                insert(glob, at.max(glob.now), GlobalAction::Kill(target));
            }
            ChaosEvent::FailMachine { machine, at } => {
                glob.chaos_pending += 1;
                insert(glob, at.max(glob.now), GlobalAction::FailMachine(machine));
            }
            ChaosEvent::Impair {
                link,
                from,
                until,
                spec,
            } => {
                let w = net.impairments.len();
                if let Some(&slot) = glob.link_index.get(&link) {
                    if let Some(v) = net.link_impair.get_mut(slot) {
                        v.push(w);
                    }
                }
                // BGP impairment matches by node pair even when the
                // LinkId's interfaces don't name a physical link.
                if let (Some(a), Some(b)) = (
                    net.interner.resolve_node(&link.a.0),
                    net.interner.resolve_node(&link.b.0),
                ) {
                    let key = if a <= b { (a, b) } else { (b, a) };
                    net.pair_impair.entry(key).or_default().push(w);
                }
                net.impairments.push(ImpairWindow { from, until, spec });
            }
        }
    }
}

/// The watchdog's post-mortem when the time budget expires: prefixes that
/// kept changing right up to the end mean the network is *oscillating*,
/// not converging slowly.
fn oscillation_verdict(glob: &Global, sim: &EventLoop) -> ConvergenceVerdict {
    let window = glob.cfg.quiet_period.saturating_mul(4);
    let now = glob.now;
    let mut churning: Vec<(&Prefix, &VecDeque<SimTime>)> = sim
        .churn
        .iter()
        .filter(|(_, q)| {
            q.len() >= OSCILLATION_MIN_CHANGES
                && q.back().map(|t| now.since(*t) <= window).unwrap_or(false)
        })
        .collect();
    if churning.is_empty() {
        return ConvergenceVerdict::TimedOut;
    }
    // Flap period: mean inter-change interval of the most-churning prefix
    // (ties broken by prefix order — deterministic).
    churning.sort_by_key(|(p, q)| (std::cmp::Reverse(q.len()), **p));
    let period = match churning.first() {
        Some((_, q)) => match (q.front(), q.back()) {
            (Some(first), Some(last)) => SimDuration::from_millis(
                last.since(*first).as_millis() / (q.len() as u64 - 1).max(1),
            ),
            _ => SimDuration::ZERO,
        },
        None => SimDuration::ZERO,
    };
    let mut prefixes: Vec<Prefix> = churning.iter().map(|(p, _)| **p).collect();
    prefixes.sort();
    prefixes.truncate(ConvergenceVerdict::MAX_REPORTED_PREFIXES);
    ConvergenceVerdict::Oscillating { period, prefixes }
}

/// Runs the event loop from cut to cut up to `deadline`. Returns whether
/// the run converged (always `false` when `converge` is off — `run_until`
/// has no watchdog).
fn drive(
    glob: &mut Global,
    net: &Net,
    sim: &mut EventLoop,
    deadline: SimTime,
    converge: bool,
    mut wall: Option<&mut WallProgress>,
) -> bool {
    loop {
        match plan(glob, net, sim, deadline, converge) {
            Plan::Run(end) => {
                sim.run_to(net, end);
                settle(glob, sim, end, deadline);
                if let Some(wp) = wall.as_deref_mut() {
                    mark_wall(glob, wp);
                }
            }
            Plan::Converged(at) => {
                glob.now = glob.now.max(at);
                return true;
            }
            Plan::Done => return false,
        }
    }
}

/// One cut: fire due timeline actions, decide convergence, or pick the
/// instant the next run stops before.
fn plan(
    glob: &mut Global,
    net: &Net,
    sim: &mut EventLoop,
    deadline: SimTime,
    converge: bool,
) -> Plan {
    loop {
        let sim_due = sim.next_due();
        let glob_due = glob.timeline.keys().next().map(|&(t, _)| t);
        let t = [sim_due, glob_due].into_iter().flatten().min();
        let last_act = sim.last_activity;
        if converge {
            // The quiet rule is a pure function of processed content
            // (activity times, readiness, feed/chaos state) and the next
            // due instant.
            let quiescent = glob.ready.len()
                == glob.node_total.saturating_sub(glob.unschedulable.len())
                && sim.feeds_done == glob.ext_total
                && sim.pending_restarts == 0
                && glob.chaos_pending == 0
                && sim.chaos_in_flight == 0;
            let quiet_at = last_act + glob.cfg.quiet_period;
            if quiescent && quiet_at <= deadline && t.map(|t| quiet_at < t).unwrap_or(true) {
                return Plan::Converged(quiet_at);
            }
        }
        let Some(t) = t else {
            return Plan::Done;
        };
        if t > deadline {
            return Plan::Done;
        }
        if glob_due == Some(t) {
            // Fire every timeline action at exactly `t` (in plan order)
            // before any loop event at `t` — coordinator-origin events
            // sort first on the heap, so events scheduled here still
            // precede same-instant traffic.
            sim.advance_clock(t);
            while let Some((&(ti, ord), _)) = glob.timeline.iter().next() {
                if ti != t {
                    break;
                }
                if let Some(action) = glob.timeline.remove(&(ti, ord)) {
                    apply_global(glob, net, sim, t, action);
                }
            }
            glob.t_max = glob.t_max.max(t);
            continue; // new events and evictions changed the due picture
        }
        // Cut at the next timeline instant, just past the next pod-ready
        // instant during boot (so boot completion lands on its exact
        // instant), and — in converge mode — just past the earliest
        // possible convergence instant, so a converged run doesn't burn
        // sim-time to the cap.
        let next_glob = glob_due.map(|g| g.0).unwrap_or(u64::MAX);
        let boot_cut = if glob.boot_complete_at.is_none() {
            glob.pending_ready
                .values()
                .filter_map(|etas| etas.iter().next())
                .min()
                .map(|e| e.0.saturating_add(1))
                .unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        let quiet_cut = if converge {
            (last_act + glob.cfg.quiet_period).0.saturating_add(1)
        } else {
            u64::MAX
        };
        let end = deadline
            .0
            .saturating_add(1)
            .min(next_glob)
            .min(boot_cut)
            .min(quiet_cut)
            .max(t.0.saturating_add(1)); // always admit the due instant
        return Plan::Run(SimTime(end));
    }
}

/// Applies one timeline action at instant `t` (the loop's clock is already
/// advanced to `t`).
fn apply_global(
    glob: &mut Global,
    net: &Net,
    sim: &mut EventLoop,
    t: SimTime,
    action: GlobalAction,
) {
    sim.events_processed += 1;
    match action {
        GlobalAction::Link { slot, up } => {
            sim.tally.chaos_link += 1;
            glob.chaos_pending = glob.chaos_pending.saturating_sub(1);
            // Unknown links (slot None) are inert.
            let Some(slot) = slot else { return };
            let kind = if up {
                "chaos.link_up"
            } else {
                "chaos.link_down"
            };
            let detail = glob
                .links
                .get_mut(slot)
                .map(|rec| {
                    rec.up = up;
                    rec.id.to_string()
                })
                .unwrap_or_default();
            glob.journal.push(t, kind, detail);
            // The loop updates its link state and pokes the endpoint
            // routers when the event runs.
            sim.chaos_in_flight += 1;
            sim.schedule_global(t, EventKind::ChaosLink { slot, up });
        }
        GlobalAction::Kill(node) => {
            glob.chaos_pending = glob.chaos_pending.saturating_sub(1);
            match node {
                // Unknown node: inert, but still tallied as fired.
                None => sim.tally.chaos_kill += 1,
                Some(node) => {
                    sim.chaos_in_flight += 1;
                    sim.schedule_global(t, EventKind::ChaosKillRouter(node));
                }
            }
        }
        GlobalAction::FailMachine(name) => {
            sim.tally.chaos_fail_machine += 1;
            glob.chaos_pending = glob.chaos_pending.saturating_sub(1);
            let evicted = glob.cluster.fail_machine(&name);
            glob.journal.push(
                t,
                "chaos.fail_machine",
                format!("{name}: {} pods evicted", evicted.len()),
            );
            for req in evicted {
                // The pod (and its router) is gone; the scheduler
                // resubmits it onto surviving machines, and the usual
                // PodReady path boots a fresh instance.
                let Some(node) = net.interner.resolve_node(&req.pod) else {
                    continue;
                };
                sim.evict_node(node, t);
                glob.ready.remove(&node);
                let Some(profile) = net.profiles.get(node.index()).cloned() else {
                    continue;
                };
                match glob
                    .cluster
                    .schedule(&req, t, profile.boot_time, &mut glob.cluster_rng)
                {
                    Ok(placement) => {
                        glob.pending_ready
                            .entry(node)
                            .or_default()
                            .insert(placement.ready_at);
                        sim.schedule_global(placement.ready_at, EventKind::PodReady(node));
                    }
                    Err(e) => {
                        glob.unschedulable.push(e);
                    }
                }
            }
        }
    }
}

/// Post-run cut work: fold what the loop just did (feed completion, boot
/// readiness, churn) into the coordinator's view, at exact instants.
fn settle(glob: &mut Global, sim: &mut EventLoop, end: SimTime, deadline: SimTime) {
    glob.t_max = glob.t_max.max(sim.now());
    sim.advance_clock(SimTime(end.0.min(deadline.0)));
    // Boot readiness: every scheduled PodReady instant before the cut has
    // fired. Mark in (instant, node) order so boot completion lands on the
    // exact completing instant.
    let mut fired: Vec<(SimTime, NodeRef)> = Vec::new();
    for (&node, etas) in glob.pending_ready.iter_mut() {
        let (done, still): (BTreeSet<SimTime>, BTreeSet<SimTime>) =
            etas.iter().partition(|e| **e < end);
        for e in done {
            fired.push((e, node));
        }
        *etas = still;
    }
    glob.pending_ready.retain(|_, etas| !etas.is_empty());
    fired.sort();
    for (eta, node) in fired {
        glob.ready.insert(node);
        if glob.ready.len() == glob.node_total && glob.boot_complete_at.is_none() {
            glob.boot_complete_at = Some(eta);
            glob.journal.push(
                eta,
                "engine.boot_complete",
                format!("{} pods ready", glob.ready.len()),
            );
            if glob.cfg.inject_after_boot {
                sim.activate_feeds(SimTime(eta.0 + 1_000));
            }
        }
    }
    // Flood completion: the exact instant the last feed drained (clamped
    // to boot completion, which gates activation in the first place).
    if glob.boot_complete_at.is_some()
        && glob.feeds_done_at.is_none()
        && glob.ext_total > 0
        && sim.feeds_done == glob.ext_total
    {
        if let Some(boot_at) = glob.boot_complete_at {
            let at = boot_at.max(sim.last_feed_done);
            glob.feeds_done_at = Some(at);
            glob.journal
                .push(at, "engine.flood_complete", "external feeds drained");
        }
    }
    // Steady-state churn gate. Until boot and feed flooding both complete,
    // buffered change records are pre-convergence noise and are dropped.
    // The cut that first knows the steady instant announces it to the loop
    // and folds the records buffered so far (which may already contain
    // steady-state changes); from then on the loop folds its own records
    // at each run end.
    if !glob.churn_gate_set {
        match glob.boot_complete_at {
            Some(boot_at) if sim.feeds_done == glob.ext_total => {
                glob.churn_gate_set = true;
                sim.churn_from = Some(boot_at.max(sim.last_feed_done));
                sim.fold_churn();
            }
            _ => sim.churn_buf.clear(),
        }
    }
}

/// Wall-clock phase splits for `run_until_converged`, checked after each
/// cut (the only reader of the real clock; lands in the quarantined `wall`
/// obs section).
fn mark_wall(glob: &mut Global, wp: &mut WallProgress) {
    if !wp.boot_done && glob.boot_complete_at.is_some() {
        wp.boot_done = true;
        let us = wp.timer.elapsed_micros();
        glob.wall.add_phase("boot", us.saturating_sub(wp.mark));
        wp.mark = us;
    }
    if wp.boot_done && !wp.flood_done && glob.feeds_done_at.is_some() {
        wp.flood_done = true;
        let us = wp.timer.elapsed_micros();
        glob.wall.add_phase("flood", us.saturating_sub(wp.mark));
        wp.mark = us;
    }
}
