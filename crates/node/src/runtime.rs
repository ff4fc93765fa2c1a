//! The distributed runtime: per-node actors over the event-driven fabric.
//!
//! [`MeshRuntime`] owns one [`MeshNode`] per router and a single
//! [`EventQueue`] that plays the role of the shared radio medium. All
//! node behaviour is message-driven: a node acts when the queue hands it
//! a frame that survived the [`Fabric`], or when one of the standard's
//! periodic processes fires (a beacon round, a control-subframe
//! opportunity, a frame boundary). Nothing reads another node's state.
//!
//! The control plane per mesh frame:
//!
//! * **beacon rounds** — every resync interval the gateway stamps and
//!   floods a beacon; each node accepts the first copy it hears per
//!   round, corrects its [`wimesh_emu::DriftClock`] (accumulating one
//!   hop of timestamping error, exactly the `emu::sync` model) and
//!   relays it once. Hearing *any* frame from a neighbour also refreshes
//!   that neighbour's liveness watch.
//! * **failure detection** — a neighbour silent for
//!   [`RuntimeConfig::miss_threshold`] beacon rounds is declared dead:
//!   the detector purges its reservations
//!   ([`DschNode::purge_links_of`](wimesh_mac80216::protocol::DschNode::purge_links_of))
//!   and floods a `NodeDown` report. When the report reaches the
//!   gateway, the attached [`RepairController`] releases/re-routes the
//!   dead node's flows through `QosSession` and the runtime feeds the
//!   resulting demand diff back into the surviving endpoints, which
//!   renegotiate slots over the air. Hearing a dead-listed neighbour
//!   again floods `NodeUp` and restores parked flows.
//! * **reservations** — nodes compete for control opportunities with the
//!   802.16 mesh election; winners broadcast their pending MSH-DSCH
//!   bundle. Handshakes stalled by loss re-request every
//!   [`RuntimeConfig::rerequest_frames`] frames.
//!
//! At every frame boundary the runtime plays the **data plane**: each
//! confirmed reservation transmits in its minislot range *at the time
//! the owner's drifting clock believes the range starts*. Two
//! conflicting transmissions whose true on-air intervals overlap are a
//! **collision** — by construction this cannot happen while every pair
//! of transmitters is mutually synchronised within the guard time, and
//! the runtime verifies it frame by frame. It also checks every admitted
//! flow's reservation against the flow's promise and records the result
//! in the runtime's own SLO ledger ([`MeshRuntime::slo`]), sink or none.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh_emu::EmulationModel;
use wimesh_mac80216::election::MeshElection;
use wimesh_mac80216::protocol::links_conflict;
use wimesh_mac80216::DschMessage;
use wimesh_obs::flight::FlightEvent;
use wimesh_obs::slo::FlowSloTracker;
use wimesh_obs::trace::{TraceCtx, TraceEvent};
use wimesh_sim::{EventQueue, SimTime};
use wimesh_topology::routing::Path;
use wimesh_topology::{LinkId, MeshTopology, NodeId};

use crate::fabric::{Fabric, FabricConfig, FabricStats};
use crate::node::MeshNode;
use crate::repair::RepairController;
use crate::NodeError;

/// Over-the-air frames exchanged by nodes. The sender is implied by the
/// directed link each copy is delivered over.
#[derive(Debug, Clone)]
enum AirFrame {
    /// A sync beacon: round number, tree depth of the sender, and the
    /// sender's accumulated timestamping error.
    Beacon { round: u64, depth: u32, err_ns: f64 },
    /// An MSH-DSCH schedule-control bundle.
    Dsch(DschMessage),
    /// Flooded failure report.
    NodeDown(NodeId),
    /// Flooded recovery report.
    NodeUp(NodeId),
}

impl AirFrame {
    /// The trace-event kind of a transmission carrying this frame. DSCH
    /// bundles are classified by the information elements they carry,
    /// so a request→grant→confirm handshake reads off the trace tree.
    fn trace_kind(&self) -> &'static str {
        match self {
            AirFrame::Beacon { .. } => "beacon",
            AirFrame::Dsch(msg) => match (
                !msg.requests.is_empty(),
                !msg.grants.is_empty(),
                !msg.confirms.is_empty(),
            ) {
                (true, false, false) => "dsch.req",
                (false, true, false) => "dsch.grant",
                (false, false, true) => "dsch.cnf",
                (true, true, false) => "dsch.req+grant",
                (true, false, true) => "dsch.req+cnf",
                (false, true, true) => "dsch.grant+cnf",
                (true, true, true) => "dsch.req+grant+cnf",
                (false, false, false) => {
                    if msg.cancels.is_empty() {
                        "dsch.adv"
                    } else {
                        "dsch.cancel"
                    }
                }
            },
            AirFrame::NodeDown(_) => "node.down",
            AirFrame::NodeUp(_) => "node.up",
        }
    }

    /// Flight-recorder kind for a transmission of this frame.
    fn tx_kind(&self) -> &'static str {
        match self {
            AirFrame::Beacon { .. } => "tx.beacon",
            AirFrame::Dsch(_) => "tx.dsch",
            AirFrame::NodeDown(_) => "tx.down",
            AirFrame::NodeUp(_) => "tx.up",
        }
    }

    /// Flight-recorder kind for a reception of this frame.
    fn rx_kind(&self) -> &'static str {
        match self {
            AirFrame::Beacon { .. } => "rx.beacon",
            AirFrame::Dsch(_) => "rx.dsch",
            AirFrame::NodeDown(_) => "rx.down",
            AirFrame::NodeUp(_) => "rx.up",
        }
    }

    /// Kind-specific flight payload word: the beacon round, the DSCH
    /// information-element count, or the reported node.
    fn flight_payload(&self) -> u64 {
        match self {
            AirFrame::Beacon { round, .. } => *round,
            AirFrame::Dsch(msg) => {
                (msg.requests.len() + msg.grants.len() + msg.confirms.len() + msg.cancels.len())
                    as u64
            }
            AirFrame::NodeDown(n) | AirFrame::NodeUp(n) => u64::from(n.0),
        }
    }
}

/// Queue events: frame deliveries plus the standard's periodic processes.
#[derive(Debug)]
enum Event {
    BeaconRound(u64),
    Opportunity {
        frame: u64,
        index: u32,
    },
    FrameBoundary(u64),
    Deliver {
        to: NodeId,
        link: LinkId,
        frame: AirFrame,
        /// Causal trace context carried with the frame; every fabric
        /// send attaches one (a `Deliver` literal without it is E0063).
        ctx: TraceCtx,
    },
}

/// Runtime parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// The message fabric (loss, delay, cuts).
    pub fabric: FabricConfig,
    /// The sync root and seat of the admission controller.
    pub gateway: NodeId,
    /// Beacon rounds a neighbour may stay silent before being declared
    /// dead. Must be at least 1; raise it on lossy fabrics.
    pub miss_threshold: u32,
    /// Frames between re-requests of unconfirmed demands (loss
    /// recovery of stalled handshakes).
    pub rerequest_frames: u64,
    /// Seed of the runtime's single RNG (drift draws, timestamping
    /// noise, fabric faults). Identical seeds replay identical runs.
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            fabric: FabricConfig::default(),
            gateway: NodeId(0),
            miss_threshold: 3,
            rerequest_frames: 8,
            seed: 0,
        }
    }
}

/// Counters of one [`MeshRuntime::run_for`] segment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentReport {
    /// Mesh frames elapsed.
    pub frames: u64,
    /// Beacon broadcasts (gateway emissions + relays).
    pub beacons_sent: u64,
    /// Beacon deliveries dropped by the fabric.
    pub beacons_lost: u64,
    /// MSH-DSCH broadcasts.
    pub dsch_sent: u64,
    /// MSH-DSCH deliveries dropped by the fabric.
    pub dsch_lost: u64,
    /// Handshakes re-requested after stalling (loss recovery).
    pub rerequests: u64,
    /// Beacons accepted (clock corrections applied).
    pub resyncs: u64,
    /// Node deaths the gateway learned of.
    pub failures_detected: u64,
    /// Node recoveries the gateway learned of.
    pub recoveries_detected: u64,
    /// Flows the repair controller re-admitted (re-routes + restores).
    pub reservations_repaired: u64,
    /// Pairs of conflicting reservations whose true on-air intervals
    /// overlapped (guard-time violations or unresolved double grants).
    pub collisions: u64,
    /// Largest mutual clock error observed between two synced, alive
    /// nodes at any frame boundary.
    pub max_mutual_error: Duration,
    /// Time from segment start until every node that had to (re)acquire
    /// sync had accepted a beacon. `None` if nothing needed syncing, or
    /// it did not happen within the segment.
    pub time_to_sync: Option<Duration>,
    /// Time from segment start until every alive node's demands were
    /// confirmed. `None` if nothing needed converging, or convergence
    /// was not reached within the segment.
    pub time_to_converge: Option<Duration>,
    /// Time from the (first) injected crash until the gateway learned of
    /// it.
    pub detection_latency: Option<Duration>,
    /// Whether every alive node's demands were confirmed at segment end.
    pub converged: bool,
}

/// The per-node distributed mesh runtime. See the [module docs](self).
pub struct MeshRuntime {
    topo: MeshTopology,
    model: EmulationModel,
    config: RuntimeConfig,
    election: MeshElection,
    nodes: Vec<MeshNode>,
    fabric: Fabric,
    queue: EventQueue<Event>,
    rng: StdRng,
    repair: Option<RepairController>,
    /// Demands currently pushed into the endpoints (tx-side view).
    desired: BTreeMap<LinkId, u32>,
    /// Per-node liveness-watch baseline (boot or restart instant).
    watch_start: Vec<SimTime>,
    /// Reference instants of injected crashes, for detection latency.
    crash_times: BTreeMap<NodeId, SimTime>,
    /// End of the last completed segment (virtual time cursor).
    cursor: SimTime,
    segment: SegmentReport,
    /// Nodes that still need to accept a beacon this segment.
    sync_pending: BTreeSet<NodeId>,
    sync_tracked: bool,
    converge_tracked: bool,
    /// Trace span-id counter, namespaced by the run seed so ids never
    /// collide across concurrently traced runtimes in one process.
    next_span: u64,
    /// `(node, reason)` pairs already flight-dumped this segment
    /// (rate limit: one dump per node and reason per segment).
    flight_dumped: BTreeSet<(u32, &'static str)>,
    /// Per-flow SLO ledger of the repair session's admitted flows,
    /// observed every frame (sink or none).
    slo: FlowSloTracker,
    /// The route each flow in `slo` was promised on.
    slo_routes: BTreeMap<u64, Path>,
}

impl MeshRuntime {
    /// Builds the runtime: one node per router with a drift drawn
    /// uniformly from the model's `±drift_ppm`, and the periodic
    /// processes scheduled from time zero.
    ///
    /// # Errors
    ///
    /// [`NodeError::Config`] for an unknown gateway, a zero
    /// `miss_threshold` or `rerequest_frames`, or an invalid fabric
    /// configuration.
    pub fn new(
        topo: MeshTopology,
        model: EmulationModel,
        config: RuntimeConfig,
    ) -> Result<Self, NodeError> {
        if topo.node(config.gateway).is_none() {
            return Err(NodeError::Config(format!(
                "gateway {} is not in the topology",
                config.gateway
            )));
        }
        if config.miss_threshold == 0 {
            return Err(NodeError::Config(
                "miss_threshold must be at least 1 beacon round".into(),
            ));
        }
        if config.rerequest_frames == 0 {
            return Err(NodeError::Config(
                "rerequest_frames must be at least 1".into(),
            ));
        }
        let fabric = Fabric::new(config.fabric)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let drift = model.params().clock.drift_ppm;
        let nodes: Vec<MeshNode> = topo
            .node_ids()
            .map(|id| MeshNode::new(id, rng.gen_range(-drift..=drift)))
            .collect();
        let election = MeshElection::new(&topo);
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Event::BeaconRound(0));
        let frame = model.mesh_frame();
        for i in 0..frame.ctrl_opportunities {
            queue.schedule(
                SimTime::ZERO + frame.ctrl_opportunity_duration * i,
                Event::Opportunity { frame: 0, index: i },
            );
        }
        queue.schedule(
            SimTime::ZERO + frame.frame_duration(),
            Event::FrameBoundary(0),
        );
        let n = topo.node_count();
        Ok(Self {
            topo,
            model,
            config,
            election,
            nodes,
            fabric,
            queue,
            rng,
            repair: None,
            desired: BTreeMap::new(),
            watch_start: vec![SimTime::ZERO; n],
            crash_times: BTreeMap::new(),
            cursor: SimTime::ZERO,
            segment: SegmentReport::default(),
            sync_pending: BTreeSet::new(),
            sync_tracked: false,
            converge_tracked: false,
            next_span: config.seed.wrapping_shl(32),
            flight_dumped: BTreeSet::new(),
            slo: FlowSloTracker::new(),
            slo_routes: BTreeMap::new(),
        })
    }

    /// Attaches the gateway's repair controller (a [`RepairController`]
    /// around a `QosSession`, typically with the initial flow set
    /// already admitted) and pushes its demands into the endpoints.
    pub fn attach_controller(&mut self, controller: RepairController) {
        self.repair = Some(controller);
        self.apply_desired_demands();
    }

    /// The attached repair controller, if any.
    pub fn controller(&self) -> Option<&RepairController> {
        self.repair.as_ref()
    }

    /// The SLO ledger: one frame observation per admitted flow and
    /// frame boundary. A flow released and re-admitted on another route
    /// starts a fresh history; one released for good leaves the ledger.
    pub fn slo(&self) -> &FlowSloTracker {
        &self.slo
    }

    /// The node states (read-only).
    pub fn nodes(&self) -> &[MeshNode] {
        &self.nodes
    }

    /// The fabric, for fault injection between segments (cuts and
    /// partitions).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The fabric's lifetime delivery counters.
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// The emulation capacity model the runtime was built with.
    pub fn model(&self) -> &EmulationModel {
        &self.model
    }

    /// Current virtual time (end of the last completed segment).
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// Crashes a node: all volatile state is lost; survivors will
    /// declare it dead once its silence exceeds the miss threshold.
    pub fn crash(&mut self, node: NodeId) {
        self.nodes[node.index()].crash();
        self.crash_times.insert(node, self.cursor);
    }

    /// Restarts a crashed node with empty state; it must reacquire sync
    /// and reservations over the air.
    pub fn restart(&mut self, node: NodeId) {
        self.nodes[node.index()].restart();
        self.watch_start[node.index()] = self.cursor;
    }

    /// Whether every alive node's demands are confirmed and no endpoint
    /// has corrective messages pending.
    pub fn converged(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .all(|n| n.dsch.is_satisfied())
    }

    /// Runs the event loop for `duration` of virtual time and returns
    /// the segment's counters. Fault injection between segments
    /// ([`MeshRuntime::crash`], [`MeshRuntime::fabric_mut`]) composes
    /// into scenarios.
    pub fn run_for(&mut self, duration: Duration) -> SegmentReport {
        let end = self.cursor + duration;
        self.segment = SegmentReport::default();
        self.flight_dumped.clear();
        self.sync_pending = self
            .nodes
            .iter()
            .filter(|n| n.alive && n.synced_round.is_none())
            .map(MeshNode::id)
            .collect();
        self.sync_tracked = !self.sync_pending.is_empty();
        self.converge_tracked = !self.converged();
        let segment_start = self.cursor;

        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked");
            self.handle(now, event, segment_start);
        }
        self.cursor = end;
        self.segment.converged = self.converged();
        self.publish_obs();
        self.segment
    }

    fn handle(&mut self, now: SimTime, event: Event, segment_start: SimTime) {
        match event {
            Event::BeaconRound(round) => self.on_beacon_round(now, round, segment_start),
            Event::Opportunity { frame, index } => self.on_opportunity(now, frame, index),
            Event::FrameBoundary(frame) => self.on_frame_boundary(now, frame, segment_start),
            Event::Deliver {
                to,
                link,
                frame,
                ctx,
            } => {
                self.on_deliver(now, to, link, frame, ctx, segment_start);
            }
        }
    }

    /// One sync round: sweep every node's liveness watch, then let the
    /// gateway stamp and flood the round's beacon.
    fn on_beacon_round(&mut self, now: SimTime, round: u64, segment_start: SimTime) {
        let interval = self.model.params().clock.resync_interval;
        self.queue
            .schedule(now + interval, Event::BeaconRound(round + 1));

        // Failure detection: each node checks its own watch. Purely
        // local — `heard` holds only what this node itself received.
        let silence = interval * self.config.miss_threshold;
        for id in 0..self.nodes.len() {
            let me = NodeId(id as u32);
            if !self.nodes[id].alive {
                continue;
            }
            let neighbours: Vec<NodeId> = self.topo.neighbors(me).collect();
            for nb in neighbours {
                if self.nodes[id].known_dead.contains(&nb) {
                    continue;
                }
                let last = self.nodes[id]
                    .heard
                    .get(&nb)
                    .copied()
                    .unwrap_or(self.watch_start[id]);
                if now.saturating_since(last) >= silence {
                    // Local detection starts a fresh repair trace.
                    self.node_learns_down(now, me, nb, None);
                }
            }
        }

        // The gateway stamps and floods this round's beacon.
        let gw = self.config.gateway;
        if self.nodes[gw.index()].alive {
            let node = &mut self.nodes[gw.index()];
            node.clock.sync_at(now, 0.0);
            node.synced_round = Some(round);
            node.sync_depth = 0;
            node.resyncs += 1;
            self.segment.resyncs += 1;
            self.note_synced(now, gw, segment_start);
            // The gateway's stamp roots the round's beacon-flood trace.
            let ctx = self.mint_ctx(gw, None);
            self.broadcast(
                now,
                gw,
                AirFrame::Beacon {
                    round,
                    depth: 0,
                    err_ns: 0.0,
                },
                ctx,
            );
        }
    }

    /// One control opportunity: mesh-election winners broadcast their
    /// pending MSH-DSCH bundles.
    fn on_opportunity(&mut self, now: SimTime, frame: u64, index: u32) {
        let per_frame = self.model.mesh_frame().ctrl_opportunities;
        let opportunity = (frame * u64::from(per_frame) + u64::from(index)) as u32;
        let slots = self.model.frame().slots();
        let winners: Vec<NodeId> = self
            .election
            .winners(opportunity)
            .into_iter()
            .filter(|&w| {
                let n = &self.nodes[w.index()];
                // A node transmits only once synced: network entry
                // requires beacon lock, and an unsynced transmitter
                // would defeat the guard-time argument.
                n.alive && n.synced_round.is_some() && n.dsch.has_pending_traffic()
            })
            .collect();
        for winner in winners {
            let Some(msg) = self.nodes[winner.index()].dsch.poll(&self.topo, slots) else {
                continue;
            };
            // A bundle answering something (grants, confirms, cancels)
            // continues the handshake trace of the last DSCH bundle this
            // node received; a pure request starts its own. With
            // interleaved handshakes at one node this approximation can
            // misparent (see DESIGN §3.11), but the Lamport order along
            // every edge stays correct.
            let responsive =
                !msg.grants.is_empty() || !msg.confirms.is_empty() || !msg.cancels.is_empty();
            let parent = if responsive {
                self.nodes[winner.index()].last_dsch_ctx
            } else {
                None
            };
            let ctx = self.mint_ctx(winner, parent);
            self.broadcast(now, winner, AirFrame::Dsch(msg), ctx);
        }
    }

    /// End of a data subframe: play the data plane and count collisions,
    /// then schedule the next frame's control processes.
    fn on_frame_boundary(&mut self, now: SimTime, frame: u64, segment_start: SimTime) {
        let mesh_frame = self.model.mesh_frame();
        self.queue.schedule(
            now + mesh_frame.frame_duration(),
            Event::FrameBoundary(frame + 1),
        );
        for i in 0..mesh_frame.ctrl_opportunities {
            self.queue.schedule(
                now + mesh_frame.ctrl_opportunity_duration * i,
                Event::Opportunity {
                    frame: frame + 1,
                    index: i,
                },
            );
        }
        self.segment.frames += 1;

        // Loss recovery: periodically restart handshakes that lost a
        // request or grant in flight, and re-advertise own reservations
        // so conflicting double bookings (both halves confirmed, the
        // warning broadcasts lost) eventually resolve.
        if frame % self.config.rerequest_frames == self.config.rerequest_frames - 1 {
            for n in &mut self.nodes {
                if n.alive && n.synced_round.is_some() {
                    self.segment.rerequests += n.dsch.re_request_unconfirmed() as u64;
                    n.dsch.advertise_schedule();
                }
            }
        }

        self.measure_collisions(now, segment_start);
        self.observe_flow_slo();
    }

    /// The data plane of the frame that just ended at `now`: each
    /// confirmed reservation went on air when its owner's clock said so.
    /// Conflicting transmissions whose true intervals overlapped
    /// collided.
    fn measure_collisions(&mut self, now: SimTime, segment_start: SimTime) {
        let mesh_frame = self.model.mesh_frame();
        let ctrl_ns = mesh_frame.ctrl_duration().as_nanos() as f64;
        let slot_ns = (mesh_frame.data.slot_duration_us() * 1_000) as f64;
        let guard_ns = self.model.guard_time().as_nanos() as f64;

        // On-air intervals of every transmission this frame, in
        // reference time relative to the frame start. A node acting when
        // its local clock reads X really acts at reference X − err, so
        // only the *transmitter's* clock error shifts a burst.
        let mut bursts: Vec<(LinkId, f64, f64)> = Vec::new();
        let mut errors: Vec<(NodeId, f64)> = Vec::new();
        let mut anomalies: Vec<(NodeId, &'static str)> = Vec::new();
        for n in &self.nodes {
            if !n.alive || n.synced_round.is_none() {
                continue;
            }
            let err = n.clock.error_at(now);
            errors.push((n.id(), err));
            for (&link, range) in n.dsch.confirmed() {
                if self.topo.link(link).expect("confirmed links exist").tx != n.id() {
                    continue;
                }
                let local_start = ctrl_ns + f64::from(range.start) * slot_ns;
                let local_end = ctrl_ns + f64::from(range.end()) * slot_ns - guard_ns;
                bursts.push((link, local_start - err, local_end - err));
            }
        }

        for (i, &(la, sa, ea)) in bursts.iter().enumerate() {
            let link_a = *self.topo.link(la).expect("confirmed links exist");
            for &(lb, sb, eb) in &bursts[i + 1..] {
                let link_b = *self.topo.link(lb).expect("confirmed links exist");
                if !links_conflict(&self.topo, &link_a, &link_b) {
                    continue;
                }
                if sa < eb && sb < ea {
                    self.segment.collisions += 1;
                    anomalies.push((link_a.tx, "collision"));
                    anomalies.push((link_b.tx, "collision"));
                }
            }
        }

        let guard = self.model.guard_time();
        for (i, &(na, a)) in errors.iter().enumerate() {
            for &(nb, b) in &errors[i + 1..] {
                let mutual = Duration::from_nanos((a - b).abs() as u64);
                if mutual > self.segment.max_mutual_error {
                    self.segment.max_mutual_error = mutual;
                }
                if mutual > guard {
                    anomalies.push((na, "guard.exceeded"));
                    anomalies.push((nb, "guard.exceeded"));
                }
            }
        }
        for (node, reason) in anomalies {
            self.flight_dump(now, node, reason);
        }

        if self.converge_tracked && self.segment.time_to_converge.is_none() && self.converged() {
            self.segment.time_to_converge = Some(now.saturating_since(segment_start));
        }
    }

    /// Audits every admitted flow's reservation against its promise for
    /// the frame that just ended: each link on the flow's path must hold
    /// a confirmed range covering the pushed demand, from an alive
    /// transmitter.
    ///
    /// The ledger is first reconciled with the session's admitted set,
    /// keyed by flow id and route, which also picks up flows admitted
    /// before the controller was attached: a flow no longer admitted
    /// leaves it, and a new flow or one re-admitted on another route
    /// (a re-route or a restore releases it first) is promised afresh.
    fn observe_flow_slo(&mut self) {
        let Some(repair) = self.repair.as_ref() else {
            return;
        };
        let admitted = repair.session().snapshot().admitted();
        let (slo, routes) = (&mut self.slo, &mut self.slo_routes);
        routes.retain(|&id, _| {
            let kept = admitted.iter().any(|f| u64::from(f.spec.id.0) == id);
            if !kept {
                slo.withdraw(id);
            }
            kept
        });
        for flow in admitted {
            let id = u64::from(flow.spec.id.0);
            if routes.get(&id) != Some(&flow.path) {
                slo.withdraw(id);
                slo.promise(id, flow.slots_per_link, flow.spec.deadline);
                routes.insert(id, flow.path.clone());
            }
            let satisfied = flow.path.links().iter().all(|&l| {
                let tx = self.topo.link(l).expect("session links exist").tx;
                let demand = self.desired.get(&l).copied().unwrap_or(0);
                let node = &self.nodes[tx.index()];
                node.alive
                    && node
                        .dsch
                        .confirmed()
                        .get(&l)
                        .map_or(demand == 0, |r| r.len >= demand)
            });
            slo.observe_frame(id, satisfied);
        }
    }

    /// One surviving delivery reaching `to` over `link`.
    fn on_deliver(
        &mut self,
        now: SimTime,
        to: NodeId,
        link: LinkId,
        frame: AirFrame,
        ctx: TraceCtx,
        segment_start: SimTime,
    ) {
        if !self.nodes[to.index()].alive {
            return;
        }
        let sender = self.topo.link(link).expect("fabric links exist").tx;
        {
            // Lamport receive rule, then log the reception in the ring.
            // Any frame heard also refreshes the sender's liveness watch.
            let n = &mut self.nodes[to.index()];
            n.lamport = n.lamport.max(ctx.lamport) + 1;
            n.heard.insert(sender, now);
            n.flight.record(FlightEvent {
                t_ns: now.as_nanos(),
                lamport: n.lamport,
                kind: frame.rx_kind(),
                a: u64::from(sender.0),
                b: ctx.span_id,
            });
        }
        // A frame from a dead-listed neighbour resurrects it; the
        // recovery flood continues this frame's trace.
        if self.nodes[to.index()].known_dead.contains(&sender) {
            self.node_learns_up(now, to, sender, Some(ctx));
        }

        match frame {
            AirFrame::Beacon {
                round,
                depth,
                err_ns,
            } => {
                // First copy of a newer round wins (flood dedup);
                // `None < Some(_)` covers the never-synced case.
                if self.nodes[to.index()].synced_round < Some(round) {
                    let ts = self.model.params().clock.timestamp_error.as_nanos() as f64;
                    let hop_err = if ts > 0.0 {
                        self.rng.gen_range(-ts..=ts)
                    } else {
                        0.0
                    };
                    let residual = err_ns + hop_err;
                    let n = &mut self.nodes[to.index()];
                    n.clock.sync_at(now, residual);
                    n.synced_round = Some(round);
                    n.sync_depth = depth + 1;
                    n.resyncs += 1;
                    self.segment.resyncs += 1;
                    self.note_synced(now, to, segment_start);
                    // The relay is a child of the beacon it heard: the
                    // flood reads off the trace tree hop by hop.
                    let relay_ctx = self.mint_ctx(to, Some(ctx));
                    self.broadcast(
                        now,
                        to,
                        AirFrame::Beacon {
                            round,
                            depth: depth + 1,
                            err_ns: residual,
                        },
                        relay_ctx,
                    );
                }
            }
            AirFrame::Dsch(msg) => {
                let slots = self.model.frame().slots();
                let n = &mut self.nodes[to.index()];
                // The next responsive bundle this node sends parents on
                // this context, chaining the handshake into one trace.
                n.last_dsch_ctx = Some(ctx);
                n.dsch.receive(&self.topo, &msg, slots);
            }
            AirFrame::NodeDown(dead) => {
                if dead != to {
                    self.node_learns_down(now, to, dead, Some(ctx));
                }
            }
            AirFrame::NodeUp(who) => {
                self.node_learns_up(now, to, who, Some(ctx));
            }
        }
    }

    /// `learner` concludes (or is told) that `dead` is down. First
    /// knowledge purges reservations, floods the report onward and — at
    /// the gateway — triggers schedule repair. `cause` is the trace
    /// context the knowledge arrived on (`None` for local detection,
    /// which roots a fresh repair trace).
    fn node_learns_down(
        &mut self,
        now: SimTime,
        learner: NodeId,
        dead: NodeId,
        cause: Option<TraceCtx>,
    ) {
        if !self.nodes[learner.index()].known_dead.insert(dead) {
            return;
        }
        self.nodes[learner.index()]
            .dsch
            .purge_links_of(&self.topo, dead);
        let ctx = self.mint_ctx(learner, cause);
        self.broadcast(now, learner, AirFrame::NodeDown(dead), ctx);
        if learner == self.config.gateway {
            self.segment.failures_detected += 1;
            if self.segment.detection_latency.is_none() {
                if let Some(crashed_at) = self.crash_times.get(&dead).copied() {
                    self.segment.detection_latency = Some(now.saturating_since(crashed_at));
                }
            }
            if let Some(mut repair) = self.repair.take() {
                if let Ok(out) = repair.on_node_down(&self.topo, dead) {
                    self.segment.reservations_repaired += out.rerouted + out.restored;
                    if out.rerouted + out.restored > 0 {
                        // The gateway's ring holds the control-plane
                        // conversation that preceded the re-route.
                        self.flight_dump(now, learner, "flow.reroute");
                    }
                }
                self.repair = Some(repair);
                self.apply_desired_demands();
                self.converge_tracked = true;
            }
        }
    }

    /// `learner` heard from (or is told about) a previously dead-listed
    /// node. First knowledge floods the recovery; at the gateway it
    /// restores parked flows. `cause` chains the recovery flood to the
    /// frame that carried the evidence.
    fn node_learns_up(
        &mut self,
        now: SimTime,
        learner: NodeId,
        who: NodeId,
        cause: Option<TraceCtx>,
    ) {
        if !self.nodes[learner.index()].known_dead.remove(&who) {
            return;
        }
        let ctx = self.mint_ctx(learner, cause);
        self.broadcast(now, learner, AirFrame::NodeUp(who), ctx);
        if learner == self.config.gateway {
            self.segment.recoveries_detected += 1;
            self.crash_times.remove(&who);
            if let Some(mut repair) = self.repair.take() {
                if let Ok(out) = repair.on_node_up(&self.topo, who) {
                    self.segment.reservations_repaired += out.rerouted + out.restored;
                }
                self.repair = Some(repair);
                self.apply_desired_demands();
                self.converge_tracked = true;
            }
        }
    }

    fn note_synced(&mut self, now: SimTime, node: NodeId, segment_start: SimTime) {
        if !self.sync_tracked || self.segment.time_to_sync.is_some() {
            return;
        }
        self.sync_pending.remove(&node);
        if self.sync_pending.is_empty() {
            self.segment.time_to_sync = Some(now.saturating_since(segment_start));
        }
    }

    /// Mints the trace context for a transmission by `from`: bumps the
    /// node's Lamport clock (send rule) and allocates a fresh span id.
    /// Runs unconditionally, sink or none, so traced and untraced runs
    /// of the same seed replay identically.
    fn mint_ctx(&mut self, from: NodeId, parent: Option<TraceCtx>) -> TraceCtx {
        self.next_span += 1;
        let node = &mut self.nodes[from.index()];
        node.lamport += 1;
        match parent {
            Some(p) => p.child(self.next_span, node.lamport),
            None => TraceCtx::root(self.next_span, node.lamport),
        }
    }

    /// Dumps `node`'s flight ring for `reason`, at most once per
    /// `(node, reason)` pair per segment so anomaly storms stay bounded.
    fn flight_dump(&mut self, now: SimTime, node: NodeId, reason: &'static str) {
        if !wimesh_obs::is_enabled() {
            return;
        }
        if !self.flight_dumped.insert((node.0, reason)) {
            return;
        }
        wimesh_obs::flight::dump(
            u64::from(node.0),
            reason,
            now.as_nanos(),
            &self.nodes[node.index()].flight,
        );
        wimesh_obs::counter_inc("node.flight.dumps");
    }

    /// Broadcasts one frame from `from` to each radio neighbour through
    /// the fabric, independently per directed link. `ctx` is the trace
    /// context minted for this transmission; every delivered copy
    /// carries it.
    fn broadcast(&mut self, now: SimTime, from: NodeId, frame: AirFrame, ctx: TraceCtx) {
        match &frame {
            AirFrame::Beacon { .. } => self.segment.beacons_sent += 1,
            AirFrame::Dsch(_) => self.segment.dsch_sent += 1,
            _ => {}
        }
        // One trace event per transmission, however many directed
        // copies the fabric fans it into (gated inside `emit`).
        wimesh_obs::trace::emit(&TraceEvent {
            ctx,
            kind: frame.trace_kind(),
            node: u64::from(from.0),
            t_ns: now.as_nanos(),
        });
        self.nodes[from.index()].flight.record(FlightEvent {
            t_ns: now.as_nanos(),
            lamport: ctx.lamport,
            kind: frame.tx_kind(),
            a: frame.flight_payload(),
            b: ctx.span_id,
        });
        let neighbours: Vec<(NodeId, LinkId)> = self
            .topo
            .neighbors(from)
            .filter_map(|nb| self.topo.link_between(from, nb).map(|l| (nb, l)))
            .collect();
        for (nb, link) in neighbours {
            match self.fabric.deliver(link, &mut self.rng) {
                Some(delay) => self.queue.schedule(
                    now + delay,
                    Event::Deliver {
                        to: nb,
                        link,
                        frame: frame.clone(),
                        ctx,
                    },
                ),
                None => match &frame {
                    AirFrame::Beacon { .. } => self.segment.beacons_lost += 1,
                    AirFrame::Dsch(_) => self.segment.dsch_lost += 1,
                    _ => {}
                },
            }
        }
    }

    /// Diffs the repair controller's desired per-link demands against
    /// what the endpoints currently hold and applies the difference.
    /// (Demand *distribution* is modelled as reliable out-of-band
    /// signalling — centralised MSH-CSCH in the standard; the slot
    /// negotiation itself still runs over the lossy fabric.)
    fn apply_desired_demands(&mut self) {
        let Some(repair) = self.repair.as_ref() else {
            return;
        };
        let new = repair.desired_demands();
        let all_links: BTreeSet<LinkId> = self.desired.keys().chain(new.keys()).copied().collect();
        for link in all_links {
            let tx = self.topo.link(link).expect("session links exist").tx;
            let node = &mut self.nodes[tx.index()];
            if !node.alive {
                continue;
            }
            match new.get(&link) {
                Some(&d) => node.dsch.set_demand(&self.topo, link, d),
                None => {
                    node.dsch.retract(&self.topo, link);
                }
            }
        }
        self.desired = new;
    }

    /// Publishes the segment's counters under the `node.*` namespace.
    fn publish_obs(&self) {
        if !wimesh_obs::is_enabled() {
            return;
        }
        let s = &self.segment;
        wimesh_obs::counter_add("node.beacons.sent", s.beacons_sent);
        wimesh_obs::counter_add("node.beacons.lost", s.beacons_lost);
        wimesh_obs::counter_add("node.dsch.sent", s.dsch_sent);
        wimesh_obs::counter_add("node.dsch.lost", s.dsch_lost);
        wimesh_obs::counter_add("node.resyncs", s.resyncs);
        wimesh_obs::counter_add("node.rerequests", s.rerequests);
        wimesh_obs::counter_add("node.failures.detected", s.failures_detected);
        wimesh_obs::counter_add("node.recoveries.detected", s.recoveries_detected);
        wimesh_obs::counter_add("node.reservations.repaired", s.reservations_repaired);
        wimesh_obs::counter_add("node.collisions", s.collisions);
        wimesh_obs::gauge_set(
            "node.max_mutual_error_us",
            s.max_mutual_error.as_secs_f64() * 1e6,
        );
    }
}

impl std::fmt::Debug for MeshRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshRuntime")
            .field("nodes", &self.nodes.len())
            .field("now", &self.cursor)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}
