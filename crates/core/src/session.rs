//! The admission engine: [`QosSession`].
//!
//! Every admission decision in the crate is made here. A session holds
//! the admitted set and decides one request at a time against it; the
//! batch API ([`crate::MeshQos::admit`]) is a fresh session placing its
//! flows in order. Under churn (flows arriving and departing one at a
//! time, each decision re-examining all currently-admitted flows) almost
//! all of the work of a decision repeats verbatim from the one before.
//!
//! A [`QosSession`] therefore keeps its state between decisions, keyed by
//! [`LinkId::index`] (never by the conflict graph's dense vertex index,
//! which a vertex removal reshuffles), and every operation applies a
//! *delta* to it:
//!
//! * per link, the **admitted flows crossing it** in admission order, the
//!   **aggregate demand** and the **rank** the order heuristics give it —
//!   an admit or release re-sums only the links on the changed flows'
//!   routes, over each link's own list (not a running add/subtract: a
//!   floating-point sum taken in admission order is bit-identical to the
//!   from-scratch one, and to a restored session's);
//! * the **conflict graph** gains and loses vertices only along those
//!   routes, each link's conflicts found once per session; a rejected
//!   admit rolls back by the inverse delta, the same code a release runs;
//! * per flow, its [`AdmittedFlow`] record, updated in place — the
//!   deadline check and the published delay bound come from one walk of
//!   the route over the per-link start times;
//! * under the rank policies ([`OrderPolicy::HopOrder`],
//!   [`OrderPolicy::TreeOrder`], [`OrderPolicy::GreedySequential`]) the
//!   earliest start of every link comes from one allocation-free sweep
//!   in `(rank, link)` order, the only whole-set pass left: recomputing
//!   every start keeps the layout a pure function of the admitted set;
//! * under [`OrderPolicy::ExactMilp`] the **last feasible transmission
//!   order** is replayed as a warm start — a Bellman–Ford validation
//!   pass ([`wimesh_tdma::milp::validate_order_within`]) often certifies
//!   feasibility outright, skipping the MILP oracle — and the minislot
//!   search is a **binary search** between the heaviest clique's demand
//!   and the warm order's makespan instead of the paper's linear scan —
//!   sound because oracle feasibility is monotone in the probed slot
//!   count (the argument is on `exact_search_warm`), and any feasible
//!   solution with makespan `m` stays feasible for every horizon `>= m`,
//!   which turns each "yes" answer into an immediate upper-bound jump.
//!
//! History must not leak into verdicts: the fast paths only ever
//! *certify* feasibility (a validated order is a real schedule), never
//! declare infeasibility — that verdict still requires the exact oracle.
//! Three suites hold the engine to references that share no code with it:
//! `tests/session_delta_equivalence.rs` pins the delta state to a
//! from-scratch pipeline, bit for bit; `tests/exact_search_equivalence.rs`
//! pins the exact search to a bound-free linear scan; and
//! `tests/session_equivalence.rs` pins a churned session to a fresh one.
//! The session does not certify what it publishes: all three hand every
//! outcome to the `wimesh-check` certifier from outside
//! (`tests/support`).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use wimesh_conflict::{conflicting_links, heaviest_clique, ConflictGraph};
use wimesh_emu::EmulationModel;
use wimesh_milp::SolverConfig;
use wimesh_sim::FlowId;
use wimesh_tdma::milp::{
    feasible_order_within, validate_order_within, OrderSolution, PathRequirement,
};
use wimesh_tdma::{
    delay, order, Demands, FrameConfig, Schedule, ScheduleError, SlotRange, TransmissionOrder,
};
use wimesh_topology::routing::{shortest_path, GatewayRouting, Path};
use wimesh_topology::{LinkId, NodeId};

use crate::admission::{self, Accepted, AdmissionOutcome, AdmittedFlow, OrderPolicy, RejectReason};
use crate::{FlowSpec, MeshQos, QosError};

/// The verdict of a single [`QosSession::admit`] call.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FlowAdmission {
    /// The flow was admitted; its reservation and delay bound. Bounds of
    /// previously admitted flows may have changed too — see
    /// [`QosSession::snapshot`].
    Admitted(AdmittedFlow),
    /// The flow was rejected; the session state is unchanged.
    Rejected(RejectReason),
}

impl FlowAdmission {
    /// True when the flow was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, FlowAdmission::Admitted(_))
    }

    /// The admitted flow, if any.
    pub fn admitted(&self) -> Option<&AdmittedFlow> {
        match self {
            FlowAdmission::Admitted(f) => Some(f),
            FlowAdmission::Rejected(_) => None,
        }
    }

    /// The rejection reason, if any.
    pub fn rejected(&self) -> Option<&RejectReason> {
        match self {
            FlowAdmission::Admitted(_) => None,
            FlowAdmission::Rejected(r) => Some(r),
        }
    }
}

/// Work counters of a [`QosSession`] — what the warm state saved.
///
/// The same figures are emitted as `session.*` counters through
/// `wimesh-obs` when instrumentation is enabled.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SessionStats {
    /// [`QosSession::admit`] calls (each spec of an
    /// [`QosSession::admit_batch`] counts once).
    pub admits: u64,
    /// Successful [`QosSession::release`] calls.
    pub releases: u64,
    /// MILP feasibility-oracle invocations.
    pub oracle_calls: u64,
    /// Searches whose upper bound came from validating the candidate
    /// order (the warm one, or the hop order when there is none) instead
    /// of an oracle call at the full frame.
    pub oracle_calls_saved: u64,
    /// Times the persisted warm order validated as-is.
    pub warm_order_hits: u64,
    /// Total slot-search probes (binary-search iterations plus the
    /// upper-bound probe).
    pub search_iterations: u64,
    /// Incremental conflict-graph vertex insertions/removals.
    pub incremental_updates: u64,
    /// Full conflict-graph rebuilds ([`QosSession::rebalance`]).
    pub graph_rebuilds: u64,
    /// [`QosSession::admit_batch`] calls settled by a single coalesced
    /// solve over the whole batch.
    pub batch_solves: u64,
    /// Flows admitted through a coalesced batch solve beyond the first
    /// of their batch — each is a full feasibility search a
    /// one-at-a-time caller would have paid for.
    pub coalesced_admits: u64,
    /// Requests rejected by the clique lower bound before any solver ran
    /// (exact and approximation policies; also emitted as the
    /// `admission.clique_prunes` counter).
    pub clique_prunes: u64,
    /// Greedy-sequential oracle solves (one rank-order sweep per call;
    /// the approximation-mode analogue of `oracle_calls`).
    pub greedy_solves: u64,
    /// LP-rounding oracle solves (one simplex relaxation plus repair per
    /// call; the approximation-mode analogue of `oracle_calls`).
    pub lp_solves: u64,
    /// Certified optimality-gap upper bound (in minislots) of the most
    /// recent approximate solve: the realised guaranteed region minus
    /// the best certified lower bound (heaviest clique, and LP bound under
    /// [`OrderPolicy::LpRounding`]). The true gap to the exact optimum
    /// is never larger. Always 0 under exact or heuristic policies.
    pub approx_gap: u64,
    /// Links whose published [`SlotRange`] appeared, vanished or changed,
    /// summed over every operation that published a schedule (also the
    /// `session.ranges_moved` counter): what a schedule switch has to
    /// tell the mesh.
    pub ranges_moved: u64,
}

/// A portable export of a session's admission state: everything needed
/// to reconstruct the exact published schedule on an identically
/// configured [`MeshQos`] — admitted flows with routes and
/// reservations, the warm transmission-order pairs, and the explicit
/// per-link slot layout.
///
/// Produced by [`QosSession::export_state`], consumed by
/// [`MeshQos::restore_session`]. Routes and order pairs are stored in
/// graph-independent form (node sequences, link-id pairs), so the state
/// survives the conflict graph's dense reindexing. The rejection log is
/// deliberately *not* part of the state: it is observability, not
/// schedule-bearing.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Order policy the session admits under.
    pub policy: OrderPolicy,
    /// Admitted flows, in admission order.
    pub flows: Vec<FlowState>,
    /// The last feasible transmission order as graph-independent
    /// `(earlier, later)` link pairs, ascending; empty when no flow is
    /// admitted.
    pub warm_pairs: Vec<(LinkId, LinkId)>,
    /// The published schedule as explicit per-link slot ranges,
    /// ascending by link id.
    pub ranges: Vec<(LinkId, SlotRange)>,
    /// Size of the guaranteed region the schedule occupies.
    pub guaranteed_slots: u32,
}

/// One admitted flow inside a [`SessionState`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    /// The admitted spec.
    pub spec: FlowSpec,
    /// Route as a node sequence; links are re-derived on restore.
    pub path: Vec<NodeId>,
    /// Minislots reserved on each path link.
    pub slots_per_link: u32,
}

/// One admitted flow's share of a link it crosses.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    /// The flow's admission sequence number ([`FlowMeta::seq`]).
    seq: u64,
    /// Position of the link on the flow's route.
    hop: u32,
    rate_bps: f64,
    burst_bytes: u64,
}

/// What the session keeps per link of the topology.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// The admitted flows crossing the link, ascending by admission
    /// sequence number — the order the from-scratch aggregation sums in.
    crossing: Vec<Crossing>,
    /// Aggregate minislot demand of `crossing`. The link is a vertex of
    /// the conflict graph, and an entry of the sweep, exactly while this
    /// is non-zero.
    demand: u32,
    /// Rank in the heuristic orders: the link's latest hop position over
    /// `crossing`, or its tree rank under [`OrderPolicy::TreeOrder`].
    rank: u64,
    /// The link's range in the layout last tried. An operation that
    /// succeeds publishes it in the schedule; the next one recomputes it
    /// either way.
    trial: Option<SlotRange>,
    /// The topology links conflicting with this one, found when it first
    /// joins the graph: they depend on the topology and the model alone.
    conflicting: Option<Vec<LinkId>>,
}

/// What the session keeps per admitted flow beside its [`AdmittedFlow`].
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    /// Admission sequence number: ascending along the admitted set, and
    /// never reused while the session lives.
    seq: u64,
    /// The flow's deadline as a pipeline budget in minislots, fixed at
    /// admission.
    budget: Option<u64>,
}

/// A schedule and the guaranteed region it occupies. The order realising
/// it is its start order ([`QosSession::published_pairs`]).
type Layout = (Schedule, u32);

/// Buffers the per-operation passes reuse, so that none of them
/// allocates once the session has seen its working set.
#[derive(Debug, Default)]
struct Scratch {
    /// Links on the routes of the flows the current delta adds or removes.
    touched: Vec<LinkId>,
    /// Dense conflict-graph index of every demanded link, by
    /// [`LinkId::index`]; refreshed before each sweep.
    vertex_of: Vec<u32>,
    /// Per graph vertex, for the sweep's inner loop: the position of its
    /// link in the sweep, and where its trial range ends.
    turn: Vec<u32>,
    end: Vec<u64>,
    /// Worst-case delay of every admitted flow under the trial layout.
    delays: Vec<Duration>,
}

/// A stateful admission session over a [`MeshQos`].
///
/// Admit and release flows one at a time; the session maintains a
/// consistent [`AdmissionOutcome`] ([`QosSession::snapshot`]) for the
/// currently-admitted set, applying each decision as a delta to its
/// per-link and per-flow state (see the module docs). The batch API is
/// this engine too: under the policies that keep input order,
/// `MeshQos::admit(&[f1..fn])` is a fresh session admitting `f1..fn` one
/// at a time.
///
/// # SLO audit
///
/// The session writes no audit state. Each [`AdmittedFlow`] carries its
/// promise (`slots_per_link` and `spec.deadline`, both fixed at
/// admission); an auditor reads it from [`QosSession::snapshot`] into a
/// ledger of its own (`wimesh_node::MeshRuntime` does, every frame).
///
/// # Example
///
/// ```
/// use wimesh::{FlowSpec, MeshQos, OrderPolicy};
/// use wimesh_sim::traffic::VoipCodec;
/// use wimesh_topology::generators;
///
/// let mesh = MeshQos::builder(generators::chain(5)).build()?;
/// let mut session = mesh.session(OrderPolicy::HopOrder);
///
/// let call = FlowSpec::voip(0, 4.into(), 0.into(), VoipCodec::G711);
/// assert!(session.admit(&call)?.is_admitted());
/// assert_eq!(session.snapshot().admitted().len(), 1);
///
/// session.release(call.id)?;
/// assert_eq!(session.snapshot().admitted().len(), 0);
/// # Ok::<(), wimesh::QosError>(())
/// ```
#[derive(Debug)]
pub struct QosSession {
    mesh: MeshQos,
    policy: OrderPolicy,
    /// Per-link state, indexed by [`LinkId::index`].
    links: Vec<LinkState>,
    /// Per-flow state, parallel to `outcome.admitted` (admission order).
    meta: Vec<FlowMeta>,
    /// Admission sequence number of every admitted flow id.
    seq_of: BTreeMap<FlowId, u64>,
    next_seq: u64,
    /// Cached conflict graph; invariant: its vertex set equals the links
    /// with non-zero demand.
    graph: ConflictGraph,
    /// The demanded links, ascending: the order schedules and demand maps
    /// list them in.
    demanded: Vec<LinkId>,
    /// The demanded links as `(rank, link)`, ascending: the order the
    /// rank policies transmit in.
    sweep: Vec<(u64, LinkId)>,
    /// Under [`OrderPolicy::TreeOrder`], the tree rank of every link, or
    /// why the gateway has no routing tree.
    tree_ranks: Option<Result<Vec<u64>, String>>,
    /// What is published; `order` stays empty ([`Layout`]).
    outcome: AdmissionOutcome,
    stats: SessionStats,
    scratch: Scratch,
}

impl QosSession {
    /// Rejections the log behind [`QosSession::snapshot`] keeps: past
    /// this many the oldest entry is dropped, so a long-lived session's
    /// memory does not grow with the rejects it has answered.
    pub const REJECT_LOG_CAP: usize = 256;

    pub(crate) fn new(mesh: MeshQos, policy: OrderPolicy) -> Self {
        let topo = mesh.topology();
        let graph = ConflictGraph::build_for_links(topo, Vec::new(), mesh.interference());
        let tree_ranks = match policy {
            OrderPolicy::TreeOrder { gateway } => Some(
                GatewayRouting::new(topo, gateway)
                    .map(|routing| order::tree_ranks(topo, &routing))
                    .map_err(|e| e.to_string()),
            ),
            _ => None,
        };
        let links = vec![LinkState::default(); topo.link_count()];
        let scratch = Scratch {
            vertex_of: vec![0; topo.link_count()],
            ..Scratch::default()
        };
        let outcome = empty_outcome(mesh.model());
        Self {
            mesh,
            policy,
            links,
            meta: Vec::new(),
            seq_of: BTreeMap::new(),
            next_seq: 0,
            graph,
            demanded: Vec::new(),
            sweep: Vec::new(),
            tree_ranks,
            outcome,
            stats: SessionStats::default(),
            scratch,
        }
    }

    /// The current admission state: all admitted flows with their (up to
    /// date) delay bounds, the schedule and order realising them, and
    /// the newest [`QosSession::REJECT_LOG_CAP`] rejections.
    pub fn snapshot(&self) -> &AdmissionOutcome {
        &self.outcome
    }

    /// The session's work counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The order policy this session admits under.
    pub fn policy(&self) -> OrderPolicy {
        self.policy
    }

    /// The mesh this session admits onto (the session owns a clone of
    /// the [`MeshQos`] it was created from).
    pub fn mesh(&self) -> &MeshQos {
        &self.mesh
    }

    /// Tries to admit one flow on its shortest-hop route.
    ///
    /// On admission the flow's links enter the per-link state and every
    /// start time is laid out again (bounds of previously admitted flows
    /// can change — consult [`QosSession::snapshot`]); on rejection the
    /// session state is untouched apart from the rejection log.
    ///
    /// A flow whose id is already admitted is rejected with
    /// [`RejectReason::DuplicateFlow`]: a retried request must not
    /// reserve twice.
    ///
    /// # Errors
    ///
    /// [`QosError::InvalidRate`] for a rate that is not finite and positive;
    /// scheduling and solver failures other than plain infeasibility (which
    /// is a [`FlowAdmission::Rejected`] verdict, not an error).
    pub fn admit(&mut self, spec: &FlowSpec) -> Result<FlowAdmission, QosError> {
        let path = shortest_path(self.mesh.topology(), spec.src, spec.dst).ok();
        self.admit_on(spec, path)
    }

    /// Tries to admit one flow on an explicitly chosen route instead of
    /// the shortest-hop one — the repair path: when part of the mesh is
    /// down, the caller routes around it and admits the detour, while
    /// [`QosSession::admit`] would still happily route through the dead
    /// zone (the session's topology is the full mesh).
    ///
    /// The path must run from `spec.src` to `spec.dst`; admission
    /// semantics are otherwise identical to [`QosSession::admit`].
    ///
    /// # Errors
    ///
    /// [`QosError::Config`] when the path's endpoints do not match the
    /// flow; otherwise as for [`QosSession::admit`].
    pub fn admit_via(&mut self, spec: &FlowSpec, path: Path) -> Result<FlowAdmission, QosError> {
        let nodes = path.nodes();
        if nodes.first() != Some(&spec.src) || nodes.last() != Some(&spec.dst) {
            return Err(QosError::Config(format!(
                "path endpoints do not match flow {}: path runs {:?} -> {:?}, flow {} -> {}",
                spec.id,
                nodes.first(),
                nodes.last(),
                spec.src,
                spec.dst
            )));
        }
        self.admit_on(spec, Some(path))
    }

    fn admit_on(&mut self, spec: &FlowSpec, path: Option<Path>) -> Result<FlowAdmission, QosError> {
        let _span = wimesh_obs::span!("session.admit");
        self.stats.admits += 1;
        let candidate = match self.vet(spec, path.as_ref())? {
            Ok(c) => c,
            Err(reason) => return Ok(self.reject(spec, reason)),
        };

        let base = self.outcome.admitted.len();
        self.enter([candidate]);
        match self.solve(base > 0) {
            Ok(layout) => {
                self.publish_admitted(base, layout);
                Ok(FlowAdmission::Admitted(self.outcome.admitted[base].clone()))
            }
            Err(e) => {
                self.retract(base);
                let reason = match e {
                    ScheduleError::Infeasible
                    | ScheduleError::FrameTooShort { .. }
                    | ScheduleError::OrderCycle { .. } => RejectReason::Infeasible,
                    ScheduleError::SolverFailed(msg) => RejectReason::SolverLimit(msg),
                    other => return Err(other.into()),
                };
                Ok(self.reject(spec, reason))
            }
        }
    }

    /// Vets one request before any schedule attempt: a duplicate id, then
    /// [`admission::vet_flow`]'s rate, route and deadline checks.
    fn vet(
        &self,
        spec: &FlowSpec,
        path: Option<&Path>,
    ) -> Result<Result<Accepted, RejectReason>, QosError> {
        if self.seq_of.contains_key(&spec.id) {
            return Ok(Err(RejectReason::DuplicateFlow));
        }
        admission::vet_flow(
            self.mesh.model(),
            self.mesh.link_payloads(),
            self.mesh.loss_provisioning(),
            spec,
            path,
        )
    }

    /// Logs a rejection and returns its verdict.
    fn reject(&mut self, spec: &FlowSpec, reason: RejectReason) -> FlowAdmission {
        log_reject(&mut self.outcome.rejected, spec, &reason);
        FlowAdmission::Rejected(reason)
    }

    /// Tries to admit several flows as one coalesced scheduling
    /// decision, returning one verdict per spec in input order.
    ///
    /// Every spec is vetted individually (duplicate id, rate, route,
    /// deadline budget; of two specs with one id the first is the
    /// candidate, the second a [`RejectReason::DuplicateFlow`]); the
    /// surviving candidates are then solved for *together*: one delta
    /// over all their routes, one feasibility search over the accepted
    /// set plus the whole batch, one certification pass. That single
    /// solve is the amortization the gateway service (`wimesh-svc`)
    /// batches requests for. When the combined set is not feasible as a
    /// whole, the delta is rolled back and the batch falls back to
    /// per-flow admission in input order — exactly the semantics of
    /// calling [`QosSession::admit`] once per spec.
    ///
    /// Under [`OrderPolicy::ExactMilp`] the admitted set equals what
    /// one-at-a-time admission would produce: feasibility of a set
    /// implies feasibility of every subset, so whenever the whole batch
    /// fits, sequential admission would have admitted every member too.
    /// For the heuristic policies a coalesced success is a real,
    /// certified schedule, but a batch may be admitted whole where
    /// one-at-a-time admission would have stopped early (the heuristic
    /// order is not subset-monotone); the deterministic record of which
    /// grouping was used is what `wimesh-svc` journals for replay.
    ///
    /// # Errors
    ///
    /// As for [`QosSession::admit`].
    pub fn admit_batch(&mut self, specs: &[FlowSpec]) -> Result<Vec<FlowAdmission>, QosError> {
        if specs.len() <= 1 {
            return specs.iter().map(|s| self.admit(s)).collect();
        }
        let _span = wimesh_obs::span!("session.admit_batch");
        let topo = self.mesh.topology();
        let routed: Vec<(&FlowSpec, Option<Path>)> = specs
            .iter()
            .map(|s| (s, shortest_path(topo, s.src, s.dst).ok()))
            .collect();
        self.place_batch(routed.iter().map(|(s, p)| (*s, p.as_ref())), true)
    }

    /// The engine behind [`MeshQos::admit`] and [`QosSession::rebalance`]:
    /// a fresh session places `flows` one at a time, in input order or by
    /// the greedy key, on the routes given. Unlike
    /// [`QosSession::admit_batch`] it never tries the whole batch first:
    /// the batch API promises that a flow's verdict depends only on the
    /// flows placed before it.
    ///
    /// The session's outcome is returned with `rejected` rebuilt from the
    /// verdicts: complete and in input order, where the session keeps a
    /// capped log in decision order.
    pub(crate) fn admit_fresh(
        mesh: &MeshQos,
        flows: &[(&FlowSpec, Option<&Path>)],
        policy: OrderPolicy,
    ) -> Result<AdmissionOutcome, QosError> {
        let _span = wimesh_obs::span!("admission.admit");
        let mut session = Self::new(mesh.clone(), policy);
        let verdicts = session.place_batch(flows.iter().copied(), false)?;
        let mut outcome = session.outcome;
        outcome.rejected = flows
            .iter()
            .zip(verdicts)
            .filter_map(|(&(spec, _), verdict)| match verdict {
                FlowAdmission::Rejected(reason) => Some((spec.clone(), reason)),
                FlowAdmission::Admitted(_) => None,
            })
            .collect();
        Ok(outcome)
    }

    /// Batch admission over routed requests (`None` = unroutable), one
    /// verdict per request in input order: vet each, enter the survivors
    /// together, then either settle them with one solve over the whole
    /// batch (`coalesce`) or take them back out and place them one at a
    /// time.
    fn place_batch<'a>(
        &mut self,
        routed: impl IntoIterator<Item = (&'a FlowSpec, Option<&'a Path>)>,
        coalesce: bool,
    ) -> Result<Vec<FlowAdmission>, QosError> {
        // Vet first: rejections here consume no solve and cannot
        // invalidate the batch.
        let mut verdicts: Vec<Option<FlowAdmission>> = Vec::new();
        let mut indices: Vec<usize> = Vec::new();
        let mut candidates: Vec<Accepted> = Vec::new();
        for (i, (spec, path)) in routed.into_iter().enumerate() {
            let vetted = if candidates.iter().any(|c| c.spec.id == spec.id) {
                Err(RejectReason::DuplicateFlow)
            } else {
                self.vet(spec, path)?
            };
            match vetted {
                Ok(c) => {
                    indices.push(i);
                    candidates.push(c);
                    verdicts.push(None);
                }
                Err(reason) => {
                    self.stats.admits += 1;
                    verdicts.push(Some(self.reject(spec, reason)));
                }
            }
        }

        if !candidates.is_empty() {
            // Optimistic coalesced solve: accepted set plus the whole
            // batch in one search.
            let base = self.outcome.admitted.len();
            // The batch's links join the graph only for a reader: the
            // coalesced solve, or the greedy ranking against joint demand.
            self.append(candidates);
            if coalesce || matches!(self.policy, OrderPolicy::GreedySequential { .. }) {
                self.settle();
            }
            let whole = if coalesce {
                self.solve(base > 0)
            } else {
                Err(ScheduleError::Infeasible)
            };
            match whole {
                Ok(layout) => {
                    let coalesced = indices.len() as u64 - 1;
                    self.stats.admits += indices.len() as u64;
                    self.stats.batch_solves += 1;
                    self.stats.coalesced_admits += coalesced;
                    wimesh_obs::counter_inc("session.batch.solves");
                    wimesh_obs::counter_add("session.batch.coalesced", coalesced);
                    self.publish_admitted(base, layout);
                    for (i, f) in indices.iter().zip(&self.outcome.admitted[base..]) {
                        verdicts[*i] = Some(FlowAdmission::Admitted(f.clone()));
                    }
                }
                Err(
                    ScheduleError::Infeasible
                    | ScheduleError::FrameTooShort { .. }
                    | ScheduleError::OrderCycle { .. }
                    | ScheduleError::SolverFailed(_),
                ) => {
                    // The batch does not fit as a unit (or was not asked
                    // to): per-flow admission. Greedy-sequential places
                    // the candidates cheapest-first by its key, ranked
                    // against the joint demand of everyone asking (while
                    // the grown graph still holds the batch's links);
                    // every other policy keeps input order. Verdicts are
                    // indexed, so reporting order is unaffected.
                    let demand_of = |l: LinkId| self.links[l.index()].demand;
                    let rank = |f: &AdmittedFlow| match self.policy {
                        OrderPolicy::GreedySequential { key } => {
                            let slots = f.slots_per_link;
                            admission::greedy_rank(key, &self.graph, demand_of, &f.path, slots)
                        }
                        _ => 0,
                    };
                    let ranks: Vec<u64> = self.outcome.admitted[base..].iter().map(rank).collect();
                    let mut fallback: Vec<(u64, usize, AdmittedFlow)> = self
                        .retract(base)
                        .into_iter()
                        .zip(ranks.into_iter().zip(indices))
                        .map(|(f, (rank, i))| (rank, i, f))
                        .collect();
                    fallback.sort_by_key(|&(rank, i, _)| (rank, i));
                    for (_, i, f) in fallback {
                        verdicts[i] = Some(self.admit_on(&f.spec, Some(f.path))?);
                    }
                }
                Err(other) => {
                    self.retract(base);
                    return Err(other.into());
                }
            }
        }

        #[expect(
            clippy::expect_used,
            reason = "every index was filled above: vet rejection, coalesced admit, or per-flow placement"
        )]
        let verdicts = verdicts
            .into_iter()
            .map(|v| v.expect("every spec received a verdict"))
            .collect();
        Ok(verdicts)
    }

    /// Exports the session's admission state in a portable,
    /// graph-independent form — see [`SessionState`] and
    /// [`MeshQos::restore_session`].
    pub fn export_state(&self) -> SessionState {
        // Canonical pair order: the pairs come out in the conflict graph's
        // vertex numbering, which depends on the insertions and roll-backs
        // that built the graph — equal states must compare equal whatever
        // history produced them.
        let mut warm_pairs = self.published_pairs();
        warm_pairs.sort_unstable();
        SessionState {
            policy: self.policy,
            flows: self
                .outcome
                .admitted
                .iter()
                .map(|a| FlowState {
                    spec: a.spec.clone(),
                    path: a.path.nodes().to_vec(),
                    slots_per_link: a.slots_per_link,
                })
                .collect(),
            warm_pairs,
            ranges: self.outcome.schedule.iter().collect(),
            guaranteed_slots: self.outcome.guaranteed_slots,
        }
    }

    /// Reconstructs a session from an exported state *without solving*:
    /// the recorded schedule is loaded verbatim (so restoration is
    /// bit-identical to the exporting session), then cross-checked —
    /// every flow re-vetted against this mesh, reservations compared,
    /// conflict-freeness re-validated, demand coverage verified.
    ///
    /// # Errors
    ///
    /// [`QosError::Config`] when the state disagrees with this mesh:
    /// missing links, changed reservations, a flow id listed twice, slot
    /// ranges not strictly ascending by link or past the frame,
    /// conflicting or short slot grants, a makespan that contradicts the
    /// recorded guaranteed region, order pairs the schedule does not
    /// follow.
    pub(crate) fn from_state(mesh: MeshQos, state: &SessionState) -> Result<Self, QosError> {
        let mut accepted = Vec::with_capacity(state.flows.len());
        let mut ids = BTreeSet::new();
        for f in &state.flows {
            if !ids.insert(f.spec.id) {
                return Err(QosError::Config(format!(
                    "restored state lists flow {} twice",
                    f.spec.id
                )));
            }
            let links: Vec<LinkId> = f
                .path
                .windows(2)
                .map(|w| {
                    mesh.topology().link_between(w[0], w[1]).ok_or_else(|| {
                        QosError::Config(format!(
                            "restored flow {}: no link {} -> {} in this topology",
                            f.spec.id, w[0], w[1]
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            let path = Path::new(mesh.topology(), links)?;
            let candidate = match admission::vet_flow(
                mesh.model(),
                mesh.link_payloads(),
                mesh.loss_provisioning(),
                &f.spec,
                Some(&path),
            )? {
                Ok(c) => c,
                Err(reason) => {
                    return Err(QosError::Config(format!(
                        "restored flow {} is no longer admissible on this mesh: {reason:?}",
                        f.spec.id
                    )))
                }
            };
            if candidate.slots_per_link != f.slots_per_link {
                return Err(QosError::Config(format!(
                    "restored flow {}: this mesh reserves {} slot(s)/link, the state recorded {}",
                    f.spec.id, candidate.slots_per_link, f.slots_per_link
                )));
            }
            accepted.push(candidate);
        }

        let mut session = Self::new(mesh, state.policy);
        session.load(accepted);

        let schedule = Schedule::from_sorted(session.mesh.model().frame(), state.ranges.clone())
            .map_err(|e| QosError::Config(format!("restored schedule: {e}")))?;
        let demand_of = |l: LinkId| session.links.get(l.index()).map_or(0, |s| s.demand);
        for l in schedule.links() {
            if demand_of(l) == 0 {
                return Err(QosError::Config(format!(
                    "restored schedule grants slots to link {l}, which no admitted flow uses"
                )));
            }
        }
        for &l in &session.demanded {
            let have = schedule.slot_range(l).map_or(0, |r| r.len);
            let need = demand_of(l);
            if have < need {
                return Err(QosError::Config(format!(
                    "restored schedule grants link {l} {have} slot(s), aggregate demand is {need}"
                )));
            }
        }
        schedule.validate(&session.graph).map_err(|(a, b)| {
            QosError::Config(format!(
                "restored schedule puts conflicting links {a} and {b} in overlapping slots"
            ))
        })?;
        if schedule.makespan() != state.guaranteed_slots {
            return Err(QosError::Config(format!(
                "restored schedule occupies {} slot(s), the state recorded {}",
                schedule.makespan(),
                state.guaranteed_slots
            )));
        }

        session.adopt(&schedule)?;
        session.publish((schedule, state.guaranteed_slots));
        // A restored session exports the state it came from: all that can
        // still differ are order pairs other than the schedule's own.
        if session.export_state() != *state {
            return Err(QosError::Config(
                "restored order pairs contradict the schedule".into(),
            ));
        }
        Ok(session)
    }

    /// Releases an admitted flow and lays the remaining set out again.
    /// Returns `Ok(false)` when no admitted flow has this id.
    ///
    /// The flow's links leave the per-link state (a link nothing crosses
    /// any more leaves the conflict graph) and every start time is
    /// recomputed. Under every policy but [`OrderPolicy::ExactMilp`] a
    /// subset can be ordered differently and need more minislots than the
    /// superset did; the session then keeps the previous order, restricted
    /// to the remaining links, when that still fits the frame and meets
    /// every deadline.
    ///
    /// # Errors
    ///
    /// Rescheduling the remaining flows can only fail for the non-exact
    /// policies, when neither the recomputed nor the previous order
    /// meets a deadline the superset met (under
    /// [`OrderPolicy::ExactMilp`] a subset of a feasible set is always
    /// feasible). On error the session is left unchanged — the flow stays
    /// admitted; [`QosSession::rebalance`] with an exact policy is the
    /// recovery path.
    pub fn release(&mut self, flow: FlowId) -> Result<bool, QosError> {
        let Some(&seq) = self.seq_of.get(&flow) else {
            return Ok(false);
        };
        let Ok(pos) = self.meta.binary_search_by_key(&seq, |m| m.seq) else {
            return Ok(false);
        };
        let _span = wimesh_obs::span!("session.release");
        let removed = self.outcome.admitted.remove(pos);
        let removed_meta = self.meta.remove(pos);
        detach(
            &mut self.links,
            &mut self.scratch.touched,
            seq,
            &removed.path,
        );
        self.settle();

        let layout = match self.solve(true) {
            Ok(layout) => layout,
            Err(e) => {
                if let Some(kept) = self.keep_previous_order() {
                    kept
                } else {
                    // The inverse delta: the flow goes back where it was;
                    // the published schedule and order are still valid.
                    attach(
                        &mut self.links,
                        &mut self.scratch.touched,
                        seq,
                        &removed.spec,
                        &removed.path,
                    );
                    self.outcome.admitted.insert(pos, removed);
                    self.meta.insert(pos, removed_meta);
                    self.settle();
                    return Err(e.into());
                }
            }
        };
        self.seq_of.remove(&flow);
        self.stats.releases += 1;
        wimesh_obs::counter_inc("session.releases");
        self.publish(layout);
        Ok(true)
    }

    /// The release fallback of every policy but the exact one: the
    /// published order (every policy's layout follows its order), which
    /// scheduled the superset, laid over the post-removal graph under the
    /// checks of a fresh solve. On success the kept layout is on trial.
    fn keep_previous_order(&mut self) -> Option<Layout> {
        if self.policy == OrderPolicy::ExactMilp {
            return None;
        }
        let previous = self.published_pairs();
        let previous = TransmissionOrder::from_link_pairs(&self.graph, &previous);
        let frame = self.mesh.model().frame();
        let (demands, reqs) = (self.demands(), self.requirements());
        let kept = validate_order_within(
            &self.graph,
            &demands,
            &reqs,
            frame,
            frame.slots(),
            &previous,
        )?;
        wimesh_obs::counter_inc("session.release.kept_order");
        self.adopt(&kept.schedule).ok()?;
        let used = kept.schedule.makespan();
        Some((kept.schedule, used))
    }

    /// Recomputes everything from scratch: re-places the current flows on
    /// a fresh session (the engine of [`MeshQos::admit`], over their
    /// routes, in admission order), rebuilds the conflict graph and bulk
    /// loads the per-link and per-flow state from the result.
    ///
    /// What is left is the state a session that had never seen anything
    /// but these flows would hold — no warm order, no vertex numbering,
    /// no kept release order survives — and it is the recovery path when
    /// a heuristic [`QosSession::release`] fails. A flow the fresh
    /// placement rejects (possible under the heuristic policies, whose
    /// orders are not subset-monotone) leaves the admitted set and enters
    /// the rejection log.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MeshQos::admit`].
    pub fn rebalance(&mut self) -> Result<&AdmissionOutcome, QosError> {
        let _span = wimesh_obs::span!("session.rebalance");
        self.stats.graph_rebuilds += 1;
        wimesh_obs::counter_inc("session.graph.rebuilds");
        let routed: Vec<_> = self
            .outcome
            .admitted
            .iter()
            .map(|a| (&a.spec, Some(&a.path)))
            .collect();
        let cold = Self::admit_fresh(&self.mesh, &routed, self.policy)?;

        // Rejections recorded before the rebalance stay in the log.
        for (spec, reason) in &cold.rejected {
            log_reject(&mut self.outcome.rejected, spec, reason);
        }
        // The graph is rebuilt over the demand links in ascending id order
        // — the numbering a batch outcome's order is keyed by, so its bits
        // read as the right link pairs.
        self.load(cold.admitted.into_iter().map(|f| Accepted {
            spec: f.spec,
            path: f.path,
            slots_per_link: f.slots_per_link,
        }));
        self.adopt(&cold.schedule)?;
        self.publish((cold.schedule, cold.guaranteed_slots));
        Ok(&self.outcome)
    }

    /// The published order over the session graph's conflict edges between
    /// links the published schedule holds, as `(earlier, later)` link
    /// pairs: of two conflicting links the one starting first transmits
    /// first. Every layout the session publishes (a rank sweep, an exact,
    /// LP-rounded or kept order, a recorded state) follows its order.
    fn published_pairs(&self) -> Vec<(LinkId, LinkId)> {
        let (graph, schedule) = (&self.graph, &self.outcome.schedule);
        let start_of = |l| Some(schedule.slot_range(l)?.start);
        let start: Vec<Option<u32>> = graph.links().iter().map(|&l| start_of(l)).collect();
        let key = |v: usize| Some((start[v]?, graph.link_at(v)));
        let pair = |(i, j)| {
            let (x, y) = (key(i)?, key(j)?);
            Some((x.min(y).1, x.max(y).1))
        };
        graph.edges().filter_map(pair).collect()
    }

    /// Appends vetted flows to the admitted set and applies the delta of
    /// their routes to the per-link state and the graph. The flows are on
    /// trial until an operation publishes; [`QosSession::retract`] is the
    /// inverse.
    fn enter(&mut self, flows: impl IntoIterator<Item = Accepted>) {
        self.append(flows);
        self.settle();
    }

    /// Appends vetted flows to the admitted set and to the crossing lists
    /// of their routes, leaving the links touched.
    fn append(&mut self, flows: impl IntoIterator<Item = Accepted>) {
        for c in flows {
            let seq = self.next_seq;
            self.next_seq += 1;
            attach(
                &mut self.links,
                &mut self.scratch.touched,
                seq,
                &c.spec,
                &c.path,
            );
            self.meta.push(FlowMeta {
                seq,
                budget: admission::flow_budget(self.mesh.model(), c.spec.deadline, &c.path),
            });
            self.outcome.admitted.push(AdmittedFlow {
                spec: c.spec,
                path: c.path,
                slots_per_link: c.slots_per_link,
                worst_case_delay: Duration::ZERO,
            });
        }
    }

    /// Takes the flows from position `from` on back out of the admitted
    /// set, the per-link state and the graph, and returns them.
    fn retract(&mut self, from: usize) -> Vec<AdmittedFlow> {
        let flows: Vec<AdmittedFlow> = self.outcome.admitted.drain(from..).collect();
        for (f, m) in flows.iter().zip(self.meta.drain(from..)) {
            detach(&mut self.links, &mut self.scratch.touched, m.seq, &f.path);
        }
        self.settle();
        flows
    }

    /// Brings demand, rank, sweep entry and graph vertex of every touched
    /// link in line with its `crossing` list.
    fn settle(&mut self) {
        self.resum_touched();
        let mut flipped = std::mem::take(&mut self.scratch.touched);
        // Newly demanded links join in ascending id order, drained ones
        // leave in ascending vertex order: the orders a from-scratch
        // growth over the demand map and a scan of the vertex list take,
        // so the numbering (which the exact search's model follows) is
        // the one the session always produced.
        for &l in &flipped {
            let state = &mut self.links[l.index()];
            if state.demand > 0 {
                let (topo, model) = (self.mesh.topology(), self.mesh.interference());
                let conflicting = state
                    .conflicting
                    .get_or_insert_with(|| conflicting_links(topo, l, model));
                self.graph.insert_conflicting(l, conflicting);
                self.count_graph_update();
            }
        }
        flipped.retain(|l| self.links[l.index()].demand == 0);
        flipped.sort_by_key(|&l| self.graph.index_of(l));
        for &l in &flipped {
            self.graph.remove_vertex(l);
            self.count_graph_update();
        }
        flipped.clear();
        self.scratch.touched = flipped;
    }

    /// Re-sums every touched link and leaves in `scratch.touched`,
    /// ascending, those that started or stopped carrying demand.
    fn resum_touched(&mut self) {
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&l| self.resum(l));
        self.scratch.touched = touched;
    }

    fn count_graph_update(&mut self) {
        self.stats.incremental_updates += 1;
        wimesh_obs::counter_inc("session.graph.incremental");
    }

    /// Re-derives one link's demand and rank from its `crossing` list —
    /// summed in admission order from zero, as the from-scratch
    /// aggregation sums — and moves its sweep entry. Returns whether the
    /// link started or stopped carrying demand.
    fn resum(&mut self, l: LinkId) -> bool {
        let state = &mut self.links[l.index()];
        let (mut rate, mut burst, mut last_hop) = (0.0, 0u64, 0u64);
        for c in &state.crossing {
            rate += c.rate_bps;
            burst += c.burst_bytes;
            last_hop = last_hop.max(u64::from(c.hop));
        }
        let demand = admission::link_demand(
            self.mesh.model(),
            self.mesh.link_payloads()[l.index()],
            self.mesh.loss_provisioning(),
            rate,
            burst,
        );
        let rank = match &self.tree_ranks {
            Some(Ok(ranks)) => ranks[l.index()],
            _ => last_hop,
        };
        let old = (state.demand > 0).then_some((state.rank, l));
        let new = (demand > 0).then_some((rank, l));
        state.demand = demand;
        state.rank = rank;
        if old != new {
            if let Some(key) = old {
                sorted_remove(&mut self.sweep, &key);
            }
            if let Some(key) = new {
                sorted_insert(&mut self.sweep, key);
            }
        }
        match (old, new) {
            (None, Some(_)) => sorted_insert(&mut self.demanded, l),
            (Some(_), None) => sorted_remove(&mut self.demanded, &l),
            _ => return false,
        }
        true
    }

    /// Replaces the admitted set wholesale ([`MeshQos::restore_session`],
    /// [`QosSession::rebalance`]): per-link and per-flow state, sweep and
    /// graph are rebuilt from `flows` in the order given. What is
    /// published stays until the caller publishes the new layout.
    fn load(&mut self, flows: impl IntoIterator<Item = Accepted>) {
        for state in &mut self.links {
            state.crossing.clear();
            state.demand = 0;
        }
        self.demanded.clear();
        self.sweep.clear();
        self.meta.clear();
        self.outcome.admitted.clear();
        self.append(flows);
        self.resum_touched();
        self.scratch.touched.clear();
        // Ascending is the numbering a batch outcome's order is keyed by.
        self.graph = ConflictGraph::build_for_links(
            self.mesh.topology(),
            self.demanded.clone(),
            self.mesh.interference(),
        );
        self.seq_of = self
            .outcome
            .admitted
            .iter()
            .zip(&self.meta)
            .map(|(f, m)| (f.spec.id, m.seq))
            .collect();
    }

    /// The per-link demands as the [`Demands`] map the exact and
    /// approximation kernels read.
    fn demands(&self) -> Demands {
        let demand_of = |&l: &LinkId| (l, self.links[l.index()].demand);
        self.demanded.iter().map(demand_of).collect()
    }

    /// Route and deadline budget of every admitted flow, for the same
    /// kernels.
    fn requirements(&self) -> Vec<PathRequirement> {
        let flows = self.outcome.admitted.iter().zip(&self.meta);
        flows
            .map(|(f, m)| PathRequirement {
                path: f.path.clone(),
                deadline_slots: m.budget,
            })
            .collect()
    }

    /// One scheduling decision over the current per-link state: on
    /// success the trial ranges and `scratch.delays` hold the layout that
    /// is returned, ready for [`QosSession::publish`]. An exact search
    /// starts `warm` from the published order when asked to.
    fn solve(&mut self, warm: bool) -> Result<Layout, ScheduleError> {
        // A demand-free flow set schedules trivially.
        if self.demanded.is_empty() {
            self.scratch.delays.clear();
            let schedule = Schedule::from_sorted(self.mesh.model().frame(), Vec::new())?;
            return Ok((schedule, 0));
        }
        let frame = self.mesh.model().frame();
        let demand_of = |l: LinkId| self.links[l.index()].demand;
        match self.policy {
            OrderPolicy::HopOrder | OrderPolicy::TreeOrder { .. } => self.rank_layout(),
            OrderPolicy::GreedySequential { .. } => {
                let _span = wimesh_obs::span!("session.approx");
                let lower = clique_prune(&self.graph, demand_of, frame, &mut self.stats)?;
                self.stats.greedy_solves += 1;
                wimesh_obs::counter_inc("session.greedy.solves");
                let (schedule, used) = self.rank_layout()?;
                self.stats.approx_gap = u64::from(used.saturating_sub(lower));
                Ok((schedule, used))
            }
            OrderPolicy::ExactMilp => {
                let (demands, reqs) = (self.demands(), self.requirements());
                let warm = warm.then(|| self.published_pairs());
                let (schedule, used) = exact_search_warm(
                    self.mesh.model(),
                    &self.graph,
                    &demands,
                    &reqs,
                    warm.as_deref(),
                    &mut self.stats,
                )?;
                self.adopt(&schedule)?;
                Ok((schedule, used))
            }
            OrderPolicy::LpRounding => {
                let _span = wimesh_obs::span!("session.approx");
                let lower = clique_prune(&self.graph, demand_of, frame, &mut self.stats)?;
                self.stats.lp_solves += 1;
                wimesh_obs::counter_inc("session.lp.solves");
                let (demands, reqs) = (self.demands(), self.requirements());
                let rounded =
                    wimesh_tdma::approx::lp_rounded_order(&self.graph, &demands, &reqs, frame)?;
                let sol = rounded.solution;
                let used = sol.schedule.makespan().max(1);
                // The LP relaxation's optimum is a second certified floor.
                let floor = lower.max(rounded.lp_bound_slots);
                self.stats.approx_gap = u64::from(used.saturating_sub(floor));
                self.adopt(&sol.schedule)?;
                Ok((sol.schedule, used))
            }
        }
    }

    /// The layout of the rank policies: every demanded link at its
    /// earliest start under the `(rank, link)` order, checked against the
    /// frame and every deadline.
    fn rank_layout(&mut self) -> Result<Layout, ScheduleError> {
        if let Some(Err(no_tree)) = &self.tree_ranks {
            return Err(ScheduleError::SolverFailed(no_tree.clone()));
        }
        let frame = self.mesh.model().frame();
        let makespan = self.sweep_starts();
        if makespan > u64::from(frame.slots()) {
            return Err(ScheduleError::FrameTooShort {
                needed: u32::try_from(makespan).unwrap_or(u32::MAX),
                available: frame.slots(),
            });
        }
        self.walk_routes(true)?;
        let granted = |&l: &LinkId| Some((l, self.links[l.index()].trial?));
        let ranges = self.demanded.iter().filter_map(granted).collect();
        Ok((Schedule::from_sorted(frame, ranges)?, makespan as u32))
    }

    /// Earliest start of every demanded link when conflicting links
    /// transmit in `(rank, link)` order — the longest-path layout of that
    /// order, taken in one pass because the sweep visits a link after
    /// every link that precedes it. Writes the trial ranges, returns the
    /// makespan.
    fn sweep_starts(&mut self) -> u64 {
        let Scratch {
            vertex_of,
            turn,
            end,
            ..
        } = &mut self.scratch;
        for (v, l) in self.graph.links().iter().enumerate() {
            vertex_of[l.index()] = v as u32;
        }
        turn.clear();
        turn.resize(self.graph.vertex_count(), 0);
        end.clear();
        end.resize(self.graph.vertex_count(), 0);
        for (t, &(_, l)) in self.sweep.iter().enumerate() {
            turn[vertex_of[l.index()] as usize] = t as u32;
        }
        let mut makespan = 0u64;
        for (t, &(_, l)) in self.sweep.iter().enumerate() {
            let v = vertex_of[l.index()] as usize;
            let mut start = 0u64;
            for &u in self.graph.neighbors(v) {
                if turn[u] < t as u32 {
                    start = start.max(end[u]);
                }
            }
            let state = &mut self.links[l.index()];
            end[v] = start + u64::from(state.demand);
            makespan = makespan.max(end[v]);
            // A start past `u32` only occurs in a layout the frame check
            // refuses.
            state.trial = Some(SlotRange {
                start: u32::try_from(start).unwrap_or(u32::MAX),
                len: state.demand,
            });
        }
        makespan
    }

    /// Makes `schedule` the trial layout and derives the delay bounds it
    /// gives. The solver that produced it (or, on restore, nothing — the
    /// state is loaded verbatim) has done the deadline checks; the walk
    /// only fails on a schedule that leaves a route's link out.
    fn adopt(&mut self, schedule: &Schedule) -> Result<(), ScheduleError> {
        for (l, range) in schedule.iter() {
            self.links[l.index()].trial = Some(range);
        }
        self.walk_routes(false)
    }

    /// One walk of every admitted flow's route over the trial layout:
    /// the pipeline delay checked against the flow's budget (when
    /// `enforce`), and the worst-case bound (source wait + pipeline +
    /// control subframes) into `scratch.delays`.
    fn walk_routes(&mut self, enforce: bool) -> Result<(), ScheduleError> {
        let frame = self.mesh.model().frame();
        let mesh_frame = self.mesh.model().mesh_frame();
        let (frame_duration, ctrl) = (mesh_frame.frame_duration(), mesh_frame.ctrl_duration());
        self.scratch.delays.clear();
        for (f, m) in self.outcome.admitted.iter().zip(&self.meta) {
            let hops = f.path.links().iter().map(|l| self.links[l.index()].trial);
            let (pipeline, wraps) = delay::relay_walk(u64::from(frame.slots()), hops)
                .ok_or(ScheduleError::Infeasible)?;
            if enforce && m.budget.is_some_and(|budget| pipeline > budget) {
                return Err(ScheduleError::Infeasible);
            }
            self.scratch
                .delays
                .push(frame_duration + frame.slots_to_duration(pipeline) + ctrl * wraps as u32);
        }
        Ok(())
    }

    /// Publishes a layout [`QosSession::solve`] (or a load) left on
    /// trial: every flow's delay bound, the schedule and order, and the
    /// count of ranges the operation moved.
    fn publish(&mut self, (schedule, used): Layout) {
        let moved = ranges_moved(&self.outcome.schedule, &schedule);
        self.stats.ranges_moved += moved;
        wimesh_obs::counter_add("session.ranges_moved", moved);
        for (f, &bound) in self.outcome.admitted.iter_mut().zip(&self.scratch.delays) {
            f.worst_case_delay = bound;
        }
        self.outcome.schedule = schedule;
        self.outcome.guaranteed_slots = used;
    }

    /// [`QosSession::publish`] for an admit: the flows from position
    /// `base` on are no longer on trial.
    fn publish_admitted(&mut self, base: usize, layout: Layout) {
        self.publish(layout);
        for (f, m) in self.outcome.admitted[base..].iter().zip(&self.meta[base..]) {
            self.seq_of.insert(f.spec.id, m.seq);
        }
    }
}

/// Enters a flow into the `crossing` list of every link on its route, at
/// its place in admission order, and marks the links touched.
fn attach(
    links: &mut [LinkState],
    touched: &mut Vec<LinkId>,
    seq: u64,
    spec: &FlowSpec,
    path: &Path,
) {
    for (hop, &l) in path.links().iter().enumerate() {
        let crossing = &mut links[l.index()].crossing;
        let at = crossing.partition_point(|c| c.seq <= seq);
        crossing.insert(
            at,
            Crossing {
                seq,
                hop: hop as u32,
                rate_bps: spec.rate_bps,
                burst_bytes: u64::from(spec.burst_bytes),
            },
        );
        touched.push(l);
    }
}

/// The inverse of [`attach`].
fn detach(links: &mut [LinkState], touched: &mut Vec<LinkId>, seq: u64, path: &Path) {
    for &l in path.links() {
        links[l.index()].crossing.retain(|c| c.seq != seq);
        touched.push(l);
    }
}

/// Takes `item` out of an ascending vector.
fn sorted_remove<T: Ord>(sorted: &mut Vec<T>, item: &T) {
    if let Ok(at) = sorted.binary_search(item) {
        sorted.remove(at);
    }
}

/// Puts `item` into an ascending vector, at its place.
fn sorted_insert<T: Ord>(sorted: &mut Vec<T>, item: T) {
    let at = sorted.binary_search(&item).unwrap_or_else(|at| at);
    sorted.insert(at, item);
}

/// Links whose range appeared, vanished or changed from `old` to `new`:
/// one merge walk over the two schedules, both ascending by link.
fn ranges_moved(old: &Schedule, new: &Schedule) -> u64 {
    let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
    let mut moved = 0;
    loop {
        let step = match (old.peek(), new.peek()) {
            (None, None) => return moved,
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (Some((a, _)), Some((b, _))) => a.cmp(b),
        };
        let (before, after) = (
            step.is_le().then(|| old.next()).flatten(),
            step.is_ge().then(|| new.next()).flatten(),
        );
        moved += u64::from(before != after);
    }
}

/// Appends to the rejection log, dropping the oldest entry at the cap.
fn log_reject(log: &mut Vec<(FlowSpec, RejectReason)>, spec: &FlowSpec, reason: &RejectReason) {
    if log.len() >= QosSession::REJECT_LOG_CAP {
        log.remove(0);
    }
    log.push((spec.clone(), reason.clone()));
}

fn empty_outcome(model: &EmulationModel) -> AdmissionOutcome {
    #[expect(
        clippy::expect_used,
        reason = "no ranges to overflow: an empty schedule fits any frame"
    )]
    let schedule =
        Schedule::from_sorted(model.frame(), Vec::new()).expect("an empty schedule fits any frame");
    AdmissionOutcome {
        admitted: Vec::new(),
        rejected: Vec::new(),
        schedule,
        guaranteed_slots: 0,
    }
}

/// The fast reject of the exact and approximation searches, and their
/// lower bound. Links of a clique of the conflict graph can never share a
/// minislot, so no schedule uses fewer minislots than a clique's total
/// demand: a request whose bound exceeds the frame dies before any solver
/// runs (counted in [`SessionStats::clique_prunes`] and as
/// `admission.clique_prunes`); otherwise the bound (one minislot at
/// least) is returned. Subtracted from the realised region it is a true
/// upper bound on the optimality gap ([`SessionStats::approx_gap`]).
///
/// The clique is [`heaviest_clique`]'s — one maximal clique grown per
/// link, heaviest common neighbour first, and the clique cover's own
/// cliques — which is a heuristic, not the maximum-weight clique: the
/// bound is a sound floor whichever clique it finds, and every search
/// above it closes the remaining gap with the oracle.
fn clique_prune(
    graph: &ConflictGraph,
    demand_of: impl Fn(LinkId) -> u32,
    frame: FrameConfig,
    stats: &mut SessionStats,
) -> Result<u32, ScheduleError> {
    // Looked up once per vertex: the growth loop weighs each many times.
    let weights: Vec<u64> = graph
        .links()
        .iter()
        .map(|&l| u64::from(demand_of(l)))
        .collect();
    let (_, weight) = heaviest_clique(graph, |v| weights[v]);
    let lower = u32::try_from(weight).unwrap_or(u32::MAX).max(1);
    if lower > frame.slots() {
        stats.clique_prunes += 1;
        wimesh_obs::counter_inc("admission.clique_prunes");
        return Err(ScheduleError::FrameTooShort {
            needed: lower,
            available: frame.slots(),
        });
    }
    Ok(lower)
}

/// The exact minislot search: the least `used` for which the order MILP
/// ([`feasible_order_within`]) is feasible. The paper's formulation is a
/// linear scan upward from 1 (it survives as the reference of
/// `tests/exact_search_equivalence.rs`); this is a binary search between
/// two bounds, seeded by the persisted order.
///
/// Correctness rests on two facts:
///
/// 1. **Monotonicity**: the feasibility predicate is monotone
///    non-decreasing in `used`. The horizon appears only as the upper
///    bound on start times (`sigma <= used - d`) and as the big-M in the
///    order disjunctions — both relax as `used` grows — while deadline
///    and wrap costs depend on the (fixed) frame length, not on `used`.
///    Any point feasible at `used` therefore stays feasible at
///    `used + 1`: the first feasible value of a linear scan is the exact
///    minimum, every smaller value is infeasible without re-checking, and
///    a binary search over `[lower bound, frame]` finds that same value.
///    Skipping everything below the clique bound is safe for the reason
///    [`clique_prune`] gives.
/// 2. **Makespan reuse**: a feasible solution whose schedule occupies
///    `m` minislots satisfies every constraint of the oracle at any
///    horizon `>= m` (start times are unchanged; shrinking the horizon
///    to `m` only tightens big-M terms that the witness satisfies
///    directly). Each "yes" answer therefore drops the upper bound to
///    its makespan at no extra cost.
///
/// The warm order only ever *adds* a feasibility certificate (its
/// validated schedule is real); an infeasibility verdict still requires
/// MILP answers for every value below the returned minimum, so verdicts
/// do not depend on what the session has seen before.
///
/// The oracle is paid only inside the gap the two bounds leave: below
/// `lo` the heaviest clique already says no, at `hi` the candidate order
/// already says yes. A request whose clique bound exceeds the frame is
/// refused before anything else runs (`clique_prunes`), a solve whose
/// bounds meet makes no oracle call (`session.search.closed_by_bounds`),
/// and the width of the gap the binary loop starts from is the
/// `session.search.gap` gauge.
fn exact_search_warm(
    model: &EmulationModel,
    graph: &ConflictGraph,
    demands: &Demands,
    reqs: &[PathRequirement],
    warm: Option<&[(LinkId, LinkId)]>,
    stats: &mut SessionStats,
) -> Result<Layout, ScheduleError> {
    let _span = wimesh_obs::span!("session.search");
    let frame = model.frame();
    let total = frame.slots();
    let mut lo = clique_prune(graph, |l| demands.get(l), frame, stats)?;

    // The candidate order: the persisted warm order (replayed through
    // link pairs, so graph reindexing cannot corrupt it), with conflict
    // edges it does not decide — new links, typically — filled in from
    // the hop heuristic over the current paths.
    let hop = order::hop_order(graph, reqs.iter().map(|r| &r.path));
    let candidate = match warm {
        Some(pairs) => {
            let mut o = TransmissionOrder::from_link_pairs(graph, pairs);
            for (i, j) in graph.edges() {
                if o.before(i, j).is_none() {
                    if let Some(b) = hop.before(i, j) {
                        o.set(i, j, b);
                    }
                }
            }
            o
        }
        None => hop,
    };

    // Upper bound: Bellman–Ford validation of the candidate order. A hit
    // is a real schedule — it bounds the answer by its makespan without
    // touching the MILP. A miss proves nothing; fall back to one oracle
    // call at the full frame to settle feasibility at all.
    //
    // The oracle stops at its first feasible point, so its layout may
    // leave gaps: each "yes" is replayed as the earliest-start layout of
    // its order, which is the layout the session publishes, and whose
    // makespan is the tightest upper bound the answer gives. Pulling every
    // link to its earliest start can lengthen a wait past a tight
    // deadline; the oracle's own start times stay the fallback then.
    let calls_before = stats.oracle_calls;
    let solver = SolverConfig::default();
    let oracle = |used: u32, stats: &mut SessionStats| {
        stats.oracle_calls += 1;
        wimesh_obs::counter_inc("session.oracle.calls");
        let started = std::time::Instant::now();
        let step = feasible_order_within(graph, demands, reqs, frame, used, &solver).map(|sol| {
            validate_order_within(graph, demands, reqs, frame, used, &sol.order).unwrap_or(sol)
        });
        wimesh_obs::record_duration("session.search.step", started.elapsed());
        step
    };

    stats.search_iterations += 1;
    let mut best: OrderSolution;
    match validate_order_within(graph, demands, reqs, frame, total, &candidate) {
        Some(sol) => {
            stats.oracle_calls_saved += 1;
            wimesh_obs::counter_inc("session.oracle.saved");
            if warm.is_some() {
                stats.warm_order_hits += 1;
                wimesh_obs::counter_inc("session.warm.hits");
            }
            best = sol;
        }
        None => match oracle(total, stats) {
            Ok(sol) => best = sol,
            Err(e) => return Err(e),
        },
    }
    let mut hi = best.schedule.makespan().max(1);
    debug_assert!(hi >= lo, "a feasible makespan cannot beat the lower bound");
    if lo < hi {
        wimesh_obs::gauge_set("session.search.gap", f64::from(hi - lo));
    }

    // Invariants: `best` realises `hi`; every value below `lo` is
    // infeasible (by the clique bound, then by oracle "no" answers).
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        stats.search_iterations += 1;
        match oracle(mid, stats) {
            Ok(sol) => {
                hi = sol.schedule.makespan().max(1);
                debug_assert!(hi <= mid);
                best = sol;
            }
            Err(ScheduleError::Infeasible) => lo = mid + 1,
            Err(e) => return Err(e),
        }
    }
    if stats.oracle_calls == calls_before {
        wimesh_obs::counter_inc("session.search.closed_by_bounds");
    }
    Ok((best.schedule, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_sim::traffic::VoipCodec;
    use wimesh_topology::generators;
    use wimesh_topology::NodeId;

    fn mesh(n: usize) -> MeshQos {
        MeshQos::builder(generators::chain(n)).build().unwrap()
    }

    fn gateway_calls(n: u32, far: u32) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| FlowSpec::voip(i, NodeId(far - (i % 2)), NodeId(0), VoipCodec::G729))
            .collect()
    }

    #[test]
    fn churn_reuses_warm_state() {
        let mesh = mesh(5);
        let flows = gateway_calls(3, 4);
        let mut session = mesh.session(OrderPolicy::ExactMilp);
        for f in &flows {
            assert!(session.admit(f).unwrap().is_admitted());
        }
        let calls_after_admits = session.stats().oracle_calls;
        // Release one flow: the restricted warm order certifies the
        // remaining set through Bellman-Ford, and the binary search only
        // spends oracle calls proving minimality below the makespan.
        assert!(session.release(flows[1].id).unwrap());
        assert!(session.stats().warm_order_hits >= 1);
        assert!(session.stats().oracle_calls_saved >= 1);
        // Re-admit: again warm-startable.
        assert!(session.admit(&flows[1]).unwrap().is_admitted());
        let stats = session.stats();
        assert_eq!(stats.admits, 4);
        assert_eq!(stats.releases, 1);
        assert!(stats.incremental_updates > 0, "graph must update in place");
        assert_eq!(stats.graph_rebuilds, 0);
        assert!(
            stats.oracle_calls > calls_after_admits - 1 || stats.oracle_calls_saved >= 2,
            "churn must be answered by warm state or few oracle calls"
        );
        // All still admitted.
        assert_eq!(session.snapshot().admitted.len(), 3);
    }

    /// A 2 Mbit/s flow across `mesh(3)`: a handful saturate the chain.
    fn big_flow(id: u32) -> FlowSpec {
        FlowSpec::guaranteed(
            id,
            NodeId(2),
            NodeId(0),
            2_000_000.0,
            std::time::Duration::from_millis(200),
        )
    }

    #[test]
    fn rejection_rolls_the_graph_back() {
        let mesh = mesh(3);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        // Saturate: 2 Mbit/s flows until one rejects.
        let mut rejected_at = None;
        for i in 0..12 {
            if !session.admit(&big_flow(i)).unwrap().is_admitted() {
                rejected_at = Some(i);
                break;
            }
        }
        let rejected_at = rejected_at.expect("overload must reject");
        let admitted = session.snapshot().admitted.len();
        assert_eq!(admitted as u32, rejected_at);
        // The schedule is still the last feasible one and further admits
        // still work (graph rollback left a consistent state).
        let small = FlowSpec::voip(99, NodeId(2), NodeId(0), VoipCodec::G729);
        let verdict = session.admit(&small).unwrap();
        // Whatever the verdict, the snapshot stays consistent.
        let snap = session.snapshot();
        assert!(snap.guaranteed_slots <= snap.frame_slots());
        if verdict.is_admitted() {
            assert_eq!(snap.admitted.len(), admitted + 1);
        }
    }

    #[test]
    fn rejection_log_keeps_the_newest_cap_entries() {
        let mesh = mesh(3);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let mut next = 0;
        while session.admit(&big_flow(next)).unwrap().is_admitted() {
            next += 1;
        }
        let full = session.export_state();
        let cap = QosSession::REJECT_LOG_CAP as u32;
        // The chain is full: every further request is one more reject.
        let last = next + 10 * cap;
        for i in next + 1..=last {
            assert!(!session.admit(&big_flow(i)).unwrap().is_admitted());
        }
        let log = &session.snapshot().rejected;
        assert_eq!(log.len(), cap as usize);
        assert_eq!(log[0].0.id, FlowId(last - cap + 1));
        assert_eq!(log[log.len() - 1].0.id, FlowId(last));
        assert_eq!(session.export_state(), full);
    }

    #[test]
    fn release_unknown_flow_is_noop() {
        let mesh = mesh(4);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        assert!(!session.release(FlowId(7)).unwrap());
        let f = FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711);
        session.admit(&f).unwrap();
        assert!(!session.release(FlowId(7)).unwrap());
        assert_eq!(session.snapshot().admitted.len(), 1);
        assert!(session.release(FlowId(0)).unwrap());
        assert!(session.snapshot().admitted.is_empty());
        assert_eq!(session.snapshot().guaranteed_slots, 0);
    }

    /// Five flows that fill `chain(6)` under `HopOrder`; without flow 3
    /// the recomputed hop order needs 33 of the frame's 32 minislots.
    fn near_capacity_flows() -> Vec<FlowSpec> {
        [
            (0, 5, 700_000.0),
            (1, 0, 700_000.0),
            (1, 4, 700_000.0),
            (4, 0, 100_000.0),
            (1, 3, 600_000.0),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (src, dst, rate))| {
            let deadline = std::time::Duration::from_millis(150);
            FlowSpec::guaranteed(id as u32, NodeId(src), NodeId(dst), rate, deadline)
        })
        .collect()
    }

    #[test]
    fn release_near_capacity_keeps_the_previous_order() {
        let mesh = mesh(6);
        let flows = near_capacity_flows();
        let remaining: Vec<FlowSpec> = flows.iter().filter(|f| f.id.0 != 3).cloned().collect();
        let fresh = mesh.admit(&remaining, OrderPolicy::HopOrder).unwrap();
        assert_eq!(
            fresh.rejected.len(),
            1,
            "the subset's own hop order overflows"
        );

        // Every greedy key lays out the same `(rank, link)` sweep as the
        // hop order, so it has the same fallback.
        let greedy = OrderPolicy::GreedySequential {
            key: admission::GreedyKey::Demand,
        };
        for policy in [OrderPolicy::HopOrder, greedy] {
            let mut session = mesh.session(policy);
            for f in &flows {
                assert!(session.admit(f).unwrap().is_admitted(), "{policy:?}");
            }
            assert!(session.release(FlowId(3)).unwrap(), "{policy:?}");
            let snap = session.snapshot();
            assert_eq!(snap.admitted.len(), 4);
            assert!(snap.guaranteed_slots <= snap.frame_slots());
            assert!(snap.schedule.validate(&session.graph).is_ok());
            for f in &snap.admitted {
                assert!(f.worst_case_delay <= f.spec.deadline.unwrap());
            }
            // The kept order is ordinary warm state: it round-trips and the
            // session keeps admitting and releasing from it.
            let restored = mesh.restore_session(&session.export_state()).unwrap();
            assert_eq!(restored.export_state(), session.export_state());
            assert!(session.release(FlowId(0)).unwrap());
        }
    }

    /// The per-link and per-flow state against the admitted set it must
    /// be a function of: every crossing list holds exactly the flows
    /// routed over the link, in admission order; the sweep and the graph
    /// hold exactly the demanded links.
    fn assert_state_consistent(session: &QosSession) {
        let admitted = &session.outcome.admitted;
        assert_eq!(admitted.len(), session.meta.len());
        assert_eq!(admitted.len(), session.seq_of.len());
        assert!(session.meta.windows(2).all(|w| w[0].seq < w[1].seq));
        for (index, state) in session.links.iter().enumerate() {
            let link = LinkId(index as u32);
            let expected: Vec<(u64, u32)> = admitted
                .iter()
                .zip(&session.meta)
                .flat_map(|(f, m)| {
                    let hops = f.path.links().iter().enumerate();
                    hops.filter(move |(_, &l)| l == link)
                        .map(|(hop, _)| (m.seq, hop as u32))
                })
                .collect();
            let held: Vec<(u64, u32)> = state.crossing.iter().map(|c| (c.seq, c.hop)).collect();
            assert_eq!(held, expected, "crossing list of {link}");
            assert_eq!(state.demand > 0, !expected.is_empty());
            assert_eq!(state.demand > 0, session.graph.index_of(link).is_some());
            let entry = session.sweep.binary_search(&(state.rank, link));
            assert_eq!(state.demand > 0, entry.is_ok(), "sweep entry of {link}");
        }
        assert!(session.sweep.windows(2).all(|w| w[0] < w[1]));
        let mut by_id: Vec<LinkId> = session.sweep.iter().map(|&(_, l)| l).collect();
        by_id.sort_unstable();
        assert_eq!(by_id, session.demanded);
        assert_eq!(session.sweep.len(), session.graph.vertex_count());
        for f in admitted {
            assert!(session.seq_of.contains_key(&f.spec.id));
        }
    }

    #[test]
    fn a_failed_release_is_undone_by_the_inverse_delta() {
        let mesh = MeshQos::builder(generators::grid(3, 3)).build().unwrap();
        // Without flow 1, neither the recomputed hop order nor the previous
        // one meets every deadline: earlier starts can cost a route a wrap.
        let deadline = Duration::from_micros;
        let flows = [
            (0, 1, 250_000.0, deadline(24_220)),
            (1, 4, 270_000.0, deadline(26_720)),
            (3, 7, 40_000.0, deadline(20_440)),
        ];
        let mut session = mesh.session(OrderPolicy::HopOrder);
        for (id, (src, dst, rate, deadline)) in flows.into_iter().enumerate() {
            let f = FlowSpec::guaranteed(id as u32, NodeId(src), NodeId(dst), rate, deadline);
            assert!(session.admit(&f).unwrap().is_admitted());
        }
        assert_state_consistent(&session);
        let before = session.export_state();
        let bounds: Vec<Duration> = session
            .snapshot()
            .admitted
            .iter()
            .map(|f| f.worst_case_delay)
            .collect();

        assert!(session.release(FlowId(1)).is_err());
        assert_eq!(session.export_state(), before);
        let after: Vec<Duration> = session
            .snapshot()
            .admitted
            .iter()
            .map(|f| f.worst_case_delay)
            .collect();
        assert_eq!(after, bounds);
        // Flow 1 is back in the middle of every list it was in, so the
        // per-link sums still add in admission order.
        assert_state_consistent(&session);
        assert_eq!(session.stats().releases, 0);

        // The session keeps working from the restored state.
        assert!(session.release(FlowId(0)).unwrap());
        assert_state_consistent(&session);
        assert!(session.rebalance().is_ok());
        assert_state_consistent(&session);
    }

    #[test]
    fn duplicate_ids_are_rejected_not_double_booked() {
        let mesh = mesh(5);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let call = FlowSpec::voip(7, NodeId(4), NodeId(0), VoipCodec::G711);
        assert!(session.admit(&call).unwrap().is_admitted());
        let booked = session.export_state();

        // A retried request, on the shortest route or an explicit one.
        let again = session.admit(&call).unwrap();
        assert_eq!(again.rejected(), Some(&RejectReason::DuplicateFlow));
        let route = shortest_path(mesh.topology(), call.src, call.dst).unwrap();
        let via = session.admit_via(&call, route).unwrap();
        assert_eq!(via.rejected(), Some(&RejectReason::DuplicateFlow));
        assert_eq!(session.export_state(), booked);
        assert_eq!(session.snapshot().admitted.len(), 1);
        assert_eq!(session.snapshot().rejected.len(), 2);
        assert_state_consistent(&session);

        // One release frees the id and every slot it held.
        assert!(session.release(call.id).unwrap());
        assert!(session.snapshot().admitted.is_empty());
        assert_eq!(session.snapshot().guaranteed_slots, 0);
        assert!(!session.release(call.id).unwrap());
        assert!(session.admit(&call).unwrap().is_admitted());
    }

    #[test]
    fn admit_via_a_path_to_the_wrong_node_is_a_config_error() {
        let mesh = mesh(5);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let first = FlowSpec::voip(1, NodeId(3), NodeId(0), VoipCodec::G711);
        assert!(session.admit(&first).unwrap().is_admitted());
        let booked = session.export_state();
        let admits = session.stats().admits;

        let call = FlowSpec::voip(2, NodeId(4), NodeId(0), VoipCodec::G711);
        let wrong = shortest_path(mesh.topology(), call.src, NodeId(1)).unwrap();
        let err = session.admit_via(&call, wrong).unwrap_err();
        assert!(matches!(err, QosError::Config(_)), "{err:?}");
        assert_eq!(session.export_state(), booked);
        assert_eq!(session.stats().admits, admits);
        assert_state_consistent(&session);
    }

    #[test]
    fn admit_batch_admits_the_first_of_a_repeated_id() {
        let mesh = mesh(5);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let live = FlowSpec::voip(0, NodeId(2), NodeId(0), VoipCodec::G729);
        assert!(session.admit(&live).unwrap().is_admitted());
        let specs = vec![
            FlowSpec::voip(1, NodeId(4), NodeId(0), VoipCodec::G729),
            FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G729),
            FlowSpec::voip(1, NodeId(3), NodeId(0), VoipCodec::G711),
            FlowSpec::voip(2, NodeId(1), NodeId(0), VoipCodec::G729),
        ];
        let verdicts = session.admit_batch(&specs).unwrap();
        assert!(verdicts[0].is_admitted());
        assert_eq!(verdicts[1].rejected(), Some(&RejectReason::DuplicateFlow));
        assert_eq!(verdicts[2].rejected(), Some(&RejectReason::DuplicateFlow));
        assert!(verdicts[3].is_admitted());
        assert_eq!(session.stats().admits, 5);
        assert_eq!(session.stats().coalesced_admits, 1);
        let admitted = &session.snapshot().admitted;
        let ids: Vec<u32> = admitted.iter().map(|f| f.spec.id.0).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(admitted[1].spec, specs[0], "the first occurrence won");
        assert_state_consistent(&session);
    }

    #[test]
    fn restore_refuses_a_state_that_lists_a_flow_twice() {
        let mesh = mesh(5);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        session.admit_batch(&gateway_calls(2, 4)).unwrap();
        let mut state = session.export_state();
        state.flows[1].spec.id = state.flows[0].spec.id;
        match mesh.restore_session(&state) {
            Err(QosError::Config(why)) => assert!(why.contains("twice"), "{why}"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_ranges_listed_twice_or_out_of_order() {
        let mesh = mesh(5);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        session.admit_batch(&gateway_calls(2, 4)).unwrap();
        let state = session.export_state();
        assert!(state.ranges.len() >= 2);
        // A first copy that contradicts the second: a map kept the last.
        let mut twice = state.clone();
        let (link, mut range) = twice.ranges[0];
        range.start += 1;
        twice.ranges.insert(0, (link, range));
        let mut swapped = state.clone();
        swapped.ranges.swap(0, 1);
        for bad in [twice, swapped] {
            match mesh.restore_session(&bad) {
                Err(QosError::Config(why)) => assert!(why.contains("listed after"), "{why}"),
                other => panic!("expected a config error, got {other:?}"),
            }
        }
    }

    /// `from_ranks(..).link_pairs(..)`, sorted, over the graph of `links`:
    /// the pairs of the rank order `policy` gives `flows`.
    fn rank_pairs(
        mesh: &MeshQos,
        policy: OrderPolicy,
        flows: &[AdmittedFlow],
        links: Vec<LinkId>,
    ) -> Vec<(LinkId, LinkId)> {
        let topo = mesh.topology();
        let graph = ConflictGraph::build_for_links(topo, links, mesh.interference());
        let tree = match policy {
            OrderPolicy::TreeOrder { gateway } => {
                order::tree_ranks(topo, &GatewayRouting::new(topo, gateway).unwrap())
            }
            _ => Vec::new(),
        };
        let hop = |l: LinkId| {
            let hops = flows
                .iter()
                .filter_map(|f| f.path.links().iter().position(|&x| x == l));
            hops.max().unwrap() as u64
        };
        let rank = |l: LinkId| tree.get(l.index()).copied().unwrap_or_else(|| hop(l));
        let mut pairs = TransmissionOrder::from_ranks(&graph, rank).link_pairs(&graph);
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn rank_policies_export_the_pairs_of_their_published_ranks() {
        let mesh = mesh(6);
        for policy in [
            OrderPolicy::HopOrder,
            OrderPolicy::TreeOrder { gateway: NodeId(0) },
        ] {
            let expect = |session: &QosSession, flows: &[AdmittedFlow]| {
                let links = session.snapshot().schedule.links().collect();
                let pairs = rank_pairs(&mesh, policy, flows, links);
                assert_eq!(session.export_state().warm_pairs, pairs, "{policy:?}");
            };
            // The tree order has no room for every one of these flows.
            let mut session = mesh.session(policy);
            for f in &near_capacity_flows() {
                session.admit(f).unwrap();
                expect(&session, &session.snapshot().admitted);
            }
            let superset = session.snapshot().admitted.clone();
            assert!(!session.admit(&big_flow(9)).unwrap().is_admitted());
            expect(&session, &superset);

            // Under the hop order the release keeps the superset's ranks,
            // which differ from the subset's own.
            let gone = superset.iter().map(|f| f.spec.id).find(|&id| id.0 >= 3);
            assert!(session.release(gone.unwrap()).unwrap());
            expect(&session, &superset);
            let remaining = session.snapshot().admitted.clone();
            if policy == OrderPolicy::HopOrder {
                let links = session.snapshot().schedule.links().collect();
                let own = rank_pairs(&mesh, policy, &remaining, links);
                assert_ne!(session.export_state().warm_pairs, own);
            }
            let restored = mesh.restore_session(&session.export_state()).unwrap();
            expect(&restored, &superset);

            session.rebalance().unwrap();
            expect(&session, &session.snapshot().admitted);
        }
    }

    #[test]
    fn ranges_moved_counts_appeared_vanished_and_changed_ranges() {
        let mesh = mesh(5);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let far = FlowSpec::voip(0, NodeId(4), NodeId(0), VoipCodec::G711);
        assert!(session.admit(&far).unwrap().is_admitted());
        assert_eq!(session.stats().ranges_moved, 4, "four ranges appeared");

        // A rejected admit publishes nothing.
        let mut id = 100;
        while session.admit(&big_flow(id)).unwrap().is_admitted() {
            id += 1;
        }
        let before = session.stats().ranges_moved;
        assert!(!session.admit(&big_flow(id + 1)).unwrap().is_admitted());
        assert_eq!(session.stats().ranges_moved, before);

        // Whatever an operation moves is the difference of the two
        // published schedules.
        let old = session.snapshot().schedule.clone();
        assert!(session.release(far.id).unwrap());
        let new = &session.snapshot().schedule;
        let mut links: Vec<LinkId> = old.links().chain(new.links()).collect();
        links.sort_unstable();
        links.dedup();
        let differing = links
            .iter()
            .filter(|&&l| old.slot_range(l) != new.slot_range(l))
            .count() as u64;
        assert!(differing >= 2, "links 4->3 and 3->2 lost their ranges");
        assert_eq!(session.stats().ranges_moved, before + differing);
    }

    #[test]
    fn rebalance_restores_cold_state() {
        let mesh = mesh(5);
        let flows = gateway_calls(4, 4);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        for f in &flows {
            session.admit(f).unwrap();
        }
        session.release(flows[0].id).unwrap();
        let before = session.snapshot().guaranteed_slots;
        session.rebalance().unwrap();
        assert_eq!(session.stats().graph_rebuilds, 1);
        let snap = session.snapshot();
        assert_eq!(snap.admitted.len(), 3);
        assert_eq!(
            snap.guaranteed_slots, before,
            "rebalance of a clean session is stable"
        );
        // Matches a batch admission of the remaining flows.
        let batch = mesh.admit(&flows[1..], OrderPolicy::HopOrder).unwrap();
        assert_eq!(snap.guaranteed_slots, batch.guaranteed_slots);
        assert_eq!(snap.admitted.len(), batch.admitted.len());
        // The session keeps working after the rebuild.
        assert!(session.admit(&flows[0]).unwrap().is_admitted());
    }

    #[test]
    fn admit_batch_coalesces_into_one_solve_and_matches_sequential() {
        let mesh = mesh(5);
        let flows = gateway_calls(4, 4);

        let mut sequential = mesh.session(OrderPolicy::ExactMilp);
        for f in &flows {
            assert!(sequential.admit(f).unwrap().is_admitted());
        }

        let mut batched = mesh.session(OrderPolicy::ExactMilp);
        let verdicts = batched.admit_batch(&flows).unwrap();
        assert_eq!(verdicts.len(), flows.len());
        assert!(verdicts.iter().all(FlowAdmission::is_admitted));
        assert_eq!(batched.stats().batch_solves, 1);
        assert_eq!(batched.stats().coalesced_admits, 3);
        assert_eq!(batched.stats().admits, 4);

        // Same admitted set and the same minimal guaranteed region.
        let (s, b) = (sequential.snapshot(), batched.snapshot());
        assert_eq!(s.admitted.len(), b.admitted.len());
        assert_eq!(s.guaranteed_slots, b.guaranteed_slots);
        // Verdict order matches input order.
        for (v, f) in verdicts.iter().zip(&flows) {
            assert_eq!(v.admitted().unwrap().spec.id, f.id);
        }
    }

    #[test]
    fn admit_batch_falls_back_per_flow_when_the_batch_does_not_fit() {
        let mesh = mesh(3);
        // A batch that cannot fit as a whole: heavy flows saturating the
        // 2-hop chain. The fallback must admit the feasible prefix and
        // reject the rest, exactly like one-at-a-time admission.
        let specs: Vec<FlowSpec> = (0..12)
            .map(|i| {
                FlowSpec::guaranteed(
                    i,
                    NodeId(2),
                    NodeId(0),
                    2_000_000.0,
                    std::time::Duration::from_millis(200),
                )
            })
            .collect();

        let mut sequential = mesh.session(OrderPolicy::HopOrder);
        for f in &specs {
            sequential.admit(f).unwrap();
        }
        let mut batched = mesh.session(OrderPolicy::HopOrder);
        let verdicts = batched.admit_batch(&specs).unwrap();

        assert_eq!(batched.stats().batch_solves, 0, "whole batch cannot fit");
        let admitted: Vec<u32> = verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_admitted())
            .map(|(i, _)| i as u32)
            .collect();
        let expected: Vec<u32> = sequential
            .snapshot()
            .admitted
            .iter()
            .map(|f| f.spec.id.0)
            .collect();
        assert_eq!(admitted, expected, "fallback equals per-flow admission");
        assert_eq!(
            batched.snapshot().guaranteed_slots,
            sequential.snapshot().guaranteed_slots
        );
    }

    #[test]
    fn admit_batch_vets_every_spec_and_keeps_input_order() {
        let mut topo = generators::chain(4);
        let isolated = topo.add_node();
        let mesh = MeshQos::builder(topo).build().unwrap();
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let specs = vec![
            FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G729),
            FlowSpec::voip(1, isolated, NodeId(0), VoipCodec::G729),
            FlowSpec::voip(2, NodeId(2), NodeId(0), VoipCodec::G729),
        ];
        let verdicts = session.admit_batch(&specs).unwrap();
        assert!(verdicts[0].is_admitted());
        assert!(matches!(
            verdicts[1].rejected(),
            Some(RejectReason::NoRoute)
        ));
        assert!(verdicts[2].is_admitted());
        assert_eq!(session.snapshot().admitted.len(), 2);
        assert_eq!(session.snapshot().rejected.len(), 1);
        assert_eq!(session.stats().admits, 3);
    }

    #[test]
    fn export_restore_roundtrip_is_bit_identical() {
        for policy in [OrderPolicy::HopOrder, OrderPolicy::ExactMilp] {
            let mesh = mesh(5);
            let flows = gateway_calls(4, 4);
            let mut session = mesh.session(policy);
            session.admit_batch(&flows).unwrap();
            assert!(session.release(flows[1].id).unwrap());

            let state = session.export_state();
            let restored = mesh.restore_session(&state).unwrap();

            // Bit-identical: same flows, same slot layout, same region.
            let (a, b) = (session.snapshot(), restored.snapshot());
            assert_eq!(a.guaranteed_slots, b.guaranteed_slots);
            assert_eq!(a.admitted.len(), b.admitted.len());
            for (x, y) in a.admitted.iter().zip(&b.admitted) {
                assert_eq!(x.spec, y.spec);
                assert_eq!(x.slots_per_link, y.slots_per_link);
                assert_eq!(x.worst_case_delay, y.worst_case_delay);
            }
            let links_a: Vec<_> = a.schedule.links().collect();
            let links_b: Vec<_> = b.schedule.links().collect();
            assert_eq!(links_a, links_b);
            for l in links_a {
                assert_eq!(a.schedule.slot_range(l), b.schedule.slot_range(l));
            }
            // Re-exporting reproduces the state exactly.
            assert_eq!(restored.export_state(), state);
            // The restored session keeps working, warm state included.
            let mut restored = restored;
            assert!(restored.admit(&flows[1]).unwrap().is_admitted());
        }
    }

    #[test]
    fn restore_rejects_tampered_states() {
        let mesh = mesh(5);
        let flows = gateway_calls(3, 4);
        let mut session = mesh.session(OrderPolicy::HopOrder);
        session.admit_batch(&flows).unwrap();
        let state = session.export_state();

        // Empty session restores to an empty session.
        let empty = mesh.session(OrderPolicy::HopOrder).export_state();
        assert_eq!(
            mesh.restore_session(&empty)
                .unwrap()
                .snapshot()
                .admitted
                .len(),
            0
        );

        // Wrong reservation count.
        let mut bad = state.clone();
        bad.flows[0].slots_per_link += 1;
        assert!(matches!(
            mesh.restore_session(&bad),
            Err(QosError::Config(_))
        ));

        // Claimed region contradicts the slot layout.
        let mut bad = state.clone();
        bad.guaranteed_slots += 1;
        assert!(matches!(
            mesh.restore_session(&bad),
            Err(QosError::Config(_))
        ));

        // A demanded link stripped of its grant entirely.
        let mut bad = state.clone();
        bad.ranges.remove(0);
        let tampered = mesh.restore_session(&bad);
        assert!(tampered.is_err(), "missing grant must not restore silently");

        // A route through a node that does not exist.
        let mut bad = state.clone();
        bad.flows[0].path[0] = NodeId(99);
        assert!(matches!(
            mesh.restore_session(&bad),
            Err(QosError::Config(_))
        ));
    }

    #[test]
    fn session_rejects_unroutable_and_tight_deadlines() {
        let mut topo = generators::chain(3);
        let isolated = topo.add_node();
        let mesh = MeshQos::builder(topo).build().unwrap();
        let mut session = mesh.session(OrderPolicy::HopOrder);
        let unroutable = FlowSpec::voip(0, isolated, NodeId(0), VoipCodec::G729);
        assert!(matches!(
            session.admit(&unroutable).unwrap().rejected(),
            Some(RejectReason::NoRoute)
        ));
        let tight = FlowSpec::guaranteed(
            1,
            NodeId(2),
            NodeId(0),
            64_000.0,
            std::time::Duration::from_millis(1),
        );
        assert!(matches!(
            session.admit(&tight).unwrap().rejected(),
            Some(RejectReason::DeadlineTooTight)
        ));
        assert_eq!(session.snapshot().rejected.len(), 2);
        assert!(session.snapshot().admitted.is_empty());
    }
}
