//! Stateful incremental admission: [`QosSession`].
//!
//! [`crate::MeshQos::admit`] is a *batch* API: every call rebuilds the
//! conflict graph, re-derives a transmission order from nothing and — for
//! [`OrderPolicy::ExactMilp`] — walks the minislot search linearly from
//! the clique lower bound, paying one MILP solve per probed value. Under
//! churn (flows arriving and departing one at a time, each decision
//! re-examining all currently-admitted flows) almost all of that work
//! repeats verbatim.
//!
//! A [`QosSession`] keeps the state between decisions:
//!
//! * the **conflict graph** is cached and updated incrementally — vertex
//!   insertion when a new flow brings new links, removal when a release
//!   drains a link's demand — instead of rebuilt from scratch;
//! * the **last feasible transmission order** is persisted as
//!   graph-independent link pairs and replayed as a warm start: a
//!   Bellman–Ford validation pass
//!   ([`wimesh_tdma::milp::validate_order_within`]) often certifies
//!   feasibility outright, skipping the MILP oracle;
//! * the exact minislot search is a **binary search** seeded by the warm
//!   order's makespan instead of a linear scan — sound because oracle
//!   feasibility is monotone in the probed slot count (see
//!   `admission.rs`), and any feasible solution with makespan `m` stays
//!   feasible for every horizon `>= m`, which turns each "yes" answer
//!   into an immediate upper-bound jump.
//!
//! The session's verdicts are identical to the cold batch path: the fast
//! paths only ever *certify* feasibility (a validated order is a real
//! schedule), never declare infeasibility — that verdict still requires
//! the exact oracle. The property tests in `tests/session_equivalence.rs`
//! pin this.

use std::collections::BTreeMap;

use wimesh_conflict::ConflictGraph;
use wimesh_emu::EmulationModel;
use wimesh_milp::SolverConfig;
use wimesh_sim::FlowId;
use wimesh_tdma::milp::{feasible_order_within, validate_order_within, OrderSolution};
use wimesh_tdma::{order, Demands, Schedule, ScheduleError, SlotRange, TransmissionOrder};
use wimesh_topology::routing::{shortest_path, Path};
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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
    /// Search probes answered without the MILP (warm-order validation or
    /// makespan reuse) — each one is an oracle call the cold linear
    /// search would have paid for.
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
    /// Greedy-sequential oracle solves (one Bellman–Ford realisation per
    /// call; the approximation-mode analogue of `oracle_calls`).
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
}

impl SessionStats {
    /// Renders the counters as one flat JSON object (stable field
    /// order) — for artifact writers that do not enable the optional
    /// `serde` feature.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"admits\":{},\"releases\":{},\"oracle_calls\":{},\
             \"oracle_calls_saved\":{},\"warm_order_hits\":{},\
             \"search_iterations\":{},\"incremental_updates\":{},\
             \"graph_rebuilds\":{},\"batch_solves\":{},\
             \"coalesced_admits\":{},\"clique_prunes\":{},\
             \"greedy_solves\":{},\"lp_solves\":{},\"approx_gap\":{}}}",
            self.admits,
            self.releases,
            self.oracle_calls,
            self.oracle_calls_saved,
            self.warm_order_hits,
            self.search_iterations,
            self.incremental_updates,
            self.graph_rebuilds,
            self.batch_solves,
            self.coalesced_admits,
            self.clique_prunes,
            self.greedy_solves,
            self.lp_solves,
            self.approx_gap,
        )
    }
}

/// The last feasible order, persisted independently of the graph's dense
/// indexing (which shifts under incremental vertex insertion/removal).
///
/// No slot count is stored alongside: replaying the order through one
/// Bellman–Ford pass re-derives its makespan, which seeds the binary
/// search more tightly than the previously-used slot count could.
#[derive(Debug, Clone)]
struct WarmOrder {
    pairs: Vec<(LinkId, LinkId)>,
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
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
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
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    /// The admitted spec.
    pub spec: FlowSpec,
    /// Route as a node sequence; links are re-derived on restore.
    pub path: Vec<NodeId>,
    /// Minislots reserved on each path link.
    pub slots_per_link: u32,
}

/// A stateful admission session over a [`MeshQos`].
///
/// Admit and release flows one at a time; the session maintains a
/// consistent [`AdmissionOutcome`] ([`QosSession::snapshot`]) for the
/// currently-admitted set, reusing its cached conflict graph and warm
/// transmission order across decisions. Decisions are identical to the
/// cold batch path — admitting `f1..fn` through a fresh session equals
/// `MeshQos::admit(&[f1..fn])`.
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
    accepted: Vec<Accepted>,
    /// Cached conflict graph; invariant: its vertex set equals the links
    /// carrying demand from `accepted`.
    graph: ConflictGraph,
    warm: Option<WarmOrder>,
    outcome: AdmissionOutcome,
    stats: SessionStats,
}

impl QosSession {
    /// Rejections the log behind [`QosSession::snapshot`] keeps: past
    /// this many the oldest entry is dropped, so a long-lived session's
    /// memory does not grow with the rejects it has answered.
    pub const REJECT_LOG_CAP: usize = 256;

    pub(crate) fn new(mesh: MeshQos, policy: OrderPolicy) -> Self {
        let graph =
            ConflictGraph::build_for_links(mesh.topology(), Vec::new(), mesh.interference());
        let outcome = empty_outcome(mesh.model());
        Self {
            mesh,
            policy,
            accepted: Vec::new(),
            graph,
            warm: None,
            outcome,
            stats: SessionStats::default(),
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
    /// On admission the schedule is recomputed for the whole accepted
    /// set (existing bounds can change — consult
    /// [`QosSession::snapshot`]); on rejection the session state is
    /// untouched apart from the rejection log.
    ///
    /// # Errors
    ///
    /// [`QosError::InvalidRate`] for non-positive rates; scheduling and
    /// solver failures other than plain infeasibility (which is a
    /// [`FlowAdmission::Rejected`] verdict, not an error).
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
        let candidate = match admission::vet_flow(
            self.mesh.model(),
            self.mesh.link_payloads(),
            self.mesh.loss_provisioning(),
            spec,
            path.as_ref(),
        )? {
            Ok(c) => c,
            Err(reason) => {
                log_reject(&mut self.outcome.rejected, spec, &reason);
                return Ok(FlowAdmission::Rejected(reason));
            }
        };

        let demands = {
            let trial: Vec<&Accepted> = self
                .accepted
                .iter()
                .chain(std::iter::once(&candidate))
                .collect();
            admission::aggregate_demands(
                self.mesh.model(),
                self.mesh.link_payloads(),
                self.mesh.loss_provisioning(),
                &trial,
            )
        };
        let inserted = self.grow_graph(&demands);

        let result = {
            let trial: Vec<&Accepted> = self
                .accepted
                .iter()
                .chain(std::iter::once(&candidate))
                .collect();
            solve_session(
                &self.mesh,
                &self.graph,
                &demands,
                &trial,
                self.policy,
                self.warm.as_ref(),
                &mut self.stats,
            )
        };
        match result {
            Ok((schedule, ord, used)) => {
                self.warm = Some(WarmOrder {
                    pairs: ord.link_pairs(&self.graph),
                });
                self.accepted.push(candidate);
                self.refresh_outcome(schedule, ord, used);
                self.certify("admit");
                self.publish_slo_promises();
                let admitted = self
                    .outcome
                    .admitted
                    .last()
                    // check: allow(no-unwrap-in-lib, reason = "the candidate was pushed above, so admitted is non-empty")
                    .expect("candidate was just accepted")
                    .clone();
                Ok(FlowAdmission::Admitted(admitted))
            }
            Err(e) => {
                // Roll the graph back to exactly the accepted set's links.
                for l in inserted {
                    self.graph.remove_vertex(l);
                    self.stats.incremental_updates += 1;
                    wimesh_obs::counter_inc("session.graph.incremental");
                }
                let reason = match e {
                    ScheduleError::Infeasible
                    | ScheduleError::FrameTooShort { .. }
                    | ScheduleError::OrderCycle { .. } => RejectReason::Infeasible,
                    ScheduleError::SolverFailed(msg) => RejectReason::SolverLimit(msg),
                    other => return Err(other.into()),
                };
                log_reject(&mut self.outcome.rejected, spec, &reason);
                Ok(FlowAdmission::Rejected(reason))
            }
        }
    }

    /// Tries to admit several flows as one coalesced scheduling
    /// decision, returning one verdict per spec in input order.
    ///
    /// Every spec is vetted individually (rate, route, deadline
    /// budget); the surviving candidates are then solved for
    /// *together*: one incremental graph growth, one feasibility search
    /// over the accepted set plus the whole batch, one certification
    /// pass. That single solve is the amortization the gateway service
    /// (`wimesh-svc`) batches requests for. When the combined set is
    /// not feasible as a whole, the graph is rolled back and the batch
    /// falls back to per-flow admission in input order — exactly the
    /// semantics of calling [`QosSession::admit`] once per spec.
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

        // Vet first: rejections here consume no solve and cannot
        // invalidate the batch.
        let mut verdicts: Vec<Option<FlowAdmission>> = (0..specs.len()).map(|_| None).collect();
        let mut candidates: Vec<(usize, Accepted)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let path = shortest_path(self.mesh.topology(), spec.src, spec.dst).ok();
            match admission::vet_flow(
                self.mesh.model(),
                self.mesh.link_payloads(),
                self.mesh.loss_provisioning(),
                spec,
                path.as_ref(),
            )? {
                Ok(c) => candidates.push((i, c)),
                Err(reason) => {
                    self.stats.admits += 1;
                    log_reject(&mut self.outcome.rejected, spec, &reason);
                    verdicts[i] = Some(FlowAdmission::Rejected(reason));
                }
            }
        }

        if !candidates.is_empty() {
            // Optimistic coalesced solve: accepted set plus the whole
            // batch in one search.
            let demands = {
                let trial: Vec<&Accepted> = self
                    .accepted
                    .iter()
                    .chain(candidates.iter().map(|(_, c)| c))
                    .collect();
                admission::aggregate_demands(
                    self.mesh.model(),
                    self.mesh.link_payloads(),
                    self.mesh.loss_provisioning(),
                    &trial,
                )
            };
            let inserted = self.grow_graph(&demands);
            let result = {
                let trial: Vec<&Accepted> = self
                    .accepted
                    .iter()
                    .chain(candidates.iter().map(|(_, c)| c))
                    .collect();
                solve_session(
                    &self.mesh,
                    &self.graph,
                    &demands,
                    &trial,
                    self.policy,
                    self.warm.as_ref(),
                    &mut self.stats,
                )
            };
            match result {
                Ok((schedule, ord, used)) => {
                    self.stats.admits += candidates.len() as u64;
                    self.stats.batch_solves += 1;
                    self.stats.coalesced_admits += candidates.len() as u64 - 1;
                    wimesh_obs::counter_inc("session.batch.solves");
                    wimesh_obs::counter_add("session.batch.coalesced", candidates.len() as u64 - 1);
                    self.warm = Some(WarmOrder {
                        pairs: ord.link_pairs(&self.graph),
                    });
                    let base = self.accepted.len();
                    for (_, c) in &candidates {
                        self.accepted.push(c.clone());
                    }
                    self.refresh_outcome(schedule, ord, used);
                    self.certify("admit_batch");
                    self.publish_slo_promises();
                    for (k, (i, _)) in candidates.iter().enumerate() {
                        verdicts[*i] = Some(FlowAdmission::Admitted(
                            self.outcome.admitted[base + k].clone(),
                        ));
                    }
                }
                Err(
                    ScheduleError::Infeasible
                    | ScheduleError::FrameTooShort { .. }
                    | ScheduleError::OrderCycle { .. }
                    | ScheduleError::SolverFailed(_),
                ) => {
                    // The batch does not fit as a unit: fall back to
                    // per-flow admission. Greedy-sequential places the
                    // candidates cheapest-first by its key (ranked while
                    // the grown graph still holds the batch's links);
                    // every other policy keeps input order. Verdicts are
                    // indexed, so reporting order is unaffected.
                    if let OrderPolicy::GreedySequential { key } = self.policy {
                        candidates.sort_by_cached_key(|(i, c)| {
                            (admission::greedy_rank(key, &self.graph, &demands, c), *i)
                        });
                    }
                    // Roll the graph back to exactly the accepted set.
                    for l in inserted {
                        self.graph.remove_vertex(l);
                        self.stats.incremental_updates += 1;
                        wimesh_obs::counter_inc("session.graph.incremental");
                    }
                    for (i, c) in candidates {
                        let verdict = self.admit_on(&specs[i], Some(c.path))?;
                        verdicts[i] = Some(verdict);
                    }
                }
                Err(other) => {
                    for l in inserted {
                        self.graph.remove_vertex(l);
                        self.stats.incremental_updates += 1;
                        wimesh_obs::counter_inc("session.graph.incremental");
                    }
                    return Err(other.into());
                }
            }
        }

        Ok(verdicts
            .into_iter()
            // check: allow(no-unwrap-in-lib, reason = "every index was filled above: vet rejection, coalesced admit, or per-flow fallback")
            .map(|v| v.expect("every spec received a verdict"))
            .collect())
    }

    /// Exports the session's admission state in a portable,
    /// graph-independent form — see [`SessionState`] and
    /// [`MeshQos::restore_session`].
    pub fn export_state(&self) -> SessionState {
        // Canonical pair order: the session lists pairs by its conflict
        // graph's vertex numbering, which depends on the insertions and
        // roll-backs that built the graph — equal states must compare equal
        // whatever history produced them.
        let mut warm_pairs = self
            .warm
            .as_ref()
            .map(|w| w.pairs.clone())
            .unwrap_or_default();
        warm_pairs.sort_unstable();
        SessionState {
            policy: self.policy,
            flows: self
                .accepted
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
    /// missing links, changed reservations, conflicting or short slot
    /// grants, a makespan that contradicts the recorded guaranteed
    /// region.
    pub(crate) fn from_state(mesh: MeshQos, state: &SessionState) -> Result<Self, QosError> {
        let mut accepted = Vec::with_capacity(state.flows.len());
        for f in &state.flows {
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

        let demands = {
            let trial: Vec<&Accepted> = accepted.iter().collect();
            admission::aggregate_demands(
                mesh.model(),
                mesh.link_payloads(),
                mesh.loss_provisioning(),
                &trial,
            )
        };
        let graph = ConflictGraph::build_for_links(
            mesh.topology(),
            demands.links().collect(),
            mesh.interference(),
        );

        let ranges: BTreeMap<LinkId, SlotRange> = state.ranges.iter().copied().collect();
        let schedule = Schedule::from_ranges(mesh.model().frame(), ranges)?;
        for l in schedule.links() {
            if demands.get(l) == 0 {
                return Err(QosError::Config(format!(
                    "restored schedule grants slots to link {l}, which no admitted flow uses"
                )));
            }
        }
        for l in demands.links() {
            let have = schedule.slot_range(l).map_or(0, |r| r.len);
            let need = demands.get(l);
            if have < need {
                return Err(QosError::Config(format!(
                    "restored schedule grants link {l} {have} slot(s), aggregate demand is {need}"
                )));
            }
        }
        schedule.validate(&graph).map_err(|(a, b)| {
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

        let order = TransmissionOrder::from_link_pairs(&graph, &state.warm_pairs);
        let warm = if state.warm_pairs.is_empty() {
            None
        } else {
            Some(WarmOrder {
                pairs: state.warm_pairs.clone(),
            })
        };
        let outcome = empty_outcome(mesh.model());
        let mut session = Self {
            mesh,
            policy: state.policy,
            accepted,
            graph,
            warm,
            outcome,
            stats: SessionStats::default(),
        };
        session.refresh_outcome(schedule, order, state.guaranteed_slots);
        session.certify("restore");
        session.publish_slo_promises();
        Ok(session)
    }

    /// Releases an admitted flow and recomputes the schedule for the
    /// remaining set. Returns `Ok(false)` when no admitted flow has this
    /// id.
    ///
    /// Under the heuristic order policies a subset can rank differently
    /// and need more minislots than the superset did; the session then
    /// keeps the previous order, restricted to the remaining links, when
    /// that still fits the frame and meets every deadline.
    ///
    /// # Errors
    ///
    /// Rescheduling the remaining flows can only fail for the heuristic
    /// order policies, when neither the recomputed nor the previous order
    /// meets a deadline the superset met (under
    /// [`OrderPolicy::ExactMilp`] a subset of a feasible set is always
    /// feasible). On error the session is left unchanged — the flow stays
    /// admitted; [`QosSession::rebalance`] with an exact policy is the
    /// recovery path.
    pub fn release(&mut self, flow: FlowId) -> Result<bool, QosError> {
        let Some(pos) = self.accepted.iter().position(|a| a.spec.id == flow) else {
            return Ok(false);
        };
        let _span = wimesh_obs::span!("session.release");
        let removed = self.accepted.remove(pos);

        let demands = {
            let trial: Vec<&Accepted> = self.accepted.iter().collect();
            admission::aggregate_demands(
                self.mesh.model(),
                self.mesh.link_payloads(),
                self.mesh.loss_provisioning(),
                &trial,
            )
        };
        // Shrink the cached graph: links whose demand drained lose their
        // vertex.
        let stale: Vec<LinkId> = self
            .graph
            .links()
            .iter()
            .copied()
            .filter(|&l| demands.get(l) == 0)
            .collect();
        for &l in &stale {
            self.graph.remove_vertex(l);
            self.stats.incremental_updates += 1;
            wimesh_obs::counter_inc("session.graph.incremental");
        }

        if self.accepted.is_empty() {
            self.warm = None;
            self.stats.releases += 1;
            wimesh_obs::counter_inc("session.releases");
            self.refresh_outcome(
                empty_outcome(self.mesh.model()).schedule,
                TransmissionOrder::new(),
                0,
            );
            self.certify("release");
            wimesh_obs::slo::withdraw(removed.spec.id.0 as u64);
            self.publish_slo_promises();
            return Ok(true);
        }

        let result = {
            let trial: Vec<&Accepted> = self.accepted.iter().collect();
            solve_session(
                &self.mesh,
                &self.graph,
                &demands,
                &trial,
                self.policy,
                self.warm.as_ref(),
                &mut self.stats,
            )
            .or_else(|e| self.keep_previous_order(&demands, &trial).ok_or(e))
        };
        match result {
            Ok((schedule, ord, used)) => {
                self.warm = Some(WarmOrder {
                    pairs: ord.link_pairs(&self.graph),
                });
                self.stats.releases += 1;
                wimesh_obs::counter_inc("session.releases");
                self.refresh_outcome(schedule, ord, used);
                self.certify("release");
                wimesh_obs::slo::withdraw(removed.spec.id.0 as u64);
                self.publish_slo_promises();
                Ok(true)
            }
            Err(e) => {
                // Restore the graph and the flow; the old schedule is
                // still valid.
                for l in stale {
                    self.graph
                        .insert_vertex(self.mesh.topology(), l, self.mesh.interference());
                    self.stats.incremental_updates += 1;
                }
                self.accepted.insert(pos, removed);
                Err(e.into())
            }
        }
    }

    /// The release fallback of the heuristic policies: the order that
    /// scheduled the superset, restricted to the links still carrying
    /// demand, under the same frame and deadline checks as a fresh solve.
    fn keep_previous_order(
        &self,
        demands: &Demands,
        flows: &[&Accepted],
    ) -> Option<(Schedule, TransmissionOrder, u32)> {
        if !matches!(
            self.policy,
            OrderPolicy::HopOrder | OrderPolicy::TreeOrder { .. }
        ) {
            return None;
        }
        let previous = TransmissionOrder::from_link_pairs(&self.graph, &self.warm.as_ref()?.pairs);
        let model = self.mesh.model();
        let frame = model.frame();
        let reqs = admission::path_requirements(model, flows);
        let kept =
            validate_order_within(&self.graph, demands, &reqs, frame, frame.slots(), &previous)?;
        wimesh_obs::counter_inc("session.release.kept_order");
        let used = kept.schedule.makespan();
        Some((kept.schedule, kept.order, used))
    }

    /// Recomputes everything from scratch: rebuilds the conflict graph,
    /// re-admits the current flows through the cold batch path and
    /// resets the warm state from the result.
    ///
    /// This restores the exact state a fresh batch
    /// [`MeshQos::admit_routed`] over the admitted flows (same routes,
    /// same admission order) would produce — the reference point the
    /// warm paths are tested against — and is the recovery path when a
    /// heuristic [`QosSession::release`] fails.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MeshQos::admit_routed`].
    pub fn rebalance(&mut self) -> Result<&AdmissionOutcome, QosError> {
        let _span = wimesh_obs::span!("session.rebalance");
        self.stats.graph_rebuilds += 1;
        wimesh_obs::counter_inc("session.graph.rebuilds");
        let routed: Vec<(FlowSpec, Option<Path>)> = self
            .accepted
            .iter()
            .map(|a| (a.spec.clone(), Some(a.path.clone())))
            .collect();
        let outcome = self.mesh.admit_routed(&routed, self.policy)?;

        self.accepted = outcome
            .admitted
            .iter()
            .map(|f| Accepted {
                spec: f.spec.clone(),
                path: f.path.clone(),
                slots_per_link: f.slots_per_link,
            })
            .collect();
        let demands = {
            let trial: Vec<&Accepted> = self.accepted.iter().collect();
            admission::aggregate_demands(
                self.mesh.model(),
                self.mesh.link_payloads(),
                self.mesh.loss_provisioning(),
                &trial,
            )
        };
        // Rebuilt over the demand links in ascending id order — the same
        // construction the batch path used, so the outcome's order maps
        // onto identical dense indices.
        self.graph = ConflictGraph::build_for_links(
            self.mesh.topology(),
            demands.links().collect(),
            self.mesh.interference(),
        );
        self.warm = if outcome.admitted.is_empty() {
            None
        } else {
            Some(WarmOrder {
                pairs: outcome.order.link_pairs(&self.graph),
            })
        };
        // Rejections recorded before the rebalance stay in the log.
        let mut rejected = std::mem::take(&mut self.outcome.rejected);
        for (spec, reason) in &outcome.rejected {
            log_reject(&mut rejected, spec, reason);
        }
        self.outcome = outcome;
        self.outcome.rejected = rejected;
        self.certify("rebalance");
        self.publish_slo_promises();
        Ok(&self.outcome)
    }

    /// Registers (or refreshes) the SLO promise of every currently
    /// admitted flow with the `wimesh-obs` auditor: the slot count and
    /// delay bound the admission just guaranteed. Re-promising after a
    /// reschedule updates the terms without erasing the flow's observed
    /// history; the whole call is a no-op while instrumentation is
    /// disabled.
    fn publish_slo_promises(&self) {
        if !wimesh_obs::is_enabled() {
            return;
        }
        for f in &self.outcome.admitted {
            wimesh_obs::slo::promise(f.spec.id.0 as u64, f.slots_per_link, f.spec.deadline);
        }
    }

    /// Grows the cached graph to cover every demanded link, returning the
    /// links inserted (for rollback).
    fn grow_graph(&mut self, demands: &Demands) -> Vec<LinkId> {
        let mut inserted = Vec::new();
        for l in demands.links() {
            if self
                .graph
                .insert_vertex(self.mesh.topology(), l, self.mesh.interference())
            {
                inserted.push(l);
                self.stats.incremental_updates += 1;
                wimesh_obs::counter_inc("session.graph.incremental");
            }
        }
        inserted
    }

    fn refresh_outcome(&mut self, schedule: Schedule, ord: TransmissionOrder, used: u32) {
        self.outcome.admitted =
            admission::finalize_admitted(self.mesh.model(), &schedule, &self.accepted);
        self.outcome.schedule = schedule;
        self.outcome.order = ord;
        self.outcome.guaranteed_slots = used;
    }

    /// Cross-checks the published outcome against the independent
    /// certifier in `wimesh-check` (compiled in by the `checked` cargo
    /// feature). Panics with the full violation list on failure: the
    /// optimised incremental paths must never publish a schedule the
    /// reference oracle rejects.
    #[cfg(feature = "checked")]
    fn certify(&self, operation: &str) {
        let demands = {
            let trial: Vec<&Accepted> = self.accepted.iter().collect();
            admission::aggregate_demands(
                self.mesh.model(),
                self.mesh.link_payloads(),
                self.mesh.loss_provisioning(),
                &trial,
            )
        };
        let flows: Vec<wimesh_check::FlowRequirement> = self
            .outcome
            .admitted
            .iter()
            .map(|f| wimesh_check::FlowRequirement {
                id: f.spec.id.0 as u64,
                links: f.path.links().to_vec(),
                deadline: f.spec.deadline,
            })
            .collect();
        let params = wimesh_check::CertParams::from_emulation(self.mesh.model());
        if let Err(err) = wimesh_check::Certificate::check(
            &self.outcome.schedule,
            &self.graph,
            &demands,
            &flows,
            &params,
        ) {
            panic!("session {operation} published an uncertifiable schedule: {err}");
        }
    }

    /// No-op without the `checked` feature.
    #[cfg(not(feature = "checked"))]
    fn certify(&self, _operation: &str) {}
}

/// Appends to the rejection log, dropping the oldest entry at the cap.
fn log_reject(log: &mut Vec<(FlowSpec, RejectReason)>, spec: &FlowSpec, reason: &RejectReason) {
    if log.len() >= QosSession::REJECT_LOG_CAP {
        log.remove(0);
    }
    log.push((spec.clone(), reason.clone()));
}

fn empty_outcome(model: &EmulationModel) -> AdmissionOutcome {
    let schedule = Schedule::from_ranges(model.frame(), Default::default())
        // check: allow(no-unwrap-in-lib, reason = "no ranges to overflow: an empty schedule fits any frame")
        .expect("an empty schedule fits any frame");
    AdmissionOutcome {
        admitted: Vec::new(),
        rejected: Vec::new(),
        schedule,
        order: TransmissionOrder::new(),
        guaranteed_slots: 0,
    }
}

/// One scheduling decision over the session's cached graph.
fn solve_session(
    mesh: &MeshQos,
    graph: &ConflictGraph,
    demands: &Demands,
    flows: &[&Accepted],
    policy: OrderPolicy,
    warm: Option<&WarmOrder>,
    stats: &mut SessionStats,
) -> Result<(Schedule, TransmissionOrder, u32), ScheduleError> {
    // Mirror the batch path: a demand-free flow set schedules trivially.
    if demands.is_empty() {
        let schedule = Schedule::from_ranges(mesh.model().frame(), Default::default())?;
        return Ok((schedule, TransmissionOrder::new(), 0));
    }
    match policy {
        // The heuristic policies recompute their (cheap) order from the
        // current flow set, exactly as the batch path does — only the
        // conflict-graph construction is saved.
        OrderPolicy::HopOrder | OrderPolicy::TreeOrder { .. } => admission::solve_demands_on_graph(
            mesh.topology(),
            mesh.model(),
            graph,
            demands,
            flows,
            policy,
            mesh.solver_config(),
        ),
        OrderPolicy::ExactMilp => exact_search_warm(
            mesh.model(),
            graph,
            demands,
            flows,
            mesh.solver_config(),
            warm,
            stats,
        ),
        OrderPolicy::GreedySequential { .. } | OrderPolicy::LpRounding => {
            approx_solve(mesh, graph, demands, flows, policy, stats)
        }
    }
}

/// The approximation-mode oracles, with per-policy stats and the
/// certified optimality-gap bookkeeping.
///
/// Both policies share the clique-bound fast reject: the heaviest
/// clique's total demand floors any feasible guaranteed region, so a
/// request whose bound exceeds the frame is rejected without running
/// any solver. The realised guaranteed region minus the
/// best certified lower bound is a true upper bound on the optimality
/// gap, recorded in [`SessionStats::approx_gap`].
fn approx_solve(
    mesh: &MeshQos,
    graph: &ConflictGraph,
    demands: &Demands,
    flows: &[&Accepted],
    policy: OrderPolicy,
    stats: &mut SessionStats,
) -> Result<(Schedule, TransmissionOrder, u32), ScheduleError> {
    let _span = wimesh_obs::span!("session.approx");
    let model = mesh.model();
    let lower = admission::clique_prune(graph, demands, model.frame())
        .inspect_err(|_| stats.clique_prunes += 1)?;
    match policy {
        OrderPolicy::GreedySequential { .. } => {
            stats.greedy_solves += 1;
            wimesh_obs::counter_inc("session.greedy.solves");
            let (schedule, ord, used) = admission::solve_demands_on_graph(
                mesh.topology(),
                model,
                graph,
                demands,
                flows,
                policy,
                mesh.solver_config(),
            )?;
            stats.approx_gap = u64::from(used.saturating_sub(lower));
            Ok((schedule, ord, used))
        }
        OrderPolicy::LpRounding => {
            stats.lp_solves += 1;
            wimesh_obs::counter_inc("session.lp.solves");
            let (schedule, ord, used, lp_bound) =
                admission::lp_rounding_solve(model, graph, demands, flows)?;
            stats.approx_gap = u64::from(used.saturating_sub(lower.max(lp_bound)));
            Ok((schedule, ord, used))
        }
        _ => unreachable!("approx_solve is only dispatched for approximation policies"),
    }
}

/// The warm-started exact minislot search: binary instead of linear,
/// seeded by the persisted order.
///
/// Correctness rests on two facts proved at the call sites they mirror:
///
/// 1. **Monotonicity** (see the linear search in `admission.rs`): oracle
///    feasibility at `used` implies feasibility at every larger value,
///    so binary search over `[lower bound, frame]` finds the same
///    minimal feasible count the linear scan does.
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
/// match the cold path exactly.
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
    flows: &[&Accepted],
    solver: &SolverConfig,
    warm: Option<&WarmOrder>,
    stats: &mut SessionStats,
) -> Result<(Schedule, TransmissionOrder, u32), ScheduleError> {
    let _span = wimesh_obs::span!("session.search");
    let frame = model.frame();
    let total = frame.slots();
    let reqs = admission::path_requirements(model, flows);
    let mut lo =
        admission::clique_prune(graph, demands, frame).inspect_err(|_| stats.clique_prunes += 1)?;

    // The candidate order: the persisted warm order (replayed through
    // link pairs, so graph reindexing cannot corrupt it), with conflict
    // edges it does not decide — new links, typically — filled in from
    // the hop heuristic over the current paths.
    let hop = order::hop_order(graph, flows.iter().map(|f| &f.path));
    let candidate = match warm {
        Some(w) => {
            let mut o = TransmissionOrder::from_link_pairs(graph, &w.pairs);
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
    // The oracle returns a feasible point, not a compact one, so each
    // "yes" is replayed as the earliest-start layout of its order: that
    // is the layout the session publishes, and its makespan is the
    // tightest upper bound the answer gives.
    let calls_before = stats.oracle_calls;
    let oracle = |used: u32, stats: &mut SessionStats| {
        stats.oracle_calls += 1;
        wimesh_obs::counter_inc("session.oracle.calls");
        let started = std::time::Instant::now();
        let step = feasible_order_within(graph, demands, &reqs, frame, used, solver)
            .map(|sol| admission::earliest_layout(graph, demands, &reqs, frame, used, sol));
        wimesh_obs::record_duration("session.search.step", started.elapsed());
        step
    };

    stats.search_iterations += 1;
    let mut best: OrderSolution;
    match validate_order_within(graph, demands, &reqs, frame, total, &candidate) {
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
    Ok((best.schedule, best.order, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_emu::EmulationParams;
    use wimesh_sim::traffic::VoipCodec;
    use wimesh_topology::generators;
    use wimesh_topology::NodeId;

    fn mesh(n: usize) -> MeshQos {
        MeshQos::new(generators::chain(n), EmulationParams::default()).unwrap()
    }

    fn gateway_calls(n: u32, far: u32) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| FlowSpec::voip(i, NodeId(far - (i % 2)), NodeId(0), VoipCodec::G729))
            .collect()
    }

    #[test]
    fn incremental_admits_equal_batch_hop_order() {
        let mesh = mesh(5);
        let flows = gateway_calls(3, 4);
        let batch = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();

        let mut session = mesh.session(OrderPolicy::HopOrder);
        for f in &flows {
            session.admit(f).unwrap();
        }
        let snap = session.snapshot();
        assert_eq!(snap.admitted.len(), batch.admitted.len());
        assert_eq!(snap.rejected.len(), batch.rejected.len());
        assert_eq!(snap.guaranteed_slots, batch.guaranteed_slots);
        // Heuristic orders are deterministic: bit-identical schedules.
        for (a, b) in snap.admitted.iter().zip(&batch.admitted) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.slots_per_link, b.slots_per_link);
            assert_eq!(a.worst_case_delay, b.worst_case_delay);
        }
        let links_a: Vec<_> = snap.schedule.links().collect();
        let links_b: Vec<_> = batch.schedule.links().collect();
        assert_eq!(links_a, links_b);
        for l in links_a {
            assert_eq!(snap.schedule.slot_range(l), batch.schedule.slot_range(l));
        }
    }

    #[test]
    fn incremental_admits_equal_batch_exact_milp() {
        let mesh = mesh(5);
        let flows = gateway_calls(3, 4);
        let batch = mesh.admit(&flows, OrderPolicy::ExactMilp).unwrap();

        let mut session = mesh.session(OrderPolicy::ExactMilp);
        for f in &flows {
            session.admit(f).unwrap();
        }
        let snap = session.snapshot();
        // Verdicts and the minimal guaranteed region must match the cold
        // linear search exactly (schedules may be alternate optima).
        assert_eq!(snap.admitted.len(), batch.admitted.len());
        assert_eq!(snap.rejected.len(), batch.rejected.len());
        assert_eq!(snap.guaranteed_slots, batch.guaranteed_slots);
        snap.schedule
            .validate(&ConflictGraph::build_for_links(
                mesh.topology(),
                snap.schedule.links().collect(),
                mesh.interference(),
            ))
            .expect("session schedule must be conflict-free");
        for f in &snap.admitted {
            assert!(f.worst_case_delay <= f.spec.deadline.unwrap());
        }
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
        // Final state matches a cold batch over the same sequence
        // outcome: all still admitted.
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
        let mut session = mesh.session(OrderPolicy::HopOrder);
        for f in &flows {
            assert!(session.admit(f).unwrap().is_admitted());
        }
        let remaining: Vec<FlowSpec> = flows.iter().filter(|f| f.id.0 != 3).cloned().collect();
        let cold = mesh.admit(&remaining, OrderPolicy::HopOrder).unwrap();
        assert_eq!(
            cold.rejected.len(),
            1,
            "the subset's own hop order overflows"
        );

        assert!(session.release(FlowId(3)).unwrap());
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
        // Matches a cold batch admission of the remaining flows.
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
        let mesh = MeshQos::new(topo, EmulationParams::default()).unwrap();
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
        let mesh = MeshQos::new(topo, EmulationParams::default()).unwrap();
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
