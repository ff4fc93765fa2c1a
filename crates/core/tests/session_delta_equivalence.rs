//! The session's delta state against the from-scratch pipeline it
//! replaced.
//!
//! [`QosSession`] keeps per-link demand, rank and start state and per-flow
//! records between operations and applies every admit, batch, release and
//! roll-back as a delta to them. The reference here is a test-only copy of
//! the session before that: on every operation it aggregates the demands
//! of the whole trial set, grows or shrinks its conflict graph by scanning
//! them, derives the order with [`order::hop_order`] /
//! [`order::tree_order`], lays it out with [`schedule_from_order`], checks
//! every deadline and derives every bound from the [`Schedule`] — nothing
//! is carried over but the flow list, the graph and the last order. It
//! shares no engine with the session — `rebalance` included, which
//! re-places the held flows through this same pipeline on a fresh
//! reference; what it does share are the kernels both call
//! (`wimesh-tdma`, `wimesh-conflict`).
//!
//! After every operation of random churn the session's
//! [`QosSession::export_state`] and every flow's delay bound must equal
//! the reference's bit for bit, verdicts and release results must agree,
//! and an operation that fails or rejects must leave the exported state as
//! it was; the independent certifier must prove the published schedule
//! against demands aggregated afresh from the admitted flows.
//!
//! One deliberate difference: when a release fails, the reference puts the
//! drained links back into its graph in ascending id order (as the
//! session's inverse delta does), where the old code used the order it had
//! removed them in. The vertex numbering is not observable in any exported
//! state; it only breaks ties inside the greedy clique-load ranking.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh::conflict::{heaviest_clique, ConflictGraph};
use wimesh::sim::traffic::VoipCodec;
use wimesh::sim::FlowId;
use wimesh::tdma::milp::{validate_order_within, PathRequirement};
use wimesh::tdma::{
    delay, order, schedule_from_order, Demands, Schedule, ScheduleError, TransmissionOrder,
};
use wimesh::topology::routing::{shortest_path, GatewayRouting, Path};
use wimesh::topology::{generators, LinkId, MeshTopology, NodeId};
use wimesh::{
    FlowAdmission, FlowSpec, FlowState, GreedyKey, MeshQos, OrderPolicy, QosError, QosSession,
    RejectReason, SessionState,
};

mod support;

/// A vetted flow the reference holds.
#[derive(Debug, Clone)]
struct Held {
    spec: FlowSpec,
    path: Path,
    slots_per_link: u32,
}

type Solved = (Schedule, TransmissionOrder, u32);

/// Which branches a run went through.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    admitted: u64,
    rejected_by_vetting: u64,
    rejected_by_capacity: u64,
    rejected_by_deadline: u64,
    rejected_as_duplicate: u64,
    batches_coalesced: u64,
    batches_fallen_back: u64,
    releases: u64,
    releases_of_unknown_ids: u64,
    releases_keeping_the_previous_order: u64,
    releases_failed: u64,
    rebalances: u64,
    restores: u64,
}

impl Coverage {
    fn add(&mut self, other: &Coverage) {
        self.admitted += other.admitted;
        self.rejected_by_vetting += other.rejected_by_vetting;
        self.rejected_by_capacity += other.rejected_by_capacity;
        self.rejected_by_deadline += other.rejected_by_deadline;
        self.rejected_as_duplicate += other.rejected_as_duplicate;
        self.batches_coalesced += other.batches_coalesced;
        self.batches_fallen_back += other.batches_fallen_back;
        self.releases += other.releases;
        self.releases_of_unknown_ids += other.releases_of_unknown_ids;
        self.releases_keeping_the_previous_order += other.releases_keeping_the_previous_order;
        self.releases_failed += other.releases_failed;
        self.rebalances += other.rebalances;
        self.restores += other.restores;
    }
}

/// The session as it was before the delta state, rank policies only: a
/// flow list, an incrementally grown conflict graph, the last order as
/// link pairs, and a from-scratch pipeline over the whole set per
/// operation.
struct Reference<'a> {
    mesh: &'a MeshQos,
    policy: OrderPolicy,
    held: Vec<Held>,
    graph: ConflictGraph,
    warm: Vec<(LinkId, LinkId)>,
    schedule: Schedule,
    used: u32,
    bounds: Vec<Duration>,
    seen: Coverage,
}

impl<'a> Reference<'a> {
    fn new(mesh: &'a MeshQos, policy: OrderPolicy) -> Self {
        Self {
            mesh,
            policy,
            held: Vec::new(),
            graph: ConflictGraph::build_for_links(mesh.topology(), Vec::new(), mesh.interference()),
            warm: Vec::new(),
            schedule: empty_schedule(mesh),
            used: 0,
            bounds: Vec::new(),
            seen: Coverage::default(),
        }
    }

    /// `pipeline_budget_slots` of `admission.rs`.
    fn budget(&self, deadline: Option<Duration>, path: &Path) -> Option<Option<u64>> {
        let Some(deadline) = deadline else {
            return Some(None);
        };
        let model = self.mesh.model();
        let mesh_frame = model.mesh_frame();
        let slot = Duration::from_micros(model.frame().slot_duration_us());
        let wraps = path.hop_count().saturating_sub(1) as u32;
        let fixed = mesh_frame.frame_duration() + mesh_frame.ctrl_duration() * wraps;
        if deadline <= fixed {
            return None;
        }
        Some(Some(
            ((deadline - fixed).as_nanos() / slot.as_nanos()) as u64,
        ))
    }

    /// `vet_flow` of `admission.rs` (rates are always valid here; the
    /// meshes provision for no loss).
    fn vet(&self, spec: &FlowSpec, path: Option<Path>) -> Result<Held, RejectReason> {
        let path = match path {
            Some(p) if p.source() == spec.src && p.destination() == spec.dst => p,
            _ => return Err(RejectReason::NoRoute),
        };
        if self.budget(spec.deadline, &path).is_none() {
            return Err(RejectReason::DeadlineTooTight);
        }
        let slots_per_link = path
            .links()
            .iter()
            .map(|&l| {
                self.mesh.model().slots_for_load_at(
                    spec.rate_bps,
                    u64::from(spec.burst_bytes),
                    self.mesh.link_payload(l),
                )
            })
            .max()
            .unwrap_or(1);
        Ok(Held {
            spec: spec.clone(),
            path,
            slots_per_link,
        })
    }

    /// `aggregate_demands` of `admission.rs`: rates and bursts summed per
    /// link over every flow, in flow order, then rounded to minislots.
    fn demands(&self, flows: &[&Held]) -> Demands {
        let mut load: std::collections::BTreeMap<LinkId, (f64, u64)> = Default::default();
        for f in flows {
            for &l in f.path.links() {
                let e = load.entry(l).or_insert((0.0, 0));
                e.0 += f.spec.rate_bps;
                e.1 += u64::from(f.spec.burst_bytes);
            }
        }
        let mut demands = Demands::new();
        for (l, (rate, burst)) in load {
            let slots = self
                .mesh
                .model()
                .slots_for_load_at(rate, burst, self.mesh.link_payload(l));
            demands.set(l, slots);
        }
        demands
    }

    /// `grow_graph`: a vertex for every demanded link, ascending.
    fn grow(&mut self, demands: &Demands) -> Vec<LinkId> {
        let mut inserted = Vec::new();
        for l in demands.links() {
            if self
                .graph
                .insert_vertex(self.mesh.topology(), l, self.mesh.interference())
            {
                inserted.push(l);
            }
        }
        inserted
    }

    /// `solve_session` for the rank policies: order, layout, frame and
    /// deadline checks over the whole flow set.
    fn solve(&mut self, demands: &Demands, flows: &[&Held]) -> Result<Solved, ScheduleError> {
        let frame = self.mesh.model().frame();
        if demands.is_empty() {
            return Ok((empty_schedule(self.mesh), TransmissionOrder::new(), 0));
        }
        if matches!(self.policy, OrderPolicy::GreedySequential { .. }) {
            let weights: Vec<u64> = (0..self.graph.vertex_count())
                .map(|v| u64::from(demands.get(self.graph.link_at(v))))
                .collect();
            let (_, weight) = heaviest_clique(&self.graph, |v| weights[v]);
            let lower = u32::try_from(weight).unwrap_or(u32::MAX).max(1);
            if lower > frame.slots() {
                return Err(ScheduleError::FrameTooShort {
                    needed: lower,
                    available: frame.slots(),
                });
            }
        }
        let ord = match self.policy {
            OrderPolicy::TreeOrder { gateway } => {
                let routing = GatewayRouting::new(self.mesh.topology(), gateway)
                    .map_err(|e| ScheduleError::SolverFailed(e.to_string()))?;
                order::tree_order(self.mesh.topology(), &routing, &self.graph)
            }
            _ => order::hop_order(&self.graph, flows.iter().map(|f| &f.path)),
        };
        let schedule = schedule_from_order(&self.graph, demands, &ord, frame)?;
        let used = schedule.makespan();
        for f in flows {
            if let Some(Some(budget)) = self.budget(f.spec.deadline, &f.path) {
                let d =
                    delay::path_delay_slots(&schedule, &f.path).ok_or(ScheduleError::Infeasible)?;
                if d > budget {
                    return Err(ScheduleError::Infeasible);
                }
            }
        }
        Ok((schedule, ord, used))
    }

    /// What a successful operation leaves: the warm pairs, the schedule,
    /// and `finalize_admitted`'s bounds — a second walk of every route.
    fn commit(&mut self, (schedule, ord, used): Solved) {
        let model = self.mesh.model();
        let mesh_frame = model.mesh_frame();
        self.warm = ord.link_pairs(&self.graph);
        self.bounds = self
            .held
            .iter()
            .map(|f| {
                let pipeline = delay::path_delay_slots(&schedule, &f.path).expect("scheduled");
                let wraps = delay::frame_wraps(&schedule, &f.path).expect("scheduled");
                mesh_frame.frame_duration()
                    + model.frame().slots_to_duration(pipeline)
                    + mesh_frame.ctrl_duration() * wraps as u32
            })
            .collect();
        self.schedule = schedule;
        self.used = used;
    }

    fn is_admitted(&self, id: FlowId) -> bool {
        self.held.iter().any(|f| f.spec.id == id)
    }

    fn count_rejection(&mut self, e: &ScheduleError) {
        match e {
            ScheduleError::FrameTooShort { .. } => self.seen.rejected_by_capacity += 1,
            _ => self.seen.rejected_by_deadline += 1,
        }
    }

    /// `QosSession::admit`; `None` is an admission.
    fn admit(&mut self, spec: &FlowSpec) -> Option<RejectReason> {
        let path = shortest_path(self.mesh.topology(), spec.src, spec.dst).ok();
        self.admit_on(spec, path)
    }

    fn admit_on(&mut self, spec: &FlowSpec, path: Option<Path>) -> Option<RejectReason> {
        if self.is_admitted(spec.id) {
            self.seen.rejected_as_duplicate += 1;
            return Some(RejectReason::DuplicateFlow);
        }
        let candidate = match self.vet(spec, path) {
            Ok(c) => c,
            Err(reason) => {
                self.seen.rejected_by_vetting += 1;
                return Some(reason);
            }
        };
        let held = self.held.clone();
        let trial: Vec<&Held> = held.iter().chain(std::iter::once(&candidate)).collect();
        let demands = self.demands(&trial);
        let inserted = self.grow(&demands);
        match self.solve(&demands, &trial) {
            Ok(solved) => {
                self.held.push(candidate);
                self.commit(solved);
                self.seen.admitted += 1;
                None
            }
            Err(e) => {
                for l in inserted {
                    self.graph.remove_vertex(l);
                }
                self.count_rejection(&e);
                Some(match e {
                    ScheduleError::SolverFailed(msg) => RejectReason::SolverLimit(msg),
                    _ => RejectReason::Infeasible,
                })
            }
        }
    }

    /// `greedy_rank` of `admission.rs`.
    fn greedy_rank(&self, key: GreedyKey, demands: &Demands, f: &Held) -> u64 {
        match key {
            GreedyKey::CliqueLoad => f
                .path
                .links()
                .iter()
                .filter_map(|&l| self.graph.index_of(l))
                .map(|i| {
                    self.graph
                        .maximal_clique_containing(i)
                        .iter()
                        .map(|&v| u64::from(demands.get(self.graph.link_at(v))))
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0),
            GreedyKey::HopCount => f.path.hop_count() as u64,
            GreedyKey::Demand => u64::from(f.slots_per_link) * f.path.hop_count() as u64,
            _ => unreachable!("no other key exists"),
        }
    }

    /// `QosSession::admit_batch`: one verdict per spec, `None` admitted.
    fn admit_batch(&mut self, specs: &[FlowSpec]) -> Vec<Option<RejectReason>> {
        if specs.len() <= 1 {
            return specs.iter().map(|s| self.admit(s)).collect();
        }
        let mut verdicts: Vec<Option<Option<RejectReason>>> = vec![None; specs.len()];
        let mut candidates: Vec<(usize, Held)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            if self.is_admitted(spec.id) || candidates.iter().any(|(_, c)| c.spec.id == spec.id) {
                self.seen.rejected_as_duplicate += 1;
                verdicts[i] = Some(Some(RejectReason::DuplicateFlow));
                continue;
            }
            let path = shortest_path(self.mesh.topology(), spec.src, spec.dst).ok();
            match self.vet(spec, path) {
                Ok(c) => candidates.push((i, c)),
                Err(reason) => {
                    self.seen.rejected_by_vetting += 1;
                    verdicts[i] = Some(Some(reason));
                }
            }
        }
        if !candidates.is_empty() {
            let held = self.held.clone();
            let trial: Vec<&Held> = held
                .iter()
                .chain(candidates.iter().map(|(_, c)| c))
                .collect();
            let demands = self.demands(&trial);
            let inserted = self.grow(&demands);
            match self.solve(&demands, &trial) {
                Ok(solved) => {
                    for (i, c) in candidates {
                        self.held.push(c);
                        verdicts[i] = Some(None);
                        self.seen.admitted += 1;
                    }
                    self.commit(solved);
                    self.seen.batches_coalesced += 1;
                }
                Err(_) => {
                    self.seen.batches_fallen_back += 1;
                    if let OrderPolicy::GreedySequential { key } = self.policy {
                        candidates
                            .sort_by_cached_key(|(i, c)| (self.greedy_rank(key, &demands, c), *i));
                    }
                    for l in inserted {
                        self.graph.remove_vertex(l);
                    }
                    for (i, c) in candidates {
                        verdicts[i] = Some(self.admit_on(&specs[i], Some(c.path)));
                    }
                }
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every spec has a verdict"))
            .collect()
    }

    /// `QosSession::release`: `Ok(false)` for an unknown id, `Err` when
    /// neither the recomputed nor the previous order schedules the rest.
    fn release(&mut self, id: FlowId) -> Result<bool, ScheduleError> {
        let Some(pos) = self.held.iter().position(|f| f.spec.id == id) else {
            self.seen.releases_of_unknown_ids += 1;
            return Ok(false);
        };
        let removed = self.held.remove(pos);
        let held = self.held.clone();
        let trial: Vec<&Held> = held.iter().collect();
        let demands = self.demands(&trial);
        let stale: Vec<LinkId> = self
            .graph
            .links()
            .iter()
            .copied()
            .filter(|&l| demands.get(l) == 0)
            .collect();
        for &l in &stale {
            self.graph.remove_vertex(l);
        }
        let solved = self
            .solve(&demands, &trial)
            .or_else(|e| self.keep_previous_order(&demands, &trial).ok_or(e));
        match solved {
            Ok(solved) => {
                self.commit(solved);
                self.seen.releases += 1;
                Ok(true)
            }
            Err(e) => {
                let mut back = stale;
                back.sort_unstable();
                for l in back {
                    self.graph
                        .insert_vertex(self.mesh.topology(), l, self.mesh.interference());
                }
                self.held.insert(pos, removed);
                self.seen.releases_failed += 1;
                Err(e)
            }
        }
    }

    fn keep_previous_order(&mut self, demands: &Demands, flows: &[&Held]) -> Option<Solved> {
        if self.policy == OrderPolicy::ExactMilp {
            return None;
        }
        let previous = TransmissionOrder::from_link_pairs(&self.graph, &self.warm);
        let frame = self.mesh.model().frame();
        let reqs: Vec<PathRequirement> = flows
            .iter()
            .map(|f| PathRequirement {
                path: f.path.clone(),
                deadline_slots: self.budget(f.spec.deadline, &f.path).flatten(),
            })
            .collect();
        let kept =
            validate_order_within(&self.graph, demands, &reqs, frame, frame.slots(), &previous)?;
        self.seen.releases_keeping_the_previous_order += 1;
        let used = kept.schedule.makespan();
        Some((kept.schedule, kept.order, used))
    }

    /// `QosSession::rebalance`: the held flows placed one at a time on a
    /// fresh reference — in admission order, or cheapest first by the
    /// greedy key against their joint demand — and the graph rebuilt over
    /// the demanded links in ascending order. A flow the fresh placement
    /// refuses is dropped.
    fn rebalance(&mut self) {
        let mut fresh = Reference::new(self.mesh, self.policy);
        let mut flows = std::mem::take(&mut self.held);
        if let OrderPolicy::GreedySequential { key } = self.policy {
            let demands = fresh.demands(&flows.iter().collect::<Vec<_>>());
            let inserted = fresh.grow(&demands);
            // Stable: equal ranks keep admission order.
            flows.sort_by_cached_key(|f| fresh.greedy_rank(key, &demands, f));
            for l in inserted {
                fresh.graph.remove_vertex(l);
            }
        }
        for f in flows {
            fresh.admit_on(&f.spec, Some(f.path));
        }
        fresh.seen = self.seen;
        fresh.seen.rebalances += 1;
        *self = fresh;
        self.rebuild_graph();
    }

    /// What an export → restore round trip does to the old session: the
    /// same state on a graph numbered in ascending link order.
    fn restore(&mut self) {
        let pairs = std::mem::take(&mut self.warm);
        self.rebuild_graph();
        let ord = TransmissionOrder::from_link_pairs(&self.graph, &pairs);
        self.warm = ord.link_pairs(&self.graph);
        self.seen.restores += 1;
    }

    fn rebuild_graph(&mut self) {
        let held = self.held.clone();
        let demands = self.demands(&held.iter().collect::<Vec<_>>());
        self.graph = ConflictGraph::build_for_links(
            self.mesh.topology(),
            demands.links().collect(),
            self.mesh.interference(),
        );
    }

    fn export_state(&self) -> SessionState {
        let mut warm_pairs = self.warm.clone();
        warm_pairs.sort_unstable();
        SessionState {
            policy: self.policy,
            flows: self
                .held
                .iter()
                .map(|f| FlowState {
                    spec: f.spec.clone(),
                    path: f.path.nodes().to_vec(),
                    slots_per_link: f.slots_per_link,
                })
                .collect(),
            warm_pairs,
            ranges: self.schedule.iter().collect(),
            guaranteed_slots: self.used,
        }
    }
}

fn empty_schedule(mesh: &MeshQos) -> Schedule {
    Schedule::from_ranges(mesh.model().frame(), Default::default()).expect("empty fits")
}

/// The session's whole observable state equals the reference's, and its
/// schedule certifies.
fn assert_same_state(session: &QosSession, reference: &Reference) -> Result<(), TestCaseError> {
    let (ours, theirs) = (session.export_state(), reference.export_state());
    prop_assert_eq!(&ours, &theirs);
    let snap = session.snapshot();
    prop_assert_eq!(snap.guaranteed_slots, reference.used);
    prop_assert_eq!(&snap.schedule, &reference.schedule);
    let bounds: Vec<Duration> = snap.admitted.iter().map(|f| f.worst_case_delay).collect();
    prop_assert_eq!(&bounds, &reference.bounds);
    support::certify(session.mesh(), snap)
        .map(drop)
        .map_err(|e| TestCaseError::fail(format!("published an uncertifiable schedule: {e}")))
}

fn verdict_of(admission: &FlowAdmission) -> Option<RejectReason> {
    admission.rejected().cloned()
}

#[derive(Debug, Clone)]
enum Op {
    Admit(FlowSpec),
    Batch(Vec<FlowSpec>),
    Release(FlowId),
    Rebalance,
    Restore,
}

/// Applies one operation to both sides and compares what they answer and
/// what they hold afterwards.
fn step<'a>(
    session: &mut QosSession,
    reference: &mut Reference<'a>,
    op: &Op,
) -> Result<(), TestCaseError> {
    let before = session.export_state();
    match op {
        Op::Admit(spec) => {
            let ours = session.admit(spec).map_err(fail)?;
            let theirs = reference.admit(spec);
            prop_assert_eq!(verdict_of(&ours), theirs.clone(), "admit {:?}", spec);
            if theirs.is_some() {
                prop_assert_eq!(
                    &session.export_state(),
                    &before,
                    "a reject changed the state"
                );
            } else {
                let bound = ours.admitted().map(|f| f.worst_case_delay);
                prop_assert_eq!(bound, reference.bounds.last().copied());
            }
        }
        Op::Batch(specs) => {
            let ours = session.admit_batch(specs).map_err(fail)?;
            let theirs = reference.admit_batch(specs);
            let ours: Vec<_> = ours.iter().map(verdict_of).collect();
            prop_assert_eq!(&ours, &theirs, "batch {:?}", specs);
            if theirs.iter().all(Option::is_some) {
                prop_assert_eq!(
                    &session.export_state(),
                    &before,
                    "rejects changed the state"
                );
            }
        }
        Op::Release(id) => {
            let ours = session.release(*id);
            let theirs = reference.release(*id);
            match (ours, theirs) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "release {}", id),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), QosError::from(b).to_string());
                    prop_assert_eq!(
                        &session.export_state(),
                        &before,
                        "a failed release changed the state"
                    );
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "release {id}: session {a:?}, reference {b:?}"
                    )))
                }
            }
        }
        Op::Rebalance => {
            session.rebalance().map_err(fail)?;
            reference.rebalance();
        }
        Op::Restore => {
            *session = session
                .mesh()
                .restore_session(&session.export_state())
                .map_err(fail)?;
            reference.restore();
            prop_assert_eq!(
                &session.export_state(),
                &before,
                "restore changed the state"
            );
        }
    }
    assert_same_state(session, reference)
}

fn fail(e: QosError) -> TestCaseError {
    TestCaseError::fail(e.to_string())
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Tree,
    Grid4,
    Grid8,
}

fn policy_of(pick: u64) -> OrderPolicy {
    match pick % 5 {
        0 => OrderPolicy::HopOrder,
        1 => OrderPolicy::TreeOrder { gateway: NodeId(0) },
        2 => OrderPolicy::GreedySequential {
            key: GreedyKey::CliqueLoad,
        },
        3 => OrderPolicy::GreedySequential {
            key: GreedyKey::HopCount,
        },
        _ => OrderPolicy::GreedySequential {
            key: GreedyKey::Demand,
        },
    }
}

/// A seeded request: VoIP calls and best-effort flows that always fit,
/// heavy guaranteed flows of which a few fill a neighbourhood (capacity
/// rejects), flows with a deadline below one mesh frame (rejected by
/// vetting), and flows whose deadline leaves a pipeline budget between
/// nothing and a frame and a half (rejected by vetting, by the layout's
/// deadline check, or admitted with a binding bound).
fn flow(rng: &mut StdRng, mesh: &MeshQos, id: u32) -> FlowSpec {
    let topo = mesh.topology();
    let n = topo.node_count() as u32;
    let src = NodeId(rng.gen_range(0..n));
    let dst = if rng.gen_bool(0.5) && src != NodeId(0) {
        NodeId(0)
    } else {
        NodeId((src.0 + rng.gen_range(1..n)) % n)
    };
    match rng.gen_range(0..8) {
        0 | 1 => FlowSpec::voip(id, src, dst, VoipCodec::G711),
        2 => FlowSpec::voip(id, src, dst, VoipCodec::G729),
        // A rate no sum of which is exact: the order of the per-link
        // additions is then part of the result.
        3 => FlowSpec::best_effort(id, src, dst, rng.gen_range(1..40) as f64 * 10_000.0 / 3.0),
        4 => {
            let rate = rng.gen_range(3..12) as f64 * 100_000.0;
            FlowSpec::guaranteed(id, src, dst, rate, Duration::from_millis(150))
        }
        5 => FlowSpec::guaranteed(id, src, dst, 64_000.0, Duration::from_millis(1)),
        _ => {
            let hops = shortest_path(topo, src, dst).map_or(1, |p| p.hop_count()) as u32;
            let mesh_frame = mesh.model().mesh_frame();
            let slot_us = mesh.model().frame().slot_duration_us();
            let fixed = mesh_frame.frame_duration() + mesh_frame.ctrl_duration() * (hops - 1);
            let slack = Duration::from_micros(slot_us * rng.gen_range(0..48));
            let rate = rng.gen_range(1..30) as f64 * 10_000.0;
            FlowSpec::guaranteed(id, src, dst, rate, fixed + slack)
        }
    }
}

/// Five flows that fill `chain(6)` under the hop order; without flow 3
/// the recomputed hop order needs more minislots than the frame has, so
/// releasing it keeps the previous order.
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
        let deadline = Duration::from_millis(150);
        FlowSpec::guaranteed(id as u32, NodeId(src), NodeId(dst), rate, deadline)
    })
    .collect()
}

/// One seeded run: a mesh of the given shape, a rank policy, and a script
/// of operations applied to the session and the reference side by side.
fn churn(seed: u64, shape: Shape) -> Result<Coverage, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let near_capacity = matches!(shape, Shape::Chain) && rng.gen_bool(0.3);
    let topo: MeshTopology = match shape {
        Shape::Chain if near_capacity => generators::chain(6),
        Shape::Chain => generators::chain(rng.gen_range(3..9)),
        Shape::Tree => generators::binary_tree(rng.gen_range(2..4)),
        Shape::Grid4 => generators::grid(4, 4),
        Shape::Grid8 => generators::grid(8, 8),
    };
    let mesh = MeshQos::builder(topo).build().expect("default params");
    let policy = policy_of(rng.gen_range(0..5));
    let mut session = mesh.session(policy);
    let mut reference = Reference::new(&mesh, policy);
    let mut next_id = 0u32;

    if near_capacity {
        for spec in near_capacity_flows() {
            step(&mut session, &mut reference, &Op::Admit(spec))?;
        }
        next_id = 5;
        if reference.held.len() == 5 {
            step(&mut session, &mut reference, &Op::Release(FlowId(3)))?;
        }
    }

    let target = match shape {
        Shape::Grid8 => 24,
        Shape::Grid4 => 12,
        _ => 6,
    };
    for _ in 0..rng.gen_range(20..50) {
        let live = reference.held.len();
        let op = match rng.gen_range(0..100) {
            0..=3 => Op::Rebalance,
            4..=8 => Op::Restore,
            9..=13 => Op::Release(FlowId(10_000 + next_id)),
            14..=17 if live > 0 => {
                // A retried request: the id of a live flow.
                let again = reference.held[rng.gen_range(0..live)].spec.clone();
                Op::Admit(again)
            }
            r if r < 45 && live > 0 && (live >= target || r < 35) => {
                Op::Release(reference.held[rng.gen_range(0..live)].spec.id)
            }
            r if r < 70 => {
                let mut specs: Vec<FlowSpec> = (0..rng.gen_range(2..6))
                    .map(|k| flow(&mut rng, &mesh, next_id + k))
                    .collect();
                next_id += specs.len() as u32;
                if rng.gen_bool(0.2) {
                    // The same id twice in one batch: the first wins.
                    let mut twin = flow(&mut rng, &mesh, 0);
                    twin.id = specs[0].id;
                    specs.push(twin);
                }
                Op::Batch(specs)
            }
            _ => {
                next_id += 1;
                Op::Admit(flow(&mut rng, &mesh, next_id - 1))
            }
        };
        step(&mut session, &mut reference, &op)?;
    }
    while let Some(f) = reference.held.first() {
        let id = f.spec.id;
        let live = reference.held.len();
        step(&mut session, &mut reference, &Op::Release(id))?;
        if reference.held.len() == live {
            // A release the heuristics cannot reschedule: rebalance is the
            // documented way out; stop if even that keeps the set.
            step(&mut session, &mut reference, &Op::Rebalance)?;
            break;
        }
    }
    Ok(reference.seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chain_churn_equals_the_from_scratch_pipeline(seed in any::<u64>()) {
        churn(seed, Shape::Chain)?;
    }

    #[test]
    fn tree_churn_equals_the_from_scratch_pipeline(seed in any::<u64>()) {
        churn(seed, Shape::Tree)?;
    }

    #[test]
    fn grid4_churn_equals_the_from_scratch_pipeline(seed in any::<u64>()) {
        churn(seed, Shape::Grid4)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn grid8_churn_equals_the_from_scratch_pipeline(seed in any::<u64>()) {
        churn(seed, Shape::Grid8)?;
    }
}

/// The generator reaches every branch the properties are about.
#[test]
fn the_churn_reaches_every_branch() {
    let mut total = Coverage::default();
    for seed in 0..24u64 {
        for shape in [Shape::Chain, Shape::Tree, Shape::Grid4] {
            total.add(&churn(seed, shape).expect("equivalent"));
        }
    }
    for seed in 0..4u64 {
        total.add(&churn(seed, Shape::Grid8).expect("equivalent"));
    }
    assert!(total.admitted >= 1000, "{total:?}");
    assert!(total.rejected_by_vetting >= 150, "{total:?}");
    assert!(total.rejected_by_capacity >= 200, "{total:?}");
    assert!(total.rejected_by_deadline >= 200, "{total:?}");
    assert!(total.rejected_as_duplicate >= 100, "{total:?}");
    assert!(total.batches_coalesced >= 150, "{total:?}");
    assert!(total.batches_fallen_back >= 200, "{total:?}");
    assert!(total.releases >= 1000, "{total:?}");
    assert!(total.releases_of_unknown_ids >= 70, "{total:?}");
    assert!(total.releases_keeping_the_previous_order >= 10, "{total:?}");
    // Every policy here keeps the previous order when the recomputed one
    // fails, so a release fails only where that order misses a deadline
    // too.
    assert!(total.releases_failed >= 1, "{total:?}");
    assert!(total.rebalances >= 60, "{total:?}");
    assert!(total.restores >= 60, "{total:?}");
}
