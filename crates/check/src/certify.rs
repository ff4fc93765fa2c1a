//! The independent schedule certifier.
//!
//! [`Certificate::check`] re-verifies every guarantee the admission
//! controller claims for a schedule, from first principles and **sharing no
//! code with `crates/tdma`**:
//!
//! 1. **Conflict-freedom**, slot by slot: for every minislot, no two links
//!    active in it may conflict. This is the paper's collision-free TDMA
//!    invariant checked by brute force (O(slots × links²)) rather than by
//!    pairwise range algebra.
//! 2. **Demand satisfaction**: every demanded link holds a range at least
//!    as long as its demand; no link is scheduled without demand; every
//!    scheduled link is a conflict-graph vertex.
//! 3. **Delay bounds**: each flow's end-to-end worst-case delay is
//!    re-derived by walking its path hop by hop through the frame
//!    (re-counting frame wraps) and compared against its deadline.
//! 4. **Guard sufficiency**: the guard time carved out of each minislot is
//!    re-derived from the drift model (mutual clock error of two
//!    worst-placed nodes plus radio turnaround) and must not exceed the
//!    deployed guard.
//! 5. **Order consistency**: a from-scratch Bellman–Ford longest-path pass
//!    over the conflict graph, with the transmission order *read off the
//!    schedule's start times*, recomputes the minimum makespan; the
//!    schedule must be at least that long and fit the frame.
//!
//! The checker is deliberately simple — no warm starts, no incremental
//! state, no pruning — so the heavily optimised admission paths (warm
//! orders, binary slot search, bound-closed exact search) are continuously
//! cross-checked against a reference oracle. All violations are collected,
//! not just the first, and returned: the check is a pure function that
//! writes no telemetry or other process-global state, so a failure
//! reaches only its caller.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use wimesh_conflict::ConflictGraph;
use wimesh_emu::EmulationModel;
use wimesh_tdma::{Demands, Schedule, SlotRange};
use wimesh_topology::LinkId;

/// The clock-drift model guard times must cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Worst-case oscillator drift, parts per million.
    pub drift_ppm: f64,
    /// Interval between synchronisation beacons.
    pub resync_interval: Duration,
    /// Per-hop beacon timestamping error.
    pub timestamp_error: Duration,
    /// Maximum sync-tree depth (stamping error accumulates per hop).
    pub max_sync_depth: u32,
    /// Radio rx/tx turnaround absorbed into each guard.
    pub turnaround: Duration,
}

impl DriftModel {
    /// The guard one minislot needs: twice the worst single-node error
    /// (two nodes may err in opposite directions) plus turnaround.
    ///
    /// Re-derived here from the model definition; intentionally not a call
    /// into `wimesh-emu`'s bound. Saturates rather than panics, and a
    /// non-finite drift requires [`Duration::MAX`], so no finite guard
    /// covers it.
    pub fn required_guard(&self) -> Duration {
        if !self.drift_ppm.is_finite() {
            return Duration::MAX;
        }
        let stamping = self
            .timestamp_error
            .saturating_mul(self.max_sync_depth.max(1));
        // `as` saturates a huge product at `u64::MAX`.
        let drift_ns =
            (self.drift_ppm.abs() * 1e-6 * self.resync_interval.as_nanos() as f64).ceil() as u64;
        stamping
            .saturating_add(Duration::from_nanos(drift_ns))
            .saturating_mul(2)
            .saturating_add(self.turnaround)
    }
}

/// Everything the certifier needs to know about the claimed deployment,
/// independent of the schedule object under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertParams {
    /// Claimed minislots per data subframe.
    pub frame_slots: u32,
    /// Claimed minislot duration.
    pub slot_duration: Duration,
    /// Duration of the full mesh frame (control + data subframes).
    pub mesh_frame_duration: Duration,
    /// Duration of the control subframe (each frame wrap costs it again).
    pub ctrl_duration: Duration,
    /// Guard time deployed in every minislot.
    pub guard: Duration,
    /// The clock model the guard must cover.
    pub drift: DriftModel,
}

impl CertParams {
    /// Extracts certifier parameters from the emulation capacity model.
    pub fn from_emulation(model: &EmulationModel) -> Self {
        let frame = model.frame();
        let mesh = model.mesh_frame();
        let p = model.params();
        CertParams {
            frame_slots: frame.slots(),
            slot_duration: Duration::from_micros(frame.slot_duration_us()),
            mesh_frame_duration: mesh.frame_duration(),
            ctrl_duration: mesh.ctrl_duration(),
            guard: model.guard_time(),
            drift: DriftModel {
                drift_ppm: p.clock.drift_ppm,
                resync_interval: p.clock.resync_interval,
                timestamp_error: p.clock.timestamp_error,
                max_sync_depth: p.max_sync_depth,
                turnaround: p.turnaround,
            },
        }
    }
}

/// One flow whose admission claim the certifier re-checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRequirement {
    /// Caller-chosen flow id used in violation reports.
    pub id: u64,
    /// The links of the flow's path, in traversal order.
    pub links: Vec<LinkId>,
    /// End-to-end delay bound, if the flow has one.
    pub deadline: Option<Duration>,
}

/// One way a schedule fails certification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A scheduled link is not a vertex of the conflict graph, so its
    /// collisions cannot have been checked by anyone.
    UnknownLink {
        /// The offending link.
        link: LinkId,
    },
    /// The schedule's frame shape disagrees with the claimed deployment.
    FrameMismatch {
        /// Slots/slot-duration claimed by the deployment parameters.
        expected: (u32, Duration),
        /// Slots/slot-duration the schedule was built for.
        actual: (u32, Duration),
    },
    /// A range runs past the end of the claimed frame.
    FrameOverflow {
        /// The offending link.
        link: LinkId,
        /// One past its last slot.
        end: u32,
        /// Claimed slots per frame.
        frame_slots: u32,
    },
    /// Two conflicting links are both active in the same minislot.
    SlotCollision {
        /// First minislot where the pair overlaps.
        slot: u32,
        /// One offending link.
        a: LinkId,
        /// The other.
        b: LinkId,
    },
    /// A link's range is shorter than its demand.
    UnderAllocated {
        /// The offending link.
        link: LinkId,
        /// Minislots demanded.
        needed: u32,
        /// Minislots granted.
        got: u32,
    },
    /// A demanded link has no range at all.
    UnscheduledDemand {
        /// The offending link.
        link: LinkId,
    },
    /// A link is scheduled but carries no demand: the schedule grants
    /// capacity nobody accounted for.
    PhantomAllocation {
        /// The offending link.
        link: LinkId,
    },
    /// A flow's path crosses a link with no slot range.
    PathUnscheduled {
        /// The flow.
        flow: u64,
        /// The hop with no allocation.
        link: LinkId,
    },
    /// A flow's re-derived worst-case delay exceeds its deadline.
    DelayBoundExceeded {
        /// The flow.
        flow: u64,
        /// Worst-case delay re-derived by the certifier.
        worst_case: Duration,
        /// The promised bound.
        deadline: Duration,
    },
    /// The deployed guard does not cover the drift model.
    GuardInsufficient {
        /// Deployed guard per minislot.
        guard: Duration,
        /// Guard the drift model requires.
        required: Duration,
    },
    /// The order read off the schedule's start times is cyclic — start
    /// times contradict each other (cannot happen for overlap-free
    /// schedules; kept as a defensive check on the certifier itself).
    OrderCycle {
        /// Number of links involved.
        links: usize,
    },
    /// The schedule claims a smaller makespan than its own transmission
    /// order admits under the reference Bellman–Ford.
    InconsistentMakespan {
        /// Makespan of the schedule under test.
        claimed: u32,
        /// Minimum makespan of its order per the reference pass.
        reference: u32,
    },
    /// A recovered session's recorded guaranteed region disagrees with
    /// the makespan of the schedule it replayed to — the replay
    /// produced a valid schedule, but not the journaled one.
    RecoveredRegionMismatch {
        /// Guaranteed-region size the journal recorded.
        recorded: u32,
        /// Makespan of the recovered schedule.
        actual: u32,
    },
}

impl Violation {
    /// Stable kebab-case kind tag (used by tests and JSON consumers).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::UnknownLink { .. } => "unknown-link",
            Violation::FrameMismatch { .. } => "frame-mismatch",
            Violation::FrameOverflow { .. } => "frame-overflow",
            Violation::SlotCollision { .. } => "slot-collision",
            Violation::UnderAllocated { .. } => "under-allocated",
            Violation::UnscheduledDemand { .. } => "unscheduled-demand",
            Violation::PhantomAllocation { .. } => "phantom-allocation",
            Violation::PathUnscheduled { .. } => "path-unscheduled",
            Violation::DelayBoundExceeded { .. } => "delay-bound-exceeded",
            Violation::GuardInsufficient { .. } => "guard-insufficient",
            Violation::OrderCycle { .. } => "order-cycle",
            Violation::InconsistentMakespan { .. } => "inconsistent-makespan",
            Violation::RecoveredRegionMismatch { .. } => "recovered-region-mismatch",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnknownLink { link } => {
                write!(f, "scheduled link {link} is not in the conflict graph")
            }
            Violation::FrameMismatch { expected, actual } => write!(
                f,
                "schedule frame {}x{:?} does not match deployment {}x{:?}",
                actual.0, actual.1, expected.0, expected.1
            ),
            Violation::FrameOverflow {
                link,
                end,
                frame_slots,
            } => write!(
                f,
                "link {link} runs to slot {end} in a {frame_slots}-slot frame"
            ),
            Violation::SlotCollision { slot, a, b } => {
                write!(f, "links {a} and {b} conflict and share slot {slot}")
            }
            Violation::UnderAllocated { link, needed, got } => {
                write!(f, "link {link} needs {needed} slots, got {got}")
            }
            Violation::UnscheduledDemand { link } => {
                write!(f, "link {link} has demand but no slot range")
            }
            Violation::PhantomAllocation { link } => {
                write!(f, "link {link} is scheduled without demand")
            }
            Violation::PathUnscheduled { flow, link } => {
                write!(f, "flow {flow} crosses unscheduled link {link}")
            }
            Violation::DelayBoundExceeded {
                flow,
                worst_case,
                deadline,
            } => write!(
                f,
                "flow {flow} worst-case delay {worst_case:?} exceeds deadline {deadline:?}"
            ),
            Violation::GuardInsufficient { guard, required } => write!(
                f,
                "guard {guard:?} below the {required:?} the drift model requires"
            ),
            Violation::OrderCycle { links } => {
                write!(f, "start times imply a cyclic order over {links} links")
            }
            Violation::InconsistentMakespan { claimed, reference } => write!(
                f,
                "claimed makespan {claimed} below reference minimum {reference}"
            ),
            Violation::RecoveredRegionMismatch { recorded, actual } => write!(
                f,
                "recovered schedule occupies {actual} slot(s), the journal recorded {recorded}"
            ),
        }
    }
}

/// Certification failure: the full list of violations found.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyError {
    /// Every violation, in check order.
    pub violations: Vec<Violation>,
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&CertifyError) -> &dyn std::error::Error = |e| e;

impl CertifyError {
    /// True when a violation of the given [`Violation::kind`] is present.
    pub fn has_kind(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule failed certification:")?;
        for v in &self.violations {
            writeln!(f, "  - [{}] {v}", v.kind())?;
        }
        Ok(())
    }
}

impl std::error::Error for CertifyError {}

/// Statistics of a successful certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertificateReport {
    /// Scheduled links checked.
    pub links: usize,
    /// Minislots swept in the collision pass.
    pub slots_checked: u32,
    /// Flows whose delay bounds were re-derived.
    pub flows: usize,
    /// Makespan of the certified schedule.
    pub makespan: u32,
    /// Minimum makespan its transmission order admits (reference
    /// Bellman–Ford); the difference is compaction slack.
    pub reference_makespan: u32,
    /// Guard margin over the drift model's requirement.
    pub guard_slack: Duration,
}

/// The certifier. See the [module documentation](self) for the invariants
/// it re-derives.
pub struct Certificate;

impl Certificate {
    /// Certifies a *recovered* session: the full [`Certificate::check`]
    /// pass plus the recovery-specific claim — the guaranteed-region
    /// size the journal recorded must match the makespan of the
    /// schedule the replay produced. A recovered state must not merely
    /// be valid; it must be the state that was journaled.
    ///
    /// # Errors
    ///
    /// As [`Certificate::check`]; a region disagreement surfaces as a
    /// single [`Violation::RecoveredRegionMismatch`].
    pub fn check_recovery(
        schedule: &Schedule,
        graph: &ConflictGraph,
        demands: &Demands,
        flows: &[FlowRequirement],
        params: &CertParams,
        recorded_slots: u32,
    ) -> Result<CertificateReport, CertifyError> {
        let report = Self::check(schedule, graph, demands, flows, params)?;
        if report.makespan != recorded_slots {
            return Err(CertifyError {
                violations: vec![Violation::RecoveredRegionMismatch {
                    recorded: recorded_slots,
                    actual: report.makespan,
                }],
            });
        }
        Ok(report)
    }

    /// Re-verifies `schedule` against the conflict graph, aggregate
    /// demands, per-flow requirements and deployment parameters.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] with every [`Violation`] found (the check does not
    /// stop at the first).
    pub fn check(
        schedule: &Schedule,
        graph: &ConflictGraph,
        demands: &Demands,
        flows: &[FlowRequirement],
        params: &CertParams,
    ) -> Result<CertificateReport, CertifyError> {
        let mut violations = Vec::new();

        // (4) Guard sufficiency against the drift model.
        let required = params.drift.required_guard();
        if params.guard < required {
            violations.push(Violation::GuardInsufficient {
                guard: params.guard,
                required,
            });
        }

        // Frame shape must match the claimed deployment.
        let frame = schedule.frame();
        let actual = (
            frame.slots(),
            Duration::from_micros(frame.slot_duration_us()),
        );
        let expected = (params.frame_slots, params.slot_duration);
        if actual != expected {
            violations.push(Violation::FrameMismatch { expected, actual });
        }

        // (2a) Every scheduled link must be a graph vertex and fit the
        // claimed frame.
        let entries: Vec<(LinkId, SlotRange)> = schedule.iter().collect();
        for &(link, range) in &entries {
            if graph.index_of(link).is_none() {
                violations.push(Violation::UnknownLink { link });
            }
            if range.end() > params.frame_slots {
                violations.push(Violation::FrameOverflow {
                    link,
                    end: range.end(),
                    frame_slots: params.frame_slots,
                });
            }
        }

        // (1) Conflict-freedom, slot by slot. Sweep up to the furthest
        // occupied slot so overflowing ranges are still collision-checked.
        let known: Vec<(LinkId, SlotRange)> = entries
            .iter()
            .copied()
            .filter(|(l, _)| graph.index_of(*l).is_some())
            .collect();
        let sweep = known
            .iter()
            .map(|(_, r)| r.end())
            .max()
            .unwrap_or(0)
            .max(params.frame_slots);
        let mut reported: BTreeSet<(LinkId, LinkId)> = BTreeSet::new();
        for slot in 0..sweep {
            for (i, &(la, ra)) in known.iter().enumerate() {
                if !(ra.start <= slot && slot < ra.end()) {
                    continue;
                }
                for &(lb, rb) in &known[i + 1..] {
                    if !(rb.start <= slot && slot < rb.end()) {
                        continue;
                    }
                    let pair = if la < lb { (la, lb) } else { (lb, la) };
                    if graph.are_in_conflict(la, lb) && reported.insert(pair) {
                        violations.push(Violation::SlotCollision { slot, a: la, b: lb });
                    }
                }
            }
        }

        // (2b) Demand satisfaction, both directions.
        for (link, needed) in demands.iter() {
            match schedule.slot_range(link) {
                None => violations.push(Violation::UnscheduledDemand { link }),
                Some(range) if range.len < needed => {
                    violations.push(Violation::UnderAllocated {
                        link,
                        needed,
                        got: range.len,
                    });
                }
                Some(_) => {}
            }
        }
        for &(link, _) in &entries {
            if demands.get(link) == 0 {
                violations.push(Violation::PhantomAllocation { link });
            }
        }

        // (3) Per-flow delay bounds, re-derived hop by hop.
        for flow in flows {
            let mut complete = true;
            for &link in &flow.links {
                if schedule.slot_range(link).is_none() {
                    violations.push(Violation::PathUnscheduled {
                        flow: flow.id,
                        link,
                    });
                    complete = false;
                }
            }
            if !complete {
                continue;
            }
            if let (Some(deadline), Some((pipeline, wraps))) = (
                flow.deadline,
                walk_path(schedule, params.frame_slots, &flow.links),
            ) {
                // One mesh frame of source wait + pipeline slots + one
                // control subframe per frame wrap: the admission
                // controller's promise, recomputed.
                let worst_case = params
                    .mesh_frame_duration
                    .saturating_add(mul_duration(params.slot_duration, pipeline))
                    .saturating_add(mul_duration(params.ctrl_duration, wraps));
                if worst_case > deadline {
                    violations.push(Violation::DelayBoundExceeded {
                        flow: flow.id,
                        worst_case,
                        deadline,
                    });
                }
            }
        }

        // (5) Reference Bellman–Ford over the order implied by start
        // times.
        let reference = reference_makespan(&known, graph, &reported, &mut violations);
        let makespan = schedule.makespan();
        if makespan < reference {
            violations.push(Violation::InconsistentMakespan {
                claimed: makespan,
                reference,
            });
        }

        if violations.is_empty() {
            Ok(CertificateReport {
                links: entries.len(),
                slots_checked: sweep,
                flows: flows.len(),
                makespan,
                reference_makespan: reference,
                guard_slack: params.guard.saturating_sub(required),
            })
        } else {
            Err(CertifyError { violations })
        }
    }
}

/// `duration * n` for a `u64` multiplier, saturating instead of
/// panicking or wrapping.
fn mul_duration(d: Duration, n: u64) -> Duration {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(ns.saturating_mul(n))
}

/// Walks a flow's path through consecutive frames: each hop departs at the
/// next occurrence of its slot range at-or-after the previous hop's
/// completion. Returns `(pipeline_slots, frame_wraps)` — the slots from
/// the first hop's start to the last hop's end, and how many times the
/// walk crossed a frame boundary (each crossing traverses the control
/// subframe once more). `None` when a hop is unscheduled.
fn walk_path(schedule: &Schedule, frame_slots: u32, links: &[LinkId]) -> Option<(u64, u64)> {
    let frame_slots = frame_slots.max(1) as u64;
    let mut iter = links.iter();
    let first = schedule.slot_range(*iter.next()?)?;
    let origin = first.start as u64;
    let mut ready = origin + first.len as u64;
    let mut wraps = 0u64;
    for link in iter {
        let range = schedule.slot_range(*link)?;
        let offset = range.start as u64;
        let rem = ready % frame_slots;
        let depart = if offset >= rem {
            ready - rem + offset
        } else {
            wraps += 1;
            ready - rem + frame_slots + offset
        };
        ready = depart + range.len as u64;
    }
    Some((ready - origin, wraps))
}

/// From-scratch Bellman–Ford longest-path over the conflict graph, with
/// the transmission order read off the schedule's start times (earlier
/// start transmits first). Returns the minimum makespan that order admits.
/// Overlapping conflicting pairs (already reported as collisions) induce
/// no constraint.
fn reference_makespan(
    known: &[(LinkId, SlotRange)],
    graph: &ConflictGraph,
    colliding: &BTreeSet<(LinkId, LinkId)>,
    violations: &mut Vec<Violation>,
) -> u32 {
    let n = known.len();
    if n == 0 {
        return 0;
    }
    // Directed constraints: earlier-starting link finishes before the
    // later one begins, so sigma_later >= sigma_earlier + len_earlier.
    let mut edges: Vec<(usize, usize, i64)> = Vec::new();
    for (i, &(la, ra)) in known.iter().enumerate() {
        for (j, &(lb, rb)) in known.iter().enumerate().skip(i + 1) {
            if !graph.are_in_conflict(la, lb) {
                continue;
            }
            let pair = if la < lb { (la, lb) } else { (lb, la) };
            if colliding.contains(&pair) {
                continue;
            }
            if ra.start <= rb.start {
                edges.push((i, j, ra.len as i64));
            } else {
                edges.push((j, i, rb.len as i64));
            }
        }
    }
    let mut sigma = vec![0i64; n];
    let mut cyclic = false;
    for round in 0..=n {
        let mut changed = false;
        for &(u, v, w) in &edges {
            if sigma[u] + w > sigma[v] {
                sigma[v] = sigma[u] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n {
            cyclic = true;
        }
    }
    if cyclic {
        violations.push(Violation::OrderCycle { links: n });
        return 0;
    }
    known
        .iter()
        .enumerate()
        .map(|(i, (_, r))| (sigma[i] + r.len as i64) as u32)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wimesh_conflict::InterferenceModel;
    use wimesh_tdma::FrameConfig;
    use wimesh_topology::{generators, routing, NodeId};

    fn chain_fixture() -> (Schedule, ConflictGraph, Demands, Vec<LinkId>) {
        let topo = generators::chain(4);
        let path = routing::shortest_path(&topo, NodeId(0), NodeId(3)).expect("chain path");
        let links: Vec<LinkId> = path.links().to_vec();
        let mut demands = Demands::new();
        for &l in &links {
            demands.set(l, 2);
        }
        let graph = ConflictGraph::build_for_links(
            &topo,
            links.clone(),
            InterferenceModel::protocol_default(),
        );
        // Hop-ordered compact layout: [0,2) [2,4) [4,6).
        let mut ranges = BTreeMap::new();
        for (i, &l) in links.iter().enumerate() {
            ranges.insert(l, SlotRange::new(2 * i as u32, 2));
        }
        let schedule =
            Schedule::from_ranges(FrameConfig::new(16, 250), ranges).expect("fixture fits");
        (schedule, graph, demands, links)
    }

    fn params() -> CertParams {
        CertParams {
            frame_slots: 16,
            slot_duration: Duration::from_micros(250),
            mesh_frame_duration: Duration::from_millis(5),
            ctrl_duration: Duration::from_millis(1),
            guard: Duration::from_micros(60),
            drift: DriftModel {
                drift_ppm: 20.0,
                resync_interval: Duration::from_millis(500),
                timestamp_error: Duration::from_micros(2),
                max_sync_depth: 4,
                turnaround: Duration::from_micros(5),
            },
        }
    }

    #[test]
    fn valid_schedule_certifies() {
        let (schedule, graph, demands, links) = chain_fixture();
        let flows = vec![FlowRequirement {
            id: 1,
            links,
            deadline: Some(Duration::from_millis(50)),
        }];
        let report = Certificate::check(&schedule, &graph, &demands, &flows, &params())
            .expect("fixture is valid");
        assert_eq!(report.links, 3);
        assert_eq!(report.makespan, 6);
        assert_eq!(report.reference_makespan, 6);
        assert!(report.guard_slack > Duration::ZERO);
    }

    #[test]
    fn forward_path_has_no_wraps() {
        let (schedule, _, _, links) = chain_fixture();
        let (pipeline, wraps) = walk_path(&schedule, 16, &links).expect("all hops scheduled");
        assert_eq!(pipeline, 6);
        assert_eq!(wraps, 0);
    }

    #[test]
    fn reversed_path_wraps_every_hop() {
        let (schedule, _, _, mut links) = chain_fixture();
        links.reverse();
        let (pipeline, wraps) = walk_path(&schedule, 16, &links).expect("all hops scheduled");
        assert_eq!(wraps, 2);
        // First hop [4,6), then wait for [2,4) next frame (16+2=18..20),
        // then [0,2) the frame after (32..34): 34 - 4 = 30 slots.
        assert_eq!(pipeline, 30);
    }

    #[test]
    fn required_guard_matches_model_shape() {
        let p = params();
        let g = p.drift.required_guard();
        // 2 * (2us*4 + 20ppm * 500ms = 10us) + 5us = 41us.
        assert_eq!(g, Duration::from_micros(41));
        let mut worse = p.drift;
        worse.resync_interval *= 2;
        assert!(worse.required_guard() > g);
    }

    #[test]
    fn empty_schedule_certifies() {
        let (_, graph, _, _) = chain_fixture();
        let schedule =
            Schedule::from_ranges(FrameConfig::new(16, 250), BTreeMap::new()).expect("empty fits");
        let report = Certificate::check(&schedule, &graph, &Demands::new(), &[], &params())
            .expect("empty schedule is trivially valid");
        assert_eq!(report.links, 0);
        assert_eq!(report.reference_makespan, 0);
    }
}
