//! Centralized coordinated scheduling: the MSH-CSCH request/grant cycle.
//!
//! In the 802.16 mesh centralized mode, bandwidth requests flow *up* the
//! routing tree — each node aggregates its subtree's demands into one
//! MSH-CSCH:Request to its parent — until the mesh BS (the gateway) holds
//! the whole picture. The BS computes the allocation and floods an
//! MSH-CSCH:Grant *down* the tree. Crucially, the grant does not list
//! slot ranges: every node derives the actual schedule by running the
//! same deterministic algorithm over the granted demands, so the message
//! stays small.
//!
//! Two deterministic schedule-derivation rules are provided:
//!
//! * [`CschMode::Sequential`] — the spec's plain TDM rule: links are
//!   served one after another in tree traversal order, no spatial reuse.
//!   Simplest, and what a minimal 802.16 implementation does.
//! * [`CschMode::SpatialReuse`] — the delay-aware improvement this
//!   workspace is about: the tree transmission order plus Bellman–Ford
//!   compaction (`wimesh_tdma`), which lets far-apart links share
//!   minislots. Every node can still derive it locally because it is a
//!   deterministic function of the tree and the demands.

use wimesh_conflict::{greedy_coloring, ConflictGraph, InterferenceModel};
use wimesh_tdma::{
    order, schedule_from_order, Demands, FrameConfig, Schedule, ScheduleError, SlotRange,
};
use wimesh_topology::routing::GatewayRouting;
use wimesh_topology::MeshTopology;

/// How nodes derive the schedule from the granted demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CschMode {
    /// Plain TDM: one link after another, no two links ever share a slot.
    Sequential,
    /// Tree-order scheduling with Bellman–Ford compaction: conflict-free
    /// spatial reuse, delay-optimal for tree traffic.
    SpatialReuse,
    /// Greedy-coloring scheduling: near-minimal makespan (maximum spatial
    /// reuse), but delay-oblivious — packets can pay a frame per hop.
    MinSlots,
}

/// Parameters of a centralized scheduling run.
#[derive(Debug, Clone, Copy)]
pub struct CschConfig {
    /// The data subframe being allocated.
    pub frame: FrameConfig,
    /// Schedule-derivation rule.
    pub mode: CschMode,
}

/// Result of a centralized scheduling run.
#[derive(Debug, Clone)]
pub struct CschOutcome {
    /// The derived conflict-free schedule.
    pub schedule: Schedule,
    /// Mesh frames of control signalling before data can flow: requests
    /// climb the tree one level per frame, grants descend likewise.
    pub signalling_frames: u32,
    /// MSH-CSCH messages exchanged (requests up + grant floods down).
    pub messages: u64,
}

/// Runs the centralized request/grant cycle for `demands` over the
/// routing tree and derives the schedule.
///
/// Demands must sit on tree links (child→parent or parent→child of
/// `routing`); the gateway is the scheduling BS.
///
/// # Example
///
/// ```
/// use wimesh_mac80216::csch::{run_centralized, uplink_demands, CschConfig, CschMode};
/// use wimesh_tdma::FrameConfig;
/// use wimesh_topology::routing::GatewayRouting;
/// use wimesh_topology::generators;
///
/// let topo = generators::binary_tree(2);
/// let routing = GatewayRouting::new(&topo, 0.into())?;
/// let demands = uplink_demands(&topo, &routing, 2);
/// let out = run_centralized(&topo, &routing, &demands, CschConfig {
///     frame: FrameConfig::new(64, 250),
///     mode: CschMode::SpatialReuse,
/// })?;
/// // Requests climb two levels and the grant descends two: 4 frames.
/// assert_eq!(out.signalling_frames, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// * [`ScheduleError::LinkNotInGraph`] if a demanded link is not a tree
///   link of `routing`.
/// * [`ScheduleError::FrameTooShort`] if the derived schedule does not
///   fit the frame.
pub fn run_centralized(
    topo: &MeshTopology,
    routing: &GatewayRouting,
    demands: &Demands,
    config: CschConfig,
) -> Result<CschOutcome, ScheduleError> {
    // Validate that demands are on tree links and find the deepest one.
    let mut max_depth = 0usize;
    for (link, _) in demands.iter() {
        let l = topo.link(link).ok_or(ScheduleError::LinkNotInGraph(link))?;
        let on_tree = routing.parent(l.tx) == Some(l.rx) || routing.parent(l.rx) == Some(l.tx);
        if !on_tree {
            return Err(ScheduleError::LinkNotInGraph(link));
        }
        let child = if routing.parent(l.tx) == Some(l.rx) {
            l.tx
        } else {
            l.rx
        };
        max_depth = max_depth.max(routing.depth(child).unwrap_or(0));
    }

    // Signalling cost: requests climb one level per frame, the grant
    // flood descends one level per frame.
    let signalling_frames = 2 * max_depth as u32;
    // Messages: each node on a demand path sends one aggregated request;
    // each interior node rebroadcasts the grant once.
    let mut requesters = std::collections::BTreeSet::new();
    for (link, _) in demands.iter() {
        let l = topo.link(link).expect("validated");
        let mut cursor = if routing.parent(l.tx) == Some(l.rx) {
            l.tx
        } else {
            l.rx
        };
        while cursor != routing.gateway() {
            requesters.insert(cursor);
            cursor = match routing.parent(cursor) {
                Some(p) => p,
                None => break,
            };
        }
    }
    let interior: u64 = topo
        .node_ids()
        .filter(|&n| {
            n != routing.gateway() && topo.node_ids().any(|c| routing.parent(c) == Some(n))
        })
        .count() as u64;
    let messages = requesters.len() as u64 + interior + 1; // +1 BS grant

    let schedule = match config.mode {
        CschMode::Sequential => sequential_schedule(demands, config.frame)?,
        CschMode::SpatialReuse => {
            let graph = ConflictGraph::build_for_links(
                topo,
                demands.links().collect(),
                InterferenceModel::protocol_default(),
            );
            let ord = order::tree_order(topo, routing, &graph);
            schedule_from_order(&graph, demands, &ord, config.frame)?
        }
        CschMode::MinSlots => {
            let graph = ConflictGraph::build_for_links(
                topo,
                demands.links().collect(),
                InterferenceModel::protocol_default(),
            );
            coloring_schedule(&graph, demands, config.frame)?
        }
    };
    Ok(CschOutcome {
        schedule,
        signalling_frames,
        messages,
    })
}

/// The spec's plain TDM rule: serve links back to back in (deterministic)
/// link-id order — trivially conflict-free, zero spatial reuse.
fn sequential_schedule(demands: &Demands, frame: FrameConfig) -> Result<Schedule, ScheduleError> {
    let mut ranges = std::collections::BTreeMap::new();
    let mut cursor = 0u32;
    for (link, d) in demands.iter() {
        let end = u64::from(cursor) + u64::from(d);
        if end > u64::from(frame.slots()) {
            return Err(ScheduleError::FrameTooShort {
                needed: u32::try_from(end).unwrap_or(u32::MAX),
                available: frame.slots(),
            });
        }
        ranges.insert(link, SlotRange::new(cursor, d));
        cursor += d; // `end` fits the frame, so this cannot overflow
    }
    Schedule::from_ranges(frame, ranges)
}

/// Coloring-based schedule: links of the same color share slots; each
/// color class occupies a band as wide as its largest demand.
fn coloring_schedule(
    graph: &ConflictGraph,
    demands: &Demands,
    frame: FrameConfig,
) -> Result<Schedule, ScheduleError> {
    let coloring = greedy_coloring(graph);
    // Band width per color: the largest demand inside it.
    let mut widths = vec![0u32; coloring.color_count()];
    for (i, &link) in graph.links().iter().enumerate() {
        let c = coloring.color_of_index(i);
        widths[c] = widths[c].max(demands.get(link));
    }
    let total: u64 = widths.iter().map(|&w| u64::from(w)).sum();
    if total > u64::from(frame.slots()) {
        return Err(ScheduleError::FrameTooShort {
            needed: u32::try_from(total).unwrap_or(u32::MAX),
            available: frame.slots(),
        });
    }
    // The bands fit the frame, so no offset overflows.
    let mut offsets = vec![0u32; coloring.color_count()];
    let mut cursor = 0u32;
    for (c, &w) in widths.iter().enumerate() {
        offsets[c] = cursor;
        cursor += w;
    }
    let mut ranges = std::collections::BTreeMap::new();
    for (i, &link) in graph.links().iter().enumerate() {
        let d = demands.get(link);
        if d > 0 {
            ranges.insert(link, SlotRange::new(offsets[coloring.color_of_index(i)], d));
        }
    }
    Schedule::from_ranges(frame, ranges)
}

/// Convenience: per-uplink demand map for all tree links toward the
/// gateway.
pub fn uplink_demands(
    topo: &MeshTopology,
    routing: &GatewayRouting,
    slots_per_link: u32,
) -> Demands {
    let mut demands = Demands::new();
    for link in routing.uplink_links(topo) {
        demands.set(link, slots_per_link);
    }
    demands
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_topology::{generators, NodeId};

    fn setup(n_chain: usize) -> (MeshTopology, GatewayRouting) {
        let topo = generators::chain(n_chain);
        let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
        (topo, routing)
    }

    #[test]
    fn sequential_mode_is_serial() {
        let (topo, routing) = setup(5);
        let demands = uplink_demands(&topo, &routing, 3);
        let out = run_centralized(
            &topo,
            &routing,
            &demands,
            CschConfig {
                frame: FrameConfig::new(64, 100),
                mode: CschMode::Sequential,
            },
        )
        .unwrap();
        assert_eq!(out.schedule.makespan(), 12); // 4 links x 3 slots, serial
        let graph = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        assert!(out.schedule.validate(&graph).is_ok());
        // Requests from 4 nodes + 3 interior rebroadcasts + BS grant.
        assert_eq!(out.messages, 4 + 3 + 1);
        assert_eq!(out.signalling_frames, 2 * 4);
    }

    #[test]
    fn spatial_reuse_beats_sequential_on_trees() {
        // Sibling subtrees of a binary tree can transmit simultaneously
        // under the tree order; on a single chain every consecutive pair
        // conflicts, so the win needs branching.
        let topo = generators::binary_tree(3);
        let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
        let demands = uplink_demands(&topo, &routing, 2);
        let frame = FrameConfig::new(64, 100);
        let mk =
            |mode| run_centralized(&topo, &routing, &demands, CschConfig { frame, mode }).unwrap();
        let seq = mk(CschMode::Sequential);
        let reuse = mk(CschMode::SpatialReuse);
        let min = mk(CschMode::MinSlots);
        assert!(
            reuse.schedule.makespan() < seq.schedule.makespan(),
            "reuse {} vs sequential {}",
            reuse.schedule.makespan(),
            seq.schedule.makespan()
        );
        // Coloring packs at least as tightly as any of them.
        assert!(min.schedule.makespan() <= reuse.schedule.makespan());
        let graph = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        assert!(reuse.schedule.validate(&graph).is_ok());
        assert!(min.schedule.validate(&graph).is_ok());
    }

    #[test]
    fn min_slots_trades_delay_for_makespan() {
        // On a chain, coloring gives ~3x fewer slots than the tree order
        // but forces frame wraps on the uplink path.
        let (topo, routing) = setup(8);
        let demands = uplink_demands(&topo, &routing, 2);
        let frame = FrameConfig::new(64, 100);
        let mk =
            |mode| run_centralized(&topo, &routing, &demands, CschConfig { frame, mode }).unwrap();
        let reuse = mk(CschMode::SpatialReuse);
        let min = mk(CschMode::MinSlots);
        assert!(min.schedule.makespan() < reuse.schedule.makespan());
        let path = routing.uplink(&topo, NodeId(7)).unwrap();
        let d_reuse = wimesh_tdma::delay::path_delay_slots(&reuse.schedule, &path).unwrap();
        let d_min = wimesh_tdma::delay::path_delay_slots(&min.schedule, &path).unwrap();
        assert!(
            d_min > d_reuse,
            "coloring delay {d_min} should exceed tree-order delay {d_reuse}"
        );
    }

    #[test]
    fn tree_topology_signalling_scales_with_depth() {
        let topo = generators::binary_tree(3);
        let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
        let demands = uplink_demands(&topo, &routing, 1);
        let out = run_centralized(
            &topo,
            &routing,
            &demands,
            CschConfig {
                frame: FrameConfig::new(64, 100),
                mode: CschMode::SpatialReuse,
            },
        )
        .unwrap();
        assert_eq!(out.signalling_frames, 6); // depth 3, up + down
        assert!(out.schedule.makespan() >= 1);
    }

    #[test]
    fn non_tree_link_rejected() {
        let topo = generators::ring(5);
        let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
        // The ring closes with a link that is not on the BFS tree.
        let non_tree = topo
            .link_ids()
            .find(|&l| {
                let link = topo.link(l).unwrap();
                routing.parent(link.tx) != Some(link.rx) && routing.parent(link.rx) != Some(link.tx)
            })
            .expect("ring has a chord");
        let mut demands = Demands::new();
        demands.set(non_tree, 1);
        let err = run_centralized(
            &topo,
            &routing,
            &demands,
            CschConfig {
                frame: FrameConfig::new(64, 100),
                mode: CschMode::Sequential,
            },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::LinkNotInGraph(non_tree));
    }

    #[test]
    fn overload_reports_frame_too_short() {
        let (topo, routing) = setup(5);
        let demands = uplink_demands(&topo, &routing, 30);
        let err = run_centralized(
            &topo,
            &routing,
            &demands,
            CschConfig {
                frame: FrameConfig::new(64, 100),
                mode: CschMode::Sequential,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::FrameTooShort { .. }));
    }

    #[test]
    fn demand_past_u32_max_reports_frame_too_short_in_every_mode() {
        // 1 + u32::MAX slots wraps to 0 in `u32`: a schedule that does not
        // fit must still be refused, with `needed` saturated.
        let (topo, routing) = setup(3);
        let uplinks = routing.uplink_links(&topo);
        let mut demands = Demands::new();
        demands.set(uplinks[0], 1);
        demands.set(uplinks[1], u32::MAX);
        for mode in [
            CschMode::Sequential,
            CschMode::SpatialReuse,
            CschMode::MinSlots,
        ] {
            let err = run_centralized(
                &topo,
                &routing,
                &demands,
                CschConfig {
                    frame: FrameConfig::new(64, 100),
                    mode,
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                ScheduleError::FrameTooShort {
                    needed: u32::MAX,
                    available: 64
                },
                "{mode:?}"
            );
        }
    }

    #[test]
    fn empty_demands_empty_schedule() {
        let (topo, routing) = setup(4);
        let out = run_centralized(
            &topo,
            &routing,
            &Demands::new(),
            CschConfig {
                frame: FrameConfig::new(64, 100),
                mode: CschMode::SpatialReuse,
            },
        )
        .unwrap();
        assert!(out.schedule.is_empty());
        assert_eq!(out.signalling_frames, 0);
    }
}
