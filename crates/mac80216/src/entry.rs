//! Network entry: how a cold node joins the mesh (MSH-NCFG / NENT).
//!
//! A node switching on inside an 802.16 mesh cannot transmit until it is
//! synchronised and sponsored:
//!
//! 1. **Scan** — it listens for MSH-NCFG broadcasts, which active nodes
//!    emit on election-won control opportunities. Hearing NCFGs gives the
//!    candidate coarse frame synchronisation and a view of potential
//!    sponsors.
//! 2. **Sponsor selection** — after `scan_frames` of listening it picks
//!    the heard neighbour closest to the gateway (ties toward the lower
//!    node id).
//! 3. **Entry handshake** — the candidate's NENT request is answered the
//!    next time its sponsor wins an opportunity; the grant makes the
//!    candidate an active mesh node (which then starts emitting NCFGs
//!    itself, sponsoring nodes further out).
//!
//! The emergent behaviour this module exists to measure: the mesh wakes
//! up **in waves from the gateway outwards**, and a node's join time
//! grows with its tree depth. The depth each node ends up syncing through
//! is exactly the `max_sync_depth` the emulation layer's guard-time model
//! needs.

use wimesh_topology::{Direction, MeshTopology, NodeId};

use crate::election::MeshElection;

/// Parameters of a network-entry simulation.
#[derive(Debug, Clone, Copy)]
pub struct EntryConfig {
    /// Frames a candidate must listen before requesting entry.
    pub scan_frames: u32,
    /// Control opportunities per frame.
    pub opportunities_per_frame: u32,
    /// Give up after this many frames.
    pub max_frames: u32,
}

impl Default for EntryConfig {
    fn default() -> Self {
        Self {
            scan_frames: 2,
            opportunities_per_frame: 4,
            max_frames: 1000,
        }
    }
}

/// Result of a network-entry simulation.
#[derive(Debug, Clone)]
pub struct EntryOutcome {
    /// Frame at which each node became active (`None` = never joined;
    /// the gateway joins at frame 0).
    pub join_frame: Vec<Option<u32>>,
    /// The sponsor each node entered through (`None` for the gateway and
    /// nodes that never joined).
    pub sponsor: Vec<Option<NodeId>>,
    /// Whether every reachable node joined within the budget.
    pub all_joined: bool,
    /// Frames simulated.
    pub frames_elapsed: u32,
}

impl EntryOutcome {
    /// Number of nodes that joined (including the gateway).
    pub fn joined_count(&self) -> usize {
        self.join_frame.iter().filter(|j| j.is_some()).count()
    }

    /// Sync depth of `node`: hops of sponsorship back to the gateway.
    pub fn sync_depth(&self, node: NodeId) -> Option<u32> {
        let mut depth = 0;
        let mut cursor = node;
        loop {
            match self.sponsor.get(cursor.index())? {
                Some(s) => {
                    depth += 1;
                    cursor = *s;
                    if depth as usize > self.sponsor.len() {
                        return None;
                    }
                }
                None => {
                    // Reached the gateway (joined with no sponsor) or an
                    // unjoined node.
                    return self.join_frame.get(cursor.index())?.map(|_| depth);
                }
            }
        }
    }
}

/// Simulates the whole mesh joining from a cold start (only `gateway`
/// active).
///
/// # Example
///
/// ```
/// use wimesh_mac80216::entry::{run_network_entry, EntryConfig};
/// use wimesh_topology::generators;
///
/// let topo = generators::star(4);
/// let out = run_network_entry(&topo, 0.into(), EntryConfig::default());
/// assert!(out.all_joined);
/// // Every leaf entered through the gateway, one sponsorship hop deep.
/// assert_eq!(out.sync_depth(3.into()), Some(1));
/// ```
///
/// # Panics
///
/// Panics if `gateway` is not in `topo`.
pub fn run_network_entry(
    topo: &MeshTopology,
    gateway: NodeId,
    config: EntryConfig,
) -> EntryOutcome {
    assert!(topo.node(gateway).is_some(), "unknown gateway {gateway}");
    let n = topo.node_count();
    let election = MeshElection::new(topo);

    let mut active = vec![false; n];
    let mut join_frame: Vec<Option<u32>> = vec![None; n];
    let mut sponsor: Vec<Option<NodeId>> = vec![None; n];
    // Frames of NCFG reception accumulated per candidate, and the best
    // (lowest-depth, then lowest-id) active neighbour heard so far.
    let mut heard_frames = vec![0u32; n];
    let mut best_heard: Vec<Option<NodeId>> = vec![None; n];
    // Pending NENT requests at each sponsor.
    let mut pending: Vec<Vec<NodeId>> = vec![Vec::new(); n];

    active[gateway.index()] = true;
    join_frame[gateway.index()] = Some(0);
    // Entry is done once every node the gateway reaches has joined;
    // reachability is fixed for the run, so one walk answers it.
    let hops = topo.bfs(gateway, Direction::Outbound, None, |_| true, |_| true);
    let done = |active: &[bool]| (0..n).all(|i| active[i] || hops[i] == usize::MAX);

    let mut frame = 0u32;
    while frame < config.max_frames {
        if done(&active) {
            break;
        }
        // Track which candidates heard an NCFG this frame.
        let mut heard_this_frame = vec![false; n];
        for k in 0..config.opportunities_per_frame {
            let opp = frame * config.opportunities_per_frame + k;
            let winners: Vec<NodeId> = election
                .winners(opp)
                .into_iter()
                .filter(|w| active[w.index()])
                .collect();
            for &w in &winners {
                // NCFG broadcast: candidates in range learn about w.
                for v in topo.neighbors(w) {
                    if active[v.index()] {
                        continue;
                    }
                    heard_this_frame[v.index()] = true;
                    let better = match best_heard[v.index()] {
                        None => true,
                        Some(cur) => {
                            let d = |x: NodeId| join_frame[x.index()].unwrap_or(u32::MAX);
                            (d(w), w) < (d(cur), cur)
                        }
                    };
                    if better {
                        best_heard[v.index()] = Some(w);
                    }
                }
                // NENT grants: the winner admits its pending candidates.
                let grants = std::mem::take(&mut pending[w.index()]);
                for c in grants {
                    if !active[c.index()] {
                        active[c.index()] = true;
                        join_frame[c.index()] = Some(frame);
                        sponsor[c.index()] = Some(w);
                    }
                }
            }
        }
        // End of frame: update scan counters and file entry requests.
        for i in 0..n {
            if active[i] {
                continue;
            }
            if heard_this_frame[i] {
                heard_frames[i] += 1;
            }
            if heard_frames[i] >= config.scan_frames {
                if let Some(s) = best_heard[i] {
                    let me = NodeId(i as u32);
                    if !pending[s.index()].contains(&me) {
                        pending[s.index()].push(me);
                    }
                }
            }
        }
        frame += 1;
    }

    EntryOutcome {
        join_frame,
        sponsor,
        all_joined: done(&active),
        frames_elapsed: frame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_topology::generators;

    #[test]
    fn chain_joins_in_depth_order() {
        let topo = generators::chain(6);
        let out = run_network_entry(&topo, NodeId(0), EntryConfig::default());
        assert!(
            out.all_joined,
            "not all joined in {} frames",
            out.frames_elapsed
        );
        assert_eq!(out.joined_count(), 6);
        // Join frames are nondecreasing with distance from the gateway.
        let frames: Vec<u32> = (0..6).map(|i| out.join_frame[i].unwrap()).collect();
        for w in frames.windows(2) {
            assert!(w[0] <= w[1], "join order violated: {frames:?}");
        }
        // Sponsorship follows the chain.
        assert_eq!(out.sponsor[1], Some(NodeId(0)));
        assert_eq!(out.sponsor[5], Some(NodeId(4)));
        assert_eq!(out.sync_depth(NodeId(5)), Some(5));
        assert_eq!(out.sync_depth(NodeId(0)), Some(0));
    }

    #[test]
    fn star_joins_quickly() {
        let topo = generators::star(8);
        let out = run_network_entry(&topo, NodeId(0), EntryConfig::default());
        assert!(out.all_joined);
        for leaf in 1..=8usize {
            assert_eq!(out.sponsor[leaf], Some(NodeId(0)));
            assert_eq!(out.sync_depth(NodeId(leaf as u32)), Some(1));
        }
        assert!(
            out.frames_elapsed < 40,
            "star took {} frames",
            out.frames_elapsed
        );
    }

    #[test]
    fn tree_join_time_grows_with_depth() {
        let topo = generators::binary_tree(3);
        let out = run_network_entry(&topo, NodeId(0), EntryConfig::default());
        assert!(out.all_joined);
        // A leaf (depth 3) joins no earlier than its grandparent (depth 1).
        assert!(out.join_frame[14].unwrap() >= out.join_frame[2].unwrap());
        assert_eq!(out.sync_depth(NodeId(14)), Some(3));
    }

    #[test]
    fn unreachable_node_never_joins() {
        let mut topo = generators::chain(3);
        let isolated = topo.add_node();
        let out = run_network_entry(&topo, NodeId(0), EntryConfig::default());
        assert!(out.all_joined, "reachable nodes joined; isolated excused");
        assert_eq!(out.join_frame[isolated.index()], None);
        assert_eq!(out.sync_depth(isolated), None);
    }

    #[test]
    fn longer_scan_delays_entry() {
        let topo = generators::chain(5);
        let fast = run_network_entry(
            &topo,
            NodeId(0),
            EntryConfig {
                scan_frames: 1,
                ..EntryConfig::default()
            },
        );
        let slow = run_network_entry(
            &topo,
            NodeId(0),
            EntryConfig {
                scan_frames: 10,
                ..EntryConfig::default()
            },
        );
        assert!(fast.all_joined && slow.all_joined);
        assert!(
            slow.join_frame[4].unwrap() > fast.join_frame[4].unwrap(),
            "scan time must delay the join wave"
        );
    }

    #[test]
    fn budget_exhaustion_reported() {
        let topo = generators::chain(8);
        let out = run_network_entry(
            &topo,
            NodeId(0),
            EntryConfig {
                max_frames: 3,
                ..EntryConfig::default()
            },
        );
        assert!(!out.all_joined);
        assert!(out.joined_count() < 8);
    }
}
