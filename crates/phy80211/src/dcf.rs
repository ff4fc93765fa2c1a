//! Slot-synchronous packet-level DCF (CSMA/CA) simulation over a mesh.
//!
//! The model:
//!
//! * Time advances in PHY backoff slots.
//! * A node with a head-of-line packet contends: it waits DIFS of
//!   consecutive idle slots, then counts down a uniform backoff drawn
//!   from `[0, CW]`, freezing while the medium is sensed busy.
//! * Carrier sense is the protocol model: a node senses busy whenever a
//!   1-hop neighbour transmits.
//! * A frame occupies `ceil(T_exchange / T_slot)` slots (DATA + SIFS +
//!   ACK). Reception succeeds iff no *other* transmitter was within
//!   interference range of the receiver during any slot of the frame —
//!   this is how collisions and the hidden-terminal problem appear.
//! * Failed frames retry with binary exponential backoff up to the retry
//!   limit, then are dropped.
//! * With [`DcfConfig::rts_cts`], every frame also occupies the
//!   [`airtime::rts_cts_overhead`] (RTS + SIFS + CTS + SIFS). Once that
//!   prologue has passed, the receiver's neighbours hear the CTS and sense
//!   the medium busy (NAV). An interferer in range of the receiver then
//!   corrupts the frame only while either of the two is still in its
//!   prologue, or if they started less than one prologue apart: hidden
//!   terminals collide in the RTS window alone.
//!
//! This is the standard Bianchi-style slotted abstraction of DCF. It does
//! not model capture or per-bit errors (channel loss is one per-frame
//! [`DcfConfig::frame_error_rate`]), but it reproduces the behaviour the
//! paper's motivation rests on: contention collapse and unbounded delay
//! tails over multiple hops.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use rand::Rng;
use wimesh_sim::traffic::TrafficSource;
use wimesh_sim::{FlowId, FlowStats, Packet, SimTime};
use wimesh_topology::{MeshTopology, NodeId};

use crate::{airtime, PhyStandard};

/// DCF simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DcfConfig {
    /// PHY generation (timing + rate set).
    pub phy: PhyStandard,
    /// Data rate for payload frames, Mbit/s (must belong to `phy`).
    pub data_rate_mbps: f64,
    /// Per-node interface queue capacity, packets.
    pub queue_capacity: usize,
    /// Maximum retransmissions before a frame is dropped.
    pub retry_limit: u32,
    /// Precede data frames with an RTS/CTS exchange. The CTS silences the
    /// *receiver's* neighbourhood (virtual carrier sense), so hidden
    /// terminals can only collide during the short RTS window instead of
    /// the whole data frame.
    pub rts_cts: bool,
    /// Channel frame error rate: each data frame is independently
    /// corrupted with this probability (fading, noise), on top of
    /// collisions. Failed frames retry like collisions do.
    pub frame_error_rate: f64,
}

impl Default for DcfConfig {
    fn default() -> Self {
        Self {
            phy: PhyStandard::Dot11a,
            data_rate_mbps: 24.0,
            queue_capacity: 100,
            retry_limit: 7,
            rts_cts: false,
            frame_error_rate: 0.0,
        }
    }
}

/// One traffic flow routed over a fixed node sequence.
pub struct DcfFlow {
    /// Flow identifier (also indexes the stats).
    pub id: FlowId,
    /// Node sequence from source to destination (>= 2 nodes).
    pub route: Vec<NodeId>,
    /// Packet arrival process at the source.
    pub source: Box<dyn TrafficSource>,
}

#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    packet: Packet,
    /// Index into the flow's route of the node currently holding it.
    hop: usize,
}

struct ActiveTx {
    qp: QueuedPacket,
    receiver: NodeId,
    slots_left: u32,
    slots_total: u32,
    corrupted: bool,
}

struct NodeState {
    queue: VecDeque<QueuedPacket>,
    /// Head-of-line packet being contended for or transmitted.
    pending: Option<QueuedPacket>,
    tx: Option<ActiveTx>,
    difs_left: u32,
    backoff: Option<u32>,
    cw: u32,
    retries: u32,
}

/// The slot-synchronous DCF network simulation.
///
/// Construct with [`DcfSimulation::new`], drive with
/// [`DcfSimulation::run`], read per-flow results with
/// [`DcfSimulation::flow_stats`].
pub struct DcfSimulation {
    config: DcfConfig,
    /// Dense index of each flow id (ids need not be contiguous).
    flow_index: BTreeMap<FlowId, usize>,
    /// 1-hop neighbour sets (carrier-sense and interference range).
    neighbors: Vec<Vec<NodeId>>,
    nodes: Vec<NodeState>,
    flows: Vec<DcfFlow>,
    next_arrival: Vec<(SimTime, u32)>,
    stats: Vec<FlowStats>,
    now_slot: u64,
    slot: Duration,
    difs_slots: u32,
}

impl DcfSimulation {
    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if a route is shorter than 2 nodes, references unknown
    /// nodes, uses a missing link, or the data rate is not valid for the
    /// PHY.
    pub fn new(topo: &MeshTopology, config: DcfConfig, flows: Vec<DcfFlow>) -> Self {
        assert!(
            config.phy.supports_rate(config.data_rate_mbps),
            "invalid data rate for PHY"
        );
        assert!(
            (0.0..1.0).contains(&config.frame_error_rate),
            "frame error rate must be in [0, 1)"
        );
        for f in &flows {
            assert!(f.route.len() >= 2, "flow {} route too short", f.id);
            for w in f.route.windows(2) {
                assert!(
                    topo.link_between(w[0], w[1]).is_some(),
                    "flow {} uses missing link {} -> {}",
                    f.id,
                    w[0],
                    w[1]
                );
            }
        }
        let neighbors: Vec<Vec<NodeId>> = topo
            .node_ids()
            .map(|n| {
                let mut v: Vec<NodeId> = topo.neighbors(n).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let timing = config.phy.timing();
        let nodes = (0..topo.node_count())
            .map(|_| NodeState {
                queue: VecDeque::new(),
                pending: None,
                tx: None,
                difs_left: 0,
                backoff: None,
                cw: timing.cw_min,
                retries: 0,
            })
            .collect();
        let stats = flows.iter().map(|_| FlowStats::for_voip()).collect();
        let next_arrival = vec![(SimTime::ZERO, 0); flows.len()];
        let difs_slots = div_ceil_duration(timing.difs(), timing.slot);
        let flow_index = flows.iter().enumerate().map(|(i, f)| (f.id, i)).collect();
        Self {
            config,
            flow_index,
            neighbors,
            nodes,
            flows,
            next_arrival,
            stats,
            now_slot: 0,
            slot: timing.slot,
            difs_slots,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_slot * self.slot.as_nanos() as u64)
    }

    fn frame_slots(&self, payload_bytes: u32) -> u32 {
        let mut t =
            airtime::data_exchange(self.config.phy, payload_bytes, self.config.data_rate_mbps);
        if self.config.rts_cts {
            t += airtime::rts_cts_overhead(self.config.phy);
        }
        div_ceil_duration(t, self.slot).max(1)
    }

    /// Slots of the RTS + SIFS + CTS + SIFS prologue, after which the
    /// receiver's neighbourhood is silenced by the CTS NAV.
    fn rts_phase_slots(&self) -> u32 {
        div_ceil_duration(airtime::rts_cts_overhead(self.config.phy), self.slot).max(1)
    }

    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a == b || self.neighbors[a.index()].binary_search(&b).is_ok()
    }

    /// Runs the simulation for `duration` of virtual time.
    ///
    /// May be called repeatedly to extend the run; statistics accumulate.
    pub fn run<R: Rng>(&mut self, duration: Duration, rng: &mut R) {
        // Prime the first arrival of each flow.
        if self.now_slot == 0 {
            for i in 0..self.flows.len() {
                let (t, size) = self.flows[i].source.next_packet(SimTime::ZERO, rng);
                self.next_arrival[i] = (t, size);
            }
        }
        let end_slot = self.now_slot + div_ceil_duration(duration, self.slot) as u64;
        while self.now_slot < end_slot {
            self.step(rng);
        }
    }

    /// Advances one PHY slot.
    fn step<R: Rng>(&mut self, rng: &mut R) {
        let now = self.now();
        self.inject_arrivals(now, rng);

        // Phase 1: transmitter set at the start of this slot (for carrier
        // sense) — nodes already mid-frame.
        let ongoing: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.tx.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .collect();

        // Phase 2: contention for idle nodes.
        let timing = self.config.phy.timing();
        let mut starting: Vec<NodeId> = Vec::new();
        for i in 0..self.nodes.len() {
            let me = NodeId(i as u32);
            if self.nodes[i].tx.is_some() {
                continue;
            }
            // Promote a queued packet to head of line.
            if self.nodes[i].pending.is_none() {
                if let Some(qp) = self.nodes[i].queue.pop_front() {
                    self.nodes[i].pending = Some(qp);
                    self.nodes[i].difs_left = self.difs_slots;
                }
            }
            if self.nodes[i].pending.is_none() {
                continue;
            }
            let mut busy = ongoing.iter().any(|&t| self.in_range(me, t));
            if !busy && self.config.rts_cts {
                // Virtual carrier sense: a CTS heard from an ongoing
                // exchange's receiver silences us for its remainder.
                let rts_phase = self.rts_phase_slots();
                busy = ongoing.iter().any(|&t| {
                    let tx = self.nodes[t.index()].tx.as_ref().expect("in set");
                    let age = tx.slots_total - tx.slots_left;
                    age >= rts_phase && self.in_range(me, tx.receiver)
                });
            }
            if busy {
                // Medium busy: DIFS restarts, backoff freezes.
                self.nodes[i].difs_left = self.difs_slots;
                continue;
            }
            if self.nodes[i].difs_left > 0 {
                self.nodes[i].difs_left -= 1;
                continue;
            }
            let backoff = match self.nodes[i].backoff {
                Some(b) => b,
                None => {
                    let b = rng.gen_range(0..=self.nodes[i].cw);
                    self.nodes[i].backoff = Some(b);
                    b
                }
            };
            if backoff == 0 {
                starting.push(me);
            } else {
                self.nodes[i].backoff = Some(backoff - 1);
            }
        }

        // Phase 3: launch new transmissions. Channel errors (fading,
        // noise) are drawn per frame at launch.
        for &me in &starting {
            let i = me.index();
            let qp = self.nodes[i].pending.expect("contending nodes have HOL");
            let receiver = self.flows[self.flow_index[&qp.packet.flow]].route[qp.hop + 1];
            let slots = self.frame_slots(qp.packet.size_bytes);
            let channel_error = self.config.frame_error_rate > 0.0
                && rng.gen_bool(self.config.frame_error_rate.clamp(0.0, 1.0));
            self.nodes[i].backoff = None;
            self.nodes[i].tx = Some(ActiveTx {
                qp,
                receiver,
                slots_left: slots,
                slots_total: slots,
                corrupted: channel_error,
            });
        }

        // Phase 4: corruption marking with the full transmitter set.
        let all_tx: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.tx.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let rts_phase = self.rts_phase_slots();
        for &t in &all_tx {
            let (receiver, my_age) = {
                let tx = self.nodes[t.index()].tx.as_ref().expect("in set");
                (tx.receiver, tx.slots_total - tx.slots_left)
            };
            let jammed = all_tx.iter().any(|&other| {
                if other == t || !self.in_range(receiver, other) {
                    return false;
                }
                if !self.config.rts_cts {
                    return true;
                }
                // With RTS/CTS, an in-range interferer that started after
                // our CTS went out would have deferred (NAV); only starts
                // within the RTS window can actually overlap.
                let other_tx = self.nodes[other.index()].tx.as_ref().expect("in set");
                let other_age = other_tx.slots_total - other_tx.slots_left;
                my_age.abs_diff(other_age) < rts_phase || my_age.min(other_age) < rts_phase
            }) || receiver == t
                || all_tx.contains(&receiver);
            if jammed {
                self.nodes[t.index()].tx.as_mut().expect("in set").corrupted = true;
            }
        }

        // Phase 5: tick transmissions and complete finished ones.
        let now_end = SimTime::from_nanos((self.now_slot + 1) * self.slot.as_nanos() as u64);
        for i in 0..self.nodes.len() {
            let Some(tx) = self.nodes[i].tx.as_mut() else {
                continue;
            };
            tx.slots_left -= 1;
            if tx.slots_left > 0 {
                continue;
            }
            let corrupted = tx.corrupted;
            let qp = tx.qp;
            self.nodes[i].tx = None;
            if corrupted {
                self.nodes[i].retries += 1;
                self.nodes[i].cw = (2 * self.nodes[i].cw + 1).min(timing.cw_max);
                self.nodes[i].difs_left = self.difs_slots;
                if self.nodes[i].retries > self.config.retry_limit {
                    self.stats[self.flow_index[&qp.packet.flow]].record_dropped();
                    self.nodes[i].pending = None;
                    self.nodes[i].retries = 0;
                    self.nodes[i].cw = timing.cw_min;
                }
            } else {
                self.nodes[i].pending = None;
                self.nodes[i].retries = 0;
                self.nodes[i].cw = timing.cw_min;
                self.nodes[i].difs_left = self.difs_slots;
                self.forward(qp, now_end);
            }
        }

        self.now_slot += 1;
    }

    /// Moves a successfully received packet to its next hop or delivers
    /// it.
    fn forward(&mut self, mut qp: QueuedPacket, now: SimTime) {
        let flow = self.flow_index[&qp.packet.flow];
        qp.hop += 1;
        let route = &self.flows[flow].route;
        if qp.hop == route.len() - 1 {
            let delay = now.saturating_since(qp.packet.created);
            self.stats[flow].record_delivered(now, delay, qp.packet.size_bytes);
        } else {
            let holder = route[qp.hop].index();
            if self.nodes[holder].queue.len() >= self.config.queue_capacity {
                self.stats[flow].record_dropped();
            } else {
                self.nodes[holder].queue.push_back(qp);
            }
        }
    }

    fn inject_arrivals<R: Rng>(&mut self, now: SimTime, rng: &mut R) {
        for f in 0..self.flows.len() {
            while self.next_arrival[f].0 <= now {
                let (at, size) = self.next_arrival[f];
                let seq = self.stats[f].sent();
                self.stats[f].record_sent();
                let packet = Packet::new(self.flows[f].id, seq, size, at);
                let src = self.flows[f].route[0].index();
                if self.nodes[src].queue.len() >= self.config.queue_capacity {
                    self.stats[f].record_dropped();
                } else {
                    self.nodes[src]
                        .queue
                        .push_back(QueuedPacket { packet, hop: 0 });
                }
                self.next_arrival[f] = self.flows[f].source.next_packet(at, rng);
            }
        }
    }

    /// Statistics of flow `f` (indexed by construction order).
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn flow_stats(&self, f: usize) -> &FlowStats {
        &self.stats[f]
    }

    /// All per-flow statistics in construction order.
    pub fn all_stats(&self) -> &[FlowStats] {
        &self.stats
    }

    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.now()
    }

    /// Aggregate delivered goodput across all flows, bit/s.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        self.stats.iter().map(FlowStats::goodput_bps).sum()
    }
}

fn div_ceil_duration(a: Duration, b: Duration) -> u32 {
    let (an, bn) = (a.as_nanos(), b.as_nanos());
    an.div_ceil(bn) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wimesh_sim::traffic::CbrSource;
    use wimesh_topology::generators;

    fn cbr_flow(id: u32, route: Vec<NodeId>, interval_ms: u64, bytes: u32) -> DcfFlow {
        DcfFlow {
            id: FlowId(id),
            route,
            source: Box::new(CbrSource::new(Duration::from_millis(interval_ms), bytes)),
        }
    }

    #[test]
    fn single_hop_light_load_delivers_everything() {
        let topo = generators::chain(2);
        let flows = vec![cbr_flow(0, vec![NodeId(0), NodeId(1)], 20, 200)];
        let mut sim = DcfSimulation::new(&topo, DcfConfig::default(), flows);
        sim.run(Duration::from_secs(5), &mut StdRng::seed_from_u64(1));
        let s = sim.flow_stats(0);
        assert!(s.sent() >= 249, "sent {}", s.sent());
        assert_eq!(s.dropped(), 0);
        // All but possibly the in-flight tail delivered.
        assert!(s.delivered() >= s.sent() - 2);
        // One uncontended hop at 24 Mbit/s: well under a millisecond.
        assert!(s.mean_delay().unwrap() < Duration::from_millis(1));
    }

    #[test]
    fn multihop_delivery_works() {
        let topo = generators::chain(4);
        let route: Vec<NodeId> = (0..4).map(NodeId).collect();
        let flows = vec![cbr_flow(0, route, 50, 200)];
        let mut sim = DcfSimulation::new(&topo, DcfConfig::default(), flows);
        sim.run(Duration::from_secs(5), &mut StdRng::seed_from_u64(2));
        let s = sim.flow_stats(0);
        assert!(s.delivered() > 0, "nothing delivered over 3 hops");
        assert!(s.loss_rate() < 0.05, "loss {}", s.loss_rate());
        // 3 store-and-forward hops cost more than 1.
        assert!(s.mean_delay().unwrap() > Duration::from_micros(300));
    }

    #[test]
    fn overload_causes_loss_and_delay() {
        // Two saturating flows crossing a 5-node chain in both directions.
        let topo = generators::chain(5);
        let fwd: Vec<NodeId> = (0..5).map(NodeId).collect();
        let bwd: Vec<NodeId> = (0..5).rev().map(NodeId).collect();
        let flows = vec![cbr_flow(0, fwd, 1, 1500), cbr_flow(1, bwd, 1, 1500)];
        let config = DcfConfig {
            queue_capacity: 20,
            ..DcfConfig::default()
        };
        let mut sim = DcfSimulation::new(&topo, config, flows);
        sim.run(Duration::from_secs(3), &mut StdRng::seed_from_u64(3));
        let total_dropped: u64 = sim.all_stats().iter().map(FlowStats::dropped).sum();
        assert!(total_dropped > 0, "overload should drop packets");
        let worst = sim
            .all_stats()
            .iter()
            .filter_map(FlowStats::mean_delay)
            .max()
            .unwrap();
        assert!(worst > Duration::from_millis(5), "overload delay {worst:?}");
    }

    #[test]
    fn hidden_terminals_hurt() {
        // Nodes 0 and 2 both send to node 1 but cannot hear each other:
        // classic hidden-terminal collisions. Saturating both flows must
        // produce retries/drops that an isolated link would not see.
        let topo = generators::chain(3);
        let flows = vec![
            cbr_flow(0, vec![NodeId(0), NodeId(1)], 2, 1500),
            cbr_flow(1, vec![NodeId(2), NodeId(1)], 2, 1500),
        ];
        let config = DcfConfig {
            queue_capacity: 10,
            retry_limit: 4,
            ..DcfConfig::default()
        };
        let mut sim = DcfSimulation::new(&topo, config, flows);
        sim.run(Duration::from_secs(2), &mut StdRng::seed_from_u64(4));
        let dropped: u64 = sim.all_stats().iter().map(FlowStats::dropped).sum();
        assert!(dropped > 0, "hidden terminals should cause losses");
    }

    #[test]
    fn deterministic_replay() {
        let topo = generators::chain(3);
        let run = |seed: u64| {
            let flows = vec![cbr_flow(0, vec![NodeId(0), NodeId(1), NodeId(2)], 10, 500)];
            let mut sim = DcfSimulation::new(&topo, DcfConfig::default(), flows);
            sim.run(Duration::from_secs(2), &mut StdRng::seed_from_u64(seed));
            (
                sim.flow_stats(0).delivered(),
                sim.flow_stats(0).mean_delay(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "route too short")]
    fn short_route_rejected() {
        let topo = generators::chain(2);
        let flows = vec![cbr_flow(0, vec![NodeId(0)], 10, 100)];
        let _ = DcfSimulation::new(&topo, DcfConfig::default(), flows);
    }

    #[test]
    #[should_panic(expected = "missing link")]
    fn disconnected_route_rejected() {
        let topo = generators::chain(3);
        let flows = vec![cbr_flow(0, vec![NodeId(0), NodeId(2)], 10, 100)];
        let _ = DcfSimulation::new(&topo, DcfConfig::default(), flows);
    }

    #[test]
    fn rts_cts_mitigates_hidden_terminals() {
        // Same hidden-terminal scenario as above: RTS/CTS should cut the
        // drop count substantially despite its airtime overhead.
        let run = |rts_cts: bool| {
            let topo = generators::chain(3);
            let flows = vec![
                cbr_flow(0, vec![NodeId(0), NodeId(1)], 2, 1500),
                cbr_flow(1, vec![NodeId(2), NodeId(1)], 2, 1500),
            ];
            let config = DcfConfig {
                queue_capacity: 10,
                retry_limit: 4,
                rts_cts,
                ..DcfConfig::default()
            };
            let mut sim = DcfSimulation::new(&topo, config, flows);
            sim.run(Duration::from_secs(2), &mut StdRng::seed_from_u64(4));
            sim.all_stats().iter().map(FlowStats::dropped).sum::<u64>()
        };
        let without = run(false);
        let with = run(true);
        assert!(without > 0, "baseline must suffer hidden terminals");
        assert!(
            with * 2 < without,
            "RTS/CTS drops {with} not clearly below baseline {without}"
        );
    }

    #[test]
    fn rts_cts_costs_airtime_on_clean_links() {
        // On an isolated link, RTS/CTS only adds overhead: delay rises.
        let run = |rts_cts: bool| {
            let topo = generators::chain(2);
            let flows = vec![cbr_flow(0, vec![NodeId(0), NodeId(1)], 20, 200)];
            let config = DcfConfig {
                rts_cts,
                ..DcfConfig::default()
            };
            let mut sim = DcfSimulation::new(&topo, config, flows);
            sim.run(Duration::from_secs(3), &mut StdRng::seed_from_u64(5));
            sim.flow_stats(0).mean_delay().expect("delivered")
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn frame_errors_cause_retries_and_eventually_drops() {
        let run = |fer: f64| {
            let topo = generators::chain(2);
            let flows = vec![cbr_flow(0, vec![NodeId(0), NodeId(1)], 20, 200)];
            let config = DcfConfig {
                frame_error_rate: fer,
                retry_limit: 2,
                ..DcfConfig::default()
            };
            let mut sim = DcfSimulation::new(&topo, config, flows);
            sim.run(Duration::from_secs(10), &mut StdRng::seed_from_u64(6));
            (
                sim.flow_stats(0).dropped(),
                sim.flow_stats(0).mean_delay().unwrap(),
            )
        };
        let (clean_drops, clean_delay) = run(0.0);
        let (noisy_drops, noisy_delay) = run(0.4);
        assert_eq!(clean_drops, 0);
        // 40% FER with 2 retries: P(all 3 fail) = 6.4% of ~500 packets.
        assert!(noisy_drops > 5, "drops {noisy_drops}");
        assert!(noisy_delay > clean_delay, "retries must cost delay");
    }

    #[test]
    #[should_panic(expected = "frame error rate")]
    fn invalid_fer_rejected() {
        let topo = generators::chain(2);
        let config = DcfConfig {
            frame_error_rate: 1.0,
            ..DcfConfig::default()
        };
        let _ = DcfSimulation::new(&topo, config, vec![]);
    }

    #[test]
    fn goodput_matches_offered_load_when_underloaded() {
        let topo = generators::chain(2);
        // 200 B / 20 ms = 80 kbit/s offered.
        let flows = vec![cbr_flow(0, vec![NodeId(0), NodeId(1)], 20, 200)];
        let mut sim = DcfSimulation::new(&topo, DcfConfig::default(), flows);
        sim.run(Duration::from_secs(10), &mut StdRng::seed_from_u64(5));
        let g = sim.aggregate_goodput_bps();
        assert!((g - 80_000.0).abs() / 80_000.0 < 0.05, "goodput {g}");
    }
}
