//! Packet-level simulation of the emulated TDMA MAC.
//!
//! Drives a conflict-free [`Schedule`] over the WiFi PHY: every mesh
//! frame, each scheduled link serves its minislot range — one 802.11
//! exchange worth of payload per minislot, with deliveries stamped at the
//! end of the minislot that carried them. Flows traverse their paths hop
//! by hop through per-link FIFO queues. Together with
//! `wimesh_phy80211::dcf` this provides the two MACs the paper's
//! evaluation compares.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::Rng;
use wimesh_sim::traffic::TrafficSource;
use wimesh_sim::{EventQueue, FifoQueue, FlowId, FlowStats, Packet, SimTime};
use wimesh_tdma::Schedule;
use wimesh_topology::routing::Path;
use wimesh_topology::LinkId;

use crate::{EmuError, EmulationModel};

/// One traffic flow over a fixed link path.
pub struct TdmaFlow {
    /// Flow identifier (also indexes the stats).
    pub id: FlowId,
    /// The links the flow traverses, in order.
    pub path: Path,
    /// Packet arrival process at the source.
    pub source: Box<dyn TrafficSource>,
}

enum Event {
    /// Next packet of flow `usize` arrives at its source queue.
    Arrival(usize),
    /// The minislot range of scheduled link `usize` begins (recurs every
    /// frame).
    Serve(usize),
    /// A relayed packet becomes available at scheduled link `usize`.
    Enqueue(usize, Packet),
}

/// The emulated-TDMA packet simulation.
///
/// Construct with [`TdmaSimulation::new`] (lossless channel) or
/// [`TdmaSimulation::with_loss`] (per-transmission error probability).
pub struct TdmaSimulation {
    model: EmulationModel,
    /// Scheduled links: id, slot range start offset within the frame, and
    /// slot count.
    links: Vec<(LinkId, Duration, u32)>,
    /// Per scheduled link: payload bytes one of its minislots carries
    /// (differs per link under rate adaptation).
    payloads: Vec<u32>,
    link_index: BTreeMap<LinkId, usize>,
    /// Dense index of each flow id (ids need not be contiguous).
    flow_index: BTreeMap<FlowId, usize>,
    queues: Vec<FifoQueue>,
    /// Per flow: link sequence as dense link indices.
    flow_paths: Vec<Vec<usize>>,
    flows: Vec<TdmaFlow>,
    stats: Vec<FlowStats>,
    seqs: Vec<u64>,
    /// Payload size of each flow's next (already scheduled) arrival.
    pending: Vec<u32>,
    frame_duration: Duration,
    slot_duration: Duration,
    queue_capacity: usize,
    /// Probability an individual packet transmission is corrupted by the
    /// channel. TDMA has no per-frame retransmission (the ACK failure is
    /// absorbed by the reservation), so a corrupted packet is redelivered
    /// from the head of the queue in the next minislot/frame.
    loss_probability: f64,
    /// Reserved minislots that carried no transmission (empty queue or
    /// head-of-line packet larger than the remaining budget).
    missed_slots: u64,
}

impl TdmaSimulation {
    /// Builds the simulation for `schedule` (produced by any of the order
    /// optimizers or the distributed protocol).
    ///
    /// # Errors
    ///
    /// [`EmuError::UnscheduledLink`] if a flow's path uses a link without
    /// slots in `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if `schedule`'s frame differs from the model's.
    pub fn new(
        model: EmulationModel,
        schedule: &Schedule,
        flows: Vec<TdmaFlow>,
        queue_capacity: usize,
    ) -> Result<Self, EmuError> {
        assert_eq!(
            schedule.frame(),
            model.frame(),
            "schedule frame differs from emulation model frame"
        );
        let ctrl = model.mesh_frame().ctrl_duration();
        let slot_duration = Duration::from_micros(model.frame().slot_duration_us());
        let mut links = Vec::new();
        let mut link_index = BTreeMap::new();
        for (link, range) in schedule.iter() {
            let offset = ctrl + slot_duration * range.start;
            link_index.insert(link, links.len());
            links.push((link, offset, range.len));
        }
        let mut flow_paths = Vec::with_capacity(flows.len());
        for f in &flows {
            let mut idxs = Vec::with_capacity(f.path.hop_count());
            for &l in f.path.links() {
                match link_index.get(&l) {
                    Some(&i) => idxs.push(i),
                    None => return Err(EmuError::UnscheduledLink),
                }
            }
            flow_paths.push(idxs);
        }
        let queues = (0..links.len())
            .map(|_| FifoQueue::new(queue_capacity))
            .collect();
        let stats = flows.iter().map(|_| FlowStats::for_voip()).collect();
        let seqs = vec![0; flows.len()];
        let pending = vec![0; flows.len()];
        let flow_index = flows.iter().enumerate().map(|(i, f)| (f.id, i)).collect();
        let payloads = vec![model.slot_payload_bytes(); link_index.len()];
        Ok(Self {
            loss_probability: 0.0,
            missed_slots: 0,
            payloads,
            model,
            links,
            link_index,
            flow_index,
            queues,
            flow_paths,
            flows,
            stats,
            seqs,
            pending,
            frame_duration: model.mesh_frame().frame_duration(),
            slot_duration,
            queue_capacity,
        })
    }

    /// Overrides the per-minislot payload of individual links (the
    /// capacities rate adaptation assigns). Links absent from `payloads`
    /// keep the model's default.
    ///
    /// # Panics
    ///
    /// Panics if a payload is zero.
    pub fn with_link_payloads(
        mut self,
        payloads: &std::collections::BTreeMap<LinkId, u32>,
    ) -> Self {
        for (&link, &p) in payloads {
            assert!(p > 0, "payload must be positive");
            if let Some(&i) = self.link_index.get(&link) {
                self.payloads[i] = p;
            }
        }
        self
    }

    /// Sets the per-transmission channel error probability and returns
    /// the simulation (builder style). A corrupted transmission keeps the
    /// packet at the head of its queue for the next minislot.
    ///
    /// # Errors
    ///
    /// [`EmuError::Config`] if `p` is not a finite probability in
    /// `[0, 1)` (a loss probability of exactly 1 would starve every
    /// queue forever — reject it rather than simulate a dead channel).
    pub fn with_loss(mut self, p: f64) -> Result<Self, EmuError> {
        if !p.is_finite() || !(0.0..1.0).contains(&p) {
            return Err(EmuError::Config(format!(
                "loss probability must be in [0, 1), got {p}"
            )));
        }
        self.loss_probability = p;
        Ok(self)
    }

    /// Reserved minislots that went unused across all runs so far: the
    /// queue was empty or its head packet did not fit the remaining
    /// minislot budget. A high count means the schedule over-provisions.
    pub fn missed_slots(&self) -> u64 {
        self.missed_slots
    }

    /// Runs the simulation for `duration` of virtual time.
    pub fn run<R: Rng>(&mut self, duration: Duration, rng: &mut R) {
        let _span = wimesh_obs::span!("emu.tdma.run");
        let missed_before = self.missed_slots;
        let mut q: EventQueue<Event> = EventQueue::new();
        let end = SimTime::ZERO + duration;
        // Prime arrivals and the first frame's serves.
        for f in 0..self.flows.len() {
            let (at, size) = self.flows[f].source.next_packet(SimTime::ZERO, rng);
            if at <= end {
                q.schedule(at, Event::Arrival(f));
                self.pending_size(f, size);
            }
        }
        for (i, &(_, offset, _)) in self.links.iter().enumerate() {
            q.schedule(SimTime::ZERO + offset, Event::Serve(i));
        }
        while q.peek_time().is_some_and(|t| t <= end) {
            let (now, ev) = q.pop().expect("peeked");
            match ev {
                Event::Arrival(f) => {
                    let size = self.pending[f];
                    let packet = Packet::new(self.flows[f].id, self.seqs[f], size, now);
                    self.seqs[f] += 1;
                    self.stats[f].record_sent();
                    let first = self.flow_paths[f][0];
                    if !self.queues[first].push(packet) {
                        self.stats[f].record_dropped();
                    }
                    let (at, size) = self.flows[f].source.next_packet(now, rng);
                    if at <= end {
                        q.schedule(at, Event::Arrival(f));
                        self.pending_size(f, size);
                    }
                }
                Event::Serve(i) => {
                    self.serve(i, now, &mut q, rng);
                    q.schedule(now + self.frame_duration, Event::Serve(i));
                }
                Event::Enqueue(i, packet) => {
                    let flow = self.flow_index[&packet.flow];
                    if !self.queues[i].push(packet) {
                        self.stats[flow].record_dropped();
                    }
                }
            }
        }
        if wimesh_obs::is_enabled() {
            q.publish_obs();
            wimesh_obs::counter_add("emu.slots.missed", self.missed_slots - missed_before);
        }
    }

    /// Serves one link's minislot range starting at `now`.
    fn serve<R: Rng>(&mut self, i: usize, now: SimTime, q: &mut EventQueue<Event>, rng: &mut R) {
        let (_, _, slots) = self.links[i];
        let budget_per_slot = self.payloads[i];
        for s in 0..slots {
            let deliver_at = now + self.slot_duration * (s + 1);
            let mut remaining = budget_per_slot;
            let mut transmitted = false;
            loop {
                let Some(front) = self.queues[i].front() else {
                    // Queue drained; rest of the range idles. A minislot
                    // counts as missed only if nothing went on air in it.
                    let idle_from = if transmitted { s + 1 } else { s };
                    self.missed_slots += u64::from(slots - idle_from);
                    return;
                };
                if front.size_bytes > remaining {
                    break; // next packet starts in the next minislot
                }
                let packet = self.queues[i].pop().expect("front existed");
                remaining -= packet.size_bytes;
                transmitted = true;
                if self.loss_probability > 0.0 && rng.gen_bool(self.loss_probability) {
                    // Corrupted on air: the minislot's airtime is burnt
                    // and the packet goes back to the head for the *next*
                    // minislot (or frame).
                    self.queues[i].push_front(packet);
                    break;
                }
                self.deliver(i, packet, deliver_at, q);
            }
            if !transmitted {
                self.missed_slots += 1;
            }
        }
    }

    /// Hands a packet that finished transmission on link `i` to its next
    /// hop, or records final delivery.
    fn deliver(&mut self, i: usize, packet: Packet, at: SimTime, q: &mut EventQueue<Event>) {
        let flow = self.flow_index[&packet.flow];
        let path = &self.flow_paths[flow];
        let pos = path
            .iter()
            .position(|&l| l == i)
            .expect("packet served on a link of its path");
        if pos + 1 == path.len() {
            let delay = at.saturating_since(packet.created);
            self.stats[flow].record_delivered(at, delay, packet.size_bytes);
        } else {
            // Zero-turnaround relay semantics (as the scheduling theory
            // assumes): a packet finishing in minislot s may ride a range
            // starting exactly at s+1. Hand off one nanosecond early so
            // the enqueue sorts before a same-instant Serve event.
            let handoff = SimTime::from_nanos(at.as_nanos().saturating_sub(1));
            q.schedule(handoff, Event::Enqueue(path[pos + 1], packet));
        }
    }

    /// Statistics of flow `f` (construction order).
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

    /// Aggregate delivered goodput, bit/s.
    pub fn aggregate_goodput_bps(&self) -> f64 {
        self.stats.iter().map(FlowStats::goodput_bps).sum()
    }

    /// Queue capacity the simulation was built with.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The emulation model the simulation was built for.
    pub fn model(&self) -> &EmulationModel {
        &self.model
    }

    /// Dense index of a scheduled link, if any.
    pub fn link_index(&self, link: LinkId) -> Option<usize> {
        self.link_index.get(&link).copied()
    }
}

// The next arrival's payload size must survive between scheduling the
// Arrival event and processing it; a tiny per-flow side table keeps the
// Event enum `Copy`-friendly.
impl TdmaSimulation {
    fn pending_size(&mut self, flow: usize, size: u32) {
        if self.pending.len() <= flow {
            self.pending.resize(flow + 1, 0);
        }
        self.pending[flow] = size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmulationParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;
    use wimesh_conflict::{ConflictGraph, InterferenceModel};
    use wimesh_sim::traffic::CbrSource;
    use wimesh_tdma::{order, schedule_from_order, Demands};
    use wimesh_topology::routing::shortest_path;
    use wimesh_topology::{generators, NodeId};

    fn chain_sim(n: usize, slots_per_link: u32) -> (TdmaSimulation, Path) {
        let topo = generators::chain(n);
        let path = shortest_path(&topo, NodeId(0), NodeId((n - 1) as u32)).unwrap();
        let mut demands = Demands::new();
        for &l in path.links() {
            demands.set(l, slots_per_link);
        }
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let model = EmulationModel::new(EmulationParams::default()).unwrap();
        let ord = order::hop_order(&cg, std::slice::from_ref(&path));
        let schedule = schedule_from_order(&cg, &demands, &ord, model.frame()).unwrap();
        let flows = vec![TdmaFlow {
            id: FlowId(0),
            path: path.clone(),
            source: Box::new(CbrSource::new(Duration::from_millis(20), 200)),
        }];
        (
            TdmaSimulation::new(model, &schedule, flows, 100).unwrap(),
            path,
        )
    }

    use wimesh_topology::routing::Path;

    #[test]
    fn voip_over_chain_is_bounded() {
        let (mut sim, _) = chain_sim(5, 1);
        sim.run(Duration::from_secs(10), &mut StdRng::seed_from_u64(1));
        let s = sim.flow_stats(0);
        assert!(s.sent() >= 499, "sent {}", s.sent());
        assert_eq!(s.dropped(), 0);
        assert!(s.delivered() >= s.sent() - 4);
        // Worst case: one frame of source wait + pipeline. Frame is
        // 32 slots x 500 us + ctrl = ~17.7 ms; delay-aware pipeline adds
        // ~4 slots. Bound everything by two frames.
        let max = s.max_delay();
        assert!(
            max < 2 * sim.model.mesh_frame().frame_duration(),
            "max delay {max:?}"
        );
    }

    #[test]
    fn delay_never_exceeds_analytic_bound() {
        let (mut sim, path) = chain_sim(6, 2);
        let bound_slots = {
            // Recompute the worst-case bound from the schedule.
            let topo = generators::chain(6);
            let mut demands = Demands::new();
            for &l in path.links() {
                demands.set(l, 2);
            }
            let cg = ConflictGraph::build_for_links(
                &topo,
                demands.links().collect(),
                InterferenceModel::protocol_default(),
            );
            let model = EmulationModel::new(EmulationParams::default()).unwrap();
            let ord = order::hop_order(&cg, std::slice::from_ref(&path));
            let schedule = schedule_from_order(&cg, &demands, &ord, model.frame()).unwrap();
            wimesh_tdma::delay::worst_case_delay_slots(&schedule, &path).unwrap()
        };
        sim.run(Duration::from_secs(10), &mut StdRng::seed_from_u64(2));
        let s = sim.flow_stats(0);
        // Convert the slot bound to time, adding the per-frame control
        // subframe the packet may straddle (once per frame crossed).
        let frame = sim.model.mesh_frame();
        let frames_crossed = bound_slots / sim.model.frame().slots() as u64 + 1;
        let bound = sim.model.frame().slots_to_duration(bound_slots)
            + frame.ctrl_duration() * frames_crossed as u32;
        assert!(
            s.max_delay() <= bound,
            "observed {:?} > bound {bound:?}",
            s.max_delay()
        );
    }

    #[test]
    fn undersized_allocation_overflows() {
        // 1 slot/frame carries ~1 kB per ~17.7 ms; offering 1500 B per
        // 5 ms must overflow the queue.
        let topo = generators::chain(2);
        let path = shortest_path(&topo, NodeId(0), NodeId(1)).unwrap();
        let mut demands = Demands::new();
        demands.set(path.links()[0], 1);
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let model = EmulationModel::new(EmulationParams::default()).unwrap();
        let ord = order::hop_order(&cg, std::slice::from_ref(&path));
        let schedule = schedule_from_order(&cg, &demands, &ord, model.frame()).unwrap();
        let flows = vec![TdmaFlow {
            id: FlowId(0),
            path,
            source: Box::new(CbrSource::new(Duration::from_millis(5), 1500)),
        }];
        let mut sim = TdmaSimulation::new(model, &schedule, flows, 10).unwrap();
        sim.run(Duration::from_secs(5), &mut StdRng::seed_from_u64(3));
        assert!(sim.flow_stats(0).dropped() > 0);
    }

    #[test]
    fn unscheduled_link_rejected() {
        let topo = generators::chain(3);
        let path = shortest_path(&topo, NodeId(0), NodeId(2)).unwrap();
        let model = EmulationModel::new(EmulationParams::default()).unwrap();
        let schedule =
            wimesh_tdma::Schedule::from_ranges(model.frame(), std::collections::BTreeMap::new())
                .unwrap();
        let flows = vec![TdmaFlow {
            id: FlowId(0),
            path,
            source: Box::new(CbrSource::new(Duration::from_millis(20), 100)),
        }];
        assert!(matches!(
            TdmaSimulation::new(model, &schedule, flows, 10),
            Err(EmuError::UnscheduledLink)
        ));
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let (mut sim, _) = chain_sim(4, 1);
            sim.run(Duration::from_secs(5), &mut StdRng::seed_from_u64(seed));
            (sim.flow_stats(0).delivered(), sim.flow_stats(0).max_delay())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn channel_loss_delays_but_does_not_lose_packets() {
        // TDMA retries corrupted packets in later minislots: with 10%
        // loss and headroom in the reservation, everything still arrives,
        // later.
        let clean = {
            let (mut sim, _) = chain_sim(4, 2);
            sim.run(Duration::from_secs(20), &mut StdRng::seed_from_u64(8));
            (
                sim.flow_stats(0).delivered(),
                sim.flow_stats(0).mean_delay().unwrap(),
            )
        };
        let lossy = {
            let (sim, _) = chain_sim(4, 2);
            let mut sim = sim.with_loss(0.10).unwrap();
            sim.run(Duration::from_secs(20), &mut StdRng::seed_from_u64(8));
            (
                sim.flow_stats(0).delivered(),
                sim.flow_stats(0).mean_delay().unwrap(),
            )
        };
        assert!(lossy.0 >= clean.0 - 5, "retries must recover deliveries");
        assert!(lossy.1 > clean.1, "retries must cost delay");
    }

    #[test]
    fn invalid_loss_probability_rejected() {
        for bad in [1.5, -0.1, 1.0, f64::NAN, f64::INFINITY] {
            let (sim, _) = chain_sim(3, 1);
            let err = match sim.with_loss(bad) {
                Ok(_) => panic!("loss probability {bad} accepted"),
                Err(e) => e,
            };
            assert!(
                matches!(&err, EmuError::Config(msg) if msg.contains("loss probability")),
                "expected Config error for {bad}, got {err:?}"
            );
        }
    }

    #[test]
    fn goodput_matches_offered_when_provisioned() {
        let (mut sim, _) = chain_sim(3, 1);
        sim.run(Duration::from_secs(20), &mut StdRng::seed_from_u64(4));
        let g = sim.aggregate_goodput_bps();
        assert!((g - 80_000.0).abs() / 80_000.0 < 0.05, "goodput {g}");
    }
}
