//! The per-node MSH-DSCH protocol endpoint: [`DschNode`].
//!
//! [`crate::reservation::run_distributed`] drives the three-way handshake
//! from a god's-eye loop, which is fine for convergence studies but
//! useless for a *distributed runtime* where every node owns its state
//! and frames get lost in flight. This module factors the protocol state
//! machine out of that loop: a [`DschNode`] holds exactly what one mesh
//! router knows — its own demands, its confirmed reservations, and every
//! reservation it has overheard — and exposes the two verbs of the air
//! interface:
//!
//! * [`DschNode::poll`] — "I won a control opportunity": bundle every
//!   pending information element into one MSH-DSCH broadcast.
//! * [`DschNode::receive`] — "I heard a neighbour's MSH-DSCH": process
//!   requests, grants, confirms and cancels, updating local state and
//!   queueing any responses for the next won opportunity.
//!
//! Nothing in a `DschNode` reads global state; the topology reference
//! passed to the verbs stands in for each node's quasi-static link
//! directory (who its neighbours are, which links exist), not for live
//! schedule knowledge. `wimesh-node` drives the same state machines over
//! a lossy message fabric; the protocol's robustness hooks —
//! [`DschNode::re_request_unconfirmed`], [`DschNode::retract`],
//! [`DschNode::purge_links_of`], [`DschNode::reset`] — exist for that
//! runtime (lost grants, schedule repair, node death, crash/restart).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use wimesh_conflict::{links_conflict, InterferenceModel};
use wimesh_tdma::SlotRange;
use wimesh_topology::{LinkId, MeshTopology, NodeId};

use crate::dsch::{DschMessage, GrantFix, Request};

/// One mesh router's view of the distributed coordinated scheduling
/// protocol.
///
/// See the [module documentation](self) for the role this type plays;
/// see [`crate::reservation`] for the handshake it implements.
#[derive(Debug, Clone)]
pub struct DschNode {
    me: NodeId,
    /// Demands this node must reserve (it is the links' transmitter).
    my_demands: BTreeMap<LinkId, u32>,
    /// Confirmed reservations of this node's own links.
    confirmed: BTreeMap<LinkId, SlotRange>,
    /// Every reservation (tentative or confirmed) this node knows about.
    known: BTreeMap<LinkId, SlotRange>,
    /// Outgoing information elements awaiting a won opportunity.
    pending: DschMessage,
    /// Requests this node could not grant yet for lack of free slots.
    waiting_grants: VecDeque<Request>,
    /// Re-broadcast own-link reservations at the next won opportunity.
    advertise: bool,
    /// Handshakes restarted (stale grants or slot collisions).
    retries: u64,
}

impl DschNode {
    /// A fresh endpoint for router `me`, with no demands and no knowledge.
    pub fn new(me: NodeId) -> Self {
        Self {
            me,
            my_demands: BTreeMap::new(),
            confirmed: BTreeMap::new(),
            known: BTreeMap::new(),
            pending: DschMessage::default(),
            waiting_grants: VecDeque::new(),
            advertise: false,
            retries: 0,
        }
    }

    /// The router this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// This node's own demands (links it transmits on).
    pub fn demands(&self) -> impl Iterator<Item = (LinkId, u32)> + '_ {
        self.my_demands.iter().map(|(&l, &d)| (l, d))
    }

    /// Confirmed reservations of this node's own links.
    pub fn confirmed(&self) -> &BTreeMap<LinkId, SlotRange> {
        &self.confirmed
    }

    /// Every reservation this node currently believes in (its own and
    /// overheard ones).
    pub fn known(&self) -> &BTreeMap<LinkId, SlotRange> {
        &self.known
    }

    /// Handshakes this node restarted so far (stale grants, collisions).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// True when every own demand holds a confirmed reservation and no
    /// corrective message is still waiting to go on air. A pending cancel
    /// can revoke an apparently complete schedule, hence the second
    /// clause.
    pub fn is_satisfied(&self) -> bool {
        self.pending.is_empty()
            && self
                .my_demands
                .keys()
                .all(|l| self.confirmed.contains_key(l))
    }

    /// True when this node has something to say (pending IEs, deferred
    /// grants it should retry, or a scheduled re-advertisement) — i.e.
    /// competing for a control opportunity is worthwhile.
    pub fn has_pending_traffic(&self) -> bool {
        !self.pending.is_empty() || !self.waiting_grants.is_empty() || self.advertise
    }

    /// Schedules a re-broadcast of every reservation this node is an
    /// endpoint of at its next won opportunity.
    ///
    /// Real MSH-DSCH messages carry schedule IEs on every transmission,
    /// which is what lets neighbours converge on a consistent picture
    /// despite loss. This hook is the equivalent: a grant or confirm
    /// dropped by the channel can leave two *conflicting* reservations
    /// confirmed on both sides with nobody the wiser — the collision
    /// resolution in `hear_reservation` (lower link id wins) only fires
    /// on reception. Calling this periodically guarantees that every
    /// neighbour of an endpoint eventually hears each reservation and
    /// the conflict resolves. Idempotent on a consistent schedule: the
    /// re-advertised state matches what receivers already know, so no
    /// corrective traffic results.
    pub fn advertise_schedule(&mut self) {
        self.advertise = true;
    }

    /// Sets (or replaces) the demand on one of this node's transmit
    /// links and queues the bandwidth request.
    ///
    /// A demand matching an already-confirmed reservation of the same
    /// size is a no-op; a changed demand retracts the old reservation
    /// first so the handshake renegotiates from a clean slate.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is zero (use [`DschNode::retract`] to drop a
    /// demand) or if `link` is not in `topo`.
    pub fn set_demand(&mut self, topo: &MeshTopology, link: LinkId, demand: u32) {
        assert!(demand > 0, "zero demand: use retract instead");
        assert!(topo.link(link).is_some(), "demand on unknown link {link}");
        if self.my_demands.get(&link) == Some(&demand) {
            // Same demand: either already reserved or a handshake is in
            // flight; re-issuing would only churn.
            return;
        }
        if self.my_demands.contains_key(&link) {
            self.retract(topo, link);
        }
        self.my_demands.insert(link, demand);
        self.enqueue_request(link, demand);
    }

    /// Drops the demand on `link` and, if a reservation exists, queues a
    /// cancel so neighbours free the slots. Returns `true` if anything
    /// was dropped.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not in `topo`.
    pub fn retract(&mut self, topo: &MeshTopology, link: LinkId) -> bool {
        let l = *topo.link(link).expect("retract on unknown link");
        let had_demand = self.my_demands.remove(&link).is_some();
        self.confirmed.remove(&link);
        self.pending.requests.retain(|r| r.link != link);
        self.pending.grants.retain(|g| g.link != link);
        self.pending.confirms.retain(|c| c.link != link);
        self.waiting_grants.retain(|r| r.link != link);
        if let Some(range) = self.known.remove(&link) {
            self.pending.cancels.push(GrantFix {
                link,
                tx: l.tx,
                rx: l.rx,
                range,
            });
            return true;
        }
        had_demand
    }

    /// Re-queues bandwidth requests for every own demand without a
    /// confirmed reservation — the loss-recovery hook: a request or
    /// grant dropped by the channel would otherwise stall the handshake
    /// forever. Safe to call repeatedly (duplicate pending requests are
    /// suppressed). Returns the number of requests queued.
    pub fn re_request_unconfirmed(&mut self) -> usize {
        let mut queued = 0;
        let unconfirmed: Vec<(LinkId, u32)> = self
            .my_demands
            .iter()
            .filter(|(l, _)| !self.confirmed.contains_key(l))
            .map(|(&l, &d)| (l, d))
            .collect();
        for (link, demand) in unconfirmed {
            if !self.pending.requests.iter().any(|r| r.link == link) {
                queued += 1;
            }
            self.enqueue_request(link, demand);
        }
        queued
    }

    /// Forgets every reservation involving `dead` (a neighbour declared
    /// failed): overheard state is purged outright, and own demands on
    /// links *to* the dead node are dropped (their receiver can no
    /// longer grant or be granted). Returns the number of purged
    /// entries.
    ///
    /// Own links to the dead node are removed silently — broadcasting a
    /// cancel is pointless (every neighbour purges independently) and
    /// the runtime re-admits repaired routes explicitly.
    pub fn purge_links_of(&mut self, topo: &MeshTopology, dead: NodeId) -> usize {
        let involved: BTreeSet<LinkId> = self
            .known
            .keys()
            .chain(self.my_demands.keys())
            .copied()
            .filter(|&l| {
                topo.link(l)
                    .is_some_and(|link| link.tx == dead || link.rx == dead)
            })
            .collect();
        for &l in &involved {
            self.known.remove(&l);
            self.confirmed.remove(&l);
            self.my_demands.remove(&l);
            self.pending.requests.retain(|r| r.link != l);
            self.pending.grants.retain(|g| g.link != l);
            self.pending.confirms.retain(|c| c.link != l);
            self.pending.cancels.retain(|c| c.link != l);
            self.waiting_grants.retain(|r| r.link != l);
        }
        involved.len()
    }

    /// Wipes all protocol state (a crash): demands, reservations,
    /// overheard knowledge and queued messages are all lost. The node id
    /// survives — it is burned into the hardware.
    pub fn reset(&mut self) {
        *self = DschNode::new(self.me);
    }

    /// Called when this node wins a control opportunity: retries any
    /// deferred grants, then takes the pending MSH-DSCH broadcast.
    /// Returns `None` when there is nothing to say (the opportunity goes
    /// idle).
    pub fn poll(&mut self, topo: &MeshTopology, slots: u32) -> Option<DschMessage> {
        self.retry_waiting_grants(topo, slots);
        let mut msg = std::mem::take(&mut self.pending);
        if self.advertise {
            self.advertise = false;
            // Re-broadcast current own-link reservations as confirm IEs;
            // receivers fold them in through `hear_reservation`. Entries
            // already covered by an outgoing grant or confirm need no
            // duplicate.
            for (&l, &r) in &self.known {
                let lk = *topo.link(l).expect("known links exist");
                if lk.tx != self.me && lk.rx != self.me {
                    continue;
                }
                if msg.confirms.iter().any(|c| c.link == l)
                    || msg.grants.iter().any(|g| g.link == l)
                {
                    continue;
                }
                msg.confirms.push(GrantFix {
                    link: l,
                    tx: lk.tx,
                    rx: lk.rx,
                    range: r,
                });
            }
        }
        if msg.is_empty() {
            return None;
        }
        Some(msg)
    }

    /// Processes one overheard MSH-DSCH broadcast (this node is within
    /// radio range of the sender).
    pub fn receive(&mut self, topo: &MeshTopology, msg: &DschMessage, slots: u32) {
        // Cancels first: a cancel and a fresh request for the same link
        // may share a message, and the cancel refers to the older
        // reservation.
        for c in &msg.cancels {
            if self.known.get(&c.link) == Some(&c.range) {
                self.known.remove(&c.link);
            }
            // Drop any queued grant/confirm for the cancelled reservation.
            self.pending
                .grants
                .retain(|g| !(g.link == c.link && g.range == c.range));
            self.pending
                .confirms
                .retain(|x| !(x.link == c.link && x.range == c.range));
            if c.tx == self.me {
                if self.confirmed.get(&c.link) == Some(&c.range) {
                    self.confirmed.remove(&c.link);
                }
                // Whether the cancel killed a confirmed reservation or a
                // handshake that never completed (its grant was purged
                // before broadcast), the transmitter must start over.
                if !self.confirmed.contains_key(&c.link) {
                    if let Some(&d) = self.my_demands.get(&c.link) {
                        self.retries += 1;
                        self.enqueue_request(c.link, d);
                    }
                }
            }
        }
        // Requests: grant if I am the link's receiver.
        for req in &msg.requests {
            let l = *topo.link(req.link).expect("request on unknown link");
            if l.rx != self.me {
                continue;
            }
            match self.first_fit(req.demand, slots, req.link, &req.busy) {
                Some(range) => {
                    self.known.insert(req.link, range);
                    self.pending.grants.push(GrantFix {
                        link: req.link,
                        tx: l.tx,
                        rx: l.rx,
                        range,
                    });
                }
                None => self.waiting_grants.push_back(req.clone()),
            }
        }
        // Grants: accept if I am the requester, otherwise record.
        for g in &msg.grants {
            if g.tx == self.me {
                if self.is_range_free(g.range, g.link) {
                    self.known.insert(g.link, g.range);
                    self.confirmed.insert(g.link, g.range);
                    self.pending.confirms.push(*g);
                } else {
                    // Stale grant: restart with fresh availability.
                    self.retries += 1;
                    if let Some(&d) = self.my_demands.get(&g.link) {
                        self.enqueue_request(g.link, d);
                    }
                }
            } else {
                self.hear_reservation(topo, g.link, g.range);
            }
        }
        // Confirms from others: record.
        for c in &msg.confirms {
            if c.tx != self.me {
                self.hear_reservation(topo, c.link, c.range);
            }
        }
    }

    fn busy_ranges(&self) -> Vec<SlotRange> {
        self.known.values().copied().collect()
    }

    fn is_range_free(&self, range: SlotRange, except: LinkId) -> bool {
        self.known
            .iter()
            .all(|(&l, r)| l == except || !r.overlaps(&range))
    }

    /// First-fit free range of `len` slots within `slots`, avoiding both
    /// this node's known reservations (except `link`'s own) and the
    /// `extra` busy list from the requester's availability IE.
    fn first_fit(
        &self,
        len: u32,
        slots: u32,
        link: LinkId,
        extra: &[SlotRange],
    ) -> Option<SlotRange> {
        if len == 0 || len > slots {
            return None;
        }
        let mut start = 0u64;
        'outer: while start + u64::from(len) <= u64::from(slots) {
            // The loop condition keeps `start` below `slots`, a `u32`.
            let candidate = SlotRange::new(start as u32, len);
            for (&l, r) in &self.known {
                if l != link && r.overlaps(&candidate) {
                    start = r.end();
                    continue 'outer;
                }
            }
            for r in extra {
                if r.overlaps(&candidate) {
                    start = r.end();
                    continue 'outer;
                }
            }
            return Some(candidate);
        }
        None
    }

    fn enqueue_request(&mut self, link: LinkId, demand: u32) {
        // One outstanding request per link: a duplicate would provoke a
        // second grant and pointless churn.
        if self.pending.requests.iter().any(|r| r.link == link) {
            return;
        }
        let busy = self.busy_ranges();
        self.pending.requests.push(Request { link, demand, busy });
    }

    fn retry_waiting_grants(&mut self, topo: &MeshTopology, slots: u32) {
        let waiting = std::mem::take(&mut self.waiting_grants);
        for req in waiting {
            // A link that got reserved through a retried handshake no
            // longer needs this deferred grant.
            if self.known.contains_key(&req.link) {
                continue;
            }
            match self.first_fit(req.demand, slots, req.link, &req.busy) {
                Some(range) => {
                    self.known.insert(req.link, range);
                    let l = topo.link(req.link).expect("request on unknown link");
                    self.pending.grants.push(GrantFix {
                        link: req.link,
                        tx: l.tx,
                        rx: l.rx,
                        range,
                    });
                }
                None => self.waiting_grants.push_back(req),
            }
        }
    }

    /// Records a reservation heard from a neighbour and resolves
    /// collisions with reservations this node is an endpoint of (lower
    /// link id wins).
    fn hear_reservation(&mut self, topo: &MeshTopology, link: LinkId, range: SlotRange) {
        self.known.insert(link, range);
        let incoming = *topo.link(link).expect("reservation on unknown link");
        let colliding: Vec<(LinkId, SlotRange)> = self
            .known
            .iter()
            .map(|(&l, &r)| (l, r))
            .filter(|&(l, r)| l != link && r.overlaps(&range))
            .collect();
        let one_hop = InterferenceModel::protocol_default();
        for (l, r) in colliding {
            let mine = *topo.link(l).expect("reservation on unknown link");
            if !links_conflict(topo, &mine, &incoming, one_hop) {
                continue;
            }
            // Only an endpoint of `l` has the authority (and the
            // knowledge) to revoke it; bystanders merely record both.
            let i_am_endpoint = mine.tx == self.me || mine.rx == self.me;
            if !i_am_endpoint {
                continue;
            }
            if u32::from(l) > u32::from(link) {
                // Our reservation yields. Purge any not-yet-broadcast
                // grant or confirm for it — a stale grant leaving this
                // queue *after* the cancel would resurrect the collision.
                self.known.remove(&l);
                self.pending.grants.retain(|g| g.link != l);
                self.pending.confirms.retain(|c| c.link != l);
                self.pending.cancels.push(GrantFix {
                    link: l,
                    tx: mine.tx,
                    rx: mine.rx,
                    range: r,
                });
                if mine.tx == self.me && self.confirmed.remove(&l).is_some() {
                    self.retries += 1;
                    if let Some(&d) = self.my_demands.get(&l) {
                        self.enqueue_request(l, d);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_topology::generators;

    fn two_node_handshake() -> (MeshTopology, DschNode, DschNode, LinkId) {
        let topo = generators::chain(2);
        let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut tx = DschNode::new(NodeId(0));
        let rx = DschNode::new(NodeId(1));
        tx.set_demand(&topo, link, 4);
        (topo, tx, rx, link)
    }

    #[test]
    fn three_way_handshake_confirms() {
        let (topo, mut tx, mut rx, link) = two_node_handshake();
        let slots = 256;
        // Request.
        let req = tx.poll(&topo, slots).expect("request pending");
        assert_eq!(req.requests.len(), 1);
        rx.receive(&topo, &req, slots);
        // Grant.
        let grant = rx.poll(&topo, slots).expect("grant pending");
        assert_eq!(grant.grants.len(), 1);
        tx.receive(&topo, &grant, slots);
        assert!(tx.confirmed().contains_key(&link));
        // Confirm.
        let confirm = tx.poll(&topo, slots).expect("confirm pending");
        assert_eq!(confirm.confirms.len(), 1);
        rx.receive(&topo, &confirm, slots);
        assert!(tx.is_satisfied());
        assert_eq!(tx.confirmed()[&link].len, 4);
    }

    #[test]
    fn lost_grant_recovers_through_re_request() {
        let (topo, mut tx, mut rx, link) = two_node_handshake();
        let slots = 256;
        let req = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &req, slots);
        let _lost_grant = rx.poll(&topo, slots).unwrap();
        // The grant never arrives; without recovery the handshake stalls.
        assert!(tx.poll(&topo, slots).is_none());
        assert!(!tx.is_satisfied());
        assert_eq!(tx.re_request_unconfirmed(), 1);
        let req2 = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &req2, slots);
        let grant2 = rx.poll(&topo, slots).unwrap();
        tx.receive(&topo, &grant2, slots);
        let confirm = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &confirm, slots);
        assert!(tx.is_satisfied());
        assert!(rx.known().contains_key(&link));
    }

    #[test]
    fn retract_broadcasts_cancel() {
        let (topo, mut tx, mut rx, link) = two_node_handshake();
        let slots = 256;
        let req = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &req, slots);
        let grant = rx.poll(&topo, slots).unwrap();
        tx.receive(&topo, &grant, slots);
        let confirm = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &confirm, slots);
        assert!(rx.known().contains_key(&link));

        assert!(tx.retract(&topo, link));
        let cancel = tx.poll(&topo, slots).expect("cancel pending");
        assert_eq!(cancel.cancels.len(), 1);
        rx.receive(&topo, &cancel, slots);
        assert!(!rx.known().contains_key(&link));
        assert!(tx.is_satisfied(), "no demand left");
    }

    #[test]
    fn purge_links_of_dead_neighbour_frees_slots() {
        let topo = generators::chain(3);
        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let l12 = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let mut n2 = DschNode::new(NodeId(2));
        // Node 2 overheard reservations on both links.
        n2.hear_reservation(&topo, l01, SlotRange::new(0, 4));
        n2.hear_reservation(&topo, l12, SlotRange::new(4, 4));
        assert_eq!(n2.known().len(), 2);
        let purged = n2.purge_links_of(&topo, NodeId(1));
        assert_eq!(purged, 2, "both links touch the dead node");
        assert!(n2.known().is_empty());
    }

    #[test]
    fn reset_wipes_everything_but_identity() {
        let (_topo, mut tx, _, link) = two_node_handshake();
        assert!(tx.has_pending_traffic());
        tx.reset();
        assert_eq!(tx.node(), NodeId(0));
        assert!(!tx.has_pending_traffic());
        assert!(tx.is_satisfied(), "no demands after a crash");
        assert!(!tx.known().contains_key(&link));
    }

    #[test]
    fn schedule_advertisement_resolves_unheard_conflicts() {
        // Two conflicting links on a chain 0-1-2-3: a = 0->1, b = 2->3
        // (b.tx is one hop from a.rx). Both handshakes complete with the
        // same slot range because every broadcast that would have warned
        // the other pair is "lost". Periodic re-advertisement must
        // resolve the double booking: b (higher link id) yields to a.
        let topo = generators::chain(4);
        let a = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let b = topo.link_between(NodeId(2), NodeId(3)).unwrap();
        let slots = 256;
        let mut n0 = DschNode::new(NodeId(0));
        let mut n1 = DschNode::new(NodeId(1));
        let mut n2 = DschNode::new(NodeId(2));
        let mut n3 = DschNode::new(NodeId(3));
        for (tx, rx, link) in [(&mut n0, &mut n1, a), (&mut n2, &mut n3, b)] {
            tx.set_demand(&topo, link, 4);
            let req = tx.poll(&topo, slots).unwrap();
            rx.receive(&topo, &req, slots);
            let grant = rx.poll(&topo, slots).unwrap();
            tx.receive(&topo, &grant, slots);
            let _lost_confirm = tx.poll(&topo, slots);
        }
        assert_eq!(
            n0.confirmed()[&a],
            n2.confirmed()[&b],
            "the double booking must be in place"
        );

        // Node 1 (a's receiver) re-advertises; node 2 (b's transmitter)
        // hears it, yields b and renegotiates around a.
        n1.advertise_schedule();
        let advert = n1.poll(&topo, slots).expect("advertisement pending");
        assert!(!advert.confirms.is_empty());
        n2.receive(&topo, &advert, slots);
        assert!(!n2.confirmed().contains_key(&b), "b must yield to a");
        let fix = n2.poll(&topo, slots).expect("cancel + re-request pending");
        assert_eq!(fix.cancels.len(), 1);
        assert_eq!(fix.requests.len(), 1);
        n3.receive(&topo, &fix, slots);
        let grant2 = n3.poll(&topo, slots).unwrap();
        n2.receive(&topo, &grant2, slots);
        assert!(n2.confirmed().contains_key(&b));
        assert!(
            !n2.confirmed()[&b].overlaps(&n0.confirmed()[&a]),
            "the renegotiated range must clear the winner's"
        );
    }

    #[test]
    fn advertisement_is_idempotent_on_consistent_schedules() {
        let (topo, mut tx, mut rx, link) = two_node_handshake();
        let slots = 256;
        let req = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &req, slots);
        let grant = rx.poll(&topo, slots).unwrap();
        tx.receive(&topo, &grant, slots);
        let confirm = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &confirm, slots);

        rx.advertise_schedule();
        assert!(rx.has_pending_traffic());
        let advert = rx.poll(&topo, slots).expect("advertisement pending");
        tx.receive(&topo, &advert, slots);
        assert!(tx.is_satisfied(), "no corrective traffic may result");
        assert!(rx.poll(&topo, slots).is_none(), "one-shot re-broadcast");
        assert_eq!(tx.confirmed()[&link].len, 4);
    }

    #[test]
    fn changed_demand_renegotiates() {
        let (topo, mut tx, mut rx, link) = two_node_handshake();
        let slots = 256;
        let req = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &req, slots);
        let grant = rx.poll(&topo, slots).unwrap();
        tx.receive(&topo, &grant, slots);
        let confirm = tx.poll(&topo, slots).unwrap();
        rx.receive(&topo, &confirm, slots);
        assert_eq!(tx.confirmed()[&link].len, 4);

        // Same demand: no new traffic.
        tx.set_demand(&topo, link, 4);
        assert!(!tx.has_pending_traffic());

        // Bigger demand: cancel + fresh request in one broadcast.
        tx.set_demand(&topo, link, 6);
        let msg = tx.poll(&topo, slots).unwrap();
        assert_eq!(msg.cancels.len(), 1);
        assert_eq!(msg.requests.len(), 1);
        rx.receive(&topo, &msg, slots);
        let grant2 = rx.poll(&topo, slots).unwrap();
        tx.receive(&topo, &grant2, slots);
        assert_eq!(tx.confirmed()[&link].len, 6);
    }
}
