//! Per-flow SLO auditing: promises registered at admission time,
//! delivery observations from the data planes, typed verdicts out.
//!
//! A [`FlowSloTracker`] is a plain value owned by whoever audits: the
//! node runtime keeps one and reconciles it with its repair session's
//! admitted flows every frame, and an audit of a simulation run
//! promises the admitted flows and feeds it the run's per-flow totals.
//! [`FlowSloTracker::verdicts`] then compares measured against promised
//! and classifies each flow as met, degraded or violated, with explicit
//! margins, so "guaranteed QoS" becomes a machine-checkable ledger
//! instead of a claim. Nothing here touches process-global state; a
//! caller that wants verdicts in a sink hands them to
//! [`Sink::on_slo`](crate::sink::Sink::on_slo) itself.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// How a flow fared against its admission-time promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloStatus {
    /// Every observation within the promise, with comfortable margin.
    Met,
    /// Within the hard bound but impaired: drops, missing evidence or a
    /// thin delay margin (< 10% of the bound).
    Degraded,
    /// The promised delay bound was exceeded.
    Violated,
}

impl fmt::Display for SloStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SloStatus::Met => "met",
            SloStatus::Degraded => "degraded",
            SloStatus::Violated => "violated",
        })
    }
}

/// One flow's audited outcome: promise, measurements and the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloVerdict {
    /// Raw flow id.
    pub flow: u64,
    /// The classification.
    pub status: SloStatus,
    /// Slots per link the admission promised.
    pub promised_slots: u32,
    /// Promised end-to-end delay bound in nanoseconds (`None` when the
    /// flow was admitted without a deadline).
    pub bound_ns: Option<u64>,
    /// Worst end-to-end delay observed, nanoseconds.
    pub max_delay_ns: u64,
    /// `bound - max_delay` in nanoseconds (negative when violated,
    /// zero when no bound was promised).
    pub margin_ns: i64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// TDMA frames in which the control plane checked the reservation.
    pub frames_observed: u64,
    /// Frames in which the reservation fell short of the promise.
    pub frames_short: u64,
}

/// Internal per-flow ledger entry.
#[derive(Debug, Clone, Copy, Default)]
struct FlowSlo {
    promised_slots: u32,
    bound_ns: Option<u64>,
    max_delay_ns: u64,
    delivered: u64,
    dropped: u64,
    frames_observed: u64,
    frames_short: u64,
}

/// Tracks promises and observations for a set of flows.
#[derive(Debug, Clone, Default)]
pub struct FlowSloTracker {
    flows: BTreeMap<u64, FlowSlo>,
}

impl FlowSloTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a flow's promise. Observations already
    /// accumulated for the flow are kept: re-admission after a re-route
    /// updates the terms without erasing history.
    pub fn promise(&mut self, flow: u64, slots: u32, bound: Option<Duration>) {
        let entry = self.flows.entry(flow).or_default();
        entry.promised_slots = slots;
        entry.bound_ns = bound.map(duration_ns);
    }

    /// Removes a flow from the ledger (released flows are no longer
    /// audited).
    pub fn withdraw(&mut self, flow: u64) {
        self.flows.remove(&flow);
    }

    /// Records one end-to-end delivery with the measured delay.
    /// Unknown flows are ignored.
    pub fn observe_delivery(&mut self, flow: u64, delay: Duration) {
        self.observe_totals(flow, 1, 0, delay);
    }

    /// Records one dropped packet. Unknown flows are ignored.
    pub fn observe_drop(&mut self, flow: u64) {
        self.observe_totals(flow, 0, 1, Duration::ZERO);
    }

    /// Records a data-plane run's totals for one flow at once:
    /// `delivered` deliveries whose worst delay was `max_delay`, and
    /// `dropped` drops. Unknown flows are ignored.
    pub fn observe_totals(&mut self, flow: u64, delivered: u64, dropped: u64, max_delay: Duration) {
        if let Some(entry) = self.flows.get_mut(&flow) {
            entry.delivered += delivered;
            entry.dropped += dropped;
            entry.max_delay_ns = entry.max_delay_ns.max(duration_ns(max_delay));
        }
    }

    /// Records one control-plane frame check: `satisfied` is whether
    /// the flow's reservation covered its promised slots this frame.
    pub fn observe_frame(&mut self, flow: u64, satisfied: bool) {
        if let Some(entry) = self.flows.get_mut(&flow) {
            entry.frames_observed += 1;
            if !satisfied {
                entry.frames_short += 1;
            }
        }
    }

    /// Number of flows currently under audit.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow is under audit.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The verdict for one flow, if it is under audit.
    pub fn verdict_for(&self, flow: u64) -> Option<SloVerdict> {
        self.flows.get(&flow).map(|e| judge(flow, e))
    }

    /// Verdicts for every flow under audit, ascending flow id.
    pub fn verdicts(&self) -> Vec<SloVerdict> {
        self.flows.iter().map(|(&f, e)| judge(f, e)).collect()
    }

    /// Forgets every flow.
    pub fn clear(&mut self) {
        self.flows.clear();
    }
}

/// Classifies one ledger entry.
fn judge(flow: u64, e: &FlowSlo) -> SloVerdict {
    // In i128: a bound past `i64::MAX` ns (≈292 years) is admissible.
    let margin_ns = e.bound_ns.map_or(0, |bound| {
        let margin = i128::from(bound) - i128::from(e.max_delay_ns);
        i64::try_from(margin).unwrap_or(if margin < 0 { i64::MIN } else { i64::MAX })
    });
    let violated = matches!(e.bound_ns, Some(bound) if e.max_delay_ns > bound);
    let thin_margin = matches!(e.bound_ns,
        Some(bound) if e.max_delay_ns > 0 && bound.saturating_sub(e.max_delay_ns) < bound / 10);
    let no_evidence = e.delivered == 0 && e.frames_observed == 0;
    let status = if violated {
        SloStatus::Violated
    } else if e.dropped > 0 || e.frames_short > 0 || no_evidence || thin_margin {
        SloStatus::Degraded
    } else {
        SloStatus::Met
    };
    SloVerdict {
        flow,
        status,
        promised_slots: e.promised_slots,
        bound_ns: e.bound_ns,
        max_delay_ns: e.max_delay_ns,
        margin_ns,
        delivered: e.delivered,
        dropped: e.dropped,
        frames_observed: e.frames_observed,
        frames_short: e.frames_short,
    }
}

/// Duration → saturating nanoseconds.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn met_degraded_violated_classification() {
        let mut t = FlowSloTracker::new();
        let bound = Some(Duration::from_millis(10));
        t.promise(1, 4, bound);
        t.promise(2, 4, bound);
        t.promise(3, 4, bound);
        t.promise(4, 4, None);
        // Flow 1: comfortable delivery.
        t.observe_delivery(1, Duration::from_millis(2));
        t.observe_frame(1, true);
        // Flow 2: a drop degrades it.
        t.observe_delivery(2, Duration::from_millis(2));
        t.observe_drop(2);
        // Flow 3: blows the bound.
        t.observe_delivery(3, Duration::from_millis(11));
        // Flow 4: no bound, frames fine.
        t.observe_frame(4, true);
        let verdicts = t.verdicts();
        assert_eq!(verdicts.len(), 4);
        assert_eq!(verdicts[0].status, SloStatus::Met);
        assert_eq!(verdicts[1].status, SloStatus::Degraded);
        assert_eq!(verdicts[2].status, SloStatus::Violated);
        assert!(verdicts[2].margin_ns < 0);
        assert_eq!(verdicts[3].status, SloStatus::Met);
        assert_eq!(verdicts[0].margin_ns, 8_000_000);
    }

    #[test]
    fn thin_margin_and_short_frames_degrade() {
        let mut t = FlowSloTracker::new();
        t.promise(1, 2, Some(Duration::from_millis(10)));
        t.observe_delivery(1, Duration::from_micros(9_500)); // margin 0.5 ms < 1 ms
        assert_eq!(
            t.verdict_for(1).expect("tracked").status,
            SloStatus::Degraded
        );
        let mut t2 = FlowSloTracker::new();
        t2.promise(9, 2, Some(Duration::from_millis(10)));
        t2.observe_delivery(9, Duration::from_millis(1));
        t2.observe_frame(9, false);
        assert_eq!(
            t2.verdict_for(9).expect("tracked").status,
            SloStatus::Degraded
        );
    }

    #[test]
    fn no_evidence_degrades_not_meets() {
        let mut t = FlowSloTracker::new();
        t.promise(5, 3, Some(Duration::from_millis(50)));
        assert_eq!(
            t.verdict_for(5).expect("tracked").status,
            SloStatus::Degraded
        );
    }

    #[test]
    fn repromise_keeps_observations_withdraw_forgets() {
        let mut t = FlowSloTracker::new();
        t.promise(1, 2, Some(Duration::from_millis(10)));
        t.observe_delivery(1, Duration::from_millis(3));
        // Re-route re-admits with new terms; history survives.
        t.promise(1, 5, Some(Duration::from_millis(20)));
        let v = t.verdict_for(1).expect("tracked");
        assert_eq!(v.promised_slots, 5);
        assert_eq!(v.delivered, 1);
        t.withdraw(1);
        assert!(t.verdict_for(1).is_none());
        assert!(t.is_empty());
        // Observations for unknown flows are ignored, not panics.
        t.observe_delivery(42, Duration::from_millis(1));
        t.observe_drop(42);
        t.observe_frame(42, false);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn withdraw_then_promise_starts_a_fresh_history() {
        let mut t = FlowSloTracker::new();
        t.promise(1, 2, Some(Duration::from_millis(10)));
        t.observe_delivery(1, Duration::from_millis(3));
        t.observe_frame(1, false);
        // A release followed by a re-admission: the new promise is
        // judged on what happens under it alone.
        t.withdraw(1);
        t.promise(1, 2, Some(Duration::from_millis(10)));
        let v = t.verdict_for(1).expect("tracked");
        assert_eq!((v.delivered, v.frames_observed, v.frames_short), (0, 0, 0));
        assert_eq!(v.max_delay_ns, 0);
        assert_eq!(v.status, SloStatus::Degraded, "no evidence yet");
    }

    #[test]
    fn totals_add_up_like_single_observations() {
        let mut one_by_one = FlowSloTracker::new();
        let mut totals = FlowSloTracker::new();
        for t in [&mut one_by_one, &mut totals] {
            t.promise(3, 1, Some(Duration::from_millis(20)));
        }
        for ms in [4, 9, 2] {
            one_by_one.observe_delivery(3, Duration::from_millis(ms));
        }
        one_by_one.observe_drop(3);
        totals.observe_totals(3, 3, 1, Duration::from_millis(9));
        totals.observe_totals(7, 5, 0, Duration::from_millis(1)); // unknown
        assert_eq!(one_by_one.verdicts(), totals.verdicts());
        assert_eq!(totals.verdict_for(3).expect("tracked").delivered, 3);
    }

    #[test]
    fn a_bound_past_i64_nanoseconds_keeps_a_positive_margin() {
        // 300 years: more nanoseconds than an i64 holds, fewer than a
        // u64 does, so the bound is admissible and journalable.
        let bound = Duration::from_secs(300 * 365 * 86_400);
        let mut t = FlowSloTracker::new();
        t.promise(1, 1, Some(bound));
        t.observe_delivery(1, Duration::from_millis(5));
        let v = t.verdict_for(1).expect("tracked");
        assert_eq!(v.status, SloStatus::Met);
        assert_eq!(v.margin_ns, i64::MAX, "the margin saturates");
        t.promise(2, 1, Some(Duration::ZERO));
        t.observe_delivery(2, Duration::from_nanos(u64::MAX));
        let v = t.verdict_for(2).expect("tracked");
        assert_eq!(v.status, SloStatus::Violated);
        assert_eq!(v.margin_ns, i64::MIN);
    }
}
