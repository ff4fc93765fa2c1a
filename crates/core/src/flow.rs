//! QoS flow specifications.

use std::time::Duration;

use wimesh_sim::traffic::VoipCodec;
use wimesh_sim::FlowId;
use wimesh_topology::NodeId;

/// A traffic flow presented to the admission controller.
///
/// A flow with a `deadline` is *guaranteed*: it is only admitted if a
/// conflict-free schedule exists whose worst-case end-to-end delay meets
/// the deadline, and it then keeps that bound for life. A flow without a
/// deadline is *best effort*: it rides whatever minislots the guaranteed
/// region leaves free.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Flow identifier.
    pub id: FlowId,
    /// Ingress mesh router.
    pub src: NodeId,
    /// Egress mesh router.
    pub dst: NodeId,
    /// Reserved rate in bits per second (for guaranteed flows, the rate
    /// the reservation is sized for; peak rate for VoIP).
    pub rate_bps: f64,
    /// Maximum burst in bytes the flow may present at once (the token
    /// bucket's sigma). Reservations are sized for `sigma + rho * T` per
    /// frame so queues drain every frame and the delay bound holds even
    /// when sources phase-align.
    pub burst_bytes: u32,
    /// End-to-end delay bound, or `None` for best effort.
    pub deadline: Option<Duration>,
}

/// The default VoIP mouth-to-ear budget spent inside the mesh.
pub const DEFAULT_VOIP_DEADLINE: Duration = Duration::from_millis(80);

impl FlowSpec {
    /// A guaranteed flow. The default burst is one packetization interval
    /// (20 ms) worth of the rate; tune it with [`FlowSpec::with_burst`].
    pub fn guaranteed(
        id: u32,
        src: NodeId,
        dst: NodeId,
        rate_bps: f64,
        deadline: Duration,
    ) -> Self {
        let burst_bytes = (rate_bps * 0.020 / 8.0).ceil().max(1.0) as u32;
        Self {
            id: FlowId(id),
            src,
            dst,
            rate_bps,
            burst_bytes,
            deadline: Some(deadline),
        }
    }

    /// A VoIP call: reserved at the codec's peak (talkspurt) rate, with a
    /// one-packet burst and the default mesh delay budget.
    pub fn voip(id: u32, src: NodeId, dst: NodeId, codec: VoipCodec) -> Self {
        Self::guaranteed(id, src, dst, codec.active_rate_bps(), DEFAULT_VOIP_DEADLINE)
            .with_burst(codec.packet_bytes())
    }

    /// A best-effort flow (no deadline).
    pub fn best_effort(id: u32, src: NodeId, dst: NodeId, rate_bps: f64) -> Self {
        let burst_bytes = (rate_bps * 0.020 / 8.0).ceil().max(1.0) as u32;
        Self {
            id: FlowId(id),
            src,
            dst,
            rate_bps,
            burst_bytes,
            deadline: None,
        }
    }

    /// Overrides the burst allowance.
    pub fn with_burst(mut self, burst_bytes: u32) -> Self {
        self.burst_bytes = burst_bytes.max(1);
        self
    }

    /// Whether this flow needs a delay guarantee.
    pub fn is_guaranteed(&self) -> bool {
        self.deadline.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voip_spec() {
        let f = FlowSpec::voip(1, NodeId(2), NodeId(0), VoipCodec::G711);
        assert_eq!(f.id, FlowId(1));
        assert!((f.rate_bps - 80_000.0).abs() < 1e-9);
        assert_eq!(f.deadline, Some(DEFAULT_VOIP_DEADLINE));
        assert!(f.is_guaranteed());
    }

    #[test]
    fn best_effort_spec() {
        let f = FlowSpec::best_effort(2, NodeId(0), NodeId(3), 1e6);
        assert!(!f.is_guaranteed());
        assert_eq!(f.deadline, None);
    }
}
