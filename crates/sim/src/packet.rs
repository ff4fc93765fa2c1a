//! Packets and flow identifiers.

use std::fmt;

use crate::SimTime;

/// Identifier of a traffic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for FlowId {
    fn from(v: u32) -> Self {
        FlowId(v)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A simulated packet.
///
/// Payload content is never modelled — only size and timing matter to the
/// MAC/scheduling experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Per-flow sequence number, starting at 0.
    pub seq: u64,
    /// Payload size in bytes (MAC/PHY framing is added by the MAC model).
    pub size_bytes: u32,
    /// Creation (arrival at the source queue) time.
    pub created: SimTime,
}

impl Packet {
    /// Creates a packet.
    pub fn new(flow: FlowId, seq: u64, size_bytes: u32, created: SimTime) -> Self {
        Self {
            flow,
            seq,
            size_bytes,
            created,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_display() {
        assert_eq!(FlowId(4).to_string(), "f4");
        assert_eq!(FlowId::from(3u32).index(), 3);
    }
}
