//! The crate-level error type.

use std::error::Error;
use std::fmt;

use wimesh_emu::EmuError;
use wimesh_tdma::ScheduleError;
use wimesh_topology::TopologyError;

/// Errors from the QoS pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QosError {
    /// Topology/routing failure.
    Topology(TopologyError),
    /// Emulation model failure (guard/slot sizing).
    Emulation(EmuError),
    /// Scheduling failure.
    Schedule(ScheduleError),
    /// A flow's rate is not finite and positive.
    InvalidRate {
        /// The offending flow id.
        flow: u32,
    },
    /// Under the configured rate policy a link is longer than any PHY
    /// rate can reach.
    LinkBeyondRange {
        /// The offending link.
        link: wimesh_topology::LinkId,
    },
    /// An invalid builder configuration (see [`crate::MeshQosBuilder`]).
    Config(String),
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&QosError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::Topology(e) => write!(f, "topology error: {e}"),
            QosError::Emulation(e) => write!(f, "emulation error: {e}"),
            QosError::Schedule(e) => write!(f, "scheduling error: {e}"),
            QosError::InvalidRate { flow } => {
                write!(f, "flow {flow} has a rate that is not finite and positive")
            }
            QosError::LinkBeyondRange { link } => {
                write!(f, "link {link} is beyond every PHY rate's range")
            }
            QosError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for QosError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QosError::Topology(e) => Some(e),
            QosError::Emulation(e) => Some(e),
            QosError::Schedule(e) => Some(e),
            QosError::InvalidRate { .. } => None,
            QosError::LinkBeyondRange { .. } => None,
            QosError::Config(_) => None,
        }
    }
}

impl From<TopologyError> for QosError {
    fn from(e: TopologyError) -> Self {
        QosError::Topology(e)
    }
}

impl From<EmuError> for QosError {
    fn from(e: EmuError) -> Self {
        QosError::Emulation(e)
    }
}

impl From<ScheduleError> for QosError {
    fn from(e: ScheduleError) -> Self {
        QosError::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_source() {
        let e: QosError = TopologyError::EmptyPath.into();
        assert!(matches!(e, QosError::Topology(_)));
        assert!(e.source().is_some());
        let e: QosError = ScheduleError::Infeasible.into();
        assert!(e.to_string().contains("scheduling"));
        assert!(QosError::InvalidRate { flow: 3 }.source().is_none());
    }
}
