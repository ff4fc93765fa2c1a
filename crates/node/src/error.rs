//! Error type for the node runtime.

use std::error::Error;
use std::fmt;

use wimesh::QosError;
use wimesh_topology::TopologyError;

/// Errors from configuring or driving a [`crate::MeshRuntime`].
#[derive(Debug)]
#[non_exhaustive]
pub enum NodeError {
    /// An invalid runtime or fabric configuration (e.g. a loss
    /// probability outside `[0, 1]`).
    Config(String),
    /// A topology operation failed (unknown node/link, no route).
    Topology(TopologyError),
    /// The QoS session rejected an operation with an error (not a mere
    /// admission rejection).
    Qos(QosError),
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&NodeError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            NodeError::Topology(e) => write!(f, "topology error: {e}"),
            NodeError::Qos(e) => write!(f, "qos session error: {e}"),
        }
    }
}

impl Error for NodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NodeError::Config(_) => None,
            NodeError::Topology(e) => Some(e),
            NodeError::Qos(e) => Some(e),
        }
    }
}

impl From<TopologyError> for NodeError {
    fn from(e: TopologyError) -> Self {
        NodeError::Topology(e)
    }
}

impl From<QosError> for NodeError {
    fn from(e: QosError) -> Self {
        NodeError::Qos(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_source() {
        let e = NodeError::Config("loss probability must be in [0, 1]".into());
        assert!(e.to_string().contains("loss probability"));
        assert!(e.source().is_none());
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<NodeError>();
    }
}
