//! Error type for topology operations.

use std::error::Error;
use std::fmt;

use crate::{LinkId, NodeId};

/// Errors returned by topology construction and routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A referenced node does not exist.
    UnknownNode(NodeId),
    /// A referenced link does not exist.
    UnknownLink(LinkId),
    /// A link from a node to itself was requested.
    SelfLoop(NodeId),
    /// The same directed link was added twice.
    DuplicateLink(NodeId, NodeId),
    /// No route exists between the two nodes.
    NoRoute(NodeId, NodeId),
    /// A path was constructed from links that do not form a chain.
    DisconnectedPath {
        /// Link whose transmitter does not match the previous receiver.
        link: LinkId,
    },
    /// A path was constructed with no links.
    EmptyPath,
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&TopologyError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            TopologyError::DuplicateLink(u, v) => {
                write!(f, "duplicate link {u} -> {v}")
            }
            TopologyError::NoRoute(s, d) => write!(f, "no route from {s} to {d}"),
            TopologyError::DisconnectedPath { link } => {
                write!(f, "path is not a chain at link {link}")
            }
            TopologyError::EmptyPath => write!(f, "path has no links"),
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(TopologyError, &str)> = vec![
            (TopologyError::UnknownNode(NodeId(4)), "unknown node n4"),
            (TopologyError::UnknownLink(LinkId(2)), "unknown link l2"),
            (TopologyError::SelfLoop(NodeId(1)), "self-loop at node n1"),
            (
                TopologyError::DuplicateLink(NodeId(0), NodeId(1)),
                "duplicate link n0 -> n1",
            ),
            (
                TopologyError::NoRoute(NodeId(0), NodeId(9)),
                "no route from n0 to n9",
            ),
            (TopologyError::EmptyPath, "path has no links"),
        ];
        for (err, msg) in cases {
            assert_eq!(err.to_string(), msg);
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<TopologyError>();
    }
}
