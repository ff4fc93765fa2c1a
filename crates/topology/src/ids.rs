//! Strongly-typed identifiers for nodes and links.

use std::fmt;

/// Identifier of a node (mesh router) in a [`MeshTopology`].
///
/// Node ids are dense: the `i`-th call to [`MeshTopology::add_node`] returns
/// `NodeId(i)`, so a `NodeId` can be used directly as an index into
/// per-node vectors.
///
/// [`MeshTopology`]: crate::MeshTopology
/// [`MeshTopology::add_node`]: crate::MeshTopology::add_node
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a *directed* link in a [`MeshTopology`].
///
/// Like [`NodeId`], link ids are dense and double as vector indices. A
/// bidirectional radio hop is represented by two directed links with
/// distinct ids.
///
/// [`MeshTopology`]: crate::MeshTopology
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for LinkId {
    fn from(v: u32) -> Self {
        LinkId(v)
    }
}

impl From<LinkId> for u32 {
    fn from(v: LinkId) -> Self {
        v.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id: NodeId = 7u32.into();
        assert_eq!(id.index(), 7);
        assert_eq!(u32::from(id), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn link_id_roundtrip() {
        let id: LinkId = 3u32.into();
        assert_eq!(id.index(), 3);
        assert_eq!(u32::from(id), 3);
        assert_eq!(id.to_string(), "l3");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(LinkId(0) < LinkId(10));
    }
}
