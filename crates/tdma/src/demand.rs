//! Per-link slot demands.

use std::collections::BTreeMap;

use wimesh_topology::LinkId;

/// Minislots per frame demanded on each link.
///
/// Demands come from the QoS layer: a flow reserving `r` minislots per
/// frame adds `r` to every link on its path. Links with zero demand are
/// absent — they need no vertex in the conflict graph and no slots in the
/// schedule.
///
/// # Example
///
/// ```
/// use wimesh_tdma::Demands;
/// use wimesh_topology::LinkId;
///
/// let mut d = Demands::new();
/// d.add(LinkId(0), 2);
/// d.add(LinkId(0), 1);
/// assert_eq!(d.get(LinkId(0)), 3);
/// assert_eq!(d.get(LinkId(1)), 0);
/// assert_eq!(d.total(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Demands {
    slots: BTreeMap<LinkId, u32>,
}

impl Demands {
    /// Creates an empty demand map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `slots` to `link`'s demand (no-op for `slots == 0`).
    pub fn add(&mut self, link: LinkId, slots: u32) {
        if slots > 0 {
            *self.slots.entry(link).or_insert(0) += slots;
        }
    }

    /// Sets `link`'s demand, removing the entry when `slots == 0`.
    pub fn set(&mut self, link: LinkId, slots: u32) {
        if slots == 0 {
            self.slots.remove(&link);
        } else {
            self.slots.insert(link, slots);
        }
    }

    /// Demand of `link` (0 when absent).
    pub fn get(&self, link: LinkId) -> u32 {
        self.slots.get(&link).copied().unwrap_or(0)
    }

    /// Links with nonzero demand, ascending by id.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.slots.keys().copied()
    }

    /// `(link, slots)` pairs, ascending by link id.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, u32)> + '_ {
        self.slots.iter().map(|(&l, &s)| (l, s))
    }

    /// Number of links with nonzero demand.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no link has demand.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sum of all demands.
    pub fn total(&self) -> u64 {
        self.slots.values().map(|&s| s as u64).sum()
    }

    /// Merges another demand map into this one (summing per link).
    pub fn merge(&mut self, other: &Demands) {
        for (l, s) in other.iter() {
            self.add(l, s);
        }
    }
}

impl FromIterator<(LinkId, u32)> for Demands {
    fn from_iter<T: IntoIterator<Item = (LinkId, u32)>>(iter: T) -> Self {
        let mut d = Demands::new();
        for (l, s) in iter {
            d.add(l, s);
        }
        d
    }
}

impl Extend<(LinkId, u32)> for Demands {
    fn extend<T: IntoIterator<Item = (LinkId, u32)>>(&mut self, iter: T) {
        for (l, s) in iter {
            self.add(l, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_set() {
        let mut d = Demands::new();
        d.add(LinkId(3), 2);
        d.add(LinkId(3), 3);
        assert_eq!(d.get(LinkId(3)), 5);
        d.set(LinkId(3), 1);
        assert_eq!(d.get(LinkId(3)), 1);
        d.set(LinkId(3), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn zero_add_is_noop() {
        let mut d = Demands::new();
        d.add(LinkId(1), 0);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn totals_and_merge() {
        let a: Demands = [(LinkId(0), 1), (LinkId(1), 2)].into_iter().collect();
        let b: Demands = [(LinkId(1), 3), (LinkId(2), 4)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.get(LinkId(0)), 1);
        assert_eq!(m.get(LinkId(1)), 5);
        assert_eq!(m.get(LinkId(2)), 4);
        assert_eq!(m.total(), 10);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn links_sorted() {
        let d: Demands = [(LinkId(5), 1), (LinkId(1), 1), (LinkId(3), 1)]
            .into_iter()
            .collect();
        let ids: Vec<u32> = d.links().map(u32::from).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn extend_accumulates() {
        let mut d = Demands::new();
        d.extend([(LinkId(0), 1), (LinkId(0), 2)]);
        assert_eq!(d.get(LinkId(0)), 3);
    }
}
