//! Passes deterministic-iteration: BTree containers where order matters,
//! order-free reductions over hash containers, collects into order-free
//! containers, and a reasoned allow on a debug path.
#![forbid(unsafe_code)]
use std::collections::{BTreeMap, HashMap, HashSet};

/// Ordered iteration comes from a BTreeMap — deterministic.
pub fn branch_order(ranks: &BTreeMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, v) in ranks {
        out.push(k + v);
    }
    out
}

/// An order-free reduction over a hash map is fine.
pub fn total(weights: &HashMap<u32, u32>) -> u32 {
    weights.values().sum()
}

/// Collecting into a BTreeMap re-sorts: the hash order never escapes.
pub fn sorted(weights: &HashMap<u32, u32>) -> BTreeMap<u32, u32> {
    weights.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u32, u32>>()
}

/// Membership checks never iterate.
pub fn lookup(tags: &HashSet<u32>, t: u32) -> bool {
    tags.contains(&t)
}

/// A justified hash iteration on a debug-only path.
pub fn debug_dump(tags: &HashSet<u32>) -> usize {
    // check: allow(deterministic-iteration, reason = "fixture: debug dump, order never reaches an artefact")
    let all = tags.iter().collect::<Vec<_>>();
    all.len()
}
