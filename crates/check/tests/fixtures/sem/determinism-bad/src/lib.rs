//! Violates deterministic-iteration: HashMap/HashSet iteration feeding
//! branching and serialization order (the "iterate a HashMap into
//! branching order" mutation).
#![forbid(unsafe_code)]
use std::collections::{HashMap, HashSet};

/// A for-loop over a hash map decides the branching order → finding.
pub fn branch_order(weights: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, v) in weights {
        out.push(k + v);
    }
    out
}

/// `.keys()` feeding an order-sensitive collect → finding.
pub fn slot_order(weights: &HashMap<u32, u32>) -> Vec<u32> {
    weights.keys().copied().collect::<Vec<u32>>()
}

/// Iterating a HashSet into serialized output → finding.
pub fn serialize(tags: &HashSet<u32>) -> String {
    let mut s = String::new();
    for t in tags {
        s.push_str(&t.to_string());
    }
    s
}
