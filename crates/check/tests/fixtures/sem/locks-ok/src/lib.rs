//! Passes lock-order-consistency: every overlapping acquisition takes
//! `queue` before `stats`, and the one stats-first function drops its
//! guard (block scope) before touching `queue`.
#![forbid(unsafe_code)]
use std::sync::Mutex;

pub struct Shared {
    pub queue: Mutex<Vec<u32>>,
    pub stats: Mutex<u32>,
}

/// Takes `queue` then `stats` — the canonical order.
pub fn submit(s: &Shared, x: u32) {
    let mut q = s.queue.lock().expect("queue");
    let mut n = s.stats.lock().expect("stats");
    q.push(x);
    *n += 1;
}

/// Also queue-first.
pub fn drain(s: &Shared) -> u32 {
    let q = s.queue.lock().expect("queue");
    let mut n = s.stats.lock().expect("stats");
    *n += q.len() as u32;
    *n
}

/// Reads `stats` inside its own block, releasing the guard before
/// `queue` is taken: the acquisitions never overlap, so no edge.
pub fn report(s: &Shared) -> u32 {
    let count = {
        let n = s.stats.lock().expect("stats");
        *n
    };
    let q = s.queue.lock().expect("queue");
    count + q.len() as u32
}
