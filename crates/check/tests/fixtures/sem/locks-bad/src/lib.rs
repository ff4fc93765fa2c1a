//! Violates lock-order-consistency: two functions acquire the same two
//! mutexes in opposite orders (the "reverse the acquisition order"
//! mutation), and one function re-locks a mutex it already holds.
#![forbid(unsafe_code)]
use std::sync::Mutex;

pub struct Shared {
    pub queue: Mutex<Vec<u32>>,
    pub stats: Mutex<u32>,
}

/// Takes `queue` then `stats`.
pub fn submit(s: &Shared, x: u32) {
    let mut q = s.queue.lock().expect("queue");
    let mut n = s.stats.lock().expect("stats");
    q.push(x);
    *n += 1;
}

/// Takes `stats` then `queue` — the reverse order; two threads
/// interleaving `submit` and `drain` deadlock.
pub fn drain(s: &Shared) -> u32 {
    let mut n = s.stats.lock().expect("stats");
    let q = s.queue.lock().expect("queue");
    *n += q.len() as u32;
    *n
}

/// Re-locks a mutex already held: guaranteed self-deadlock.
pub fn reentrant(s: &Shared) -> u32 {
    let a = s.stats.lock().expect("stats");
    let b = s.stats.lock().expect("stats again");
    *a + *b
}
