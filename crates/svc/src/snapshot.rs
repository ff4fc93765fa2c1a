//! Epoch-versioned read-only snapshots: data-plane readers never block
//! the thread serving a batch, nor does it block them.
//!
//! The pattern is arc-swap style: the writer publishes a fresh
//! `Arc<T>` and bumps an atomic epoch; each reader keeps its own cached
//! `Arc` keyed by the epoch it last saw. The steady-state read — by far
//! the common case for a data plane polling an unchanged schedule — is
//! a single `Acquire` atomic load and no lock at all. Only when
//! the epoch moved does the reader take the (uncontended, swap-only)
//! mutex for one `Arc::clone`. The writer never waits on readers:
//! publishing is an allocation, a pointer swap and an atomic increment,
//! regardless of how many readers hold older snapshots alive.
//!
//! This stays inside `#![forbid(unsafe_code)]` — a true lock-free
//! pointer swap needs atomics over raw pointers — at the cost of that
//! one short mutex acquisition per *epoch change* per reader, which is
//! not on the steady-state path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wimesh::tdma::Schedule;
use wimesh::{AdmittedFlow, SessionStats};
use wimesh_obs::sync::lock;
use wimesh_sim::FlowId;
use wimesh_topology::LinkId;

/// A writer-published, epoch-versioned value.
///
/// One writer calls [`EpochCell::publish`]; any number of
/// [`SnapshotReader`]s observe the latest value wait-free in the steady
/// state: a read is one `Acquire` epoch load, and the internal mutex is
/// touched only when the epoch actually changed.
#[derive(Debug)]
pub struct EpochCell<T> {
    epoch: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: T) -> Self {
        EpochCell {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// Publishes a new value and bumps the epoch. Readers holding the
    /// previous `Arc` keep it alive; the writer does not wait for them.
    pub fn publish(&self, value: T) {
        let fresh = Arc::new(value);
        let replaced = std::mem::replace(&mut *lock(&self.slot), fresh);
        self.epoch.fetch_add(1, Ordering::Release);
        // The writer may hold the last reference: free the old value
        // after the swap mutex is released, not while readers wait on it.
        drop(replaced);
    }

    /// The current epoch (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones out the current value (takes the swap mutex briefly).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&lock(&self.slot))
    }
}

/// A per-reader handle over an [`EpochCell`] with an epoch-keyed cache:
/// reads are one `Acquire` atomic load while the value is unchanged.
#[derive(Debug)]
pub struct SnapshotReader<T> {
    cell: Arc<EpochCell<T>>,
    seen: u64,
    cached: Arc<T>,
}

impl<T> SnapshotReader<T> {
    /// A reader over `cell`, primed with its current value.
    pub fn new(cell: Arc<EpochCell<T>>) -> Self {
        let seen = cell.epoch();
        let cached = cell.load();
        SnapshotReader { cell, seen, cached }
    }

    /// The latest snapshot. Refreshes the cached `Arc` only when the
    /// writer's epoch moved since the last call.
    pub fn current(&mut self) -> &Arc<T> {
        let epoch = self.cell.epoch();
        if epoch != self.seen {
            self.cached = self.cell.load();
            self.seen = epoch;
        }
        &self.cached
    }

    /// The epoch of the snapshot [`Self::current`] would return.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }
}

impl<T> Clone for SnapshotReader<T> {
    fn clone(&self) -> Self {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
            seen: self.seen,
            cached: Arc::clone(&self.cached),
        }
    }
}

/// The read-only view of the gateway's current admission state, as
/// published to data-plane readers after every processed batch.
#[derive(Debug, Clone)]
pub struct ScheduleView {
    /// Monotone batch counter: how many batches the gateway had
    /// served when this view was published.
    pub batches: u64,
    /// Currently admitted flows with their reservations and bounds.
    pub admitted: Vec<AdmittedFlow>,
    /// The active conflict-free slot layout.
    pub schedule: Schedule,
    /// Size of the guaranteed region.
    pub guaranteed_slots: u32,
    /// Total minislots in the frame.
    pub frame_slots: u32,
    /// The solver session's work counters at publish time.
    pub stats: SessionStats,
}

impl ScheduleView {
    /// Whether `flow` is currently admitted.
    pub fn is_admitted(&self, flow: FlowId) -> bool {
        self.admitted.iter().any(|f| f.spec.id == flow)
    }

    /// The slot range granted to `link`, if any.
    pub fn slot_range(&self, link: LinkId) -> Option<wimesh::tdma::SlotRange> {
        self.schedule.slot_range(link)
    }

    /// Minislots left for best-effort traffic.
    pub fn best_effort_slots(&self) -> u32 {
        self.frame_slots.saturating_sub(self.guaranteed_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_cache_until_the_epoch_moves() {
        let cell = Arc::new(EpochCell::new(1u32));
        let mut reader = SnapshotReader::new(Arc::clone(&cell));
        assert_eq!(**reader.current(), 1);
        assert_eq!(reader.epoch(), 0);

        cell.publish(2);
        assert_eq!(reader.epoch(), 1);
        assert_eq!(**reader.current(), 2);

        // A second reader primed after the publish sees the new value
        // immediately; cloned readers keep their own cache cursor.
        let mut late = SnapshotReader::new(Arc::clone(&cell));
        assert_eq!(**late.current(), 2);
        let mut cloned = reader.clone();
        cell.publish(3);
        assert_eq!(**cloned.current(), 3);
        assert_eq!(**reader.current(), 3);
    }

    #[test]
    fn old_snapshots_stay_alive_for_their_holders() {
        let cell = Arc::new(EpochCell::new(String::from("v1")));
        let held = cell.load();
        cell.publish(String::from("v2"));
        assert_eq!(*held, "v1");
        assert_eq!(*cell.load(), "v2");
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn publish_frees_the_replaced_value_outside_the_swap_mutex() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Weak;

        static FREED_UNLOCKED: AtomicUsize = AtomicUsize::new(0);
        /// A value that checks, as it is freed, that its cell's swap
        /// mutex is free for readers.
        struct Probe(Weak<EpochCell<Probe>>);
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cell) = self.0.upgrade() {
                    assert!(
                        cell.slot.try_lock().is_ok(),
                        "the replaced value was freed under the swap mutex"
                    );
                    FREED_UNLOCKED.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let cell = Arc::new_cyclic(|own| EpochCell::new(Probe(Weak::clone(own))));
        // The cell holds the only reference to the initial probe, so the
        // publish frees it.
        cell.publish(Probe(Arc::downgrade(&cell)));
        assert_eq!(FREED_UNLOCKED.load(Ordering::Relaxed), 1);
    }
}
