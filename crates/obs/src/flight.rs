//! Per-node flight recorder: a fixed-size ring of recent control-plane
//! events, dumped to the sink only when an anomaly trips.
//!
//! The recorder allocates its full capacity up front; recording in the
//! steady state is a bounded-index write with no allocation, so heavy
//! traffic stays cheap. When something anomalous happens (a slot
//! collision, a guard-budget breach, a flow re-route) the recorder's
//! owner calls [`dump`] and the last N events ship as one
//! [`FlightDump`] with full context. A component that owns no recorder
//! reports an anomaly through its return value, and whoever holds the
//! recorders decides whether to dump.

/// One recorded event: time, Lamport stamp, kind and two payload words
/// whose meaning depends on the kind (a peer id, a round number, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time in nanoseconds since simulation start.
    pub t_ns: u64,
    /// The owning node's Lamport clock when the event was recorded.
    pub lamport: u64,
    /// Event kind, e.g. `"tx.dsch"` or `"rx.beacon"`.
    pub kind: &'static str,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

/// A fixed-capacity ring buffer of [`FlightEvent`]s.
///
/// `record` never allocates once constructed; the oldest event is
/// overwritten when the ring is full.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    /// Index of the next overwrite once the ring is full.
    head: usize,
    /// Events overwritten since construction or the last `clear`.
    overwritten: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity > 0");
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            overwritten: 0,
        }
    }

    /// Records one event, overwriting the oldest when full. O(1), no
    /// allocation in the steady state.
    pub fn record(&mut self, event: FlightEvent) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.overwritten += 1;
            self.head = (self.head + 1) % cap;
        }
    }

    /// Live events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let cap = self.buf.len();
        if cap < self.buf.capacity() {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(cap);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (since the last `clear`).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events overwritten (lost to the ring) so far.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Forgets everything (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.overwritten = 0;
    }
}

/// One shipped flight-recorder dump: the anomaly that tripped it plus
/// the events leading up to it, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Raw id of the node whose recorder was dumped.
    pub node: u64,
    /// Why the dump tripped, e.g. `"collision"` or `"flow.reroute"`.
    pub reason: String,
    /// Virtual time of the dump in nanoseconds.
    pub t_ns: u64,
    /// The recorder contents, oldest first.
    pub events: Vec<FlightEvent>,
}

/// Ships `recorder`'s contents to the installed sink as a
/// [`FlightDump`] (no-op while disabled). The recorder is left intact.
pub fn dump(node: u64, reason: &str, t_ns: u64, recorder: &FlightRecorder) {
    if !crate::is_enabled() {
        return;
    }
    let d = FlightDump {
        node,
        reason: reason.to_string(),
        t_ns,
        events: recorder.events(),
    };
    crate::with_sink(|s| s.on_flight(&d));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> FlightEvent {
        FlightEvent {
            t_ns: t,
            lamport: t,
            kind: "test",
            a: t,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_events_oldest_first() {
        let mut rec = FlightRecorder::with_capacity(3);
        assert!(rec.is_empty());
        for t in 0..5 {
            rec.record(ev(t));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        assert_eq!(rec.overwritten(), 2);
        let times: Vec<u64> = rec.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![2, 3, 4]);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.overwritten(), 0);
        rec.record(ev(9));
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn ring_does_not_reallocate_after_construction() {
        let mut rec = FlightRecorder::with_capacity(4);
        let cap = rec.buf.capacity();
        for t in 0..100 {
            rec.record(ev(t));
        }
        assert_eq!(rec.buf.capacity(), cap);
    }

    #[test]
    fn dump_ships_reason_and_events_to_sink() {
        let _guard = crate::test_lock::hold();
        let sink = std::sync::Arc::new(crate::sink::MemorySink::default());
        crate::install(sink.clone());
        let mut rec = FlightRecorder::with_capacity(2);
        rec.record(ev(1));
        rec.record(ev(2));
        dump(7, "collision", 99, &rec);
        crate::finish();
        let dumps = sink.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].node, 7);
        assert_eq!(dumps[0].reason, "collision");
        assert_eq!(dumps[0].events.len(), 2);
        // Recorder unchanged by the dump.
        assert_eq!(rec.len(), 2);
    }
}
