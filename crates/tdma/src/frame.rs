//! TDMA frame configuration and slot ranges.

use std::fmt;
use std::time::Duration;

/// The shape of a TDMA data subframe: how many minislots it has and how
/// long each one lasts.
///
/// The 802.16 mesh data subframe is divided into up to 256 minislots; a
/// typical profile is a 10 ms frame with 256 minislots of ~39 µs. The
/// WiFi emulation uses coarser minislots (long enough for one 802.11
/// frame exchange plus guard time), which is why the duration is
/// configurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameConfig {
    slots: u32,
    slot_duration_us: u64,
}

impl FrameConfig {
    /// Creates a frame with `slots` minislots of `slot_duration_us`
    /// microseconds each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(slots: u32, slot_duration_us: u64) -> Self {
        assert!(slots > 0, "frame needs at least one slot");
        assert!(slot_duration_us > 0, "slots need positive duration");
        Self {
            slots,
            slot_duration_us,
        }
    }

    /// Number of minislots per frame.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Duration of one minislot in microseconds.
    pub fn slot_duration_us(&self) -> u64 {
        self.slot_duration_us
    }

    /// Duration of the whole frame in microseconds.
    pub fn frame_duration_us(&self) -> u64 {
        self.slots as u64 * self.slot_duration_us
    }

    /// Duration of the whole frame.
    pub fn frame_duration(&self) -> Duration {
        Duration::from_micros(self.frame_duration_us())
    }

    /// Converts a number of slots to wall-clock time.
    pub fn slots_to_duration(&self, slots: u64) -> Duration {
        Duration::from_micros(slots * self.slot_duration_us)
    }
}

impl fmt::Display for FrameConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} slots x {} us ({} us frame)",
            self.slots,
            self.slot_duration_us,
            self.frame_duration_us()
        )
    }
}

/// A contiguous run of minislots within a frame: `[start, start + len)`.
///
/// Ranges never wrap around the frame boundary; the schedule constructor
/// guarantees `start + len <= frame.slots()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRange {
    /// First minislot index.
    pub start: u32,
    /// Number of minislots.
    pub len: u32,
}

impl SlotRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(start: u32, len: u32) -> Self {
        assert!(len > 0, "slot ranges must be non-empty");
        Self { start, len }
    }

    /// One past the last slot, in `u64`: the fields are public, so a
    /// range may end past `u32::MAX`.
    pub fn end(&self) -> u64 {
        u64::from(self.start) + u64::from(self.len)
    }

    /// Whether two ranges share any slot.
    pub fn overlaps(&self, other: &SlotRange) -> bool {
        u64::from(self.start) < other.end() && u64::from(other.start) < self.end()
    }

    /// Whether the range fits a frame of `slots` minislots; a range whose
    /// end passes `u32::MAX` never fits.
    pub fn fits(&self, slots: u32) -> bool {
        self.end() <= u64::from(slots)
    }
}

impl fmt::Display for SlotRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_durations() {
        let f = FrameConfig::new(256, 39);
        assert_eq!(f.slots(), 256);
        assert_eq!(f.frame_duration_us(), 9984);
        assert_eq!(f.slots_to_duration(2), Duration::from_micros(78));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = FrameConfig::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_rejected() {
        let _ = FrameConfig::new(10, 0);
    }

    #[test]
    fn range_overlap() {
        let a = SlotRange::new(0, 4);
        let b = SlotRange::new(4, 2);
        let c = SlotRange::new(3, 2);
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn range_fits() {
        let r = SlotRange::new(6, 4);
        assert!(r.fits(10));
        assert!(!r.fits(9));
        assert_eq!(r.end(), 10);
    }

    #[test]
    fn range_ending_past_u32_max_does_not_wrap() {
        let last = SlotRange::new(u32::MAX, 1);
        let before = SlotRange::new(u32::MAX - 1, 4);
        assert_eq!(last.end(), 1 << 32);
        assert_eq!(before.end(), (1 << 32) + 2);
        assert!(last.overlaps(&before));
        assert!(before.overlaps(&last));
        assert!(!last.fits(u32::MAX));
        assert_eq!(last.to_string(), "[4294967295, 4294967296)");
        assert_eq!(before.to_string(), "[4294967294, 4294967298)");
    }

    #[test]
    fn display_formats() {
        assert_eq!(SlotRange::new(2, 3).to_string(), "[2, 5)");
        assert_eq!(
            FrameConfig::new(10, 100).to_string(),
            "10 slots x 100 us (1000 us frame)"
        );
    }
}
