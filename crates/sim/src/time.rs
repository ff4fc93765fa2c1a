//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
///
/// Nanosecond resolution comfortably represents both 802.11 slot times
/// (9 µs) and multi-hour simulations (`u64` nanoseconds span ~584 years).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From fractional seconds (rounded to nanoseconds, saturating).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: time elapsed since `earlier`, zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        let ns: u64 = d.as_nanos().try_into().ok()?;
        self.0.checked_add(ns).map(SimTime)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative virtual duration");
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2000);
        assert_eq!(SimTime::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        let d = t - SimTime::from_micros(10);
        assert_eq!(d, Duration::from_micros(5));
        let mut t2 = SimTime::ZERO;
        t2 += Duration::from_nanos(7);
        assert_eq!(t2.as_nanos(), 7);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(b.saturating_since(a), Duration::from_micros(4));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX.checked_add(Duration::from_nanos(1)).is_none());
        assert!(SimTime::ZERO.checked_add(Duration::from_secs(1)).is_some());
    }
}
