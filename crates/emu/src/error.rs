//! Error type for the emulation layer.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors from building an emulation model or MAC simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EmuError {
    /// The guard time leaves no room for a transmission in a minislot.
    GuardExceedsSlot {
        /// Required guard time.
        guard: Duration,
        /// Configured minislot duration.
        slot: Duration,
    },
    /// A minislot is long enough for the guard but too short for even an
    /// empty 802.11 exchange.
    SlotTooShort {
        /// Usable time after the guard.
        usable: Duration,
    },
    /// The configured data rate is not valid for the PHY standard.
    InvalidRate {
        /// The offending rate in Mbit/s.
        rate_mbps: f64,
    },
    /// A flow's path uses a link absent from the schedule.
    UnscheduledLink,
    /// An invalid simulation or fabric configuration (e.g. a loss
    /// probability outside `[0, 1]`).
    Config(String),
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&EmuError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::GuardExceedsSlot { guard, slot } => {
                write!(f, "guard time {guard:?} does not fit the {slot:?} minislot")
            }
            EmuError::SlotTooShort { usable } => {
                write!(f, "minislot leaves only {usable:?} for the exchange")
            }
            EmuError::InvalidRate { rate_mbps } => {
                write!(f, "{rate_mbps} Mbit/s is not a rate of the chosen PHY")
            }
            EmuError::UnscheduledLink => {
                write!(f, "a flow path uses a link with no scheduled slots")
            }
            EmuError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for EmuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = EmuError::GuardExceedsSlot {
            guard: Duration::from_micros(600),
            slot: Duration::from_micros(500),
        };
        assert!(e.to_string().contains("guard time"));
        assert!(EmuError::UnscheduledLink
            .to_string()
            .contains("no scheduled"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<EmuError>();
    }
}
