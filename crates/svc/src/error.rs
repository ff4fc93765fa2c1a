//! Service-level error type.

use std::fmt;
use std::io;

use wimesh::QosError;

/// Errors surfaced by the gateway service and the journaled wrapper.
#[derive(Debug)]
#[non_exhaustive]
pub enum SvcError {
    /// The bounded request queue is full; the request was rejected at
    /// submission instead of queueing without bound. Back off and retry.
    Overloaded {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request sat in the queue past its deadline and was dropped
    /// before solving.
    Expired,
    /// The gateway is shutting down (or a batch panicked); no further
    /// requests are accepted.
    ShuttingDown,
    /// The underlying admission engine failed.
    Qos(QosError),
    /// Appending to the write-ahead journal failed; the mutation was
    /// *not* applied (journal-before-apply).
    Journal(io::Error),
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&SvcError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::Overloaded { capacity } => {
                write!(
                    f,
                    "request queue full ({capacity} pending); try again later"
                )
            }
            SvcError::Expired => write!(f, "request expired in the queue before solving"),
            SvcError::ShuttingDown => write!(f, "the admission gateway is shutting down"),
            SvcError::Qos(e) => write!(f, "admission error: {e}"),
            SvcError::Journal(e) => write!(f, "journal append failed (mutation not applied): {e}"),
        }
    }
}

impl std::error::Error for SvcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvcError::Qos(e) => Some(e),
            SvcError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QosError> for SvcError {
    fn from(e: QosError) -> Self {
        SvcError::Qos(e)
    }
}

impl From<io::Error> for SvcError {
    fn from(e: io::Error) -> Self {
        SvcError::Journal(e)
    }
}
