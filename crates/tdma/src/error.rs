//! Error type for scheduling operations.

use std::error::Error;
use std::fmt;

use wimesh_topology::LinkId;

/// Errors from schedule construction and order optimization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The transmission order contains a directed cycle ("a before b
    /// before c before a"): no frame layout can satisfy it.
    OrderCycle {
        /// Links on the contradictory cycle, in cycle order.
        cycle: Vec<LinkId>,
    },
    /// The order is consistent but needs more minislots than the frame
    /// has.
    FrameTooShort {
        /// Minislots the order actually needs (its makespan).
        needed: u32,
        /// Minislots available in the frame.
        available: u32,
    },
    /// Slot ranges handed to [`crate::Schedule::from_sorted`] are not
    /// strictly ascending by link: the second link is listed after the
    /// first (the same link when it is listed twice).
    RangesNotAscending(LinkId, LinkId),
    /// A link with demand is not a vertex of the conflict graph.
    LinkNotInGraph(LinkId),
    /// A path link has no demand, so no slots were assigned to it.
    MissingDemand(LinkId),
    /// The order optimizer's MILP failed (size/limits); the message
    /// carries the solver's reason.
    SolverFailed(String),
    /// No order satisfying all path deadlines exists for this frame size.
    Infeasible,
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&ScheduleError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::OrderCycle { cycle } => {
                write!(
                    f,
                    "transmission order has a cycle through {} links",
                    cycle.len()
                )
            }
            ScheduleError::FrameTooShort { needed, available } => {
                write!(f, "order needs {needed} slots but frame has {available}")
            }
            ScheduleError::RangesNotAscending(first, then) => {
                write!(f, "slot range of link {then} listed after link {first}")
            }
            ScheduleError::LinkNotInGraph(l) => {
                write!(f, "link {l} has demand but is not in the conflict graph")
            }
            ScheduleError::MissingDemand(l) => {
                write!(f, "path link {l} has no demand")
            }
            ScheduleError::SolverFailed(msg) => write!(f, "order MILP failed: {msg}"),
            ScheduleError::Infeasible => {
                write!(f, "no schedule meets the deadlines in this frame")
            }
        }
    }
}

impl Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = ScheduleError::FrameTooShort {
            needed: 20,
            available: 16,
        };
        assert_eq!(e.to_string(), "order needs 20 slots but frame has 16");
        let e = ScheduleError::OrderCycle {
            cycle: vec![LinkId(0), LinkId(1)],
        };
        assert!(e.to_string().contains("2 links"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<ScheduleError>();
    }
}
