//! A self-contained mixed-integer linear programming solver.
//!
//! The delay-aware TDMA scheduling theory this workspace reproduces decides
//! schedule feasibility and optimises transmission orders with integer
//! linear programs. The original authors used a commercial solver; mature
//! ILP bindings are not available in this build environment, so this crate
//! implements the required solver from scratch:
//!
//! * a **modelling layer** ([`Model`], [`LinExpr`], [`VarId`]) to state
//!   problems symbolically,
//! * a dense full-tableau **simplex** for linear relaxations — two-phase
//!   primal for a program seen for the first time (an LP, a branch & bound
//!   root), dual for re-optimising a solved tableau after a bound moved —
//!   and
//! * **best-first branch & bound** for integer and binary variables. The
//!   model is lowered to standard form once per solve; every node keeps
//!   its final tableau, and a child is a copy of its parent's plus two
//!   right-hand-side updates and a few dual pivots (typically two or
//!   three). The admission oracle's models carry no objective, so every
//!   reduced cost is 0 and the dual method is totally degenerate: Bland's
//!   smallest-index rule after a stall is what bounds its pivot count.
//!
//! The solver is exact up to floating-point tolerances and is sized for the
//! problems this workspace produces (hundreds of variables/constraints,
//! tens of binaries). It is not a general-purpose replacement for CPLEX —
//! experiment E9 in the workspace documentation measures what it costs on
//! the sizes met here (up to 41 order binaries), not where it stops
//! scaling.
//!
//! # Example
//!
//! ```
//! use wimesh_milp::{Model, Sense};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y >= 0 integer
//! let mut m = Model::new();
//! let x = m.add_integer_var(0.0, f64::INFINITY, "x");
//! let y = m.add_integer_var(0.0, f64::INFINITY, "y");
//! m.add_le(x + y, 4.0);
//! m.add_le(1.0 * x, 2.0);
//! m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
//! let sol = m.solve()?;
//! assert_eq!(sol.value(x).round() as i64, 2);
//! assert_eq!(sol.value(y).round() as i64, 2);
//! assert!((sol.objective() - 10.0).abs() < 1e-6);
//! # Ok::<(), wimesh_milp::SolveError>(())
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod branch;
mod expr;
mod model;
mod simplex;

pub use branch::SolverConfig;
pub use expr::{LinExpr, VarId};
pub use model::{CmpOp, Model, Sense, Solution, SolveError, VarKind};
