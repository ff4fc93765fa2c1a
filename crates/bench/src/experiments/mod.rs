//! One module per reconstructed figure/table. See `DESIGN.md` §4.

pub(crate) mod common;

pub mod approx_admission;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod runtime_faults;
pub mod slo_audit;
pub mod t10;
