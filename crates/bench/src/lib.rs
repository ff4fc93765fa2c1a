//! Experiment implementations regenerating the paper's figures and
//! tables.
//!
//! Each experiment module exposes `run(ctx) -> Result<(), BenchError>`;
//! the `experiments` binary dispatches on experiment ids (`e1`..`e9`,
//! `t10`). Results are printed as aligned tables and written as CSV under
//! `results/`. See `DESIGN.md` §4 for the experiment ↔ figure mapping and
//! `EXPERIMENTS.md` for recorded outcomes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
mod table;

pub use table::Table;

use std::fmt;
use std::path::PathBuf;

/// Error type for experiment runs.
///
/// Wraps the underlying failure so callers can walk the chain via
/// [`std::error::Error::source`] instead of matching on strings.
#[derive(Debug)]
pub enum BenchError {
    /// Filesystem failure writing CSV or trace artifacts.
    Io(std::io::Error),
    /// Admission / QoS pipeline failure.
    Qos(wimesh::QosError),
    /// TDMA schedule construction failure.
    Schedule(wimesh::tdma::ScheduleError),
    /// Anything else (unknown ids, experiment-specific invariants).
    Other(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Qos(e) => write!(f, "qos error: {e}"),
            BenchError::Schedule(e) => write!(f, "schedule error: {e}"),
            BenchError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            BenchError::Qos(e) => Some(e),
            BenchError::Schedule(e) => Some(e),
            BenchError::Other(_) => None,
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<wimesh::QosError> for BenchError {
    fn from(e: wimesh::QosError) -> Self {
        BenchError::Qos(e)
    }
}

impl From<wimesh::tdma::ScheduleError> for BenchError {
    fn from(e: wimesh::tdma::ScheduleError) -> Self {
        BenchError::Schedule(e)
    }
}

impl From<wimesh::topology::TopologyError> for BenchError {
    fn from(e: wimesh::topology::TopologyError) -> Self {
        BenchError::Other(e.to_string())
    }
}

impl From<wimesh::emu::EmuError> for BenchError {
    fn from(e: wimesh::emu::EmuError) -> Self {
        BenchError::Other(e.to_string())
    }
}

/// Shared experiment context: output directory and global scale knob.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Directory CSV outputs are written to.
    pub out_dir: PathBuf,
    /// `true` shrinks sweeps for quick smoke runs (used by tests).
    pub quick: bool,
}

impl Ctx {
    /// Context writing to `results/` at the workspace root.
    pub fn new(out_dir: impl Into<PathBuf>, quick: bool) -> Self {
        Self {
            out_dir: out_dir.into(),
            quick,
        }
    }

    /// Writes a finished table to `<out_dir>/<id>.csv`.
    pub fn write_csv(&self, id: &str, table: &Table) -> Result<(), BenchError> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("{id}.csv"));
        std::fs::write(&path, table.to_csv())?;
        println!("  -> {}", path.display());
        Ok(())
    }
}

/// All experiment ids in run order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "e9",
    "t10",
    "e10",
    "e11",
    "e12",
    "e13",
    "e14",
    "churn",
    "runtime_faults",
    "slo_audit",
    "parallel_scaling",
    "service_churn",
    "approx_admission",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error for unknown ids or experiment failures.
pub fn run_experiment(id: &str, ctx: &Ctx) -> Result<(), BenchError> {
    match id {
        "e1" => experiments::e1::run(ctx),
        "e2" => experiments::e2::run(ctx),
        "e3" => experiments::e3::run(ctx),
        "e4" => experiments::e4::run(ctx),
        "e5" => experiments::e5::run(ctx),
        "e6" => experiments::e6::run(ctx),
        "e7" => experiments::e7::run(ctx),
        "e8" => experiments::e8::run(ctx),
        "e9" => experiments::e9::run(ctx),
        "e10" => experiments::e10::run(ctx),
        "e11" => experiments::e11::run(ctx),
        "e12" => experiments::e12::run(ctx),
        "e13" => experiments::e13::run(ctx),
        "e14" => experiments::e14::run(ctx),
        "t10" => experiments::t10::run(ctx),
        "churn" => experiments::churn::run(ctx),
        "runtime_faults" => experiments::runtime_faults::run(ctx),
        "slo_audit" => experiments::slo_audit::run(ctx),
        "parallel_scaling" => experiments::parallel_scaling::run(ctx),
        "service_churn" => experiments::service_churn::run(ctx),
        "approx_admission" => experiments::approx_admission::run(ctx),
        other => Err(BenchError::Other(format!("unknown experiment id: {other}"))),
    }
}
