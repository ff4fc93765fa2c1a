//! Experiment implementations regenerating the paper's figures and
//! tables.
//!
//! Each experiment module exposes `run(ctx) -> Result<(), BenchError>`;
//! the `experiments` binary dispatches on experiment ids (`e1`..`e9`,
//! `t10`). Results are printed as aligned tables and written as CSV under
//! `results/`. See `DESIGN.md` §4 for the experiment ↔ figure mapping and
//! `EXPERIMENTS.md` for recorded outcomes.

#![deny(missing_docs)]
#![expect(
    clippy::print_stdout,
    reason = "the printed tables are the experiments' console report, beside the CSVs"
)]

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
    /// Anything else (experiment-specific invariants).
    Other(String),
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&BenchError) -> &dyn std::error::Error = |e| e;

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
    /// Context writing to `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>, quick: bool) -> Self {
        Self {
            out_dir: out_dir.into(),
            quick,
        }
    }

    /// Writes a finished table to `<out_dir>/<id>.csv`.
    pub fn write_csv(&self, id: &str, table: &Table) -> Result<(), BenchError> {
        self.write(&format!("{id}.csv"), &table.to_csv())
    }

    /// Writes an experiment's own acceptance artifact, one JSON object, to
    /// `<out_dir>/BENCH_<id>.json`.
    pub fn write_artifact(&self, id: &str, json: &str) -> Result<(), BenchError> {
        self.write(&format!("BENCH_{id}.json"), &format!("{json}\n"))
    }

    fn write(&self, file: &str, contents: &str) -> Result<(), BenchError> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(file);
        std::fs::write(&path, contents)?;
        println!("  -> {}", path.display());
        Ok(())
    }
}

/// One experiment: its id, the span a run is recorded under (spans need
/// `&'static str` names) and its entry point.
pub type Experiment = (
    &'static str,
    &'static str,
    fn(&Ctx) -> Result<(), BenchError>,
);

/// Every experiment, in run order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1", "bench.e1", experiments::e1::run),
    ("e2", "bench.e2", experiments::e2::run),
    ("e3", "bench.e3", experiments::e3::run),
    ("e4", "bench.e4", experiments::e4::run),
    ("e5", "bench.e5", experiments::e5::run),
    ("e6", "bench.e6", experiments::e6::run),
    ("e7", "bench.e7", experiments::e7::run),
    ("e8", "bench.e8", experiments::e8::run),
    ("e9", "bench.e9", experiments::e9::run),
    ("t10", "bench.t10", experiments::t10::run),
    ("e10", "bench.e10", experiments::e10::run),
    ("e11", "bench.e11", experiments::e11::run),
    ("e12", "bench.e12", experiments::e12::run),
    ("e13", "bench.e13", experiments::e13::run),
    ("e14", "bench.e14", experiments::e14::run),
    (
        "runtime_faults",
        "bench.runtime_faults",
        experiments::runtime_faults::run,
    ),
    ("slo_audit", "bench.slo_audit", experiments::slo_audit::run),
    (
        "approx_admission",
        "bench.approx_admission",
        experiments::approx_admission::run,
    ),
];

/// The row of [`EXPERIMENTS`] with this id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|(known, ..)| *known == id)
}
