//! Throughput and CPU cost as medians over one-second slices of a phase.
//!
//! The host is small and shared: another tenant's burst stalls a run for
//! a fraction of a second. A mean over the whole phase carries every
//! such stall; the median slice does not.

use std::time::{Duration, Instant};

use crate::host;
use crate::stats::median;

const SLICE: Duration = Duration::from_secs(1);

/// What the slices of a phase come to.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Requests completed per second: the median slice.
    pub ops_per_s: f64,
    /// CPU microseconds of the whole process (generator and worker) per
    /// request: the median slice.
    pub cpu_us_per_op: f64,
    /// Slices behind the two medians.
    pub slices: usize,
}

/// The slices of one phase.
pub struct Slices {
    started: Instant,
    cpu_started: u64,
    ops: u64,
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
}

/// CPU time of the process so far; 0 where the kernel keeps no
/// `schedstat` (`cpu_us_per_op` then reads 0, which the result's
/// never-zero rule makes loud).
fn cpu_ns() -> u64 {
    host::cpu_ns().unwrap_or(0)
}

impl Slices {
    pub fn start() -> Self {
        Slices {
            started: Instant::now(),
            cpu_started: cpu_ns(),
            ops: 0,
            ops_per_s: Vec::new(),
            cpu_us_per_op: Vec::new(),
        }
    }

    /// Counts one completed request.
    pub fn op(&mut self) {
        self.ops += 1;
    }

    /// Closes the running slice if it is a second old. Call where a
    /// slice may end (between episodes, for workloads that have them).
    pub fn tick(&mut self) {
        if self.started.elapsed() >= SLICE {
            self.close();
        }
    }

    fn close(&mut self) {
        let wall = self.started.elapsed();
        let cpu = cpu_ns();
        if self.ops > 0 {
            self.ops_per_s.push(self.ops as f64 / wall.as_secs_f64());
            self.cpu_us_per_op
                .push((cpu - self.cpu_started) as f64 / 1e3 / self.ops as f64);
        }
        self.started = Instant::now();
        self.cpu_started = cpu;
        self.ops = 0;
    }

    /// Medians over the complete slices, or the figures of the one
    /// partial slice of a phase shorter than a second. `None` for a phase
    /// without requests.
    pub fn finish(mut self) -> Option<Rates> {
        if self.ops_per_s.is_empty() {
            self.close();
        }
        (!self.ops_per_s.is_empty()).then(|| Rates {
            ops_per_s: median(&self.ops_per_s),
            cpu_us_per_op: median(&self.cpu_us_per_op),
            slices: self.ops_per_s.len(),
        })
    }
}
