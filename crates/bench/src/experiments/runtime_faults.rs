//! Runtime faults — the distributed per-node runtime under loss,
//! crash and restart.
//!
//! Every other experiment measures the system from the omniscient
//! solver's seat. This one drops to ground level: `wimesh-node` runs
//! one actor per router over a fault-injecting message fabric, and the
//! whole control plane — beacon-flood clock sync, MSH-DSCH slot
//! negotiation, silence-based failure detection, QoS-session schedule
//! repair — happens over lossy radio messages. Per loss rate the
//! scenario plays four phases:
//!
//! 1. **cold start** — nodes beacon-sync and reserve slots for the
//!    admitted flows; measures time-to-sync and time-to-converge;
//! 2. **crash** — a relay an admitted flow transits dies; measures the
//!    gateway's detection latency and the schedule-repair latency
//!    (release + detour re-admission + over-the-air re-reservation);
//! 3. **steady state** — the repaired schedule must show **zero**
//!    collisions while the surviving nodes' mutual clock error stays
//!    within the guard time (the paper's central invariant);
//! 4. **restart** — the relay returns, resyncs and is folded back in.
//!
//! Writes `results/runtime_faults.csv` and the acceptance artifact
//! `results/BENCH_runtime_faults.json`. Counters flow through
//! `wimesh-obs` under the `node.*` namespace.

use std::sync::Arc;
use std::time::Duration;

use wimesh_emu::{EmulationModel, EmulationParams};
use wimesh_node::SegmentReport;
use wimesh_obs::json::Object;
use wimesh_obs::sink::NoopSink;

use super::common::{fault_scenario, FaultScenario};
use crate::{BenchError, Ctx, Table};

/// Everything one loss-rate scenario produces.
struct ScenarioResult {
    loss: f64,
    cold: SegmentReport,
    crash: SegmentReport,
    steady: SegmentReport,
    restartd: SegmentReport,
    repaired_flows: u64,
}

impl ScenarioResult {
    /// The four phases, in order.
    fn phases(&self) -> [&SegmentReport; 4] {
        [&self.cold, &self.crash, &self.steady, &self.restartd]
    }

    /// A count summed over the four phases.
    fn total(&self, count: fn(&SegmentReport) -> u64) -> u64 {
        self.phases().into_iter().map(count).sum()
    }

    /// The largest mutual clock error of any phase.
    fn max_mutual_error(&self) -> Duration {
        let errors = self.phases().map(|p| p.max_mutual_error);
        errors.into_iter().max().unwrap_or_default()
    }
}

fn ms(d: Option<Duration>) -> f64 {
    d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
}

/// Plays the four-phase fault scenario at one loss rate.
fn run_scenario(
    loss: f64,
    seed: u64,
    quick: bool,
    model: &EmulationModel,
) -> Result<ScenarioResult, BenchError> {
    // Phase 1: cold start.
    let FaultScenario {
        mut rt,
        cold,
        relay,
        react,
        steady,
        ..
    } = fault_scenario(quick, loss, seed, model)?;

    // Phase 2: crash a relay an admitted flow actually transits.
    rt.crash(relay);
    let crash = rt.run_for(react);

    // Phase 3: steady state after repair.
    let steady = rt.run_for(steady);

    // Phase 4: the relay returns.
    rt.restart(relay);
    let restartd = rt.run_for(react);

    let repaired_flows = crash.reservations_repaired + restartd.reservations_repaired;
    Ok(ScenarioResult {
        loss,
        cold,
        crash,
        steady,
        restartd,
        repaired_flows,
    })
}

/// Serialises the acceptance artifact
/// (`results/BENCH_runtime_faults.json`).
fn artifact_json(results: &[ScenarioResult], guard: Duration, quick: bool) -> String {
    let mut out = String::with_capacity(2048);
    Object::new(&mut out)
        .str("experiment", "runtime_faults")
        .bool("ok", true)
        .bool("quick", quick)
        .f64("guard_time_us", guard.as_secs_f64() * 1e6)
        .arr("scenarios", |list| {
            for r in results {
                list.obj("", |o| scenario_json(o, r, guard));
            }
        });
    out
}

/// One loss rate's entry in the artifact.
fn scenario_json(o: &mut Object<'_>, r: &ScenarioResult, guard: Duration) {
    let max_err = r.max_mutual_error();
    o.f64("loss", r.loss)
        .f64("time_to_sync_ms", ms(r.cold.time_to_sync))
        .f64("time_to_converge_ms", ms(r.cold.time_to_converge))
        .f64("detection_latency_ms", ms(r.crash.detection_latency))
        .f64("repair_converge_ms", ms(r.crash.time_to_converge))
        .f64("resync_after_restart_ms", ms(r.restartd.time_to_sync))
        .int("reservations_repaired", r.repaired_flows)
        .int("beacons_sent", r.total(|p| p.beacons_sent))
        .int("beacons_lost", r.total(|p| p.beacons_lost))
        .int("dsch_sent", r.total(|p| p.dsch_sent))
        .int("dsch_lost", r.total(|p| p.dsch_lost))
        .int("rerequests", r.total(|p| p.rerequests))
        .int("collisions_cold", r.cold.collisions)
        .int("collisions_steady", r.steady.collisions)
        .int("collisions_total", r.total(|p| p.collisions))
        .f64("max_mutual_error_us", max_err.as_secs_f64() * 1e6)
        .bool("within_guard", max_err <= guard)
        .bool("reconverged", r.steady.converged && r.restartd.converged);
}

/// Runs the fault-injection sweep.
///
/// # Errors
///
/// Propagates admission/runtime failures, a convergence failure, any
/// collision while mutual clock error stayed within the guard time, and
/// artifact write failures.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    if !wimesh_obs::is_enabled() {
        wimesh_obs::install(Arc::new(NoopSink));
    }

    let model = EmulationModel::new(EmulationParams::default())?;
    let guard = model.guard_time();
    let losses: &[f64] = if ctx.quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.05, 0.10]
    };

    let mut results = Vec::with_capacity(losses.len());
    for (i, &loss) in losses.iter().enumerate() {
        results.push(run_scenario(loss, 100 + i as u64, ctx.quick, &model)?);
    }

    let mut table = Table::new(
        "Runtime faults: detection, repair and collision-freedom vs loss",
        &[
            "loss",
            "sync_ms",
            "converge_ms",
            "detect_ms",
            "repair_ms",
            "repaired",
            "collisions",
            "max_err_us",
            "guard_us",
        ],
    );
    for r in &results {
        table.row_strings(vec![
            format!("{:.0}%", r.loss * 100.0),
            format!("{:.1}", ms(r.cold.time_to_sync)),
            format!("{:.1}", ms(r.cold.time_to_converge)),
            format!("{:.1}", ms(r.crash.detection_latency)),
            format!("{:.1}", ms(r.crash.time_to_converge)),
            r.repaired_flows.to_string(),
            r.total(|p| p.collisions).to_string(),
            format!("{:.2}", r.max_mutual_error().as_secs_f64() * 1e6),
            format!("{:.2}", guard.as_secs_f64() * 1e6),
        ]);
    }
    table.print();
    ctx.write_csv("runtime_faults", &table)?;

    // The paper's invariant: while every pair of transmitters is
    // mutually synchronised within the guard time, the TDMA schedule
    // must be collision-free — fault injection or not.
    for r in &results {
        let (max_err, collisions) = (r.max_mutual_error(), r.total(|p| p.collisions));
        if max_err <= guard && collisions != 0 {
            return Err(BenchError::Other(format!(
                "loss {}: {collisions} collisions despite mutual error {:?} <= guard {:?}",
                r.loss, max_err, guard
            )));
        }
        if r.crash.detection_latency.is_none() {
            return Err(BenchError::Other(format!(
                "loss {}: the gateway never detected the crash",
                r.loss
            )));
        }
        if r.repaired_flows == 0 {
            return Err(BenchError::Other(format!(
                "loss {}: no reservations were repaired after the crash",
                r.loss
            )));
        }
    }

    ctx.write_artifact("runtime_faults", &artifact_json(&results, guard, ctx.quick))
}
