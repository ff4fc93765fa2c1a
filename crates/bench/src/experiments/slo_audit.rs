//! SLO audit — the promises made at admission time, checked against
//! observed behaviour, end to end.
//!
//! Every QoS claim in this workspace starts life as an admission-time
//! *promise*: a flow is admitted with a slot reservation and (for
//! guaranteed flows) a worst-case delay bound. This experiment closes
//! the loop with `wimesh-obs`' SLO auditor and causal tracer:
//!
//! 1. **Fault scenario** — the distributed `wimesh-node` runtime runs a
//!    grid under 5% message loss, then the fabric links of one relay an
//!    admitted flow transits are cut (its radio goes silent — the
//!    node-granular fault the silence detector is built for). Every
//!    fabric send carries a [`wimesh_obs::trace::
//!    TraceCtx`], so the captured stream must reconstruct (a) at least
//!    one complete multi-node MSH-DSCH three-way handshake
//!    (request → grant → confirm) and (b) the repair sequence rooted at
//!    the `node.down` detection flood — and the gateway's flight
//!    recorder must have dumped at least once (the `flow.reroute`
//!    anomaly).
//! 2. **Delay audit** — the emulated TDMA MAC carries the admitted VoIP
//!    flows on a clean channel; each flow's delivery totals feed an SLO
//!    ledger holding its admission promise, and **zero** admitted flow
//!    may end the run [`SloStatus::Violated`] (the paper's guarantee:
//!    the admission bound holds on the emulated schedule).
//! 3. **Mutation probe** — a synthetic flow is promised a bound it then
//!    grossly misses; the auditor MUST flag it `violated`. A checker
//!    that cannot fail is not a checker.
//!
//! Each phase owns its ledger (the runtime's for the fault scenario, a
//! fresh [`FlowSloTracker`] for the other two), so the phases' flow ids
//! cannot meet. Writes `results/slo_audit.csv` and the acceptance
//! artifact `results/BENCH_slo_audit.json`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::emu::tdma::{TdmaFlow, TdmaSimulation};
use wimesh::sim::traffic::{TrafficSource, VoipCodec, VoipSource};
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_emu::{EmulationModel, EmulationParams};
use wimesh_node::{FabricConfig, LossModel, MeshRuntime, RepairController, RuntimeConfig};
use wimesh_obs::json::Object;
use wimesh_obs::sink::MemorySink;
use wimesh_obs::slo::{FlowSloTracker, SloStatus, SloVerdict};
use wimesh_obs::trace::TraceForest;
use wimesh_topology::{generators, NodeId};

use crate::{BenchError, Ctx, Table};

/// Flow id reserved for the mutation probe; far outside any real id.
const MUTANT_FLOW: u64 = 999;

/// What the fault scenario's captured trace stream must contain.
struct FaultAudit {
    trace_events: usize,
    traces: usize,
    handshake_depth: usize,
    handshake_nodes: usize,
    repair_hops: usize,
    flight_dumps: usize,
    flight_reasons: Vec<String>,
    reservations_repaired: u64,
    frame_verdicts: Vec<SloVerdict>,
}

/// Plays the seeded fault scenario (5% loss + one link cut) on the
/// distributed runtime and audits the captured causal traces.
fn run_fault_scenario(
    quick: bool,
    model: &EmulationModel,
    sink: &MemorySink,
) -> Result<FaultAudit, BenchError> {
    let side = if quick { 3 } else { 4 };
    let topo = generators::grid(side, side);

    let mesh = MeshQos::builder(topo.clone()).build()?;
    let mut controller = RepairController::new(mesh.session(OrderPolicy::HopOrder));
    let n = topo.node_count() as u32;
    let sources = [n - 1, n - side as u32];
    for (i, src) in sources.into_iter().enumerate() {
        let spec = FlowSpec::voip(i as u32, NodeId(src), NodeId(0), VoipCodec::G729);
        if !controller.session_mut().admit(&spec)?.is_admitted() {
            return Err(BenchError::Other(format!(
                "seed flow {src}->0 was rejected on the {side}x{side} grid"
            )));
        }
    }

    let config = RuntimeConfig {
        fabric: FabricConfig {
            default_loss: LossModel::Bernoulli { p: 0.05 },
            ..FabricConfig::default()
        },
        seed: 777,
        ..RuntimeConfig::default()
    };
    let mut rt = MeshRuntime::new(topo.clone(), *model, config)
        .map_err(|e| BenchError::Other(e.to_string()))?;
    rt.attach_controller(controller);

    let (warmup, react, steady_dur) = if quick {
        (
            Duration::from_secs(5),
            Duration::from_secs(10),
            Duration::from_secs(3),
        )
    } else {
        (
            Duration::from_secs(10),
            Duration::from_secs(15),
            Duration::from_secs(5),
        )
    };

    let cold = rt.run_for(warmup);
    if !cold.converged {
        return Err(BenchError::Other("cold start did not converge".into()));
    }

    // Sever every fabric link touching a relay an admitted flow
    // transits (its radio goes silent; the node itself keeps running).
    // The failure detector is node-granular, so the fault must be too:
    // cutting a single directed link leaves the relay audible to its
    // other neighbours, and their resurrect-floods re-litigate the
    // detector's verdict every beacon round without converging (see
    // DESIGN.md §3.11). The silent relay's neighbours detect it,
    // flood NodeDown and the gateway re-routes the flow.
    let relay = rt
        .controller()
        .expect("attached")
        .session()
        .snapshot()
        .admitted()[0]
        .path
        .nodes()[1];
    rt.fabric_mut().partition(&topo, &[relay]);
    let react_report = rt.run_for(react);
    let steady = rt.run_for(steady_dur);

    // Audit the captured stream: the handshake and the repair must
    // each reconstruct as one causal tree spanning several nodes.
    let forest = TraceForest::from_events(&sink.trace_events());
    let handshake = forest
        .find_chain(&["req", "grant", "cnf"])
        .ok_or_else(|| BenchError::Other("no complete DSCH handshake trace was captured".into()))?;
    let handshake_nodes = handshake.iter().map(|r| r.node).collect::<BTreeSet<_>>();
    if handshake_nodes.len() < 2 {
        return Err(BenchError::Other(
            "the DSCH handshake trace does not span multiple nodes".into(),
        ));
    }
    let repair = forest
        .find_chain(&["node.down", "node.down"])
        .ok_or_else(|| BenchError::Other("no multi-hop node.down repair trace captured".into()))?;

    let dumps = sink.flight_dumps();
    if !dumps.iter().any(|d| !d.events.is_empty()) {
        return Err(BenchError::Other(
            "no non-empty flight-recorder dump was captured".into(),
        ));
    }
    let mut flight_reasons: Vec<String> = dumps.iter().map(|d| d.reason.clone()).collect();
    flight_reasons.sort();
    flight_reasons.dedup();

    Ok(FaultAudit {
        trace_events: sink.trace_events().len(),
        traces: forest.len(),
        handshake_depth: handshake.len(),
        handshake_nodes: handshake_nodes.len(),
        repair_hops: repair.iter().map(|r| r.node).collect::<BTreeSet<_>>().len(),
        flight_dumps: dumps.len(),
        flight_reasons,
        reservations_repaired: react_report.reservations_repaired + steady.reservations_repaired,
        frame_verdicts: rt.slo().verdicts(),
    })
}

/// Carries the admitted flows on the emulated TDMA MAC (clean channel)
/// and returns the auditor's final verdicts.
fn run_emu_audit(quick: bool) -> Result<Vec<SloVerdict>, BenchError> {
    let topo = generators::chain(5);
    let mesh = MeshQos::builder(topo).build()?;
    let mut session = mesh.session(OrderPolicy::TreeOrder { gateway: NodeId(0) });
    for i in 0..2u32 {
        let spec = FlowSpec::voip(i, NodeId(4 - i), NodeId(0), VoipCodec::G711);
        if !session.admit(&spec)?.is_admitted() {
            return Err(BenchError::Other(format!(
                "audit flow {i} was rejected on the 4-hop chain"
            )));
        }
    }
    let outcome = session.snapshot();
    let flows: Vec<TdmaFlow> = outcome
        .admitted
        .iter()
        .map(|a| TdmaFlow {
            id: a.spec.id,
            path: a.path.clone(),
            source: Box::new(VoipSource::new(VoipCodec::G711)) as Box<dyn TrafficSource>,
        })
        .collect();
    let sim_time = if quick {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(30)
    };
    let mut sim = TdmaSimulation::new(*mesh.model(), &outcome.schedule, flows, 200)?;
    sim.run(sim_time, &mut StdRng::seed_from_u64(777));

    let mut ledger = FlowSloTracker::new();
    for (i, a) in outcome.admitted.iter().enumerate() {
        let id = u64::from(a.spec.id.0);
        let stats = sim.flow_stats(i);
        ledger.promise(id, a.slots_per_link, a.spec.deadline);
        ledger.observe_totals(id, stats.delivered(), stats.dropped(), stats.max_delay());
    }
    let verdicts = ledger.verdicts();
    for a in &outcome.admitted {
        let v = verdicts
            .iter()
            .find(|v| v.flow == u64::from(a.spec.id.0))
            .ok_or_else(|| {
                BenchError::Other(format!("admitted flow {} has no SLO verdict", a.spec.id.0))
            })?;
        if v.status == SloStatus::Violated {
            return Err(BenchError::Other(format!(
                "admitted flow {} violated its delay bound on a clean channel: \
                 max {}ns against bound {:?}ns",
                v.flow, v.max_delay_ns, v.bound_ns
            )));
        }
    }
    Ok(verdicts)
}

fn verdict_json(o: &mut Object<'_>, v: &SloVerdict) {
    o.int("flow", v.flow)
        .str("status", &v.status.to_string())
        .int("promised_slots", v.promised_slots)
        // `null` for a flow promised no bound.
        .f64("bound_ms", v.bound_ns.map_or(f64::NAN, |b| b as f64 / 1e6))
        .f64("max_delay_ms", v.max_delay_ns as f64 / 1e6)
        .f64("margin_ms", v.margin_ns as f64 / 1e6)
        .int("delivered", v.delivered)
        .int("dropped", v.dropped)
        .int("frames_observed", v.frames_observed)
        .int("frames_short", v.frames_short);
}

/// Serialises the acceptance artifact (`results/BENCH_slo_audit.json`).
fn artifact_json(
    fault: &FaultAudit,
    verdicts: &[SloVerdict],
    mutant: &SloVerdict,
    quick: bool,
) -> String {
    let verdict_list = |list: &mut Object<'_>, verdicts: &[SloVerdict]| {
        for v in verdicts {
            list.obj("", |o| verdict_json(o, v));
        }
    };
    let violated = verdicts
        .iter()
        .filter(|v| v.status == SloStatus::Violated)
        .count();
    let mut out = String::with_capacity(2048);
    Object::new(&mut out)
        .str("experiment", "slo_audit")
        .bool("ok", true)
        .bool("quick", quick)
        .obj("trace", |o| {
            o.int("events", fault.trace_events as u64)
                .int("traces", fault.traces as u64)
                .int("handshake_depth", fault.handshake_depth as u64)
                .int("handshake_nodes", fault.handshake_nodes as u64)
                .int("repair_hops", fault.repair_hops as u64)
                .int("flight_dumps", fault.flight_dumps as u64)
                .int("reservations_repaired", fault.reservations_repaired)
                .arr("flight_reasons", |list| {
                    for r in &fault.flight_reasons {
                        list.str("", r);
                    }
                });
        })
        .arr("frame_audit", |list| {
            verdict_list(list, &fault.frame_verdicts)
        })
        .arr("verdicts", |list| verdict_list(list, verdicts))
        .int("violated", violated as u64)
        .obj("mutation", |o| verdict_json(o, mutant))
        .bool("mutation_flagged", mutant.status == SloStatus::Violated);
    out
}

/// Runs the end-to-end SLO audit.
///
/// # Errors
///
/// Fails if the fault scenario does not reconstruct the required
/// traces, if any admitted flow is `violated` on the clean channel, if
/// the mutation probe is NOT flagged, or on artifact write failures.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let model = EmulationModel::new(EmulationParams::default())?;

    // Capture in memory regardless of any CLI-installed sink; the
    // causal traces are replayed into the restored sink afterwards, and
    // the verdicts handed to it, so a `--trace` file still carries this
    // experiment's trees and judgements.
    let prev = wimesh_obs::finish();
    let sink = Arc::new(MemorySink::default());
    wimesh_obs::install(sink.clone());

    let audited = (|| {
        let fault = run_fault_scenario(ctx.quick, &model, &sink)?;
        let verdicts = run_emu_audit(ctx.quick)?;

        // Mutation probe: promise a 1ms bound, deliver at 40ms.
        let mut probe = FlowSloTracker::new();
        probe.promise(MUTANT_FLOW, 1, Some(Duration::from_millis(1)));
        probe.observe_delivery(MUTANT_FLOW, Duration::from_millis(40));
        let mutant = probe
            .verdict_for(MUTANT_FLOW)
            .ok_or_else(|| BenchError::Other("mutation probe produced no verdict".into()))?;
        if mutant.status != SloStatus::Violated {
            return Err(BenchError::Other(format!(
                "mutation probe was NOT flagged violated (got {}): the auditor cannot fail",
                mutant.status
            )));
        }
        Ok((fault, verdicts, mutant))
    })();

    wimesh_obs::finish();
    if let Some(p) = prev {
        wimesh_obs::install(p.clone());
        for ev in sink.trace_events() {
            wimesh_obs::trace::emit(&ev);
        }
        if let Ok((fault, verdicts, mutant)) = &audited {
            for v in fault.frame_verdicts.iter().chain(verdicts).chain([mutant]) {
                p.on_slo(v);
            }
        }
    }
    let (fault, verdicts, mutant) = audited?;

    let mut table = Table::new(
        "SLO audit: admission promises vs observed behaviour",
        &[
            "flow",
            "status",
            "slots",
            "bound_ms",
            "max_ms",
            "margin_ms",
            "delivered",
            "dropped",
        ],
    );
    for v in verdicts.iter().chain(std::iter::once(&mutant)) {
        table.row_strings(vec![
            if v.flow == MUTANT_FLOW {
                format!("{} (mutant)", v.flow)
            } else {
                v.flow.to_string()
            },
            v.status.to_string(),
            v.promised_slots.to_string(),
            v.bound_ns
                .map_or("-".into(), |b| format!("{:.2}", b as f64 / 1e6)),
            format!("{:.2}", v.max_delay_ns as f64 / 1e6),
            format!("{:.2}", v.margin_ns as f64 / 1e6),
            v.delivered.to_string(),
            v.dropped.to_string(),
        ]);
    }
    table.print();
    println!(
        "  fault scenario: {} trace events in {} trees; DSCH handshake depth {} over {} nodes,\n  \
         node.down repair over {} hops, {} flight dump(s) [{}], {} reservation(s) repaired",
        fault.trace_events,
        fault.traces,
        fault.handshake_depth,
        fault.handshake_nodes,
        fault.repair_hops,
        fault.flight_dumps,
        fault.flight_reasons.join(", "),
        fault.reservations_repaired,
    );
    ctx.write_csv("slo_audit", &table)?;

    let artifact = artifact_json(&fault, &verdicts, &mutant, ctx.quick);
    ctx.write_artifact("slo_audit", &artifact)
}
