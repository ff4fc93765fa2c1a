//! Approximation-mode admission — greedy + LP-rounding oracles vs
//! [`OrderPolicy::ExactMilp`].
//!
//! The exact feasibility oracle is a branch-and-bound MILP: correct,
//! but its per-admission latency grows combinatorially with the
//! conflict graph. The approximation policies trade certified
//! optimality for oracle latency while keeping *soundness* — an
//! approximate schedule may reserve more slots or reject more flows
//! than the exact one, but every schedule it does produce still passes
//! the independent `wimesh-check` certifier.
//!
//! This experiment replays the same admit/release churn trace through
//! one [`wimesh::QosSession`] per policy across a sweep of mesh sizes
//! and reports, per approximate policy:
//!
//! * the median per-admission latency and its speedup over exact,
//! * the acceptance ratio vs exact (admissions accepted by the
//!   approximation divided by admissions accepted by exact),
//! * certification: after *every* event the approximate session's
//!   schedule is re-proved by [`Certificate::check`] (certification
//!   time is excluded from the latency measurements),
//! * the certified optimality-gap bound
//!   ([`wimesh::SessionStats::approx_gap`]).
//!
//! The run gates on soundness: every event certifies and acceptance never
//! collapses (ratio ≥ 0.5 in quick runs, ≥ 0.9 in full ones). The best
//! greedy median-latency win at a ≥0.9 acceptance ratio is reported
//! (`best_greedy_speedup`), not gated: exact admission closes most of
//! these searches by its bounds alone (EXPERIMENTS.md, APX).
//!
//! Writes `results/approx_admission.csv` plus the acceptance artifact
//! `results/BENCH_approx_admission.json`.

use std::time::Instant;

use wimesh::conflict::ConflictGraph;
use wimesh::sim::traffic::VoipCodec;
use wimesh::sim::FlowId;
use wimesh::{FlowSpec, GreedyKey, MeshQos, OrderPolicy, QosSession, SessionStats};
use wimesh_check::{CertParams, Certificate, FlowRequirement};
use wimesh_obs::json::Object;
use wimesh_topology::{generators, MeshTopology, NodeId};

use crate::{BenchError, Ctx, Table};

#[derive(Debug, Clone)]
enum Event {
    Admit(FlowSpec),
    Release(FlowId),
}

/// VoIP flows from spread-out sources toward the gateway `NodeId(0)`.
fn gateway_flows(topo: &MeshTopology, n: usize) -> Vec<FlowSpec> {
    let nodes = topo.node_count() as u32;
    (0..n as u32)
        .map(|i| {
            let src = 1 + (i * 7) % (nodes - 1);
            FlowSpec::voip(i, NodeId(src), NodeId(0), VoipCodec::G729)
        })
        .collect()
}

/// Admit everything, then `rounds` cycles of release + re-admit.
fn churn_trace(flows: &[FlowSpec], rounds: usize) -> Vec<Event> {
    let mut events: Vec<Event> = flows.iter().cloned().map(Event::Admit).collect();
    for r in 0..rounds {
        let victim = &flows[r % flows.len()];
        events.push(Event::Release(victim.id));
        events.push(Event::Admit(victim.clone()));
    }
    events
}

/// Re-proves the session's current schedule with the independent
/// certifier. Approximation may only ever reject more — never emit a
/// schedule the certifier would refuse.
fn certify(session: &QosSession) -> Result<(), BenchError> {
    let mesh = session.mesh();
    let outcome = session.snapshot();
    if outcome.admitted.is_empty() {
        return Ok(());
    }
    let demands = mesh.demands_for(&outcome.admitted);
    let graph = ConflictGraph::build_for_links(
        mesh.topology(),
        demands.links().collect(),
        mesh.interference(),
    );
    let flows: Vec<FlowRequirement> = outcome
        .admitted
        .iter()
        .map(|f| FlowRequirement {
            id: u64::from(f.spec.id.0),
            links: f.path.links().to_vec(),
            deadline: f.spec.deadline,
        })
        .collect();
    let params = CertParams::from_emulation(mesh.model());
    Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params)
        .map(|_| ())
        .map_err(|e| BenchError::Other(format!("approximate schedule failed certification: {e}")))
}

/// One policy's run over one churn trace.
#[derive(Debug)]
struct PolicyRun {
    policy_label: &'static str,
    /// Per-admission-event wall latencies, microseconds.
    admit_us: Vec<f64>,
    /// Admissions answered "admitted" across the whole trace.
    accepted: u64,
    /// Events whose resulting schedule passed certification.
    certified_events: u64,
    stats: SessionStats,
}

impl PolicyRun {
    fn median_admit_us(&self) -> f64 {
        let mut v = self.admit_us.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        if v.is_empty() {
            return 0.0;
        }
        let mid = v.len() / 2;
        if v.len().is_multiple_of(2) {
            (v[mid - 1] + v[mid]) / 2.0
        } else {
            v[mid]
        }
    }
}

/// Replays `events` through a fresh session under `policy`, certifying
/// the schedule after every event when `certify_each` is set.
fn run_policy(
    mesh: &MeshQos,
    policy: OrderPolicy,
    policy_label: &'static str,
    events: &[Event],
    certify_each: bool,
) -> Result<PolicyRun, BenchError> {
    let mut session = mesh.session(policy);
    let mut admit_us = Vec::new();
    let mut accepted = 0u64;
    let mut certified_events = 0u64;
    for event in events {
        match event {
            Event::Admit(spec) => {
                let start = Instant::now();
                let verdict = session.admit(spec)?;
                admit_us.push(start.elapsed().as_secs_f64() * 1e6);
                if verdict.is_admitted() {
                    accepted += 1;
                }
            }
            Event::Release(id) => {
                session.release(*id)?;
            }
        }
        if certify_each {
            certify(&session)?;
            certified_events += 1;
        }
    }
    Ok(PolicyRun {
        policy_label,
        admit_us,
        accepted,
        certified_events,
        stats: session.stats().clone(),
    })
}

/// One mesh-size scenario: the exact baseline plus every approximate
/// policy over the identical trace.
#[derive(Debug)]
struct Scenario {
    name: &'static str,
    flows: usize,
    events: usize,
    exact: PolicyRun,
    approx: Vec<PolicyRun>,
}

impl Scenario {
    fn run(
        name: &'static str,
        topo: MeshTopology,
        n_flows: usize,
        rounds: usize,
    ) -> Result<Self, BenchError> {
        let mesh = MeshQos::builder(topo.clone()).build()?;
        let flows = gateway_flows(&topo, n_flows);
        let events = churn_trace(&flows, rounds);
        let exact = run_policy(&mesh, OrderPolicy::ExactMilp, "exact", &events, false)?;
        let approx = vec![
            run_policy(
                &mesh,
                OrderPolicy::GreedySequential {
                    key: GreedyKey::CliqueLoad,
                },
                "greedy:clique",
                &events,
                true,
            )?,
            run_policy(
                &mesh,
                OrderPolicy::GreedySequential {
                    key: GreedyKey::Demand,
                },
                "greedy:demand",
                &events,
                true,
            )?,
            run_policy(&mesh, OrderPolicy::LpRounding, "lp", &events, true)?,
        ];
        Ok(Scenario {
            name,
            flows: flows.len(),
            events: events.len(),
            exact,
            approx,
        })
    }

    fn acceptance_ratio(&self, run: &PolicyRun) -> f64 {
        if self.exact.accepted == 0 {
            1.0
        } else {
            run.accepted as f64 / self.exact.accepted as f64
        }
    }

    fn speedup(&self, run: &PolicyRun) -> f64 {
        let approx = run.median_admit_us();
        if approx > 0.0 {
            self.exact.median_admit_us() / approx
        } else {
            f64::INFINITY
        }
    }
}

/// Serialises the acceptance artifact
/// (`results/BENCH_approx_admission.json`).
fn artifact_json(scenarios: &[Scenario], quick: bool, best_greedy_speedup: f64) -> String {
    let mut out = String::with_capacity(2048);
    Object::new(&mut out)
        .str("experiment", "approx_admission")
        .bool("ok", true)
        .bool("quick", quick)
        .f64("best_greedy_speedup", best_greedy_speedup)
        .arr("scenarios", |list| {
            for s in scenarios {
                list.obj("", |o| {
                    o.str("name", s.name)
                        .int("flows", s.flows as u64)
                        .int("events", s.events as u64)
                        .f64("exact_median_admit_us", s.exact.median_admit_us())
                        .int("exact_accepted", s.exact.accepted)
                        .arr("policies", |list| {
                            for run in &s.approx {
                                list.obj("", |p| policy_json(p, s, run));
                            }
                        });
                });
            }
        });
    out
}

/// One approximate policy's entry in the artifact.
fn policy_json(o: &mut Object<'_>, s: &Scenario, run: &PolicyRun) {
    o.str("policy", run.policy_label)
        .f64("median_admit_us", run.median_admit_us())
        .f64("speedup_vs_exact", s.speedup(run))
        .f64("acceptance_ratio", s.acceptance_ratio(run))
        .int("accepted", run.accepted)
        .int("certified_events", run.certified_events)
        .int("approx_gap", run.stats.approx_gap)
        .int("clique_prunes", run.stats.clique_prunes)
        .int("greedy_solves", run.stats.greedy_solves)
        .int("lp_solves", run.stats.lp_solves);
}

/// Runs the approximation-mode admission comparison.
///
/// # Errors
///
/// Propagates admission/certification failures and fails when an event
/// does not certify or a policy's acceptance ratio falls below the floor.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let scenarios = if ctx.quick {
        vec![Scenario::run("chain4", generators::chain(4), 3, 2)?]
    } else {
        vec![
            Scenario::run("chain5", generators::chain(5), 4, 6)?,
            Scenario::run("chain6", generators::chain(6), 5, 6)?,
            Scenario::run("grid3x3", generators::grid(3, 3), 6, 6)?,
            Scenario::run("grid4x4", generators::grid(4, 4), 10, 2)?,
        ]
    };

    let mut table = Table::new(
        "Approximation-mode admission vs ExactMilp (per-admission latency)",
        &[
            "scenario",
            "policy",
            "median_us",
            "speedup",
            "accept_ratio",
            "accepted",
            "certified",
            "gap",
        ],
    );
    for s in &scenarios {
        table.row_strings(vec![
            s.name.to_string(),
            "exact".to_string(),
            format!("{:.1}", s.exact.median_admit_us()),
            "1.00x".to_string(),
            "1.000".to_string(),
            s.exact.accepted.to_string(),
            "-".to_string(),
            "0".to_string(),
        ]);
        for run in &s.approx {
            table.row_strings(vec![
                s.name.to_string(),
                run.policy_label.to_string(),
                format!("{:.1}", run.median_admit_us()),
                format!("{:.0}x", s.speedup(run)),
                format!("{:.3}", s.acceptance_ratio(run)),
                run.accepted.to_string(),
                run.certified_events.to_string(),
                run.stats.approx_gap.to_string(),
            ]);
        }
    }
    table.print();
    ctx.write_csv("approx_admission", &table)?;

    // Soundness gates (both modes): every approximate event certified,
    // and acceptance never collapses.
    let floor = if ctx.quick { 0.5 } else { 0.9 };
    for s in &scenarios {
        for run in &s.approx {
            if run.certified_events != s.events as u64 {
                return Err(BenchError::Other(format!(
                    "{}/{}: only {}/{} events certified",
                    s.name, run.policy_label, run.certified_events, s.events
                )));
            }
            if s.acceptance_ratio(run) < floor {
                return Err(BenchError::Other(format!(
                    "{}/{}: acceptance ratio {:.3} below the {floor} floor",
                    s.name,
                    run.policy_label,
                    s.acceptance_ratio(run)
                )));
            }
        }
    }

    // Reported, not gated: the best greedy median-latency win at a ≥0.9
    // acceptance ratio.
    let best_greedy_speedup = scenarios
        .iter()
        .flat_map(|s| {
            s.approx
                .iter()
                .filter(|r| r.policy_label.starts_with("greedy"))
                .filter(|r| s.acceptance_ratio(r) >= 0.9)
                .map(|r| s.speedup(r))
        })
        .fold(0.0, f64::max);

    let artifact = artifact_json(&scenarios, ctx.quick, best_greedy_speedup);
    ctx.write_artifact("approx_admission", &artifact)
}
