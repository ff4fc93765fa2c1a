//! Criterion micro-benchmarks of the algorithmic kernels behind every
//! experiment: conflict-graph construction, Bellman–Ford scheduling, the
//! MILP solver, mesh election, the distributed reservation protocol,
//! both packet-level MACs, and the journal decoder.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wimesh::conflict::{greedy_coloring, ConflictGraph, InterferenceModel};
use wimesh::mac80216::csch::{run_centralized, uplink_demands, CschConfig, CschMode};
use wimesh::mac80216::election::MeshElection;
use wimesh::mac80216::entry::{run_network_entry, EntryConfig};
use wimesh::mac80216::reservation::{run_distributed, ReservationConfig};
use wimesh::milp::{LinExpr, Model, Sense, SolverConfig};
use wimesh::phy80211::dcf::{DcfConfig, DcfFlow, DcfSimulation};
use wimesh::sim::traffic::{CbrSource, VoipCodec};
use wimesh::sim::FlowId;
use wimesh::tdma::milp::{feasible_order_within, min_max_delay_order, PathRequirement};
use wimesh::tdma::{order, schedule_from_order, Demands, FrameConfig};
use wimesh::{FlowAdmission, FlowSpec, MeshQos, OrderPolicy};
use wimesh_emu::tdma::{TdmaFlow, TdmaSimulation};
use wimesh_emu::{EmulationModel, EmulationParams};
use wimesh_svc::{parse_journal, GatewayConfig, JournalWriter, JournaledSession};
use wimesh_topology::routing::{shortest_path, GatewayRouting};
use wimesh_topology::{generators, NodeId};

fn bench_conflict_graph(c: &mut Criterion) {
    let topo = generators::grid(5, 5);
    c.bench_function("conflict_graph_build_grid5x5", |b| {
        b.iter(|| ConflictGraph::build(&topo, InterferenceModel::protocol_default()))
    });
    let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
    c.bench_function("greedy_coloring_grid5x5", |b| {
        b.iter(|| greedy_coloring(&cg))
    });
}

fn bench_schedule_from_order(c: &mut Criterion) {
    let topo = generators::chain(20);
    let path = shortest_path(&topo, NodeId(0), NodeId(19)).unwrap();
    let mut demands = Demands::new();
    for &l in path.links() {
        demands.set(l, 2);
    }
    let cg = ConflictGraph::build_for_links(
        &topo,
        demands.links().collect(),
        InterferenceModel::protocol_default(),
    );
    let ord = order::hop_order(&cg, std::slice::from_ref(&path));
    let frame = FrameConfig::new(128, 250);
    c.bench_function("bellman_ford_schedule_chain19", |b| {
        b.iter(|| schedule_from_order(&cg, &demands, &ord, frame).unwrap())
    });

    // The size the gateway benchmark's `gw_churn_grid8` solves per request:
    // 25 calls of at most 4 hops on grid(8,8) — 63 vertices and 291
    // conflict edges with this seed.
    let topo = generators::grid(8, 8);
    let mut rng = StdRng::seed_from_u64(8);
    let mut paths = Vec::new();
    while paths.len() < 25 {
        let (a, b) = (rng.gen_range(0..64u32), rng.gen_range(0..64u32));
        let hops = (a % 8).abs_diff(b % 8) + (a / 8).abs_diff(b / 8);
        if (1..=4).contains(&hops) {
            paths.push(shortest_path(&topo, NodeId(a), NodeId(b)).unwrap());
        }
    }
    let mut demands = Demands::new();
    for path in &paths {
        for &l in path.links() {
            demands.add(l, 1);
        }
    }
    let cg = ConflictGraph::build_for_links(
        &topo,
        demands.links().collect(),
        InterferenceModel::protocol_default(),
    );
    let ord = order::hop_order(&cg, &paths);
    c.bench_function("hop_order_grid8x8_25calls", |b| {
        b.iter(|| order::hop_order(&cg, &paths))
    });
    c.bench_function("schedule_from_order_grid8x8_25calls", |b| {
        b.iter(|| schedule_from_order(&cg, &demands, &ord, frame).unwrap())
    });

    // What the session pays for one call arriving and one leaving while it
    // holds those 25 (routing and vetting of the arrival included).
    let mesh = MeshQos::builder(topo).build().unwrap();
    let mut session = mesh.session(OrderPolicy::HopOrder);
    for (id, path) in paths.iter().enumerate() {
        let (src, dst) = (path.source(), path.destination());
        let call = FlowSpec::voip(id as u32, src, dst, VoipCodec::G711);
        assert!(session.admit(&call).unwrap().is_admitted());
    }
    let extra = FlowSpec::voip(25, NodeId(9), NodeId(27), VoipCodec::G711);
    c.bench_function("session_admit_release_grid8x8_25calls", |b| {
        b.iter(|| {
            assert!(session.admit(&extra).unwrap().is_admitted());
            session.release(extra.id).unwrap()
        })
    });
}

fn bench_milp(c: &mut Criterion) {
    // LP relaxation of a medium assignment-style model.
    c.bench_function("simplex_lp_20x40", |b| {
        b.iter_batched(
            || {
                let mut m = Model::new();
                let vars: Vec<_> = (0..40)
                    .map(|i| m.add_var(0.0, 10.0, &format!("x{i}")))
                    .collect();
                for r in 0..20 {
                    let mut e = LinExpr::new();
                    for (i, &v) in vars.iter().enumerate() {
                        e.add_term(v, ((i + r) % 7 + 1) as f64);
                    }
                    m.add_le(e, 50.0 + r as f64);
                }
                let mut obj = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    obj.add_term(v, (i % 5 + 1) as f64);
                }
                m.set_objective(Sense::Maximize, obj);
                m
            },
            |m| m.solve().unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Branch & bound on a 16-item knapsack.
    c.bench_function("branch_bound_knapsack16", |b| {
        b.iter_batched(
            || {
                let mut m = Model::new();
                let vars: Vec<_> = (0..16)
                    .map(|i| m.add_binary_var(&format!("x{i}")))
                    .collect();
                let mut w = LinExpr::new();
                let mut v = LinExpr::new();
                for (i, &x) in vars.iter().enumerate() {
                    w.add_term(x, (3 + (i * 7) % 11) as f64);
                    v.add_term(x, (5 + (i * 13) % 17) as f64);
                }
                m.add_le(w, 40.0);
                m.set_objective(Sense::Maximize, v);
                m
            },
            |m| m.solve().unwrap(),
            BatchSize::SmallInput,
        )
    });
    // The exact order MILP on a 2-flow chain (the E9 kernel).
    let topo = generators::chain(6);
    let p1 = shortest_path(&topo, NodeId(0), NodeId(5)).unwrap();
    let p2 = shortest_path(&topo, NodeId(5), NodeId(0)).unwrap();
    let mut demands = Demands::new();
    for &l in p1.links().iter().chain(p2.links()) {
        demands.add(l, 1);
    }
    let cg = ConflictGraph::build_for_links(
        &topo,
        demands.links().collect(),
        InterferenceModel::protocol_default(),
    );
    let frame = FrameConfig::new(64, 250);
    c.bench_function("order_milp_chain6_2flows", |b| {
        b.iter(|| {
            min_max_delay_order(
                &cg,
                &demands,
                &[p1.clone(), p2.clone()],
                frame,
                &SolverConfig::default(),
            )
            .unwrap()
        })
    });

    // One oracle call of the exact slot search on what `gw_exact_chain8`
    // holds at the end of an episode: ten G.711 calls toward node 0 of
    // chain(8). A "yes" at the minimum region (branch & bound stops at
    // its first integral leaf) and a "no" one slot below it (the tree has
    // to be emptied) — the session asks both kinds.
    let mesh = MeshQos::builder(generators::chain(8)).build().unwrap();
    let mut session = mesh.session(OrderPolicy::ExactMilp);
    for (id, src) in [4, 1, 7, 2, 5, 3, 1, 6, 2, 3].into_iter().enumerate() {
        let call = FlowSpec::voip(id as u32, NodeId(src), NodeId(0), VoipCodec::G711);
        assert!(session.admit(&call).unwrap().is_admitted());
    }
    let held = session.snapshot();
    let demands = mesh.demands_for(held.admitted());
    let cg = ConflictGraph::build_for_links(
        mesh.topology(),
        demands.links().collect(),
        mesh.interference(),
    );
    // The deadline in pipeline minislots: what is left of it after the
    // source's wait for its frame and one control subframe per relay.
    let (frame, mesh_frame) = (mesh.model().frame(), mesh.model().mesh_frame());
    let requirements: Vec<PathRequirement> = held
        .admitted()
        .iter()
        .map(|f| {
            let relays = f.path.hop_count() as u32 - 1;
            let fixed = mesh_frame.frame_duration() + mesh_frame.ctrl_duration() * relays;
            let budget = f.spec.deadline.expect("voip calls have deadlines") - fixed;
            PathRequirement {
                path: f.path.clone(),
                deadline_slots: Some(budget.as_micros() as u64 / frame.slot_duration_us()),
            }
        })
        .collect();
    let minimum = held.guaranteed_slots;
    c.bench_function("feasible_order_within_chain8_10calls", |b| {
        b.iter(|| {
            let config = SolverConfig::default();
            let yes = feasible_order_within(&cg, &demands, &requirements, frame, minimum, &config);
            let no =
                feasible_order_within(&cg, &demands, &requirements, frame, minimum - 1, &config);
            assert!(yes.is_ok() && no.is_err());
        })
    });
}

fn bench_election(c: &mut Criterion) {
    let topo = generators::grid(6, 6);
    let election = MeshElection::new(&topo);
    c.bench_function("mesh_election_winners_grid6x6", |b| {
        let mut opp = 0u32;
        b.iter(|| {
            opp = opp.wrapping_add(1);
            election.winners(opp)
        })
    });
}

fn bench_reservation(c: &mut Criterion) {
    let topo = generators::chain(8);
    let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
    let mut demands = Demands::new();
    for l in routing.uplink_links(&topo) {
        demands.set(l, 2);
    }
    c.bench_function("distributed_reservation_chain8", |b| {
        b.iter(|| run_distributed(&topo, &demands, ReservationConfig::default()).unwrap())
    });
    let tree = generators::binary_tree(3);
    let tree_routing = GatewayRouting::new(&tree, NodeId(0)).unwrap();
    let tree_demands = uplink_demands(&tree, &tree_routing, 2);
    c.bench_function("centralized_csch_tree_btree3", |b| {
        b.iter(|| {
            run_centralized(
                &tree,
                &tree_routing,
                &tree_demands,
                CschConfig {
                    frame: FrameConfig::new(64, 250),
                    mode: CschMode::SpatialReuse,
                },
            )
            .unwrap()
        })
    });
    c.bench_function("network_entry_btree3", |b| {
        b.iter(|| run_network_entry(&tree, NodeId(0), EntryConfig::default()))
    });
}

fn bench_packet_macs(c: &mut Criterion) {
    // One simulated second of a 4-node chain under each MAC.
    let topo = generators::chain(4);
    c.bench_function("dcf_sim_1s_chain4", |b| {
        b.iter_batched(
            || {
                let flows = vec![DcfFlow {
                    id: FlowId(0),
                    route: (0..4).map(NodeId).collect(),
                    source: Box::new(CbrSource::new(Duration::from_millis(20), 200)),
                }];
                (
                    DcfSimulation::new(&topo, DcfConfig::default(), flows),
                    StdRng::seed_from_u64(1),
                )
            },
            |(mut sim, mut rng)| {
                sim.run(Duration::from_secs(1), &mut rng);
                sim.flow_stats(0).delivered()
            },
            BatchSize::SmallInput,
        )
    });

    let model = EmulationModel::new(EmulationParams::default()).unwrap();
    let path = shortest_path(&topo, NodeId(0), NodeId(3)).unwrap();
    let mut demands = Demands::new();
    for &l in path.links() {
        demands.set(l, 2);
    }
    let cg = ConflictGraph::build_for_links(
        &topo,
        demands.links().collect(),
        InterferenceModel::protocol_default(),
    );
    let ord = order::hop_order(&cg, std::slice::from_ref(&path));
    let schedule = schedule_from_order(&cg, &demands, &ord, model.frame()).unwrap();
    c.bench_function("tdma_sim_1s_chain4", |b| {
        b.iter_batched(
            || {
                let flows = vec![TdmaFlow {
                    id: FlowId(0),
                    path: path.clone(),
                    source: Box::new(CbrSource::new(Duration::from_millis(20), 200)),
                }];
                (
                    TdmaSimulation::new(model, &schedule, flows, 100).unwrap(),
                    StdRng::seed_from_u64(1),
                )
            },
            |(mut sim, mut rng)| {
                sim.run(Duration::from_secs(1), &mut rng);
                sim.flow_stats(0).delivered()
            },
            BatchSize::SmallInput,
        )
    });
}

/// A journal written the way the repo benchmark's `recover_grid4` set-up
/// writes one: churn held at 40 live VoIP calls of at most 4 hops on
/// grid(4,4) under `HopOrder`, 1000 requests taken 8 at a time with each
/// run of admissions coalesced into one batch, and a snapshot every
/// `GatewayConfig::default().snapshot_every` mutations.
fn churn_journal_grid4(requests: usize) -> String {
    let mesh = MeshQos::builder(generators::grid(4, 4)).build().unwrap();
    let path = std::env::temp_dir().join(format!("wimesh_kernels_{}.jsonl", std::process::id()));
    let mut journaled = JournaledSession::new(
        mesh.session(OrderPolicy::HopOrder),
        JournalWriter::create(&path).unwrap(),
        GatewayConfig::default().snapshot_every,
    );
    let mut rng = StdRng::seed_from_u64(4);
    let mut live: Vec<FlowId> = Vec::new();
    let mut next_id = 0;
    let mut issued = 0;
    while issued < requests {
        let mut admits: Vec<FlowSpec> = Vec::new();
        for _ in 0..8.min(requests - issued) {
            issued += 1;
            let holding = live.len() + admits.len();
            if !live.is_empty() && (holding >= 40 || rng.gen_bool(0.3)) {
                flush_admits(&mut journaled, &mut admits, &mut live);
                let flow = live.swap_remove(rng.gen_range(0..live.len()));
                // Refused near capacity: the flow stays admitted.
                if journaled.release_flow(flow).is_err() {
                    live.push(flow);
                }
                continue;
            }
            let src = rng.gen_range(0..16u32);
            let dst = loop {
                let dst = rng.gen_range(0..16u32);
                let hops = (src % 4).abs_diff(dst % 4) + (src / 4).abs_diff(dst / 4);
                if (1..=4).contains(&hops) {
                    break dst;
                }
            };
            let codec = if rng.gen_bool(0.5) {
                VoipCodec::G711
            } else {
                VoipCodec::G729
            };
            admits.push(FlowSpec::voip(next_id, NodeId(src), NodeId(dst), codec));
            next_id += 1;
        }
        flush_admits(&mut journaled, &mut admits, &mut live);
    }
    drop(journaled);
    let journal = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    journal
}

fn flush_admits(
    journaled: &mut JournaledSession,
    admits: &mut Vec<FlowSpec>,
    live: &mut Vec<FlowId>,
) {
    if admits.is_empty() {
        return;
    }
    let verdicts = journaled.admit_flows(admits).unwrap();
    for (spec, verdict) in admits.drain(..).zip(verdicts) {
        if matches!(verdict, FlowAdmission::Admitted(_)) {
            live.push(spec.id);
        }
    }
}

fn bench_journal(c: &mut Criterion) {
    let journal = churn_journal_grid4(1000);
    c.bench_function("parse_journal_grid4_1000req", |b| {
        b.iter(|| parse_journal(&journal).unwrap())
    });
    // The same measurement per byte and per line: recovery cannot go
    // faster than the journal decodes.
    let mut runs: Vec<Duration> = (0..31)
        .map(|_| {
            let start = Instant::now();
            criterion::black_box(parse_journal(criterion::black_box(&journal)).unwrap());
            start.elapsed()
        })
        .collect();
    runs.sort();
    let median = runs[runs.len() / 2].as_secs_f64();
    let lines = journal.lines().count();
    println!(
        "bench {:<40} {} bytes, {lines} lines: {:.0} MB/s, {:.0} ns/line",
        "parse_journal_grid4_1000req",
        journal.len(),
        journal.len() as f64 / median / 1e6,
        median * 1e9 / lines as f64,
    );
}

criterion_group!(
    benches,
    bench_conflict_graph,
    bench_schedule_from_order,
    bench_milp,
    bench_election,
    bench_reservation,
    bench_packet_macs,
    bench_journal
);
criterion_main!(benches);
