//! Parallel scaling — work-sharing branch & bound, the workspace's one
//! parallel layer, measured under its real caller.
//!
//! Two scenarios:
//!
//! * `session/exact-milp` (solver layer) — one
//!   [`OrderPolicy::ExactMilp`] session admitting G.711 calls toward
//!   the gateway of a chain, one by one, with
//!   [`SolverConfig::threads`] at 1, 2 and 4. Every oracle call of the
//!   slot search is a branch & bound worth timing (about 100 ms each on
//!   the full instance), so the wall clock is the solver's, not the
//!   timer's. Each thread count runs five sessions, the rounds
//!   interleaved so drift on the host lands on every count alike; the
//!   artifact carries median, minimum and maximum. Admitted-flow sets
//!   and minimal slot counts must match the serial session.
//! * `conflict/csr-bellman-ford` (graph layer) — the longest-path
//!   scheduling kernel over the CSR-pooled conflict graph, reported as
//!   runs per second (micro-benchmark for the flattened adjacency).
//!
//! Every number is a measured wall clock on this host, whose
//! `host_parallelism` is recorded beside it: with one core the threaded
//! rows cannot be faster, so the experiment gates on verdict equality
//! only and reports the speed-up it saw.
//!
//! Writes `results/parallel_scaling.csv` plus the artifact
//! `results/BENCH_parallel_scaling.json`.

use std::time::Instant;

use wimesh::conflict::{ConflictGraph, InterferenceModel};
use wimesh::milp::SolverConfig;
use wimesh::sim::traffic::VoipCodec;
use wimesh::tdma::{order, schedule_from_order, Demands, FrameConfig};
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_topology::{generators, routing, NodeId};

use crate::{BenchError, Ctx, Table};

/// Branch & bound worker counts the session scenario sweeps.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Sessions timed per thread count.
const REPETITIONS: usize = 5;

/// A session's answer: sorted admitted flow ids + minimal slot count.
type Verdict = (Vec<u32>, u32);

/// Per-thread-count measurements of the session scenario.
#[derive(Debug)]
struct ThreadPoint {
    threads: usize,
    /// Wall clock of each repetition, ascending.
    walls_s: Vec<f64>,
    verdicts_match: bool,
}

impl ThreadPoint {
    fn median_s(&self) -> f64 {
        self.walls_s[self.walls_s.len() / 2]
    }

    fn min_s(&self) -> f64 {
        self.walls_s[0]
    }

    fn max_s(&self) -> f64 {
        self.walls_s[self.walls_s.len() - 1]
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Session-layer measurements: the same admission session per B&B
/// worker count.
#[derive(Debug)]
struct SessionResult {
    chain_nodes: usize,
    calls: usize,
    /// MILP oracle calls of one serial session.
    oracle_calls: u64,
    points: Vec<ThreadPoint>,
}

impl SessionResult {
    /// Serial median wall over `p`'s (the sweep starts at one thread).
    fn speedup(&self, p: &ThreadPoint) -> f64 {
        self.points[0].median_s() / p.median_s()
    }
}

/// Admits `flows` one by one through a fresh exact session.
fn run_session(
    mesh: &MeshQos,
    flows: &[FlowSpec],
) -> Result<(Verdict, f64, wimesh::SessionStats), BenchError> {
    let start = Instant::now();
    let mut session = mesh.session(OrderPolicy::ExactMilp);
    for f in flows {
        session.admit(f)?;
    }
    let wall = start.elapsed().as_secs_f64();
    let snap = session.snapshot();
    let mut ids: Vec<u32> = snap.admitted().iter().map(|f| f.spec.id.0).collect();
    ids.sort_unstable();
    Ok(((ids, snap.guaranteed_slots), wall, session.stats().clone()))
}

fn session_scenario(quick: bool) -> Result<SessionResult, BenchError> {
    let (chain_nodes, calls) = if quick { (8, 10) } else { (10, 12) };
    // Callers round robin over the non-gateway nodes, as the repository
    // benchmark's exact workload places them.
    let flows: Vec<FlowSpec> = (0..calls as u32)
        .map(|k| {
            let src = NodeId(1 + k % (chain_nodes as u32 - 1));
            FlowSpec::voip(k, src, NodeId(0), VoipCodec::G711)
        })
        .collect();
    let meshes = THREAD_SWEEP
        .iter()
        .map(|&threads| {
            MeshQos::builder(generators::chain(chain_nodes))
                .solver_config(SolverConfig::with_threads(threads))
                .build()
        })
        .collect::<Result<Vec<_>, _>>()?;

    // One discarded session absorbs process-global first-touch costs
    // (allocator warm-up, lazy statics, page-in); it is also the serial
    // reference verdict.
    let (serial_verdict, _, serial_stats) = run_session(&meshes[0], &flows)?;
    let mut points: Vec<ThreadPoint> = THREAD_SWEEP
        .iter()
        .map(|&threads| ThreadPoint {
            threads,
            walls_s: Vec::with_capacity(REPETITIONS),
            verdicts_match: true,
        })
        .collect();
    for _ in 0..REPETITIONS {
        for (mesh, point) in meshes.iter().zip(&mut points) {
            let (verdict, wall, _) = run_session(mesh, &flows)?;
            point.walls_s.push(wall);
            point.verdicts_match &= verdict == serial_verdict;
        }
    }
    for p in &mut points {
        p.walls_s.sort_by(f64::total_cmp);
    }
    Ok(SessionResult {
        chain_nodes,
        calls,
        oracle_calls: serial_stats.oracle_calls,
        points,
    })
}

/// Graph-layer micro-benchmark: the longest-path scheduling kernel over
/// the CSR-pooled conflict graph.
#[derive(Debug)]
struct CsrResult {
    vertices: usize,
    edges: usize,
    runs: usize,
    wall_s: f64,
    runs_per_s: f64,
}

fn csr_scenario(quick: bool) -> Result<CsrResult, BenchError> {
    let side = if quick { 3 } else { 5 };
    let runs = if quick { 20 } else { 200 };
    let topo = generators::grid(side, side);
    let gateway = NodeId(0);
    let mut demands = Demands::new();
    let mut paths = Vec::new();
    for node in topo.node_ids() {
        if node == gateway {
            continue;
        }
        let path = routing::shortest_path(&topo, node, gateway)
            .map_err(|e| BenchError::Other(format!("routing failed: {e}")))?;
        for &l in path.links() {
            demands.add(l, 1);
        }
        paths.push(path);
    }
    let graph = ConflictGraph::build_for_links(
        &topo,
        demands.links().collect(),
        InterferenceModel::protocol_default(),
    );
    let ord = order::hop_order(&graph, &paths);
    let frame = FrameConfig::new(4096, 250);
    let start = Instant::now();
    for _ in 0..runs {
        let sched = schedule_from_order(&graph, &demands, &ord, frame)?;
        std::hint::black_box(sched);
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(CsrResult {
        vertices: graph.vertex_count(),
        edges: graph.edge_count(),
        runs,
        wall_s,
        runs_per_s: if wall_s > 0.0 {
            runs as f64 / wall_s
        } else {
            f64::INFINITY
        },
    })
}

/// Serialises `results/BENCH_parallel_scaling.json`.
fn artifact_json(quick: bool, host: usize, session: &SessionResult, csr: &CsrResult) -> String {
    use wimesh_obs::json::push_f64;
    let mut out = String::with_capacity(1024);
    out.push_str("{\"experiment\":\"parallel_scaling\",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    out.push_str(&format!(",\"host_parallelism\":{host},\"scenarios\":["));

    // Solver layer, under the admission session.
    out.push_str("{\"name\":\"session/exact-milp\",\"layer\":\"solver\"");
    out.push_str(&format!(
        ",\"chain_nodes\":{},\"calls\":{},\"oracle_calls\":{},\"repetitions\":{REPETITIONS}",
        session.chain_nodes, session.calls, session.oracle_calls
    ));
    out.push_str(",\"threads\":[");
    for (i, p) in session.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"threads\":{},\"wall_median_s\":", p.threads));
        push_f64(&mut out, p.median_s());
        out.push_str(",\"wall_min_s\":");
        push_f64(&mut out, p.min_s());
        out.push_str(",\"wall_max_s\":");
        push_f64(&mut out, p.max_s());
        out.push_str(",\"speedup\":");
        push_f64(&mut out, session.speedup(p));
        out.push_str(&format!(",\"verdicts_match\":{}}}", p.verdicts_match));
    }
    out.push_str("]}");

    // Graph layer.
    out.push_str(",{\"name\":\"conflict/csr-bellman-ford\",\"layer\":\"graph\"");
    out.push_str(&format!(
        ",\"vertices\":{},\"edges\":{},\"runs\":{},\"wall_s\":",
        csr.vertices, csr.edges, csr.runs
    ));
    push_f64(&mut out, csr.wall_s);
    out.push_str(",\"runs_per_s\":");
    push_f64(&mut out, csr.runs_per_s);
    out.push_str("}]}\n");
    out
}

/// Runs the parallel scaling benchmark.
///
/// # Errors
///
/// Propagates admission/scheduling failures, and fails loudly when a
/// threaded session's verdict diverges from the serial one. Speed-up is
/// reported, never gated: single-core hosts exist.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let host = host_parallelism();
    println!("  host parallelism: {host} core(s)");

    let session = session_scenario(ctx.quick)?;
    let csr = csr_scenario(ctx.quick)?;

    let mut table = Table::new(
        "Work-sharing branch & bound under an exact admission session",
        &[
            "scenario",
            "threads",
            "median_ms",
            "min_ms",
            "max_ms",
            "speedup",
            "verdicts",
        ],
    );
    for p in &session.points {
        table.row_strings(vec![
            format!(
                "session/exact-milp chain({})x{}",
                session.chain_nodes, session.calls
            ),
            p.threads.to_string(),
            format!("{:.2}", p.median_s() * 1e3),
            format!("{:.2}", p.min_s() * 1e3),
            format!("{:.2}", p.max_s() * 1e3),
            format!("{:.2}x", session.speedup(p)),
            if p.verdicts_match {
                "match"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
    }
    table.row_strings(vec![
        "conflict/csr-bellman-ford".to_string(),
        "1".to_string(),
        format!("{:.2}", csr.wall_s * 1e3),
        "-".to_string(),
        "-".to_string(),
        format!("{:.0}/s", csr.runs_per_s),
        "-".to_string(),
    ]);
    table.print();
    ctx.write_csv("parallel_scaling", &table)?;

    if session.points.iter().any(|p| !p.verdicts_match) {
        return Err(BenchError::Other(
            "threaded verdicts diverged from the serial session".into(),
        ));
    }

    std::fs::create_dir_all(&ctx.out_dir)?;
    let artifact = ctx.out_dir.join("BENCH_parallel_scaling.json");
    std::fs::write(&artifact, artifact_json(ctx.quick, host, &session, &csr))?;
    println!("  -> {}", artifact.display());
    Ok(())
}
