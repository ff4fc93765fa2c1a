//! Work-sharing branch & bound under an exact admission session: ten
//! G.711 calls toward the gateway of an 8-node chain, admitted serially
//! and then with as many solver threads as the host grants.
//!
//! ```text
//! cargo run --release --example parallel_admission
//! ```
//!
//! `SolverConfig::threads` is the workspace's one parallelism knob: the
//! number of workers sharing the branch & bound frontier of each MILP
//! oracle call. The slot search around the oracle is the same serial
//! binary search either way, so both runs must agree on every verdict
//! and on the minimal slot count — threads are an optimisation, never a
//! semantic change.

use std::time::Instant;

use wimesh::milp::SolverConfig;
use wimesh::sim::traffic::VoipCodec;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_topology::{generators, NodeId};

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!("exact admission, serial vs {threads} branch & bound worker(s)\n");

    let chain = generators::chain(8);
    let flows: Vec<FlowSpec> = (0..10u32)
        .map(|k| FlowSpec::voip(k, NodeId(1 + k % 7), NodeId(0), VoipCodec::G711))
        .collect();
    let run = |threads: usize| {
        let mesh = MeshQos::builder(chain.clone())
            .solver_config(SolverConfig::with_threads(threads))
            .build()
            .expect("chain mesh builds");
        let start = Instant::now();
        let mut session = mesh.session(OrderPolicy::ExactMilp);
        let mut admitted = Vec::new();
        for f in &flows {
            admitted.push(session.admit(f).expect("admission runs").is_admitted());
        }
        let wall = start.elapsed();
        let slots = session.snapshot().guaranteed_slots;
        (admitted, slots, wall, session.stats().oracle_calls)
    };
    let (serial_verdicts, serial_slots, serial_wall, serial_calls) = run(1);
    let (parallel_verdicts, parallel_slots, parallel_wall, parallel_calls) = run(threads);
    println!(
        "serial session    {:>7.2} ms — {} admits, {} slots, {} oracle calls",
        serial_wall.as_secs_f64() * 1e3,
        serial_verdicts.iter().filter(|&&a| a).count(),
        serial_slots,
        serial_calls,
    );
    println!(
        "{threads}-thread session  {:>7.2} ms — {} admits, {} slots, {} oracle calls",
        parallel_wall.as_secs_f64() * 1e3,
        parallel_verdicts.iter().filter(|&&a| a).count(),
        parallel_slots,
        parallel_calls,
    );
    assert_eq!(serial_verdicts, parallel_verdicts, "verdicts must match");
    assert_eq!(serial_slots, parallel_slots, "slot counts must match");
    println!("\nserial and threaded solves agree on every verdict.");
}
