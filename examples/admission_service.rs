//! The admission gateway as a running service: concurrent clients,
//! batched journaled solves, wait-free schedule views, and a
//! kill-and-recover demonstration.
//!
//! Run with:
//!
//! ```text
//! cargo run -p wimesh-svc --example admission_service
//! ```

use std::sync::mpsc;
use std::thread;

use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_svc::{recover_file, AdmissionGateway, GatewayConfig, JournalWriter, Reply, SvcError};
use wimesh_topology::{generators, NodeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = MeshQos::builder(generators::grid(3, 3)).build()?;
    let journal_path = std::env::temp_dir().join("wimesh_admission_service.jsonl");

    // --- Phase 1: a live gateway under concurrent load -----------------
    let config = GatewayConfig {
        queue_capacity: 32,
        max_batch: 8,
        snapshot_every: 4,
        request_timeout: None,
        policy: Some(OrderPolicy::HopOrder),
    };
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        JournalWriter::create(&journal_path)?,
        config,
    )?;

    // Twelve clients race VoIP admissions toward the gateway node; each
    // blocks on its own ticket for a typed reply.
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for i in 0..12u32 {
            let client = client.clone();
            let tx = tx.clone();
            scope.spawn(move || {
                let spec = FlowSpec::voip(i, NodeId(1 + (i * 5) % 8), NodeId(0), VoipCodec::G729);
                let outcome = match client.admit(spec) {
                    Ok(ticket) => ticket.wait(),
                    Err(e) => Err(e),
                };
                tx.send((i, outcome)).expect("main thread is listening");
            });
        }
    });
    drop(tx);

    let mut admitted = 0u32;
    for (flow, outcome) in rx {
        match outcome {
            Ok(Reply::Admitted(f)) => {
                admitted += 1;
                println!(
                    "flow {flow:2}: admitted, {} slot(s)/link, bound {:?}",
                    f.slots_per_link, f.worst_case_delay
                );
            }
            Ok(Reply::Rejected(reason)) => println!("flow {flow:2}: rejected ({reason:?})"),
            Ok(other) => println!("flow {flow:2}: {other:?}"),
            Err(SvcError::Overloaded { capacity }) => {
                println!("flow {flow:2}: backpressure (queue of {capacity} full)");
            }
            Err(e) => println!("flow {flow:2}: {e}"),
        }
    }

    // A data-plane reader polls the published view without touching the
    // solver: one atomic load per poll once the epoch settles.
    let mut reader = client.reader();
    let epoch = reader.epoch();
    let view = reader.current();
    println!(
        "\nview @epoch {}: {} admitted, {}/{} slots guaranteed, {} best-effort",
        epoch,
        view.admitted.len(),
        view.guaranteed_slots,
        view.frame_slots,
        view.best_effort_slots()
    );

    // --- Phase 2: kill and recover -------------------------------------
    // Shutdown writes no farewell state: the journal alone must carry
    // everything, exactly as after a crash.
    let report = gateway.shutdown();
    println!(
        "\nkilled gateway after {} batches ({} requests, max batch {})",
        report.service.batches, report.service.requests, report.service.max_batch_seen
    );

    let recovered = recover_file(&mesh, OrderPolicy::HopOrder, &journal_path)?;
    let state = recovered.session.export_state();
    println!(
        "recovered {} flows from journal (snapshot: {}, replayed tail: {} record(s))",
        state.flows.len(),
        recovered.snapshot_used,
        recovered.replayed
    );
    assert_eq!(
        state, report.state,
        "recovery must be bit-identical to the pre-kill state"
    );
    println!(
        "recovery certified: {} links, {} slots checked, guard slack {:?}",
        recovered.report.links, recovered.report.slots_checked, recovered.report.guard_slack
    );
    assert_eq!(admitted as usize, state.flows.len());

    std::fs::remove_file(&journal_path).ok();
    println!("\nbit-identical recovery, certificate valid.");
    Ok(())
}
