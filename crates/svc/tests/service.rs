//! Gateway service behaviour: batched replies match direct session
//! calls, backpressure is typed, views version by epoch, and shutdown
//! reports the full state.

use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wimesh::{FlowSpec, MeshQos, OrderPolicy, RejectReason};
use wimesh_sim::traffic::VoipCodec;
use wimesh_sim::FlowId;
use wimesh_svc::{
    AdmissionGateway, GatewayConfig, JournalRecord, JournalWriter, Reply, Request, SvcError, Ticket,
};
use wimesh_topology::{generators, NodeId};

fn mesh(n: usize) -> MeshQos {
    MeshQos::builder(generators::chain(n))
        .build()
        .expect("chain mesh")
}

fn voip_toward_gateway(n: u32, far: u32) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec::voip(i, NodeId(far - (i % 2)), NodeId(0), VoipCodec::G729))
        .collect()
}

fn sink_journal() -> JournalWriter {
    JournalWriter::from_writer(Box::new(std::io::sink()))
}

/// A journal kept in memory, readable after the gateway is gone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("journals are UTF-8")
    }
}

#[test]
fn gateway_replies_match_a_direct_session() {
    let mesh = mesh(5);
    let flows = voip_toward_gateway(4, 4);

    // Ground truth: the same calls straight into a session.
    let mut direct = mesh.session(OrderPolicy::HopOrder);
    let direct_verdicts = direct.admit_batch(&flows).expect("direct batch");
    direct.release(FlowId(1)).expect("direct release");

    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        sink_journal(),
        GatewayConfig::default(),
    )
    .expect("gateway starts");

    let tickets: Vec<Ticket> = flows
        .iter()
        .map(|f| client.admit(f.clone()).expect("submit"))
        .collect();
    let replies: Vec<Reply> = tickets
        .into_iter()
        .map(|t| t.wait().expect("reply"))
        .collect();
    for (reply, verdict) in replies.iter().zip(&direct_verdicts) {
        match (reply, verdict.admitted()) {
            (Reply::Admitted(got), Some(want)) => {
                assert_eq!(got.spec, want.spec);
                assert_eq!(got.slots_per_link, want.slots_per_link);
                assert_eq!(got.worst_case_delay, want.worst_case_delay);
            }
            (Reply::Rejected(got), None) => {
                assert_eq!(Some(got), verdict.rejected());
            }
            other => panic!("gateway and session disagree: {other:?}"),
        }
    }

    let released = client
        .release(FlowId(1))
        .expect("submit")
        .wait()
        .expect("reply");
    assert!(matches!(released, Reply::Released(true)));
    let missing = client
        .release(FlowId(77))
        .expect("submit")
        .wait()
        .expect("reply");
    assert!(matches!(missing, Reply::Released(false)));

    let report = gateway.shutdown();
    assert_eq!(report.state, direct.export_state());
    assert_eq!(report.service.released, 1);
    assert_eq!(
        report.service.admitted + report.service.rejected,
        flows.len() as u64
    );
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let mesh = mesh(4);
    // Only a wait serves the queue, so nothing drains it between two
    // submissions.
    let config = GatewayConfig {
        queue_capacity: 1,
        ..GatewayConfig::default()
    };
    let (gateway, client) =
        AdmissionGateway::start(mesh.session(OrderPolicy::HopOrder), sink_journal(), config)
            .expect("gateway starts");

    let call = |id| FlowSpec::best_effort(id, NodeId(3), NodeId(0), 16_000.0);
    let first = client
        .admit(call(0))
        .expect("a 1-deep queue takes one request");
    let overload = client
        .admit(call(1))
        .expect_err("a 1-deep queue refuses the second");
    assert!(matches!(overload, SvcError::Overloaded { capacity: 1 }));
    assert_eq!(client.overload_rejections(), 1);

    // The accepted request still gets a reply.
    first.wait().expect("accepted requests are answered");
    gateway.shutdown();
}

#[test]
fn stale_requests_expire_instead_of_solving() {
    let mesh = mesh(4);
    let config = GatewayConfig {
        request_timeout: Some(Duration::ZERO),
        ..GatewayConfig::default()
    };
    let (gateway, client) =
        AdmissionGateway::start(mesh.session(OrderPolicy::HopOrder), sink_journal(), config)
            .expect("gateway starts");

    let spec = FlowSpec::voip(1, NodeId(3), NodeId(0), VoipCodec::G729);
    let reply = client.admit(spec).expect("submit").wait().expect("reply");
    assert!(matches!(reply, Reply::Expired));

    let report = gateway.shutdown();
    assert_eq!(report.service.expired, 1);
    assert_eq!(report.session.admits, 0, "expired requests never solve");
    assert!(report.state.flows.is_empty());
}

#[test]
fn views_version_by_epoch_and_never_block() {
    let mesh = mesh(5);
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        sink_journal(),
        GatewayConfig::default(),
    )
    .expect("gateway starts");

    let mut reader = client.reader();
    assert_eq!(reader.epoch(), 0);
    assert!(reader.current().admitted.is_empty());

    let spec = FlowSpec::voip(7, NodeId(4), NodeId(0), VoipCodec::G729);
    let reply = client.admit(spec).expect("submit").wait().expect("reply");
    assert!(matches!(reply, Reply::Admitted(_)));

    // The wait published at least one fresh view after the batch.
    assert!(reader.epoch() >= 1);
    let view = reader.current();
    assert!(view.is_admitted(FlowId(7)));
    assert!(view.guaranteed_slots > 0);
    assert_eq!(
        view.best_effort_slots(),
        view.frame_slots - view.guaranteed_slots
    );
    // The granted links carry slot ranges readable from the view.
    for link in view.schedule.links() {
        assert!(view.slot_range(link).is_some());
    }

    gateway.shutdown();
}

#[test]
fn concurrent_clients_coalesce_into_batched_solves() {
    let mesh = mesh(5);
    let flows = voip_toward_gateway(8, 4);
    let config = GatewayConfig {
        max_batch: 16,
        ..GatewayConfig::default()
    };
    let (gateway, client) =
        AdmissionGateway::start(mesh.session(OrderPolicy::HopOrder), sink_journal(), config)
            .expect("gateway starts");

    // Submit from 8 threads through cloned clients; collect every reply.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for spec in flows.clone() {
            let client = client.clone();
            let done = done_tx.clone();
            scope.spawn(move || {
                let reply = client
                    .submit(Request::Admit(spec))
                    .expect("submit")
                    .wait()
                    .expect("reply");
                done.send(reply).expect("collect");
            });
        }
    });
    drop(done_tx);
    let replies: Vec<Reply> = done_rx.iter().collect();
    assert_eq!(replies.len(), flows.len());
    let admitted = replies
        .iter()
        .filter(|r| matches!(r, Reply::Admitted(_)))
        .count();

    let report = gateway.shutdown();
    assert_eq!(report.service.admitted, admitted as u64);
    assert_eq!(report.session.admits, flows.len() as u64);
    // However the race shook out, batches never exceeded the configured
    // bound and every admission solved exactly once.
    assert!(report.service.max_batch_seen <= 16);
    assert_eq!(report.state.flows.len(), admitted);
}

#[test]
fn submissions_after_shutdown_fail_typed() {
    let mesh = mesh(4);
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        sink_journal(),
        GatewayConfig::default(),
    )
    .expect("gateway starts");
    gateway.shutdown();
    let err = client
        .admit(FlowSpec::voip(1, NodeId(3), NodeId(0), VoipCodec::G729))
        .expect_err("closed gateway refuses work");
    assert!(matches!(err, SvcError::ShuttingDown));
}

#[test]
fn configured_policy_is_declared_and_survives_crash_recovery() {
    let mesh = mesh(5);
    let policy = OrderPolicy::GreedySequential {
        key: wimesh::GreedyKey::CliqueLoad,
    };
    let buf = SharedBuf::default();
    let config = GatewayConfig {
        policy: Some(policy),
        snapshot_every: 0,
        ..GatewayConfig::default()
    };
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(policy),
        JournalWriter::from_writer(Box::new(buf.clone())),
        config,
    )
    .expect("gateway starts");
    for spec in voip_toward_gateway(3, 4) {
        client.admit(spec).expect("submit").wait().expect("reply");
    }
    let report = gateway.shutdown();

    let journal = buf.text();
    assert!(
        journal.starts_with("{\"t\":\"svc.policy\",\"policy\":\"greedy:clique\"}"),
        "gateway declares its policy first: {journal}"
    );
    // The operator does not need to restate the policy to recover.
    let recovered = wimesh_svc::recover_recorded(&mesh, &journal).expect("recovers");
    assert_eq!(recovered.session.export_state(), report.state);
    assert_eq!(recovered.session.policy(), policy);
}

#[test]
fn a_resubmitted_admit_is_rejected_and_its_journal_recovers() {
    let mesh = mesh(5);
    let buf = SharedBuf::default();
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        JournalWriter::from_writer(Box::new(buf.clone())),
        GatewayConfig::default(),
    )
    .expect("gateway starts");
    let call = FlowSpec::voip(7, NodeId(4), NodeId(0), VoipCodec::G711);
    let ask = |spec: &FlowSpec| {
        let ticket = client.admit(spec.clone()).expect("submit");
        ticket.wait().expect("reply")
    };

    assert!(matches!(ask(&call), Reply::Admitted(_)));
    // The retry — its reply was lost, say — must not reserve twice.
    let retry = ask(&call);
    assert!(
        matches!(retry, Reply::Rejected(RejectReason::DuplicateFlow)),
        "{retry:?}"
    );
    assert!(matches!(
        ask(&FlowSpec::voip(8, NodeId(3), NodeId(0), VoipCodec::G729)),
        Reply::Admitted(_)
    ));
    // One release frees the id: nothing stays booked under it.
    let released = client.release(call.id).expect("submit").wait();
    assert!(matches!(released, Ok(Reply::Released(true))));
    let again = client.release(call.id).expect("submit").wait();
    assert!(matches!(again, Ok(Reply::Released(false))));

    let report = gateway.shutdown();
    assert_eq!(report.state.flows.len(), 1);
    assert_eq!(report.service.admitted, 2);
    assert_eq!(report.service.rejected, 1);
    // The journal holds the retry like any request; replaying it rejects
    // it again and lands on the same state.
    let recovered =
        wimesh_svc::recover(&mesh, OrderPolicy::HopOrder, &buf.text()).expect("recovers");
    assert_eq!(recovered.session.export_state(), report.state);
}

/// A request the journal cannot hold is answered alone, however the
/// batch coalesces it with its neighbours, and the journal recovers.
#[test]
fn a_bad_request_fails_alone_and_its_journal_recovers() {
    let mesh = mesh(4);
    let buf = SharedBuf::default();
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        JournalWriter::from_writer(Box::new(buf.clone())),
        GatewayConfig::default(),
    )
    .expect("gateway starts");
    let tickets: Vec<Ticket> = [
        FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G729),
        FlowSpec::best_effort(1, NodeId(2), NodeId(0), f64::NAN),
        FlowSpec::voip(2, NodeId(1), NodeId(0), VoipCodec::G729),
    ]
    .into_iter()
    .map(|spec| client.admit(spec).expect("submit"))
    .collect();
    let replies: Vec<Reply> = tickets
        .into_iter()
        .map(|t| t.wait().expect("reply"))
        .collect();
    assert!(matches!(replies[0], Reply::Admitted(_)), "{replies:?}");
    assert!(
        matches!(replies[1], Reply::Rejected(RejectReason::InvalidRequest(_))),
        "{replies:?}"
    );
    assert!(matches!(replies[2], Reply::Admitted(_)), "{replies:?}");

    let report = gateway.shutdown();
    assert_eq!(report.state.flows.len(), 2);
    let recovered =
        wimesh_svc::recover(&mesh, OrderPolicy::HopOrder, &buf.text()).expect("recovers");
    assert_eq!(recovered.session.export_state(), report.state);
}

#[test]
fn configured_policy_mismatch_refuses_to_start() {
    let mesh = mesh(4);
    let config = GatewayConfig {
        policy: Some(OrderPolicy::ExactMilp),
        ..GatewayConfig::default()
    };
    let err = AdmissionGateway::start(mesh.session(OrderPolicy::HopOrder), sink_journal(), config)
        .expect_err("policy disagreement refuses to start");
    assert!(matches!(err, SvcError::Qos(_)), "got {err:?}");
    assert!(err.to_string().contains("policy"));
}

/// A journal writer that panics inside its `panic_at`-th write, after
/// telling the test it got there and waiting for the go-ahead — so the
/// test decides what is queued behind the request that kills the batch.
struct PanicOnWrite {
    writes: usize,
    panic_at: usize,
    entered: mpsc::Sender<()>,
    go: mpsc::Receiver<()>,
}

impl std::io::Write for PanicOnWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes == self.panic_at {
            let _ = self.entered.send(());
            let _ = self.go.recv();
            panic!("journal writer dies on write {}", self.writes);
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Waits on a ticket from a helper thread, so a ticket nobody will ever
/// answer fails the test instead of hanging it.
fn wait_bounded(ticket: Ticket) -> Result<Reply, SvcError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the ticket blocked: its request was left in a queue nobody serves")
}

/// One client with one request in flight: every wait finds its reply
/// missing and serves a batch of one. A request left in the queue after
/// its waiter returned stalls the next ticket and fails `wait_bounded`.
#[test]
fn one_client_in_lockstep_strands_no_request() {
    let mesh = mesh(4);
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        sink_journal(),
        GatewayConfig::default(),
    )
    .expect("gateway starts");
    for i in 0..10_000u32 {
        let spec = FlowSpec::voip(i, NodeId(3), NodeId(0), VoipCodec::G729);
        let admitted = wait_bounded(client.admit(spec).expect("submit")).expect("reply");
        assert!(matches!(admitted, Reply::Admitted(_)), "{admitted:?}");
        let released = wait_bounded(client.release(FlowId(i)).expect("submit")).expect("reply");
        assert!(matches!(released, Reply::Released(true)), "{released:?}");
    }
    let report = gateway.shutdown();
    assert_eq!(report.service.requests, 20_000);
    assert!(report.state.flows.is_empty());
}

/// Eight clients contend for a two-deep queue served one request at a
/// time, so waiters race each other for the combiner lock and answer each
/// other's requests. Every accepted request is answered.
#[test]
fn contending_clients_on_a_tiny_queue_strand_no_request() {
    const CLIENTS: u32 = 8;
    const PER_CLIENT: u32 = 1_000;
    let mesh = mesh(5);
    let config = GatewayConfig {
        queue_capacity: 2,
        max_batch: 1,
        ..GatewayConfig::default()
    };
    let (gateway, client) =
        AdmissionGateway::start(mesh.session(OrderPolicy::HopOrder), sink_journal(), config)
            .expect("gateway starts");

    let replies: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = client.clone();
                scope.spawn(move || {
                    let spec = FlowSpec::voip(c, NodeId(4 - c % 2), NodeId(0), VoipCodec::G729);
                    let mut answered = 0u64;
                    for k in 0..PER_CLIENT {
                        let request = if k % 2 == 0 {
                            Request::Admit(spec.clone())
                        } else {
                            Request::Release(spec.id)
                        };
                        // A queue nobody serves stays full: give up, as
                        // `wait_bounded` does, after 30 s.
                        let deadline = Instant::now() + Duration::from_secs(30);
                        let ticket = loop {
                            match client.submit(request.clone()) {
                                Ok(ticket) => break ticket,
                                Err(SvcError::Overloaded { capacity: 2 }) => {
                                    assert!(
                                        Instant::now() < deadline,
                                        "the queue stayed full: nobody served it"
                                    );
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("submit failed: {e}"),
                            }
                        };
                        let reply = wait_bounded(ticket).expect("reply");
                        assert!(
                            matches!(
                                reply,
                                Reply::Admitted(_) | Reply::Rejected(_) | Reply::Released(_)
                            ),
                            "{reply:?}"
                        );
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .sum()
    });

    assert_eq!(replies, u64::from(CLIENTS * PER_CLIENT));
    let report = gateway.shutdown();
    assert_eq!(report.service.requests, replies);
    assert_eq!(report.service.max_batch_seen, 1);
    assert!(report.state.flows.is_empty(), "every client released last");
}

/// One client that submits k ≤ `max_batch` requests and then waits on
/// the first has all k answered by that wait's one batch, in submission
/// order: nothing serves the queue before a wait.
#[test]
fn a_client_s_window_is_one_batch_in_submission_order() {
    let mesh = mesh(5);
    let buf = SharedBuf::default();
    let config = GatewayConfig {
        snapshot_every: 0,
        ..GatewayConfig::default()
    };
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        JournalWriter::from_writer(Box::new(buf.clone())),
        config,
    )
    .expect("gateway starts");
    let call = |id| FlowSpec::voip(id, NodeId(4 - id % 2), NodeId(0), VoipCodec::G729);
    let mut tickets: Vec<Ticket> = [
        Request::Admit(call(0)),
        Request::Admit(call(1)),
        Request::Release(FlowId(0)),
        Request::Admit(call(2)),
        Request::Rebalance,
    ]
    .into_iter()
    .map(|request| client.submit(request).expect("submit"))
    .collect();
    let mut reader = client.reader();
    // However long the client takes, nothing serves the queue before a
    // wait.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(reader.epoch(), 0, "a request was served before any wait");

    let first = tickets.remove(0).wait();
    assert!(matches!(first, Ok(Reply::Admitted(_))), "{first:?}");
    assert_eq!(reader.current().batches, 1);
    let rest: Vec<Reply> = tickets
        .into_iter()
        .map(|t| t.wait().expect("reply"))
        .collect();
    assert!(
        matches!(
            rest[..],
            [
                Reply::Admitted(_),
                Reply::Released(true),
                Reply::Admitted(_),
                Reply::Rebalanced
            ]
        ),
        "{rest:?}"
    );
    assert_eq!(reader.epoch(), 1, "the later waits found their replies in");

    let report = gateway.shutdown();
    assert_eq!(report.service.batches, 1);
    assert_eq!(report.service.max_batch_seen, 5);
    let log = wimesh_svc::parse_journal(&buf.text()).expect("the journal parses");
    assert_eq!(
        log.records,
        [
            JournalRecord::AdmitBatch(vec![call(0), call(1)]),
            JournalRecord::Release(FlowId(0)),
            JournalRecord::AdmitBatch(vec![call(2)]),
            JournalRecord::Rebalance,
        ]
    );
}

/// `ServiceStats::batches` counts exactly the waits that found their reply
/// missing. With one client and at most `max_batch` requests between
/// windows, such a wait serves one batch, and the published view's epoch
/// moves on it and on no other wait.
#[test]
fn batches_count_the_waits_that_found_their_reply_missing() {
    let mesh = mesh(5);
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        sink_journal(),
        GatewayConfig::default(),
    )
    .expect("gateway starts");
    let reader = client.reader();
    let windows = [1u32, 2, 5, 16, 3, 16, 1, 7];
    let mut serving_waits = 0u64;
    let mut id = 0u32;
    for (w, &k) in windows.iter().enumerate() {
        let mut tickets: Vec<Ticket> = (0..k)
            .map(|i| {
                id += 1;
                let request = if i % 2 == 0 {
                    Request::Admit(FlowSpec::voip(
                        id,
                        NodeId(4 - id % 2),
                        NodeId(0),
                        VoipCodec::G729,
                    ))
                } else {
                    Request::Release(FlowId(id - 1))
                };
                client.submit(request).expect("submit")
            })
            .collect();
        if w % 2 == 1 {
            tickets.reverse();
        }
        for ticket in tickets {
            let before = reader.epoch();
            ticket.wait().expect("reply");
            if reader.epoch() != before {
                serving_waits += 1;
            }
        }
    }

    let report = gateway.shutdown();
    assert_eq!(serving_waits, windows.len() as u64);
    assert_eq!(report.service.batches, serving_waits);
    assert_eq!(
        report.service.requests,
        windows.iter().map(|&k| u64::from(k)).sum::<u64>()
    );
}

/// Batches depend on the client's submit and wait order alone, so one
/// request sequence replayed into two fresh gateways writes byte-identical
/// journals, snapshots included.
#[test]
fn one_request_sequence_writes_identical_journals() {
    let mesh = mesh(6);
    let run = || {
        let buf = SharedBuf::default();
        let config = GatewayConfig {
            snapshot_every: 7,
            ..GatewayConfig::default()
        };
        let (gateway, client) = AdmissionGateway::start(
            mesh.session(OrderPolicy::HopOrder),
            JournalWriter::from_writer(Box::new(buf.clone())),
            config,
        )
        .expect("gateway starts");
        let mut seed = 0x5eed_u64;
        let mut draw = |bound: u32| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            u32::try_from((seed >> 33) % u64::from(bound)).expect("below bound")
        };
        let mut window = Vec::new();
        let mut target = 1 + draw(20);
        for id in 0..300u32 {
            let request = if draw(3) == 0 {
                Request::Release(FlowId(draw(id + 1)))
            } else {
                let src = NodeId(1 + draw(5));
                Request::Admit(FlowSpec::voip(id, src, NodeId(0), VoipCodec::G729))
            };
            window.push(client.submit(request).expect("submit"));
            if window.len() as u32 == target {
                for ticket in window.drain(..) {
                    // A dropped ticket's request is served all the same.
                    if draw(8) != 0 {
                        ticket.wait().expect("reply");
                    }
                }
                target = 1 + draw(20);
            }
        }
        drop(window);
        gateway.shutdown();
        buf.text()
    };
    let first = run();
    assert!(first.contains("\"t\":\"svc.snap\""), "{first}");
    assert!(first == run(), "two replays wrote different journals");
}

#[test]
fn dropped_and_late_tickets_leave_the_worker_serving() {
    let mesh = mesh(5);
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(OrderPolicy::HopOrder),
        sink_journal(),
        GatewayConfig::default(),
    )
    .expect("gateway starts");
    let call = |id| FlowSpec::voip(id, NodeId(4), NodeId(0), VoipCodec::G729);

    // Nobody waits for this reply; the next wait serves it anyway.
    drop(client.admit(call(0)).expect("submit"));

    // Batches answer in queue order, so by the time `second` is
    // answered `first` already is: its wait finds the reply without
    // serving.
    let first = client.admit(call(1)).expect("submit");
    let second = client.admit(call(2)).expect("submit");
    assert!(matches!(wait_bounded(second), Ok(Reply::Admitted(_))));
    assert!(matches!(wait_bounded(first), Ok(Reply::Admitted(_))));

    let report = gateway.shutdown();
    assert_eq!(report.service.requests, 3);
    assert_eq!(report.service.admitted, 3, "the dropped ticket's admit ran");
}

#[test]
fn a_dead_worker_closes_the_queue() {
    let mesh = mesh(5);
    let (entered_tx, entered_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let journal = JournalWriter::from_writer(Box::new(PanicOnWrite {
        writes: 0,
        panic_at: 2,
        entered: entered_tx,
        go: go_rx,
    }));
    let config = GatewayConfig {
        snapshot_every: 0,
        ..GatewayConfig::default()
    };
    let (gateway, client) =
        AdmissionGateway::start(mesh.session(OrderPolicy::HopOrder), journal, config)
            .expect("gateway starts");
    let call = |id| FlowSpec::voip(id, NodeId(4), NodeId(0), VoipCodec::G729);

    // Write 1: a healthy gateway.
    let first = client
        .admit(call(0))
        .expect("submit")
        .wait()
        .expect("reply");
    assert!(matches!(first, Reply::Admitted(_)));

    // Write 2 kills the batch that holds `in_flight`; `queued` is
    // submitted while the batch sits inside that write, so it is still
    // in the queue when the batch unwinds. The waiter runs the batch.
    let in_flight = client.admit(call(1)).expect("submit");
    let (in_flight_tx, in_flight_rx) = mpsc::channel();
    std::thread::spawn(move || in_flight_tx.send(in_flight.wait()));
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker reached its second journal write");
    let queued = client.admit(call(2)).expect("the queue is still open");
    go_tx.send(()).expect("the writer is waiting");

    assert!(matches!(
        in_flight_rx.recv_timeout(Duration::from_secs(30)),
        Ok(Err(SvcError::ShuttingDown))
    ));
    assert!(matches!(wait_bounded(queued), Err(SvcError::ShuttingDown)));
    // The queue was closed before `queued` was dropped: nothing new gets in.
    let late = client
        .admit(call(3))
        .expect_err("a dead worker accepts nothing");
    assert!(matches!(late, SvcError::ShuttingDown));

    // Shutdown still surfaces the worker's panic to whoever owns the gateway.
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gateway.shutdown()));
    let panic = joined.expect_err("shutdown re-raises the worker's panic");
    let message = panic
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        message.contains("journal writer dies on write 2"),
        "{message}"
    );
}
