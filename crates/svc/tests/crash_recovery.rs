//! Crash-point recovery harness: a churn workload is journaled, then the
//! journal is truncated at *every* record/line boundary and mid-line
//! (torn write) and recovered from each cut. Every cut must yield either
//! a certifier-valid earlier state or a typed [`RecoveryError`] — never
//! a panic, never a silently wrong schedule.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use proptest::prelude::*;
use wimesh::{FlowSpec, GreedyKey, MeshQos, OrderPolicy, RejectReason, SessionState};
use wimesh_sim::traffic::VoipCodec;
use wimesh_sim::FlowId;
use wimesh_svc::{
    recover, recover_recorded, JournalRecord, JournalWriter, JournaledSession, RecoveryError,
    SvcError,
};
use wimesh_topology::{generators, NodeId};

fn mesh(n: usize) -> MeshQos {
    MeshQos::builder(generators::chain(n))
        .build()
        .expect("chain mesh")
}

/// A `Write` handing the test a view of everything journaled so far.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("journals are UTF-8")
    }
}

impl Write for SharedBuf {
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

fn voip(id: u32, src: u32) -> FlowSpec {
    FlowSpec::voip(id, NodeId(src), NodeId(0), VoipCodec::G729)
}

/// Runs a churn script through a journaled session, returning the
/// journal text, the final state, and the state after every applied
/// mutation (the oracle a truncated recovery must land on).
fn churn(
    mesh: &MeshQos,
    policy: OrderPolicy,
    snapshot_every: u64,
) -> (String, SessionState, Vec<SessionState>) {
    let buf = SharedBuf::default();
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut journaled = JournaledSession::new(mesh.session(policy), writer, snapshot_every);

    let mut oracle = vec![journaled.session().export_state()];
    journaled
        .admit_flows(&[voip(1, 4), voip(2, 3)])
        .expect("first batch");
    oracle.push(journaled.session().export_state());
    journaled.admit_flows(&[voip(3, 4)]).expect("second batch");
    oracle.push(journaled.session().export_state());
    journaled.release_flow(FlowId(2)).expect("release");
    oracle.push(journaled.session().export_state());
    journaled.snapshot_now().expect("snapshot");
    journaled
        .admit_flows(&[voip(4, 2), voip(5, 3)])
        .expect("third batch");
    oracle.push(journaled.session().export_state());
    journaled.rebalance_flows().expect("rebalance");
    oracle.push(journaled.session().export_state());
    journaled.release_flow(FlowId(1)).expect("release");
    oracle.push(journaled.session().export_state());

    let truth = journaled.session().export_state();
    (buf.text(), truth, oracle)
}

fn assert_slot_layout_identical(a: &SessionState, b: &SessionState) {
    assert_eq!(a.ranges, b.ranges, "slot layouts differ");
    assert_eq!(a.guaranteed_slots, b.guaranteed_slots);
    let ids = |s: &SessionState| s.flows.iter().map(|f| f.spec.id).collect::<Vec<_>>();
    assert_eq!(ids(a), ids(b), "admitted flow sets differ");
}

#[test]
fn full_journal_recovers_bit_identical() {
    let mesh = mesh(5);
    let (journal, truth, _) = churn(&mesh, OrderPolicy::HopOrder, 0);
    let recovered = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");
    assert!(!recovered.torn_tail);
    assert!(recovered.snapshot_used, "the explicit snapshot is used");
    assert_eq!(recovered.replayed, 3, "batch + rebalance + release tail");
    let state = recovered.session.export_state();
    assert_slot_layout_identical(&state, &truth);
    assert_eq!(state, truth, "recovery is bit-identical");
    assert_eq!(recovered.report.makespan, truth.guaranteed_slots);
}

#[test]
fn exact_milp_journal_recovers_bit_identical() {
    let mesh = mesh(5);
    let (journal, truth, _) = churn(&mesh, OrderPolicy::ExactMilp, 0);
    let recovered = recover(&mesh, OrderPolicy::ExactMilp, &journal).expect("recovers");
    assert_eq!(recovered.session.export_state(), truth);
}

#[test]
fn every_line_boundary_truncation_recovers_to_a_certified_prefix_state() {
    let mesh = mesh(5);
    let (journal, _, oracle) = churn(&mesh, OrderPolicy::HopOrder, 0);
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() >= 10, "churn produced a real journal");

    for keep in 0..=lines.len() {
        let cut: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        let recovered = recover(&mesh, OrderPolicy::HopOrder, &cut)
            .unwrap_or_else(|e| panic!("cut after line {keep} failed: {e}"));
        // A complete-line prefix of a valid journal replays to the
        // state after some prefix of mutations — and to nothing else.
        let state = recovered.session.export_state();
        let matched = oracle.iter().any(|o| *o == state);
        assert!(
            matched,
            "cut after line {keep} recovered to a state outside the oracle"
        );
        assert_eq!(recovered.report.makespan, state.guaranteed_slots);
    }
}

#[test]
fn torn_writes_at_every_byte_of_the_tail_are_dropped_not_misread() {
    let mesh = mesh(5);
    let (journal, _, oracle) = churn(&mesh, OrderPolicy::HopOrder, 0);
    let lines: Vec<&str> = journal.lines().collect();

    // For every line, simulate the crash landing partway through its
    // append: keep all prior lines plus a prefix of the torn line.
    for (idx, line) in lines.iter().enumerate() {
        let base: String = lines[..idx].iter().map(|l| format!("{l}\n")).collect();
        for cut in [1, line.len() / 2, line.len().saturating_sub(1)] {
            if cut == 0 || cut >= line.len() {
                continue;
            }
            let torn = format!("{base}{}", &line[..cut]);
            let recovered = recover(&mesh, OrderPolicy::HopOrder, &torn)
                .unwrap_or_else(|e| panic!("torn write in line {} failed: {e}", idx + 1));
            assert!(recovered.torn_tail, "line {} cut at {cut} bytes", idx + 1);
            let state = recovered.session.export_state();
            assert!(
                oracle.iter().any(|o| *o == state),
                "torn write in line {} recovered outside the oracle",
                idx + 1
            );
        }
    }
}

#[test]
fn auto_snapshots_bound_the_replay_tail() {
    let mesh = mesh(5);
    // Snapshot after every mutation: recovery replays at most nothing.
    let (journal, truth, _) = churn(&mesh, OrderPolicy::HopOrder, 1);
    let recovered = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");
    assert!(recovered.snapshot_used);
    assert_eq!(recovered.replayed, 0);
    assert_eq!(recovered.session.export_state(), truth);
}

#[test]
fn corruption_is_a_typed_error_with_the_line_number() {
    let mesh = mesh(5);
    let (journal, _, _) = churn(&mesh, OrderPolicy::HopOrder, 0);
    let mut lines: Vec<String> = journal.lines().map(String::from).collect();

    // A complete-but-garbage line mid-stream cannot be a torn write.
    lines[1] = String::from("{\"t\":\"svc.garbage\"}");
    let corrupted: String = lines.iter().map(|l| format!("{l}\n")).collect();
    match recover(&mesh, OrderPolicy::HopOrder, &corrupted) {
        Err(RecoveryError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Corrupt at line 2, got {other:?}"),
    }
}

#[test]
fn policy_mismatch_with_the_snapshot_is_rejected() {
    let mesh = mesh(5);
    let (journal, _, _) = churn(&mesh, OrderPolicy::HopOrder, 1);
    match recover(&mesh, OrderPolicy::ExactMilp, &journal) {
        Err(RecoveryError::StateMismatch(why)) => {
            assert!(why.contains("policy"), "unhelpful mismatch message: {why}");
        }
        other => panic!("expected StateMismatch, got {other:?}"),
    }
}

/// [`churn`], but with a leading `svc.policy` declaration — the journal
/// an [`wimesh_svc::AdmissionGateway`] with [`GatewayConfig::policy`]
/// set would produce.
fn churn_declared(
    mesh: &MeshQos,
    policy: OrderPolicy,
    snapshot_every: u64,
) -> (String, SessionState) {
    let buf = SharedBuf::default();
    let mut writer = JournalWriter::from_writer(Box::new(buf.clone()));
    writer
        .append(&JournalRecord::Policy(policy))
        .expect("policy declaration");
    let mut journaled = JournaledSession::new(mesh.session(policy), writer, snapshot_every);
    journaled
        .admit_flows(&[voip(1, 4), voip(2, 3)])
        .expect("first batch");
    journaled.admit_flows(&[voip(3, 2)]).expect("second batch");
    journaled.release_flow(FlowId(1)).expect("release");
    let truth = journaled.session().export_state();
    (buf.text(), truth)
}

#[test]
fn greedy_policy_journal_recovers_bit_identical() {
    let mesh = mesh(5);
    let policy = OrderPolicy::GreedySequential {
        key: GreedyKey::CliqueLoad,
    };
    let (journal, truth) = churn_declared(&mesh, policy, 0);
    let recovered = recover(&mesh, policy, &journal).expect("recovers");
    assert!(!recovered.snapshot_used, "no snapshot in this journal");
    assert_eq!(recovered.session.export_state(), truth);
    assert_eq!(recovered.report.makespan, truth.guaranteed_slots);
}

#[test]
fn declared_policy_mismatch_is_rejected_even_without_a_snapshot() {
    let mesh = mesh(5);
    let policy = OrderPolicy::GreedySequential {
        key: GreedyKey::CliqueLoad,
    };
    let (journal, _) = churn_declared(&mesh, policy, 0);
    match recover(&mesh, OrderPolicy::ExactMilp, &journal) {
        Err(RecoveryError::StateMismatch(why)) => {
            assert!(why.contains("policy"), "unhelpful mismatch message: {why}");
        }
        other => panic!("expected StateMismatch, got {other:?}"),
    }
}

#[test]
fn recover_recorded_reads_the_policy_from_the_journal() {
    let mesh = mesh(5);
    let policy = OrderPolicy::GreedySequential {
        key: GreedyKey::Demand,
    };
    let (journal, truth) = churn_declared(&mesh, policy, 0);
    let recovered = recover_recorded(&mesh, &journal).expect("recovers");
    assert_eq!(recovered.session.export_state(), truth);
    assert_eq!(recovered.session.policy(), policy);

    // Snapshot-only journals (no svc.policy record) also work: the
    // snapshot carries the policy.
    let (journal, truth, _) = churn(&mesh, OrderPolicy::HopOrder, 1);
    let recovered = recover_recorded(&mesh, &journal).expect("recovers from snapshot policy");
    assert_eq!(recovered.session.export_state(), truth);
}

#[test]
fn recover_recorded_without_any_recorded_policy_is_a_mismatch() {
    let mesh = mesh(5);
    // No svc.policy record, no snapshot.
    let (journal, _, _) = churn(&mesh, OrderPolicy::HopOrder, 0);
    let lines: Vec<&str> = journal.lines().collect();
    let no_snap: String = lines
        .iter()
        .take_while(|l| !l.contains("svc.snap"))
        .map(|l| format!("{l}\n"))
        .collect();
    match recover_recorded(&mesh, &no_snap) {
        Err(RecoveryError::StateMismatch(why)) => {
            assert!(why.contains("no admission policy"), "message: {why}");
        }
        other => panic!("expected StateMismatch, got {other:?}"),
    }
}

#[test]
fn recovery_resumes_and_the_extended_journal_still_recovers() {
    let mesh = mesh(5);
    let (journal, truth, _) = churn(&mesh, OrderPolicy::HopOrder, 0);
    let recovered = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");

    // Resume service on the recovered session, appending to the same
    // journal in memory.
    let buf = SharedBuf(Arc::new(Mutex::new(journal.into_bytes())));
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut resumed = JournaledSession::new(recovered.session, writer, 0);
    resumed.admit_flows(&[voip(9, 4)]).expect("resumed admit");
    let extended_truth = resumed.session().export_state();
    assert_ne!(extended_truth, truth, "the resumed mutation changed state");

    let again = recover(&mesh, OrderPolicy::HopOrder, &buf.text()).expect("re-recovers");
    assert_eq!(again.session.export_state(), extended_truth);
}

/// On `grid(4,4)` the live session's conflict graph is numbered by its
/// history — releases drain vertices, a rejected admit rolls its new
/// vertices back — while a recovered session's graph is built afresh.
/// The exported state must not show the difference.
#[test]
fn grid_churn_with_vertex_rollbacks_recovers_bit_identical() {
    let mesh = MeshQos::builder(generators::grid(4, 4))
        .build()
        .expect("grid");
    let buf = SharedBuf::default();
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 0);

    let call =
        |id: u32, src: u32, dst: u32| FlowSpec::voip(id, NodeId(src), NodeId(dst), VoipCodec::G711);
    let mut rejected = 0;
    for round in 0..6u32 {
        let id = round * 10;
        let batch = [
            call(id, round, 15 - round),
            call(id + 1, 12 - round, 3 + round),
            call(id + 2, (5 * round + 1) % 16, (7 * round + 10) % 16),
        ];
        journaled.admit_flows(&batch).expect("admit");
        // Far too heavy to fit: its fresh links are inserted, then rolled
        // back.
        let heavy = FlowSpec::guaranteed(
            id + 3,
            NodeId((round + 4) % 16),
            NodeId((round + 11) % 16),
            20_000_000.0,
            std::time::Duration::from_millis(150),
        );
        let verdicts = journaled.admit_flows(&[heavy]).expect("heavy admit");
        rejected += verdicts.iter().filter(|v| !v.is_admitted()).count();
        if round % 2 == 1 {
            journaled
                .release_flow(FlowId(id - 10 + 1))
                .expect("release");
        }
        if round == 2 {
            journaled.snapshot_now().expect("snapshot");
        }
    }
    assert_eq!(rejected, 6, "every heavy flow is rolled back");
    let truth = journaled.session().export_state();
    assert!(truth.flows.len() >= 10 && truth.warm_pairs.len() >= 100);

    // However many pairs and ranges, a snapshot is `flows + 4` lines.
    let snap = SharedBuf::default();
    JournalWriter::from_writer(Box::new(snap.clone()))
        .append(&JournalRecord::Snapshot(truth.clone()))
        .expect("appends");
    assert_eq!(snap.text().lines().count(), truth.flows.len() + 4);

    let recovered = recover(&mesh, OrderPolicy::HopOrder, &buf.text()).expect("recovers");
    assert!(recovered.snapshot_used && recovered.replayed > 0);
    assert_eq!(recovered.session.export_state(), truth);
}

/// A release whose recomputed hop order overflows the frame keeps the
/// previous order instead of failing after its record was journaled, so
/// the journal stays replayable.
#[test]
fn release_near_capacity_does_not_poison_the_journal() {
    let mesh = mesh(6);
    let buf = SharedBuf::default();
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 0);
    let flows: Vec<FlowSpec> = [
        (0, 5, 700_000.0),
        (1, 0, 700_000.0),
        (1, 4, 700_000.0),
        (4, 0, 100_000.0),
        (1, 3, 600_000.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, (src, dst, rate))| {
        let deadline = std::time::Duration::from_millis(150);
        FlowSpec::guaranteed(id as u32, NodeId(src), NodeId(dst), rate, deadline)
    })
    .collect();
    for f in &flows {
        let verdicts = journaled
            .admit_flows(std::slice::from_ref(f))
            .expect("admit");
        assert!(verdicts[0].is_admitted());
    }
    assert!(journaled.release_flow(FlowId(3)).expect("release succeeds"));
    let truth = journaled.session().export_state();

    let recovered = recover(&mesh, OrderPolicy::HopOrder, &buf.text()).expect("recovers");
    assert_eq!(recovered.session.export_state(), truth);
}

/// The four requests a journal cannot hold or replay: a rate of NaN, of
/// +inf or of -5, and a deadline past `u64::MAX` nanoseconds. Each is the
/// middle of a batch of three admits; it is answered on its own, the
/// other two are admitted live, and the journal recovers to the live
/// state, certified.
#[test]
fn a_bad_request_is_answered_alone_and_the_journal_recovers() {
    let mesh = mesh(4);
    let bad = [
        FlowSpec::best_effort(2, NodeId(3), NodeId(0), f64::NAN),
        FlowSpec::best_effort(2, NodeId(3), NodeId(0), f64::INFINITY),
        FlowSpec::guaranteed(2, NodeId(3), NodeId(0), 64_000.0, std::time::Duration::MAX),
        FlowSpec::best_effort(2, NodeId(3), NodeId(0), -5.0),
    ];
    for middle in bad {
        let buf = SharedBuf::default();
        let writer = JournalWriter::from_writer(Box::new(buf.clone()));
        let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 0);
        journaled.admit_flows(&[voip(0, 3)]).expect("good admit");
        let verdicts = journaled
            .admit_flows(&[voip(1, 2), middle.clone(), voip(3, 1)])
            .unwrap_or_else(|e| panic!("{middle:?} failed the batch: {e}"));
        assert!(verdicts[0].is_admitted(), "{middle:?}");
        assert!(
            matches!(
                verdicts[1].rejected(),
                Some(RejectReason::InvalidRequest(_))
            ),
            "{middle:?}: {:?}",
            verdicts[1]
        );
        assert!(verdicts[2].is_admitted(), "{middle:?}");
        let live = journaled.session().export_state();
        assert_eq!(live.flows.len(), 3);

        let journal = buf.text();
        let recovered = recover(&mesh, OrderPolicy::HopOrder, &journal)
            .unwrap_or_else(|e| panic!("{middle:?}: {e}\n{journal}"));
        assert_eq!(recovered.session.export_state(), live, "{middle:?}");
        assert_eq!(recovered.report.makespan, live.guaranteed_slots);
    }
}

/// The writer refuses, as a typed error and before writing a byte, every
/// record its reader would refuse.
#[test]
fn the_writer_refuses_what_its_reader_would() {
    let buf = SharedBuf::default();
    let mut writer = JournalWriter::from_writer(Box::new(buf.clone()));
    for spec in [
        FlowSpec::best_effort(1, NodeId(3), NodeId(0), f64::NAN),
        FlowSpec::guaranteed(1, NodeId(3), NodeId(0), 64_000.0, std::time::Duration::MAX),
    ] {
        let record = JournalRecord::AdmitBatch(vec![voip(0, 2), spec]);
        let err = writer.append(&record).expect_err("unreadable record");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
    let err = writer
        .append(&JournalRecord::AdmitBatch(Vec::new()))
        .expect_err("empty");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(buf.text(), "");
}

/// A disk onto a [`SharedBuf`] that takes `budget` bytes, makes one short
/// write with what is left of them, fails the next write as a full disk
/// does, and then takes everything again, as a disk someone freed space
/// on.
struct FaultyDisk {
    buf: SharedBuf,
    /// Bytes left before the fault; `None` once it has fired.
    budget: Option<usize>,
    fired: Arc<AtomicBool>,
}

impl FaultyDisk {
    fn new(budget: usize) -> (Self, SharedBuf, Arc<AtomicBool>) {
        let disk = FaultyDisk {
            buf: SharedBuf::default(),
            budget: Some(budget),
            fired: Arc::default(),
        };
        let (buf, fired) = (disk.buf.clone(), Arc::clone(&disk.fired));
        (disk, buf, fired)
    }
}

impl Write for FaultyDisk {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        match self.budget {
            Some(0) => {
                self.budget = None;
                self.fired.store(true, Ordering::SeqCst);
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "no space left on device",
                ))
            }
            Some(left) => {
                let n = left.min(data.len());
                self.budget = Some(left - n);
                self.buf.write(&data[..n])
            }
            None => self.buf.write(data),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `step`th mutation of a short churn on chain(6), whatever its
/// result.
fn churn_step(journaled: &mut JournaledSession, step: usize) -> Result<(), SvcError> {
    match step {
        0 => journaled.admit_flows(&[voip(1, 4)]).map(drop),
        1 => journaled.admit_flows(&[voip(2, 3), voip(3, 5)]).map(drop),
        2 => journaled.release_flow(FlowId(1)).map(drop),
        3 => journaled.admit_flows(&[voip(4, 2)]).map(drop),
        4 => journaled.rebalance_flows(),
        _ => journaled.release_flow(FlowId(3)).map(drop),
    }
}

const CHURN_STEPS: usize = 6;

/// A write that fails at any byte of the journal — inside a mutation's
/// record or inside an auto-snapshot — stops the writer: every later
/// mutation fails as a journal error and is not applied, so the file
/// holds complete records and at most one torn one at its end, and it
/// recovers, certified, to the live state.
#[test]
fn a_failed_append_stops_the_writer_at_every_byte_offset() {
    let mesh = mesh(6);
    let (whole, _, _) = FaultyDisk::new(usize::MAX);
    let buf = whole.buf.clone();
    let writer = JournalWriter::from_writer(Box::new(whole));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 2);
    for step in 0..CHURN_STEPS {
        churn_step(&mut journaled, step).expect("no fault");
    }
    let total = buf.text().len();
    assert!(buf.text().matches("svc.snap\"").count() >= 3);

    for budget in 0..=total {
        let (disk, buf, fired) = FaultyDisk::new(budget);
        let writer = JournalWriter::from_writer(Box::new(disk));
        let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 2);
        for step in 0..CHURN_STEPS {
            let stopped = fired.load(Ordering::SeqCst);
            let before = journaled.session().export_state();
            match churn_step(&mut journaled, step) {
                Ok(()) => assert!(!stopped, "budget {budget}: step {step} after the fault"),
                Err(SvcError::Journal(_)) => {
                    assert_eq!(
                        journaled.session().export_state(),
                        before,
                        "budget {budget}"
                    );
                }
                Err(e) => panic!("budget {budget}: step {step}: {e}"),
            }
        }
        let live = journaled.session().export_state();
        let journal = buf.text();
        let recovered = recover(&mesh, OrderPolicy::HopOrder, &journal)
            .unwrap_or_else(|e| panic!("budget {budget}: {e}\n{journal}"));
        assert_eq!(recovered.session.export_state(), live, "budget {budget}");
        assert_eq!(recovered.report.makespan, live.guaranteed_slots);
    }
}

/// A mutation whose record is complete is applied, and answered as such,
/// even when the auto-snapshot after it fails; the request after it is
/// refused, and the journal recovers to the live state.
#[test]
fn a_failed_snapshot_does_not_fail_the_applied_mutation() {
    let mesh = mesh(6);
    let (whole, _, _) = FaultyDisk::new(usize::MAX);
    let buf = whole.buf.clone();
    let writer = JournalWriter::from_writer(Box::new(whole));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 2);
    journaled.admit_flows(&[voip(1, 4)]).expect("first admit");
    journaled.admit_flows(&[voip(2, 3)]).expect("second admit");
    let snapshot_at = buf.text().find("{\"t\":\"svc.snap\"").expect("a snapshot");

    let (disk, buf, fired) = FaultyDisk::new(snapshot_at + 30);
    let writer = JournalWriter::from_writer(Box::new(disk));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 2);
    journaled.admit_flows(&[voip(1, 4)]).expect("first admit");
    let verdicts = journaled
        .admit_flows(&[voip(2, 3)])
        .expect("the admit is applied");
    assert!(fired.load(Ordering::SeqCst), "the snapshot failed");
    assert!(verdicts[0].is_admitted());
    let live = journaled.session().export_state();
    assert_eq!(live.flows.len(), 2);

    let refused = journaled.admit_flows(&[voip(3, 2)]);
    assert!(matches!(refused, Err(SvcError::Journal(_))), "{refused:?}");
    let refused = journaled.release_flow(FlowId(1));
    assert!(matches!(refused, Err(SvcError::Journal(_))), "{refused:?}");
    assert_eq!(journaled.session().export_state(), live);

    let recovered = recover(&mesh, OrderPolicy::HopOrder, &buf.text()).expect("recovers");
    assert!(recovered.torn_tail, "the snapshot is torn");
    assert_eq!(recovered.session.export_state(), live);
}

/// The flows of `release_near_capacity_does_not_poison_the_journal`:
/// without flow 3 the recomputed hop order needs 33 of the frame's 32
/// minislots.
fn near_capacity_flows() -> Vec<FlowSpec> {
    [
        (0, 5, 700_000.0),
        (1, 0, 700_000.0),
        (1, 4, 700_000.0),
        (4, 0, 100_000.0),
        (1, 3, 600_000.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, (src, dst, rate))| {
        let deadline = std::time::Duration::from_millis(150);
        FlowSpec::guaranteed(id as u32, NodeId(src), NodeId(dst), rate, deadline)
    })
    .collect()
}

/// A `GreedySequential` release near capacity keeps the previous order,
/// as `HopOrder` does, so its journaled record replays.
#[test]
fn greedy_release_near_capacity_does_not_poison_the_journal() {
    let mesh = mesh(6);
    let policy = OrderPolicy::GreedySequential {
        key: GreedyKey::Demand,
    };
    let buf = SharedBuf::default();
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut journaled = JournaledSession::new(mesh.session(policy), writer, 0);
    for f in near_capacity_flows() {
        let verdicts = journaled.admit_flows(&[f]).expect("admit");
        assert!(verdicts[0].is_admitted());
    }
    assert!(journaled.release_flow(FlowId(3)).expect("release succeeds"));
    let truth = journaled.session().export_state();

    let recovered = recover(&mesh, policy, &buf.text()).expect("recovers");
    assert_eq!(recovered.session.export_state(), truth);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random churn scripts journal + recover bit-identically, from the
    /// full journal and from a random line-boundary truncation.
    #[test]
    fn random_churn_recovers(script in proptest::collection::vec(0u32..6, 1..10), cut_seed in 0usize..64) {
        let mesh = mesh(5);
        let buf = SharedBuf::default();
        let writer = JournalWriter::from_writer(Box::new(buf.clone()));
        let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 3);
        let mut next_id = 0u32;
        let mut oracle = vec![journaled.session().export_state()];
        for op in script {
            match op {
                // Admission batches of 1..=3 flows from varying sources.
                0 | 1 | 2 => {
                    let specs: Vec<FlowSpec> = (0..=op)
                        .map(|k| {
                            next_id += 1;
                            voip(next_id, 2 + (next_id + k) % 3)
                        })
                        .collect();
                    journaled.admit_flows(&specs).expect("admit");
                }
                3 | 4 => {
                    // Release the oldest still-admitted flow, if any.
                    if let Some(f) = journaled.session().export_state().flows.first() {
                        let id = f.spec.id;
                        journaled.release_flow(id).expect("release");
                    }
                }
                _ => journaled.rebalance_flows().expect("rebalance"),
            }
            oracle.push(journaled.session().export_state());
        }
        let journal = buf.text();
        let truth = journaled.session().export_state();

        let recovered = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");
        prop_assert_eq!(recovered.session.export_state(), truth);

        let lines: Vec<&str> = journal.lines().collect();
        let keep = cut_seed % (lines.len() + 1);
        let cut: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        let partial = recover(&mesh, OrderPolicy::HopOrder, &cut).expect("partial recovers");
        let state = partial.session.export_state();
        prop_assert!(oracle.iter().any(|o| *o == state));
    }
}
