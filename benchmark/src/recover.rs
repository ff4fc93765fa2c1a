//! The recovery workload: the journal layer read instead of written.
//!
//! Set-up drives a `JournaledSession` in process — no threads, so the
//! journal bytes are a function of the seed alone — and tears the tail.
//! The run then times `recover_file` on that journal.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use wimesh::{FlowAdmission, MeshQos, SessionState};
use wimesh_svc::{
    parse_journal, recover_file, GatewayConfig, JournalWriter, JournaledSession, Reply, Request,
};

use crate::certify::CertInputs;
use crate::gateway::{same_state, Counts};
use crate::replay::{Timer, Tracer};
use crate::workload::{Churn, Generator, Workload};
use crate::Res;

/// Requests the in-process writer takes from the generator at a time
/// and coalesces the way the gateway's worker would.
const BATCH: usize = 8;

/// Mutations the journal ends with after its last snapshot: half a
/// snapshot period, for every seed, so that the replayed tail costs the
/// same whichever seed wrote it.
const TAIL_RECORDS: u64 = 16;

/// Half a release record: what a crash in the middle of an append leaves.
const TORN_TAIL: &[u8] = b"{\"t\":\"svc.release\",\"fl";

/// The journal set-up wrote, and the state its writer ended in.
pub struct Written {
    pub counts: Counts,
    pub bytes: u64,
    pub state: SessionState,
}

/// Writes the journal of `requests` churn requests held at `live` flows.
pub fn write_journal(
    workload: &Workload,
    mesh: &MeshQos,
    seed: u64,
    live: usize,
    requests: usize,
    journal: &Path,
) -> Res<Written> {
    let snapshot_every = GatewayConfig::default().snapshot_every;
    let mut journaled = JournaledSession::new(
        mesh.session(workload.policy),
        JournalWriter::create(journal)?,
        snapshot_every,
    );
    let mut gen = Churn::new(seed, workload.mesh, live);
    let mut counts = Counts::default();
    let mut issued = 0;
    // Mutations applied: the journal snapshots after every
    // `snapshot_every` of them.
    let mut applied = 0u64;
    while issued < requests || applied % snapshot_every != TAIL_RECORDS {
        // Past the wanted count, one request at a time until the tail
        // has its length.
        let take = if issued < requests {
            BATCH.min(requests - issued)
        } else {
            1
        };
        let batch: Vec<Request> = (0..take).map(|_| gen.next_request()).collect();
        issued += batch.len();
        let mut i = 0;
        while i < batch.len() {
            match &batch[i] {
                Request::Admit(_) => {
                    let run: Vec<_> = batch[i..]
                        .iter()
                        .map_while(|r| match r {
                            Request::Admit(spec) => Some(spec.clone()),
                            _ => None,
                        })
                        .collect();
                    let verdicts = journaled.admit_flows(&run)?;
                    applied += 1;
                    for (request, verdict) in batch[i..].iter().zip(verdicts) {
                        let reply = match verdict {
                            FlowAdmission::Admitted(flow) => Reply::Admitted(flow),
                            FlowAdmission::Rejected(why) => Reply::Rejected(why),
                            other => Reply::Failed(format!("unknown verdict {other:?}")),
                        };
                        let outcome = counts.record(request, Ok(&reply));
                        gen.settle(request, outcome);
                    }
                    i += run.len();
                }
                Request::Release(flow) => {
                    let reply = match journaled.release_flow(*flow) {
                        Ok(present) => {
                            applied += 1;
                            Reply::Released(present)
                        }
                        Err(e) => Reply::Failed(e.to_string()),
                    };
                    let outcome = counts.record(&batch[i], Ok(&reply));
                    gen.settle(&batch[i], outcome);
                    i += 1;
                }
                other => return Err(format!("unexpected request {other:?}").into()),
            }
        }
    }
    let state = journaled.session().export_state();
    drop(journaled);
    let mut file = std::fs::OpenOptions::new().append(true).open(journal)?;
    file.write_all(TORN_TAIL)?;
    file.flush()?;
    Ok(Written {
        counts,
        bytes: std::fs::metadata(journal)?.len(),
        state,
    })
}

/// One timed `recover_file`, checked against what the writer left:
/// the torn tail is reported and the state is the writer's.
pub fn recover_once(
    workload: &Workload,
    mesh: &MeshQos,
    journal: &Path,
    written: &Written,
) -> (u64, Result<(), String>) {
    let start = Instant::now();
    let recovered = recover_file(mesh, workload.policy, journal);
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let check = match recovered {
        Ok(r) if !r.torn_tail => Err(String::from("recovery did not report the torn tail")),
        Ok(r) if !same_state(&r.session.export_state(), &written.state) => Err(String::from(
            "recovered state differs from the writer's final state",
        )),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("recovery failed: {e}")),
    };
    (nanos, check)
}

/// Counts of one traced recovery.
pub struct TracedRecovery {
    pub records: u64,
    pub replayed: u64,
    pub wall_ns: u64,
}

/// What `recover_file` does, step by step from public functions, so
/// that each step can be timed: read, parse, restore the last snapshot,
/// replay the tail, certify.
pub fn recover_traced(
    workload: &Workload,
    mesh: &MeshQos,
    journal: &Path,
    written: &Written,
    tracer: &mut Tracer,
) -> Res<TracedRecovery> {
    let start = Instant::now();
    let text = tracer.time(Timer::JournalRead, || std::fs::read_to_string(journal))?;
    let log = tracer
        .time(Timer::ParseJournal, || parse_journal(&text))
        .map_err(|e| format!("journal corrupt at line {}: {}", e.line, e.reason))?;
    let (from, snapshot) = log.replay_point();
    let base = match snapshot {
        Some(state) => tracer.time(Timer::RestoreSession, || mesh.restore_session(state))?,
        None => mesh.session(workload.policy),
    };
    let tail = &log.records[from..];
    let session = tracer.time(Timer::ReplayTail, || -> Res<_> {
        let mut replaying = JournaledSession::replay_only(base);
        for record in tail {
            match record {
                wimesh_svc::JournalRecord::AdmitBatch(specs) => {
                    replaying.admit_flows(specs)?;
                }
                wimesh_svc::JournalRecord::Release(flow) => {
                    // A release that failed when it was journaled fails
                    // again here; `recover` would stop on it.
                    replaying.release_flow(*flow)?;
                }
                _ => {}
            }
        }
        Ok(replaying.into_session())
    })?;
    let outcome = session.snapshot();
    tracer
        .time(Timer::CertifyRecovery, || {
            let cert = CertInputs::derive(mesh, outcome.admitted());
            wimesh_check::Certificate::check_recovery(
                &outcome.schedule,
                &cert.graph,
                &cert.demands,
                &cert.flows,
                &cert.params,
                outcome.guaranteed_slots,
            )
        })
        .map_err(|e| format!("recovered state failed certification: {e}"))?;
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if !log.torn_tail || !same_state(&session.export_state(), &written.state) {
        return Err("the step-by-step recovery disagrees with the writer's final state".into());
    }
    Ok(TracedRecovery {
        records: log.records.len() as u64,
        replayed: tail.len() as u64,
        wall_ns,
    })
}
