//! Crash recovery: rebuild the exact pre-crash admission state from the
//! write-ahead journal, then prove it with the independent certifier.
//!
//! Recovery is snapshot + replay: the last complete
//! [`JournalRecord::Snapshot`](crate::JournalRecord::Snapshot) is
//! restored verbatim (no solver run — the recorded slot layout is
//! loaded and cross-checked), then every mutation journaled after it is
//! re-applied through a writer-less [`JournaledSession`] with the same
//! batch grouping the live service used. Deterministic solves plus
//! identical groupings make the recovered schedule bit-identical to the
//! pre-crash one.
//!
//! The result is never trusted on faith: every recovery ends with
//! `wimesh-check`'s [`Certificate::check_recovery`], which re-derives
//! conflict-freedom, demand coverage, per-flow delay bounds *and* that
//! the guaranteed region matches what the journal claimed. A journal
//! that parses but replays into a different state is an error, not a
//! silently wrong schedule.

use std::fmt;
use std::io;
use std::path::Path;

use wimesh::conflict::ConflictGraph;
use wimesh::{MeshQos, OrderPolicy, QosError, QosSession, SessionState};
use wimesh_check::{CertParams, Certificate, CertificateReport, CertifyError, FlowRequirement};
use wimesh_obs::reader::JsonlError;

use crate::journal::{empty_state, Decoded, JournalRecord, RecordStream};
use crate::journaled::JournaledSession;

/// Why a journal could not be recovered into a certified session.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// The journal text is malformed in a way a crash cannot explain
    /// (torn tails are tolerated and are *not* this error).
    Corrupt {
        /// 1-based journal line of the malformation.
        line: u32,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal is well-formed but inconsistent with the recovery
    /// request (e.g. it snapshots a different order policy).
    StateMismatch(String),
    /// Restoring or replaying a mutation failed in the admission engine.
    Qos(QosError),
    /// The replayed state failed independent certification.
    Uncertified(CertifyError),
    /// Reading the journal file failed.
    Io(io::Error),
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&RecoveryError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            RecoveryError::StateMismatch(why) => {
                write!(f, "journal does not match the recovery request: {why}")
            }
            RecoveryError::Qos(e) => write!(f, "replay failed: {e}"),
            RecoveryError::Uncertified(e) => {
                write!(f, "recovered state failed certification: {e}")
            }
            RecoveryError::Io(e) => write!(f, "journal read failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Qos(e) => Some(e),
            RecoveryError::Uncertified(e) => Some(e),
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonlError> for RecoveryError {
    fn from(e: JsonlError) -> Self {
        RecoveryError::Corrupt {
            line: e.line,
            reason: e.reason,
        }
    }
}

impl From<QosError> for RecoveryError {
    fn from(e: QosError) -> Self {
        RecoveryError::Qos(e)
    }
}

/// A successful recovery: the rebuilt session plus its proof.
#[derive(Debug)]
pub struct Recovered {
    /// The session, in the exact pre-crash state. Wrap it in a new
    /// [`JournaledSession`](crate::JournaledSession) (appending to the
    /// same journal) to resume service.
    pub session: QosSession,
    /// The certifier's report over the recovered schedule.
    pub report: CertificateReport,
    /// Mutation records replayed after the snapshot (0 when the
    /// snapshot alone was current).
    pub replayed: usize,
    /// Whether a snapshot was used (false: full replay from genesis).
    pub snapshot_used: bool,
    /// Whether a torn tail was dropped from the journal.
    pub torn_tail: bool,
}

/// Recovers a session from journal text.
///
/// `policy` must match the policy the journaled service ran with — it
/// seeds the fresh session when no snapshot exists and is checked
/// against any snapshot found.
///
/// # Errors
///
/// See [`RecoveryError`]. Torn tails (a crash mid-append) are dropped
/// silently and reported via [`Recovered::torn_tail`], not an error.
pub fn recover(
    mesh: &MeshQos,
    policy: OrderPolicy,
    journal: &str,
) -> Result<Recovered, RecoveryError> {
    ReplayPlan::read(journal)?.run(mesh, policy)
}

/// [`recover`], taking the policy from the journal itself instead of
/// the caller.
///
/// The recorded policy is the last
/// [`JournalRecord::Policy`](crate::JournalRecord::Policy) declaration,
/// or failing that the policy of the last snapshot. Use this when the
/// operator does not know (or does not want to restate) which policy
/// the crashed service ran with.
///
/// # Errors
///
/// [`RecoveryError::StateMismatch`] when the journal records no policy
/// at all, otherwise as [`recover`].
pub fn recover_recorded(mesh: &MeshQos, journal: &str) -> Result<Recovered, RecoveryError> {
    let plan = ReplayPlan::read(journal)?;
    let snapshot = plan.snapshot.as_ref().map(|s| s.policy);
    let policy = plan.declared.last().copied().or(snapshot).ok_or_else(|| {
        RecoveryError::StateMismatch(String::from(
            "journal records no admission policy (no svc.policy record and no snapshot)",
        ))
    })?;
    plan.run(mesh, policy)
}

/// What one pass over a journal keeps of it: all recovery needs.
struct ReplayPlan {
    /// The declared policies, oldest first, a run of equal declarations
    /// kept once: one entry unless the journal contradicts itself.
    declared: Vec<OrderPolicy>,
    /// The last complete snapshot.
    snapshot: Option<SessionState>,
    /// The mutation records after it.
    tail: Vec<JournalRecord>,
    torn_tail: bool,
}

impl ReplayPlan {
    /// Decodes and validates every line of `journal`, so corruption
    /// anywhere in it comes before any other finding, and holds on to
    /// no record that a later snapshot supersedes. Every snapshot is
    /// decoded into one state, so one that a later snapshot supersedes
    /// allocates only where it outgrows every snapshot before it.
    fn read(journal: &str) -> Result<Self, RecoveryError> {
        let mut stream = RecordStream::new(journal);
        let mut declared = Vec::new();
        let mut state = empty_state();
        let mut snapshot_read = false;
        let mut tail = Vec::new();
        while let Some(decoded) = stream.next_record(&mut state, || tail.clear()) {
            match decoded? {
                Decoded::Snapshot => snapshot_read = true,
                Decoded::Record(JournalRecord::Policy(policy)) => {
                    if declared.last() != Some(&policy) {
                        declared.push(policy);
                    }
                }
                Decoded::Record(mutation) => tail.push(mutation),
            }
        }
        Ok(ReplayPlan {
            declared,
            snapshot: snapshot_read.then_some(state),
            tail,
            torn_tail: stream.torn_tail(),
        })
    }

    /// Restores the snapshot, replays the tail and certifies the result.
    fn run(self, mesh: &MeshQos, policy: OrderPolicy) -> Result<Recovered, RecoveryError> {
        // Every policy declaration in the journal must agree with the
        // requested policy: recovering a greedy-admitted history under the
        // exact oracle (or vice versa) would re-prove a different state
        // than the one that crashed.
        if let Some(declared) = self.declared.iter().find(|d| **d != policy) {
            return Err(RecoveryError::StateMismatch(format!(
                "journal declares policy {declared:?}, recovery requested {policy:?}"
            )));
        }
        let snapshot_used = self.snapshot.is_some();
        let base = match self.snapshot {
            Some(state) => {
                if state.policy != policy {
                    return Err(RecoveryError::StateMismatch(format!(
                        "journal snapshot uses policy {:?}, recovery requested {:?}",
                        state.policy, policy
                    )));
                }
                mesh.restore_session(&state)?
            }
            None => mesh.session(policy),
        };

        let mut replaying = JournaledSession::replay_only(base);
        for record in &self.tail {
            match record {
                JournalRecord::AdmitBatch(specs) => {
                    // Per-flow rejections were replies to clients, not
                    // state; only engine-level failures abort the replay.
                    replaying.admit_flows(specs).map_err(svc_to_recovery)?;
                }
                JournalRecord::Release(flow) => {
                    replaying.release_flow(*flow).map_err(svc_to_recovery)?;
                }
                JournalRecord::Rebalance => {
                    replaying.rebalance_flows().map_err(svc_to_recovery)?;
                }
                // `read` keeps only mutations in the tail.
                JournalRecord::Snapshot(_) | JournalRecord::Policy(_) => {}
            }
        }
        let session = replaying.into_session();

        let report = certify_recovered(&session).map_err(RecoveryError::Uncertified)?;
        Ok(Recovered {
            session,
            report,
            replayed: self.tail.len(),
            snapshot_used,
            torn_tail: self.torn_tail,
        })
    }
}

/// [`recover`], reading the journal from `path`.
///
/// # Errors
///
/// [`RecoveryError::Io`] for read failures, otherwise as [`recover`].
pub fn recover_file(
    mesh: &MeshQos,
    policy: OrderPolicy,
    path: &Path,
) -> Result<Recovered, RecoveryError> {
    let text = std::fs::read_to_string(path).map_err(RecoveryError::Io)?;
    recover(mesh, policy, &text)
}

fn svc_to_recovery(e: crate::SvcError) -> RecoveryError {
    match e {
        crate::SvcError::Qos(q) => RecoveryError::Qos(q),
        // Replay sessions have no writer, so Journal/queue errors
        // cannot occur; fold anything else into a state mismatch.
        other => RecoveryError::StateMismatch(other.to_string()),
    }
}

/// Runs the independent certifier over a recovered session's schedule,
/// including the recovery-specific guaranteed-region check.
fn certify_recovered(session: &QosSession) -> Result<CertificateReport, CertifyError> {
    let mesh = session.mesh();
    let outcome = session.snapshot();
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
    Certificate::check_recovery(
        &outcome.schedule,
        &graph,
        &demands,
        &flows,
        &params,
        outcome.guaranteed_slots,
    )
}
