//! The journaled wrapper around [`QosSession`]: every mutation is
//! appended to the write-ahead journal *before* it is applied.
//!
//! The order is a type, not a convention. The session lives in the
//! private [`wal::WriteAhead`], whose fields nothing else in the crate can
//! name: the only `&mut QosSession` it hands out is the value
//! [`wal::WriteAhead::append`] returns once the record is written. A
//! mutation written before its append does not compile (E0616, private
//! field), so no code path can change admission state without a journal
//! record and break crash recovery.
//!
//! An owned `QosSession` outside the wrapper is not watched: recovery
//! restores one before wrapping it, and [`JournaledSession::into_session`]
//! gives one back. Neither mutates it.

use wimesh::{FlowAdmission, FlowSpec, QosSession, RejectReason};
use wimesh_sim::FlowId;

use crate::error::SvcError;
use crate::journal::{unjournalable, JournalRecord, JournalWriter};

mod wal {
    use wimesh::QosSession;

    use crate::error::SvcError;
    use crate::journal::{JournalRecord, JournalWriter};

    /// A session and the journal its mutations go to first.
    #[derive(Debug)]
    pub(super) struct WriteAhead {
        session: QosSession,
        /// `None` on the replay path, whose records are already on disk.
        writer: Option<JournalWriter>,
    }

    impl WriteAhead {
        pub(super) fn new(session: QosSession, writer: Option<JournalWriter>) -> Self {
            WriteAhead { session, writer }
        }

        pub(super) fn session(&self) -> &QosSession {
            &self.session
        }

        /// Appends `record` (nothing on the replay path), then hands out
        /// the session for the mutation it describes.
        pub(super) fn append(
            &mut self,
            record: &JournalRecord,
        ) -> Result<&mut QosSession, SvcError> {
            if let Some(w) = self.writer.as_mut() {
                w.append(record)?;
            }
            Ok(&mut self.session)
        }

        /// Whether appends reach a journal (false on the replay path).
        pub(super) fn journals(&self) -> bool {
            self.writer.is_some()
        }

        pub(super) fn into_session(self) -> QosSession {
            self.session
        }
    }
}

/// A [`QosSession`] whose mutations are write-ahead journaled.
///
/// The discipline is strict: the journal record is appended and flushed
/// first; only if that succeeds is the mutation applied. A journal
/// failure therefore leaves the session untouched
/// ([`SvcError::Journal`]), and a crash can only ever lose *unapplied*
/// suffixes — never record a mutation that did not happen. After a
/// failed append the writer takes no more records, so every later
/// mutation fails the same way, unapplied.
#[derive(Debug)]
pub struct JournaledSession {
    wal: wal::WriteAhead,
    /// Mutations applied since the last snapshot record.
    since_snapshot: u64,
    snapshot_every: u64,
}

impl JournaledSession {
    /// Wraps `session`, journaling to `writer`. A snapshot record is
    /// appended automatically after every `snapshot_every` mutations
    /// (`0` disables auto-snapshots).
    pub fn new(session: QosSession, writer: JournalWriter, snapshot_every: u64) -> Self {
        JournaledSession {
            wal: wal::WriteAhead::new(session, Some(writer)),
            since_snapshot: 0,
            snapshot_every,
        }
    }

    /// Wraps `session` with no journal — the replay path, where the
    /// mutations being applied are already in the journal being read.
    pub fn replay_only(session: QosSession) -> Self {
        JournaledSession {
            wal: wal::WriteAhead::new(session, None),
            since_snapshot: 0,
            snapshot_every: 0,
        }
    }

    /// Read-only access to the wrapped session.
    pub fn session(&self) -> &QosSession {
        self.wal.session()
    }

    /// Consumes the wrapper, returning the session.
    pub fn into_session(self) -> QosSession {
        self.wal.into_session()
    }

    /// Journals and applies a coalesced admission batch. The batch
    /// grouping is recorded verbatim so replay repeats the exact same
    /// solves.
    ///
    /// A spec the journal cannot hold, or replay could not admit again, is
    /// answered alone as [`RejectReason::InvalidRequest`]: journaled, it
    /// would wedge recovery; solved with the rest, it would fail them all.
    ///
    /// # Errors
    ///
    /// [`SvcError::Journal`] if the append failed (nothing applied), or
    /// [`SvcError::Qos`] from the solve.
    pub fn admit_flows(&mut self, specs: &[FlowSpec]) -> Result<Vec<FlowAdmission>, SvcError> {
        // Replay keeps such a spec in: a journal that holds one was not
        // written by this writer, and the engine's error refuses it.
        if !self.wal.journals() || specs.iter().all(|s| unjournalable(s).is_none()) {
            return self.journal_and_admit(specs);
        }
        let valid: Vec<FlowSpec> = specs
            .iter()
            .filter(|s| unjournalable(s).is_none())
            .cloned()
            .collect();
        let mut solved = self.journal_and_admit(&valid)?.into_iter();
        let verdict = |s| match unjournalable(s) {
            Some(why) => Some(FlowAdmission::Rejected(RejectReason::InvalidRequest(why))),
            None => solved.next(),
        };
        Ok(specs.iter().filter_map(verdict).collect())
    }

    /// Journals `specs` as one batch, then solves them together.
    fn journal_and_admit(&mut self, specs: &[FlowSpec]) -> Result<Vec<FlowAdmission>, SvcError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let verdicts = self
            .wal
            .append(&JournalRecord::AdmitBatch(specs.to_vec()))?
            .admit_batch(specs)?;
        self.after_mutation();
        Ok(verdicts)
    }

    /// Journals and applies a release. Returns whether the flow was
    /// admitted (and is now gone).
    ///
    /// # Errors
    ///
    /// [`SvcError::Journal`] if the append failed (nothing applied), or
    /// [`SvcError::Qos`] from the re-solve.
    pub fn release_flow(&mut self, flow: FlowId) -> Result<bool, SvcError> {
        let released = self
            .wal
            .append(&JournalRecord::Release(flow))?
            .release(flow)?;
        self.after_mutation();
        Ok(released)
    }

    /// Journals and applies a full rebalance.
    ///
    /// # Errors
    ///
    /// [`SvcError::Journal`] if the append failed (nothing applied), or
    /// [`SvcError::Qos`] from the re-solve.
    pub fn rebalance_flows(&mut self) -> Result<(), SvcError> {
        self.wal.append(&JournalRecord::Rebalance)?.rebalance()?;
        self.after_mutation();
        Ok(())
    }

    /// Appends a snapshot record of the current state, resetting the
    /// auto-snapshot counter. Replay after this point starts from the
    /// snapshot instead of the journal's beginning.
    ///
    /// # Errors
    ///
    /// [`SvcError::Journal`] if the append failed.
    pub fn snapshot_now(&mut self) -> Result<(), SvcError> {
        if self.wal.journals() {
            let state = self.wal.session().export_state();
            self.wal.append(&JournalRecord::Snapshot(state))?;
            self.since_snapshot = 0;
        }
        Ok(())
    }

    /// Counts the mutation just applied and appends a snapshot when one
    /// is due. A failed snapshot is not a failed mutation: the mutation's
    /// record is complete and the mutation is applied, so its caller gets
    /// its result, and recovery drops the torn snapshot and replays the
    /// record. The writer refuses every append after the failure, so the
    /// next mutation fails before it is applied.
    fn after_mutation(&mut self) {
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            // The writer remembers the failure; the next append reports it.
            let _ = self.snapshot_now();
        }
    }
}
