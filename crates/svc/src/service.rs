//! The admission gateway: a bounded request queue in front of one
//! journaled session, served by the callers that wait.
//!
//! Clients submit admit/release/rebalance requests through a cloneable
//! [`GatewayClient`] and block on a per-request [`Ticket`] for their
//! typed [`Reply`]. The gateway has no thread of its own (flat
//! combining): a [`Ticket::wait`] that finds its reply missing takes the
//! session under one combiner lock and answers up to
//! [`GatewayConfig::max_batch`] requests from the front of the queue,
//! batch after batch until its own request is answered. A batch
//! coalesces runs of consecutive admissions into a single
//! [`JournaledSession::admit_flows`] call — one journal record, one
//! incremental solve, one certification for the whole run — and
//! publishes a fresh [`ScheduleView`] through an [`EpochCell`] *before*
//! filling the batch's replies, so a client holding its reply can
//! already read a view reflecting its request, and data-plane readers
//! never block on the solver.
//!
//! A queued request is served by the next wait on any ticket of the
//! gateway, or by [`AdmissionGateway::shutdown`]; so the request of a
//! dropped ticket still runs. Batches are therefore a function of the
//! clients' submit and wait order alone: a client that submits k ≤
//! `max_batch` requests and then waits has all k answered by one batch,
//! in submission order.
//!
//! Backpressure is explicit: a full queue rejects the submission with
//! [`SvcError::Overloaded`] instead of queueing without bound, and a
//! request that waits past [`GatewayConfig::request_timeout`] is
//! answered [`Reply::Expired`] without ever reaching the solver.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use wimesh::{
    AdmittedFlow, FlowSpec, OrderPolicy, QosError, QosSession, RejectReason, SessionState,
    SessionStats,
};
use wimesh_obs::sync::{lock, lock_outer};
use wimesh_sim::FlowId;

use crate::error::SvcError;
use crate::journal::{JournalRecord, JournalWriter};
use crate::journaled::JournaledSession;
use crate::snapshot::{EpochCell, ScheduleView, SnapshotReader};

/// Tuning knobs for an [`AdmissionGateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bounded queue depth; submissions beyond it get
    /// [`SvcError::Overloaded`].
    pub queue_capacity: usize,
    /// Most requests drained into one processing batch.
    pub max_batch: usize,
    /// Auto-snapshot the journal every this many mutations (0: never).
    pub snapshot_every: u64,
    /// Queue-wait deadline, from submission until a waiter takes the
    /// request: requests older than this are answered [`Reply::Expired`]
    /// instead of being solved. `None` disables it.
    pub request_timeout: Option<std::time::Duration>,
    /// The admission policy this gateway is expected to run under.
    /// When set, [`AdmissionGateway::start`] rejects a session opened
    /// with a different policy and appends a
    /// [`JournalRecord::Policy`] declaration before serving, so
    /// recovery re-proves the journal under the same policy (and
    /// [`crate::recover_recorded`] needs no operator input). `None`
    /// accepts whatever policy the session carries, undeclared.
    pub policy: Option<OrderPolicy>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            queue_capacity: 64,
            max_batch: 16,
            snapshot_every: 32,
            request_timeout: None,
            policy: None,
        }
    }
}

/// One client request.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Request {
    /// Admit a flow (coalesced with neighbouring admits into one solve).
    Admit(FlowSpec),
    /// Release a flow.
    Release(FlowId),
    /// Re-solve everything from scratch.
    Rebalance,
}

/// The typed answer to one [`Request`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Reply {
    /// The flow was admitted; its reservation and delay bound.
    Admitted(AdmittedFlow),
    /// The flow was vetted or solved and turned away.
    Rejected(RejectReason),
    /// Release outcome: whether the flow was present.
    Released(bool),
    /// The rebalance completed.
    Rebalanced,
    /// The request waited past the configured timeout and was dropped
    /// before solving.
    Expired,
    /// The engine or journal failed this request (message carries the
    /// error's display form).
    Failed(String),
}

struct Pending {
    request: Request,
    enqueued: Instant,
    /// Shared with the request's [`Ticket`], filled at most once.
    reply: Arc<OnceLock<Reply>>,
}

struct Queue {
    items: VecDeque<Pending>,
    closed: bool,
}

struct Shared {
    /// The combiner lock: whoever holds it serves the queue.
    worker: Mutex<Worker>,
    queue: Mutex<Queue>,
    capacity: usize,
    overloaded: AtomicU64,
    view: Arc<EpochCell<ScheduleView>>,
}

/// A blocking handle for one submitted request.
///
/// Its reply is a cell shared with the queued request. A wait that finds
/// the cell empty serves the gateway's queue until it is filled; a ticket
/// first waited on after its reply arrived returns at once.
pub struct Ticket {
    reply: Arc<OnceLock<Reply>>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("reply", &self.reply.get())
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Waits for the reply. If it is not in yet, this thread takes the
    /// combiner lock and serves the queue, a batch of up to
    /// [`GatewayConfig::max_batch`] requests at a time, until its own
    /// request has been answered.
    ///
    /// # Errors
    ///
    /// [`SvcError::ShuttingDown`] if the request was dropped unanswered: a
    /// batch panicked while it held the request or with the request still
    /// queued.
    pub fn wait(self) -> Result<Reply, SvcError> {
        let Ticket { mut reply, shared } = self;
        loop {
            // Once its `Pending` is gone the ticket holds the only handle:
            // the request was answered, or dropped unanswered.
            match Arc::try_unwrap(reply) {
                Ok(cell) => return cell.into_inner().ok_or(SvcError::ShuttingDown),
                Err(unanswered) => reply = unanswered,
            }
            let mut worker = lock_outer(&shared.worker);
            // Still unanswered under the lock, so still queued. The lock
            // is released after each batch, so a waiter that batch
            // answered is not held behind the next one.
            if Arc::strong_count(&reply) > 1 {
                worker.serve(&shared);
            }
        }
    }
}

/// A cloneable submission handle to a running [`AdmissionGateway`].
#[derive(Clone)]
pub struct GatewayClient {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for GatewayClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayClient")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl GatewayClient {
    /// Submits a request, returning a [`Ticket`] for its reply.
    ///
    /// # Errors
    ///
    /// [`SvcError::Overloaded`] when the bounded queue is full (the
    /// request is rejected now rather than queued without bound) and
    /// [`SvcError::ShuttingDown`] after shutdown began or a batch
    /// panicked.
    pub fn submit(&self, request: Request) -> Result<Ticket, SvcError> {
        let reply = Arc::new(OnceLock::new());
        let mut q = lock(&self.shared.queue);
        if q.closed {
            return Err(SvcError::ShuttingDown);
        }
        if q.items.len() >= self.shared.capacity {
            // Relaxed: shed counter; stats() tolerates a stale count, no data hangs off it.
            self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(SvcError::Overloaded {
                capacity: self.shared.capacity,
            });
        }
        q.items.push_back(Pending {
            request,
            enqueued: Instant::now(),
            reply: Arc::clone(&reply),
        });
        Ok(Ticket {
            reply,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Submits an admission request.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::submit`].
    pub fn admit(&self, spec: FlowSpec) -> Result<Ticket, SvcError> {
        self.submit(Request::Admit(spec))
    }

    /// Submits a release request.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::submit`].
    pub fn release(&self, flow: FlowId) -> Result<Ticket, SvcError> {
        self.submit(Request::Release(flow))
    }

    /// Submits a rebalance request.
    ///
    /// # Errors
    ///
    /// As [`GatewayClient::submit`].
    pub fn rebalance(&self) -> Result<Ticket, SvcError> {
        self.submit(Request::Rebalance)
    }

    /// A wait-free reader over the gateway's published schedule views.
    pub fn reader(&self) -> SnapshotReader<ScheduleView> {
        SnapshotReader::new(Arc::clone(&self.shared.view))
    }

    /// The latest published view: one `Arc` clone under the view's swap
    /// mutex on every call; prefer a [`Self::reader`] for repeated
    /// polling, which takes that mutex only when the epoch moved.
    pub fn view(&self) -> Arc<ScheduleView> {
        self.shared.view.load()
    }

    /// Submissions rejected with [`SvcError::Overloaded`] so far.
    pub fn overload_rejections(&self) -> u64 {
        self.shared.overloaded.load(Ordering::Relaxed)
    }
}

/// The gateway's service counters, reported at shutdown.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Batches served from the queue.
    pub batches: u64,
    /// Requests processed (including expired ones).
    pub requests: u64,
    /// Admission requests answered [`Reply::Admitted`].
    pub admitted: u64,
    /// Admission requests answered [`Reply::Rejected`].
    pub rejected: u64,
    /// Release requests answered `Released(true)`.
    pub released: u64,
    /// Rebalances performed.
    pub rebalances: u64,
    /// Requests answered [`Reply::Expired`].
    pub expired: u64,
    /// Requests answered [`Reply::Failed`].
    pub failed: u64,
    /// Largest single processing batch seen.
    pub max_batch_seen: u64,
}

/// Everything the gateway knew when it shut down.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct GatewayReport {
    /// The final session state (ground truth for recovery tests).
    pub state: SessionState,
    /// The gateway's service counters.
    pub service: ServiceStats,
    /// The solver session's own counters.
    pub session: SessionStats,
}

struct Worker {
    journaled: JournaledSession,
    config: GatewayConfig,
    stats: ServiceStats,
    /// The payload of a batch that panicked, for `shutdown` to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    // Kept across batches, empty between them.
    batch: Vec<Pending>,
    replies: Vec<Reply>,
    specs: Vec<FlowSpec>,
}

impl Worker {
    /// Answers up to `max_batch` requests from the front of the queue;
    /// false if it held none. A batch that panics closes the queue and
    /// drops every request it had not answered, queued ones included, so
    /// each of their waits ends in [`SvcError::ShuttingDown`].
    fn serve(&mut self, shared: &Shared) -> bool {
        {
            let mut q = lock(&shared.queue);
            let take = q.items.len().min(self.config.max_batch.max(1));
            self.batch.extend(q.items.drain(..take));
        }
        if self.batch.is_empty() {
            return false;
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| self.process(&shared.view))) {
            let mut q = lock(&shared.queue);
            q.closed = true;
            q.items.clear();
            self.batch.clear();
            self.replies.clear();
            self.panic = Some(payload);
        }
        true
    }

    /// Answers every request in `self.batch` and leaves the batch
    /// buffers empty.
    fn process(&mut self, view: &EpochCell<ScheduleView>) {
        self.stats.batches += 1;
        self.stats.max_batch_seen = self.stats.max_batch_seen.max(self.batch.len() as u64);
        self.stats.requests += self.batch.len() as u64;

        // Drop requests that waited past their deadline before doing
        // any solver work for them.
        if let Some(timeout) = self.config.request_timeout {
            let expired = &mut self.stats.expired;
            self.batch.retain(|p| {
                let stale = p.enqueued.elapsed() > timeout;
                if stale {
                    *expired += 1;
                    // The cell is filled once: here or after the solve.
                    let _ = p.reply.set(Reply::Expired);
                }
                !stale
            });
        }

        // Coalesce runs of consecutive admits into one journaled solve;
        // releases and rebalances are natural barriers. Replies are
        // buffered and delivered only after the fresh view is published,
        // so a client that has its reply can already read a view
        // reflecting its request.
        let live = &self.batch;
        let replies = &mut self.replies;
        let mut i = 0;
        while i < live.len() {
            match &live[i].request {
                Request::Admit(_) => {
                    let mut j = i;
                    self.specs.clear();
                    while j < live.len() {
                        if let Request::Admit(spec) = &live[j].request {
                            self.specs.push(spec.clone());
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    match self.journaled.admit_flows(&self.specs) {
                        Ok(verdicts) => {
                            for v in verdicts {
                                replies.push(match v {
                                    wimesh::FlowAdmission::Admitted(f) => {
                                        self.stats.admitted += 1;
                                        Reply::Admitted(f)
                                    }
                                    wimesh::FlowAdmission::Rejected(r) => {
                                        self.stats.rejected += 1;
                                        Reply::Rejected(r)
                                    }
                                    _ => Reply::Failed(String::from("unknown admission verdict")),
                                });
                            }
                        }
                        Err(e) => {
                            let msg = e.to_string();
                            self.stats.failed += (j - i) as u64;
                            replies.resize(j, Reply::Failed(msg));
                        }
                    }
                    i = j;
                }
                Request::Release(flow) => {
                    replies.push(match self.journaled.release_flow(*flow) {
                        Ok(was_present) => {
                            if was_present {
                                self.stats.released += 1;
                            }
                            Reply::Released(was_present)
                        }
                        Err(e) => {
                            self.stats.failed += 1;
                            Reply::Failed(e.to_string())
                        }
                    });
                    i += 1;
                }
                Request::Rebalance => {
                    replies.push(match self.journaled.rebalance_flows() {
                        Ok(()) => {
                            self.stats.rebalances += 1;
                            Reply::Rebalanced
                        }
                        Err(e) => {
                            self.stats.failed += 1;
                            Reply::Failed(e.to_string())
                        }
                    });
                    i += 1;
                }
            }
        }

        self.publish_view(view);
        for (p, reply) in self.batch.iter().zip(self.replies.drain(..)) {
            // Expired requests left the batch: every cell here is empty.
            let _ = p.reply.set(reply);
        }
        self.batch.clear();
    }

    fn publish_view(&self, view: &EpochCell<ScheduleView>) {
        let session = self.journaled.session();
        let outcome = session.snapshot();
        view.publish(ScheduleView {
            batches: self.stats.batches,
            admitted: outcome.admitted.clone(),
            schedule: outcome.schedule.clone(),
            guaranteed_slots: outcome.guaranteed_slots,
            frame_slots: outcome.frame_slots(),
            stats: session.stats().clone(),
        });
    }
}

/// A running gateway: the journaled session behind the combiner lock,
/// served by the threads that wait on its tickets.
pub struct AdmissionGateway {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for AdmissionGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGateway")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl AdmissionGateway {
    /// Starts the gateway over `session`, journaling every mutation to
    /// `journal`. Returns the gateway handle and a first client.
    ///
    /// # Errors
    ///
    /// [`SvcError::Qos`] if [`GatewayConfig::policy`] is set and
    /// disagrees with the session's policy, [`SvcError::Journal`] if
    /// the policy declaration could not be appended.
    pub fn start(
        session: QosSession,
        mut journal: JournalWriter,
        config: GatewayConfig,
    ) -> Result<(Self, GatewayClient), SvcError> {
        if let Some(expected) = config.policy {
            let actual = session.policy();
            if actual != expected {
                return Err(SvcError::Qos(QosError::Config(format!(
                    "gateway configured for policy {expected:?}, session runs {actual:?}"
                ))));
            }
            // Declare the policy up front (write-ahead, like every
            // mutation) so the journal alone pins how it must be
            // replayed.
            journal.append(&JournalRecord::Policy(expected))?;
        }
        let outcome = session.snapshot();
        let initial = ScheduleView {
            batches: 0,
            admitted: outcome.admitted.clone(),
            schedule: outcome.schedule.clone(),
            guaranteed_slots: outcome.guaranteed_slots,
            frame_slots: outcome.frame_slots(),
            stats: session.stats().clone(),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::with_capacity(config.queue_capacity),
                closed: false,
            }),
            capacity: config.queue_capacity.max(1),
            overloaded: AtomicU64::new(0),
            view: Arc::new(EpochCell::new(initial)),
            worker: Mutex::new(Worker {
                journaled: JournaledSession::new(session, journal, config.snapshot_every),
                config,
                stats: ServiceStats::default(),
                panic: None,
                batch: Vec::new(),
                replies: Vec::new(),
                specs: Vec::new(),
            }),
        });
        let client = GatewayClient {
            shared: Arc::clone(&shared),
        };
        Ok((AdmissionGateway { shared }, client))
    }

    /// A new submission handle.
    pub fn client(&self) -> GatewayClient {
        GatewayClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Waits for any batch in flight, stops accepting requests, serves
    /// what is still queued (every pending request still gets its reply)
    /// and returns the final state.
    ///
    /// No farewell snapshot is written: the journal already contains
    /// every mutation, so shutdown is indistinguishable from a kill —
    /// which is exactly what the recovery tests rely on.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a batch that panicked; by then the queue
    /// is closed and every request left unanswered has seen
    /// [`SvcError::ShuttingDown`].
    pub fn shutdown(self) -> GatewayReport {
        let mut worker = lock_outer(&self.shared.worker);
        lock(&self.shared.queue).closed = true;
        while worker.serve(&self.shared) {}
        if let Some(payload) = worker.panic.take() {
            drop(worker);
            panic::resume_unwind(payload);
        }
        let session = worker.journaled.session();
        GatewayReport {
            state: session.export_state(),
            service: worker.stats.clone(),
            session: session.stats().clone(),
        }
    }
}
