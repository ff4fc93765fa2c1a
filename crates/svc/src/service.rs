//! The admission gateway: a bounded request queue in front of one
//! solver worker that coalesces concurrent requests into batched,
//! journaled solves.
//!
//! Clients submit admit/release/rebalance requests through a cloneable
//! [`GatewayClient`] and block (or poll) on a per-request [`Ticket`]
//! for their typed [`Reply`]. The worker drains up to
//! [`GatewayConfig::max_batch`] queued requests at a time, coalesces
//! runs of consecutive admissions into a single
//! [`JournaledSession::admit_flows`] call — one journal record, one
//! incremental solve, one certification for the whole run — and
//! publishes a fresh [`ScheduleView`] through an [`EpochCell`] after
//! every processed batch — *before* delivering the batch's replies, so
//! a client holding its reply can already read a view reflecting its
//! request — and data-plane readers never block on the solver.
//!
//! Backpressure is explicit: a full queue rejects the submission with
//! [`SvcError::Overloaded`] instead of queueing without bound, and a
//! request that waits past [`GatewayConfig::request_timeout`] is
//! answered [`Reply::Expired`] without ever reaching the solver.
//!
//! The hand-off wakes only threads that sleep. A submission notifies the
//! worker only when the worker has parked on an empty queue, and the
//! worker notifies a client only when that client has parked in
//! [`Ticket::wait`] — after the whole batch is answered, so a woken
//! client finds every reply of that batch in place. A thread that is still
//! running finds its work or its reply under the lock without a wake-up.
//! Each reply travels through a one-shot slot shared by the ticket and its
//! queued request — no channel per request — and the worker reuses its
//! batch buffers across batches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use wimesh::{
    AdmittedFlow, FlowSpec, OrderPolicy, QosError, QosSession, RejectReason, SessionState,
    SessionStats,
};
use wimesh_obs::sync::{lock, Guard};
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
    /// Queue-wait deadline: requests older than this are answered
    /// [`Reply::Expired`] instead of being solved. `None` disables it.
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

/// One request's reply on its way from the worker to its [`Ticket`].
#[derive(Debug, Default)]
struct ReplySlot {
    state: Mutex<SlotState>,
    answered: Condvar,
}

#[derive(Debug)]
enum SlotState {
    /// Not answered yet.
    Empty {
        /// The ticket's thread sleeps on `answered`: filling the slot
        /// must wake it.
        parked: bool,
    },
    Ready(Reply),
    /// The worker's half was dropped unanswered.
    Dead,
}

impl Default for SlotState {
    fn default() -> Self {
        SlotState::Empty { parked: false }
    }
}

fn lock_slot(slot: &ReplySlot) -> Guard<'_, SlotState> {
    lock(&slot.state)
}

impl ReplySlot {
    /// Fills the slot; true if the ticket's thread had parked, so the
    /// caller must notify `answered`.
    fn fill(&self, value: SlotState) -> bool {
        let mut state = lock_slot(self);
        let parked = matches!(*state, SlotState::Empty { parked: true });
        *state = value;
        parked
    }
}

/// The worker's half of a [`ReplySlot`]. It answers at most once; dropped
/// unanswered — held by a worker that died, or abandoned in a closed
/// queue — it marks the slot dead, so the ticket's wait returns
/// [`SvcError::ShuttingDown`] instead of blocking for good.
struct Responder {
    slot: Option<Arc<ReplySlot>>,
}

impl Responder {
    /// Fills the slot, returning it if its ticket's thread parked and is
    /// still to be woken.
    fn answer(&mut self, reply: Reply) -> Option<Arc<ReplySlot>> {
        let slot = self.slot.take()?;
        slot.fill(SlotState::Ready(reply)).then_some(slot)
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            if slot.fill(SlotState::Dead) {
                slot.answered.notify_one();
            }
        }
    }
}

struct Pending {
    request: Request,
    enqueued: Instant,
    reply: Responder,
}

struct Queue {
    items: VecDeque<Pending>,
    closed: bool,
    /// The worker sleeps on `ready`: the next submission must wake it.
    parked: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    capacity: usize,
    overloaded: AtomicU64,
    view: Arc<EpochCell<ScheduleView>>,
}

fn lock_queue(shared: &Shared) -> Guard<'_, Queue> {
    lock(&shared.queue)
}

/// A blocking handle for one submitted request.
///
/// The worker writes the reply into a slot this ticket shares with the
/// queued request and signals the slot, once its whole batch is
/// answered, only if [`Ticket::wait`] has already gone to sleep on it; a
/// ticket first waited on after its reply arrived returns at once,
/// having cost no wake-up.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl Ticket {
    /// Waits for the reply.
    ///
    /// # Errors
    ///
    /// [`SvcError::ShuttingDown`] if the worker died before answering —
    /// while it held this request or with the request still queued.
    pub fn wait(self) -> Result<Reply, SvcError> {
        let mut state = lock_slot(&self.slot);
        while let SlotState::Empty { parked } = &mut *state {
            *parked = true;
            state = state.wait(&self.slot.answered);
        }
        match std::mem::replace(&mut *state, SlotState::Dead) {
            SlotState::Ready(reply) => Ok(reply),
            _ => Err(SvcError::ShuttingDown),
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
    /// [`SvcError::ShuttingDown`] after shutdown began or the worker
    /// died.
    pub fn submit(&self, request: Request) -> Result<Ticket, SvcError> {
        let slot = Arc::new(ReplySlot::default());
        let wake = {
            let mut q = lock_queue(&self.shared);
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
                reply: Responder {
                    slot: Some(Arc::clone(&slot)),
                },
            });
            // One wake-up per park: later submitters find the flag
            // cleared and leave the worker to drain their requests too.
            std::mem::take(&mut q.parked)
        };
        if wake {
            self.shared.ready.notify_one();
        }
        Ok(Ticket { slot })
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

/// Worker-side service counters, reported at shutdown.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Processing batches drained from the queue.
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
    /// Worker-side counters.
    pub service: ServiceStats,
    /// The solver session's own counters.
    pub session: SessionStats,
}

struct Worker {
    journaled: JournaledSession,
    shared: Arc<Shared>,
    config: GatewayConfig,
    stats: ServiceStats,
    // Kept across batches, empty between them.
    batch: Vec<Pending>,
    replies: Vec<Reply>,
    specs: Vec<FlowSpec>,
    /// Answered slots whose tickets parked, woken once the whole batch
    /// is answered.
    wake: Vec<Arc<ReplySlot>>,
}

/// Closes the queue when the worker leaves [`Worker::run`], by return or
/// by unwinding. A worker that panics must not leave the queue open:
/// `submit` would keep accepting, and every request queued behind the
/// panic would hold a live [`Responder`] nobody will ever fill, its
/// [`Ticket::wait`] blocked for good. Dropping the queued requests drops
/// their responders, which turns those waits into
/// [`SvcError::ShuttingDown`].
struct CloseOnExit(Arc<Shared>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        let abandoned = {
            let mut q = lock_queue(&self.0);
            q.closed = true;
            std::mem::take(&mut q.items)
        };
        // Responders are dropped outside the lock: a reply slot is never
        // locked under the queue.
        drop(abandoned);
        self.0.ready.notify_all();
    }
}

impl Worker {
    fn run(mut self) -> (SessionState, ServiceStats, SessionStats) {
        let _close = CloseOnExit(Arc::clone(&self.shared));
        loop {
            {
                let mut q = lock_queue(&self.shared);
                while q.items.is_empty() && !q.closed {
                    q.parked = true;
                    q = q.wait(&self.shared.ready);
                    q.parked = false;
                }
                if q.items.is_empty() {
                    // Closed and drained: exit after answering everything.
                    break;
                }
                let take = q.items.len().min(self.config.max_batch.max(1));
                self.batch.extend(q.items.drain(..take));
            }
            self.process();
        }
        let state = self.journaled.session().export_state();
        let session_stats = self.journaled.session().stats().clone();
        (state, self.stats, session_stats)
    }

    /// Answers every request in `self.batch` and leaves the batch
    /// buffers empty.
    fn process(&mut self) {
        self.stats.batches += 1;
        self.stats.max_batch_seen = self.stats.max_batch_seen.max(self.batch.len() as u64);
        self.stats.requests += self.batch.len() as u64;

        // Drop requests that waited past their deadline before doing
        // any solver work for them.
        if let Some(timeout) = self.config.request_timeout {
            let expired = &mut self.stats.expired;
            self.batch.retain_mut(|p| {
                let stale = p.enqueued.elapsed() > timeout;
                if stale {
                    *expired += 1;
                    // Not held back behind the batch's solve.
                    if let Some(slot) = p.reply.answer(Reply::Expired) {
                        slot.answered.notify_one();
                    }
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

        self.publish_view();
        // Every reply is in place before any parked client is woken: a
        // client woken on its first reply would otherwise find the next
        // one missing and park again, and on a shared CPU each such
        // wake-up can preempt the worker mid-delivery.
        for (p, reply) in self.batch.iter_mut().zip(self.replies.drain(..)) {
            self.wake.extend(p.reply.answer(reply));
        }
        self.batch.clear();
        for slot in self.wake.drain(..) {
            slot.answered.notify_one();
        }
    }

    fn publish_view(&self) {
        let session = self.journaled.session();
        let outcome = session.snapshot();
        self.shared.view.publish(ScheduleView {
            batches: self.stats.batches,
            admitted: outcome.admitted.clone(),
            schedule: outcome.schedule.clone(),
            guaranteed_slots: outcome.guaranteed_slots,
            frame_slots: outcome.frame_slots(),
            stats: session.stats().clone(),
        });
    }
}

/// A running gateway: one worker thread owning the journaled session.
pub struct AdmissionGateway {
    shared: Arc<Shared>,
    worker: thread::JoinHandle<(SessionState, ServiceStats, SessionStats)>,
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
    /// the policy declaration could not be appended or the worker
    /// thread could not be spawned.
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
                parked: false,
            }),
            ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            overloaded: AtomicU64::new(0),
            view: Arc::new(EpochCell::new(initial)),
        });
        let worker = Worker {
            journaled: JournaledSession::new(session, journal, config.snapshot_every),
            shared: Arc::clone(&shared),
            config,
            stats: ServiceStats::default(),
            batch: Vec::new(),
            replies: Vec::new(),
            specs: Vec::new(),
            wake: Vec::new(),
        };
        let handle = thread::Builder::new()
            .name(String::from("wimesh-svc-worker"))
            .spawn(move || worker.run())
            .map_err(SvcError::Journal)?;
        let client = GatewayClient {
            shared: Arc::clone(&shared),
        };
        Ok((
            AdmissionGateway {
                shared,
                worker: handle,
            },
            client,
        ))
    }

    /// A new submission handle.
    pub fn client(&self) -> GatewayClient {
        GatewayClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting requests, drains the queue (every pending
    /// request still gets its reply), joins the worker and returns the
    /// final state.
    ///
    /// No farewell snapshot is written: the journal already contains
    /// every mutation, so shutdown is indistinguishable from a kill —
    /// which is exactly what the recovery tests rely on.
    ///
    /// # Panics
    ///
    /// Re-raises the worker's panic if it died; by then its queue is
    /// closed and every request it had not answered has seen
    /// [`SvcError::ShuttingDown`].
    pub fn shutdown(self) -> GatewayReport {
        {
            let mut q = lock_queue(&self.shared);
            q.closed = true;
        }
        self.shared.ready.notify_all();
        match self.worker.join() {
            Ok((state, service, session)) => GatewayReport {
                state,
                service,
                session,
            },
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}
