//! The traced run: per-layer attribution from the benchmark's side.
//!
//! The untraced run leaves a journal whose `AdmitBatch` records are the
//! exact groupings the gateway's worker formed. This module replays
//! that journal record by record on the calling thread, doing what the
//! worker does for each record (append, solve, snapshot, publish) and
//! timing every call into a public function of a layer. Tracing inside
//! the program is a later change; until then the only spans read from
//! the program are the three it already has (`milp.bnb.solve`,
//! `milp.simplex.solve`, `tdma.schedule.build`).
//!
//! The replay runs plain, for the in-process cost per request that the
//! queue hand-off is derived from, and with timers and an obs sink,
//! whose extra wall time is the tracing overhead. The plain pass runs
//! before and after the traced one, so that drift cancels.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wimesh::conflict::ConflictGraph;
use wimesh::milp::SolverConfig;
use wimesh::tdma::milp::{feasible_order_within, validate_order_within, PathRequirement};
use wimesh::tdma::{delay, min_slots_for_order, order, schedule_from_order, TransmissionOrder};
use wimesh::topology::routing::{self, Path as Route};
use wimesh::{MeshQos, OrderPolicy, QosSession, SessionState, SessionStats};
use wimesh_check::Certificate;
use wimesh_svc::{
    EpochCell, JournalLog, JournalRecord, JournalWriter, ScheduleView, SnapshotReader,
};

use crate::certify::CertInputs;
use crate::gateway::keep;
use crate::Res;

/// Layer probes run on every this many records, against the session's
/// current admitted set.
const PROBE_EVERY: u64 = 64;

/// The cold engine (`MeshQos::admit`) runs on every this many records.
const COLD_EVERY: u64 = 256;

/// Records whose spans are kept for the trace file.
const SPAN_RECORDS: u64 = 4096;

macro_rules! timers {
    ($($variant:ident => $name:literal,)*) => {
        /// Everything the traced run times, by metric name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Timer { $($variant,)* }

        impl Timer {
            pub const ALL: &'static [Timer] = &[$(Timer::$variant,)*];

            /// Whether this is a step of the worker's path, whose times
            /// must add up to the replay's wall time.
            pub fn is_step(self) -> bool {
                self as usize <= Timer::ExportState as usize
            }

            /// The per-layer metric this timer reports (mean µs per call).
            pub fn metric(self) -> &'static str {
                match self { $(Timer::$variant => $name,)* }
            }
        }
    };
}

timers! {
    // Steps of the worker's path: their sum is compared with the
    // replay's wall time (`trace.coverage`).
    JournalAppend => "svc.journal_append_us",
    JournalSnapshot => "svc.journal_snapshot_us",
    Publish => "svc.publish_us",
    ReaderLoad => "svc.reader_load_us",
    AdmitBatch => "core.admit_batch_us",
    Release => "core.release_us",
    ExportState => "core.export_state_us",
    // Steps of a recovery (recovery workload only).
    JournalRead => "svc.journal_read_us",
    ParseJournal => "svc.parse_journal_us",
    ReplayTail => "svc.replay_tail_us",
    // Probes: calls into single layers on sampled records, outside the
    // measured path.
    RestoreSession => "core.restore_session_us",
    Rebalance => "core.rebalance_us",
    ColdAdmit => "core.cold_admit_us",
    Route => "topology.route_us",
    Demands => "emu.demands_us",
    ConflictBuild => "conflict.build_us",
    InsertVertex => "conflict.insert_vertex_us",
    RemoveVertex => "conflict.remove_vertex_us",
    CliqueCover => "conflict.clique_cover_us",
    HopOrder => "tdma.hop_order_us",
    MinSlots => "tdma.min_slots_us",
    ScheduleFromOrder => "tdma.schedule_from_order_us",
    DelayCheck => "tdma.delay_check_us",
    ValidateOrder => "tdma.validate_order_us",
    MilpFeasible => "tdma.milp_feasible_us",
    Certify => "check.certify_us",
    CertifyRecovery => "check.certify_recovery_us",
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

struct Span {
    timer: Option<Timer>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregates and spans of one traced pass. A disabled tracer calls
/// straight through, which is the plain pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    aggs: Vec<Agg>,
    spans: Vec<Span>,
    /// The record being replayed: the request id of its spans.
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            aggs: vec![Agg::default(); Timer::ALL.len()],
            spans: Vec::new(),
            request: 0,
        }
    }

    pub fn agg(&self, timer: Timer) -> Agg {
        self.aggs[timer as usize]
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn time<T>(&mut self, timer: Timer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let agg = &mut self.aggs[timer as usize];
        agg.calls += 1;
        agg.total_ns += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        if self.request < SPAN_RECORDS {
            self.spans.push(Span {
                timer: Some(timer),
                request: self.request,
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
            });
        }
        out
    }

    /// Names the request whose spans come next.
    pub fn start_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Closes the root span of the current request.
    pub fn record_done(&mut self, start: Instant) {
        if self.enabled && self.request < SPAN_RECORDS {
            self.spans.push(Span {
                timer: None,
                request: self.request,
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(Instant::now()),
            });
        }
    }

    /// Writes the kept spans as JSONL: one root span per record, its
    /// timed calls as children, all sharing the record's request id.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            // A record's root span is `r<request>`; its timed calls name it
            // as their parent.
            let (id, name, parent) = match s.timer {
                Some(t) => (
                    String::new(),
                    t.metric().trim_end_matches("_us"),
                    format!("\"r{}\"", s.request),
                ),
                None => (
                    format!("\"id\":\"r{}\",", s.request),
                    "record",
                    String::from("null"),
                ),
            };
            writeln!(
                out,
                "{{{id}\"name\":\"{name}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one replay pass did.
pub struct Replayed {
    /// Wall time of the replay loop, probes excluded.
    pub wall: Duration,
    pub records: u64,
    /// Admit and release requests inside those records.
    pub requests: u64,
    pub batches: u64,
    pub publishes: u64,
    pub journal_bytes: u64,
    pub stats: SessionStats,
    pub state: SessionState,
    /// Releases the session answered with an error (they are journaled
    /// write-ahead, so they are in the log).
    pub release_errors: u64,
    /// Mean vertices and edges of the conflict graph at the probes.
    pub conflict_vertices: f64,
    pub conflict_edges: f64,
    /// Output checks that failed (first few).
    pub violations: Vec<String>,
}

/// Replays `log` the way the gateway's worker applied it: every record
/// is appended to a journal at `journal` before it is applied, recorded
/// snapshots are re-exported (and must equal the record), and a view is
/// published `publishes` times, evenly spread.
pub fn replay(
    mesh: &MeshQos,
    policy: OrderPolicy,
    log: &JournalLog,
    publishes: u64,
    journal: &Path,
    tracer: &mut Tracer,
) -> Res<Replayed> {
    let mut session = mesh.session(policy);
    let mut writer = JournalWriter::create(journal)?;
    let cell = Arc::new(EpochCell::new(view_of(&session, 0)));
    let mut reader = SnapshotReader::new(Arc::clone(&cell));
    let mutations = log
        .records
        .iter()
        .filter(|r| !matches!(r, JournalRecord::Snapshot(_) | JournalRecord::Policy(_)))
        .count() as u64;
    let sink: Arc<dyn wimesh_obs::sink::Sink> = Arc::new(wimesh_obs::sink::NoopSink);
    if tracer.enabled {
        wimesh_obs::reset();
        wimesh_obs::install(Arc::clone(&sink));
    }

    let mut out = Replayed {
        wall: Duration::ZERO,
        records: 0,
        requests: 0,
        batches: 0,
        publishes: 0,
        journal_bytes: 0,
        stats: SessionStats::default(),
        state: session.export_state(),
        release_errors: 0,
        conflict_vertices: 0.0,
        conflict_edges: 0.0,
        violations: Vec::new(),
    };
    let mut probes = 0u64;
    let mut probe_time = Duration::ZERO;
    let mut applied = 0u64;
    let start = Instant::now();
    for (index, record) in log.records.iter().enumerate() {
        tracer.start_request(index as u64);
        let record_start = Instant::now();
        match record {
            JournalRecord::AdmitBatch(specs) => {
                tracer.time(Timer::JournalAppend, || writer.append(record))?;
                tracer.time(Timer::AdmitBatch, || session.admit_batch(specs))?;
                out.requests += specs.len() as u64;
                out.batches += 1;
            }
            JournalRecord::Release(flow) => {
                tracer.time(Timer::JournalAppend, || writer.append(record))?;
                if tracer
                    .time(Timer::Release, || session.release(*flow))
                    .is_err()
                {
                    out.release_errors += 1;
                }
                out.requests += 1;
            }
            JournalRecord::Snapshot(recorded) => {
                let state = tracer.time(Timer::ExportState, || session.export_state());
                if state != *recorded {
                    keep(
                        &mut out.violations,
                        format!("replay diverged from the snapshot at record {index}"),
                    );
                }
                let snapshot = JournalRecord::Snapshot(state);
                tracer.time(Timer::JournalSnapshot, || writer.append(&snapshot))?;
            }
            JournalRecord::Policy(_) => {
                writer.append(record)?;
            }
            other => return Err(format!("unexpected journal record {other:?}").into()),
        }
        out.records += 1;
        if !matches!(
            record,
            JournalRecord::Snapshot(_) | JournalRecord::Policy(_)
        ) {
            applied += 1;
            // The worker publishes once per processed batch of requests,
            // which the journal does not record: spread as many
            // publishes as it made evenly over the mutations.
            if applied * publishes / mutations > (applied - 1) * publishes / mutations {
                let batch = out.publishes + 1;
                tracer.time(Timer::Publish, || cell.publish(view_of(&session, batch)));
                tracer.time(Timer::ReaderLoad, || reader.current().batches);
                out.publishes = batch;
            }
        }
        tracer.record_done(record_start);

        if tracer.enabled && (index as u64 + 1).is_multiple_of(PROBE_EVERY) {
            let probe_start = Instant::now();
            // The program's own spans must not count the probes' calls.
            wimesh_obs::finish();
            let cold = (index as u64 + 1).is_multiple_of(COLD_EVERY);
            let (vertices, edges) = probe_layers(mesh, &session, cold, tracer, &mut out.violations);
            out.conflict_vertices += vertices as f64;
            out.conflict_edges += edges as f64;
            probes += 1;
            wimesh_obs::install(Arc::clone(&sink));
            probe_time += probe_start.elapsed();
        }
    }
    out.wall = start.elapsed() - probe_time;
    if tracer.enabled {
        wimesh_obs::finish();
    }
    if probes > 0 {
        out.conflict_vertices /= probes as f64;
        out.conflict_edges /= probes as f64;
    }
    out.journal_bytes = std::fs::metadata(journal)?.len();
    out.stats = session.stats().clone();
    out.state = session.export_state();
    Ok(out)
}

fn view_of(session: &QosSession, batches: u64) -> ScheduleView {
    let outcome = session.snapshot();
    ScheduleView {
        batches,
        admitted: outcome.admitted.clone(),
        schedule: outcome.schedule.clone(),
        guaranteed_slots: outcome.guaranteed_slots,
        frame_slots: outcome.frame_slots(),
        stats: session.stats().clone(),
    }
}

/// Times one call into each layer on the session's current admitted set.
/// Returns the size of the conflict graph it built.
fn probe_layers(
    mesh: &MeshQos,
    session: &QosSession,
    cold: bool,
    tracer: &mut Tracer,
    violations: &mut Vec<String>,
) -> (usize, usize) {
    let outcome = session.snapshot();
    let admitted = outcome.admitted();
    if admitted.is_empty() {
        return (0, 0);
    }
    let topo = mesh.topology();
    let frame = mesh.model().frame();
    let mut note = |what: String| keep(violations, what);

    let paths: Vec<Route> = admitted
        .iter()
        .filter_map(|f| {
            tracer
                .time(Timer::Route, || {
                    routing::shortest_path(topo, f.spec.src, f.spec.dst)
                })
                .ok()
        })
        .collect();
    let demands = tracer.time(Timer::Demands, || mesh.demands_for(admitted));
    let links: Vec<_> = demands.links().collect();
    let mut graph = tracer.time(Timer::ConflictBuild, || {
        ConflictGraph::build_for_links(topo, links.clone(), mesh.interference())
    });
    let size = (graph.vertex_count(), graph.edge_count());
    if let Some(&last) = links.last() {
        tracer.time(Timer::RemoveVertex, || graph.remove_vertex(last));
        tracer.time(Timer::InsertVertex, || {
            graph.insert_vertex(topo, last, mesh.interference())
        });
    }
    tracer.time(Timer::CliqueCover, || graph.clique_cover());

    let ord = tracer.time(Timer::HopOrder, || order::hop_order(&graph, &paths));
    let slots = tracer.time(Timer::MinSlots, || {
        min_slots_for_order(&graph, &demands, &ord)
    });
    // Near capacity the hop order of the live set may not fit the frame
    // (the session then keeps its warm order); the call is timed anyway.
    let built = tracer.time(Timer::ScheduleFromOrder, || {
        schedule_from_order(&graph, &demands, &ord, frame)
    });
    if let (Ok(slots), Ok(schedule)) = (&slots, &built) {
        if schedule.makespan() != *slots {
            note(format!(
                "hop-order schedule occupies {} slots, min_slots_for_order said {slots}",
                schedule.makespan()
            ));
        }
    }
    tracer.time(Timer::DelayCheck, || {
        delay::max_delay_slots(&outcome.schedule, &paths)
    });

    let used = outcome.guaranteed_slots.clamp(1, frame.slots());
    let requirements = path_requirements(mesh, admitted);
    // The session's order is indexed by its own graph's numbering: carry
    // it over to this graph as link pairs.
    let state = session.export_state();
    let warm = TransmissionOrder::from_link_pairs(&graph, &state.warm_pairs);
    let valid = tracer.time(Timer::ValidateOrder, || {
        validate_order_within(&graph, &demands, &requirements, frame, used, &warm)
    });
    if valid.is_none() {
        note(String::from(
            "the session's own order does not validate within its region",
        ));
    }
    if session.policy() == OrderPolicy::ExactMilp {
        let solved = tracer.time(Timer::MilpFeasible, || {
            feasible_order_within(
                &graph,
                &demands,
                &requirements,
                frame,
                used,
                &SolverConfig::default(),
            )
        });
        if let Err(e) = solved {
            note(format!(
                "the oracle refuses the region the session publishes: {e}"
            ));
        }
    }

    let cert = CertInputs::derive(mesh, admitted);
    if let Err(e) = tracer.time(Timer::Certify, || cert.check(&outcome.schedule)) {
        note(format!("replayed schedule uncertified: {e}"));
    }
    let recovery = tracer.time(Timer::CertifyRecovery, || {
        Certificate::check_recovery(
            &outcome.schedule,
            &cert.graph,
            &cert.demands,
            &cert.flows,
            &cert.params,
            outcome.guaranteed_slots,
        )
    });
    if let Err(e) = recovery {
        note(format!(
            "replayed schedule fails the recovery certificate: {e}"
        ));
    }

    match tracer.time(Timer::RestoreSession, || mesh.restore_session(&state)) {
        Ok(mut copy) => {
            // On the copy: a rebalance re-solves from scratch and may
            // settle on another order than the journal's.
            let _ = tracer.time(Timer::Rebalance, || copy.rebalance().map(|_| ()));
        }
        Err(e) => note(format!("restore of an exported state failed: {e}")),
    }
    if cold {
        let specs: Vec<_> = admitted.iter().map(|f| f.spec.clone()).collect();
        let _ = tracer.time(Timer::ColdAdmit, || mesh.admit(&specs, session.policy()));
    }
    size
}

/// The delay requirement of each admitted flow, as the session derives
/// it (`wimesh`'s own helper is private): the deadline less one mesh
/// frame of source wait and one control subframe per possible wrap, in
/// minislots.
fn path_requirements(mesh: &MeshQos, admitted: &[wimesh::AdmittedFlow]) -> Vec<PathRequirement> {
    let model = mesh.model();
    let slot = Duration::from_micros(model.frame().slot_duration_us());
    let mesh_frame = model.mesh_frame();
    admitted
        .iter()
        .map(|f| {
            let wraps = f.path.hop_count().saturating_sub(1) as u32;
            let fixed = mesh_frame.frame_duration() + mesh_frame.ctrl_duration() * wraps;
            PathRequirement {
                path: f.path.clone(),
                deadline_slots: f
                    .spec
                    .deadline
                    .and_then(|d| d.checked_sub(fixed))
                    .filter(|budget| !budget.is_zero())
                    .map(|budget| (budget.as_nanos() / slot.as_nanos()) as u64),
            }
        })
        .collect()
}

/// Time the program's own spans recorded during the traced pass:
/// `(calls, total)` of `name`, from the obs registry.
pub fn program_span(name: &str) -> Agg {
    wimesh_obs::metrics::snapshot()
        .spans
        .iter()
        .find(|(n, _)| n == name)
        .map_or_else(Agg::default, |(_, s)| Agg {
            calls: s.count,
            total_ns: s.total_ns,
        })
}
