//! The closed-loop driver of the real `AdmissionGateway`.
//!
//! Every caller of `GatewayClient` blocks on its `Ticket`, so the load
//! is closed loop: one generator thread keeps a window of W requests
//! outstanding, which stands in for W blocked clients without W threads.
//! Replies come back in submission order (one worker, FIFO queue), so
//! waiting on the oldest ticket observes each reply as it arrives.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use wimesh::{MeshQos, SessionState};
use wimesh_svc::{
    recover_file, AdmissionGateway, GatewayClient, GatewayConfig, GatewayReport, JournalWriter,
    Reply, Request, ScheduleView, SnapshotReader,
};

use crate::certify::CertInputs;
use crate::slices::{Rates, Slices};
use crate::stats::{summarize, LatencySummary};
use crate::workload::{Churn, Episodes, Generator, Kind, Outcome, Workload};
use crate::Res;

/// Latency samples kept per phase.
const LATENCY_SAMPLES: usize = 1 << 20;

/// The sample buffers every phase reuses. They are allocated and
/// written once, up front, so that peak memory does not grow with the
/// number of requests a faster program completes in the same time.
pub struct Samples {
    /// Submit-to-reply nanoseconds of every request.
    all: Vec<u64>,
    /// The same for admissions alone. Admissions and releases cost
    /// differently and come in equal numbers, so the median over both
    /// sits between two modes and jumps from one to the other.
    admits: Vec<u64>,
}

impl Samples {
    pub fn new() -> Self {
        let touched = || {
            let mut v = vec![1; LATENCY_SAMPLES];
            v.clear();
            v
        };
        Samples {
            all: touched(),
            admits: touched(),
        }
    }
}

/// Every this many replies the generator thread certifies the view the
/// gateway currently publishes.
const CERTIFY_EVERY: u64 = 64;

/// Episodes a set-up of the episode workload runs: one episode's cost
/// depends on the order the seed gives its calls, several average out.
const SETUP_EPISODES: u64 = 4;

/// Texts of failed requests or output checks kept for the run log.
const KEPT_ERRORS: usize = 5;

/// Adds `what` to `log` unless it already holds the first few.
pub fn keep(log: &mut Vec<String>, what: String) {
    if log.len() < KEPT_ERRORS {
        log.push(what);
    }
}

/// Request outcomes of one phase (or several, summed).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub attempted: u64,
    pub admits: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// `Failed`, `Expired` and `Overloaded` replies and dead tickets.
    /// `Rejected` is a verdict, not a failure.
    pub failed: u64,
    /// The first few failure texts, for the run log.
    pub errors: Vec<String>,
}

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.admits += other.admits;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.failed += other.failed;
        for e in &other.errors {
            keep(&mut self.errors, e.clone());
        }
    }

    /// Counts one finished request and says what the generator should
    /// make of it.
    pub fn record(&mut self, request: &Request, reply: Result<&Reply, String>) -> Outcome {
        self.attempted += 1;
        if matches!(request, Request::Admit(_)) {
            self.admits += 1;
        }
        let why = match reply {
            Ok(Reply::Admitted(_)) => {
                self.admitted += 1;
                return Outcome::Admitted;
            }
            Ok(Reply::Rejected(_)) => {
                self.rejected += 1;
                return Outcome::Rejected;
            }
            Ok(Reply::Released(_) | Reply::Rebalanced) => return Outcome::Released,
            Ok(Reply::Failed(why)) => why.clone(),
            Ok(other) => format!("{other:?}"),
            Err(why) => why,
        };
        self.failed += 1;
        keep(&mut self.errors, format!("{request:?}: {why}"));
        Outcome::Failed
    }
}

/// Output checks made while the gateway runs.
pub struct LiveChecks<'a> {
    mesh: &'a MeshQos,
    reader: SnapshotReader<ScheduleView>,
    replies: u64,
    pub views_certified: u64,
    pub violations: Vec<String>,
}

impl<'a> LiveChecks<'a> {
    pub fn new(mesh: &'a MeshQos, client: &GatewayClient) -> Self {
        LiveChecks {
            mesh,
            reader: client.reader(),
            replies: 0,
            views_certified: 0,
            violations: Vec::new(),
        }
    }

    fn on_reply(&mut self, reply: &Reply) {
        if let Reply::Admitted(flow) = reply {
            if flow
                .spec
                .deadline
                .is_some_and(|d| flow.worst_case_delay > d)
            {
                keep(
                    &mut self.violations,
                    format!(
                        "flow {} admitted with bound {:?} past its deadline {:?}",
                        flow.spec.id, flow.worst_case_delay, flow.spec.deadline
                    ),
                );
            }
        }
        self.replies += 1;
        if self.replies.is_multiple_of(CERTIFY_EVERY) {
            let view = std::sync::Arc::clone(self.reader.current());
            self.views_certified += 1;
            if let Err(e) = CertInputs::derive(self.mesh, &view.admitted).check(&view.schedule) {
                keep(
                    &mut self.violations,
                    format!("view of batch {} uncertified: {e}", view.batches),
                );
            }
        }
    }
}

/// One measured stretch of requests at a fixed window.
#[derive(Debug)]
pub struct Phase {
    pub wall: Duration,
    /// Throughput and CPU cost over the phase's one-second slices
    /// (`None` for a phase without requests).
    pub rates: Option<Rates>,
    /// Submit-to-reply times of the first [`LATENCY_SAMPLES`] requests
    /// (`None` for a phase without requests), and of its admissions.
    pub latency: Option<LatencySummary>,
    pub admit_latency: Option<LatencySummary>,
    pub counts: Counts,
}

/// Keeps `window` requests outstanding until `stop` says so (asked
/// before each submission with the number of requests issued so far) and
/// the generator is between episodes, then drains.
pub fn run_phase(
    client: &GatewayClient,
    gen: &mut dyn Generator,
    window: usize,
    stop: &mut dyn FnMut(u64) -> bool,
    checks: &mut LiveChecks<'_>,
    samples: &mut Samples,
) -> Phase {
    samples.all.clear();
    samples.admits.clear();
    let mut counts = Counts::default();
    let mut outstanding = VecDeque::with_capacity(window);
    let mut issued = 0u64;
    let mut stopping = false;
    let start = Instant::now();
    let mut slices = Slices::start();
    loop {
        if gen.at_boundary() {
            slices.tick();
        }
        while !stopping && outstanding.len() < window {
            if stop(issued) && gen.at_boundary() {
                stopping = true;
                break;
            }
            let request = gen.next_request();
            issued += 1;
            let sent = Instant::now();
            match client.submit(request.clone()) {
                Ok(ticket) => outstanding.push_back((request, sent, ticket)),
                Err(e) => {
                    let outcome = counts.record(&request, Err(e.to_string()));
                    gen.settle(&request, outcome);
                }
            }
        }
        let Some((request, sent, ticket)) = outstanding.pop_front() else {
            break;
        };
        let reply = ticket.wait();
        let latency = sent.elapsed();
        slices.op();
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        if samples.all.len() < LATENCY_SAMPLES {
            samples.all.push(nanos);
        }
        if matches!(request, Request::Admit(_)) && samples.admits.len() < LATENCY_SAMPLES {
            samples.admits.push(nanos);
        }
        let outcome = counts.record(&request, reply.as_ref().map_err(ToString::to_string));
        gen.settle(&request, outcome);
        if let Ok(reply) = &reply {
            checks.on_reply(reply);
        }
    }
    Phase {
        wall: start.elapsed(),
        rates: slices.finish(),
        latency: summarize(&mut samples.all),
        admit_latency: summarize(&mut samples.admits),
        counts,
    }
}

/// A started gateway with its generator, ready to be measured.
pub struct Running {
    pub gateway: AdmissionGateway,
    pub client: GatewayClient,
    pub gen: Box<dyn Generator>,
    /// Outcomes of the set-up requests.
    pub prefill: Counts,
}

/// Set-up of a gateway workload: start the gateway over a journal file
/// and warm it up — for churn until the mesh holds its population and
/// the warm-up requests are done, for episodes through
/// [`SETUP_EPISODES`] whole episodes.
pub fn start(
    workload: &Workload,
    mesh: &MeshQos,
    seed: u64,
    journal: &Path,
    samples: &mut Samples,
) -> Res<Running> {
    let (gateway, client) = AdmissionGateway::start(
        mesh.session(workload.policy),
        JournalWriter::create(journal)?,
        GatewayConfig::default(),
    )?;
    let mut checks = LiveChecks::new(mesh, &client);
    let (mut gen, window, requests): (Box<dyn Generator>, usize, u64) = match workload.kind {
        Kind::Churn {
            live,
            window,
            warmup,
        } => (
            Box::new(Churn::new(seed, workload.mesh, live)),
            window,
            warmup,
        ),
        Kind::Episodes { calls } => (
            Box::new(Episodes::new(seed, workload.mesh, calls)),
            1,
            SETUP_EPISODES * 2 * calls as u64,
        ),
        Kind::Recover { .. } => return Err("the recovery workload has no gateway".into()),
    };
    let phase = run_phase(
        &client,
        gen.as_mut(),
        window,
        &mut |issued| issued >= requests,
        &mut checks,
        samples,
    );
    if let Some(v) = checks.violations.first() {
        return Err(format!("set-up output check failed: {v}").into());
    }
    Ok(Running {
        gateway,
        client,
        gen,
        prefill: phase.counts,
    })
}

/// Whether two exported states describe the same session: flows,
/// schedule and guaranteed region bit for bit, and the same set of warm
/// order pairs. The pairs are listed in the order of the live session's
/// conflict-graph numbering, which depends on its history, so a
/// restored session lists the same pairs in another order.
pub fn same_state(a: &SessionState, b: &SessionState) -> bool {
    let sorted = |s: &SessionState| {
        let mut pairs = s.warm_pairs.clone();
        pairs.sort_unstable();
        pairs
    };
    a.policy == b.policy
        && a.flows == b.flows
        && a.ranges == b.ranges
        && a.guaranteed_slots == b.guaranteed_slots
        && sorted(a) == sorted(b)
}

/// Stops the gateway and checks that recovering its journal gives the
/// state it shut down with.
pub fn shutdown_and_recover(
    workload: &Workload,
    mesh: &MeshQos,
    gateway: AdmissionGateway,
    journal: &Path,
) -> (GatewayReport, Result<(), String>) {
    let report = gateway.shutdown();
    let check = match recover_file(mesh, workload.policy, journal) {
        Ok(recovered) if same_state(&recovered.session.export_state(), &report.state) => Ok(()),
        Ok(_) => Err(String::from(
            "recovered state differs from the state at shutdown",
        )),
        Err(e) => Err(format!("recovery of the gateway's journal failed: {e}")),
    };
    (report, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh::sim::FlowId;
    use wimesh::RejectReason;

    #[test]
    fn failures_are_failed_expired_and_overloaded_but_not_rejected() {
        let release = Request::Release(FlowId(3));
        let mut c = Counts::default();
        assert_eq!(
            c.record(&release, Ok(&Reply::Failed(String::from("boom")))),
            Outcome::Failed
        );
        assert_eq!(c.record(&release, Ok(&Reply::Expired)), Outcome::Failed);
        assert_eq!(
            c.record(&release, Err(String::from("request queue full"))),
            Outcome::Failed
        );
        assert_eq!(c.failed, 3);
        assert_eq!(
            c.record(&release, Ok(&Reply::Rejected(RejectReason::Infeasible))),
            Outcome::Rejected
        );
        assert_eq!(
            c.record(&release, Ok(&Reply::Released(true))),
            Outcome::Released
        );
        assert_eq!((c.attempted, c.failed, c.rejected), (5, 3, 1));
        assert_eq!(c.errors.len(), 3);
        assert!(c.errors[0].contains("boom"));
    }
}
