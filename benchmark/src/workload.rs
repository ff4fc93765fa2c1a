//! The four workloads and the seeded request generators behind them.
//!
//! The program under test sees only the generated [`Request`]s. A
//! generator is closed-loop state: it learns each request's outcome
//! through [`Generator::settle`] (a caller that blocks on its ticket
//! knows the answer before it asks again), so the stream is a function
//! of the seed and the outcomes fed back.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wimesh::sim::traffic::VoipCodec;
use wimesh::sim::FlowId;
use wimesh::topology::{generators, MeshTopology, NodeId};
use wimesh::{FlowSpec, OrderPolicy};
use wimesh_svc::Request;

/// Share of requests that release a flow while the mesh is below its
/// target population (above it, every request is a release).
const RELEASE_SHARE: f64 = 0.3;

/// Longest route of a churn call, in hops. Under `HopOrder` one long
/// route can serialise a frame's worth of minislots, and the session
/// then refuses even releases (see the findings in `README.md`). With
/// calls this short, at the populations below, no request failed in ten
/// seeds of any workload.
const MAX_HOPS: u32 = 4;

/// Mesh shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesh {
    Chain(usize),
    Grid(usize, usize),
}

impl Mesh {
    pub fn build(self) -> MeshTopology {
        match self {
            Mesh::Chain(n) => generators::chain(n),
            Mesh::Grid(w, h) => generators::grid(w, h),
        }
    }

    pub fn nodes(self) -> u32 {
        match self {
            Mesh::Chain(n) => n as u32,
            Mesh::Grid(w, h) => (w * h) as u32,
        }
    }

    /// Hops of the shortest route between two nodes.
    pub fn hops(self, a: u32, b: u32) -> u32 {
        match self {
            Mesh::Chain(_) => a.abs_diff(b),
            Mesh::Grid(w, _) => {
                let w = w as u32;
                (a % w).abs_diff(b % w) + (a / w).abs_diff(b / w)
            }
        }
    }
}

/// What a workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Gateway churn held at `live` flows: a loaded phase with `window`
    /// requests outstanding, then an unloaded phase with one. Set-up
    /// makes the first `warmup` requests, which fill the mesh many times
    /// over.
    Churn {
        live: usize,
        window: usize,
        warmup: u64,
    },
    /// Gateway episodes under the exact oracle, one request
    /// outstanding: admit `calls` flows toward node 0, release them all.
    Episodes { calls: usize },
    /// Journal recovery: set-up writes a journal of `requests` churn
    /// requests held at `live` flows, the run times `recover_file`.
    Recover { live: usize, requests: usize },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mesh: Mesh,
    pub policy: OrderPolicy,
    pub kind: Kind,
    /// Requests (recoveries, for the recovery workload) the traced run
    /// makes per second of `--seconds`: about a quarter of what the
    /// untraced run completed at the commit that defined the benchmark,
    /// since the traced run goes over them four times.
    pub trace_requests_per_s: u64,
}

/// Every workload, in the order `run.sh` runs them. `BENCHMARK.json`
/// repeats the names and the reasons (a unit test keeps them equal).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gw_churn_grid8",
        why: "session-bound: some 25 live flows on grid(8,8), so most of each op is core, tdma Bellman-Ford and conflict-graph work, svc is about a tenth and the oracle is never called",
        mesh: Mesh::Grid(8, 8),
        policy: OrderPolicy::HopOrder,
        kind: Kind::Churn {
            live: 32,
            window: 16,
            warmup: 500,
        },
        trace_requests_per_s: 1_000,
    },
    Workload {
        name: "gw_churn_chain6",
        why: "smallest instance: queue hand-off, journal encode and flush, snapshot export and view publish are most of the op, so svc and obs changes show here and solver changes must not",
        mesh: Mesh::Chain(6),
        policy: OrderPolicy::HopOrder,
        kind: Kind::Churn {
            live: 6,
            window: 16,
            warmup: 10_000,
        },
        trace_requests_per_s: 20_000,
    },
    Workload {
        name: "gw_exact_chain8",
        why: "ExactMilp episodes put the MILP branch and bound, the simplex and feasible_order_within on the measured path, where svc is noise",
        mesh: Mesh::Chain(8),
        policy: OrderPolicy::ExactMilp,
        kind: Kind::Episodes { calls: 10 },
        trace_requests_per_s: 80,
    },
    Workload {
        name: "recover_grid4",
        why: "the journal layer read instead of written: parse, snapshot restore, tail replay and certification, so a codec change that helps appends but hurts recovery shows",
        mesh: Mesh::Grid(4, 4),
        policy: OrderPolicy::HopOrder,
        kind: Kind::Recover { live: 40, requests: 1000 },
        trace_requests_per_s: 40,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a request ended, as far as a generator needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Admitted,
    Rejected,
    Released,
    /// The request did not complete (`Failed`, `Expired`, `Overloaded`,
    /// a dead ticket): the session is as it was before the request.
    Failed,
}

/// A closed-loop request source.
pub trait Generator {
    /// The next request, given every outcome settled so far.
    fn next_request(&mut self) -> Request;
    /// Feeds back how `request` ended.
    fn settle(&mut self, request: &Request, outcome: Outcome);
    /// Whether a phase may end here (between episodes, for generators
    /// that have them).
    fn at_boundary(&self) -> bool {
        true
    }
}

/// Seeded VoIP calls with increasing flow ids.
#[derive(Debug, Clone)]
struct Calls {
    rng: ChaCha8Rng,
    mesh: Mesh,
    next_id: u32,
}

impl Calls {
    fn new(seed: u64, mesh: Mesh) -> Self {
        assert!(mesh.nodes() >= 2, "a call needs two distinct nodes");
        Calls {
            rng: ChaCha8Rng::seed_from_u64(seed),
            mesh,
            next_id: 0,
        }
    }

    fn id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// A G.711 or G.729 call between two distinct seeded nodes at most
    /// [`MAX_HOPS`] apart.
    fn between_any(&mut self) -> FlowSpec {
        let nodes = self.mesh.nodes();
        let src = self.rng.gen_range(0..nodes);
        let dst = loop {
            let dst = self.rng.gen_range(0..nodes);
            if (1..=MAX_HOPS).contains(&self.mesh.hops(src, dst)) {
                break dst;
            }
        };
        let codec = if self.rng.gen_bool(0.5) {
            VoipCodec::G711
        } else {
            VoipCodec::G729
        };
        FlowSpec::voip(self.id(), NodeId(src), NodeId(dst), codec)
    }

    /// A G.711 call from `src` to gateway node 0.
    fn gateway_call(&mut self, src: u32) -> FlowSpec {
        FlowSpec::voip(self.id(), NodeId(src), NodeId(0), VoipCodec::G711)
    }
}

/// Churn around a target population: admit while fewer than `target`
/// flows are live or pending (with a [`RELEASE_SHARE`] of releases mixed
/// in), release otherwise.
#[derive(Debug, Clone)]
pub struct Churn {
    calls: Calls,
    target: usize,
    live: Vec<FlowId>,
    pending_admits: usize,
}

impl Churn {
    pub fn new(seed: u64, mesh: Mesh, target: usize) -> Self {
        Churn {
            calls: Calls::new(seed, mesh),
            target,
            live: Vec::with_capacity(target + 1),
            pending_admits: 0,
        }
    }
}

impl Generator for Churn {
    fn next_request(&mut self) -> Request {
        let holding = self.live.len() + self.pending_admits;
        let release = !self.live.is_empty()
            && (holding >= self.target || self.calls.rng.gen_bool(RELEASE_SHARE));
        if release {
            let at = self.calls.rng.gen_range(0..self.live.len());
            Request::Release(self.live.swap_remove(at))
        } else {
            self.pending_admits += 1;
            Request::Admit(self.calls.between_any())
        }
    }

    fn settle(&mut self, request: &Request, outcome: Outcome) {
        match request {
            Request::Admit(spec) => {
                self.pending_admits -= 1;
                if outcome == Outcome::Admitted {
                    self.live.push(spec.id);
                }
            }
            // A release that failed left the flow admitted: keep it, so
            // the generator's population matches the session's.
            Request::Release(id) if outcome == Outcome::Failed => self.live.push(*id),
            _ => {}
        }
    }
}

/// Episodes for the exact oracle: `calls` admissions toward the gateway,
/// then a release of every admitted flow, so each episode starts from an
/// empty session. Every episode calls from the same nodes (round robin
/// over the mesh) and the seed sets the order of the calls and of the
/// releases: the cost of an oracle solve depends so much on which flows
/// are up that seeded sources would make runs of two seeds incomparable.
/// Needs its outcomes settled one at a time (window 1).
#[derive(Debug, Clone)]
pub struct Episodes {
    calls: Calls,
    per_episode: usize,
    /// Admissions requested so far in this episode.
    issued: usize,
    /// Source nodes of this episode's calls, in seeded order.
    sources: Vec<u32>,
    live: Vec<FlowId>,
}

impl Episodes {
    pub fn new(seed: u64, mesh: Mesh, per_episode: usize) -> Self {
        Episodes {
            calls: Calls::new(seed, mesh),
            per_episode,
            issued: 0,
            sources: Vec::with_capacity(per_episode),
            live: Vec::with_capacity(per_episode),
        }
    }
}

impl Generator for Episodes {
    fn next_request(&mut self) -> Request {
        if self.issued == self.per_episode {
            if !self.live.is_empty() {
                let at = self.calls.rng.gen_range(0..self.live.len());
                return Request::Release(self.live.swap_remove(at));
            }
            self.issued = 0;
        }
        if self.issued == 0 {
            let nodes = self.calls.mesh.nodes();
            self.sources.clear();
            self.sources
                .extend((0..self.per_episode as u32).map(|k| 1 + k % (nodes - 1)));
            // Fisher-Yates with the seeded generator.
            for i in (1..self.sources.len()).rev() {
                let j = self.calls.rng.gen_range(0..=i);
                self.sources.swap(i, j);
            }
        }
        let src = self.sources[self.issued];
        self.issued += 1;
        Request::Admit(self.calls.gateway_call(src))
    }

    fn settle(&mut self, request: &Request, outcome: Outcome) {
        match request {
            Request::Admit(spec) if outcome == Outcome::Admitted => self.live.push(spec.id),
            Request::Release(id) if outcome == Outcome::Failed => self.live.push(*id),
            _ => {}
        }
    }

    fn at_boundary(&self) -> bool {
        self.live.is_empty() && (self.issued == 0 || self.issued == self.per_episode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a generator with a fixed outcome rule and renders the
    /// request stream as text.
    fn stream(gen: &mut dyn Generator, n: usize, reject_every: u32) -> String {
        let mut out = String::new();
        for _ in 0..n {
            let req = gen.next_request();
            let outcome = match &req {
                Request::Admit(s) if s.id.0 % reject_every == reject_every - 1 => Outcome::Rejected,
                Request::Admit(_) => Outcome::Admitted,
                _ => Outcome::Released,
            };
            out.push_str(&format!("{req:?}\n"));
            gen.settle(&req, outcome);
        }
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let mesh = Mesh::Grid(8, 8);
        let a = stream(&mut Churn::new(7, mesh, 40), 2_000, 9);
        let b = stream(&mut Churn::new(7, mesh, 40), 2_000, 9);
        let c = stream(&mut Churn::new(8, mesh, 40), 2_000, 9);
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_ne!(a, c);

        let a = stream(&mut Episodes::new(7, Mesh::Chain(8), 12), 500, 5);
        let b = stream(&mut Episodes::new(7, Mesh::Chain(8), 12), 500, 5);
        let c = stream(&mut Episodes::new(8, Mesh::Chain(8), 12), 500, 5);
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_ne!(a, c);
    }

    #[test]
    fn churn_holds_its_target_and_never_calls_a_node_itself() {
        let mut gen = Churn::new(3, Mesh::Chain(6), 6);
        for _ in 0..5_000 {
            let req = gen.next_request();
            let outcome = match &req {
                Request::Admit(s) => {
                    assert_ne!(s.src, s.dst);
                    assert!(s.src.0 < 6 && s.dst.0 < 6);
                    Outcome::Admitted
                }
                _ => Outcome::Released,
            };
            gen.settle(&req, outcome);
            assert!(gen.live.len() <= 6);
        }
        assert!(
            gen.live.len() >= 3,
            "population collapsed to {}",
            gen.live.len()
        );
    }

    #[test]
    fn a_failed_release_keeps_the_flow_live() {
        let mut gen = Churn::new(1, Mesh::Chain(6), 2);
        let mut released = None;
        while released.is_none() {
            let req = gen.next_request();
            match &req {
                Request::Admit(_) => gen.settle(&req, Outcome::Admitted),
                Request::Release(id) => released = Some((req.clone(), *id)),
                _ => unreachable!("churn never rebalances"),
            }
        }
        let (req, id) = released.expect("a release was generated");
        let before = gen.live.len();
        gen.settle(&req, Outcome::Failed);
        assert_eq!(gen.live.len(), before + 1);
        assert!(gen.live.contains(&id));

        let req = Request::Release(gen.live[0]);
        gen.live.remove(0);
        let before = gen.live.len();
        gen.settle(&req, Outcome::Released);
        assert_eq!(gen.live.len(), before);
    }

    #[test]
    fn episodes_fill_then_drain_to_empty() {
        let mut gen = Episodes::new(5, Mesh::Chain(8), 12);
        for episode in 0..3 {
            assert!(gen.at_boundary(), "episode {episode}");
            let mut admits = 0;
            let mut releases = 0;
            loop {
                let req = gen.next_request();
                match &req {
                    Request::Admit(s) => {
                        assert_eq!(s.dst, NodeId(0));
                        admits += 1;
                        // Every third call is turned away.
                        let outcome = if admits % 3 == 0 {
                            Outcome::Rejected
                        } else {
                            Outcome::Admitted
                        };
                        gen.settle(&req, outcome);
                    }
                    _ => {
                        releases += 1;
                        gen.settle(&req, Outcome::Released);
                    }
                }
                if gen.at_boundary() {
                    break;
                }
            }
            assert_eq!((admits, releases), (12, 8));
        }
    }
}
