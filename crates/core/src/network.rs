//! The high-level façade: a mesh with an emulated WiMAX MAC.

use std::time::Duration;

use rand::Rng;
use wimesh_conflict::InterferenceModel;
use wimesh_emu::tdma::{TdmaFlow, TdmaSimulation};
use wimesh_emu::{EmulationModel, EmulationParams};
use wimesh_phy80211::dcf::{DcfConfig, DcfFlow, DcfSimulation};
use wimesh_phy80211::RateTable;
use wimesh_sim::traffic::TrafficSource;
use wimesh_sim::FlowStats;
use wimesh_topology::routing::shortest_path;
use wimesh_topology::{MeshTopology, NodeId};

use crate::admission::{self, AdmissionOutcome, OrderPolicy};
use crate::builder::MeshQosBuilder;
use crate::{FlowSpec, QosError};

/// How per-link PHY rates (and thus per-minislot capacities) are chosen.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RatePolicy {
    /// Every link runs the emulation model's single configured rate.
    Uniform,
    /// Each link runs the highest rate its length supports per the table;
    /// minislot capacity then differs per link.
    DistanceAdaptive(RateTable),
}

/// A mesh network running the emulated 802.16 TDMA MAC over WiFi
/// hardware.
///
/// Owns the topology and the emulation capacity model; provides admission
/// control ([`MeshQos::admit`]) and packet-level validation of its
/// guarantees against both the emulated MAC ([`MeshQos::simulate_tdma`])
/// and native 802.11 DCF ([`MeshQos::simulate_dcf`]).
///
/// See the [crate documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct MeshQos {
    topo: MeshTopology,
    model: EmulationModel,
    interference: InterferenceModel,
    /// Per-link minislot payload in bytes, indexed by `LinkId`.
    link_payloads: Vec<u32>,
    /// Expected per-transmission channel loss the reservations are
    /// over-provisioned for (demands scale by `1/(1-p)`).
    loss_provisioning: f64,
}

impl MeshQos {
    /// Starts a [`MeshQosBuilder`] for `topo` with validated defaults —
    /// the one way to construct a [`MeshQos`].
    pub fn builder(topo: MeshTopology) -> MeshQosBuilder {
        MeshQosBuilder::new(topo)
    }

    /// Opens a stateful [`QosSession`](crate::QosSession) over this mesh:
    /// incremental admission with a cached conflict graph and a
    /// warm-started feasibility search — the engine [`MeshQos::admit`]
    /// runs a fresh instance of. The session owns a clone of the mesh.
    pub fn session(&self, policy: OrderPolicy) -> crate::QosSession {
        crate::QosSession::new(self.clone(), policy)
    }

    /// Reconstructs a session from a previously exported
    /// [`SessionState`](crate::SessionState) — the import half of
    /// [`QosSession::export_state`](crate::QosSession::export_state).
    ///
    /// The recorded schedule is loaded verbatim (restoration is
    /// bit-identical, no re-solve) and cross-checked against this mesh:
    /// routes must still exist, reservations must match, the slot
    /// layout must be conflict-free and cover every demand. This is the
    /// recovery primitive the `wimesh-svc` journal replays onto.
    ///
    /// # Errors
    ///
    /// [`QosError::Config`] when the state disagrees with this mesh's
    /// topology or emulation parameters.
    pub fn restore_session(
        &self,
        state: &crate::SessionState,
    ) -> Result<crate::QosSession, QosError> {
        crate::QosSession::from_state(self.clone(), state)
    }

    /// The rest of [`MeshQosBuilder::build`] once it has validated the
    /// loss provisioning; the errors are the ones `build` documents.
    pub(crate) fn configured(
        topo: MeshTopology,
        params: EmulationParams,
        interference: InterferenceModel,
        rates: &RatePolicy,
        loss_provisioning: f64,
    ) -> Result<Self, QosError> {
        let model = EmulationModel::new(params)?;
        let mut link_payloads = vec![model.slot_payload_bytes(); topo.link_count()];
        if let RatePolicy::DistanceAdaptive(table) = rates {
            #[expect(
                clippy::expect_used,
                reason = "MeshTopology guarantees link endpoints are its own nodes"
            )]
            for link in topo.links() {
                let a = topo.node(link.tx).expect("links reference valid nodes");
                let b = topo.node(link.rx).expect("links reference valid nodes");
                let d = a.distance_to(b);
                let rate = table
                    .rate_for_distance(d)
                    .ok_or(QosError::LinkBeyondRange { link: link.id })?;
                link_payloads[link.id.index()] = model.payload_for_rate(rate)?;
            }
        }
        Ok(Self {
            topo,
            model,
            interference,
            link_payloads,
            loss_provisioning,
        })
    }

    /// Payload bytes one minislot carries on `link` under the rate
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not in the topology.
    pub fn link_payload(&self, link: wimesh_topology::LinkId) -> u32 {
        self.link_payloads[link.index()]
    }

    /// The mesh topology.
    pub fn topology(&self) -> &MeshTopology {
        &self.topo
    }

    /// The derived emulation capacity model.
    pub fn model(&self) -> &EmulationModel {
        &self.model
    }

    /// The interference model used for conflict graphs.
    pub fn interference(&self) -> InterferenceModel {
        self.interference
    }

    /// Re-derives the aggregate per-link minislot demand a set of admitted
    /// flows implies — the exact mapping admission uses (per-link loads
    /// summed *before* rounding to slots, loss over-provisioning applied).
    ///
    /// Exposed so independent verifiers (the `wimesh-check` certifier) can
    /// re-check a schedule against the same demand model the controller
    /// promised to satisfy.
    pub fn demands_for(&self, flows: &[admission::AdmittedFlow]) -> wimesh_tdma::Demands {
        admission::aggregate_demands(
            self.model(),
            self.link_payloads(),
            self.loss_provisioning(),
            flows.iter().map(|f| (&f.spec, &f.path)),
        )
    }

    /// Per-link minislot payloads, indexed by `LinkId` (internal).
    pub(crate) fn link_payloads(&self) -> &[u32] {
        &self.link_payloads
    }

    /// The configured loss over-provisioning factor (internal).
    pub(crate) fn loss_provisioning(&self) -> f64 {
        self.loss_provisioning
    }

    /// Runs admission control over `flows` under `policy`, each on its
    /// minimum-hop route (an unroutable flow is rejected).
    ///
    /// The flows are vetted, then placed one at a time on a fresh
    /// [`QosSession`](crate::QosSession): in input order, or cheapest
    /// first by the key of [`OrderPolicy::GreedySequential`], ranked
    /// against the joint demand of the whole batch. Each placement is the
    /// session's own admit decision, so verdicts are prefix-consistent —
    /// under the policies that keep input order, a flow's verdict depends
    /// only on the flows before it — and of two flows with one id the
    /// second is a [`RejectReason::DuplicateFlow`](crate::RejectReason).
    /// With a `wimesh-obs` sink installed the batch is one
    /// `admission.admit` span over the session's own spans.
    ///
    /// # Errors
    ///
    /// [`QosError::InvalidRate`] for a rate that is not finite and positive;
    /// scheduling and solver failures other than plain infeasibility (which
    /// is reported per flow in the outcome, not as an error).
    pub fn admit(
        &self,
        flows: &[FlowSpec],
        policy: OrderPolicy,
    ) -> Result<AdmissionOutcome, QosError> {
        let route = |spec: &FlowSpec| shortest_path(&self.topo, spec.src, spec.dst).ok();
        let routed: Vec<_> = flows.iter().map(|f| (f.clone(), route(f))).collect();
        crate::QosSession::admit_fresh(self, &routed, policy)
    }

    /// Simulates the admitted flows over the emulated TDMA MAC for
    /// `duration`, with `make_source` supplying each flow's traffic
    /// process.
    ///
    /// Returns per-flow statistics in `outcome.admitted` order.
    ///
    /// # Errors
    ///
    /// [`QosError::Emulation`] if the outcome's schedule does not cover a
    /// flow path (cannot happen for outcomes produced by
    /// [`MeshQos::admit`]).
    pub fn simulate_tdma<R: Rng>(
        &self,
        outcome: &AdmissionOutcome,
        mut make_source: impl FnMut(&FlowSpec) -> Box<dyn TrafficSource>,
        duration: Duration,
        queue_capacity: usize,
        rng: &mut R,
    ) -> Result<Vec<FlowStats>, QosError> {
        let flows: Vec<TdmaFlow> = outcome
            .admitted
            .iter()
            .map(|a| TdmaFlow {
                id: a.spec.id,
                path: a.path.clone(),
                source: make_source(&a.spec),
            })
            .collect();
        let payloads: std::collections::BTreeMap<_, _> = outcome
            .schedule
            .links()
            .map(|l| (l, self.link_payloads[l.index()]))
            .collect();
        let mut sim = TdmaSimulation::new(self.model, &outcome.schedule, flows, queue_capacity)?
            .with_link_payloads(&payloads);
        sim.run(duration, rng);
        Ok(sim.all_stats().to_vec())
    }

    /// Simulates the same flow set over native 802.11 DCF (the baseline
    /// the paper compares against), using the same routes admission would
    /// use.
    ///
    /// Returns per-flow statistics in `flows` order; unroutable flows are
    /// skipped (their stats are absent), mirroring admission's `NoRoute`.
    pub fn simulate_dcf<R: Rng>(
        &self,
        flows: &[FlowSpec],
        mut make_source: impl FnMut(&FlowSpec) -> Box<dyn TrafficSource>,
        config: DcfConfig,
        duration: Duration,
        rng: &mut R,
    ) -> Vec<(FlowSpec, FlowStats)> {
        let mut dcf_flows = Vec::new();
        let mut kept = Vec::new();
        for spec in flows {
            let Ok(path) = shortest_path(&self.topo, spec.src, spec.dst) else {
                continue;
            };
            let route: Vec<NodeId> = path.nodes().to_vec();
            dcf_flows.push(DcfFlow {
                id: spec.id,
                route,
                source: make_source(spec),
            });
            kept.push(spec.clone());
        }
        let mut sim = DcfSimulation::new(&self.topo, config, dcf_flows);
        sim.run(duration, rng);
        kept.into_iter()
            .zip(sim.all_stats().iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wimesh_sim::traffic::{VoipCodec, VoipSource};
    use wimesh_topology::generators;

    fn voip_source(spec: &FlowSpec) -> Box<dyn TrafficSource> {
        let codec = if spec.rate_bps > 50_000.0 {
            VoipCodec::G711
        } else {
            VoipCodec::G729
        };
        Box::new(VoipSource::new(codec))
    }

    #[test]
    fn end_to_end_guarantee_holds_in_simulation() {
        let topo = generators::chain(5);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows = vec![
            FlowSpec::voip(0, NodeId(4), NodeId(0), VoipCodec::G711),
            FlowSpec::voip(1, NodeId(2), NodeId(0), VoipCodec::G729),
        ];
        let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(outcome.admitted.len(), 2);
        let stats = mesh
            .simulate_tdma(
                &outcome,
                voip_source,
                Duration::from_secs(30),
                200,
                &mut StdRng::seed_from_u64(42),
            )
            .unwrap();
        for (a, s) in outcome.admitted.iter().zip(&stats) {
            assert_eq!(s.dropped(), 0, "guaranteed flow dropped packets");
            assert!(
                s.max_delay() <= a.worst_case_delay,
                "flow {}: observed {:?} > bound {:?}",
                a.spec.id,
                s.max_delay(),
                a.worst_case_delay
            );
        }
    }

    #[test]
    fn dcf_baseline_runs_same_flows() {
        let topo = generators::chain(4);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows = vec![FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711)];
        // CBR keeps this smoke test independent of on/off luck.
        let results = mesh.simulate_dcf(
            &flows,
            |_| {
                Box::new(wimesh_sim::traffic::CbrSource::new(
                    Duration::from_millis(20),
                    200,
                ))
            },
            DcfConfig::default(),
            Duration::from_secs(5),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(results.len(), 1);
        assert!(results[0].1.delivered() > 200);
    }

    #[test]
    fn distance_adaptive_rates_shape_capacity() {
        use wimesh_phy80211::RateTable;
        // Chain with 250 m spacing: links run a mid rate, not 54 Mbit/s.
        let topo = generators::chain(4);
        // Base rate reaching 350 m puts the 250 m chain links at
        // 12 Mbit/s — slower than the uniform model's 24.
        let table = RateTable::new(wimesh_phy80211::PhyStandard::Dot11a, 350.0, 3.0);
        let mesh = MeshQos::builder(topo)
            .rate_policy(RatePolicy::DistanceAdaptive(table))
            .build()
            .unwrap();
        let uniform = MeshQos::builder(generators::chain(4)).build().unwrap();
        let l = mesh.topology().link_between(NodeId(0), NodeId(1)).unwrap();
        // 250 m at the default table is slower than 24 Mbit/s: capacity
        // per minislot drops below the uniform model's.
        assert!(mesh.link_payload(l) < uniform.link_payload(l));

        // Admission still works end to end, with bigger reservations.
        let flows = vec![crate::FlowSpec::voip(
            0,
            NodeId(3),
            NodeId(0),
            wimesh_sim::traffic::VoipCodec::G711,
        )];
        let slow = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        let fast = uniform.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(slow.admitted.len(), 1);
        assert!(slow.guaranteed_slots >= fast.guaranteed_slots);
        // And the guarantee still holds in simulation.
        let mut rng = StdRng::seed_from_u64(3);
        let stats = mesh
            .simulate_tdma(&slow, voip_source, Duration::from_secs(20), 100, &mut rng)
            .unwrap();
        assert_eq!(stats[0].dropped(), 0);
        assert!(stats[0].max_delay() <= slow.admitted[0].worst_case_delay);
    }

    #[test]
    fn overlong_link_rejected_by_rate_policy() {
        use wimesh_phy80211::RateTable;
        let mut topo = wimesh_topology::MeshTopology::new();
        let a = topo.add_node_at(0.0, 0.0);
        let b = topo.add_node_at(2_000.0, 0.0); // beyond 400 m base range
        topo.add_bidirectional(a, b).unwrap();
        let table = RateTable::mesh_default(wimesh_phy80211::PhyStandard::Dot11a);
        assert!(matches!(
            MeshQos::builder(topo)
                .rate_policy(RatePolicy::DistanceAdaptive(table))
                .build(),
            Err(QosError::LinkBeyondRange { .. })
        ));
    }

    #[test]
    fn loss_provisioning_buys_headroom() {
        let topo = generators::chain(4);
        let provisioned = MeshQos::builder(topo.clone())
            .loss_provisioning(0.2)
            .build()
            .unwrap();
        let plain = MeshQos::builder(topo).build().unwrap();
        assert_eq!(provisioned.loss_provisioning(), 0.2);
        assert_eq!(plain.loss_provisioning(), 0.0);
        // 1.2 Mbit/s over 3 hops: 6 slots/link plain, 8 provisioned —
        // both fit the 32-slot frame.
        let flows = vec![crate::FlowSpec::guaranteed(
            0,
            NodeId(3),
            NodeId(0),
            1_200_000.0,
            Duration::from_millis(200),
        )];
        let a = provisioned.admit(&flows, OrderPolicy::HopOrder).unwrap();
        let b = plain.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(a.admitted.len(), 1);
        assert_eq!(b.admitted.len(), 1);
        assert!(
            a.guaranteed_slots > b.guaranteed_slots,
            "headroom costs slots"
        );
    }

    #[test]
    fn accessors() {
        let topo = generators::chain(3);
        let mesh = MeshQos::builder(topo).build().unwrap();
        assert_eq!(mesh.topology().node_count(), 3);
        assert!(mesh.model().slot_payload_bytes() > 0);
        assert_eq!(mesh.interference(), InterferenceModel::protocol_default());
    }
}
