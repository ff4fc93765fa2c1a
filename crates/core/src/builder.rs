//! The validated builder for [`MeshQos`], the one way to construct one.
//!
//! Every setting is given before the mesh exists and validated once, in
//! [`MeshQosBuilder::build`]: a built mesh is immutable, and an invalid
//! setting is an error, never a panic.

use wimesh_conflict::InterferenceModel;
use wimesh_emu::EmulationParams;
use wimesh_topology::MeshTopology;

use crate::{MeshQos, QosError, RatePolicy};

/// Builds a [`MeshQos`] with validated defaults.
///
/// Defaults: [`EmulationParams::default`], the 1-hop protocol
/// interference model, [`RatePolicy::Uniform`] and no loss provisioning.
///
/// # Example
///
/// ```
/// use wimesh::{MeshQos, OrderPolicy};
/// use wimesh_topology::generators;
///
/// let mesh = MeshQos::builder(generators::chain(4))
///     .loss_provisioning(0.1)
///     .build()?;
/// let session = mesh.session(OrderPolicy::HopOrder);
/// assert_eq!(session.snapshot().admitted().len(), 0);
/// # Ok::<(), wimesh::QosError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MeshQosBuilder {
    topo: MeshTopology,
    params: EmulationParams,
    interference: InterferenceModel,
    rates: RatePolicy,
    loss_provisioning: f64,
}

impl MeshQosBuilder {
    pub(crate) fn new(topo: MeshTopology) -> Self {
        Self {
            topo,
            params: EmulationParams::default(),
            interference: InterferenceModel::protocol_default(),
            rates: RatePolicy::Uniform,
            loss_provisioning: 0.0,
        }
    }

    /// Sets the emulation parameters (frame layout, guard times, PHY
    /// rate).
    pub fn params(mut self, params: EmulationParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the interference model used for conflict graphs.
    pub fn interference(mut self, model: InterferenceModel) -> Self {
        self.interference = model;
        self
    }

    /// Sets the per-link PHY rate policy.
    pub fn rate_policy(mut self, rates: RatePolicy) -> Self {
        self.rates = rates;
        self
    }

    /// Over-provisions every reservation for an expected
    /// per-transmission channel loss `p` in `[0, 0.9]` (validated at
    /// [`build`]): demands scale by `1/(1-p)`, giving retries in-frame
    /// headroom so the delay tail under loss stays near the clean-channel
    /// bound (see experiment E13).
    ///
    /// [`build`]: MeshQosBuilder::build
    pub fn loss_provisioning(mut self, p: f64) -> Self {
        self.loss_provisioning = p;
        self
    }

    /// Validates the configuration and builds the mesh.
    ///
    /// # Errors
    ///
    /// - [`QosError::Config`] for an out-of-range loss provisioning;
    /// - [`QosError::Emulation`] when the emulation parameters cannot
    ///   produce a usable minislot (guard too large, slot too short), or a
    ///   link's adapted rate leaves no room in it;
    /// - [`QosError::LinkBeyondRange`] when
    ///   [`RatePolicy::DistanceAdaptive`] finds a link longer than the base
    ///   rate's reach.
    pub fn build(self) -> Result<MeshQos, QosError> {
        if !(0.0..=0.9).contains(&self.loss_provisioning) {
            return Err(QosError::Config(format!(
                "loss provisioning must be in [0, 0.9], got {}",
                self.loss_provisioning
            )));
        }
        MeshQos::configured(
            self.topo,
            self.params,
            self.interference,
            &self.rates,
            self.loss_provisioning,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowSpec, OrderPolicy};
    use wimesh_sim::traffic::VoipCodec;
    use wimesh_topology::generators;
    use wimesh_topology::NodeId;

    #[test]
    fn builder_defaults_match_explicit_settings() {
        let topo = generators::chain(4);
        let built = MeshQos::builder(topo.clone()).build().unwrap();
        let explicit = MeshQos::builder(topo)
            .params(EmulationParams::default())
            .interference(InterferenceModel::protocol_default())
            .rate_policy(RatePolicy::Uniform)
            .loss_provisioning(0.0)
            .build()
            .unwrap();
        assert_eq!(built.interference(), explicit.interference());
        assert_eq!(
            built.model().slot_payload_bytes(),
            explicit.model().slot_payload_bytes()
        );
        // Same admission behaviour.
        let flows = vec![FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711)];
        let a = built.admit(&flows, OrderPolicy::HopOrder).unwrap();
        let b = explicit.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(a.admitted.len(), b.admitted.len());
        assert_eq!(a.guaranteed_slots, b.guaranteed_slots);
    }

    #[test]
    fn builder_rejects_bad_loss_provisioning() {
        let err = MeshQos::builder(generators::chain(3))
            .loss_provisioning(0.95)
            .build()
            .unwrap_err();
        assert!(matches!(err, QosError::Config(_)));
        assert!(err.to_string().contains("loss provisioning"));
    }

    #[test]
    fn builder_loss_provisioning_buys_headroom() {
        let topo = generators::chain(4);
        let provisioned = MeshQos::builder(topo.clone())
            .loss_provisioning(0.2)
            .build()
            .unwrap();
        let plain = MeshQos::builder(topo).build().unwrap();
        // 1.2 Mbit/s over 3 hops: 6 slots/link plain, 8 provisioned —
        // both fit the 32-slot frame.
        let flows = vec![FlowSpec::guaranteed(
            0,
            NodeId(3),
            NodeId(0),
            1_200_000.0,
            std::time::Duration::from_millis(200),
        )];
        let a = provisioned.admit(&flows, OrderPolicy::HopOrder).unwrap();
        let b = plain.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(a.admitted.len(), 1);
        assert!(
            a.guaranteed_slots > b.guaranteed_slots,
            "headroom costs slots"
        );
    }

    #[test]
    fn builder_rate_policy_and_interference() {
        use wimesh_phy80211::{PhyStandard, RateTable};
        let table = RateTable::new(PhyStandard::Dot11a, 350.0, 3.0);
        let mesh = MeshQos::builder(generators::chain(4))
            .interference(InterferenceModel::PrimaryOnly)
            .rate_policy(RatePolicy::DistanceAdaptive(table))
            .build()
            .unwrap();
        assert_eq!(mesh.interference(), InterferenceModel::PrimaryOnly);
    }
}
