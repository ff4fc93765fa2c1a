//! Multipath admission: splitting a flow over edge-disjoint routes.
//!
//! The authors' path-diversification work spreads a flow's packets over
//! multiple disjoint paths (with erasure coding for loss protection);
//! combined with TDMA reservations the same idea becomes a capacity tool:
//! a flow too big for any single route can be admitted as several
//! subflows whose reservations sit on link-disjoint paths, and a single
//! link's reservation shrinks by the split factor.
//!
//! [`split_over_disjoint_paths`] turns one [`FlowSpec`] into up to `k`
//! routed subflows (rate and burst divided evenly, fresh ids from a
//! caller-chosen base); feed the result to [`MeshQos::admit_routed`].
//! The flow's end-to-end bound is the worst of its subflows' bounds.
//!
//! [`MeshQos::admit_routed`]: crate::MeshQos::admit_routed

use wimesh_sim::FlowId;
use wimesh_topology::routing::{edge_disjoint_paths, Path};
use wimesh_topology::MeshTopology;

use crate::{FlowSpec, QosError};

/// Splits `spec` into up to `k` subflows over edge-disjoint shortest
/// paths.
///
/// Subflows get ids `base_id, base_id + 1, ...` (callers must keep these
/// distinct from other flows), `rate / n` each, and the burst divided by
/// `n` rounded up — a conservative split: the subflow bursts sum to at
/// least the original.
///
/// Returns fewer than `k` subflows when the topology offers fewer
/// disjoint routes; with a single route this degenerates to ordinary
/// single-path admission.
///
/// # Example
///
/// ```
/// use wimesh::multipath::split_over_disjoint_paths;
/// use wimesh::FlowSpec;
/// use wimesh_topology::generators;
///
/// let topo = generators::ring(6);
/// let flow = FlowSpec::best_effort(0, 0.into(), 3.into(), 1_000_000.0);
/// let subs = split_over_disjoint_paths(&topo, &flow, 2, 100)?;
/// assert_eq!(subs.len(), 2);
/// assert!((subs[0].0.rate_bps - 500_000.0).abs() < 1e-6);
/// # Ok::<(), wimesh::QosError>(())
/// ```
///
/// # Errors
///
/// [`QosError::Topology`] when no route exists at all, and
/// [`QosError::InvalidRate`] for a rate that is not finite and positive.
pub fn split_over_disjoint_paths(
    topo: &MeshTopology,
    spec: &FlowSpec,
    k: usize,
    base_id: u32,
) -> Result<Vec<(FlowSpec, Path)>, QosError> {
    // Negated so that NaN fails too.
    if !(spec.rate_bps > 0.0 && spec.rate_bps.is_finite()) {
        return Err(QosError::InvalidRate { flow: spec.id.0 });
    }
    let paths = edge_disjoint_paths(topo, spec.src, spec.dst, k.max(1))?;
    let n = paths.len() as u32;
    let burst = spec.burst_bytes.div_ceil(n);
    Ok(paths
        .into_iter()
        .enumerate()
        .map(|(i, path)| {
            let sub = FlowSpec {
                id: FlowId(base_id + i as u32),
                src: spec.src,
                dst: spec.dst,
                rate_bps: spec.rate_bps / n as f64,
                burst_bytes: burst,
                deadline: spec.deadline,
            };
            (sub, path)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeshQos, OrderPolicy};
    use std::time::Duration;
    use wimesh_topology::{generators, NodeId};

    #[test]
    fn split_divides_rate_and_burst() {
        let topo = generators::ring(6);
        let spec = FlowSpec::guaranteed(
            0,
            NodeId(0),
            NodeId(3),
            1_000_000.0,
            Duration::from_millis(100),
        );
        let subs = split_over_disjoint_paths(&topo, &spec, 4, 100).unwrap();
        assert_eq!(subs.len(), 2, "a ring has exactly two disjoint routes");
        for (i, (sub, path)) in subs.iter().enumerate() {
            assert_eq!(sub.id.0, 100 + i as u32);
            assert!((sub.rate_bps - 500_000.0).abs() < 1e-6);
            assert_eq!(path.source(), NodeId(0));
            assert_eq!(path.destination(), NodeId(3));
        }
        let total_burst: u32 = subs.iter().map(|(s, _)| s.burst_bytes).sum();
        assert!(total_burst >= spec.burst_bytes);
    }

    #[test]
    fn chain_degenerates_to_single_path() {
        let topo = generators::chain(4);
        let spec = FlowSpec::best_effort(0, NodeId(0), NodeId(3), 100_000.0);
        let subs = split_over_disjoint_paths(&topo, &spec, 3, 50).unwrap();
        assert_eq!(subs.len(), 1);
        assert!((subs[0].0.rate_bps - spec.rate_bps).abs() < 1e-6);
    }

    #[test]
    fn no_route_is_an_error() {
        let mut topo = generators::chain(3);
        let isolated = topo.add_node();
        let spec = FlowSpec::best_effort(0, NodeId(0), isolated, 100_000.0);
        assert!(matches!(
            split_over_disjoint_paths(&topo, &spec, 2, 0),
            Err(QosError::Topology(_))
        ));
    }

    #[test]
    fn multipath_admits_a_flow_too_big_for_one_route() {
        // A ring where one route cannot carry 3.2 Mbit/s (3 serial hops x
        // 14 slots > 32) but two half-rate subflows on disjoint routes
        // fit.
        let topo = generators::ring(6);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let spec = FlowSpec::guaranteed(
            0,
            NodeId(0),
            NodeId(3),
            3_200_000.0,
            Duration::from_millis(200),
        );
        // Single-path: rejected for capacity.
        let single = mesh
            .admit(std::slice::from_ref(&spec), OrderPolicy::HopOrder)
            .unwrap();
        assert!(
            single.admitted.is_empty(),
            "3.2 Mb/s should not fit one route"
        );

        // Multipath: split across both ring directions.
        let subs = split_over_disjoint_paths(mesh.topology(), &spec, 2, 10).unwrap();
        assert_eq!(subs.len(), 2);
        let routed: Vec<(FlowSpec, Option<_>)> =
            subs.into_iter().map(|(s, p)| (s, Some(p))).collect();
        let multi = mesh.admit_routed(&routed, OrderPolicy::HopOrder).unwrap();
        assert_eq!(multi.admitted.len(), 2, "rejected: {:?}", multi.rejected);
        for f in &multi.admitted {
            assert!(f.worst_case_delay <= spec.deadline.unwrap());
        }
    }

    #[test]
    fn admit_routed_rejects_mismatched_route() {
        let topo = generators::chain(4);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let spec = FlowSpec::best_effort(0, NodeId(0), NodeId(3), 50_000.0);
        // A path ending at the wrong node.
        let wrong =
            wimesh_topology::routing::shortest_path(mesh.topology(), NodeId(0), NodeId(2)).unwrap();
        let out = mesh
            .admit_routed(&[(spec, Some(wrong))], OrderPolicy::HopOrder)
            .unwrap();
        assert!(out.admitted.is_empty());
        assert_eq!(out.rejected[0].1, crate::RejectReason::NoRoute);
    }
}
