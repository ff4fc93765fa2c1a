//! The certifier, run on what the engine publishes, from outside it.
//!
//! The engine never certifies itself. A suite that holds it to the
//! guarantee hands each published outcome to [`certify`], which rebuilds
//! every input of `wimesh-check`'s [`Certificate::check`] from the
//! admitted flows alone: per-link demand from their specs and routes
//! ([`MeshQos::demands_for`]), the conflict graph built pairwise over the
//! demanded links (the session's memoised conflict lists never reach
//! it), and each flow's route and deadline.
//!
//! Included by the suites as `mod support;`; the ones outside this
//! directory name the file with `#[path]`.

use wimesh::conflict::ConflictGraph;
use wimesh::{AdmissionOutcome, MeshQos};
use wimesh_check::{CertParams, Certificate, CertificateReport, CertifyError, FlowRequirement};

/// Certifies `outcome`, published on `mesh`, with the independent
/// certifier.
pub fn certify(
    mesh: &MeshQos,
    outcome: &AdmissionOutcome,
) -> Result<CertificateReport, CertifyError> {
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
    Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params)
}
