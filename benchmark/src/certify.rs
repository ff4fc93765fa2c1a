//! Inputs of the independent certifier for a published schedule.

use wimesh::conflict::ConflictGraph;
use wimesh::tdma::{Demands, Schedule};
use wimesh::{AdmittedFlow, MeshQos};
use wimesh_check::{CertParams, Certificate, CertificateReport, CertifyError, FlowRequirement};

/// What `Certificate::check` needs beside the schedule, re-derived from
/// the admitted set the way `wimesh-svc` recovery derives it.
pub struct CertInputs {
    pub demands: Demands,
    pub graph: ConflictGraph,
    pub flows: Vec<FlowRequirement>,
    pub params: CertParams,
}

impl CertInputs {
    pub fn derive(mesh: &MeshQos, admitted: &[AdmittedFlow]) -> Self {
        let demands = mesh.demands_for(admitted);
        let graph = ConflictGraph::build_for_links(
            mesh.topology(),
            demands.links().collect(),
            mesh.interference(),
        );
        let flows = admitted
            .iter()
            .map(|f| FlowRequirement {
                id: u64::from(f.spec.id.0),
                links: f.path.links().to_vec(),
                deadline: f.spec.deadline,
            })
            .collect();
        CertInputs {
            demands,
            graph,
            flows,
            params: CertParams::from_emulation(mesh.model()),
        }
    }

    pub fn check(&self, schedule: &Schedule) -> Result<CertificateReport, CertifyError> {
        Certificate::check(
            schedule,
            &self.graph,
            &self.demands,
            &self.flows,
            &self.params,
        )
    }
}
