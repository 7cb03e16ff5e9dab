//! Hierarchical CDI rollups over the fleet topology.
//!
//! The paper aggregates per-VM CDIs into fleet values with Formula 4
//! (`Q = Σ T_i·Q_i / Σ T_i`, per sub-metric); the serving layer applies
//! the same formula at every level of the hierarchy — region → AZ →
//! cluster → NC → VM — by selecting the VM set of a [`Scope`] from the
//! simfleet topology and aggregating their live rows. A rollup is thus
//! always consistent with the per-VM answers at the same watermark.

use cdi_core::error::Result;
use cdi_core::indicator::{aggregate, CdiBreakdown};
use simfleet::{Fleet, Scope};

use crate::service::CdiService;

/// A rollup answer: the scope, the VM rows beneath it, and their Formula 4
/// aggregate.
#[derive(Debug, Clone)]
pub struct Rollup {
    /// The scope that was rolled up.
    pub scope: Scope,
    /// VMs that contributed.
    pub vm_count: usize,
    /// The Formula 4 aggregate across those VMs.
    pub breakdown: CdiBreakdown,
}

/// Roll up the live CDI of every VM inside `scope`.
///
/// Errors if the scope selects no VMs (an empty aggregate is degenerate,
/// matching `cdi_core::indicator::aggregate`) or if no service time has
/// elapsed yet.
pub fn rollup(service: &CdiService, fleet: &Fleet, scope: &Scope) -> Result<Rollup> {
    let rows = service.vm_rows(&fleet.vms_in(scope))?;
    Ok(Rollup { scope: scope.clone(), vm_count: rows.len(), breakdown: aggregate(&rows)? })
}
