//! Diagnosis over the live serving path.
//!
//! [`ServiceTap`] recovers per-tick damage fractions from a running
//! [`CdiService`] exactly like the suite's
//! [`live_table`](scenario_suite::table::live_table) — watermark deltas
//! of [`CdiService::damage`] — and feeds them straight into the streaming
//! [`OutageClusterer`](crate::cluster::OutageClusterer). [`LiveDiag`]
//! wraps a tap plus the service `Arc` into a
//! [`cdi_serve::DiagProvider`], so a server started with
//! [`cdi_serve::serve_with_diag`] diagnoses on every committed `Advance`
//! and answers `Diagnose` requests with the open outage clusters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cdi_core::error::{CdiError, Result};
use cdi_core::event::{Category, Target};
use cdi_serve::{CdiService, DiagProvider, OutageScope, OutageSummary};
use scenario_suite::table::tick_cell;
use scenario_suite::truth::TruthScope;
use simfleet::faults::DamageCategory;
use simfleet::topology::{Fleet, VmId};

use crate::cluster::{DiagConfig, OutageClusterer, OutageDiagnosis};

/// Mutable tap state, serialized behind one mutex: concurrent `Advance`
/// requests must produce the same tick sequence as a serial replay.
#[derive(Debug)]
struct TapState {
    /// Per-VM frozen damage at the previous watermark.
    prev: BTreeMap<VmId, [u64; 3]>,
    /// The previous watermark (start of the next tick).
    low: i64,
    clusterer: OutageClusterer,
    /// Outages closed by past ticks, kept for [`ServiceTap::closed`].
    closed: Vec<OutageDiagnosis>,
}

/// A diagnosis tap over a running [`CdiService`]: one
/// [`observe`](ServiceTap::observe) call per committed watermark advance.
#[derive(Debug)]
pub struct ServiceTap {
    state: Mutex<TapState>,
}

impl ServiceTap {
    /// A tap over `fleet`'s VMs, ticking from `start`.
    pub fn new(fleet: Fleet, start: i64, config: DiagConfig) -> ServiceTap {
        let prev = fleet.vms().iter().map(|v| (v.id, [0u64; 3])).collect();
        ServiceTap {
            state: Mutex::new(TapState {
                prev,
                low: start,
                clusterer: OutageClusterer::new(fleet, config),
                closed: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, TapState>> {
        self.state.lock().map_err(|_| CdiError::invalid("diagnosis tap mutex poisoned"))
    }

    /// Observe the service at a newly committed `watermark`: recover the
    /// tick `[low, watermark)` from the per-VM row deltas and cluster it.
    /// Returns the outages that closed on this tick. A watermark at or
    /// below the previous one is a no-op (idempotent re-advance).
    pub fn observe(&self, service: &CdiService, watermark: i64) -> Result<Vec<OutageDiagnosis>> {
        let mut state = self.lock()?;
        if watermark <= state.low {
            return Ok(Vec::new());
        }
        service.flush();
        let low = state.low;
        state.low = watermark;
        let mut cells: BTreeMap<VmId, [f64; 3]> = BTreeMap::new();
        for (vm, p) in &mut state.prev {
            let now = service.damage(Target::Vm(*vm));
            cells.insert(*vm, tick_cell(now, p, watermark - low));
        }
        let newly_closed = state.clusterer.observe_tick(low, watermark, &cells);
        state.closed.extend(newly_closed.clone());
        Ok(newly_closed)
    }

    /// Snapshots of the currently open outages.
    pub fn active(&self) -> Result<Vec<OutageDiagnosis>> {
        Ok(self.lock()?.clusterer.active())
    }

    /// Every outage closed so far, in arrival order.
    pub fn closed(&self) -> Result<Vec<OutageDiagnosis>> {
        Ok(self.lock()?.closed.clone())
    }

    /// Close all still-open outages (end of stream) and return them.
    pub fn finish(&self) -> Result<Vec<OutageDiagnosis>> {
        let mut state = self.lock()?;
        let rest = state.clusterer.finish();
        state.closed.extend(rest.clone());
        Ok(rest)
    }
}

/// Map a diagnosis onto the wire's summary record.
pub fn to_summary(d: &OutageDiagnosis) -> OutageSummary {
    let scope = match &d.scope {
        TruthScope::Vm(id) => OutageScope::Vm(*id),
        TruthScope::Nc(id) => OutageScope::Nc(*id),
        TruthScope::Cluster(name) => OutageScope::Cluster(name.clone()),
        TruthScope::Az(name) => OutageScope::Az(name.clone()),
        TruthScope::Region(name) => OutageScope::Region(name.clone()),
        TruthScope::Global => OutageScope::Global,
    };
    let category = match d.category {
        DamageCategory::Unavailability => Category::Unavailability,
        DamageCategory::Performance => Category::Performance,
        DamageCategory::ControlPlane => Category::ControlPlane,
    };
    OutageSummary {
        scope,
        category,
        start: d.start,
        end: d.end,
        ticks: d.ticks,
        spiking_vms: d.peak_spiking_vms,
        total_vms: d.total_vms,
        spiking_ncs: d.spiking_ncs,
        concentration: d.concentration,
        confidence: d.confidence,
    }
}

/// The serve-layer provider: ticks the tap on every committed `Advance`
/// and answers `Diagnose` with the open clusters. Diagnosis failures
/// never fail the serving path — they are counted and the answer degrades
/// to empty.
#[derive(Debug)]
pub struct LiveDiag {
    service: Arc<CdiService>,
    tap: ServiceTap,
    errors: AtomicU64,
}

impl LiveDiag {
    /// Attach a tap to the service the server is about to share.
    pub fn new(service: Arc<CdiService>, tap: ServiceTap) -> LiveDiag {
        LiveDiag { service, tap, errors: AtomicU64::new(0) }
    }

    /// Diagnosis failures swallowed so far (each one degraded an answer,
    /// never the serving path).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::SeqCst)
    }

    /// The underlying tap (for closed-outage inspection in tests).
    pub fn tap(&self) -> &ServiceTap {
        &self.tap
    }
}

impl DiagProvider for LiveDiag {
    fn on_advance(&self, watermark: i64) {
        if self.tap.observe(&self.service, watermark).is_err() {
            self.errors.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn active(&self) -> Vec<OutageSummary> {
        match self.tap.active() {
            Ok(active) => active.iter().map(to_summary).collect(),
            Err(_) => {
                self.errors.fetch_add(1, Ordering::SeqCst);
                Vec::new()
            }
        }
    }
}
