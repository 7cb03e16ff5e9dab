//! The scenario-suite adapter: diagnosis as the fourth [`Detector`].
//!
//! [`DiagDetector`] replays a prepared scenario's per-tick damage table
//! through the [`OutageClusterer`](crate::cluster::OutageClusterer) —
//! either the batch accumulator table or the sharded live-service replay
//! (the same table pair the suite's parity tests pin equal) — and emits
//! one [`Detection`] per diagnosed outage. The two tables are equal cell
//! for cell, so the batch and live paths produce byte-identical
//! diagnoses, which `tests/diag_props.rs` asserts with `==`.

use cdi_core::error::Result;
use scenario_suite::detector::{Detection, Detector};
use scenario_suite::harness::Floor;
use scenario_suite::run::ScenarioRun;
use scenario_suite::table::{live_table, TickTable};
use scenario_suite::truth::category_rank;
use simfleet::topology::VmId;
use std::collections::BTreeMap;

use crate::cluster::{sort_diagnoses, DiagConfig, OutageClusterer, OutageDiagnosis};

/// The diagnosis detector: global batch-outage diagnosis scored like any
/// other detector in the matrix.
#[derive(Debug, Clone)]
pub struct DiagDetector {
    /// Clustering and ranking parameters.
    pub config: DiagConfig,
    /// `None`: read the prepared batch table. `Some(n)`: replay the live
    /// feed through an `n`-shard [`CdiService`](cdi_serve::CdiService)
    /// and diagnose the recovered table — the serving-path evaluation.
    pub shards: Option<usize>,
}

impl Default for DiagDetector {
    fn default() -> Self {
        DiagDetector { config: DiagConfig::default(), shards: Some(2) }
    }
}

impl DiagDetector {
    /// Run the full diagnosis over a prepared scenario: every closed
    /// outage, in deterministic (start, scope, category) order.
    pub fn diagnose(&self, run: &ScenarioRun) -> Result<Vec<OutageDiagnosis>> {
        let live;
        let table = match self.shards {
            None => &run.batch,
            Some(n) => {
                live = live_table(&run.scenario, &run.feed, n)?;
                &live
            }
        };
        Ok(self.diagnose_table(run, table))
    }

    fn diagnose_table(&self, run: &ScenarioRun, table: &TickTable) -> Vec<OutageDiagnosis> {
        let mut clusterer =
            OutageClusterer::new(run.fleet().clone(), self.config.clone());
        let vms = table.vms();
        let mut out = Vec::new();
        for i in 0..table.ticks() {
            let tick_start = run.tick_start(i);
            let tick_end = (tick_start + table.tick_ms).min(run.scenario.end);
            let mut cells: BTreeMap<VmId, [f64; 3]> = BTreeMap::new();
            for vm in &vms {
                if let Some(cell) = table.row(*vm).and_then(|row| row.get(i)) {
                    cells.insert(*vm, *cell);
                }
            }
            out.extend(clusterer.observe_tick(tick_start, tick_end, &cells));
        }
        out.extend(clusterer.finish());
        sort_diagnoses(&mut out);
        out
    }
}

impl Detector for DiagDetector {
    fn name(&self) -> &'static str {
        "outage-diag"
    }

    fn detect(&self, run: &ScenarioRun) -> Result<Vec<Detection>> {
        let mut out: Vec<Detection> = self
            .diagnose(run)?
            .into_iter()
            .map(|d| Detection { scope: d.scope, time: d.start, category: Some(d.category) })
            .collect();
        // Same deterministic order as the suite's built-in adapters.
        out.sort_by(|a, b| {
            (a.time, a.scope.sort_key(), a.category.map(category_rank)).cmp(&(
                b.time,
                b.scope.sort_key(),
                b.category.map(category_rank),
            ))
        });
        Ok(out)
    }
}

/// Pinned F1 floors for the diagnosis detector on the four correlated
/// scenarios — exactly the cells where the per-target detectors are
/// scope-blind and the matrix previously had no gated coverage. The same
/// floors hold in quick mode: the incidents are scope-total there too
/// (the quick fleet's degenerate hierarchy collapses cluster/AZ/region,
/// but the diagnosed VM set is unchanged).
pub fn diag_floors(_quick: bool) -> Vec<Floor> {
    ["bad-rollout-wave", "correlated-switch-failure", "power-domain-event", "regional-failover"]
        .into_iter()
        .map(|scenario| Floor { scenario, detector: "outage-diag", min_f1: 1.0 })
        .collect()
}
