//! Per-tick damage tables: the detector-facing view of a scenario.
//!
//! A [`TickTable`] holds, for every VM and every tick of the evaluation
//! window, the damage *fraction* of the tick per stability category —
//! `damage frozen inside the tick / tick length`, a value in `[0, 1]`
//! (the per-tick differential of the CDI). Two independent builders
//! produce it:
//!
//! - [`batch_table`] — the offline path: derive all spans up front, fan NC
//!   damage out to hosted VMs exactly like the daily job, then drain three
//!   [`CdiAccumulator`]s per VM tick by tick.
//! - [`live_table`] — the serving path: replay the
//!   [`LiveFeed`](cloudbot::feed::LiveFeed) through a sharded
//!   [`CdiService`] and read each VM's frozen damage at every watermark.
//!
//! Both difference the same integer damage through [`tick_cell`], so the
//! two tables — and [`live_table`] at any shard count — are equal cell
//! for cell (`tests/serve_parity.rs`, the determinism proptests).

use std::collections::BTreeMap;

use cdi_core::error::Result;
use cdi_core::event::Target;
use cdi_core::num::damage_ratio;
use cdi_core::streaming::CdiAccumulator;
use cdi_serve::{CdiService, ServeConfig};
use cloudbot::feed::LiveFeed;
use cloudbot::pipeline::DailyPipeline;
use simfleet::topology::VmId;

use crate::catalog::Scenario;

/// Per-VM, per-category, per-tick damage fractions
/// (categories in [`cdi_core::event::Category::ALL`] order).
#[derive(Debug, Clone, PartialEq)]
pub struct TickTable {
    /// Start of the evaluation window.
    pub start: i64,
    /// Tick length (ms).
    pub tick_ms: i64,
    rows: BTreeMap<VmId, Vec<[f64; 3]>>,
}

impl TickTable {
    /// Number of ticks per row (0 for an empty table).
    pub fn ticks(&self) -> usize {
        self.rows.values().next().map(Vec::len).unwrap_or(0)
    }

    /// The VM ids covered, ascending.
    pub fn vms(&self) -> Vec<VmId> {
        self.rows.keys().copied().collect()
    }

    /// One VM's per-tick fractions, if present.
    pub fn row(&self, vm: VmId) -> Option<&[[f64; 3]]> {
        self.rows.get(&vm).map(Vec::as_slice)
    }
}

/// One tick's cell: the damage frozen since `prev` as a fraction of the
/// `width_ms`-long tick, leaving `prev` at `now` for the next tick. Frozen
/// damage only grows; a reading below `prev` (a shard caught between a
/// crash and its respawn) saturates to an empty cell.
pub fn tick_cell(now: [u64; 3], prev: &mut [u64; 3], width_ms: i64) -> [f64; 3] {
    let cell = [0, 1, 2].map(|c| damage_ratio(now[c].saturating_sub(prev[c]), width_ms));
    *prev = now;
    cell
}

/// The batch path: all spans derived up front (lenient, matching the
/// feed's derivation), NC damage fanned out to hosted VMs by the daily
/// pipeline's own propagation, then three accumulators per VM drained tick
/// by tick.
pub fn batch_table(
    pipeline: &DailyPipeline,
    scenario: &Scenario,
    events: &[cdi_core::event::RawEvent],
) -> Result<TickTable> {
    let (by_target, _quarantined) = pipeline.spans_by_target_lenient(events, scenario.end);
    let by_vm = DailyPipeline::propagate_nc_damage(&scenario.world, &by_target);
    let mut rows: BTreeMap<VmId, Vec<[f64; 3]>> = BTreeMap::new();
    for (vm, spans) in by_vm {
        let mut accs = [0; 3].map(|_| CdiAccumulator::new(scenario.start));
        for span in spans {
            accs[span.category.index()].ingest(span)?;
        }
        let mut row = Vec::new();
        let mut prev = [0u64; 3];
        let mut t = scenario.start;
        while t < scenario.end {
            let hi = (t + scenario.tick_ms).min(scenario.end);
            for acc in &mut accs {
                acc.advance_watermark(hi)?;
            }
            let now = accs.each_ref().map(CdiAccumulator::damage_integral);
            row.push(tick_cell(now, &mut prev, hi - t));
            t = hi;
        }
        rows.insert(vm, row);
    }
    Ok(TickTable { start: scenario.start, tick_ms: scenario.tick_ms, rows })
}

/// The serving path: replay the feed through a sharded [`CdiService`]
/// (with NC → VM fan-out routing) and difference each VM's frozen damage
/// across the watermarks.
pub fn live_table(scenario: &Scenario, feed: &LiveFeed, shards: usize) -> Result<TickTable> {
    let cfg = ServeConfig {
        shards,
        period_start: scenario.start,
        ..ServeConfig::default()
    };
    let mut service = CdiService::new(cfg)?.with_fleet_routing(&scenario.world.fleet);
    // Per VM: the frozen damage at the previous watermark, and the row so far.
    let mut state: BTreeMap<VmId, ([u64; 3], Vec<[f64; 3]>)> =
        scenario.world.fleet.vms().iter().map(|vm| (vm.id, Default::default())).collect();
    let mut low = scenario.start;
    for batch in &feed.batches {
        for (target, span) in &batch.spans {
            service.ingest(*target, span.clone());
        }
        service.advance_watermark(batch.watermark)?;
        service.flush();
        for (vm, (prev, row)) in &mut state {
            let now = service.damage(Target::Vm(*vm));
            row.push(tick_cell(now, prev, batch.watermark - low));
        }
        low = batch.watermark;
    }
    service.shutdown();
    let rows = state.into_iter().map(|(vm, (_, row))| (vm, row)).collect();
    Ok(TickTable { start: scenario.start, tick_ms: scenario.tick_ms, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{build, ScenarioConfig};
    use crate::run::ScenarioRun;

    #[test]
    fn batch_table_localizes_damage_in_time_and_space() {
        let cfg = ScenarioConfig::quick(0); // slot 0: incident at 5 h
        let s = build("regional-failover", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let struck: Vec<VmId> = s.truth.windows()[0].scope.vms(run.fleet());
        assert!(!struck.is_empty());
        let hull = s.truth.span().unwrap();
        for vm in run.batch.vms() {
            let row = run.batch.row(vm).unwrap();
            let is_struck = struck.contains(&vm);
            let mut damaged = false;
            for (i, cell) in row.iter().enumerate() {
                let t = run.tick_start(i);
                if cell[0] > 0.5 {
                    damaged = true;
                    assert!(
                        is_struck,
                        "vm {vm} outside the region shows unavailability at {t}"
                    );
                    assert!(
                        t + s.tick_ms > hull.start && t < hull.end,
                        "damage at {t} outside truth {hull:?}"
                    );
                }
            }
            if is_struck {
                assert!(damaged, "struck vm {vm} shows no unavailability");
            }
        }
    }

    #[test]
    fn live_table_matches_batch_table() {
        let cfg = ScenarioConfig::quick(1);
        let s = build("ddos-blackhole-wave", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        assert_eq!(run.batch, live_table(&s, &run.feed, 2).unwrap());
    }
}
