//! The [`Detector`] trait and the three built-in adapters.
//!
//! A detector sees only what production would see — the extracted event
//! stream, the live feed, and the per-tick damage tables — never the
//! ground truth. Each adapter wraps an existing detection surface of the
//! repo:
//!
//! - [`CdiThreshold`] — the paper-native baseline: flag any tick whose
//!   damage fraction exceeds a threshold, computed either on the batch
//!   accumulator table or by replaying the feed through a sharded live
//!   [`CdiService`](cdi_serve::CdiService).
//! - [`KSigmaDetector`] — `statskit`'s rolling K-Sigma band over each
//!   VM's total damage-fraction series (spikes only; dips are recoveries).
//! - [`SurgeDetector`] — `cloudbot`'s event-surge alerting, a fleet-scoped
//!   signal with no per-VM attribution.

use cdi_core::error::{CdiError, Result};
use cdi_core::event::Category;
use cloudbot::surge::{scan, SurgeConfig};
use serde::{Deserialize, Serialize};
use simfleet::faults::DamageCategory;
use statskit::anomaly::{AnomalyKind, KSigma};

use crate::run::ScenarioRun;
use crate::table::live_table;
use crate::truth::{category_rank, TruthScope};

/// One detector firing: where, when, and (optionally) which category it
/// blames. `category: None` means the detector makes no category claim
/// and matches windows of any category.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The scope the detector points at.
    pub scope: TruthScope,
    /// Firing timestamp (ms); tick-granular detectors use the tick start.
    pub time: i64,
    /// Blamed stability category, if the detector attributes one.
    pub category: Option<DamageCategory>,
}

/// Anything that can be scored by the harness.
pub trait Detector {
    /// Stable name used in the score matrix and the pinned floors.
    fn name(&self) -> &'static str;
    /// Run over a prepared scenario and emit detections in deterministic
    /// order.
    fn detect(&self, run: &ScenarioRun) -> Result<Vec<Detection>>;
}

impl std::fmt::Debug for dyn Detector + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Detector({})", self.name())
    }
}

/// Sort detections into the deterministic order all adapters emit:
/// (time, scope, category rank).
fn sort_detections(out: &mut [Detection]) {
    out.sort_by(|a, b| {
        (a.time, a.scope.sort_key(), a.category.map(category_rank))
            .cmp(&(b.time, b.scope.sort_key(), b.category.map(category_rank)))
    });
}

fn damage_category(c: Category) -> DamageCategory {
    match c {
        Category::Unavailability => DamageCategory::Unavailability,
        Category::Performance => DamageCategory::Performance,
        Category::ControlPlane => DamageCategory::ControlPlane,
    }
}

/// The CDI-threshold baseline: flag every (VM, tick, category) whose
/// damage fraction exceeds the threshold.
#[derive(Debug, Clone)]
pub struct CdiThreshold {
    /// Per-tick damage fraction above which a tick is flagged.
    pub threshold: f64,
    /// `None`: read the prepared batch table. `Some(n)`: replay the live
    /// feed through an `n`-shard [`CdiService`](cdi_serve::CdiService) and
    /// read the recovered table — same detector, serving-path evaluation.
    pub shards: Option<usize>,
}

impl Default for CdiThreshold {
    fn default() -> Self {
        // 0.05 ≈ 45 s of fatal damage per 15-minute tick: well above the
        // quiet-world noise floor, well below every catalog incident.
        CdiThreshold { threshold: 0.05, shards: Some(2) }
    }
}

impl Detector for CdiThreshold {
    fn name(&self) -> &'static str {
        "cdi-threshold"
    }

    fn detect(&self, run: &ScenarioRun) -> Result<Vec<Detection>> {
        let live;
        let table = match self.shards {
            None => &run.batch,
            Some(n) => {
                live = live_table(&run.scenario, &run.feed, n)?;
                &live
            }
        };
        let mut out = Vec::new();
        for vm in table.vms() {
            if let Some(row) = table.row(vm) {
                for (i, cell) in row.iter().enumerate() {
                    for cat in Category::ALL {
                        if cell[cat.index()] > self.threshold {
                            out.push(Detection {
                                scope: TruthScope::Vm(vm),
                                time: run.tick_start(i),
                                category: Some(damage_category(cat)),
                            });
                        }
                    }
                }
            }
        }
        sort_detections(&mut out);
        Ok(out)
    }
}

/// `statskit` K-Sigma over each VM's total damage-fraction series.
///
/// The first `window` ticks are calibration, so the catalog places every
/// incident after `SLOT_BASE` — later than `window × tick` — to keep the
/// detector honest rather than structurally blind.
#[derive(Debug, Clone)]
pub struct KSigmaDetector {
    /// Band width in sigmas.
    pub k: f64,
    /// Trailing window length (ticks).
    pub window: usize,
    /// Variance floor, so the near-zero quiet series still yields a
    /// meaningful band.
    pub min_sigma: f64,
}

impl Default for KSigmaDetector {
    fn default() -> Self {
        KSigmaDetector { k: 4.0, window: 12, min_sigma: 0.02 }
    }
}

impl Detector for KSigmaDetector {
    fn name(&self) -> &'static str {
        "ksigma"
    }

    fn detect(&self, run: &ScenarioRun) -> Result<Vec<Detection>> {
        let mut out = Vec::new();
        for vm in run.batch.vms() {
            if let Some(row) = run.batch.row(vm) {
                let series: Vec<f64> =
                    row.iter().map(|c| c[0] + c[1] + c[2]).collect();
                let detector = KSigma::new(self.k, self.window, self.min_sigma)
                    .map_err(|e| CdiError::invalid(format!("ksigma config: {e}")))?;
                for a in detector.detect(&series) {
                    if a.kind == AnomalyKind::Spike {
                        out.push(Detection {
                            scope: TruthScope::Vm(vm),
                            time: run.tick_start(a.index),
                            category: None,
                        });
                    }
                }
            }
        }
        sort_detections(&mut out);
        Ok(out)
    }
}

/// `cloudbot` event-surge alerting: fleet-scoped, category-free.
///
/// Surges attribute to the whole fleet (an alert names an event, not a
/// VM), so every detection is `Global` — precision against narrow-scoped
/// windows is this adapter's known weakness and exactly what the matrix
/// should show.
#[derive(Debug, Clone, Default)]
pub struct SurgeDetector {
    /// The underlying surge-scan configuration.
    pub config: SurgeConfig,
}

impl Detector for SurgeDetector {
    fn name(&self) -> &'static str {
        "surge"
    }

    fn detect(&self, run: &ScenarioRun) -> Result<Vec<Detection>> {
        let alerts = scan(&run.events, run.scenario.start, run.scenario.end, &self.config);
        let mut out: Vec<Detection> = alerts
            .into_iter()
            .map(|a| Detection {
                scope: TruthScope::Global,
                time: a.window_start,
                category: None,
            })
            .collect();
        sort_detections(&mut out);
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{build, ScenarioConfig};

    #[test]
    fn cdi_threshold_finds_the_regional_outage() {
        let cfg = ScenarioConfig::quick(0);
        let s = build("regional-failover", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let batch = CdiThreshold { threshold: 0.05, shards: None };
        let dets = batch.detect(&run).unwrap();
        assert!(!dets.is_empty());
        let hull = s.truth.span().unwrap();
        let unavail: Vec<&Detection> = dets
            .iter()
            .filter(|d| d.category == Some(DamageCategory::Unavailability))
            .collect();
        assert!(!unavail.is_empty());
        // Windowed derivation looks back one collector step, so the tick
        // touching `hull.start` may already carry damage.
        let grace = 5 * simfleet::scenario::MINUTE;
        for d in &unavail {
            assert!(
                d.time + s.tick_ms + grace > hull.start && d.time < hull.end,
                "unavailability detection at {} outside {:?}",
                d.time,
                hull
            );
        }
    }

    #[test]
    fn live_and_batch_threshold_agree() {
        let cfg = ScenarioConfig::quick(1);
        let s = build("live-migration-storm", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let batch = CdiThreshold { threshold: 0.05, shards: None }.detect(&run).unwrap();
        let live = CdiThreshold { threshold: 0.05, shards: Some(3) }.detect(&run).unwrap();
        assert_eq!(batch, live);
    }

    #[test]
    fn ksigma_fires_on_spikes_only_after_calibration() {
        let cfg = ScenarioConfig::quick(2);
        let s = build("correlated-switch-failure", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let dets = KSigmaDetector::default().detect(&run).unwrap();
        assert!(!dets.is_empty(), "a 50% loss cluster outage must spike");
        let calibration_end = s.start + 12 * s.tick_ms;
        assert!(dets.iter().all(|d| d.time >= calibration_end));
        assert!(dets.iter().all(|d| d.category.is_none()));
    }

    #[test]
    fn surge_alerts_are_global_and_deduped() {
        let cfg = ScenarioConfig::quick(3);
        let s = build("regional-failover", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let dets = SurgeDetector::default().detect(&run).unwrap();
        assert!(dets.iter().all(|d| d.scope == TruthScope::Global));
        let mut times: Vec<i64> = dets.iter().map(|d| d.time).collect();
        times.dedup();
        assert_eq!(times.len(), dets.len(), "one detection per surging window");
    }
}
