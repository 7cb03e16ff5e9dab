//! End-to-end glue: world + time range → events → weighted spans → per-VM
//! CDI rows.
//!
//! This is the library form of the paper's daily job (Section V): collect,
//! extract, derive periods, weight, and run Algorithm 1 per VM. The
//! distributed version of the same computation — expressed as a `minispark`
//! dataflow — lives in the root crate's `daily_job` module; both produce
//! identical rows, which an integration test asserts.

use std::collections::HashMap;

use cdi_core::catalog::{is_host_only, EventCatalog};
use cdi_core::error::Result;
use cdi_core::event::{EventSpan, RawEvent, Severity, Target};
use cdi_core::indicator::{compute_vm_cdi, ServicePeriod, VmCdi};
use cdi_core::period::{derive_periods, UnmatchedPolicy};
use cdi_core::quarantine::{assign_weights_lenient, derive_periods_lenient, QuarantinedEvent};
use cdi_core::weight::WeightTable;
use simfleet::world::SimWorld;
use simfleet::VmId;

use crate::collector::Collector;
use crate::extractor::Extractor;

/// Accounting for one fault-tolerant pipeline run, returned alongside the
/// output tables. A report with `degraded == false` certifies the run saw
/// only clean input and no task failures — its rows are exactly what the
/// strict path would have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Events diverted to the dead-letter collection.
    pub quarantined: usize,
    /// Partition tasks that exhausted their retry budget (always 0 for the
    /// serial pipeline; the minispark dataflow populates it).
    pub failed_tasks: u64,
    /// Task re-attempts after caught panics (0 for the serial pipeline).
    pub retries: u64,
    /// Rows the dataflow engine deep-copied out of shared partitions
    /// (0 for the serial pipeline; the minispark dataflow populates it).
    /// Perf accounting, not a degradation signal.
    pub rows_cloned: u64,
    /// Whether anything was quarantined, retried, or failed — i.e. whether
    /// the output differs from an all-clean run in any way.
    pub degraded: bool,
}

impl RunReport {
    /// Assemble a report, deriving `degraded` from the counters.
    pub fn new(quarantined: usize, failed_tasks: u64, retries: u64) -> Self {
        RunReport {
            quarantined,
            failed_tasks,
            retries,
            rows_cloned: 0,
            degraded: quarantined > 0 || failed_tasks > 0 || retries > 0,
        }
    }

    /// Attach the engine's data-movement accounting (builder style).
    pub fn with_rows_cloned(mut self, rows_cloned: u64) -> Self {
        self.rows_cloned = rows_cloned;
        self
    }
}

/// The daily CDI pipeline configuration.
#[derive(Debug, Clone)]
pub struct DailyPipeline {
    /// Data collector.
    pub collector: Collector,
    /// Event extractor.
    pub extractor: Extractor,
    /// Event catalog (period semantics + categories).
    pub catalog: EventCatalog,
    /// Weight table (Eq. 1–3).
    pub weights: WeightTable,
    /// Policy for unmatched stateful starts.
    pub policy: UnmatchedPolicy,
}

impl Default for DailyPipeline {
    fn default() -> Self {
        DailyPipeline {
            collector: Collector::default(),
            extractor: Extractor::default(),
            catalog: EventCatalog::paper_defaults(),
            weights: WeightTable::expert_only(),
            policy: UnmatchedPolicy::CloseAtServiceEnd,
        }
    }
}

impl DailyPipeline {
    /// A pipeline whose collector samples VM metrics every `step_ms`
    /// milliseconds and whose windowed-event catalog entries match that
    /// step, so event periods still tile the damage they represent.
    ///
    /// The paper's incident-level experiments use 1-minute windows; the
    /// year-long and scenario-suite runs use 5-minute sampling to keep
    /// runtimes laptop-friendly.
    pub fn with_step_ms(step_ms: i64) -> DailyPipeline {
        let mut catalog = EventCatalog::paper_defaults();
        let specs: Vec<(String, cdi_core::catalog::EventSpec)> =
            catalog.iter().map(|(n, s)| (n.to_string(), s.clone())).collect();
        for (name, mut spec) in specs {
            if let cdi_core::catalog::PeriodKind::Windowed { window_ms } = &mut spec.period {
                *window_ms = step_ms;
            }
            catalog.register(name, spec);
        }
        DailyPipeline {
            collector: Collector {
                vm_step: step_ms,
                nc_step: step_ms.max(5 * 60_000),
                ..Collector::default()
            },
            catalog,
            ..DailyPipeline::default()
        }
    }

    /// Collect and extract all events for `[start, end)`.
    ///
    /// If the world carries a [`simfleet::ChaosConfig`], its malformed
    /// events are appended to the batch — they reach the same ingestion
    /// path as real telemetry, so the strict derivation will reject the
    /// batch while the lenient paths quarantine exactly those events.
    pub fn events(&self, world: &SimWorld, start: i64, end: i64) -> Vec<RawEvent> {
        let data = self.collector.collect(world, start, end);
        let mut events = self.extractor.extract(&data);
        if self.extractor.config.statistical {
            events.extend(self.statistical_events(world, start, end));
            events.sort_by_key(|e| (e.time, e.target));
        }
        for c in world.chaos_events(start, end) {
            let mut e = RawEvent::new(c.name, c.time, Target::Vm(c.vm), 0, Severity::Error);
            if let Some(d) = c.measured_duration {
                e = e.with_measured_duration(d);
            }
            events.push(e);
        }
        events
    }

    /// The statistics-based extraction pass (Section II-C's BacktrackSTL +
    /// EVT family): per-VM read-latency series are decomposed against their
    /// daily seasonality and residual outliers become `slow_io` events.
    /// This catches *contextual* anomalies that sit below the fixed expert
    /// threshold (e.g. triple the normal latency during the night trough).
    ///
    /// Two warm-up days of telemetry are read before `start` so the
    /// decomposition has its required two seasons; only events inside
    /// `[start, end)` are emitted.
    fn statistical_events(&self, world: &SimWorld, start: i64, end: i64) -> Vec<RawEvent> {
        const DAY_MS: i64 = 86_400_000;
        let step = self.collector.vm_step;
        let period = (DAY_MS / step) as usize;
        let warmup_start = start - 2 * DAY_MS;
        let mut out = Vec::new();
        for vm in world.fleet.vms() {
            let series = world.vm_metric_series(
                vm.id,
                simfleet::telemetry::Metric::ReadLatencyMs,
                warmup_start,
                end,
                step,
            );
            let events = self.extractor.extract_statistical(
                cdi_core::event::Target::Vm(vm.id),
                &series,
                period,
                "slow_io",
                cdi_core::event::Severity::Error,
            );
            out.extend(events.into_iter().filter(|e| e.time >= start));
        }
        out
    }

    /// Collect and extract in `chunk_ms` slices, bounding peak memory to one
    /// chunk of raw samples (events themselves are tiny). Extraction is
    /// stateless per sample, so chunking is exact.
    ///
    /// Long-horizon experiments (the three-month A/B test) use this with
    /// one-day chunks; a whole fleet-day of raw metric records fits
    /// comfortably in memory where the full horizon would not.
    pub fn events_chunked(
        &self,
        world: &SimWorld,
        start: i64,
        end: i64,
        chunk_ms: i64,
    ) -> Vec<RawEvent> {
        assert!(chunk_ms > 0, "chunk must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            let hi = (t + chunk_ms).min(end);
            out.extend(self.events(world, t, hi));
            t = hi;
        }
        out
    }

    /// Derive periods and weights, grouping the resulting spans by target.
    pub fn spans_by_target(
        &self,
        events: &[RawEvent],
        end: i64,
    ) -> Result<HashMap<Target, Vec<EventSpan>>> {
        let perioded = derive_periods(events, &self.catalog, end, self.policy)?;
        let mut out: HashMap<Target, Vec<EventSpan>> = HashMap::new();
        for pe in &perioded {
            let span = self.weights.assign(std::slice::from_ref(pe));
            out.entry(pe.target).or_default().extend(span);
        }
        Ok(out)
    }

    /// Fault-tolerant variant of [`DailyPipeline::spans_by_target`]:
    /// malformed events are diverted to the returned dead-letter collection
    /// (with a typed reason) instead of failing the batch, and spans whose
    /// assigned weight is NaN or infinite are diverted too (Algorithm 1
    /// would otherwise reject the whole span set). Never panics or errors.
    #[allow(clippy::type_complexity)]
    pub fn spans_by_target_lenient(
        &self,
        events: &[RawEvent],
        end: i64,
    ) -> (HashMap<Target, Vec<EventSpan>>, Vec<QuarantinedEvent>) {
        let outcome = derive_periods_lenient(events, &self.catalog, end, self.policy);
        let mut quarantined = outcome.quarantined;
        let mut out: HashMap<Target, Vec<EventSpan>> = HashMap::new();
        for pe in &outcome.periods {
            let (spans, bad) = assign_weights_lenient(&self.weights, std::slice::from_ref(pe));
            quarantined.extend(bad);
            out.entry(pe.target).or_default().extend(spans);
        }
        (out, quarantined)
    }

    /// The paper's first output table: one [`VmCdi`] row per VM over the
    /// period. Events on a VM's hosting NC also damage the VM, so NC spans
    /// are propagated onto hosted VMs before Algorithm 1 runs.
    pub fn vm_cdi_rows(&self, world: &SimWorld, start: i64, end: i64) -> Result<Vec<VmCdi>> {
        let events = self.events(world, start, end);
        self.vm_cdi_rows_from_events(world, &events, start, end)
    }

    /// Per-VM spans with NC damage propagated onto hosted VMs — the common
    /// input of Algorithm 1 and of the baseline metrics (Downtime
    /// Percentage, AIR). Host-only telemetry (the TDP inspection) stays at
    /// NC scope and is excluded here.
    pub fn vm_spans(
        &self,
        world: &SimWorld,
        events: &[RawEvent],
        end: i64,
    ) -> Result<HashMap<VmId, Vec<EventSpan>>> {
        let by_target = self.spans_by_target(events, end)?;
        Ok(Self::propagate_nc_damage(world, &by_target))
    }

    /// Project a by-target span map onto VMs, copying each NC's spans onto
    /// its hosted VMs (host-only telemetry excluded) — shared by the strict
    /// and lenient paths and the scenario suite's batch table.
    pub fn propagate_nc_damage(
        world: &SimWorld,
        by_target: &HashMap<Target, Vec<EventSpan>>,
    ) -> HashMap<VmId, Vec<EventSpan>> {
        let empty: Vec<EventSpan> = Vec::new();
        let mut out = HashMap::with_capacity(world.fleet.vms().len());
        for vm in world.fleet.vms() {
            let mut spans: Vec<EventSpan> =
                by_target.get(&Target::Vm(vm.id)).unwrap_or(&empty).clone();
            if let Some(nc_spans) = by_target.get(&Target::Nc(vm.nc)) {
                spans.extend(nc_spans.iter().filter(|s| !is_host_only(&s.name)).cloned());
            }
            out.insert(vm.id, spans);
        }
        out
    }

    /// Fault-tolerant variant of [`DailyPipeline::vm_cdi_rows`]: malformed
    /// events are quarantined instead of failing the run, and the returned
    /// [`RunReport`] (plus the dead-letter collection itself) accounts for
    /// every diverted event. With fully-clean input the rows are identical
    /// to the strict path and the report is all-zero.
    #[allow(clippy::type_complexity)]
    pub fn vm_cdi_rows_report(
        &self,
        world: &SimWorld,
        start: i64,
        end: i64,
    ) -> Result<(Vec<VmCdi>, Vec<QuarantinedEvent>, RunReport)> {
        let events = self.events(world, start, end);
        let (by_target, quarantined) = self.spans_by_target_lenient(&events, end);
        let spans = Self::propagate_nc_damage(world, &by_target);
        let period = ServicePeriod::new(start, end)?;
        let mut rows = Vec::with_capacity(world.fleet.vms().len());
        for vm in world.fleet.vms() {
            rows.push(compute_vm_cdi(vm.id, &spans[&vm.id], period)?);
        }
        let report = RunReport::new(quarantined.len(), 0, 0);
        Ok((rows, quarantined, report))
    }

    /// Same as [`DailyPipeline::vm_cdi_rows`] but reusing already-extracted
    /// events (the experiments extract once and slice many ways).
    pub fn vm_cdi_rows_from_events(
        &self,
        world: &SimWorld,
        events: &[RawEvent],
        start: i64,
        end: i64,
    ) -> Result<Vec<VmCdi>> {
        let spans = self.vm_spans(world, events, end)?;
        let period = ServicePeriod::new(start, end)?;
        let mut rows = Vec::with_capacity(world.fleet.vms().len());
        for vm in world.fleet.vms() {
            rows.push(compute_vm_cdi(vm.id, &spans[&vm.id], period)?);
        }
        Ok(rows)
    }

    /// Event-level drill-down rows: `(target, event name) → CDI` — the
    /// paper's second output table (Section V), powering Section VI-C.
    pub fn event_level_rows(
        &self,
        events: &[RawEvent],
        start: i64,
        end: i64,
    ) -> Result<Vec<(Target, String, f64)>> {
        let by_target = self.spans_by_target(events, end)?;
        let period = ServicePeriod::new(start, end)?;
        let mut out = Vec::new();
        for (target, spans) in &by_target {
            let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                let q = cdi_core::indicator::event_level_cdi(spans, period, name)?;
                out.push((*target, name.to_string(), q));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        Ok(out)
    }

    /// Per-VM spans for a custom slice of VMs (used by the A/B experiment,
    /// which windows each VM separately).
    pub fn spans_for_vm(
        &self,
        events: &[RawEvent],
        vm: VmId,
        end: i64,
    ) -> Result<Vec<EventSpan>> {
        Ok(self.spans_by_target(events, end)?.remove(&Target::Vm(vm)).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdi_core::event::Category;
    use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
    use simfleet::{Fleet, FleetConfig};

    const HOUR: i64 = 3_600_000;
    const MIN: i64 = 60_000;

    fn world() -> SimWorld {
        let fleet = Fleet::build(&FleetConfig {
            regions: vec!["r1".into()],
            azs_per_region: 1,
            clusters_per_az: 1,
            ncs_per_cluster: 2,
            vms_per_nc: 2,
            nc_cores: 8,
            machine_models: vec!["m".into()],
            arch: simfleet::DeploymentArch::Hybrid,
        });
        SimWorld::new(fleet, 31)
    }

    #[test]
    fn quiet_world_has_near_zero_cdi() {
        let w = world();
        let p = DailyPipeline::default();
        let rows = p.vm_cdi_rows(&w, 0, 6 * HOUR).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.unavailability < 1e-6, "{r:?}");
            assert!(r.performance < 1e-6, "{r:?}");
            assert!(r.control_plane < 2e-3, "{r:?}");
        }
    }

    #[test]
    fn injected_outage_shows_in_unavailability_only() {
        let mut w = world();
        // VM 0 down for 30 of 360 minutes.
        w.inject(FaultInjection::new(
            FaultKind::VmDown,
            FaultTarget::Vm(0),
            HOUR,
            HOUR + 30 * MIN,
        ));
        let p = DailyPipeline::default();
        let rows = p.vm_cdi_rows(&w, 0, 6 * HOUR).unwrap();
        let r0 = rows.iter().find(|r| r.vm == 0).unwrap();
        // vm_crash events tile the outage: ~30 weighted minutes of fatal
        // (w = 1.0) damage over 360 minutes ≈ 0.083.
        assert!((r0.unavailability - 30.0 / 360.0).abs() < 0.01, "{r0:?}");
        assert!(r0.performance < 1e-6);
        // Other VMs are untouched.
        assert!(rows.iter().filter(|r| r.vm != 0).all(|r| r.unavailability < 1e-6));
    }

    #[test]
    fn nc_fault_propagates_to_hosted_vms() {
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::NicFlapping,
            FaultTarget::Nc(0),
            HOUR,
            HOUR + 20 * MIN,
        ));
        let p = DailyPipeline::default();
        let rows = p.vm_cdi_rows(&w, 0, 6 * HOUR).unwrap();
        for vm in w.fleet.vms_on(0) {
            let r = rows.iter().find(|r| r.vm == *vm).unwrap();
            assert!(r.performance > 0.0, "hosted VM must inherit NC damage: {r:?}");
        }
        for vm in w.fleet.vms_on(1) {
            let r = rows.iter().find(|r| r.vm == *vm).unwrap();
            assert!(r.performance < 1e-6, "other NC untouched: {r:?}");
        }
    }

    #[test]
    fn control_plane_outage_moves_only_cdi_c() {
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::ControlPlaneOutage,
            FaultTarget::Global,
            0,
            6 * HOUR,
        ));
        let p = DailyPipeline::default();
        let rows = p.vm_cdi_rows(&w, 0, 6 * HOUR).unwrap();
        for r in &rows {
            assert!(r.control_plane > 0.0, "{r:?}");
            assert!(r.unavailability < 1e-6);
            assert!(r.performance < 1e-6);
        }
    }

    #[test]
    fn event_level_rows_isolate_event_names() {
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::SlowIo { factor: 8.0 },
            FaultTarget::Vm(1),
            HOUR,
            HOUR + 10 * MIN,
        ));
        let p = DailyPipeline::default();
        let events = p.events(&w, 0, 6 * HOUR);
        let rows = p.event_level_rows(&events, 0, 6 * HOUR).unwrap();
        let slow: Vec<_> = rows
            .iter()
            .filter(|(t, n, _)| *t == Target::Vm(1) && n == "slow_io")
            .collect();
        assert_eq!(slow.len(), 1);
        let (_, _, q) = slow[0];
        // 10 minutes at weight 0.75 over 360 minutes.
        assert!((q - 10.0 * 0.75 / 360.0).abs() < 0.005, "q = {q}");
    }

    #[test]
    fn statistical_pass_catches_sub_threshold_anomalies() {
        // SlowIo factor 2.5 keeps latency (~5 ms) below the 8 ms expert
        // threshold, but it is a glaring outlier against the VM's own
        // seasonal baseline — only the statistical pass can see it.
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::SlowIo { factor: 2.5 },
            FaultTarget::Vm(0),
            2 * 24 * HOUR + 6 * HOUR,
            2 * 24 * HOUR + 7 * HOUR,
        ));
        let expert_only = DailyPipeline::default();
        let day_start = 2 * 24 * HOUR;
        let expert_events = expert_only.events(&w, day_start, day_start + 24 * HOUR);
        assert!(
            expert_events.iter().all(|e| e.name != "slow_io"),
            "sub-threshold: expert rules must stay silent"
        );

        let mut statistical = DailyPipeline::default();
        statistical.extractor.config.statistical = true;
        let stat_events = statistical.events(&w, day_start, day_start + 24 * HOUR);
        let slow: Vec<_> = stat_events
            .iter()
            .filter(|e| e.name == "slow_io" && e.target == Target::Vm(0))
            .collect();
        assert!(!slow.is_empty(), "statistical pass finds the contextual anomaly");
        assert!(slow
            .iter()
            .all(|e| (day_start + 6 * HOUR..day_start + 7 * HOUR + 10 * 60_000)
                .contains(&e.time)));
        // No false alarms on the untouched VMs.
        assert!(stat_events
            .iter()
            .filter(|e| e.name == "slow_io")
            .all(|e| e.target == Target::Vm(0)));
    }

    #[test]
    fn chaos_events_reach_the_batch_and_break_the_strict_path() {
        let mut w = world();
        w.set_chaos(Some(simfleet::ChaosConfig::light(5)));
        let p = DailyPipeline::default();
        let events = p.events(&w, 0, 6 * HOUR);
        assert!(events.iter().any(|e| e.name.starts_with("chaos_")));
        // The strict path rejects the batch (an error, not a panic).
        assert!(p.vm_cdi_rows(&w, 0, 6 * HOUR).is_err());
    }

    #[test]
    fn lenient_run_quarantines_exactly_the_chaos_events() {
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::VmDown,
            FaultTarget::Vm(0),
            HOUR,
            HOUR + 30 * MIN,
        ));
        let p = DailyPipeline::default();
        let (clean_rows, _, clean_report) = p.vm_cdi_rows_report(&w, 0, 6 * HOUR).unwrap();
        assert_eq!(clean_report, RunReport::default());
        assert!(!clean_report.degraded);

        let chaos = simfleet::ChaosConfig::light(5);
        w.set_chaos(Some(chaos));
        let (rows, quarantined, report) = p.vm_cdi_rows_report(&w, 0, 6 * HOUR).unwrap();
        assert_eq!(report.quarantined, chaos.total());
        assert_eq!(quarantined.len(), chaos.total());
        assert!(report.degraded);
        // Every chaos event is quarantined, so no VM's CDI moves at all.
        assert_eq!(rows.len(), clean_rows.len());
        for (a, b) in rows.iter().zip(clean_rows.iter()) {
            assert_eq!(a.vm, b.vm);
            assert!((a.unavailability - b.unavailability).abs() < 1e-12);
            assert!((a.performance - b.performance).abs() < 1e-12);
            assert!((a.control_plane - b.control_plane).abs() < 1e-12);
        }
    }

    #[test]
    fn lenient_run_matches_strict_on_clean_input() {
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::SlowIo { factor: 8.0 },
            FaultTarget::Vm(1),
            HOUR,
            HOUR + 10 * MIN,
        ));
        let p = DailyPipeline::default();
        let strict = p.vm_cdi_rows(&w, 0, 6 * HOUR).unwrap();
        let (lenient, quarantined, report) = p.vm_cdi_rows_report(&w, 0, 6 * HOUR).unwrap();
        assert_eq!(strict, lenient);
        assert!(quarantined.is_empty());
        assert_eq!(report, RunReport::new(0, 0, 0));
    }

    #[test]
    fn spans_for_vm_slices_one_target() {
        let mut w = world();
        w.inject(FaultInjection::new(
            FaultKind::SlowIo { factor: 8.0 },
            FaultTarget::Vm(2),
            0,
            10 * MIN,
        ));
        let p = DailyPipeline::default();
        let events = p.events(&w, 0, HOUR);
        let spans = p.spans_for_vm(&events, 2, HOUR).unwrap();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.category == Category::Performance));
        assert!(p.spans_for_vm(&events, 3, HOUR).unwrap().is_empty());
    }
}
