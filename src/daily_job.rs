//! The daily CDI job as a `minispark` dataflow — the reproduction of the
//! paper's Apache Spark application (Section V).
//!
//! Production shape: events flow from SLS/MaxCompute, configuration from
//! MySQL, and the job writes two MaxCompute tables — (1) per-VM indicators
//! plus service time and (2) event-level CDI per (event, VM) — which the BI
//! system then aggregates per Formula 4. Here the same dataflow runs on
//! [`minispark::Dataset`]: events are keyed by target, shuffled, periods
//! and weights are derived per target partition, and per-VM rows come out
//! the other end. An integration test asserts the dataflow's rows equal the
//! serial `cloudbot::pipeline::DailyPipeline` rows exactly.
//!
//! Fault tolerance mirrors the production job: partition tasks run under
//! panic isolation with a bounded retry budget
//! ([`DailyJobConfig::max_task_attempts`]), and malformed events — unknown
//! names, invalid spans, late arrivals — are diverted to a dead-letter
//! quarantine table with a typed reason instead of aborting the run. The
//! returned [`RunReport`] accounts for every diverted event and every task
//! retry/failure, so a `degraded == false` report certifies an all-clean
//! run.

use std::collections::HashMap;
use std::sync::Arc;

use cdi_core::catalog::is_host_only;
use cdi_core::event::{EventSpan, RawEvent, Target};
use cdi_core::indicator::{compute_vm_cdi, event_level_cdi, ServicePeriod, VmCdi};
use cdi_core::quarantine::{assign_weights_lenient, derive_periods_lenient, QuarantinedEvent};
use cloudbot::pipeline::{DailyPipeline, RunReport};
use minispark::exec::RetryPolicy;
use minispark::store::{ColumnType, Schema, Table, Value};
use minispark::{Dataset, ExecContext};
use simfleet::world::SimWorld;

/// Output of one daily run.
#[derive(Debug)]
pub struct DailyJobOutput {
    /// Per-VM rows (the first output table's contents, typed).
    pub rows: Vec<VmCdi>,
    /// The first output table: day, vm, region, az, cluster, sub-metrics,
    /// service time.
    pub vm_table: Table,
    /// The second output table: per-(target, event) CDI.
    pub event_table: Table,
    /// The dead-letter table: every quarantined event with its typed
    /// reason, for drill-down (day, target, event, time, reason).
    pub quarantine_table: Table,
    /// Accounting: quarantined events, task failures, task retries.
    pub report: RunReport,
}

/// Execution knobs of the job.
#[derive(Debug, Clone, Copy)]
pub struct DailyJobConfig {
    /// Worker threads (the paper's job uses 100 executors × 8 cores; here
    /// one process, n threads).
    pub threads: usize,
    /// Shuffle partitions.
    pub partitions: usize,
    /// Total attempts per partition task before the stage fails (Spark's
    /// `spark.task.maxFailures`); clamped to at least 1.
    pub max_task_attempts: u32,
}

impl Default for DailyJobConfig {
    fn default() -> Self {
        DailyJobConfig { threads: 4, partitions: 8, max_task_attempts: 2 }
    }
}

/// Run the daily job over `[start, end)`.
///
/// `day` labels the output rows (the job runs once per day in production).
///
/// A task that panics is retried up to `config.max_task_attempts` times and
/// then fails the run with a [`minispark::TaskError`]-carrying error — the
/// process survives. Malformed events never fail the run at all: they are
/// quarantined into `quarantine_table` and counted in the report.
pub fn run(
    world: &SimWorld,
    pipeline: &DailyPipeline,
    day: i64,
    start: i64,
    end: i64,
    config: DailyJobConfig,
) -> Result<DailyJobOutput, Box<dyn std::error::Error>> {
    let ctx = ExecContext::with_threads(config.threads)
        .with_retry(RetryPolicy::new(config.max_task_attempts));
    let events = pipeline.events(world, start, end);
    let period = ServicePeriod::new(start, end)?;

    // Broadcast variables (in Spark's sense): catalog, weights, and the
    // placement map every task needs.
    let catalog = Arc::new(pipeline.catalog.clone());
    let weights = Arc::new(pipeline.weights.clone());
    let policy = pipeline.policy;
    let nc_of_vm: Arc<HashMap<u64, u64>> =
        Arc::new(world.fleet.vms().iter().map(|v| (v.id, v.nc)).collect());

    // Stage 1 (wide): key events by target and shuffle so each target's
    // events land in one partition.
    let dataset = Dataset::from_vec(events, config.partitions)?;
    let by_target = dataset.key_by(|e: &RawEvent| e.target).group_by_key(config.partitions)?;

    // Stage 2 (narrow): per target, derive periods and weights → spans,
    // diverting malformed events to the quarantine side-channel. Cached,
    // because the span flow, the quarantine flow, and the event-level table
    // all consume it.
    let cat = Arc::clone(&catalog);
    let wts = Arc::clone(&weights);
    type Derived = (Target, Vec<EventSpan>, Vec<QuarantinedEvent>);
    let derived: Dataset<Derived> = by_target
        .map(move |(target, events)| {
            let outcome = derive_periods_lenient(&events, &cat, end, policy);
            let (spans, weight_bad) = assign_weights_lenient(&wts, &outcome.periods);
            let mut quarantined = outcome.quarantined;
            quarantined.extend(weight_bad);
            (target, spans, quarantined)
        })
        .cache();

    // Stage 3: NC spans must propagate onto hosted VMs, which needs
    // cross-target traffic — a second shuffle keyed by the *final* VM.
    let nc_map = Arc::clone(&nc_of_vm);
    let routed: Dataset<(u64, Vec<EventSpan>)> =
        derived.flat_map(move |(target, spans, _)| {
            match target {
                Target::Vm(vm) => vec![(vm, spans)],
                Target::Nc(nc) => {
                    // Host-only telemetry (TDP inspection) stays at NC scope.
                    let vm_damage: Vec<EventSpan> = spans
                        .iter()
                        .filter(|s| !is_host_only(&s.name))
                        .cloned()
                        .collect();
                    if vm_damage.is_empty() {
                        return Vec::new();
                    }
                    nc_map
                        .iter()
                        .filter(|(_, &host)| host == nc)
                        .map(|(&vm, _)| (vm, vm_damage.clone()))
                        .collect()
                }
            }
        });
    let merged = routed.reduce_by_key(config.partitions, |mut a, mut b| {
        a.append(&mut b);
        a
    })?;

    // Stage 4 (action): Algorithm 1 per VM. A poisoned task surfaces as a
    // structured error after the retry budget, not a process abort.
    let computed: HashMap<u64, VmCdi> = merged
        .map(move |(vm, spans)| {
            (vm, compute_vm_cdi(vm, &spans, period).expect("validated spans"))
        })
        .try_collect_map(&ctx)?;

    // VMs with no events still get a (zero) row, as in the paper's table.
    let mut rows: Vec<VmCdi> = world
        .fleet
        .vms()
        .iter()
        .map(|v| {
            computed.get(&v.id).copied().unwrap_or(VmCdi {
                vm: v.id,
                service_time: period.service_time(),
                unavailability: 0.0,
                performance: 0.0,
                control_plane: 0.0,
            })
        })
        .collect();
    rows.sort_by_key(|r| r.vm);

    // Output table 1: per-VM indicators with drill-down dimensions.
    let mut vm_table = Table::new(Schema::new(vec![
        ("day", ColumnType::Int),
        ("vm", ColumnType::Int),
        ("region", ColumnType::Str),
        ("az", ColumnType::Str),
        ("cluster", ColumnType::Str),
        ("unavailability", ColumnType::Float),
        ("performance", ColumnType::Float),
        ("control_plane", ColumnType::Float),
        ("service_ms", ColumnType::Int),
    ])?);
    for r in &rows {
        let host = world.fleet.host_of(r.vm).expect("every VM has a host");
        vm_table.push_row(vec![
            Value::Int(day),
            Value::Int(r.vm as i64),
            Value::Str(host.region.clone()),
            Value::Str(host.az.clone()),
            Value::Str(host.cluster.clone()),
            Value::Float(r.unavailability),
            Value::Float(r.performance),
            Value::Float(r.control_plane),
            Value::Int(r.service_time),
        ])?;
    }

    // Output table 2: event-level drill-down (the Section VI-C input),
    // served from the same cached derivation — no second extraction pass.
    let mut event_rows: Vec<(String, String, f64)> = derived
        .flat_map(move |(target, spans, _)| {
            let mut names: Vec<String> = spans.iter().map(|s| s.name.clone()).collect();
            names.sort_unstable();
            names.dedup();
            names
                .into_iter()
                .map(|name| {
                    let q = event_level_cdi(&spans, period, &name).expect("validated spans");
                    (target.to_string(), name, q)
                })
                .collect::<Vec<_>>()
        })
        .try_collect(&ctx)?;
    let mut event_table = Table::new(Schema::new(vec![
        ("day", ColumnType::Int),
        ("target", ColumnType::Str),
        ("event", ColumnType::Str),
        ("cdi", ColumnType::Float),
    ])?);
    event_rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    for (target, event, q) in event_rows {
        event_table.push_row(vec![
            Value::Int(day),
            Value::Str(target),
            Value::Str(event),
            Value::Float(q),
        ])?;
    }

    // Output table 3: the dead-letter drill-down.
    let mut quarantined: Vec<QuarantinedEvent> =
        derived.flat_map(|(_, _, q)| q).try_collect(&ctx)?;
    quarantined.sort_by(|a, b| {
        (a.event.target, a.event.time, &a.event.name, a.reason.label()).cmp(&(
            b.event.target,
            b.event.time,
            &b.event.name,
            b.reason.label(),
        ))
    });
    let mut quarantine_table = Table::new(Schema::new(vec![
        ("day", ColumnType::Int),
        ("target", ColumnType::Str),
        ("event", ColumnType::Str),
        ("time", ColumnType::Int),
        ("reason", ColumnType::Str),
    ])?);
    for q in &quarantined {
        quarantine_table.push_row(vec![
            Value::Int(day),
            Value::Str(q.event.target.to_string()),
            Value::Str(q.event.name.clone()),
            Value::Int(q.event.time),
            Value::Str(q.reason.label().to_string()),
        ])?;
    }

    let m = ctx.metrics.snapshot();
    let report = RunReport::new(quarantined.len(), m.failed_tasks, m.retried_tasks)
        .with_rows_cloned(m.rows_cloned);

    Ok(DailyJobOutput { rows, vm_table, event_table, quarantine_table, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
    use simfleet::{Fleet, FleetConfig};

    const HOUR: i64 = 3_600_000;

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
        let mut w = SimWorld::new(fleet, 77);
        w.inject(FaultInjection::new(
            FaultKind::SlowIo { factor: 8.0 },
            FaultTarget::Vm(0),
            HOUR,
            HOUR + 30 * 60_000,
        ));
        w.inject(FaultInjection::new(
            FaultKind::NicFlapping,
            FaultTarget::Nc(1),
            2 * HOUR,
            2 * HOUR + 10 * 60_000,
        ));
        w
    }

    #[test]
    fn dataflow_matches_serial_pipeline() {
        let w = world();
        let p = DailyPipeline::default();
        let serial = p.vm_cdi_rows(&w, 0, 6 * HOUR).unwrap();
        let job = run(&w, &p, 0, 0, 6 * HOUR, DailyJobConfig::default()).unwrap();
        assert_eq!(job.rows, serial);
    }

    #[test]
    fn tables_have_expected_shape() {
        let w = world();
        let p = DailyPipeline::default();
        let job = run(&w, &p, 42, 0, 6 * HOUR, DailyJobConfig::default()).unwrap();
        assert_eq!(job.vm_table.len(), 4);
        assert_eq!(job.vm_table.row(0)[0], Value::Int(42));
        assert!(job.event_table.len() >= 2, "slow_io + nic events");
        // Every event-table row carries a CDI in [0, 1].
        for row in job.event_table.rows() {
            let q = row[3].as_float().unwrap();
            assert!((0.0..=1.0).contains(&q));
        }
        // A clean run quarantines nothing and reports no degradation.
        // `rows_cloned` is perf accounting (map-side consumption of retained
        // source partitions), not a health signal, so it is not pinned here.
        assert_eq!(job.quarantine_table.len(), 0);
        assert_eq!(job.report.quarantined, 0);
        assert_eq!(job.report.failed_tasks, 0);
        assert_eq!(job.report.retries, 0);
        assert!(!job.report.degraded);
    }
}
