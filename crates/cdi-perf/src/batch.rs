//! The batch phase: `daily_job::run`, its `.cdp` store, the Formula-4
//! drill-downs, and the staged twin that attributes the job's time to
//! layers by calling each layer's public function in sequence.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use cdi_core::event::{EventSpan, RawEvent, Target};
use cdi_core::indicator::{compute_vm_cdi, event_level_cdi, ServicePeriod, VmCdi};
use cdi_core::quarantine::{assign_weights_lenient, derive_periods_lenient};
use cdi_repro::daily_job::{self, DailyJobConfig, DailyJobOutput};
use minispark::bi::{Aggregate, Query};
use minispark::exec::ExecMetrics;
use minispark::store::{Catalog, ColumnType, Schema, Table, Value};
use minispark::{Dataset, ExecContext};
use simfleet::scenario::DAY;

use crate::input::Day;
use crate::spec;
use crate::trace::Tracer;
use crate::wire::Tally;

/// The job's fixed execution shape.
pub fn job_config() -> DailyJobConfig {
    DailyJobConfig {
        threads: spec::JOB_THREADS,
        partitions: spec::JOB_PARTITIONS,
        ..DailyJobConfig::default()
    }
}

const DIMENSIONS: [&str; 3] = ["region", "az", "cluster"];
const SUB_METRICS: [&str; 3] = ["unavailability", "performance", "control_plane"];

/// The Formula-4 drill-down along one dimension: the three sub-metrics,
/// each service-time weighted.
pub fn drilldown(dimension: &str) -> Query {
    SUB_METRICS
        .iter()
        .fold(Query::new().group_by(dimension), |q, m| {
            q.aggregate(
                m,
                Aggregate::WeightedMean {
                    value: (*m).into(),
                    weight: "service_ms".into(),
                },
            )
        })
}

fn rows_agree(a: &[VmCdi], b: &[VmCdi], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.vm == y.vm
                && x.service_time == y.service_time
                && (x.unavailability - y.unavailability).abs() <= tol
                && (x.performance - y.performance).abs() <= tol
                && (x.control_plane - y.control_plane).abs() <= tol
        })
}

/// Formula 4 by hand: `Σ T·Q / Σ T` of the performance indicator per region.
fn hand_formula4(day: &Day, rows: &[VmCdi]) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for r in rows {
        if let Some(host) = day.world.fleet.host_of(r.vm) {
            let s = sums.entry(host.region.clone()).or_default();
            s.0 += r.service_time as f64 * r.performance;
            s.1 += r.service_time as f64;
        }
    }
    sums.into_iter()
        .map(|(k, (num, den))| (k, num / den))
        .collect()
}

fn bi_matches_hand(by_region: &Table, hand: &BTreeMap<String, f64>) -> bool {
    by_region.len() == hand.len()
        && by_region.rows().all(|row| {
            let got = row[2].as_float().ok(); // region, unavailability, performance, ...
            let want = row[0].as_str().ok().and_then(|r| hand.get(r));
            matches!((got, want), (Some(g), Some(w)) if (g - w).abs() <= 1e-12)
        })
}

/// One batch repetition.
#[derive(Debug)]
pub struct BatchRep {
    /// `daily_job::run` + store round trip + the three drill-downs.
    pub makespan_s: f64,
    /// `daily_job::run` alone.
    pub run_s: f64,
    /// `.cdp` bytes of the vm table.
    pub table_bytes: u64,
    /// Rows of the vm table.
    pub rows: usize,
    /// `RunReport::rows_cloned`.
    pub rows_cloned: u64,
    /// The vm table as the job built it.
    pub built: Table,
    /// The vm table as reloaded from the store.
    pub reloaded: Table,
}

/// Run the daily job over the day, persist its three tables as
/// `.cdp` under `dir`, reload them, and drill down by region, AZ and
/// cluster. Checks (outside the timed part): rows equal the serial
/// pipeline's within 1e-12, the reloaded table equals the written one, and
/// the BI answer equals Formula 4 computed by hand.
pub fn batch_rep(day: &Day, want: &[VmCdi], dir: &Path, tally: &mut Tally) -> Option<BatchRep> {
    let t = Instant::now();
    let job = daily_job::run(&day.world, &day.pipeline, 0, 0, DAY, job_config());
    let run_s = t.elapsed().as_secs_f64();
    let stored = job.map_err(|e| e.to_string()).and_then(|job| {
        let tables = [
            ("vm_cdi", &job.vm_table),
            ("event_cdi", &job.event_table),
            ("quarantine", &job.quarantine_table),
        ];
        let catalog = Catalog::open(dir).map_err(|e| e.to_string())?;
        let metrics = ExecMetrics::default();
        let mut loaded = Vec::with_capacity(tables.len());
        for (name, table) in tables {
            catalog
                .save_packed(name, table)
                .map_err(|e| e.to_string())?;
            loaded.push(
                catalog
                    .load_packed(name)
                    .map_err(|e| e.to_string())?
                    .into_table(&metrics),
            );
        }
        let mut answers = Vec::with_capacity(DIMENSIONS.len());
        for dim in DIMENSIONS {
            answers.push(drilldown(dim).run(&loaded[0]).map_err(|e| e.to_string())?);
        }
        Ok((job, loaded, answers))
    });
    let makespan_s = t.elapsed().as_secs_f64();
    let (job, mut loaded, answers): (DailyJobOutput, Vec<Table>, Vec<Table>) = match stored {
        Ok(x) => x,
        Err(e) => {
            tally.check(false, || format!("batch repetition failed: {e}"));
            return None;
        }
    };
    tally.check(
        !job.report.degraded && rows_agree(&job.rows, want, 1e-12),
        || {
            format!(
                "daily_job rows differ from DailyPipeline::vm_cdi_rows ({:?})",
                job.report
            )
        },
    );
    tally.check(
        loaded[0] == job.vm_table
            && loaded[1] == job.event_table
            && loaded[2] == job.quarantine_table,
        || "reloaded .cdp tables differ from the written ones".to_string(),
    );
    tally.check(
        bi_matches_hand(&answers[0], &hand_formula4(day, &job.rows)),
        || "BI drill-down differs from hand-computed Formula 4".to_string(),
    );
    let table_bytes = std::fs::metadata(dir.join("vm_cdi.cdp")).map_or(0, |m| m.len());
    Some(BatchRep {
        makespan_s,
        run_s,
        table_bytes,
        rows: job.vm_table.len(),
        rows_cloned: job.report.rows_cloned,
        reloaded: loaded.swap_remove(0),
        built: job.vm_table,
    })
}

/// `n` drill-down queries on a vm table, dimensions in rotation; each
/// `Query::run` timed in µs.
pub fn bi_loop(table: &Table, n: usize, tally: &mut Tally) -> Vec<f64> {
    let queries = DIMENSIONS.map(drilldown);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        let answer = queries[i % queries.len()].run(table);
        out.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(answer.is_ok_and(|a| !a.is_empty()), || {
            "BI query failed".to_string()
        });
    }
    out
}

/// Counts the staged twin reports beside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwinCounts {
    /// Metric samples generated by `simfleet`.
    pub samples: u64,
    /// Records the collector returned.
    pub collect_records: u64,
    /// Events the extractor returned.
    pub events: u64,
    /// Events the lenient derivation quarantined.
    pub quarantined: u64,
    /// `.cdp` bytes of the three tables.
    pub table_bytes: u64,
}

/// The staged twin of `daily_job::run`: the same stages, each a call into
/// one layer's public function under its own span, for repetition `rep`.
/// Returns its per-VM rows (which must reproduce the job's) and counts.
///
/// `simfleet.series` is measured standalone (the collector calls it
/// internally, where no outside span can reach), so it is not part of the
/// closure sum; `cloudbot.collect` contains it.
pub fn staged_twin(
    day: &Day,
    dir: &Path,
    rep: u64,
    tracer: &mut Tracer,
) -> Result<(Vec<VmCdi>, TwinCounts), String> {
    let mut counts = TwinCounts::default();
    let (world, pipeline, window) = (&day.world, &day.pipeline, DAY);
    let partitions = spec::JOB_PARTITIONS;
    // One thread: the twin's two shuffles are under 1 % of the job, and
    // run inline their allocations are counted exactly.
    let ctx = ExecContext::with_threads(1);
    let period = ServicePeriod::new(0, window).map_err(|e| e.to_string())?;

    counts.samples = tracer.span("simfleet.series", rep, |_| {
        let mut n = 0u64;
        for vm in world.fleet.vms() {
            for &metric in &pipeline.collector.vm_metrics {
                n += world
                    .vm_metric_series(vm.id, metric, 0, window, pipeline.collector.vm_step)
                    .len() as u64;
            }
        }
        for nc in world.fleet.ncs() {
            for &metric in &pipeline.collector.nc_metrics {
                n += world
                    .nc_metric_series(nc.id, metric, 0, window, pipeline.collector.nc_step)
                    .len() as u64;
            }
        }
        n
    });

    let data = tracer.span("cloudbot.collect", rep, |_| {
        pipeline.collector.collect(world, 0, window)
    });
    counts.collect_records = data.metrics.len() as u64;
    // `DailyPipeline::events` releases the collected batch (hundreds of MB)
    // before it returns, so the release is timed with the extraction here.
    let events = tracer.span("cloudbot.extract", rep, |_| {
        let events = pipeline.extractor.extract(&data);
        drop(data);
        events
    });
    counts.events = events.len() as u64;

    let keyed = tracer
        .span("minispark.eventlog_scan", rep, |_| {
            Dataset::from_vec(events, partitions).map(|d| d.key_by(|e: &RawEvent| e.target))
        })
        .map_err(|e| e.to_string())?;
    let by_target: Vec<(Target, Vec<RawEvent>)> = tracer
        .span("minispark.shuffle", rep, |_| {
            keyed.group_by_key(partitions)?.try_collect(&ctx)
        })
        .map_err(|e| e.to_string())?;

    let outcomes = tracer.span("cdi-core.derive", rep, |_| {
        by_target
            .iter()
            .map(|(target, events)| {
                (
                    *target,
                    derive_periods_lenient(events, &pipeline.catalog, window, pipeline.policy),
                )
            })
            .collect::<Vec<_>>()
    });
    let derived: Vec<(Target, Vec<EventSpan>)> = tracer.span("cdi-core.weights", rep, |_| {
        outcomes
            .iter()
            .map(|(target, outcome)| {
                let (spans, bad) = assign_weights_lenient(&pipeline.weights, &outcome.periods);
                counts.quarantined += (outcome.quarantined.len() + bad.len()) as u64;
                (*target, spans)
            })
            .collect()
    });

    // Stage 3 of the job: NC damage fans out to hosted VMs through a
    // second shuffle keyed by the final VM.
    let merged: HashMap<u64, Vec<EventSpan>> = tracer
        .span("minispark.shuffle", rep, |_| {
            let mut routed: Vec<(u64, Vec<EventSpan>)> = Vec::new();
            for (target, spans) in &derived {
                match target {
                    Target::Vm(vm) => routed.push((*vm, spans.clone())),
                    Target::Nc(nc) => {
                        let damage: Vec<EventSpan> = spans
                            .iter()
                            .filter(|s| s.name != "inspect_cpu_power_tdp")
                            .cloned()
                            .collect();
                        if !damage.is_empty() {
                            routed.extend(
                                world
                                    .fleet
                                    .vms_on(*nc)
                                    .iter()
                                    .map(|&vm| (vm, damage.clone())),
                            );
                        }
                    }
                }
            }
            Dataset::from_vec(routed, partitions)?
                .reduce_by_key(partitions, |mut a, mut b| {
                    a.append(&mut b);
                    a
                })?
                .try_collect_map(&ctx)
        })
        .map_err(|e| e.to_string())?;

    let rows = tracer
        .span("cdi-core.vm_cdi", rep, |_| {
            world
                .fleet
                .vms()
                .iter()
                .map(|v| {
                    compute_vm_cdi(
                        v.id,
                        merged.get(&v.id).map_or(&[][..], Vec::as_slice),
                        period,
                    )
                })
                .collect::<Result<Vec<VmCdi>, _>>()
        })
        .map_err(|e| e.to_string())?;

    let tables = tracer
        .span("minispark.table_build", rep, |_| {
            build_tables(day, &rows, &derived, period)
        })
        .map_err(|e| e.to_string())?;
    let catalog = Catalog::open(dir).map_err(|e| e.to_string())?;
    tracer
        .span("minispark.save_packed", rep, |_| {
            tables
                .iter()
                .try_for_each(|(name, t)| catalog.save_packed(name, t))
        })
        .map_err(|e| e.to_string())?;
    counts.table_bytes = tables
        .iter()
        .map(|(name, _)| std::fs::metadata(dir.join(format!("{name}.cdp"))).map_or(0, |m| m.len()))
        .sum();
    let reloaded = tracer
        .span("minispark.load_packed", rep, |_| {
            let metrics = ExecMetrics::default();
            tables
                .iter()
                .map(|(name, _)| catalog.load_packed(name).map(|p| p.into_table(&metrics)))
                .collect::<Result<Vec<Table>, _>>()
        })
        .map_err(|e| e.to_string())?;
    if reloaded.iter().zip(&tables).any(|(a, (_, b))| a != b) {
        return Err("staged twin: reloaded tables differ".to_string());
    }
    Ok((rows, counts))
}

/// The job's first two output tables, built the way `daily_job::run`
/// builds them.
fn build_tables(
    day: &Day,
    rows: &[VmCdi],
    derived: &[(Target, Vec<EventSpan>)],
    period: ServicePeriod,
) -> minispark::Result<Vec<(&'static str, Table)>> {
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
    for r in rows {
        let Some(host) = day.world.fleet.host_of(r.vm) else {
            continue;
        };
        vm_table.push_row(vec![
            Value::Int(0),
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
    let mut event_rows: Vec<(String, String, f64)> = Vec::new();
    for (target, spans) in derived {
        let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let q = event_level_cdi(spans, period, name)
                .map_err(|e| minispark::SparkError::invalid(e.to_string()))?;
            event_rows.push((target.to_string(), name.to_string(), q));
        }
    }
    event_rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let mut event_table = Table::new(Schema::new(vec![
        ("day", ColumnType::Int),
        ("target", ColumnType::Str),
        ("event", ColumnType::Str),
        ("cdi", ColumnType::Float),
    ])?);
    for (target, event, q) in event_rows {
        event_table.push_row(vec![
            Value::Int(0),
            Value::Str(target),
            Value::Str(event),
            Value::Float(q),
        ])?;
    }
    Ok(vec![("vm_cdi", vm_table), ("event_cdi", event_table)])
}

/// Do the twin's rows reproduce the job's?
pub fn twin_matches(twin: &[VmCdi], job: &[VmCdi]) -> bool {
    rows_agree(twin, job, 1e-12)
}
