//! The deployment loop of the paper's Fig. 4: raw events land in the SLS
//! stand-in, sync into warehouse tables, the Spark-equivalent job computes
//! the two output tables, configuration comes from the MySQL stand-in, and
//! the BI layer queries the result — all through the storage substrates.

use cdi_repro::daily_job::{run, DailyJobConfig};
use cloudbot::pipeline::DailyPipeline;
use minispark::bi::{Aggregate, Query};
use minispark::store::{Catalog, ConfigStore, EventLog};
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::{Fleet, FleetConfig, SimWorld};

const HOUR: i64 = 3_600_000;
const DAY: i64 = 24 * HOUR;

fn world() -> SimWorld {
    let fleet = Fleet::build(&FleetConfig {
        regions: vec!["r1".into()],
        azs_per_region: 1,
        clusters_per_az: 1,
        ncs_per_cluster: 2,
        vms_per_nc: 3,
        nc_cores: 16,
        machine_models: vec!["mA".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    });
    let mut w = SimWorld::new(fleet, 404);
    w.inject(FaultInjection::new(
        FaultKind::SlowIo { factor: 9.0 },
        FaultTarget::Vm(0),
        HOUR,
        HOUR + 30 * 60_000,
    ));
    w.inject(FaultInjection::new(
        FaultKind::VmDown,
        FaultTarget::Vm(4),
        2 * HOUR,
        2 * HOUR + 10 * 60_000,
    ));
    w
}

#[test]
fn fig4_deployment_loop_round_trips() {
    let world = world();
    let pipeline = DailyPipeline::default();

    // SLS stand-in: raw events stream into the log, then the daily sync
    // drains them.
    let log: EventLog<cdi_core::event::RawEvent> = EventLog::new();
    let events = pipeline.events(&world, 0, DAY);
    let n_events = events.len();
    assert!(n_events > 20, "enough events: {n_events}");
    log.append_batch(events.into_iter().map(|e| (e.time, e)));
    let synced = log.drain_until(DAY);
    assert_eq!(synced.len(), n_events);
    assert!(log.is_empty());

    // MySQL stand-in: the weighting configuration is versioned.
    let config = ConfigStore::new();
    config.put("weights", 0, &pipeline.weights).unwrap();
    let weights: cdi_core::weight::WeightTable = config.get("weights").unwrap();
    assert_eq!(weights.weight("slow_io", cdi_core::event::Severity::Critical), 0.75);

    // The Spark-equivalent job produces the two MaxCompute tables.
    let job = run(
        &world,
        &pipeline,
        1,
        0,
        DAY,
        DailyJobConfig { threads: 2, partitions: 4, ..Default::default() },
    )
    .unwrap();
    assert_eq!(job.vm_table.len(), world.fleet.vms().len());
    assert!(!job.event_table.is_empty());

    // Persist and reload both tables through the catalog, then query.
    let dir = std::env::temp_dir().join(format!("cdi-catalog-{}", std::process::id()));
    let catalog = Catalog::open(&dir).unwrap();
    catalog.save_packed("vm_cdi_daily", &job.vm_table).unwrap();
    catalog.save_packed("event_cdi_daily", &job.event_table).unwrap();
    let reloaded = catalog.load("vm_cdi_daily").unwrap();
    assert_eq!(reloaded, job.vm_table);

    // BI over the reloaded table: global Formula-4 aggregates.
    let out = Query::new()
        .aggregate(
            "u",
            Aggregate::WeightedMean { value: "unavailability".into(), weight: "service_ms".into() },
        )
        .aggregate(
            "p",
            Aggregate::WeightedMean { value: "performance".into(), weight: "service_ms".into() },
        )
        .run(&reloaded)
        .unwrap();
    let u = out.row(0)[0].as_float().unwrap();
    let p = out.row(0)[1].as_float().unwrap();
    assert!(u > 0.0, "the injected crash must show up: {u}");
    assert!(p > 0.0, "the injected slow IO must show up: {p}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recomputing a past day must use the weight configuration that was
/// active then — the reason the MySQL stand-in keeps version history.
#[test]
fn past_day_recompute_uses_historical_weights() {
    use cdi_core::weight::{CustomerWeights, Priorities, WeightTable};
    use std::collections::HashMap;

    let world = world();
    let config = ConfigStore::new();
    // Day 0: expert-only weights. Day 1: ticket-blended weights in which
    // slow_io sits at the top customer level.
    config.put("weights", 0, &WeightTable::expert_only()).unwrap();
    let counts: HashMap<String, u64> =
        [("slow_io".to_string(), 100u64), ("packet_loss".to_string(), 1)].into();
    let blended = WeightTable::new(
        CustomerWeights::from_ticket_counts(&counts, 4).unwrap(),
        Priorities::equal(),
    )
    .unwrap();
    config.put("weights", DAY, &blended).unwrap();

    let run_with = |weights: WeightTable| {
        let pipeline = DailyPipeline { weights, ..DailyPipeline::default() };
        let rows = pipeline.vm_cdi_rows(&world, 0, DAY).unwrap();
        rows.iter().find(|r| r.vm == 0).unwrap().performance
    };
    // Replay day 0 with its as-of config, then "today" with the latest.
    let historical: WeightTable = config.get_as_of("weights", 0).unwrap();
    let current: WeightTable = config.get_as_of("weights", DAY + 1).unwrap();
    let day0_value = run_with(historical);
    let today_value = run_with(current);
    // slow_io weight rose from 0.75 (expert critical) to 0.875
    // (blend with customer level 4): today's recompute reads higher.
    assert!(today_value > day0_value, "{today_value} vs {day0_value}");
    assert!((today_value / day0_value - 0.875 / 0.75).abs() < 1e-9);
}

#[test]
fn dataflow_agrees_with_serial_at_scale() {
    // Larger noise world, several shuffles, multiple threads: the dataflow
    // and the serial pipeline must produce identical rows.
    let mut world = world();
    simfleet::scenario::background_faults(
        &mut world,
        0,
        DAY,
        &simfleet::scenario::BackgroundRates::quiet().scaled(5.0),
    );
    let pipeline = DailyPipeline::default();
    let serial = pipeline.vm_cdi_rows(&world, 0, DAY).unwrap();
    for threads in [1, 4] {
        let job = run(
            &world,
            &pipeline,
            0,
            0,
            DAY,
            DailyJobConfig { threads, partitions: 7, ..Default::default() },
        )
        .unwrap();
        for (a, b) in job.rows.iter().zip(&serial) {
            assert_eq!(a.vm, b.vm);
            assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
            assert_eq!(a.performance.to_bits(), b.performance.to_bits());
            assert_eq!(a.control_plane.to_bits(), b.control_plane.to_bits());
        }
    }
}
