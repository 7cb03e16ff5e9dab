//! Batch/live parity: one simulated day streamed through `cdi-serve`
//! reproduces the distributed daily job's per-target CDI exactly.
//!
//! This is the serving layer's core correctness claim: a flushed service
//! at watermark `end` is *the same computation* as the batch job over
//! `[start, end)` — same lenient derivation, same NC→VM damage
//! propagation, same per-category Algorithm 1 — just arriving one tick at
//! a time.

use cdi_repro::daily_job::{run, DailyJobConfig};
use cdi_serve::{BackpressurePolicy, CdiService, ServeConfig};
use cloudbot::feed::LiveFeed;
use cloudbot::pipeline::DailyPipeline;
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::{Fleet, FleetConfig, SimWorld};

const HOUR: i64 = 3_600_000;
const MIN: i64 = 60_000;
const DAY: i64 = 24 * HOUR;

fn eventful_world() -> SimWorld {
    let fleet = Fleet::build(&FleetConfig {
        regions: vec!["r1".into(), "r2".into()],
        azs_per_region: 1,
        clusters_per_az: 1,
        ncs_per_cluster: 2,
        vms_per_nc: 3,
        nc_cores: 16,
        machine_models: vec!["mA".into(), "mB".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    });
    let mut w = SimWorld::new(fleet, 4242);
    // Touch all three categories plus NC propagation.
    w.inject(FaultInjection::new(
        FaultKind::VmDown,
        FaultTarget::Vm(0),
        2 * HOUR,
        2 * HOUR + 40 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::SlowIo { factor: 9.0 },
        FaultTarget::Vm(4),
        5 * HOUR,
        5 * HOUR + 90 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::NicFlapping,
        FaultTarget::Nc(1),
        9 * HOUR,
        9 * HOUR + 25 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::ControlPlaneOutage,
        FaultTarget::Global,
        14 * HOUR,
        14 * HOUR + HOUR,
    ));
    w
}

#[test]
fn live_service_equals_daily_job() {
    let world = eventful_world();
    let pipeline = DailyPipeline::default();

    // Batch reference: the minispark daily job.
    let batch = run(&world, &pipeline, 0, 0, DAY, DailyJobConfig::default()).unwrap();

    // Live run: the same day, tick by tick through the sharded service.
    let service = CdiService::new(ServeConfig {
        shards: 4,
        queue_capacity: 256,
        policy: BackpressurePolicy::Block,
        period_start: 0,
        ..ServeConfig::default()
    })
    .unwrap()
    .with_fleet_routing(&world.fleet);
    let feed = LiveFeed::build(&pipeline, &world, 0, DAY, 15 * MIN).unwrap();
    assert!(feed.total_spans() > 0, "an eventful day must produce spans");
    for batch_msg in &feed.batches {
        for (target, span) in &batch_msg.spans {
            let report = service.ingest(*target, span.clone());
            assert_eq!(report.shed, 0, "blocking policy never sheds");
        }
        service.advance_watermark(batch_msg.watermark).unwrap();
    }
    service.flush();

    assert!(!batch.rows.is_empty());
    for row in &batch.rows {
        assert_eq!(&service.vm_row(row.vm).unwrap(), row);
    }

    // The feed never delivers behind the watermark, so nothing was lost.
    let metrics = service.metrics();
    assert_eq!(metrics.spans_shed, 0);
    assert_eq!(metrics.late_dropped, 0);
    assert_eq!(metrics.late_clipped, 0);
    assert_eq!(metrics.rejected, 0);
}

#[test]
fn rollups_are_consistent_with_vm_rows() {
    let world = eventful_world();
    let pipeline = DailyPipeline::default();
    let service = CdiService::new(ServeConfig { shards: 3, ..ServeConfig::default() })
        .unwrap()
        .with_fleet_routing(&world.fleet);
    let feed = LiveFeed::build(&pipeline, &world, 0, 6 * HOUR, 30 * MIN).unwrap();
    for b in &feed.batches {
        for (target, span) in &b.spans {
            service.ingest(*target, span.clone());
        }
        service.advance_watermark(b.watermark).unwrap();
    }
    service.flush();

    // Manual Formula 4 over the region's VM rows == the service's rollup.
    let scope = simfleet::Scope::Region("r1".into());
    let r = cdi_serve::rollup(&service, &world.fleet, &scope).unwrap();
    let vms = world.fleet.vms_in(&scope);
    assert_eq!(r.vm_count, vms.len());
    let rows: Vec<_> = vms.iter().map(|&vm| service.vm_row(vm).unwrap()).collect();
    assert_eq!(r.breakdown, cdi_core::indicator::aggregate(&rows).unwrap());

    // The whole-fleet rollup over both regions weighs by service time.
    let all = cdi_serve::rollup(&service, &world.fleet, &simfleet::Scope::Region("r2".into()));
    assert!(all.is_ok());
}

/// A catalog scenario replayed through BOTH evaluation paths — the
/// minispark batch daily job and the sharded live service — yields the
/// same per-VM CDI exactly, and the CDI-threshold detector scores the
/// two paths identically. This is the scenario suite's own parity claim:
/// floors pinned against the live path also bind the batch path.
#[test]
fn scenario_replay_agrees_across_batch_and_live_paths() {
    use scenario_suite::catalog::{build, ScenarioConfig};
    use scenario_suite::detector::{CdiThreshold, Detector};
    use scenario_suite::run::ScenarioRun;
    use scenario_suite::score::{score, ScoreConfig};

    let cfg = ScenarioConfig::quick(20250);
    let scenario = build("ddos-blackhole-wave", &cfg).unwrap();

    // Path 1: the batch daily job, with the scenario's 5-minute sampling.
    let pipeline = DailyPipeline::with_step_ms(5 * MIN);
    let batch =
        run(&scenario.world, &pipeline, 0, scenario.start, scenario.end, DailyJobConfig::default())
            .unwrap();

    // Path 2: the live service fed tick by tick.
    let service = CdiService::new(ServeConfig {
        shards: 3,
        period_start: scenario.start,
        ..ServeConfig::default()
    })
    .unwrap()
    .with_fleet_routing(&scenario.world.fleet);
    let feed =
        LiveFeed::build(&pipeline, &scenario.world, scenario.start, scenario.end, scenario.tick_ms)
            .unwrap();
    for b in &feed.batches {
        for (target, span) in &b.spans {
            service.ingest(*target, span.clone());
        }
        service.advance_watermark(b.watermark).unwrap();
    }
    service.flush();

    assert!(!batch.rows.is_empty());
    for row in &batch.rows {
        assert_eq!(&service.vm_row(row.vm).unwrap(), row);
    }

    // The detector sees the same incidents on both paths…
    let replay = ScenarioRun::prepare(&scenario).unwrap();
    let batch_dets = CdiThreshold { shards: None, ..CdiThreshold::default() }.detect(&replay).unwrap();
    let live_dets = CdiThreshold { shards: Some(3), ..CdiThreshold::default() }.detect(&replay).unwrap();
    assert_eq!(batch_dets, live_dets, "batch and live detections diverge");

    // …so the scores are the same scores.
    let score_cfg = ScoreConfig { slack_ms: scenario.tick_ms, grace_ms: 5 * MIN };
    let sb = score(&scenario.truth, &batch_dets, &scenario.world.fleet, &score_cfg);
    let sl = score(&scenario.truth, &live_dets, &scenario.world.fleet, &score_cfg);
    assert_eq!(sb, sl);
    assert!(sb.f1 > 0.9, "the DDoS wave must actually be caught (F1 {})", sb.f1);
}
