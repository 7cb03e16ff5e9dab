//! Chaos: snapshot → kill → restore mid-stream converges to the same CDI.
//!
//! The uninterrupted service and one that is snapshotted halfway through
//! the day, torn down, and revived from the serialized snapshot — into a
//! *different* shard count — must end the day with identical per-target
//! CDI (`==`) and identical late-span accounting.

use cdi_serve::{BackpressurePolicy, CdiService, ServeConfig, ServiceSnapshot};
use cloudbot::feed::LiveFeed;
use cloudbot::pipeline::DailyPipeline;
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::world::SimWorld;
use simfleet::{Fleet, FleetConfig};

const HOUR: i64 = 3_600_000;
const MIN: i64 = 60_000;
const DAY: i64 = 24 * HOUR;

fn world() -> SimWorld {
    let fleet = Fleet::build(&FleetConfig {
        regions: vec!["r1".into()],
        azs_per_region: 2,
        clusters_per_az: 1,
        ncs_per_cluster: 2,
        vms_per_nc: 3,
        nc_cores: 16,
        machine_models: vec!["mA".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    });
    let mut w = SimWorld::new(fleet, 99);
    w.inject(FaultInjection::new(
        FaultKind::VmDown,
        FaultTarget::Vm(1),
        3 * HOUR,
        3 * HOUR + 50 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::SlowIo { factor: 7.0 },
        FaultTarget::Vm(7),
        8 * HOUR,
        10 * HOUR,
    ));
    w.inject(FaultInjection::new(
        FaultKind::NicFlapping,
        FaultTarget::Nc(2),
        15 * HOUR,
        15 * HOUR + 35 * MIN,
    ));
    w
}

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_capacity: 128,
        policy: BackpressurePolicy::Block,
        period_start: 0,
        ..ServeConfig::default()
    }
}

fn stream(service: &CdiService, feed: &LiveFeed, range: std::ops::Range<usize>) {
    for batch in &feed.batches[range] {
        for (target, span) in &batch.spans {
            service.ingest(*target, span.clone());
        }
        service.advance_watermark(batch.watermark).unwrap();
    }
    service.flush();
}

#[test]
fn kill_and_restore_mid_stream_converges() {
    let world = world();
    let pipeline = DailyPipeline::default();
    let feed = LiveFeed::build(&pipeline, &world, 0, DAY, 20 * MIN).unwrap();
    assert!(feed.total_spans() > 0);
    let cut = feed.batches.len() / 2;

    // Reference: the whole day, uninterrupted, 3 shards.
    let uninterrupted = CdiService::new(cfg(3)).unwrap().with_fleet_routing(&world.fleet);
    stream(&uninterrupted, &feed, 0..feed.batches.len());

    // Victim: first half, then snapshot, serialize, and "crash".
    let bytes = {
        let mut victim = CdiService::new(cfg(3)).unwrap().with_fleet_routing(&world.fleet);
        stream(&victim, &feed, 0..cut);
        let snap = victim.snapshot();
        victim.shutdown();
        snap.to_pack()
    };

    // Revive from the serialized bytes at a *different* shard width and
    // finish the day.
    let snap = ServiceSnapshot::from_pack(&bytes).unwrap();
    let revived =
        CdiService::restore(cfg(5), &snap).unwrap().with_fleet_routing(&world.fleet);
    assert_eq!(revived.watermark(), snap.watermark);
    stream(&revived, &feed, cut..feed.batches.len());

    assert_eq!(revived.target_count(), uninterrupted.target_count());
    for vm in world.fleet.vms() {
        let vm = vm.id;
        let a = uninterrupted.vm_row(vm).unwrap();
        let b = revived.vm_row(vm).unwrap();
        assert_eq!(a, b, "vm {vm}");
    }

    // Accounting carried across the crash: nothing lost, nothing late.
    let (ma, mb) = (uninterrupted.metrics(), revived.metrics());
    assert_eq!(ma.spans_ingested, mb.spans_ingested);
    assert_eq!(ma.late_dropped, mb.late_dropped);
    assert_eq!(ma.late_clipped, mb.late_clipped);
    assert_eq!(mb.rejected, 0);
}

#[test]
fn snapshot_bytes_are_stable_for_identical_state() {
    let world = world();
    let pipeline = DailyPipeline::default();
    let feed = LiveFeed::build(&pipeline, &world, 0, 6 * HOUR, 30 * MIN).unwrap();

    // Same stream through different shard counts → byte-identical
    // snapshots (targets are sorted, accumulators are deterministic).
    let mut packs = Vec::new();
    for shards in [1usize, 4] {
        let svc = CdiService::new(cfg(shards)).unwrap().with_fleet_routing(&world.fleet);
        stream(&svc, &feed, 0..feed.batches.len());
        let mut snap = svc.snapshot();
        // Query/snapshot counters and the pool gauges (shard count, queue
        // high-water marks) legitimately differ run-to-run; blank them so
        // the comparison is about CDI state.
        snap.metrics.queries = 0;
        snap.metrics.snapshots = 0;
        snap.metrics.shards = 0;
        snap.metrics.queue_depth = 0;
        snap.metrics.queue_depth_hwm = 0;
        packs.push(snap.to_pack());
    }
    assert_eq!(packs[0], packs[1]);

    // And the round-trip is lossless.
    let back = ServiceSnapshot::from_pack(&packs[0]).unwrap();
    assert_eq!(back.to_pack(), packs[0]);
}

#[test]
fn restore_rejects_corrupt_snapshots() {
    assert!(ServiceSnapshot::from_pack(b"{not cdipack").is_err());
    let snap = ServiceSnapshot {
        period_start: 10,
        watermark: 5, // precedes period start
        targets: Vec::new(),
        metrics: cdi_serve::MetricsReport::default(),
    };
    assert!(CdiService::restore(cfg(2), &snap).is_err());
}
