//! The resize chaos gate: a service that is grown, killed, and shrunk
//! mid-stream under live concurrent producers must end the day with the
//! same per-target CDI (`==`) as an uninterrupted fixed-shard run.
//!
//! Three producer threads deliver a partitioned [`LiveFeed`] (each target
//! exclusive to one producer), synchronized per batch with a barrier.
//! While a batch is in flight the coordinator resizes the pool 3 → 4,
//! kills a seeded-random shard, and later resizes 4 → 2 — the fence
//! protocol must quiesce the producers, re-hash state, and cut over
//! without losing or duplicating a single span.

use std::sync::{Arc, Barrier};

use cdi_serve::{BackpressurePolicy, CdiService, ServeConfig};
use cloudbot::feed::LiveFeed;
use cloudbot::pipeline::DailyPipeline;
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::world::SimWorld;
use simfleet::{Fleet, FleetConfig};

const HOUR: i64 = 3_600_000;
const MIN: i64 = 60_000;
const DAY: i64 = 24 * HOUR;
const PRODUCERS: usize = 3;

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
    let mut w = SimWorld::new(fleet, 77);
    w.inject(FaultInjection::new(
        FaultKind::VmDown,
        FaultTarget::Vm(2),
        2 * HOUR,
        2 * HOUR + 40 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::SlowIo { factor: 6.0 },
        FaultTarget::Vm(5),
        7 * HOUR,
        9 * HOUR,
    ));
    w.inject(FaultInjection::new(
        FaultKind::NicFlapping,
        FaultTarget::Nc(1),
        14 * HOUR,
        14 * HOUR + 30 * MIN,
    ));
    w
}

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        period_start: 0,
        ..ServeConfig::default()
    }
}

/// SplitMix64: the deterministic seed stream used by every drill in the
/// repo — the killed shard is a function of the seed, nothing else.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn resize_and_kill_under_live_producers_matches_fixed_shard_run() {
    let world = world();
    let pipeline = DailyPipeline::default();
    let feed = LiveFeed::build(&pipeline, &world, 0, DAY, 20 * MIN).unwrap();
    assert!(feed.total_spans() > 0);
    let n_batches = feed.batches.len();
    let grow_at = n_batches / 3;
    let kill_at = n_batches / 2;
    let shrink_at = 2 * n_batches / 3;

    // Reference: the whole day, uninterrupted, fixed 3 shards, sequential.
    let reference = CdiService::new(cfg(3)).unwrap().with_fleet_routing(&world.fleet);
    for batch in &feed.batches {
        for (target, span) in &batch.spans {
            reference.ingest(*target, span.clone());
        }
        reference.advance_watermark(batch.watermark).unwrap();
    }
    reference.flush();

    // Chaos run: same feed split across live producers, pool resized and
    // a shard killed while batches are in flight.
    let service = Arc::new(CdiService::new(cfg(3)).unwrap().with_fleet_routing(&world.fleet));
    let parts = feed.partition(PRODUCERS);
    // Two crossings per batch: start (everyone begins delivering) and end
    // (all spans of the batch are ingested; coordinator advances the
    // watermark before releasing the next start).
    let barrier = Arc::new(Barrier::new(PRODUCERS + 1));

    let producers: Vec<_> = parts
        .into_iter()
        .map(|part| {
            let svc = Arc::clone(&service);
            let gate = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for batch in &part.batches {
                    gate.wait();
                    for (target, span) in &batch.spans {
                        let report = svc.ingest(*target, span.clone());
                        assert_eq!(report.shed, 0, "blocking policy never sheds");
                    }
                    gate.wait();
                }
            })
        })
        .collect();

    let mut rng = 0xC0FF_EE00_2026_0808u64;
    let mut grow_outcome = None;
    let mut shrink_outcome = None;
    for (i, batch) in feed.batches.iter().enumerate() {
        barrier.wait();
        // Lifecycle ops fire while the producers are mid-delivery: the
        // fence has to stop live admissions, not an idle service.
        if i == grow_at {
            grow_outcome = Some(service.resize(4).unwrap());
        }
        if i == kill_at {
            let victim = (splitmix64(&mut rng) % service.shard_count() as u64) as usize;
            assert!(service.kill_shard(victim), "victim {victim} exists");
        }
        if i == shrink_at {
            shrink_outcome = Some(service.resize(2).unwrap());
        }
        barrier.wait();
        service.advance_watermark(batch.watermark).unwrap();
    }
    for p in producers {
        p.join().unwrap();
    }
    service.flush();

    let grow = grow_outcome.expect("grow resize ran");
    assert_eq!((grow.from_shards, grow.to_shards), (3, 4));
    let shrink = shrink_outcome.expect("shrink resize ran");
    assert_eq!((shrink.from_shards, shrink.to_shards), (4, 2));
    assert!(shrink.epoch > grow.epoch, "fence epochs advance");
    assert_eq!(service.shard_count(), 2);

    // The gate: per-VM CDI equal to the uninterrupted run.
    assert_eq!(service.target_count(), reference.target_count());
    for vm in world.fleet.vms() {
        let vm = vm.id;
        let a = reference.vm_row(vm).unwrap();
        let b = service.vm_row(vm).unwrap();
        assert_eq!(a, b, "vm {vm}");
    }

    // Accounting: nothing lost, nothing late, every drill counted.
    let (ma, mb) = (reference.metrics(), service.metrics());
    assert_eq!(ma.spans_ingested, mb.spans_ingested);
    assert_eq!(ma.late_dropped, mb.late_dropped);
    assert_eq!(ma.late_clipped, mb.late_clipped);
    assert_eq!(mb.rejected, 0);
    assert_eq!(mb.resizes, 2);
    assert_eq!(mb.shard_kills, 1);
    assert!(mb.shard_respawns >= 1, "the killed shard was healed");
    assert!(mb.fence_epoch >= 2);
    assert!(mb.events.iter().any(|e| matches!(
        e,
        cdi_serve::LifecycleEvent::ResizeFinished { from_shards: 3, to_shards: 4, .. }
    )));
    assert!(mb.events.iter().any(|e| matches!(
        e,
        cdi_serve::LifecycleEvent::ShardKilled { .. }
    )));

    // Lock-order sanitizer gate: the whole chaos run — live producers,
    // two resizes, one kill/respawn — acquired locks strictly within the
    // declared order. (No-op in release builds; this binary runs in the
    // debug test profile, where every acquisition was recorded.)
    let violations = cdi_serve::tracked::take_violations();
    assert!(violations.is_empty(), "lock-order violations during drill: {violations:#?}");
}
