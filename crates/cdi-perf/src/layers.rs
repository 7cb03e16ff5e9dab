//! The live path, layer by layer, for the traced run: an in-process
//! staged replay of `serve_cdipack`'s loop over the same frames the wire
//! carries, and standalone replays of the layers no outside span can
//! reach inside a running service (queue hand-off, shard apply, the bare
//! accumulators, per-shard queries, snapshot and lifecycle steps).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::streaming::CdiAccumulator;
use cdi_serve::lifecycle::shard_index;
use cdi_serve::proto::{Request, Response};
use cdi_serve::shard::ShardState;
use cdi_serve::snapshot::ServiceSnapshot;
use cdi_serve::{
    cdipack, merge_top_k, rollup, BackpressurePolicy, BoundedQueue, CdiService, LifecycleEvent,
    ShardMsg,
};
use simfleet::{Fleet, Scope};

use crate::input::{self, SplitMix, Stream};
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

/// Counts of one staged replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedCounts {
    /// Reply bytes, length prefixes included.
    pub resp_bytes: u64,
    /// Frames that failed to read or decode.
    pub decode_errors: u64,
    /// Replies that were `Response::Error`.
    pub error_replies: u64,
}

/// Replay `stream` through the server's request loop without a socket:
/// read frame → `decode_request` → the service call `dispatch` makes →
/// `encode_response` → write frame. One `server.tick` span per chunk,
/// request id = tick index; the layer calls are its children.
pub fn staged_replay(
    fleet: &Fleet,
    stream: &Stream,
    tracer: &mut Tracer,
) -> (Arc<CdiService>, StagedCounts, f64) {
    let svc = input::new_service(fleet, spec::SHARDS);
    let mut counts = StagedCounts::default();
    let mut sink: Vec<u8> = Vec::new();
    let t = Instant::now();
    for (tick, chunk) in stream.chunks.iter().enumerate() {
        let tick = tick as u64;
        tracer.span("server.tick", tick, |tracer| {
            let mut rest = chunk.as_slice();
            loop {
                let req = tracer.span("cdipack.decode_req", tick, |_| {
                    match cdipack::read_frame(&mut rest) {
                        Ok(Some(payload)) => cdipack::decode_request(&payload).map(Some),
                        Ok(None) => Ok(None),
                        Err(e) => Err(e),
                    }
                });
                let resp = match req {
                    Ok(None) => break,
                    Err(e) => {
                        counts.decode_errors += 1;
                        Response::Error {
                            message: e.to_string(),
                        }
                    }
                    Ok(Some(Request::IngestBatch { items })) => {
                        let r =
                            tracer.span("service.ingest_batch", tick, |_| svc.ingest_batch(&items));
                        Response::Ingested {
                            accepted: r.accepted,
                            shed: r.shed,
                        }
                    }
                    Ok(Some(Request::Advance { watermark })) => {
                        match tracer.span("service.advance", tick, |_| {
                            svc.advance_watermark(watermark)
                        }) {
                            Ok(()) => Response::Ok,
                            Err(e) => Response::Error {
                                message: e.to_string(),
                            },
                        }
                    }
                    Ok(Some(_)) => {
                        tracer.span("service.flush_wait", tick, |_| svc.flush());
                        Response::Ok
                    }
                };
                counts.error_replies += u64::from(matches!(resp, Response::Error { .. }));
                tracer.span("cdipack.encode_resp", tick, |_| {
                    sink.clear();
                    let _ = cdipack::write_frame(&mut sink, &cdipack::encode_response(&resp));
                });
                counts.resp_bytes += sink.len() as u64;
            }
        });
    }
    (svc, counts, t.elapsed().as_secs_f64())
}

/// The deliveries of a request stream as each shard receives them.
#[derive(Debug, Default)]
pub struct Deliveries {
    /// Per request, the message group pushed to each shard's queue.
    pub groups: Vec<Vec<Vec<ShardMsg>>>,
}

impl Deliveries {
    /// Expand `requests` the way `CdiService::ingest_batch` and
    /// `advance_watermark` do: NC spans fan out to hosted VMs (host-only
    /// telemetry excepted), every delivery goes to `shard_index` of its
    /// target, a watermark goes to every shard.
    pub fn of(requests: &[Request], fleet: &Fleet, shards: usize) -> Deliveries {
        let host_only = input::serve_config(shards).host_only_events;
        let mut out = Deliveries::default();
        for req in requests {
            let mut groups: Vec<Vec<ShardMsg>> = vec![Vec::new(); shards];
            match req {
                Request::IngestBatch { items } => {
                    for item in items {
                        let mut deliver = |target: Target, span: &EventSpan| {
                            groups[shard_index(target, shards)].push(ShardMsg::Span {
                                target,
                                span: span.clone(),
                            });
                        };
                        if let Target::Nc(nc) = item.target {
                            if !host_only.contains(&item.span.name) {
                                for &vm in fleet.vms_on(nc) {
                                    deliver(Target::Vm(vm), &item.span);
                                }
                            }
                        }
                        deliver(item.target, &item.span);
                    }
                }
                Request::Advance { watermark } => {
                    for g in &mut groups {
                        g.push(ShardMsg::Watermark(*watermark));
                    }
                }
                _ => continue,
            }
            out.groups.push(groups);
        }
        out
    }

    /// Each shard's exact message sequence.
    pub fn per_shard(&self, shards: usize) -> Vec<Vec<ShardMsg>> {
        let mut out: Vec<Vec<ShardMsg>> = vec![Vec::new(); shards];
        for groups in &self.groups {
            for (seq, g) in out.iter_mut().zip(groups) {
                seq.extend(g.iter().cloned());
            }
        }
        out
    }
}

/// Numbers of the standalone layer replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standalone {
    /// `push_many` → `pop_batch` hand-off, ns per message.
    pub handoff_ns_per_msg: f64,
    /// Seconds of `ShardState::apply` over all shards' sequences.
    pub apply_s: f64,
    /// The same per message.
    pub apply_ns_per_msg: f64,
    /// Largest shard's messages over the mean.
    pub skew: f64,
    /// Bare `CdiAccumulator` replay of shard 0's stream, ns per span.
    pub accum_ns_per_span: f64,
    /// `ShardState::point`, ns.
    pub point_p50_ns: f64,
    /// `ShardState::top_k(10)`, µs.
    pub topk_p50_us: f64,
    /// `merge_top_k` over the shards' lists, µs.
    pub merge_p50_us: f64,
}

/// Same batch size as the shard worker's `pop_batch`.
const WORKER_BATCH: usize = 128;

/// Replay `deliveries` through each layer alone. `samples` bounds the
/// query samples.
pub fn standalone(
    deliveries: &Deliveries,
    seed: u64,
    samples: usize,
    tracer: &mut Tracer,
) -> Standalone {
    let shards = spec::SHARDS;
    let mut out = Standalone::default();

    // Queue hand-off: the real groups through one bounded queue, one
    // producer and one consumer, nothing applied.
    let queue: BoundedQueue<ShardMsg> = BoundedQueue::new(spec::QUEUE_CAPACITY);
    let groups: Vec<Vec<ShardMsg>> = deliveries
        .groups
        .iter()
        .flat_map(|g| g.iter().filter(|m| !m.is_empty()).cloned())
        .collect();
    let msgs: usize = groups.iter().map(Vec::len).sum();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut batch = Vec::with_capacity(WORKER_BATCH);
            while queue.pop_batch(WORKER_BATCH, |_| false, &mut batch) {
                batch.clear();
            }
        });
        for group in groups {
            queue.push_many(group, BackpressurePolicy::Block);
        }
        queue.close();
    });
    out.handoff_ns_per_msg = t.elapsed().as_secs_f64() * 1e9 / msgs.max(1) as f64;

    // Shard apply: single-threaded, each shard's exact sequence.
    let sequences = deliveries.per_shard(shards);
    let total: usize = sequences.iter().map(Vec::len).sum();
    let largest = sequences.iter().map(Vec::len).max().unwrap_or(0);
    out.skew = largest as f64 * shards as f64 / total.max(1) as f64;
    let accum_input = sequences[0].clone();
    let mut states = Vec::with_capacity(shards);
    for (i, seq) in sequences.into_iter().enumerate() {
        states.push(tracer.span("shard.apply", i as u64, |_| {
            let mut st = ShardState::new(0);
            for msg in seq {
                st.apply(msg);
            }
            st
        }));
    }
    out.apply_s = tracer.total_s("shard.apply");
    out.apply_ns_per_msg = out.apply_s * 1e9 / total.max(1) as f64;

    // The bare accumulators under shard 0's stream: what apply costs
    // without the target map, the dirty set and the journal bookkeeping.
    let mut accs: HashMap<Target, [CdiAccumulator; 3]> = HashMap::new();
    let mut spans = 0u64;
    let mut watermark = 0;
    let t = Instant::now();
    for msg in accum_input {
        match msg {
            ShardMsg::Span { target, span } => {
                spans += 1;
                let slot = accs.entry(target).or_insert_with(|| {
                    let mut fresh = [0; 3].map(|_| CdiAccumulator::new(0));
                    for acc in &mut fresh {
                        let _ = acc.advance_watermark(watermark);
                    }
                    fresh
                });
                let i = Category::ALL
                    .iter()
                    .position(|c| *c == span.category)
                    .unwrap_or(0);
                let _ = slot[i].ingest(span);
            }
            ShardMsg::Watermark(to) => {
                watermark = to;
                for slot in accs.values_mut() {
                    for acc in slot {
                        let _ = acc.advance_watermark(to);
                    }
                }
            }
            ShardMsg::Crash => {}
        }
    }
    out.accum_ns_per_span = t.elapsed().as_secs_f64() * 1e9 / spans.max(1) as f64;
    std::hint::black_box(&accs);

    // Per-shard queries on the replayed state.
    let mut mix = SplitMix(seed ^ 0x70_6F_69_6E_74);
    let known: Vec<Vec<Target>> = states
        .iter()
        .map(|st| st.snapshot().iter().map(|t| t.target).collect())
        .collect();
    let mut point_ns = Vec::with_capacity(samples);
    let mut topk_us = Vec::with_capacity(samples);
    let mut merge_us = Vec::with_capacity(samples);
    for i in 0..samples {
        let shard = i % shards;
        if let Some(&target) = known[shard].get(mix.below(known[shard].len() as u64) as usize) {
            let t = Instant::now();
            std::hint::black_box(states[shard].point(target));
            point_ns.push(t.elapsed().as_secs_f64() * 1e9);
        }
        let category = Category::ALL[i % 3];
        let lists: Vec<Vec<(Target, f64)>> = states
            .iter()
            .map(|st| {
                let t = Instant::now();
                let list = tracer
                    .span("shard.topk", i as u64, |_| st.top_k(10, category))
                    .unwrap_or_default();
                topk_us.push(t.elapsed().as_secs_f64() * 1e6);
                list
            })
            .collect();
        let t = Instant::now();
        std::hint::black_box(merge_top_k(&lists, 10));
        merge_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.point_p50_ns = stats::median(&point_ns);
    out.topk_p50_us = stats::median(&topk_us);
    out.merge_p50_us = stats::median(&merge_us);
    out
}

/// In-process rollup latency over one region, AZ and cluster, µs each.
pub fn rollup_p50_us(svc: &CdiService, fleet: &Fleet, samples: usize) -> [f64; 3] {
    let nc0 = &fleet.ncs()[0];
    let scopes = [
        Scope::Region(nc0.region.clone()),
        Scope::Az(nc0.az.clone()),
        Scope::Cluster(nc0.cluster.clone()),
    ];
    scopes.map(|scope| {
        let us: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(rollup(svc, fleet, &scope).ok());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&us)
    })
}

/// Numbers of the in-process snapshot and lifecycle steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifecycleSteps {
    /// `ServiceSnapshot::to_pack`, seconds.
    pub encode_s: f64,
    /// `ServiceSnapshot::from_pack`, seconds.
    pub decode_s: f64,
    /// Packed snapshot bytes.
    pub pack_bytes: u64,
    /// `CdiService::restore` at three shards, seconds.
    pub restore_s: f64,
    /// Median `CdiService::resize` (grow, then shrink back), seconds.
    pub resize_s: f64,
    /// Targets the grow moved.
    pub moved_targets: u64,
    /// Messages the two resizes drained.
    pub drained_msgs: u64,
    /// `kill_shard` → `supervise` finds and rebuilds the shard → `flush`, seconds.
    pub respawn_s: f64,
    /// Bytes the respawn replayed beyond its base image.
    pub replayed_bytes: u64,
    /// `CdiService::rolling_restart`, seconds.
    pub rolling_restart_s: f64,
    /// Fence epochs opened by all of the above.
    pub fence_epochs: u64,
    /// Whether every step succeeded and the restore was bit-identical.
    pub ok: bool,
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Snapshot, pack, unpack, restore, resize, kill and respawn, rolling
/// restart — each once, in process, on the service the staged replay left
/// behind. `snapshot.capture` is the one span (the rest are plain timers:
/// they have no children to subtract).
pub fn lifecycle_steps(svc: &CdiService, tracer: &mut Tracer) -> LifecycleSteps {
    let mut out = LifecycleSteps {
        ok: true,
        ..LifecycleSteps::default()
    };
    let snap = tracer.span("snapshot.capture", 0, |_| svc.snapshot());
    let (encode_s, packed) = timed(|| snap.to_pack());
    out.encode_s = encode_s;
    out.pack_bytes = packed.len() as u64;
    let (decode_s, decoded) = timed(|| ServiceSnapshot::from_pack(&packed).ok());
    out.decode_s = decode_s;
    let (restore_s, restored) = timed(|| {
        let grown = input::serve_config(spec::GROWN_SHARDS);
        decoded
            .as_ref()
            .and_then(|d| CdiService::restore(grown, d).ok())
    });
    out.restore_s = restore_s;
    out.ok &= restored.is_some_and(|r| r.snapshot().targets == snap.targets);
    let mut resize_s = Vec::new();
    for shards in [spec::GROWN_SHARDS, spec::SHARDS] {
        let t = Instant::now();
        match svc.resize(shards) {
            Ok(outcome) => {
                resize_s.push(t.elapsed().as_secs_f64());
                out.moved_targets = out.moved_targets.max(outcome.moved_targets as u64);
                out.drained_msgs += outcome.drained_msgs;
            }
            Err(_) => out.ok = false,
        }
    }
    out.resize_s = stats::median(&resize_s);
    // The kill lands when the shard's worker reaches it: sweep until the
    // supervisor has found the shard dead and rebuilt it.
    let (respawn_s, healed) = timed(|| {
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        let mut healed = svc.kill_shard(0) && svc.supervise() > 0;
        while !healed && Instant::now() < deadline {
            std::thread::yield_now();
            healed = svc.supervise() > 0;
        }
        svc.flush();
        healed
    });
    out.respawn_s = respawn_s;
    let (rolling_s, rolled) = timed(|| svc.rolling_restart().is_ok());
    out.rolling_restart_s = rolling_s;
    out.ok &= healed && rolled;
    let m = svc.metrics();
    out.fence_epochs = m.fence_epoch;
    out.replayed_bytes = m
        .events
        .iter()
        .filter_map(|e| match e {
            LifecycleEvent::ShardRespawned { replayed_bytes, .. } => Some(*replayed_bytes),
            _ => None,
        })
        .sum();
    out
}
