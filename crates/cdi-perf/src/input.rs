//! Seeded inputs: the fleet day, its live feed, the pre-encoded frame
//! streams, and the oracles the outputs are checked against.
//!
//! Everything here is a pure function of the seed, the scale and the tick
//! counts of the paced streams; the system under test receives only what
//! this module generates.

use std::sync::Arc;

use cdi_core::event::{Category, Target};
use cdi_core::indicator::VmCdi;
use cdi_serve::proto::{IngestItem, Request};
use cdi_serve::{cdipack, BackpressurePolicy, CdiService, ServeConfig};
use cloudbot::feed::{FeedBatch, LiveFeed};
use cloudbot::pipeline::DailyPipeline;
use simfleet::faults::FaultTarget;
use simfleet::scenario::{
    background_faults, fail_power_domain, BackgroundRates, DAY, HOUR, MINUTE,
};
use simfleet::{FaultInjection, FaultKind, Fleet, SimWorld};

use crate::spec::{self, Scale};
use crate::trace::Tracer;

/// Deterministic 64-bit mixer (splitmix64) for seed-placed faults and
/// seeded query targets.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next value.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n.max(1)
    }
}

/// The simulated day and the pipeline that reads it.
#[derive(Debug)]
pub struct Day {
    /// The world, faults injected.
    pub world: SimWorld,
    /// Shared topology handle for the server's rollups.
    pub fleet: Arc<Fleet>,
    /// The extraction pipeline (1-minute collector step).
    pub pipeline: DailyPipeline,
}

impl Day {
    /// Build the fleet day for `seed`: background faults at ten times the
    /// quiet rate, seed-placed NIC flapping on NCs, and one power-domain
    /// failure of a whole AZ so NC→VM fan-out is exercised.
    pub fn new(seed: u64, scale: &Scale) -> Day {
        let fleet = Fleet::build(&scale.fleet());
        let ncs = fleet.ncs().len() as u64;
        let mut world = SimWorld::new(fleet, seed);
        background_faults(&mut world, 0, DAY, &BackgroundRates::quiet().scaled(10.0));
        let mut mix = SplitMix(seed);
        for _ in 0..scale.nic_faults {
            let nc = mix.below(ncs);
            let at = HOUR + mix.below(21 * 60) as i64 * MINUTE;
            world.inject(FaultInjection::new(
                FaultKind::NicFlapping,
                FaultTarget::Nc(nc),
                at,
                at + 20 * MINUTE,
            ));
        }
        let azs = world.az_names();
        let az = azs[mix.below(azs.len() as u64) as usize].clone();
        let at = HOUR + mix.below(21 * 60) as i64 * MINUTE;
        fail_power_domain(&mut world, &az, at, at + 30 * MINUTE);
        let fleet = Arc::new(world.fleet.clone());
        Day {
            world,
            fleet,
            pipeline: DailyPipeline::with_step_ms(spec::STEP_MS),
        }
    }

    /// One untimed `Collector::collect` whose result is dropped: on this
    /// kind of VM the first touch of fresh pages makes the first collect
    /// several times slower, and that is the machine's cost, not the
    /// system's.
    pub fn warm_pages(&self) {
        drop(std::hint::black_box(self.pipeline.collector.collect(
            &self.world,
            0,
            DAY,
        )));
    }
}

/// The service shape of every live workload.
pub fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_capacity: spec::QUEUE_CAPACITY,
        policy: BackpressurePolicy::Block,
        ..ServeConfig::default()
    }
}

/// A fresh, empty service with fleet routing.
pub fn new_service(fleet: &Fleet, shards: usize) -> Arc<CdiService> {
    let svc = CdiService::new(serve_config(shards)).expect("static service config is valid");
    Arc::new(svc.with_fleet_routing(fleet))
}

/// One request as the bytes a client writes: varint length, then payload.
pub fn frame(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    cdipack::write_frame(&mut out, &cdipack::encode_request(req))
        .expect("writing to a Vec cannot fail");
    out
}

/// A pre-encoded request stream. Each chunk is written with one `write`
/// and holds [`Stream::frames_per_chunk`] frames.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The chunks, in send order.
    pub chunks: Vec<Vec<u8>>,
    /// Frames (hence replies) per chunk.
    pub frames_per_chunk: usize,
    /// Logical spans carried (before NC fan-out).
    pub spans: u64,
    /// Request bytes, length prefixes included.
    pub bytes: u64,
    /// The final watermark.
    pub end: i64,
}

impl Stream {
    /// Replies the server owes for the whole stream.
    pub fn replies(&self) -> usize {
        self.chunks.len() * self.frames_per_chunk
    }

    /// The first `n` chunks as their own stream (the ladder replays a
    /// prefix of the paced stream against a fresh service).
    pub fn prefix(&self, n: usize) -> &[Vec<u8>] {
        &self.chunks[..n.min(self.chunks.len())]
    }

    /// Decode every frame back into requests — what the oracle and the
    /// staged replay are fed, so they see exactly the bytes the wire does.
    pub fn requests(&self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.replies());
        for chunk in &self.chunks {
            let mut rest = chunk.as_slice();
            while let Some(payload) = cdipack::read_frame(&mut rest).expect("own frame reads") {
                out.push(cdipack::decode_request(&payload).expect("own frame decodes"));
            }
        }
        out
    }
}

fn shifted_items(batch: &FeedBatch, shift: i64) -> Vec<IngestItem> {
    batch
        .spans
        .iter()
        .map(|(target, span)| {
            let mut span = span.clone();
            span.start += shift;
            span.end += shift;
            IngestItem {
                target: *target,
                span,
            }
        })
        .collect()
}

/// Re-slice a feed into coarser ticks by concatenating `every` consecutive
/// batches. Batches are already in total span order, so the result equals
/// `LiveFeed::build` at the coarser tick (a test holds this).
pub fn coarsen(feed: &LiveFeed, every: usize) -> Vec<FeedBatch> {
    feed.batches
        .chunks(every.max(1))
        .map(|group| FeedBatch {
            watermark: group.last().map_or(feed.period_end, |b| b.watermark),
            spans: group.iter().flat_map(|b| b.spans.iter().cloned()).collect(),
        })
        .collect()
}

/// Encode `ticks` ticks of `batches`, day-shifting the day as often as
/// needed. A saturating stream sends `IngestBatch`, `Advance` per tick and
/// one closing `Flush`; a paced stream sends `IngestBatch`, `Advance`,
/// `Flush` every tick, because each tick's visibility is timed.
pub fn encode_stream(
    batches: &[FeedBatch],
    ticks: usize,
    flush_every_tick: bool,
    tracer: &mut Tracer,
) -> Stream {
    let mut stream = Stream {
        chunks: Vec::with_capacity(ticks + 1),
        frames_per_chunk: if flush_every_tick { 3 } else { 2 },
        spans: 0,
        bytes: 0,
        end: 0,
    };
    let flush = frame(&Request::Flush);
    for tick in 0..ticks {
        let batch = &batches[tick % batches.len()];
        let shift = (tick / batches.len()) as i64 * DAY;
        let items = shifted_items(batch, shift);
        stream.spans += items.len() as u64;
        let watermark = batch.watermark + shift;
        stream.end = watermark;
        let chunk = tracer.span("cdipack.encode_req", tick as u64, |_| {
            let mut chunk = frame(&Request::IngestBatch { items });
            chunk.extend(frame(&Request::Advance { watermark }));
            if flush_every_tick {
                chunk.extend_from_slice(&flush);
            }
            chunk
        });
        stream.bytes += chunk.len() as u64;
        stream.chunks.push(chunk);
    }
    if !flush_every_tick {
        // The closing Flush rides with a no-op Advance so every chunk
        // holds the same number of frames.
        let mut chunk = frame(&Request::Advance {
            watermark: stream.end,
        });
        chunk.extend_from_slice(&flush);
        stream.bytes += chunk.len() as u64;
        stream.chunks.push(chunk);
    }
    stream
}

/// Final per-target CDI of a stream, from a sequential 1-shard in-process
/// service fed the same frames, plus the size of its snapshot.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// `(target, [unavailability, performance, control-plane])`, sorted.
    pub cdi: Vec<(Target, [f64; 3])>,
    /// `to_pack` bytes of the oracle's snapshot.
    pub snapshot_bytes: u64,
    /// Span deliveries the oracle accepted (after NC fan-out).
    pub deliveries: u64,
    /// Deliveries the oracle's accumulators dropped or clipped as late.
    /// The feed never delivers behind its own watermark, but a windowed
    /// event at the very start of a day derives a span that begins before
    /// the day does, and that is clipped wherever it is applied.
    pub late: (u64, u64),
}

impl Oracle {
    /// Feed `stream` to a fresh 1-shard service, in order, in process.
    pub fn of(stream: &Stream, fleet: &Fleet) -> Oracle {
        let svc = new_service(fleet, 1);
        for req in stream.requests() {
            match req {
                Request::IngestBatch { items } => {
                    svc.ingest_batch(&items);
                }
                Request::Advance { watermark } => svc
                    .advance_watermark(watermark)
                    .expect("stream watermarks are monotone"),
                _ => svc.flush(),
            }
        }
        svc.flush();
        let snap = svc.snapshot();
        let snapshot_bytes = snap.to_pack().len() as u64;
        let cdi = snap
            .targets
            .iter()
            .map(|t| {
                let p = svc
                    .point(t.target)
                    .expect("oracle has elapsed service time")
                    .expect("snapshotted target is tracked");
                (t.target, Category::ALL.map(|c| p.get(c)))
            })
            .collect();
        let m = &snap.metrics;
        Oracle {
            cdi,
            snapshot_bytes,
            deliveries: m.spans_ingested,
            late: (m.late_dropped, m.late_clipped),
        }
    }

    /// Largest |Δ| between `svc` and the oracle over every target and
    /// category; `None` if `svc` tracks a different set of targets.
    pub fn max_abs_delta(&self, svc: &CdiService) -> Option<f64> {
        if svc.target_count() != self.cdi.len() {
            return None;
        }
        let mut worst = 0.0f64;
        for (target, want) in &self.cdi {
            let got = svc.point(*target).ok()??;
            for (c, w) in Category::ALL.iter().zip(want) {
                worst = worst.max((got.get(*c) - w).abs());
            }
        }
        Some(worst)
    }
}

/// A pre-encoded stream with the oracle its outcome is checked against.
pub type Checked = (Stream, Oracle);

/// Everything one run's phases consume.
#[derive(Debug)]
pub struct Input {
    /// The day.
    pub day: Day,
    /// Spans of the day's feed.
    pub feed_spans: u64,
    /// The day's feed re-sliced into paced ticks.
    pub coarse: Vec<FeedBatch>,
    /// The saturating stream.
    pub saturate: Checked,
    /// The paced stream of the mix phase.
    pub mix: Checked,
    /// The paced stream of the churn phase, if the run has one.
    pub churn: Option<Checked>,
    /// `DailyPipeline::vm_cdi_rows` over the day.
    pub batch_rows: Vec<VmCdi>,
}

impl Input {
    /// Generate every input of one run: world, extraction, feed, frame
    /// encoding, oracles. This is what `setup_s` times. The churn stream
    /// is built only when the run has a churn phase.
    pub fn build(
        seed: u64,
        scale: &Scale,
        mix_ticks: usize,
        churn_ticks: usize,
        tracer: &mut Tracer,
    ) -> Input {
        let day = Day::new(seed, scale);
        let feed = tracer.span("cloudbot.feed_build", 0, |_| {
            LiveFeed::build(&day.pipeline, &day.world, 0, DAY, spec::SATURATE_TICK_MS)
                .expect("static feed window is valid")
        });
        let coarse = coarsen(
            &feed,
            (spec::PACED_TICK_MS / spec::SATURATE_TICK_MS) as usize,
        );
        let mut checked = |batches: &[FeedBatch], ticks: usize, paced: bool| {
            let stream = encode_stream(batches, ticks, paced, tracer);
            let oracle = Oracle::of(&stream, &day.fleet);
            (stream, oracle)
        };
        let saturate = checked(
            &feed.batches,
            scale.saturate_days * feed.batches.len(),
            false,
        );
        let mix = checked(&coarse, mix_ticks, true);
        let churn = (churn_ticks > 0).then(|| checked(&coarse, churn_ticks, true));
        let batch_rows = day
            .pipeline
            .vm_cdi_rows(&day.world, 0, DAY)
            .expect("clean day derives strictly");
        Input {
            feed_spans: feed.total_spans() as u64,
            coarse,
            day,
            saturate,
            mix,
            churn,
            batch_rows,
        }
    }
}
