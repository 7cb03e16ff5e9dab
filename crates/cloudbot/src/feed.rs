//! Live event feed: a simulated window replayed as watermarked span batches.
//!
//! The serving layer (`crates/cdi-serve`) consumes spans incrementally with
//! a watermark, not as one end-of-day batch. [`LiveFeed`] bridges the two
//! worlds: it runs the exact extraction and lenient derivation path of the
//! batch [`DailyPipeline`](crate::pipeline::DailyPipeline), then slices the
//! resulting spans into tick-sized batches ordered by span start, each
//! followed by a watermark advance to the tick boundary.
//!
//! Two properties matter for the batch/live parity guarantee:
//!
//! - Every span lands in the batch whose tick window contains its start, so
//!   no span is ever behind the watermark when it arrives — the feed incurs
//!   zero late drops or clips, and streaming accumulation reproduces the
//!   batch CDI exactly.
//! - The batch order is fully deterministic (sorted by start, target, end,
//!   name, weight bits), independent of hash-map iteration order, so runs
//!   are replayable and snapshots taken at a tick boundary are stable.

use cdi_core::error::{CdiError, Result};
use cdi_core::event::{EventSpan, Target};
use cdi_core::quarantine::QuarantinedEvent;
use cdi_core::time::Timestamp;
use simfleet::world::SimWorld;

use crate::pipeline::DailyPipeline;

/// One tick of the live feed: spans whose start falls inside the tick
/// window, then a watermark advance to the window's end.
#[derive(Debug, Clone)]
pub struct FeedBatch {
    /// Watermark reached after delivering this batch (the tick boundary).
    pub watermark: Timestamp,
    /// Spans starting inside the tick window, in deterministic order.
    pub spans: Vec<(Target, EventSpan)>,
}

/// A full simulated window, pre-sliced into watermarked batches.
#[derive(Debug, Clone)]
pub struct LiveFeed {
    /// Start of the service period.
    pub period_start: Timestamp,
    /// End of the service period (also the final watermark).
    pub period_end: Timestamp,
    /// Tick-sized batches in delivery order; the last batch's watermark is
    /// always `period_end`.
    pub batches: Vec<FeedBatch>,
    /// Events the lenient derivation diverted instead of failing the run —
    /// the same dead-letter accounting the batch pipeline reports.
    pub quarantined: Vec<QuarantinedEvent>,
}

impl LiveFeed {
    /// Extract `[start, end)` from the world with `pipeline` and slice the
    /// derived spans into `tick_ms`-sized batches.
    ///
    /// Uses the lenient derivation path, so malformed (chaos) events are
    /// quarantined with a typed reason instead of failing the feed.
    pub fn build(
        pipeline: &DailyPipeline,
        world: &SimWorld,
        start: i64,
        end: i64,
        tick_ms: i64,
    ) -> Result<LiveFeed> {
        if tick_ms <= 0 {
            return Err(CdiError::invalid(format!("tick must be positive, got {tick_ms}")));
        }
        if end <= start {
            return Err(CdiError::invalid(format!("empty feed window [{start}, {end})")));
        }
        let events = pipeline.events(world, start, end);
        let (by_target, quarantined) = pipeline.spans_by_target_lenient(&events, end);

        let mut flat: Vec<(Target, EventSpan)> = Vec::new();
        for (target, spans) in by_target {
            flat.extend(spans.into_iter().map(|s| (target, s)));
        }
        // Total, hash-order-independent ordering.
        flat.sort_by(|(ta, sa), (tb, sb)| {
            (sa.start, *ta, sa.end, &sa.name, sa.weight.to_bits()).cmp(&(
                sb.start,
                *tb,
                sb.end,
                &sb.name,
                sb.weight.to_bits(),
            ))
        });

        let mut batches = Vec::new();
        let mut idx = 0;
        let mut t = start;
        while t < end {
            let hi = (t + tick_ms).min(end);
            let mut spans = Vec::new();
            while idx < flat.len() && flat[idx].1.start < hi {
                spans.push(flat[idx].clone());
                idx += 1;
            }
            batches.push(FeedBatch { watermark: hi, spans });
            t = hi;
        }
        // Defensive: anything starting at/after `end` (an unmatched stateful
        // start closed exactly at the service end derives a zero-length span
        // there) rides in the final batch rather than being silently lost.
        if idx < flat.len() {
            if let Some(last) = batches.last_mut() {
                last.spans.extend(flat[idx..].iter().cloned());
            }
        }
        Ok(LiveFeed { period_start: start, period_end: end, batches, quarantined })
    }

    /// Total spans across all batches.
    pub fn total_spans(&self) -> usize {
        self.batches.iter().map(|b| b.spans.len()).sum()
    }

    /// Split the feed into `n` producer-local feeds for multi-producer
    /// delivery (the chaos-drill load generator): every partition keeps
    /// the full batch/watermark skeleton, and each target's spans land in
    /// exactly one partition, chosen by a stable hash of the target.
    ///
    /// A target's spans keep their in-feed order through a single
    /// producer, so its open-span list (and snapshot bytes) does not depend
    /// on how the producers interleave. Its CDI would not either way:
    /// damage is an integer sum. Quarantine accounting is not split; it
    /// rides with partition 0.
    pub fn partition(&self, n: usize) -> Vec<LiveFeed> {
        let n = n.max(1);
        let mut parts: Vec<LiveFeed> = (0..n)
            .map(|i| LiveFeed {
                period_start: self.period_start,
                period_end: self.period_end,
                batches: self
                    .batches
                    .iter()
                    .map(|b| FeedBatch { watermark: b.watermark, spans: Vec::new() })
                    .collect(),
                quarantined: if i == 0 { self.quarantined.clone() } else { Vec::new() },
            })
            .collect();
        for (bi, batch) in self.batches.iter().enumerate() {
            for (target, span) in &batch.spans {
                let slot = (target_hash(*target) % n as u64) as usize;
                parts[slot].batches[bi].spans.push((*target, span.clone()));
            }
        }
        parts
    }
}

/// Stable 64-bit hash of a target (FNV-1a over the variant tag and id) —
/// deterministic across runs and platforms, independent of the serving
/// layer's shard routing.
fn target_hash(target: Target) -> u64 {
    let (tag, id) = match target {
        Target::Vm(id) => (0u8, id),
        Target::Nc(id) => (1u8, id),
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in std::iter::once(tag).chain(id.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut w = SimWorld::new(fleet, 31);
        w.inject(FaultInjection::new(
            FaultKind::VmDown,
            FaultTarget::Vm(0),
            HOUR,
            HOUR + 30 * MIN,
        ));
        w
    }

    #[test]
    fn feed_covers_the_window_with_monotone_watermarks() {
        let w = world();
        let p = DailyPipeline::default();
        let feed = LiveFeed::build(&p, &w, 0, 6 * HOUR, 15 * MIN).unwrap();
        assert_eq!(feed.batches.len(), 24);
        assert_eq!(feed.batches.last().unwrap().watermark, 6 * HOUR);
        let mut prev = 0;
        for b in &feed.batches {
            assert!(b.watermark > prev, "watermarks strictly increase");
            for (_, s) in &b.spans {
                assert!(s.start >= prev, "span {s:?} behind previous watermark {prev}");
                assert!(s.start < b.watermark);
            }
            prev = b.watermark;
        }
        assert!(feed.total_spans() > 0);
        assert!(feed.quarantined.is_empty());
    }

    #[test]
    fn feed_matches_batch_span_set() {
        let w = world();
        let p = DailyPipeline::default();
        let feed = LiveFeed::build(&p, &w, 0, 6 * HOUR, HOUR).unwrap();
        let events = p.events(&w, 0, 6 * HOUR);
        let (by_target, _) = p.spans_by_target_lenient(&events, 6 * HOUR);
        let batch_total: usize = by_target.values().map(Vec::len).sum();
        assert_eq!(feed.total_spans(), batch_total);
    }

    #[test]
    fn feed_is_deterministic_across_builds() {
        let w = world();
        let p = DailyPipeline::default();
        let a = LiveFeed::build(&p, &w, 0, 6 * HOUR, 10 * MIN).unwrap();
        let b = LiveFeed::build(&p, &w, 0, 6 * HOUR, 10 * MIN).unwrap();
        assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(b.batches.iter()) {
            assert_eq!(x.watermark, y.watermark);
            assert_eq!(x.spans.len(), y.spans.len());
            for ((ta, sa), (tb, sb)) in x.spans.iter().zip(y.spans.iter()) {
                assert_eq!(ta, tb);
                assert_eq!(sa, sb);
            }
        }
    }

    #[test]
    fn chaos_events_are_quarantined_not_fatal() {
        let mut w = world();
        let chaos = simfleet::ChaosConfig::light(5);
        w.set_chaos(Some(chaos));
        let p = DailyPipeline::default();
        let feed = LiveFeed::build(&p, &w, 0, 6 * HOUR, HOUR).unwrap();
        assert_eq!(feed.quarantined.len(), chaos.total());
    }

    #[test]
    fn partition_is_exhaustive_target_exclusive_and_order_preserving() {
        let w = world();
        let p = DailyPipeline::default();
        let feed = LiveFeed::build(&p, &w, 0, 6 * HOUR, 15 * MIN).unwrap();
        let parts = feed.partition(3);
        assert_eq!(parts.len(), 3);

        // Same batch/watermark skeleton everywhere; spans conserved.
        let mut total = 0;
        for part in &parts {
            assert_eq!(part.batches.len(), feed.batches.len());
            for (a, b) in part.batches.iter().zip(feed.batches.iter()) {
                assert_eq!(a.watermark, b.watermark);
            }
            total += part.total_spans();
        }
        assert_eq!(total, feed.total_spans());

        // A target's spans live in exactly one partition, in feed order.
        let mut owner: std::collections::HashMap<Target, usize> = std::collections::HashMap::new();
        for (i, part) in parts.iter().enumerate() {
            for b in &part.batches {
                for (t, _) in &b.spans {
                    assert_eq!(*owner.entry(*t).or_insert(i), i, "{t} split across producers");
                }
            }
        }
        for (i, part) in parts.iter().enumerate() {
            let mine: Vec<_> = part.batches.iter().flat_map(|b| b.spans.iter()).collect();
            let expect: Vec<_> = feed
                .batches
                .iter()
                .flat_map(|b| b.spans.iter())
                .filter(|(t, _)| owner.get(t) == Some(&i))
                .collect();
            assert_eq!(mine, expect, "partition {i} must preserve feed order");
        }
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let w = world();
        let p = DailyPipeline::default();
        assert!(LiveFeed::build(&p, &w, 0, 6 * HOUR, 0).is_err());
        assert!(LiveFeed::build(&p, &w, 0, 6 * HOUR, -5).is_err());
        assert!(LiveFeed::build(&p, &w, HOUR, HOUR, MIN).is_err());
    }
}
