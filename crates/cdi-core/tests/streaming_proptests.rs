//! Property-based tests for the streaming accumulator invariants the
//! serving layer (`crates/cdi-serve`) leans on: watermark monotonicity,
//! exact late-span clipping at watermark boundaries, and snapshot/restore
//! transparency. Damage is an integer, so every comparison against the
//! one-shot batch kernel is `==`, for weights off any binary or decimal
//! grid and for any sequence of intermediate watermarks.

use cdi_core::event::{Category, EventSpan};
use cdi_core::indicator::{cdi, damage, ServicePeriod};
use cdi_core::streaming::CdiAccumulator;
use cdi_core::time::minutes;
use proptest::prelude::*;

const HORIZON_MIN: i64 = 600;

/// Strategy: a span with minute-aligned boundaries inside [0, 600) minutes
/// and a positive duration, weight `k/997` — on no dyadic and no decimal
/// grid, so every span exercises the quantization.
fn span_strategy() -> impl Strategy<Value = EventSpan> {
    (0i64..HORIZON_MIN, 1i64..120, 1u32..=997).prop_map(|(start, len, k)| {
        EventSpan::new(
            "prop_event",
            Category::Performance,
            minutes(start),
            minutes(start + len),
            f64::from(k) / 997.0,
        )
    })
}

fn spans_strategy() -> impl Strategy<Value = Vec<EventSpan>> {
    prop::collection::vec(span_strategy(), 0..30)
}

/// Strategy: an arbitrary (unsorted) list of watermark advance points.
fn marks_strategy() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..=HORIZON_MIN, 1..12)
}

proptest! {
    /// The watermark never moves backwards: any advance below the current
    /// watermark errors and leaves the state (watermark, integral, open
    /// spans, counters) untouched.
    #[test]
    fn watermark_is_monotone(spans in spans_strategy(), marks in marks_strategy()) {
        let mut acc = CdiAccumulator::new(0);
        for s in &spans {
            acc.ingest(s.clone()).unwrap();
        }
        for &m in &marks {
            let before = acc.snapshot();
            let result = acc.advance_watermark(minutes(m));
            if minutes(m) < before.watermark {
                prop_assert!(result.is_err(), "regressing advance to {m} must fail");
                prop_assert_eq!(acc.snapshot(), before, "failed advance must not mutate");
            } else {
                prop_assert!(result.is_ok());
                prop_assert_eq!(acc.watermark(), minutes(m));
            }
        }
    }

    /// Late-span policy at exact boundaries: `end <= watermark` drops,
    /// `start < watermark < end` keeps exactly the post-watermark
    /// remainder, and `start == watermark` is fully on time. However the
    /// watermark then walks to the horizon, the streamed damage equals the
    /// one-shot damage of the same spans pre-clipped to the watermark.
    #[test]
    fn late_spans_clip_exactly_at_the_watermark(
        spans in spans_strategy(),
        mark in 0i64..=HORIZON_MIN,
        mut steps in marks_strategy(),
    ) {
        let wm = minutes(mark);
        let horizon = minutes(HORIZON_MIN + 120);
        let mut acc = CdiAccumulator::new(0);
        acc.advance_watermark(wm).unwrap();
        let mut expect_dropped = 0usize;
        let mut expect_clipped = 0usize;
        let mut surviving: Vec<EventSpan> = Vec::new();
        for s in &spans {
            acc.ingest(s.clone()).unwrap();
            if s.end <= wm {
                expect_dropped += 1;
            } else {
                if s.start < wm {
                    expect_clipped += 1;
                }
                let mut kept = s.clone();
                kept.start = kept.start.max(wm);
                surviving.push(kept);
            }
        }
        prop_assert_eq!(acc.late_dropped(), expect_dropped);
        prop_assert_eq!(acc.late_clipped(), expect_clipped);
        prop_assert_eq!(acc.open_spans(), surviving.len());

        steps.sort_unstable();
        for step in steps.into_iter().map(minutes).filter(|&s| s >= wm) {
            acc.advance_watermark(step).unwrap();
        }
        acc.advance_watermark(horizon).unwrap();
        // Batch reference over the same elapsed window [0, horizon) with
        // the surviving clipped spans.
        let period = ServicePeriod::new(0, horizon).unwrap();
        prop_assert_eq!(acc.damage_integral(), damage(&surviving, period).unwrap());
        prop_assert_eq!(acc.cdi().unwrap(), cdi(&surviving, period).unwrap());
    }

    /// Snapshot/restore at an arbitrary mid-stream point is transparent:
    /// feeding the remaining spans to the restored accumulator yields the
    /// same state as the uninterrupted run.
    #[test]
    fn snapshot_restore_is_transparent(
        spans in spans_strategy(),
        cut in 0usize..30,
        mark in 0i64..HORIZON_MIN,
    ) {
        let cut = cut.min(spans.len());
        let horizon = minutes(HORIZON_MIN + 120);

        let mut whole = CdiAccumulator::new(0);
        let mut first = CdiAccumulator::new(0);
        for s in &spans[..cut] {
            whole.ingest(s.clone()).unwrap();
            first.ingest(s.clone()).unwrap();
        }
        whole.advance_watermark(minutes(mark)).unwrap();
        first.advance_watermark(minutes(mark)).unwrap();

        // Kill and revive.
        let mut revived = CdiAccumulator::restore(first.snapshot()).unwrap();
        for s in &spans[cut..] {
            whole.ingest(s.clone()).unwrap();
            revived.ingest(s.clone()).unwrap();
        }
        whole.advance_watermark(horizon).unwrap();
        revived.advance_watermark(horizon).unwrap();
        prop_assert_eq!(whole.snapshot(), revived.snapshot());
    }

    /// Merging a stream split across two accumulators (each span routed to
    /// exactly one) reproduces the damage integral of the unsplit stream.
    #[test]
    fn merge_reassembles_a_partitioned_stream(
        spans in spans_strategy(),
        mark in 0i64..=HORIZON_MIN,
    ) {
        // Time-disjoint split: sort by start, group spans into connected
        // overlap components, and alternate whole components between the
        // two sides. No span on one side then overlaps any span on the
        // other, which is the merge contract's exactness condition.
        let mut sorted = spans.clone();
        sorted.sort_by_key(|s| (s.start, s.end));
        let mut whole = CdiAccumulator::new(0);
        let mut halves = [CdiAccumulator::new(0), CdiAccumulator::new(0)];
        let mut side = 0usize;
        let mut component_end = i64::MIN;
        for s in &sorted {
            if s.start >= component_end && component_end != i64::MIN {
                side = 1 - side;
            }
            component_end = component_end.max(s.end);
            whole.ingest(s.clone()).unwrap();
            halves[side].ingest(s.clone()).unwrap();
        }
        let wm = minutes(mark);
        whole.advance_watermark(wm).unwrap();
        for h in &mut halves {
            h.advance_watermark(wm).unwrap();
        }
        let [mut left, right] = halves;
        left.merge(&right).unwrap();
        prop_assert_eq!(whole.damage_integral(), left.damage_integral());
    }
}
