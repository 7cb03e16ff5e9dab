//! Property-based tests for the CDI core invariants.

use cdi_core::error::{CdiError, Result};
use cdi_core::event::{Category, EventSpan};
use cdi_core::indicator::{aggregate, cdi, ServicePeriod, VmCdi};
use cdi_core::num::{damage_ratio, index_of, quantize_weight};
use cdi_core::streaming::CdiAccumulator;
use cdi_core::time::{minutes, TimeRange};
use proptest::prelude::*;

/// Literal Algorithm 1: a per-timestep array of max weights — the sweep
/// line's independent oracle.
///
/// `step_ms` is the array resolution (Δt); the result is exact whenever all
/// span and period boundaries are multiples of `step_ms` and otherwise a
/// discretization of the integral. It is `O(T/Δt + n·d/Δt)` in time and
/// `O(T/Δt)` in memory, and sums the same µ-weights, so on aligned data it
/// equals [`cdi`] exactly.
fn cdi_naive(spans: &[EventSpan], period: ServicePeriod, step_ms: i64) -> Result<f64> {
    if step_ms <= 0 {
        return Err(CdiError::invalid("step_ms must be positive"));
    }
    let range = period.range();
    let steps = index_of((range.duration() + step_ms - 1) / step_ms);
    let mut w = vec![0u64; steps];
    for s in spans {
        let micro = quantize_weight(s.weight)?;
        let span = TimeRange::new(s.start, s.end.max(s.start));
        let Some(r) = range.intersect(&span).filter(|_| micro > 0) else { continue };
        let first = index_of((r.start - range.start) / step_ms);
        let last = index_of((r.end - range.start + step_ms - 1) / step_ms);
        for slot in &mut w[first..last.min(steps)] {
            *slot = (*slot).max(micro);
        }
    }
    let step = step_ms.unsigned_abs();
    let total = w
        .iter()
        .try_fold(0u64, |acc, &micro| micro.checked_mul(step).and_then(|d| acc.checked_add(d)))
        .ok_or_else(|| CdiError::Overflow("naive damage integral".into()))?;
    Ok(damage_ratio(total, range.duration()))
}

fn perf(name: &str, s: i64, e: i64, w: f64) -> EventSpan {
    EventSpan::new(name, Category::Performance, minutes(s), minutes(e), w)
}

#[test]
fn naive_matches_sweep_on_minute_aligned_data() {
    let spans = vec![
        perf("slow_io", 488, 490, 0.5),
        perf("slow_io", 490, 492, 0.5),
        perf("vcpu_high", 490, 495, 0.6),
        perf("packet_loss", 0, 3, 0.3),
        perf("gpu_drop", 493, 600, 0.9),
    ];
    let period = ServicePeriod::new(0, minutes(1000)).unwrap();
    let fast = cdi(&spans, period).unwrap();
    let slow = cdi_naive(&spans, period, minutes(1)).unwrap();
    assert_eq!(fast, slow);
}

#[test]
fn naive_rejects_bad_step() {
    let period = ServicePeriod::new(0, minutes(10)).unwrap();
    assert!(cdi_naive(&[], period, 0).is_err());
    assert!(cdi_naive(&[], period, -5).is_err());
}

/// Strategy: a span with minute-aligned boundaries inside [0, 600) minutes
/// and a weight drawn from a small grid (so naive/sweep equality is exact).
fn span_strategy() -> impl Strategy<Value = EventSpan> {
    (0i64..600, 0i64..120, 0usize..=10, 0usize..3).prop_map(|(start, len, w10, cat)| {
        let category = match cat {
            0 => Category::Unavailability,
            1 => Category::Performance,
            _ => Category::ControlPlane,
        };
        EventSpan::new(
            "prop_event",
            category,
            minutes(start),
            minutes(start + len),
            w10 as f64 / 10.0,
        )
    })
}

fn spans_strategy() -> impl Strategy<Value = Vec<EventSpan>> {
    prop::collection::vec(span_strategy(), 0..40)
}

proptest! {
    /// CDI is always a ratio in [0, 1].
    #[test]
    fn cdi_bounded(spans in spans_strategy()) {
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let q = cdi(&spans, period).unwrap();
        prop_assert!((0.0..=1.0).contains(&q), "q = {q}");
    }

    /// The sweep line and the literal Algorithm 1 array agree exactly on
    /// minute-aligned data.
    #[test]
    fn sweep_equals_naive(spans in spans_strategy()) {
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let fast = cdi(&spans, period).unwrap();
        let slow = cdi_naive(&spans, period, minutes(1)).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// Adding one more span never decreases the CDI (the max envelope is
    /// monotone in the span set).
    #[test]
    fn adding_spans_is_monotone(spans in spans_strategy(), extra in span_strategy()) {
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let before = cdi(&spans, period).unwrap();
        let mut more = spans.clone();
        more.push(extra);
        let after = cdi(&more, period).unwrap();
        prop_assert!(after >= before, "before {before} after {after}");
    }

    /// The joint CDI never exceeds the sum of single-span CDIs
    /// (max ≤ sum ⇒ subadditivity of the envelope integral).
    #[test]
    fn cdi_subadditive(spans in spans_strategy()) {
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let joint = cdi(&spans, period).unwrap();
        let sum: f64 = spans
            .iter()
            .map(|s| cdi(std::slice::from_ref(s), period).unwrap())
            .sum();
        prop_assert!(joint <= sum + 1e-9, "joint {joint} > sum {sum}");
    }

    /// Scaling all weights by c scales the CDI by exactly c.
    #[test]
    fn cdi_scales_linearly_with_weights(spans in spans_strategy(), c10 in 0usize..=10) {
        let c = c10 as f64 / 10.0;
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let base = cdi(&spans, period).unwrap();
        let scaled: Vec<EventSpan> = spans
            .iter()
            .map(|s| EventSpan::new(s.name.clone(), s.category, s.start, s.end, s.weight * c))
            .collect();
        let q = cdi(&scaled, period).unwrap();
        prop_assert!((q - c * base).abs() < 1e-9, "q {q} vs c*base {}", c * base);
    }

    /// Formula-4 aggregation lies between the min and max per-VM values and
    /// is exact for a single VM.
    #[test]
    fn aggregate_between_min_and_max(values in prop::collection::vec((1i64..1_000_000, 0.0f64..=1.0), 1..20)) {
        let vms: Vec<VmCdi> = values
            .iter()
            .enumerate()
            .map(|(i, &(t, q))| VmCdi {
                vm: i as u64,
                service_time: t,
                unavailability: q,
                performance: 0.0,
                control_plane: 0.0,
            })
            .collect();
        let agg = aggregate(&vms).unwrap();
        let lo = values.iter().map(|&(_, q)| q).fold(f64::INFINITY, f64::min);
        let hi = values.iter().map(|&(_, q)| q).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(agg.unavailability >= lo - 1e-12 && agg.unavailability <= hi + 1e-12);
        if vms.len() == 1 {
            prop_assert!((agg.unavailability - values[0].1).abs() < 1e-12);
        }
    }

    /// The streaming accumulator equals the batch Algorithm 1 for any
    /// in-order stream and any watermark schedule that never outruns
    /// unseen spans.
    #[test]
    fn streaming_equals_batch(mut spans in spans_strategy(), steps in 1usize..8) {
        // Sort by start so the stream is in order.
        spans.sort_by_key(|s| s.start);
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let batch = cdi(&spans, period).unwrap();

        let mut acc = CdiAccumulator::new(0);
        // Ingest everything, then advance in `steps` strides (safe: all
        // spans are already ingested, so no watermark outruns data).
        for s in &spans {
            acc.ingest(s.clone()).unwrap();
        }
        let stride = (minutes(600) / steps as i64).max(1);
        let mut t = 0;
        while t < minutes(600) {
            t = (t + stride).min(minutes(600));
            acc.advance_watermark(t).unwrap();
        }
        prop_assert_eq!(acc.cdi().unwrap(), batch);
        prop_assert_eq!(acc.late_dropped(), 0);
    }

    /// A span fully covering the period with weight 1 forces CDI = 1
    /// regardless of what else is present.
    #[test]
    fn full_coverage_dominates(spans in spans_strategy()) {
        let period = ServicePeriod::new(0, minutes(600)).unwrap();
        let mut all = spans;
        all.push(EventSpan::new(
            "total_outage",
            Category::Unavailability,
            0,
            minutes(600),
            1.0,
        ));
        let q = cdi(&all, period).unwrap();
        prop_assert!((q - 1.0).abs() < 1e-12, "q = {q}");
    }
}
