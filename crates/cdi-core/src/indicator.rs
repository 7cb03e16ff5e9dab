//! CDI calculation (Section IV-D of the paper).
//!
//! Algorithm 1 computes, for one VM over a service period, the time integral
//! of the **max-weight envelope** of its event spans, normalized by the
//! service time. The paper presents it as a per-time-unit array update; this
//! implementation uses an equivalent `O(n log n)` sweep line (exact for the
//! piecewise-constant envelope); the literal array version lives in
//! `tests/proptests.rs` as its independent oracle. The integral is carried
//! as an integer ([`damage`], µ-weight·ms) and divided once, by
//! `num::damage_ratio`.
//!
//! Formula 4 aggregates VM-level CDIs into fleet-level values weighted by
//! service time; [`aggregate`] implements it, and the BI layer in
//! `minispark` reuses it for dimension drill-downs.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{CdiError, Result};
use crate::event::{Category, EventSpan};
use crate::num::{damage_ratio, ms_f64, quantize_weight};
use crate::time::{TimeRange, Timestamp};

/// A validated service period `[start, end)` with positive duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServicePeriod(TimeRange);

impl ServicePeriod {
    /// Create a service period; `end` must be strictly after `start`.
    pub fn new(start: Timestamp, end: Timestamp) -> Result<Self> {
        if end <= start {
            return Err(CdiError::invalid(format!(
                "service period must have positive duration, got [{start}, {end})"
            )));
        }
        Ok(ServicePeriod(TimeRange::new(start, end)))
    }

    /// The underlying time range.
    pub fn range(&self) -> TimeRange {
        self.0
    }

    /// Service time in ms (`T_e − T_s`).
    pub fn service_time(&self) -> i64 {
        self.0.duration()
    }
}

/// Compute the CDI of one VM over a service period (Algorithm 1).
///
/// Spans are clipped to the period; overlapping spans contribute the
/// maximum of their weights (not the sum). The result is
/// `∫ max-weight dt / (T_e − T_s)` and lies in `[0, 1]` for weights in
/// `[0, 1]`.
pub fn cdi(spans: &[EventSpan], period: ServicePeriod) -> Result<f64> {
    Ok(damage_ratio(damage(spans, period)?, period.service_time()))
}

/// A span clipped to `range` with its weight in µ-weights; `None` when it
/// contributes nothing (outside the range, empty, or weight below half a
/// quantum). An invalid weight is an error even then.
fn clipped(s: &EventSpan, range: &TimeRange) -> Result<Option<(TimeRange, u64)>> {
    let micro = quantize_weight(s.weight)?;
    let span = TimeRange::new(s.start, s.end.max(s.start));
    Ok(range.intersect(&span).filter(|_| micro > 0).map(|r| (r, micro)))
}

/// `acc + micro · ms`, or the typed overflow error.
fn add_damage(acc: u64, micro: u64, ms: i64) -> Result<u64> {
    u64::try_from(ms)
        .ok()
        .and_then(|ms| micro.checked_mul(ms))
        .and_then(|d| acc.checked_add(d))
        .ok_or_else(|| CdiError::Overflow(format!("{acc} + {micro} µ-weight × {ms} ms")))
}

/// The damage integral `∫ max-weight dt` in µ-weight·ms — the numerator of
/// Algorithm 1, as an integer (DESIGN.md §5, decision 7). Window sums of
/// it are exact and order-independent, which is what lets the streaming
/// and sharded paths equal the batch path bit for bit.
pub fn damage(spans: &[EventSpan], period: ServicePeriod) -> Result<u64> {
    let range = period.range();

    // Boundary events of the sweep: +weight at clipped start, −weight at
    // clipped end; the active multiset is a BTreeMap keyed by µ-weight.
    let mut boundaries: Vec<(Timestamp, bool, u64)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        if let Some((r, micro)) = clipped(s, &range)? {
            boundaries.push((r.start, true, micro));
            boundaries.push((r.end, false, micro));
        }
    }
    // Process removals before additions at equal timestamps so touching
    // spans don't create zero-length artifacts (either order yields the same
    // integral; this keeps the active set minimal).
    boundaries.sort_by_key(|&(t, is_add, _)| (t, is_add));

    let mut active: BTreeMap<u64, usize> = BTreeMap::new();
    let mut integral = 0u64;
    let mut prev_t = range.start;
    for (t, is_add, micro) in boundaries {
        if t > prev_t {
            if let Some((&max, _)) = active.last_key_value() {
                integral = add_damage(integral, max, t - prev_t)?;
            }
            prev_t = t;
        }
        if is_add {
            *active.entry(micro).or_insert(0) += 1;
        } else {
            match active.get_mut(&micro) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    active.remove(&micro);
                }
                // Every removal boundary was emitted alongside an addition
                // above, so this branch is unreachable by construction.
                None => debug_assert!(false, "removal without a prior addition"),
            }
        }
    }
    Ok(integral)
}

/// The three sub-metrics plus service time for one VM — one row of the
/// paper's first output table (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmCdi {
    /// VM identifier.
    pub vm: u64,
    /// Service time in ms (`T_i` of Formula 4).
    pub service_time: i64,
    /// Unavailability Indicator.
    pub unavailability: f64,
    /// Performance Indicator.
    pub performance: f64,
    /// Control-Plane Indicator.
    pub control_plane: f64,
}

impl VmCdi {
    /// The indicator value for one category.
    pub fn get(&self, category: Category) -> f64 {
        match category {
            Category::Unavailability => self.unavailability,
            Category::Performance => self.performance,
            Category::ControlPlane => self.control_plane,
        }
    }
}

/// Compute all three sub-metrics for one VM.
///
/// Each sub-metric runs Algorithm 1 over only the spans of its category
/// (DESIGN.md §5, decision 3: sub-metrics never mask each other).
pub fn compute_vm_cdi(vm: u64, spans: &[EventSpan], period: ServicePeriod) -> Result<VmCdi> {
    let mut by_cat = [0.0f64; 3];
    for (i, cat) in Category::ALL.iter().enumerate() {
        let filtered: Vec<EventSpan> =
            spans.iter().filter(|s| s.category == *cat).cloned().collect();
        by_cat[i] = cdi(&filtered, period)?;
    }
    Ok(VmCdi {
        vm,
        service_time: period.service_time(),
        unavailability: by_cat[0],
        performance: by_cat[1],
        control_plane: by_cat[2],
    })
}

/// Event-level drill-down CDI (Section VI-C): Algorithm 1 with the input
/// narrowed to a single event name.
pub fn event_level_cdi(spans: &[EventSpan], period: ServicePeriod, name: &str) -> Result<f64> {
    let filtered: Vec<EventSpan> = spans.iter().filter(|s| s.name == name).cloned().collect();
    cdi(&filtered, period)
}

/// Fleet-level CDI per sub-metric — the aggregate of Formula 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdiBreakdown {
    /// Total service time across the collection (ms).
    pub total_service_time: i64,
    /// Aggregated Unavailability Indicator.
    pub unavailability: f64,
    /// Aggregated Performance Indicator.
    pub performance: f64,
    /// Aggregated Control-Plane Indicator.
    pub control_plane: f64,
}

impl CdiBreakdown {
    /// The aggregated indicator for one category.
    pub fn get(&self, category: Category) -> f64 {
        match category {
            Category::Unavailability => self.unavailability,
            Category::Performance => self.performance,
            Category::ControlPlane => self.control_plane,
        }
    }
}

/// Aggregate per-VM CDIs into a fleet value (Formula 4):
/// `Q = Σ T_i·Q_i / Σ T_i`, independently per sub-metric.
pub fn aggregate(vms: &[VmCdi]) -> Result<CdiBreakdown> {
    if vms.is_empty() {
        return Err(CdiError::degenerate("cannot aggregate an empty VM collection"));
    }
    let total: i64 = vms.iter().map(|v| v.service_time).sum();
    if total <= 0 {
        return Err(CdiError::degenerate("total service time must be positive"));
    }
    let weighted = |f: fn(&VmCdi) -> f64| -> f64 {
        vms.iter().map(|v| ms_f64(v.service_time) * f(v)).sum::<f64>() / ms_f64(total)
    };
    Ok(CdiBreakdown {
        total_service_time: total,
        unavailability: weighted(|v| v.unavailability),
        performance: weighted(|v| v.performance),
        control_plane: weighted(|v| v.control_plane),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::minutes;

    fn perf(name: &str, s: i64, e: i64, w: f64) -> EventSpan {
        EventSpan::new(name, Category::Performance, minutes(s), minutes(e), w)
    }

    /// The full Table IV worked example (Example 4 of the paper).
    #[test]
    fn table_iv_vm1() {
        let spans = vec![
            perf("packet_loss", 8, 10, 0.3),
            perf("packet_loss", 10, 12, 0.3),
        ];
        let period = ServicePeriod::new(0, minutes(60)).unwrap();
        assert_eq!(cdi(&spans, period).unwrap(), 0.020);
    }

    #[test]
    fn table_iv_vm2() {
        let spans = vec![perf("vcpu_high", 805, 810, 0.6)];
        let period = ServicePeriod::new(0, minutes(1440)).unwrap();
        // 5·0.6/1440 = 0.002083…, which the paper reports rounded as 0.002.
        assert_eq!(cdi(&spans, period).unwrap(), 3.0 / 1440.0);
    }

    #[test]
    fn table_iv_vm3_overlap_takes_max() {
        let spans = vec![
            perf("slow_io", 488, 490, 0.5),
            perf("slow_io", 490, 492, 0.5),
            perf("vcpu_high", 490, 495, 0.6),
        ];
        let period = ServicePeriod::new(0, minutes(1000)).unwrap();
        // 2·0.5 + 2·max(0.5,0.6) + 3·0.6 = 4.0 weight-minutes over 1000.
        assert_eq!(cdi(&spans, period).unwrap(), 0.004);
    }

    #[test]
    fn table_iv_aggregate_matches_formula_4() {
        let vms = vec![
            VmCdi {
                vm: 1,
                service_time: minutes(60),
                unavailability: 0.0,
                performance: 0.020,
                control_plane: 0.0,
            },
            VmCdi {
                vm: 2,
                service_time: minutes(1440),
                unavailability: 0.0,
                performance: 3.0 / 1440.0,
                control_plane: 0.0,
            },
            VmCdi {
                vm: 3,
                service_time: minutes(1000),
                unavailability: 0.0,
                performance: 0.004,
                control_plane: 0.0,
            },
        ];
        let agg = aggregate(&vms).unwrap();
        // Exact: (1.2 + 3.0 + 4.0) weight-minutes over 2500 minutes.
        assert_eq!(agg.performance, 0.00328);
        assert_eq!(agg.total_service_time, minutes(2500));
        assert_eq!(agg.unavailability, 0.0);
    }

    #[test]
    fn empty_spans_give_zero() {
        let period = ServicePeriod::new(0, minutes(100)).unwrap();
        assert_eq!(cdi(&[], period).unwrap(), 0.0);
    }

    #[test]
    fn full_outage_gives_one() {
        let spans = vec![EventSpan::new(
            "vm_crash",
            Category::Unavailability,
            0,
            minutes(100),
            1.0,
        )];
        let period = ServicePeriod::new(0, minutes(100)).unwrap();
        assert_eq!(cdi(&spans, period).unwrap(), 1.0);
    }

    #[test]
    fn spans_clipped_to_period() {
        // Span half outside the period counts only the inside half.
        let spans = vec![perf("slow_io", -10, 10, 0.5)];
        let period = ServicePeriod::new(0, minutes(100)).unwrap();
        assert_eq!(cdi(&spans, period).unwrap(), 0.05);
        // Fully outside: zero.
        let outside = vec![perf("slow_io", 200, 210, 0.5)];
        assert_eq!(cdi(&outside, period).unwrap(), 0.0);
    }

    #[test]
    fn nested_and_identical_overlaps() {
        // A low-weight long span containing a high-weight short span.
        let spans = vec![
            perf("packet_loss", 0, 10, 0.3),
            perf("gpu_drop", 4, 6, 0.9),
        ];
        let period = ServicePeriod::new(0, minutes(10)).unwrap();
        // 8 min at 0.3 + 2 min at 0.9.
        assert_eq!(cdi(&spans, period).unwrap(), 0.42);
        // Two identical spans must not double-count.
        let dup = vec![perf("slow_io", 0, 5, 0.5), perf("slow_io", 0, 5, 0.5)];
        assert_eq!(cdi(&dup, period).unwrap(), 0.25);
    }

    #[test]
    fn touching_spans_do_not_interact() {
        let spans = vec![perf("a", 0, 5, 0.5), perf("b", 5, 10, 0.9)];
        let period = ServicePeriod::new(0, minutes(10)).unwrap();
        assert_eq!(cdi(&spans, period).unwrap(), 0.7);
    }

    #[test]
    fn zero_weight_and_zero_length_spans_ignored() {
        let spans = vec![perf("a", 0, 5, 0.0), perf("b", 3, 3, 0.9)];
        let period = ServicePeriod::new(0, minutes(10)).unwrap();
        assert_eq!(cdi(&spans, period).unwrap(), 0.0);
    }

    #[test]
    fn sub_metrics_do_not_mask_each_other() {
        let spans = vec![
            EventSpan::new("vm_crash", Category::Unavailability, 0, minutes(10), 1.0),
            EventSpan::new("slow_io", Category::Performance, 0, minutes(10), 0.5),
        ];
        let period = ServicePeriod::new(0, minutes(100)).unwrap();
        let v = compute_vm_cdi(7, &spans, period).unwrap();
        assert_eq!(v.unavailability, 0.1);
        assert_eq!(v.performance, 0.05);
        assert_eq!(v.control_plane, 0.0);
        assert_eq!(v.vm, 7);
        assert_eq!(v.get(Category::Performance), v.performance);
    }

    #[test]
    fn event_level_drilldown_filters_by_name() {
        let spans = vec![
            perf("slow_io", 0, 10, 0.5),
            perf("packet_loss", 0, 20, 0.3),
        ];
        let period = ServicePeriod::new(0, minutes(100)).unwrap();
        assert_eq!(event_level_cdi(&spans, period, "slow_io").unwrap(), 0.05);
        assert_eq!(event_level_cdi(&spans, period, "packet_loss").unwrap(), 0.06);
        assert_eq!(event_level_cdi(&spans, period, "absent").unwrap(), 0.0);
    }

    #[test]
    fn validation_rejects_bad_weights_and_periods() {
        assert!(ServicePeriod::new(10, 10).is_err());
        assert!(ServicePeriod::new(10, 5).is_err());
        let period = ServicePeriod::new(0, minutes(10)).unwrap();
        let bad = vec![EventSpan {
            name: "x".into(),
            category: Category::Performance,
            start: 0,
            end: 10,
            weight: 1.5,
        }];
        assert!(cdi(&bad, period).is_err());
        let nan = vec![EventSpan {
            name: "x".into(),
            category: Category::Performance,
            start: 0,
            end: 10,
            weight: f64::NAN,
        }];
        assert!(cdi(&nan, period).is_err());
    }

    #[test]
    fn damage_is_integer_and_overflow_is_an_error() {
        let period = ServicePeriod::new(0, minutes(10)).unwrap();
        // 5 min at 0.3 then 5 min at 0.9, in µ-weight·ms.
        let spans = vec![perf("a", 0, 10, 0.3), perf("b", 5, 10, 0.9)];
        assert_eq!(damage(&spans, period).unwrap(), (300_000 + 900_000) * 300_000);
        // Below half a quantum integrates as nothing.
        assert_eq!(damage(&[perf("tiny", 0, 10, 0.000_000_4)], period).unwrap(), 0);
        // 10⁶ µ-weight × 2⁶³ ms does not fit: typed error, no wrap.
        let forever = ServicePeriod::new(0, i64::MAX).unwrap();
        let outage = EventSpan::new("x", Category::Unavailability, 0, i64::MAX, 1.0);
        let err = damage(&[outage], forever).unwrap_err();
        assert!(matches!(err, CdiError::Overflow(_)), "{err}");
    }

    #[test]
    fn aggregate_rejects_degenerate_collections() {
        assert!(aggregate(&[]).is_err());
        let zero = VmCdi {
            vm: 1,
            service_time: 0,
            unavailability: 0.0,
            performance: 0.0,
            control_plane: 0.0,
        };
        assert!(aggregate(&[zero]).is_err());
    }

    #[test]
    fn aggregate_weighted_by_service_time() {
        let a = VmCdi {
            vm: 1,
            service_time: 100,
            unavailability: 1.0,
            performance: 0.0,
            control_plane: 0.0,
        };
        let b = VmCdi {
            vm: 2,
            service_time: 300,
            unavailability: 0.0,
            performance: 0.0,
            control_plane: 0.0,
        };
        let agg = aggregate(&[a, b]).unwrap();
        assert_eq!(agg.unavailability, 0.25);
        assert_eq!(agg.get(Category::Unavailability), agg.unavailability);
    }
}
