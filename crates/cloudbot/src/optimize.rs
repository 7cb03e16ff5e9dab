//! Operation-platform optimization (Section VIII-C of the paper).
//!
//! The CDI's components are reusable *prospectively*: event weights rank
//! which VM's migration buys the most stability ("the system would give
//! precedence to the VM with higher event weights, as its migration would
//! more positively influence overall CDI"). The paper designates this as
//! future work; this module implements it on top of the existing Operation
//! Platform.

use cdi_core::event::{EventSpan, Target};

use crate::ops::ActionRequest;

/// Expected CDI relief of acting on a target now: the current max active
/// weight times the remaining damage time, summed over the target's open
/// spans after `now`, in µ-weight·ms. This is exactly the contribution the
/// spans would add to the damage integral of Algorithm 1 if left alone.
pub fn damage_pressure(spans: &[EventSpan], now: i64) -> u64 {
    // Remaining damage from `now`: reuse the indicator's exact machinery
    // over a pseudo-period ending at the last span end.
    let horizon = spans.iter().map(|s| s.end).max().unwrap_or(now);
    if horizon <= now {
        return 0;
    }
    let Ok(period) = cdi_core::indicator::ServicePeriod::new(now, horizon) else {
        return 0;
    };
    cdi_core::indicator::damage(spans, period).unwrap_or(0)
}

/// Order action requests so the targets with the highest remaining damage
/// pressure execute first (ties keep the submitted order). `spans_of`
/// supplies each target's currently-active weighted spans.
pub fn prioritize_by_damage<'a>(
    mut requests: Vec<ActionRequest>,
    now: i64,
    spans_of: impl Fn(&Target) -> &'a [EventSpan],
) -> Vec<ActionRequest> {
    // Decorate-sort-undecorate keeps the pressure computation O(n).
    let mut decorated: Vec<(u64, usize, ActionRequest)> = requests
        .drain(..)
        .enumerate()
        .map(|(i, r)| (damage_pressure(spans_of(&r.target), now), i, r))
        .collect();
    decorated.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    decorated.into_iter().map(|(_, _, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ActionKind;
    use cdi_core::event::Category;
    use cdi_core::time::minutes;

    fn span(s: i64, e: i64, w: f64) -> EventSpan {
        EventSpan::new("x", Category::Performance, minutes(s), minutes(e), w)
    }

    fn req(target: Target, time: i64) -> ActionRequest {
        ActionRequest { action: ActionKind::LiveMigrate, target, rule: "r".into(), time }
    }

    #[test]
    fn pressure_is_remaining_weighted_time() {
        // 10 minutes remaining at weight 0.5 → 5 weight-minutes.
        let spans = vec![span(0, 20, 0.5)];
        assert_eq!(damage_pressure(&spans, minutes(10)), 10 * 500_000 * 60_000);
        // Already-ended spans exert no pressure.
        assert_eq!(damage_pressure(&spans, minutes(30)), 0);
        assert_eq!(damage_pressure(&[], 0), 0);
    }

    #[test]
    fn pressure_uses_max_envelope_not_sum() {
        let spans = vec![span(0, 10, 0.5), span(0, 10, 0.9)];
        assert_eq!(damage_pressure(&spans, 0), 10 * 900_000 * 60_000, "overlap takes max");
    }

    #[test]
    fn prioritize_puts_heaviest_damage_first() {
        let light = vec![span(0, 10, 0.2)];
        let heavy = vec![span(0, 10, 1.0)];
        let medium = vec![span(0, 10, 0.5)];
        let spans_of = |t: &Target| -> &[EventSpan] {
            match t {
                Target::Vm(1) => &light,
                Target::Vm(2) => &heavy,
                _ => &medium,
            }
        };
        let requests = vec![req(Target::Vm(1), 0), req(Target::Vm(2), 1), req(Target::Vm(3), 2)];
        let ordered = prioritize_by_damage(requests, 0, spans_of);
        let targets: Vec<Target> = ordered.iter().map(|r| r.target).collect();
        assert_eq!(targets, vec![Target::Vm(2), Target::Vm(3), Target::Vm(1)]);
    }

    #[test]
    fn prioritize_is_stable_on_ties() {
        let same = vec![span(0, 10, 0.5)];
        let spans_of = |_: &Target| -> &[EventSpan] { &same };
        let requests = vec![req(Target::Vm(9), 0), req(Target::Vm(3), 1), req(Target::Vm(7), 2)];
        let ordered = prioritize_by_damage(requests, 0, spans_of);
        let targets: Vec<Target> = ordered.iter().map(|r| r.target).collect();
        assert_eq!(targets, vec![Target::Vm(9), Target::Vm(3), Target::Vm(7)]);
    }
}
