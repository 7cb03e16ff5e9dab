//! Audited numeric conversions for the metric-math modules.
//!
//! Rule R4 of `stability-lint` bans raw `as` casts in [`crate::indicator`],
//! [`crate::weight`], and [`crate::streaming`]: a silent truncation or
//! precision loss there corrupts the CDI without failing any test. Every
//! conversion those modules need funnels through this module instead, where
//! the domain of each cast is stated and checked once.
//!
//! Millisecond timestamps span at most ~2.9e8 ms per year of service time;
//! even a century of fleet-aggregated service time (~3e12 ms) is far below
//! `f64`'s exact-integer limit of 2^53 ≈ 9e15, so the timestamp→float
//! conversions here are exact across the entire operating envelope.
//!
//! The damage integral itself is an integer (DESIGN.md §5, decision 7):
//! weights are quantized once by [`quantize_weight`], integrated against
//! integer milliseconds, and divided back to a ratio exactly once, in
//! [`damage_ratio`].

use crate::error::{CdiError, Result};

/// Largest integer magnitude `f64` represents exactly.
const F64_EXACT: i64 = 1 << 53;

/// Exact `f64` of an `i64` millisecond duration or timestamp delta.
///
/// Exact for `|ms| ≤ 2^53` (covers > 285,000 years of milliseconds); the
/// debug assertion flags the impossible overflow in test builds while
/// release builds degrade to the nearest representable value.
pub fn ms_f64(ms: i64) -> f64 {
    debug_assert!(ms.abs() <= F64_EXACT, "millisecond value {ms} exceeds f64 exact range");
    // The one audited lossy-capable cast for i64 durations.
    #[allow(clippy::cast_precision_loss)]
    {
        ms as f64
    }
}

/// µ-weights per unit weight: the quantum weights are integrated at is
/// 10⁻⁶. Decimal, so every weight the paper prints (0.25, 0.3, 0.5, 0.6,
/// 0.625, 0.75) is a whole number of quanta.
pub const WEIGHT_SCALE: u64 = 1_000_000;

/// [`WEIGHT_SCALE`] as the float the conversions multiply by (exact).
#[allow(clippy::cast_precision_loss)]
const SCALE: f64 = WEIGHT_SCALE as f64;

/// A weight in `[0, 1]` as a whole number of µ-weights, rounding half up.
/// NaN, ±∞ and anything outside `[0, 1]` are rejected, never clamped.
pub fn quantize_weight(w: f64) -> Result<u64> {
    if !(0.0..=1.0).contains(&w) {
        return Err(CdiError::invalid(format!("span weight must be in [0,1], got {w}")));
    }
    // `w · 10⁶ + 0.5` lies in [0.5, 1_000_000.5]: truncation is floor.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        Ok((w * SCALE + 0.5) as u64)
    }
}

/// The weight [`quantize_weight`] actually integrates, as an `f64` (the
/// nearest to `k · 10⁻⁶`). Unquantizable weights pass through unchanged so
/// validation downstream still sees them.
pub fn snap_weight(w: f64) -> f64 {
    match quantize_weight(w) {
        // At most 10⁶: exact in f64.
        #[allow(clippy::cast_precision_loss)]
        Ok(micro) => micro as f64 / SCALE,
        Err(_) => w,
    }
}

/// The one division of the metric path: damage (µ-weight·ms) over service
/// time (ms) as a ratio in `[0, 1]`. Both conversions round to nearest, so
/// whenever `damage` and `service_ms · 10⁶` are below 2^53 (any single
/// target over any period up to 104 days) the result is the correctly
/// rounded quotient of the two integers.
pub fn damage_ratio(damage: u64, service_ms: i64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        damage as f64 / (ms_f64(service_ms) * SCALE)
    }
}

/// Exact `f64` of a small count (collection sizes, level indices).
///
/// Counts in the metric math are bounded by collection sizes (events per
/// VM, levels per weight table), all far below 2^53.
pub fn count_f64(n: usize) -> f64 {
    debug_assert!((n as u64) <= F64_EXACT as u64, "count {n} exceeds f64 exact range");
    #[allow(clippy::cast_precision_loss)]
    {
        n as f64
    }
}

/// Non-negative `i64` → `usize` array index. Negative or oversized values
/// clamp to the nearest representable index (and assert in test builds)
/// instead of wrapping.
pub fn index_of(x: i64) -> usize {
    debug_assert!(x >= 0, "negative index {x}");
    usize::try_from(x).unwrap_or(0)
}

/// Ceiling of a positive float ratio as a 1-based level index, clamped to
/// `[1, n_levels]`. Used by the customer-weight bucketing of Eq. 2, where
/// `pct ∈ (0, 1]` makes the result well-defined; NaN clamps to level 1.
pub fn level_of(pct: f64, n_levels: usize) -> usize {
    let scaled = (pct * count_f64(n_levels)).ceil();
    if scaled.is_nan() || scaled < 1.0 {
        return 1;
    }
    if scaled >= count_f64(n_levels) {
        return n_levels.max(1);
    }
    // `scaled` is a finite integral float in [1, n_levels) here.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        scaled as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_f64_is_exact_in_range() {
        assert_eq!(ms_f64(0), 0.0);
        assert_eq!(ms_f64(86_400_000), 86_400_000.0);
        assert_eq!(ms_f64(-5), -5.0);
        assert_eq!(ms_f64(F64_EXACT), 9_007_199_254_740_992.0);
    }

    #[test]
    fn weights_quantize_to_micro_units_or_are_rejected() {
        assert_eq!(quantize_weight(0.0).unwrap(), 0);
        assert_eq!(quantize_weight(0.000_000_4).unwrap(), 0);
        assert_eq!(quantize_weight(0.000_000_5).unwrap(), 1);
        assert_eq!(quantize_weight(1.0).unwrap(), WEIGHT_SCALE);
        for (w, micro) in
            [(0.25, 250_000), (0.3, 300_000), (0.5, 500_000), (0.6, 600_000), (0.625, 625_000)]
        {
            assert_eq!(quantize_weight(w).unwrap(), micro);
            assert_eq!(snap_weight(w), w, "paper weights are already on the grid");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9, 1.000_000_1] {
            assert!(quantize_weight(bad).is_err(), "{bad} must be rejected");
        }
        assert!(snap_weight(f64::NAN).is_nan());
        assert_eq!(snap_weight(1.0 / 3.0), 0.333_333);
    }

    #[test]
    fn damage_ratio_is_the_correctly_rounded_quotient() {
        // Table IV, VM 1: 4 minutes at 0.3 over one hour.
        assert_eq!(damage_ratio(300_000 * 240_000, 3_600_000), 0.020);
        assert_eq!(damage_ratio(0, 1), 0.0);
        assert_eq!(damage_ratio(WEIGHT_SCALE * 86_400_000, 86_400_000), 1.0);
    }

    #[test]
    fn count_f64_round_trips_small_counts() {
        for n in [0usize, 1, 7, 1_000_000] {
            assert_eq!(count_f64(n), n as f64);
        }
    }

    #[test]
    fn index_clamps_instead_of_wrapping() {
        assert_eq!(index_of(5), 5);
        assert_eq!(index_of(0), 0);
        // Release behavior (debug_assert would fire under cfg(test) only
        // via catch_unwind, so exercise the clamp directly).
        assert_eq!(usize::try_from(-3i64).unwrap_or(0), 0);
    }

    #[test]
    fn level_of_matches_eq2_bucketing() {
        // Example 3 of the paper: pct above 3/4 with n = 4 lands level 4.
        assert_eq!(level_of(0.8, 4), 4);
        assert_eq!(level_of(0.25, 4), 1);
        assert_eq!(level_of(0.26, 4), 2);
        assert_eq!(level_of(1.0, 4), 4);
        // Degenerate inputs clamp instead of wrapping.
        assert_eq!(level_of(f64::NAN, 4), 1);
        assert_eq!(level_of(-1.0, 4), 1);
        assert_eq!(level_of(99.0, 4), 4);
    }
}
