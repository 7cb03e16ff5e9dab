//! Streaming CDI accumulation.
//!
//! The batch pipeline (Section V) recomputes each day from scratch; the
//! operation-platform applications of Section VIII-C want the *current*
//! damage state of a target without replaying history. [`CdiAccumulator`]
//! ingests weighted spans approximately in time order and maintains the
//! damage integral behind a **watermark**: everything before the watermark
//! is frozen into a running sum and its spans are dropped, so memory stays
//! bounded by the number of spans still open — not by history length. The
//! sum is the integer damage of [`crate::indicator::damage`], so it does
//! not depend on where the watermark stopped along the way: streamed,
//! restored and merged accumulators equal the one-shot batch value exactly.
//!
//! Late data policy (explicit, like the rest of DESIGN.md §5): a span
//! arriving with `start` before the current watermark is clipped to the
//! watermark (counted in [`CdiAccumulator::late_clipped`]); a span entirely
//! before it is dropped and counted in [`CdiAccumulator::late_dropped`].
//!
//! The serving layer (`crates/cdi-serve`) builds on two additional
//! operations: [`CdiAccumulator::snapshot`] / [`CdiAccumulator::restore`]
//! freeze and revive an accumulator across process boundaries (crash
//! recovery, re-sharding), and [`CdiAccumulator::merge`] combines two
//! accumulators tracking **time-disjoint** sub-streams of the same target.

use serde::{Deserialize, Serialize};

use crate::error::{CdiError, Result};
use crate::event::EventSpan;
use crate::indicator::{damage, ServicePeriod};
use crate::num::{damage_ratio, quantize_weight};
use crate::time::Timestamp;

/// Watermark-based streaming accumulator for one target and one sub-metric
/// stream (the caller splits spans by category, as the batch pipeline does).
#[derive(Debug, Clone)]
pub struct CdiAccumulator {
    period_start: Timestamp,
    watermark: Timestamp,
    /// Damage integral (µ-weight·ms) frozen up to the watermark.
    frozen: u64,
    /// Spans still (partly) ahead of the watermark.
    open: Vec<EventSpan>,
    /// Spans dropped for arriving entirely behind the watermark.
    late_dropped: usize,
    /// Spans that straddled the watermark on arrival and lost their tail.
    late_clipped: usize,
}

/// A serializable, self-contained image of a [`CdiAccumulator`] — the unit
/// of the serving layer's crash-recovery snapshots.
///
/// The fields are public so snapshot files remain inspectable; restoring
/// one re-validates every invariant ([`CdiAccumulator::restore`]), so a
/// hand-edited or corrupted snapshot surfaces a typed error instead of a
/// silently wrong CDI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccumulatorSnapshot {
    /// Start of the service period being accumulated.
    pub period_start: Timestamp,
    /// Watermark at snapshot time.
    pub watermark: Timestamp,
    /// Damage integral (µ-weight·ms) frozen up to the watermark.
    pub frozen: u64,
    /// Spans still (partly) ahead of the watermark.
    pub open: Vec<EventSpan>,
    /// Spans dropped for arriving entirely behind the watermark.
    pub late_dropped: usize,
    /// Spans clipped to the watermark on arrival.
    pub late_clipped: usize,
}

impl CdiAccumulator {
    /// Start accumulating at `period_start` (also the initial watermark).
    pub fn new(period_start: Timestamp) -> Self {
        CdiAccumulator {
            period_start,
            watermark: period_start,
            frozen: 0,
            open: Vec::new(),
            late_dropped: 0,
            late_clipped: 0,
        }
    }

    /// Current watermark.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Start of the service period being accumulated.
    pub fn period_start(&self) -> Timestamp {
        self.period_start
    }

    /// Spans dropped as too late.
    pub fn late_dropped(&self) -> usize {
        self.late_dropped
    }

    /// Spans clipped to the watermark on arrival (their pre-watermark tail
    /// was discarded, the rest was kept).
    pub fn late_clipped(&self) -> usize {
        self.late_clipped
    }

    /// Number of spans currently held (bounded-memory invariant).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Ingest a span. Spans beginning before the watermark are clipped to
    /// it; spans ending at or before it are dropped as late. A span with an
    /// invalid weight or an inverted range is rejected — the same rules
    /// [`CdiAccumulator::restore`] applies, so whatever `ingest` accepts
    /// survives a snapshot round trip.
    pub fn ingest(&mut self, mut span: EventSpan) -> Result<()> {
        check_span(&span)?;
        if span.end <= self.watermark {
            self.late_dropped += 1;
            return Ok(());
        }
        if span.start < self.watermark {
            span.start = self.watermark;
            self.late_clipped += 1;
        }
        self.open.push(span);
        Ok(())
    }

    /// Advance the watermark to `to`, freezing the damage integral of
    /// `[watermark, to)` and discarding spans that end before `to`.
    pub fn advance_watermark(&mut self, to: Timestamp) -> Result<()> {
        if to < self.watermark {
            return Err(CdiError::invalid(format!(
                "watermark cannot move backwards ({} -> {to})",
                self.watermark
            )));
        }
        if to == self.watermark {
            return Ok(());
        }
        let window = ServicePeriod::new(self.watermark, to)?;
        self.frozen = checked_sum(self.frozen, damage(&self.open, window)?)?;
        self.watermark = to;
        self.open.retain(|s| s.end > to);
        Ok(())
    }

    /// The CDI over `[period_start, watermark)` — the exact value Algorithm
    /// 1 would produce for every span ingested on time.
    pub fn cdi(&self) -> Result<f64> {
        let elapsed = self.watermark - self.period_start;
        if elapsed <= 0 {
            return Err(CdiError::degenerate("no elapsed service time yet"));
        }
        Ok(damage_ratio(self.frozen, elapsed))
    }

    /// The damage integral (µ-weight·ms) frozen so far.
    pub fn damage_integral(&self) -> u64 {
        self.frozen
    }

    /// The §VIII-C damage pressure: the remaining integral of the open
    /// spans from the watermark to their last end — what acting on this
    /// target now would save.
    pub fn pending_pressure(&self) -> Result<u64> {
        let horizon = self.open.iter().map(|s| s.end).max().unwrap_or(self.watermark);
        if horizon <= self.watermark {
            return Ok(0);
        }
        damage(&self.open, ServicePeriod::new(self.watermark, horizon)?)
    }

    /// Freeze the accumulator into a serializable [`AccumulatorSnapshot`].
    ///
    /// The snapshot is exact: [`CdiAccumulator::restore`] on it yields an
    /// accumulator whose every future observation (CDI, damage integral,
    /// pending pressure, late counters) equals the original's.
    pub fn snapshot(&self) -> AccumulatorSnapshot {
        AccumulatorSnapshot {
            period_start: self.period_start,
            watermark: self.watermark,
            frozen: self.frozen,
            open: self.open.clone(),
            late_dropped: self.late_dropped,
            late_clipped: self.late_clipped,
        }
    }

    /// Revive an accumulator from a snapshot, re-validating every invariant
    /// the type normally maintains: the watermark cannot precede the period
    /// start, and every open span must carry a valid weight, a non-inverted
    /// range, and an end strictly ahead of the watermark.
    pub fn restore(snap: AccumulatorSnapshot) -> Result<CdiAccumulator> {
        if snap.watermark < snap.period_start {
            return Err(CdiError::invalid(format!(
                "snapshot watermark {} precedes period start {}",
                snap.watermark, snap.period_start
            )));
        }
        for s in &snap.open {
            check_span(s)?;
            if s.end <= snap.watermark {
                return Err(CdiError::invalid(format!(
                    "snapshot span '{}' ends at {} behind the watermark {}",
                    s.name, s.end, snap.watermark
                )));
            }
        }
        Ok(CdiAccumulator {
            period_start: snap.period_start,
            watermark: snap.watermark,
            frozen: snap.frozen,
            open: snap.open,
            late_dropped: snap.late_dropped,
            late_clipped: snap.late_clipped,
        })
    }

    /// Fold another accumulator into this one.
    ///
    /// Both must track the same service period and stand at the same
    /// watermark (the serving layer flushes to a coordinated watermark
    /// before merging). The merged damage integral is the **sum** of the
    /// operands', which equals the true max-envelope integral exactly when
    /// the operand streams are time-disjoint — the case for every use in
    /// this workspace: re-sharding routes each span to exactly one operand,
    /// and per-event-name splits never overlap by construction. Merging
    /// streams whose spans *do* overlap in time yields an upper bound
    /// (`sum ≥ max`), never an undercount.
    pub fn merge(&mut self, other: &CdiAccumulator) -> Result<()> {
        if self.period_start != other.period_start {
            return Err(CdiError::invalid(format!(
                "cannot merge accumulators of different periods ({} vs {})",
                self.period_start, other.period_start
            )));
        }
        if self.watermark != other.watermark {
            return Err(CdiError::invalid(format!(
                "cannot merge accumulators at different watermarks ({} vs {})",
                self.watermark, other.watermark
            )));
        }
        self.frozen = checked_sum(self.frozen, other.frozen)?;
        self.open.extend(other.open.iter().cloned());
        self.late_dropped += other.late_dropped;
        self.late_clipped += other.late_clipped;
        Ok(())
    }
}

/// The span rules `ingest` and `restore` share: a weight Algorithm 1 can
/// integrate and a range that is not inverted.
fn check_span(s: &EventSpan) -> Result<()> {
    quantize_weight(s.weight)?;
    if s.start > s.end {
        return Err(CdiError::invalid(format!(
            "span '{}' has start {} after end {}",
            s.name, s.start, s.end
        )));
    }
    Ok(())
}

fn checked_sum(a: u64, b: u64) -> Result<u64> {
    a.checked_add(b).ok_or_else(|| CdiError::Overflow(format!("{a} + {b} µ-weight·ms")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::indicator::cdi;
    use crate::time::minutes;

    fn span(s: i64, e: i64, w: f64) -> EventSpan {
        EventSpan::new("x", Category::Performance, minutes(s), minutes(e), w)
    }

    #[test]
    fn matches_batch_algorithm_on_in_order_stream() {
        let spans =
            vec![span(5, 10, 0.5), span(8, 14, 0.9), span(20, 25, 0.3), span(24, 30, 0.6)];
        let period = ServicePeriod::new(0, minutes(60)).unwrap();
        let batch = cdi(&spans, period).unwrap();

        let mut acc = CdiAccumulator::new(0);
        for (i, s) in spans.iter().enumerate() {
            acc.ingest(s.clone()).unwrap();
            // Advance conservatively between ingests (watermark ≤ next start).
            let safe = spans.get(i + 1).map(|n| n.start).unwrap_or(minutes(60));
            acc.advance_watermark(safe).unwrap();
        }
        acc.advance_watermark(minutes(60)).unwrap();
        assert_eq!(acc.cdi().unwrap(), batch);
        assert_eq!(acc.late_dropped(), 0);
        assert_eq!(acc.open_spans(), 0, "memory drained once spans close");
    }

    #[test]
    fn overlaps_take_max_across_watermark_steps() {
        let mut acc = CdiAccumulator::new(0);
        acc.ingest(span(0, 10, 0.5)).unwrap();
        acc.ingest(span(5, 15, 0.9)).unwrap();
        // Advance through the middle of the overlap: freezing must not
        // double-count.
        acc.advance_watermark(minutes(7)).unwrap();
        acc.advance_watermark(minutes(20)).unwrap();
        // 5 min at 0.5 + 10 min at 0.9.
        assert_eq!(acc.damage_integral(), (5 * 500_000 + 10 * 900_000) * 60_000);
    }

    #[test]
    fn late_spans_clip_or_drop() {
        let mut acc = CdiAccumulator::new(0);
        acc.advance_watermark(minutes(10)).unwrap();
        // Entirely behind: dropped.
        acc.ingest(span(2, 8, 0.5)).unwrap();
        assert_eq!(acc.late_dropped(), 1);
        // Straddling: clipped to the watermark.
        acc.ingest(span(5, 20, 1.0)).unwrap();
        acc.advance_watermark(minutes(20)).unwrap();
        assert_eq!(acc.damage_integral(), 10 * 1_000_000 * 60_000);
    }

    #[test]
    fn watermark_cannot_regress_and_cdi_needs_time() {
        let mut acc = CdiAccumulator::new(minutes(5));
        assert!(acc.cdi().is_err(), "no elapsed time yet");
        acc.advance_watermark(minutes(10)).unwrap();
        assert!(acc.advance_watermark(minutes(9)).is_err());
        // Idempotent same-point advance.
        acc.advance_watermark(minutes(10)).unwrap();
        assert_eq!(acc.cdi().unwrap(), 0.0);
    }

    #[test]
    fn pending_pressure_tracks_open_damage() {
        let mut acc = CdiAccumulator::new(0);
        acc.ingest(span(0, 30, 0.5)).unwrap();
        acc.advance_watermark(minutes(10)).unwrap();
        // 20 minutes of weight-0.5 damage still ahead.
        assert_eq!(acc.pending_pressure().unwrap(), 20 * 500_000 * 60_000);
        acc.advance_watermark(minutes(30)).unwrap();
        assert_eq!(acc.pending_pressure().unwrap(), 0);
    }

    fn raw(start: i64, end: i64, weight: f64) -> EventSpan {
        EventSpan { name: "x".into(), category: Category::Performance, start, end, weight }
    }

    #[test]
    fn rejects_bad_weights() {
        let mut acc = CdiAccumulator::new(0);
        assert!(acc.ingest(raw(0, minutes(1), 2.0)).is_err());
        assert!(acc.ingest(raw(0, minutes(1), f64::NAN)).is_err());
    }

    /// Whatever ingest accepts, restore accepts: an inverted span ahead of
    /// the watermark is turned away at the door, not at recovery.
    #[test]
    fn rejects_inverted_ranges_like_restore_does() {
        let mut acc = CdiAccumulator::new(0);
        assert!(acc.ingest(raw(minutes(9), minutes(5), 0.5)).is_err());
        assert_eq!(acc.open_spans(), 0);
        assert!(CdiAccumulator::restore(acc.snapshot()).is_ok());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        let mut acc = CdiAccumulator::new(0);
        acc.ingest(span(0, 30, 0.5)).unwrap();
        acc.ingest(span(10, 40, 0.9)).unwrap();
        acc.advance_watermark(minutes(20)).unwrap();
        // Late spans so both counters are non-zero in the snapshot.
        acc.ingest(span(1, 5, 0.2)).unwrap();
        acc.ingest(span(15, 35, 0.4)).unwrap();

        let snap = acc.snapshot();
        let mut restored = CdiAccumulator::restore(snap.clone()).unwrap();
        assert_eq!(restored.watermark(), acc.watermark());
        assert_eq!(restored.late_dropped(), 1);
        assert_eq!(restored.late_clipped(), 1);
        assert_eq!(restored.open_spans(), acc.open_spans());

        // Continue both sides identically: observations stay equal.
        acc.advance_watermark(minutes(50)).unwrap();
        restored.advance_watermark(minutes(50)).unwrap();
        assert_eq!(restored.snapshot(), acc.snapshot());

        // And the snapshot itself survives a JSON round trip.
        let json = serde_json::to_string(&snap).unwrap();
        let back: AccumulatorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restore_rejects_corrupted_snapshots() {
        let acc = {
            let mut a = CdiAccumulator::new(minutes(5));
            a.ingest(span(6, 30, 0.5)).unwrap();
            a.advance_watermark(minutes(10)).unwrap();
            a
        };
        let good = acc.snapshot();
        assert!(CdiAccumulator::restore(good.clone()).is_ok());

        let mut bad = good.clone();
        bad.watermark = minutes(4); // behind period_start
        assert!(CdiAccumulator::restore(bad).is_err());

        let mut bad = good.clone();
        bad.open[0].weight = 3.0;
        assert!(CdiAccumulator::restore(bad).is_err());

        let mut bad = good.clone();
        bad.open[0].end = minutes(9); // behind the watermark
        assert!(CdiAccumulator::restore(bad).is_err());

        let mut bad = good;
        bad.open[0].start = minutes(40);
        bad.open[0].end = minutes(30); // inverted
        assert!(CdiAccumulator::restore(bad).is_err());
    }

    #[test]
    fn merge_is_exact_for_time_disjoint_streams() {
        // One logical stream split across two producers by time.
        let all = [span(0, 10, 0.5), span(20, 30, 0.9), span(40, 50, 0.3)];
        let mut whole = CdiAccumulator::new(0);
        let mut left = CdiAccumulator::new(0);
        let mut right = CdiAccumulator::new(0);
        for (i, s) in all.iter().enumerate() {
            whole.ingest(s.clone()).unwrap();
            if i % 2 == 0 {
                left.ingest(s.clone()).unwrap();
            } else {
                right.ingest(s.clone()).unwrap();
            }
        }
        for acc in [&mut whole, &mut left, &mut right] {
            acc.advance_watermark(minutes(35)).unwrap();
        }
        left.merge(&right).unwrap();
        assert_eq!(left.damage_integral(), whole.damage_integral());
        // Open spans travel too.
        left.advance_watermark(minutes(60)).unwrap();
        whole.advance_watermark(minutes(60)).unwrap();
        assert_eq!(left.damage_integral(), whole.damage_integral());
    }

    #[test]
    fn merge_rejects_mismatched_periods_and_watermarks() {
        let mut a = CdiAccumulator::new(0);
        let b = CdiAccumulator::new(minutes(1));
        assert!(a.merge(&b).is_err(), "different period starts");

        let mut a = CdiAccumulator::new(0);
        let mut b = CdiAccumulator::new(0);
        b.advance_watermark(minutes(5)).unwrap();
        assert!(a.merge(&b).is_err(), "different watermarks");
        a.advance_watermark(minutes(5)).unwrap();
        assert!(a.merge(&b).is_ok());
    }

    #[test]
    fn clip_counter_distinguishes_drop_from_clip() {
        let mut acc = CdiAccumulator::new(0);
        acc.advance_watermark(minutes(10)).unwrap();
        acc.ingest(span(0, 10, 0.5)).unwrap(); // end == watermark: dropped
        acc.ingest(span(0, 11, 0.5)).unwrap(); // straddles: clipped
        acc.ingest(span(10, 20, 0.5)).unwrap(); // start == watermark: clean
        assert_eq!(acc.late_dropped(), 1);
        assert_eq!(acc.late_clipped(), 1);
        assert_eq!(acc.open_spans(), 2);
    }
}
