//! Service-level counters: what the service accepted, shed, clipped — and
//! what the lifecycle layer did to the shard pool while it happened.
//!
//! The paper's operation platform treats observability of the metric
//! pipeline itself as part of stability (Section VIII-C): a serving layer
//! that silently drops late or shed spans would report an optimistic CDI.
//! Every lossy path in `cdi-serve` therefore lands in a counter here, and
//! [`MetricsReport`] is queryable over the wire like any CDI value.
//!
//! The same discipline applies to elasticity (PR 6): every resize, rolling
//! restart, kill, and respawn is recorded twice — as a monotonic counter
//! *and* as a structured [`LifecycleEvent`] in the [`EventLog`] — so a
//! chaos drill is auditable entirely from `Metrics` responses on the wire,
//! with no access to the process required. Durations are measured in
//! *messages drained*, not wall-clock time: the serving layer is clock-free
//! (stability-lint R3), and queue work is the unit that actually bounds a
//! fence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

use serde::{Deserialize, Serialize};

use crate::tracked::TrackedMutex;

/// One structured entry in the shard-lifecycle audit log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleEvent {
    /// An elastic resize began: the fence epoch it opened, and the shard
    /// widths it moves between.
    ResizeStarted {
        /// Fence epoch opened by this resize.
        epoch: u64,
        /// Shard count before.
        from_shards: usize,
        /// Shard count after.
        to_shards: usize,
    },
    /// The resize committed: routing cut over atomically and ingest
    /// admission resumed.
    ResizeFinished {
        /// Fence epoch the resize ran under.
        epoch: u64,
        /// Shard count before.
        from_shards: usize,
        /// Shard count after.
        to_shards: usize,
        /// Targets whose shard assignment changed under the new width.
        moved_targets: usize,
        /// Messages drained from shard queues to reach the fence
        /// watermark (the clock-free "drain duration").
        drained_msgs: u64,
    },
    /// One shard was restarted in place by a rolling restart.
    ShardRestarted {
        /// Fence epoch the restart ran under.
        epoch: u64,
        /// Index of the restarted shard.
        shard: usize,
        /// Messages drained from that shard's queue before the restart.
        drained_msgs: u64,
    },
    /// A shard worker was killed (chaos drill): its live state is lost.
    ShardKilled {
        /// Index of the killed shard.
        shard: usize,
    },
    /// Supervision rebuilt a killed shard from its last durable base plus
    /// the bounded delta chain and the journaled messages applied since.
    ShardRespawned {
        /// Index of the respawned shard.
        shard: usize,
        /// Targets revived from the durable image chain.
        restored_targets: usize,
        /// Journaled messages replayed on top of the delta chain.
        replayed_msgs: u64,
        /// Encoded bytes replayed *beyond* the base image (delta chain +
        /// journal) — the incremental cost of the respawn. Bounded by the
        /// checkpoint cadence and the dirty-target rate, not by total
        /// state size.
        replayed_bytes: u64,
    },
}

/// Append-only, bounded audit log of [`LifecycleEvent`]s.
///
/// Bounded so a pathological drill (or a kill/respawn loop) cannot grow
/// service memory without limit: once full, the *oldest* entries are
/// dropped and counted, which keeps the recent history — the part a drill
/// audit reads — intact.
#[derive(Debug)]
pub struct EventLog {
    entries: TrackedMutex<Vec<LifecycleEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(1024)
    }
}

impl EventLog {
    /// A log keeping at most `capacity` recent events (minimum 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            entries: TrackedMutex::new("events", Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one event, evicting the oldest if the log is full.
    pub fn record(&self, event: LifecycleEvent) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner); // lock: events
        if entries.len() >= self.capacity {
            entries.remove(0);
            // ordering: independent eviction statistic, read only for reports
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        // bound: capped at `capacity` by the eviction right above
        entries.push(event);
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<LifecycleEvent> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).clone() // lock: events
    }

    /// Events evicted because the log was full.
    pub fn dropped(&self) -> u64 {
        // ordering: point-in-time statistic read, no memory rides on it
        self.dropped.load(Ordering::Relaxed)
    }

    /// Replace the retained events (snapshot-restore path).
    pub fn reseed(&self, events: &[LifecycleEvent]) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner); // lock: events
        entries.clear();
        let skip = events.len().saturating_sub(self.capacity);
        // bound: `skip` keeps at most `capacity` entries
        entries.extend_from_slice(&events[skip..]);
    }
}

/// Monotonic counters shared by all shards and the server front-end.
///
/// Relaxed ordering everywhere: counters are independent statistics, not
/// synchronization points.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Span deliveries accepted into a shard queue (after NC fan-out, so
    /// one NC span hosting four VMs counts five deliveries).
    pub spans_ingested: AtomicU64,
    /// Span deliveries rejected by a full queue under
    /// [`crate::queue::BackpressurePolicy::Shed`].
    pub spans_shed: AtomicU64,
    /// Queries answered (point, top-K, and rollup alike).
    pub queries: AtomicU64,
    /// Snapshots taken.
    pub snapshots: AtomicU64,
    /// Elastic resizes completed (grow or shrink).
    pub resizes: AtomicU64,
    /// Individual shard restarts completed by rolling restarts.
    pub shard_restarts: AtomicU64,
    /// Shard workers killed by drills.
    pub shard_kills: AtomicU64,
    /// Shard workers respawned by supervision.
    pub shard_respawns: AtomicU64,
    /// The current fence epoch: bumped every time the ingest-admission
    /// fence is raised (resize or rolling restart).
    pub fence_epoch: AtomicU64,
    /// Accumulator rejections carried over from shard states that were
    /// merged away by a resize (the per-shard counters restart at zero in
    /// the new pool; the total must not).
    pub rejected_carried: AtomicU64,
    /// The structured lifecycle audit log.
    pub events: EventLog,
}

/// Shard-pool totals sampled at report time (values the atomics cannot
/// hold because they live inside shard state or queue gauges).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTotals {
    /// Spans dropped for arriving entirely behind the watermark.
    pub late_dropped: u64,
    /// Spans clipped to the watermark on arrival.
    pub late_clipped: u64,
    /// Deliveries the accumulators rejected outright.
    pub rejected: u64,
    /// Current shard count.
    pub shards: usize,
    /// Sum of current queue depths across shards.
    pub queue_depth: u64,
    /// Worst per-shard queue high-water mark since the gauges were last
    /// taken.
    pub queue_depth_hwm: u64,
}

impl ServiceMetrics {
    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        // ordering: independent monotonic counter, never a synchronization point
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n` — the batched-ingest path accounts a whole
    /// group in one update.
    pub fn add(counter: &AtomicU64, n: u64) {
        // ordering: independent monotonic counter, never a synchronization point
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time copy of the service counters, extended with the
    /// totals sampled from the shard pool.
    pub fn report(&self, totals: ShardTotals) -> MetricsReport {
        MetricsReport {
            // ordering: point-in-time statistic read, no memory rides on it
            spans_ingested: self.spans_ingested.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            spans_shed: self.spans_shed.load(Ordering::Relaxed),
            late_dropped: totals.late_dropped,
            late_clipped: totals.late_clipped,
            // ordering: point-in-time statistic read, no memory rides on it
            rejected: totals.rejected + self.rejected_carried.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            queries: self.queries.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            snapshots: self.snapshots.load(Ordering::Relaxed),
            shards: totals.shards,
            queue_depth: totals.queue_depth,
            queue_depth_hwm: totals.queue_depth_hwm,
            // ordering: point-in-time statistic read, no memory rides on it
            resizes: self.resizes.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            shard_kills: self.shard_kills.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            shard_respawns: self.shard_respawns.load(Ordering::Relaxed),
            // ordering: point-in-time statistic read, no memory rides on it
            fence_epoch: self.fence_epoch.load(Ordering::Relaxed),
            events: self.events.snapshot(),
        }
    }

    /// Re-seed the service counters from a restored report (crash
    /// recovery keeps the loss accounting and the lifecycle audit trail,
    /// not just the CDI state).
    pub fn reseed(&self, report: &MetricsReport) {
        // ordering: reseed runs under the restore fence, before readers exist
        self.spans_ingested.store(report.spans_ingested, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.spans_shed.store(report.spans_shed, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.queries.store(report.queries, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.snapshots.store(report.snapshots, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.resizes.store(report.resizes, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.shard_restarts.store(report.shard_restarts, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.shard_kills.store(report.shard_kills, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.shard_respawns.store(report.shard_respawns, Ordering::Relaxed);
        // ordering: reseed runs under the restore fence, before readers exist
        self.fence_epoch.store(report.fence_epoch, Ordering::Relaxed);
        // The restored pool's shard states start with zero local
        // rejections; carrying the snapshotted total forward keeps the
        // service-level count monotone across a crash.
        // ordering: reseed runs under the restore fence, before readers exist
        self.rejected_carried.store(report.rejected, Ordering::Relaxed);
        self.events.reseed(&report.events);
    }
}

/// A serializable point-in-time view of [`ServiceMetrics`], plus the late
/// counters aggregated across every accumulator in every shard and the
/// queue-depth gauges the auto-scaler consumes.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Span deliveries accepted into shard queues.
    pub spans_ingested: u64,
    /// Span deliveries shed by full queues.
    pub spans_shed: u64,
    /// Spans dropped by accumulators for arriving entirely behind the
    /// watermark.
    pub late_dropped: u64,
    /// Spans clipped to the watermark on arrival.
    pub late_clipped: u64,
    /// Deliveries the accumulators rejected outright (invalid weight) —
    /// non-zero only if upstream validation was bypassed. Includes
    /// rejections from shard states merged away by past resizes.
    pub rejected: u64,
    /// Queries answered.
    pub queries: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Current shard count (a gauge, not a counter).
    pub shards: usize,
    /// Sum of current shard queue depths (a gauge).
    pub queue_depth: u64,
    /// Worst per-shard queue depth since the gauge was last taken (the
    /// auto-scaler's input).
    pub queue_depth_hwm: u64,
    /// Elastic resizes completed.
    pub resizes: u64,
    /// Shard restarts completed by rolling restarts.
    pub shard_restarts: u64,
    /// Shard workers killed by drills.
    pub shard_kills: u64,
    /// Shard workers respawned by supervision.
    pub shard_respawns: u64,
    /// Current fence epoch.
    pub fence_epoch: u64,
    /// Recent lifecycle events, oldest first (bounded; see
    /// [`EventLog`]).
    pub events: Vec<LifecycleEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_is_bounded_and_keeps_the_tail() {
        let log = EventLog::new(3);
        for shard in 0..5 {
            log.record(LifecycleEvent::ShardKilled { shard });
        }
        let kept = log.snapshot();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0], LifecycleEvent::ShardKilled { shard: 2 });
        assert_eq!(kept[2], LifecycleEvent::ShardKilled { shard: 4 });
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn reseed_round_trips_counters_and_events() {
        let m = ServiceMetrics::default();
        m.events.record(LifecycleEvent::ResizeStarted {
            epoch: 1,
            from_shards: 2,
            to_shards: 4,
        });
        ServiceMetrics::bump(&m.resizes);
        ServiceMetrics::bump(&m.fence_epoch);
        let report = m.report(ShardTotals { shards: 4, ..ShardTotals::default() });

        let back = ServiceMetrics::default();
        back.reseed(&report);
        let echoed = back.report(ShardTotals { shards: 4, ..ShardTotals::default() });
        assert_eq!(echoed, report);
    }
}
