//! Shard lifecycle: the epoch fence, the split/merge re-hash, and the
//! auto-scaler policy.
//!
//! PR 5 could only change the shard count by stopping the world — snapshot,
//! tear down, restore at the new width. That is planned downtime, which the
//! paper's whole argument counts as damage. This module makes the same
//! re-sharding procedure *online*:
//!
//! 1. **Fence** — [`AdmissionGate::fence`] pauses ingest admission (new
//!    producers park, in-flight deliveries finish) and bumps the fence
//!    epoch.
//! 2. **Drain** — every shard's bounded queue is drained to the fence
//!    watermark; with admission closed, queues can only shrink, so the
//!    drain is bounded by what was in flight.
//! 3. **Split/merge** — [`split_merge`] re-hashes every per-target
//!    accumulator triple into the new shard width through the exact
//!    [`TargetSnapshot`] path snapshots restore through: the re-sharding
//!    procedure is the crash-recovery procedure, so it needs no second
//!    correctness argument.
//! 4. **Cutover** — the new shard pool replaces the old one atomically
//!    under the pool's write lock; routing (`hash % shards`) flips with it.
//! 5. **Resume** — [`AdmissionGate::lift`] wakes parked producers exactly
//!    once; queues refill and the watermark keeps advancing.
//!
//! The same fence, applied to one shard at a time, gives rolling restarts;
//! crash-respawn (a shard rebuilt from its image chain + journal, see
//! [`crate::shard`]) needs no fence at all because the queue itself
//! preserves everything the dead worker had not applied.
//!
//! [`AutoScalerPolicy`] closes the loop: queue-depth high-water marks (the
//! earliest overload signal the service has — depth rises before anything
//! is shed or late) are sampled per interval and mapped to a grow/shrink
//! decision, which the caller executes as a fenced resize.

use std::sync::PoisonError;

use cdi_core::error::Result;
use cdi_core::time::Timestamp;
use minispark::hash::FixedState;
use serde::{Deserialize, Serialize};
use std::hash::BuildHasher;

use crate::shard::{ShardState, TargetSnapshot};
use crate::tracked::{TrackedCondvar, TrackedMutex};

/// Deterministic shard index of a target in a pool of `shards` shards —
/// the single routing function shared by ingest, queries, snapshots, and
/// the split/merge path.
pub fn shard_index(target: cdi_core::event::Target, shards: usize) -> usize {
    (FixedState.hash_one(target) % shards.max(1) as u64) as usize
}

/// Re-hash a flat set of per-target snapshots into `shards` fresh
/// [`ShardState`]s at the given watermark — the split (grow) and merge
/// (shrink) step of an elastic resize, built on the exact snapshot-restore
/// path crash recovery uses.
///
/// Every target lands in exactly one new shard (the one its hash selects)
/// and its accumulators pass through [`TargetSnapshot`] unchanged, so the
/// move is bit-lossless — property-tested across arbitrary old/new widths
/// in `tests/lifecycle_proptests.rs`.
pub fn split_merge(
    targets: &[TargetSnapshot],
    shards: usize,
    period_start: Timestamp,
    watermark: Timestamp,
) -> Result<Vec<ShardState>> {
    let shards = shards.max(1);
    let mut groups: Vec<Vec<&TargetSnapshot>> = vec![Vec::new(); shards];
    for snap in targets {
        groups[shard_index(snap.target, shards)].push(snap);
    }
    groups
        .into_iter()
        .map(|group| ShardState::from_parts(period_start, watermark, 0, group))
        .collect()
}

/// How many of `targets` change shard assignment when the pool goes from
/// `from` to `to` shards — the data-movement cost of a resize.
pub fn moved_targets(targets: &[TargetSnapshot], from: usize, to: usize) -> usize {
    targets
        .iter()
        .filter(|t| shard_index(t.target, from) != shard_index(t.target, to))
        .count()
}

/// What one committed resize did — returned by
/// [`crate::service::CdiService::resize`] and echoed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResizeOutcome {
    /// Fence epoch the resize ran under.
    pub epoch: u64,
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Targets whose shard assignment changed.
    pub moved_targets: usize,
    /// Messages drained from shard queues to reach the fence watermark.
    pub drained_msgs: u64,
}

/// The ingest-admission fence.
///
/// Producers wrap every delivery (and watermark broadcast) in
/// [`AdmissionGate::admit`]; the lifecycle layer raises the fence with
/// [`AdmissionGate::fence`], which blocks new admissions and waits for
/// in-flight ones to finish, and lowers it with [`AdmissionGate::lift`],
/// which wakes parked producers. Queries never touch the gate — a resize
/// pauses writes, not reads.
#[derive(Debug)]
pub struct AdmissionGate {
    state: TrackedMutex<GateState>,
    cv: TrackedCondvar,
}

#[derive(Debug, Default)]
struct GateState {
    fenced: bool,
    in_flight: usize,
}

impl Default for AdmissionGate {
    fn default() -> Self {
        AdmissionGate {
            state: TrackedMutex::new("gate", GateState::default()),
            cv: TrackedCondvar::new(),
        }
    }
}

impl AdmissionGate {
    /// Run `f` as an admitted producer: waits while the fence is up, then
    /// counts itself in-flight for the duration of `f`.
    pub fn admit<R>(&self, f: impl FnOnce() -> R) -> R {
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner); // lock: gate
            while st.fenced {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.in_flight += 1;
        }
        let out = f();
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner); // lock: gate
            st.in_flight -= 1;
            if st.fenced && st.in_flight == 0 {
                // The fencer waits on the same condvar.
                self.cv.notify_all();
            }
        }
        out
    }

    /// Raise the fence: new admissions park, then wait until every
    /// in-flight admission has finished. On return the caller has
    /// exclusive write access to the ingest path.
    pub fn fence(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner); // lock: gate
        st.fenced = true;
        while st.in_flight > 0 {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Raise the fence without waiting for in-flight admissions.
    ///
    /// The supervised-quiesce path uses this: the caller must keep healing
    /// dead shards while polling [`AdmissionGate::is_quiesced`], because an
    /// in-flight producer may be parked on a dead shard's full queue and
    /// only a respawned worker can unblock it. A plain [`AdmissionGate::fence`]
    /// would deadlock there.
    pub fn fence_begin(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).fenced = true; // lock: gate
    }

    /// Is the fence up with no admission in flight (the point at which the
    /// caller owns the write path)?
    pub fn is_quiesced(&self) -> bool {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner); // lock: gate
        st.fenced && st.in_flight == 0
    }

    /// Lower the fence and wake parked producers (one notification burst —
    /// they re-check the flag under the lock).
    pub fn lift(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner); // lock: gate
        st.fenced = false;
        self.cv.notify_all();
    }

    /// Is the fence currently raised?
    pub fn is_fenced(&self) -> bool {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).fenced // lock: gate
    }
}

/// Queue-depth-driven shard-count policy: the decision half of the
/// auto-scaler (the execution half is a fenced resize).
///
/// Depth is the earliest overload signal: it rises before anything is shed
/// (under `Shed`) or before producers stall (under `Block`). The policy
/// doubles on sustained depth above `grow_depth` and halves on depth at or
/// below `shrink_depth`, clamped to `[min_shards, max_shards]`. Doubling
/// (instead of +1) matches the hash routing: halving/doubling moves the
/// fewest targets for power-of-two pools and converges in O(log n) steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoScalerPolicy {
    /// Never scale below this many shards.
    pub min_shards: usize,
    /// Never scale above this many shards.
    pub max_shards: usize,
    /// Grow when the sampled queue-depth high-water mark reaches this.
    pub grow_depth: u64,
    /// Shrink when the sampled high-water mark stays at or below this.
    pub shrink_depth: u64,
}

impl Default for AutoScalerPolicy {
    fn default() -> Self {
        AutoScalerPolicy { min_shards: 1, max_shards: 16, grow_depth: 192, shrink_depth: 16 }
    }
}

impl AutoScalerPolicy {
    /// Given the current shard count and the interval's queue-depth
    /// high-water mark, the shard count to resize to — or `None` to hold.
    pub fn decide(&self, current_shards: usize, depth_hwm: u64) -> Option<usize> {
        let min = self.min_shards.max(1);
        let max = self.max_shards.max(min);
        let current = current_shards.clamp(min, max);
        if depth_hwm >= self.grow_depth && current < max {
            return Some((current * 2).min(max));
        }
        if depth_hwm <= self.shrink_depth && current > min {
            return Some((current / 2).max(min));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdi_core::event::{Category, EventSpan, Target};
    use cdi_core::time::minutes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use crate::shard::ShardMsg;

    fn populated_state(vms: std::ops::Range<u64>) -> ShardState {
        let mut st = ShardState::new(0);
        for vm in vms {
            st.apply(ShardMsg::Span {
                target: Target::Vm(vm),
                span: EventSpan::new(
                    "x",
                    Category::Performance,
                    minutes(0),
                    minutes(10 + vm as i64),
                    0.5,
                ),
            });
        }
        st.apply(ShardMsg::Watermark(minutes(100)));
        st
    }

    #[test]
    fn split_merge_places_every_target_exactly_once() {
        let st = populated_state(0..40);
        let flat = st.snapshot();
        for shards in [1usize, 2, 3, 5, 8] {
            let states = split_merge(&flat, shards, 0, minutes(100)).unwrap();
            assert_eq!(states.len(), shards);
            let total: usize = states.iter().map(ShardState::target_count).sum();
            assert_eq!(total, 40);
            for snap in &flat {
                let owners = states.iter().filter(|s| s.contains(snap.target)).count();
                assert_eq!(owners, 1, "{} must live in exactly one shard", snap.target);
            }
        }
    }

    #[test]
    fn split_merge_round_trip_is_bit_identical() {
        let st = populated_state(0..25);
        let flat = st.snapshot();
        // 1 → 4 → 1: through a grow and a shrink, the flat snapshot is
        // unchanged.
        let wide = split_merge(&flat, 4, 0, minutes(100)).unwrap();
        let mut reflat = Vec::new();
        for s in &wide {
            reflat.extend(s.snapshot());
        }
        reflat.sort_by_key(|t| t.target);
        assert_eq!(reflat, flat);
    }

    #[test]
    fn moved_targets_counts_rehash_changes() {
        let st = populated_state(0..32);
        let flat = st.snapshot();
        assert_eq!(moved_targets(&flat, 4, 4), 0);
        let moved = moved_targets(&flat, 2, 4);
        // Growing 2 → 4 relocates the targets whose hash selects the new
        // shards — strictly between none and all of them.
        assert!(moved > 0 && moved < 32, "moved {moved} of 32");
    }

    #[test]
    fn fence_waits_for_in_flight_and_blocks_new_admissions() {
        let gate = Arc::new(AdmissionGate::default());
        let running = Arc::new(AtomicUsize::new(0));

        // One admission enters and holds; the fence must not return until
        // it exits. `entered`/`hold` sequence the threads without clocks.
        let entered = Arc::new(AtomicUsize::new(0));
        let hold = Arc::new(AtomicUsize::new(1));
        let (g, r) = (Arc::clone(&gate), Arc::clone(&running));
        let (e, h) = (Arc::clone(&entered), Arc::clone(&hold));
        let producer = std::thread::spawn(move || {
            g.admit(|| {
                r.fetch_add(1, Ordering::SeqCst);
                e.store(1, Ordering::SeqCst);
                while h.load(Ordering::SeqCst) == 1 {
                    std::thread::yield_now();
                }
                r.fetch_sub(1, Ordering::SeqCst);
            })
        });
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        hold.store(0, Ordering::SeqCst);
        gate.fence();
        // The fence returned: nothing is in flight any more.
        assert_eq!(running.load(Ordering::SeqCst), 0);
        assert!(gate.is_fenced());
        producer.join().unwrap();

        // A producer arriving at a raised fence parks until lift. (Joined
        // only after the lift — it cannot finish while fenced.)
        let g = Arc::clone(&gate);
        let late = std::thread::spawn(move || g.admit(|| 42));
        std::thread::yield_now();
        gate.lift();
        assert_eq!(late.join().unwrap(), 42);
        assert!(!gate.is_fenced());
    }

    #[test]
    fn fence_begin_quiesces_without_blocking() {
        let gate = AdmissionGate::default();
        assert!(!gate.is_quiesced(), "unfenced gate is never quiesced");
        gate.fence_begin();
        assert!(gate.is_fenced());
        assert!(gate.is_quiesced(), "fenced with nothing in flight");
        gate.lift();
        assert!(!gate.is_fenced());
    }

    #[test]
    fn autoscaler_doubles_halves_and_clamps() {
        let p = AutoScalerPolicy {
            min_shards: 2,
            max_shards: 8,
            grow_depth: 100,
            shrink_depth: 10,
        };
        assert_eq!(p.decide(2, 150), Some(4));
        assert_eq!(p.decide(4, 100), Some(8));
        assert_eq!(p.decide(8, 1_000), None); // at max: hold
        assert_eq!(p.decide(8, 5), Some(4));
        assert_eq!(p.decide(4, 10), Some(2));
        assert_eq!(p.decide(2, 0), None); // at min: hold
        assert_eq!(p.decide(4, 50), None); // in band: hold
    }
}
