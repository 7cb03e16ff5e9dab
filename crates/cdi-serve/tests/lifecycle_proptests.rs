//! Property-based tests for the elastic re-sharding split/merge step:
//! across arbitrary old/new shard counts, every target lands in exactly
//! one new shard and its accumulators survive the move bit-identically.
//!
//! This is the invariant the resize chaos gate leans on: if split-then-
//! merge is lossless at the snapshot level, a live resize (drain → split
//! → cutover) cannot perturb per-target CDI no matter how the pool is
//! grown, shrunk, or grown again.

use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::time::minutes;
use cdi_serve::lifecycle::{moved_targets, shard_index, split_merge};
use cdi_serve::shard::{ShardMsg, ShardState};
use proptest::prelude::*;

const HORIZON_MIN: i64 = 600;

/// Strategy: one delivery — a target drawn from a small id space (so
/// targets repeat and accumulate multi-span state) and a minute-aligned
/// span with weight `k/997`, off every binary and decimal grid.
fn delivery_strategy() -> impl Strategy<Value = (Target, EventSpan)> {
    (0u64..24, 0u64..2, 0i64..HORIZON_MIN, 1i64..120, 1u32..=997, 0usize..3).prop_map(
        |(id, kind, start, len, k, cat)| {
            let target = if kind == 0 { Target::Vm(id) } else { Target::Nc(id) };
            let category = match cat {
                0 => Category::Unavailability,
                1 => Category::Performance,
                _ => Category::ControlPlane,
            };
            let span = EventSpan::new(
                "prop_event",
                category,
                minutes(start),
                minutes(start + len),
                f64::from(k) / 997.0,
            );
            (target, span)
        },
    )
}

/// Build one flat reference state from the deliveries and advance it to
/// the watermark — the "uninterrupted single shard" the re-sharded pools
/// are compared against.
fn reference_state(deliveries: &[(Target, EventSpan)], mark: i64) -> ShardState {
    let mut st = ShardState::new(0);
    for (target, span) in deliveries {
        st.apply(ShardMsg::Span { target: *target, span: span.clone() });
    }
    st.apply(ShardMsg::Watermark(minutes(mark)));
    st
}

/// Flatten a pool back into one sorted snapshot list.
fn flatten(pool: &[ShardState]) -> Vec<cdi_serve::shard::TargetSnapshot> {
    let mut all: Vec<_> = pool.iter().flat_map(|s| s.snapshot()).collect();
    all.sort_by_key(|s| s.target);
    all
}

proptest! {
    /// Split-then-merge across arbitrary widths is lossless: re-hashing
    /// the flat snapshot into `from` shards and then into `to` shards
    /// places every target in exactly one shard at each width, and the
    /// re-flattened snapshots are *equal* to the originals — accumulator
    /// state (frozen integrals, open spans, late counters, watermarks)
    /// passes through both moves untouched.
    #[test]
    fn split_then_merge_is_lossless(
        deliveries in prop::collection::vec(delivery_strategy(), 1..60),
        mark in 0i64..=HORIZON_MIN,
        from in 1usize..9,
        to in 1usize..9,
    ) {
        let reference = reference_state(&deliveries, mark);
        let flat = reference.snapshot();
        let wm = reference.watermark();

        // Split into `from` shards.
        let split = split_merge(&flat, from, 0, wm).unwrap();
        prop_assert_eq!(split.len(), from);
        for snap in &flat {
            let owners: usize =
                split.iter().filter(|s| s.contains(snap.target)).count();
            prop_assert_eq!(owners, 1, "target {:?} after split", snap.target);
        }
        let total: usize = split.iter().map(ShardState::target_count).sum();
        prop_assert_eq!(total, flat.len());
        prop_assert_eq!(flatten(&split), flat.clone());

        // Merge (or re-split) into `to` shards from the split pool's own
        // snapshots — the exact path a second live resize takes.
        let merged = split_merge(&flatten(&split), to, 0, wm).unwrap();
        prop_assert_eq!(merged.len(), to);
        for snap in &flat {
            let owners: usize =
                merged.iter().filter(|s| s.contains(snap.target)).count();
            prop_assert_eq!(owners, 1, "target {:?} after merge", snap.target);
            // ...and in the shard the routing function names.
            prop_assert!(merged[shard_index(snap.target, to)].contains(snap.target));
        }
        prop_assert_eq!(flatten(&merged), flat);
        for st in &merged {
            prop_assert_eq!(st.watermark(), wm);
        }
    }

    /// The bit-identity survives serde: snapshots re-flattened after a
    /// resize serialize to the same JSON bytes as the originals, so a
    /// service snapshot taken after any number of resizes is byte-stable.
    #[test]
    fn resharded_snapshots_serialize_identically(
        deliveries in prop::collection::vec(delivery_strategy(), 1..40),
        mark in 0i64..=HORIZON_MIN,
        width in 1usize..9,
    ) {
        let reference = reference_state(&deliveries, mark);
        let flat = reference.snapshot();
        let pool = split_merge(&flat, width, 0, reference.watermark()).unwrap();
        let a = serde_json::to_string(&flat).unwrap();
        let b = serde_json::to_string(&flatten(&pool)).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `moved_targets` agrees with the routing function, is zero for a
    /// no-op resize, and never exceeds the target count.
    #[test]
    fn moved_targets_is_consistent_with_routing(
        deliveries in prop::collection::vec(delivery_strategy(), 1..40),
        from in 1usize..9,
        to in 1usize..9,
    ) {
        let reference = reference_state(&deliveries, HORIZON_MIN);
        let flat = reference.snapshot();
        let moved = moved_targets(&flat, from, to);
        prop_assert!(moved <= flat.len());
        prop_assert_eq!(moved_targets(&flat, from, from), 0);
        let expect = flat
            .iter()
            .filter(|s| shard_index(s.target, from) != shard_index(s.target, to))
            .count();
        prop_assert_eq!(moved, expect);
    }
}
