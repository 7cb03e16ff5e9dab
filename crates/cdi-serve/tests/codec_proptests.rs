//! Property-based tests of the cdipack codec: arbitrary accumulated
//! states and ingest batches obey the same [`common::assert_pack_laws`]
//! laws as the fixed corpus in `pack_laws.rs` — bit-exact round trip,
//! byte-deterministic re-encode, and a decoder that is *total*: any
//! truncation or bit flip anywhere in the byte stream yields a typed
//! error or a (harmless) decoded value, never a panic.

mod common;

use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::time::minutes;
use cdi_serve::proto::{IngestItem, Request};
use cdi_serve::shard::{ShardMsg, ShardState};
use cdi_serve::{MetricsReport, ServiceSnapshot, ShardDelta};
use common::assert_pack_laws;
use proptest::prelude::*;

const HORIZON_MIN: i64 = 600;

/// Strategy: one delivery — a target drawn from a small id space (so
/// targets repeat and accumulate multi-span state, exercising the span
/// dictionary) and a minute-aligned span with weight on a grid.
fn delivery_strategy() -> impl Strategy<Value = (Target, EventSpan)> {
    (0u64..24, 0u64..2, 0i64..HORIZON_MIN, 1i64..120, 1usize..=10, 0usize..12)
        .prop_map(|(id, kind, start, len, w10, cat_name)| {
            let target = if kind == 0 { Target::Vm(id) } else { Target::Nc(id) };
            let category = match cat_name % 3 {
                0 => Category::Unavailability,
                1 => Category::Performance,
                _ => Category::ControlPlane,
            };
            let name = ["host_down", "nic_flapping", "slow_io", "live_migration"][cat_name / 3];
            let span = EventSpan::new(
                name,
                category,
                minutes(start),
                minutes(start + len),
                w10 as f64 / 10.0,
            );
            (target, span)
        })
}

/// Accumulate the deliveries the way the service would: through a shard
/// state, watermark last, open spans left open.
fn accumulate(deliveries: &[(Target, EventSpan)], mark: i64) -> ShardState {
    let mut st = ShardState::new(0);
    for (target, span) in deliveries {
        st.apply(ShardMsg::Span { target: *target, span: span.clone() });
    }
    st.apply(ShardMsg::Watermark(minutes(mark)));
    st
}

fn build_snapshot(deliveries: &[(Target, EventSpan)], mark: i64) -> ServiceSnapshot {
    let st = accumulate(deliveries, mark);
    ServiceSnapshot {
        period_start: 0,
        watermark: st.watermark(),
        targets: st.snapshot(),
        metrics: MetricsReport::default(),
    }
}

proptest! {
    /// The full snapshot structure — open spans, frozen damage and all —
    /// for arbitrary accumulated state.
    #[test]
    fn snapshots_obey_the_pack_laws(
        deliveries in prop::collection::vec(delivery_strategy(), 1..30),
        mark in 1i64..=HORIZON_MIN,
    ) {
        assert_pack_laws(&build_snapshot(&deliveries, mark));
    }

    /// A shard's durable image (the base shape: every target, at the
    /// watermark) over the same arbitrary state.
    #[test]
    fn shard_deltas_obey_the_pack_laws(
        deliveries in prop::collection::vec(delivery_strategy(), 1..30),
        mark in 1i64..=HORIZON_MIN,
    ) {
        let st = accumulate(&deliveries, mark);
        assert_pack_laws(&ShardDelta {
            from_watermark: 0,
            to_watermark: st.watermark(),
            rejected: st.rejected(),
            changed: st.snapshot(),
        });
    }

    /// Batched ingest requests — the hot wire path — with their
    /// dictionaries intact.
    #[test]
    fn ingest_batches_obey_the_pack_laws(
        deliveries in prop::collection::vec(delivery_strategy(), 1..50),
    ) {
        assert_pack_laws(&Request::IngestBatch {
            items: deliveries
                .into_iter()
                .map(|(target, span)| IngestItem { target, span })
                .collect(),
        });
    }

    /// The laws flip each byte with one fixed mask; here the mask, the
    /// position and the truncation point are all arbitrary.
    #[test]
    fn snapshot_decoder_is_total_under_corruption(
        deliveries in prop::collection::vec(delivery_strategy(), 1..20),
        mark in 1i64..=HORIZON_MIN,
        at in 0usize..4096,
        mask in 1u8..=255,
        cut in 0usize..4096,
    ) {
        let mut bytes = build_snapshot(&deliveries, mark).to_pack();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        let cut = cut % (bytes.len() + 1);
        let _ = ServiceSnapshot::from_pack(&bytes[..cut]).map(|_| ());
        let _ = ServiceSnapshot::from_pack(&bytes).map(|_| ());
    }
}
