//! The cdipack contract over one fixed corpus — every wire verb, every
//! nested enum variant, a populated metrics report, a snapshot, a shard
//! delta and journal records:
//!
//! - each entry obeys the [`common::assert_pack_laws`] laws (round trip,
//!   deterministic bytes, total decoder, no trailing bytes);
//! - each entry encodes to exactly the bytes in `fixtures/golden.hex`,
//!   captured from the hand-written encoders before the codec was made
//!   declarative. These are persisted and wire formats: the fixture only
//!   changes together with a magic/version bump — as the entries holding
//!   accumulator columns did for image version 2 (integer damage), whose
//!   version-1 bytes stay in the fixture under `*_v1` keys and must be
//!   refused.

mod common;

use std::fmt::Debug;

use cdi_core::error::CdiError;
use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::CdiBreakdown;
use cdi_core::streaming::AccumulatorSnapshot;
use cdi_serve::cdipack::{self, Pack};
use cdi_serve::proto::{
    DrillOp, IngestItem, OutageScope, OutageSummary, Request, Response, TopEntry,
};
use cdi_serve::{
    LifecycleEvent, MetricsReport, ResizeOutcome, ServiceSnapshot, ShardDelta, ShardMsg,
    TargetCdi, TargetSnapshot,
};
use simfleet::Scope;

const GOLDEN: &str = include_str!("fixtures/golden.hex");

/// Fixture entries kept from image version 1 (`snapshot_v1`, `delta_v1`).
fn is_v1(line: &str) -> bool {
    line.split(' ').next().is_some_and(|name| name.ends_with("_v1"))
}

fn span(name: &str, category: Category, start: i64, end: i64, weight: f64) -> EventSpan {
    EventSpan { name: name.to_string(), category, start, end, weight }
}

/// A report with every counter distinct and every lifecycle event variant.
fn populated_metrics() -> MetricsReport {
    MetricsReport {
        spans_ingested: 460_123,
        spans_shed: 17,
        late_dropped: 3,
        late_clipped: 300,
        rejected: 1,
        queries: 9_000,
        snapshots: 2,
        shards: 3,
        queue_depth: 129,
        queue_depth_hwm: 1_024,
        resizes: 2,
        shard_restarts: 3,
        shard_kills: 1,
        shard_respawns: 1,
        fence_epoch: 5,
        events: vec![
            LifecycleEvent::ResizeStarted { epoch: 1, from_shards: 2, to_shards: 3 },
            LifecycleEvent::ResizeFinished {
                epoch: 1,
                from_shards: 2,
                to_shards: 3,
                moved_targets: 1_365,
                drained_msgs: 200,
            },
            LifecycleEvent::ShardRestarted { epoch: 2, shard: 0, drained_msgs: 0 },
            LifecycleEvent::ShardKilled { shard: 1 },
            LifecycleEvent::ShardRespawned {
                shard: 1,
                restored_targets: 700,
                replayed_msgs: 130,
                replayed_bytes: 70_000,
            },
        ],
    }
}

fn sample_targets() -> Vec<TargetSnapshot> {
    let acc = |ps, wm, frozen, open: Vec<EventSpan>| AccumulatorSnapshot {
        period_start: ps,
        watermark: wm,
        frozen,
        open,
        late_dropped: 2,
        late_clipped: 7,
    };
    vec![
        TargetSnapshot {
            target: Target::Vm(3),
            unavailability: acc(
                0,
                7_200_000,
                123_456_000,
                vec![span("vm_down", Category::Unavailability, 7_000_000, 7_900_000, 1.0)],
            ),
            performance: acc(0, 7_200_000, 250_000, vec![]),
            control_plane: acc(0, 7_200_000, 0, vec![]),
        },
        TargetSnapshot {
            target: Target::Nc(1),
            unavailability: acc(0, 7_200_000, 0, vec![]),
            performance: acc(
                0,
                7_200_000,
                9_500_000,
                vec![
                    span("slow_io", Category::Performance, 6_900_000, 8_000_000, 0.5),
                    span("slow_io", Category::Performance, 7_100_000, 7_300_000, 0.25),
                ],
            ),
            control_plane: acc(
                0,
                7_200_000,
                1_500_000,
                vec![span("api_error", Category::ControlPlane, 7_150_000, 7_250_000, 0.125)],
            ),
        },
    ]
}

fn sample_snapshot() -> ServiceSnapshot {
    ServiceSnapshot {
        period_start: 0,
        watermark: 7_200_000,
        targets: sample_targets(),
        metrics: populated_metrics(),
    }
}

fn sample_delta() -> ShardDelta {
    ShardDelta {
        from_watermark: 3_600_000,
        to_watermark: 7_200_000,
        rejected: 1,
        changed: sample_targets(),
    }
}

fn journal() -> Vec<ShardMsg> {
    vec![
        ShardMsg::Span {
            target: Target::Vm(4),
            span: span("nic_flap", Category::Unavailability, 100, 900, 1.0),
        },
        ShardMsg::Watermark(1_000),
        ShardMsg::Span {
            target: Target::Nc(2),
            span: span("slow_io", Category::Performance, 950, 1_400, 0.5),
        },
        ShardMsg::Crash,
    ]
}

/// Every request verb, every `DrillOp`, every `Scope` level.
fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "req.ingest",
            Request::Ingest {
                target: Target::Vm(3),
                span: span("slow_io", Category::Performance, 60_000, 120_000, 0.5),
            },
        ),
        ("req.advance", Request::Advance { watermark: 3_600_000 }),
        ("req.flush", Request::Flush),
        ("req.point", Request::Point { target: Target::Nc(1) }),
        ("req.topk", Request::TopK { k: 5, category: Category::Unavailability }),
        ("req.rollup.region", Request::Rollup { scope: Scope::Region("r1".into()) }),
        ("req.rollup.az", Request::Rollup { scope: Scope::Az("r1-a".into()) }),
        ("req.rollup.cluster", Request::Rollup { scope: Scope::Cluster("r1-a-c0".into()) }),
        ("req.rollup.nc", Request::Rollup { scope: Scope::Nc(7) }),
        ("req.rollup.vm", Request::Rollup { scope: Scope::Vm(300) }),
        ("req.metrics", Request::Metrics),
        ("req.snapshot", Request::Snapshot),
        ("req.resize", Request::Resize { shards: 8 }),
        ("req.drill.kill", Request::Drill { op: DrillOp::KillShard { shard: 2 } }),
        ("req.drill.rolling", Request::Drill { op: DrillOp::RollingRestart }),
        ("req.drill.supervise", Request::Drill { op: DrillOp::Supervise }),
        ("req.shutdown", Request::Shutdown),
        (
            "req.ingest_batch",
            Request::IngestBatch {
                items: vec![
                    IngestItem {
                        target: Target::Vm(1),
                        span: span("a", Category::Unavailability, 10, 20, 1.0),
                    },
                    IngestItem {
                        target: Target::Vm(1),
                        span: span("a", Category::Unavailability, 15, 25, 1.0),
                    },
                    IngestItem {
                        target: Target::Nc(2),
                        span: span("b", Category::ControlPlane, 12, 13, 0.125),
                    },
                ],
            },
        ),
        ("req.ingest_batch.empty", Request::IngestBatch { items: vec![] }),
        ("req.diagnose", Request::Diagnose),
    ]
}

/// Every response verb, both `Point` arms, every `OutageScope` level.
fn responses() -> Vec<(&'static str, Response)> {
    let outage = |scope, category, start, end| OutageSummary {
        scope,
        category,
        start,
        end,
        ticks: 3,
        spiking_vms: 16,
        total_vms: 64,
        spiking_ncs: 4,
        concentration: 0.25,
        confidence: 0.125,
    };
    vec![
        ("resp.ok", Response::Ok),
        ("resp.error", Response::Error { message: "bad".into() }),
        ("resp.ingested", Response::Ingested { accepted: 5, shed: 1 }),
        ("resp.point.none", Response::Point { found: None }),
        (
            "resp.point.some",
            Response::Point {
                found: Some(TargetCdi {
                    target: Target::Vm(9),
                    watermark: 1000,
                    unavailability: 0.5,
                    performance: 0.0,
                    control_plane: 1.25,
                }),
            },
        ),
        (
            "resp.topk",
            Response::TopK {
                entries: vec![
                    TopEntry { target: Target::Vm(1), score: 0.25 },
                    TopEntry { target: Target::Nc(200), score: 0.125 },
                ],
            },
        ),
        (
            "resp.rollup",
            Response::Rollup {
                vm_count: 16,
                breakdown: CdiBreakdown {
                    total_service_time: 86_400_000,
                    unavailability: 1.5,
                    performance: 0.25,
                    control_plane: 0.0,
                },
            },
        ),
        ("resp.metrics", Response::Metrics { report: populated_metrics() }),
        ("resp.snapshot", Response::Snapshot { snapshot: sample_snapshot() }),
        (
            "resp.resized",
            Response::Resized {
                outcome: ResizeOutcome {
                    epoch: 3,
                    from_shards: 2,
                    to_shards: 4,
                    moved_targets: 17,
                    drained_msgs: 120,
                },
            },
        ),
        ("resp.supervised", Response::Supervised { respawned: 1 }),
        ("resp.shutting_down", Response::ShuttingDown),
        ("resp.diagnoses.empty", Response::Diagnoses { outages: vec![] }),
        (
            "resp.diagnoses",
            Response::Diagnoses {
                outages: vec![
                    outage(OutageScope::Vm(42), Category::Performance, -5, 5),
                    outage(OutageScope::Nc(7), Category::Unavailability, 0, 900_000),
                    outage(
                        OutageScope::Cluster("r1-a0-c1".into()),
                        Category::ControlPlane,
                        18_000_000,
                        20_700_000,
                    ),
                    outage(OutageScope::Az("r1-a1".into()), Category::Unavailability, 1, 2),
                    outage(OutageScope::Region("r1".into()), Category::Performance, 3, 4),
                    outage(OutageScope::Global, Category::ControlPlane, 0, 900_000),
                ],
            },
        ),
    ]
}

/// Apply a generic `fn(name, &impl Pack) -> R` to every (heterogeneously
/// typed) corpus entry, in fixture order, collecting the results.
macro_rules! map_corpus {
    ($f:path) => {{
        let mut out = Vec::new();
        for (name, req) in requests() {
            out.push($f(name, &req));
        }
        for (name, resp) in responses() {
            out.push($f(name, &resp));
        }
        out.push($f("snapshot", &sample_snapshot()));
        out.push($f("delta", &sample_delta()));
        for (i, msg) in journal().iter().enumerate() {
            out.push($f(&format!("journal.{i}"), msg));
        }
        out
    }};
}

#[test]
fn every_corpus_entry_obeys_the_pack_laws() {
    fn check<T: Pack + PartialEq + Debug>(_name: &str, value: &T) {
        common::assert_pack_laws(value);
    }
    let _checked: Vec<()> = map_corpus!(check);
}

#[test]
fn golden_bytes_are_reproduced() {
    fn line<T: Pack>(name: &str, value: &T) -> String {
        let hex: String = cdipack::encode(value).iter().map(|b| format!("{b:02x}")).collect();
        format!("{name} {hex}")
    }
    let got = map_corpus!(line);
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !is_v1(l)).collect();
    assert_eq!(got.len(), golden.len(), "corpus and fixture must list the same entries");
    for (got, golden) in got.iter().zip(golden) {
        assert_eq!(got, golden, "an entry no longer encodes to its golden bytes");
    }
}

/// Images written before version 2 hold `f64` damage bits (and, for a
/// delta, the advance chain): they are refused by their magic, not
/// misread as integers.
#[test]
fn v1_images_are_refused_with_a_typed_error() {
    let v1: Vec<(&str, Vec<u8>)> = GOLDEN
        .lines()
        .filter(|l| is_v1(l))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, hex)| {
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            (name, bytes)
        })
        .collect();
    assert_eq!(v1.len(), 2, "one v1 snapshot and one v1 delta");
    for (name, bytes) in v1 {
        let err = match name {
            "snapshot_v1" => cdipack::decode::<ServiceSnapshot>(&bytes).map(|_| ()),
            "delta_v1" => cdipack::decode::<ShardDelta>(&bytes).map(|_| ()),
            other => panic!("unexpected v1 fixture entry {other}"),
        }
        .unwrap_err();
        assert!(
            matches!(&err, CdiError::InvalidArgument(m) if m.contains("bad magic")),
            "{name}: {err}"
        );
    }
}

/// Journal records are a stream, not a framed document: they concatenate
/// and decode back one by one until the bytes run out.
#[test]
fn journal_records_concatenate_as_a_stream() {
    let msgs = journal();
    let mut w = minispark::pack::PackWriter::new();
    for m in &msgs {
        m.put(&mut w);
    }
    let bytes = w.into_bytes();
    let mut r = minispark::pack::PackReader::new(&bytes);
    let mut back = Vec::new();
    while !r.is_done() {
        back.push(ShardMsg::take(&mut r).unwrap());
    }
    assert_eq!(back, msgs);
}
