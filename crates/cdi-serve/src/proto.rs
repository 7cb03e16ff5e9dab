//! The wire protocol: one request/response enum, two wire dialects.
//!
//! The *JSON-lines* dialect is one request per line, one response line per
//! request, both serde-JSON enums tagged by variant name — payload
//! variants serialize as `{"Variant":{...}}`, payload-free ones (`Flush`,
//! `Metrics`, `Snapshot`, `Shutdown`) as the bare string `"Variant"` —
//! trivially scriptable with `nc` and a JSON tool.
//!
//! The *cdipack* dialect carries the same enums as binary frames
//! (varint-length-prefixed, delta-encoded timestamps, dictionary-encoded
//! targets and names; see [`crate::cdipack`]). A connection selects it by
//! leading with [`crate::cdipack::WIRE_MAGIC`], whose first byte can never
//! begin a JSON line; anything else is served as JSON-lines, so existing
//! `nc` scripts keep working unchanged.
//!
//! The JSON dialect comes from the serde derives below; the binary one is
//! declared once per type in [`crate::cdipack`] (a new verb is one variant
//! here, one line there, and one `dispatch` arm in [`crate::server`]).
//! Only `cdipack` is ever persisted; JSON is the view for people.
//!
//! Either way the protocol is deliberately stateless per request (no
//! session state beyond the TCP connection and its negotiated dialect), so
//! any number of clients can ingest and query concurrently; ordering
//! guarantees are exactly the service's: a client that needs "all my spans
//! are visible" sends `Flush` and waits for its `Ok`.

use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::CdiBreakdown;
use cdi_core::time::Timestamp;
use serde::{Deserialize, Serialize};
use simfleet::Scope;

use crate::lifecycle::ResizeOutcome;
use crate::metrics::MetricsReport;
use crate::shard::TargetCdi;
use crate::snapshot::ServiceSnapshot;

/// A client request — one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Deliver a span to a target (NC targets fan out per service config).
    Ingest {
        /// The span's target.
        target: Target,
        /// The weighted span.
        span: EventSpan,
    },
    /// Advance the coordinated watermark.
    Advance {
        /// New watermark (ms); must not regress.
        watermark: Timestamp,
    },
    /// Block until everything accepted so far is applied.
    Flush,
    /// Live CDI of one target.
    Point {
        /// The target to look up.
        target: Target,
    },
    /// The `k` worst targets by one category's indicator.
    TopK {
        /// How many targets.
        k: usize,
        /// Which sub-metric to rank by.
        category: Category,
    },
    /// Formula 4 rollup over a fleet hierarchy scope.
    Rollup {
        /// The scope to aggregate.
        scope: Scope,
    },
    /// Service counters.
    Metrics,
    /// Freeze the full service state.
    Snapshot,
    /// Elastically resize the shard pool while producers keep writing.
    Resize {
        /// New shard count (≥ 1).
        shards: usize,
    },
    /// Run one chaos-drill operation against the shard pool.
    Drill {
        /// The operation.
        op: DrillOp,
    },
    /// Stop accepting connections and shut the server down.
    Shutdown,
    /// Deliver many spans in one request (the batch form the cdipack
    /// dialect compresses with target/name dictionaries and delta-encoded
    /// timestamps; also valid, if verbose, in JSON).
    IngestBatch {
        /// The spans, in delivery order.
        items: Vec<IngestItem>,
    },
    /// Current active batch-outage clusters from the attached diagnosis
    /// layer (an error if the server was started without one).
    Diagnose,
}

/// One span delivery inside an [`Request::IngestBatch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestItem {
    /// The span's target.
    pub target: Target,
    /// The weighted span.
    pub span: EventSpan,
}

/// A chaos-drill operation, driven over the wire so drills audit the
/// service exactly as an external operator would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DrillOp {
    /// Kill one shard worker (its live state is wiped; supervision
    /// respawns it from its image chain + journal).
    KillShard {
        /// Index of the shard to kill.
        shard: usize,
    },
    /// Restart every shard in place, one at a time, each under its own
    /// fence epoch.
    RollingRestart,
    /// Sweep the pool for dead shards and respawn them.
    Supervise,
}

/// Where a diagnosed outage lands in the fleet hierarchy — the wire's
/// topology-tagged mirror of a diagnosis scope (a superset of
/// [`simfleet::Scope`] with a `Global` level).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutageScope {
    /// A single VM.
    Vm(u64),
    /// One physical host and everything on it.
    Nc(u64),
    /// A cluster, by name.
    Cluster(String),
    /// An availability zone, by name.
    Az(String),
    /// A whole region, by name.
    Region(String),
    /// The entire fleet.
    Global,
}

/// One active diagnosed batch outage, as answered by [`Request::Diagnose`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageSummary {
    /// The diagnosed root scope.
    pub scope: OutageScope,
    /// The damaged stability category.
    pub category: Category,
    /// When the outage opened (ms).
    pub start: Timestamp,
    /// End of the last tick that extended it (ms, exclusive).
    pub end: Timestamp,
    /// Ticks the outage has spanned so far.
    pub ticks: usize,
    /// Peak simultaneous spiking VMs inside the scope.
    pub spiking_vms: usize,
    /// VMs the scope covers.
    pub total_vms: usize,
    /// Peak distinct spiking hosts inside the scope.
    pub spiking_ncs: usize,
    /// Peak damage concentration (spiking / covered VMs).
    pub concentration: f64,
    /// Peak ranker confidence (concentration × scope isolation).
    pub confidence: f64,
}

/// One entry of a top-K answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopEntry {
    /// The target.
    pub target: Target,
    /// Its indicator value for the ranked category.
    pub score: f64,
}

/// A server response — one JSON object per line, mirroring the request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The request succeeded with nothing to report.
    Ok,
    /// The request failed; the service state is unchanged.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Outcome of an `Ingest` (deliveries after NC fan-out).
    Ingested {
        /// Deliveries accepted.
        accepted: usize,
        /// Deliveries shed by full queues.
        shed: usize,
    },
    /// Answer to `Point`; `found` is `None` for never-seen targets.
    Point {
        /// The live CDI, if the target is tracked.
        found: Option<TargetCdi>,
    },
    /// Answer to `TopK`, descending by score.
    TopK {
        /// The merged worst targets.
        entries: Vec<TopEntry>,
    },
    /// Answer to `Rollup`.
    Rollup {
        /// VMs beneath the scope.
        vm_count: usize,
        /// Their Formula 4 aggregate.
        breakdown: CdiBreakdown,
    },
    /// Answer to `Metrics`.
    Metrics {
        /// The counters.
        report: MetricsReport,
    },
    /// Answer to `Snapshot`.
    Snapshot {
        /// The full serializable service state.
        snapshot: ServiceSnapshot,
    },
    /// Answer to `Resize`: the committed outcome.
    Resized {
        /// What the resize did (epoch, widths, moved targets, drain).
        outcome: ResizeOutcome,
    },
    /// Answer to `Drill { op: Supervise }`.
    Supervised {
        /// Dead shards respawned by the sweep.
        respawned: usize,
    },
    /// Acknowledgement of `Shutdown`; the server exits after this line.
    ShuttingDown,
    /// Answer to `Diagnose`: active outage clusters, most severe first.
    Diagnoses {
        /// The currently open diagnosed outages.
        outages: Vec<OutageSummary>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request::Ingest {
                target: Target::Vm(3),
                span: EventSpan::new(
                    "slow_io",
                    Category::Performance,
                    60_000,
                    120_000,
                    0.5,
                ),
            },
            Request::Advance { watermark: 3_600_000 },
            Request::Flush,
            Request::Point { target: Target::Nc(1) },
            Request::TopK { k: 5, category: Category::Unavailability },
            Request::Rollup { scope: Scope::Az("r1-a".into()) },
            Request::Metrics,
            Request::Snapshot,
            Request::Resize { shards: 8 },
            Request::Drill { op: DrillOp::KillShard { shard: 2 } },
            Request::Drill { op: DrillOp::RollingRestart },
            Request::Drill { op: DrillOp::Supervise },
            Request::Shutdown,
            Request::IngestBatch {
                items: vec![IngestItem {
                    target: Target::Nc(2),
                    span: EventSpan::new(
                        "nic_flapping",
                        Category::Unavailability,
                        1_000,
                        2_000,
                        1.0,
                    ),
                }],
            },
            Request::Diagnose,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req, "line was {line}");
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resps = vec![
            Response::Ok,
            Response::Error { message: "bad".into() },
            Response::Ingested { accepted: 5, shed: 1 },
            Response::Point { found: None },
            Response::TopK {
                entries: vec![TopEntry { target: Target::Vm(1), score: 0.25 }],
            },
            Response::Resized {
                outcome: ResizeOutcome {
                    epoch: 3,
                    from_shards: 2,
                    to_shards: 4,
                    moved_targets: 17,
                    drained_msgs: 120,
                },
            },
            Response::Supervised { respawned: 1 },
            Response::ShuttingDown,
            Response::Diagnoses {
                outages: vec![OutageSummary {
                    scope: OutageScope::Cluster("r1-a0-c1".into()),
                    category: Category::Performance,
                    start: 18_000_000,
                    end: 20_700_000,
                    ticks: 3,
                    spiking_vms: 8,
                    total_vms: 8,
                    spiking_ncs: 2,
                    concentration: 1.0,
                    confidence: 1.0,
                }],
            },
        ];
        for resp in resps {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp, "line was {line}");
        }
    }
}
