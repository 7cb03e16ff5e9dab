//! # cdi-serve — the live CDI serving layer
//!
//! The batch daily job (root crate, `daily_job`) answers "what was every
//! VM's CDI *yesterday*"; the operation-platform applications of Section
//! VIII-C — potential-problem detection, action optimization — need "what
//! is this target's CDI *right now*", for millions of targets, without
//! replaying history. This crate is that service:
//!
//! - **Sharded ingest** ([`service`], [`shard`], [`queue`]): weighted
//!   spans are routed to N shard workers by `minispark`'s deterministic
//!   `FixedState` hash of the target. Each shard keeps one streaming
//!   [`cdi_core::CdiAccumulator`] per target per stability category,
//!   exactly mirroring the batch path's per-sub-metric split. Bounded
//!   queues make overload explicit: block the producer or shed-and-count,
//!   never an unbounded buffer.
//! - **Coordinated watermark**: span time advances through a single
//!   service-level watermark broadcast to every shard, so a flushed
//!   service is equivalent to a batch computation over everything it
//!   accepted.
//! - **Queries** ([`topk`], [`rollup`]): point lookups, global top-K worst
//!   targets via per-shard top-K plus a k-way heap merge, and Formula 4
//!   rollups over the simfleet hierarchy (region → AZ → cluster → NC →
//!   VM).
//! - **Durability** ([`snapshot`], [`cdipack`]): snapshots of every
//!   accumulator as compact columnar `cdipack` bytes — the one persisted
//!   form — restorable into a *different* shard count (targets re-hash):
//!   the crash-recovery and re-sharding story, chaos-tested to equal an
//!   uninterrupted run (damage is an integer sum, so `==`). Shard respawn replays a chain
//!   of `cdipack`-encoded images (a full base, then incremental epoch
//!   deltas of the same shape) and a byte journal, so recovery cost is
//!   O(recent change), not O(total state).
//! - **The wire** ([`proto`], [`server`], [`cdipack`]): one
//!   request/response protocol over `std::net` TCP with a small thread
//!   pool, in two negotiated dialects — JSON lines for scriptability, or
//!   varint-framed columnar binary frames when the client leads with
//!   [`cdipack::WIRE_MAGIC`]. No async runtime, no new dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdipack;
pub mod lifecycle;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod rollup;
pub mod server;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod topk;
pub mod tracked;

pub use cdipack::{ShardDelta, WIRE_MAGIC};
pub use lifecycle::{AdmissionGate, AutoScalerPolicy, ResizeOutcome};
pub use metrics::{LifecycleEvent, MetricsReport, ServiceMetrics};
pub use proto::{IngestItem, OutageScope, OutageSummary};
pub use queue::{BackpressurePolicy, BoundedQueue, PushOutcome};
pub use rollup::{rollup, Rollup};
pub use server::{serve, serve_with_diag, DiagProvider, ServerHandle};
pub use service::{CdiService, IngestReport, ServeConfig};
pub use shard::{DurableStats, ShardMsg, TargetCdi, TargetSnapshot};
pub use snapshot::ServiceSnapshot;
pub use topk::merge_top_k;
pub use tracked::{TrackedCondvar, TrackedMutex, TrackedRwLock};
