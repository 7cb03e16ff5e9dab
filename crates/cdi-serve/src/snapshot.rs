//! The service snapshot: the whole durable state of a service, in one
//! persisted form.
//!
//! A snapshot is the full durable state of a [`crate::service::CdiService`]
//! at a flushed watermark: one [`crate::shard::TargetSnapshot`] per target
//! (each holding the three per-category accumulator snapshots) plus the
//! loss-accounting counters. Everything else — shard count, queue sizes,
//! routing — is configuration, deliberately *not* part of the snapshot, so
//! an operator can restore into a different deployment shape (that is the
//! re-sharding procedure: snapshot, restore at the new width).
//!
//! Snapshots persist as compact columnar `cdipack` bytes
//! ([`ServiceSnapshot::to_pack`]; see [`crate::cdipack`] for the layout).
//! To read one by eye, ask a running server: the JSON-lines wire answers
//! `"Snapshot"` with the same value rendered as JSON.
//!
//! Restores re-validate every accumulator invariant; a corrupted or
//! hand-edited snapshot surfaces a typed error instead of a silently wrong
//! CDI.

use cdi_core::error::Result;
use cdi_core::time::Timestamp;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsReport;
use crate::shard::TargetSnapshot;

/// The durable state of a whole service at one flushed watermark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Start of the service period.
    pub period_start: Timestamp,
    /// The coordinated watermark at snapshot time.
    pub watermark: Timestamp,
    /// Every tracked target, sorted by target.
    pub targets: Vec<TargetSnapshot>,
    /// Service counters at snapshot time (loss accounting survives
    /// recovery).
    pub metrics: MetricsReport,
}

impl ServiceSnapshot {
    /// Serialize to compact columnar `cdipack` bytes.
    pub fn to_pack(&self) -> Vec<u8> {
        crate::cdipack::encode(self)
    }

    /// Parse from `cdipack` bytes. Total on arbitrary input: truncation,
    /// bit flips, and trailing garbage all surface as typed errors.
    pub fn from_pack(bytes: &[u8]) -> Result<ServiceSnapshot> {
        crate::cdipack::decode(bytes)
    }
}
