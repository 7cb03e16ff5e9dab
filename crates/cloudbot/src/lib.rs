//! # cloudbot — the AIOps substrate of the CDI reproduction
//!
//! CloudBot is the system described in Section II of *"Stability is Not
//! Downtime"*: it collects multi-modal raw data, extracts it into
//! interpretable events, matches operation rules over those events, and
//! executes operation actions. CDI (in `cdi-core`) is then computed from the
//! same events.
//!
//! The crate mirrors Fig. 1's architecture:
//!
//! - [`collector`] — Data Collector: pulls metrics, logs, and control-plane
//!   operation outcomes from the simulated world (`simfleet`), standing in
//!   for the eBPF-based production collector.
//! - [`extractor`] — Event Extractor: expert threshold/log rules,
//!   statistics-based extraction (STL residuals + K-Sigma / SPOT), and
//!   control-plane outcome events; all emit `cdi_core::RawEvent`s.
//! - [`rules`] — Rule Engine: boolean expressions over co-occurring events
//!   (e.g. `slow_io && nic_flapping && !vm_hang`), with a small parser.
//! - [`ops`] — Operation Platform: Table III's action taxonomy, conflict
//!   resolution, ordered execution against the fleet.
//! - [`tickets`] — the ticket classifier feeding Fig. 2 and the Eq. 2
//!   customer weights.
//! - [`optimize`] — Section VIII-C: CDI-weight-driven action prioritization.
//! - [`surge`] — §II-F's event-surge alerting against batches of missing
//!   operations (multi-customer surges page engineers immediately).
//! - [`mining`] — §II-D's FP-growth association mining over event
//!   co-occurrence, for discovering candidate operation rules.
//! - [`predict`] — the `nc_down_prediction` scorer driving Case 8.
//! - [`pipeline`] — end-to-end glue: world + day → events → weighted spans →
//!   per-VM CDI rows, the equivalent of the paper's daily Spark job.
//! - [`feed`] — the same extraction sliced into watermarked span batches,
//!   feeding the live serving layer (`cdi-serve`) instead of a daily batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collector;
pub mod extractor;
pub mod feed;
pub mod mining;
pub mod ops;
pub mod optimize;
pub mod pipeline;
pub mod predict;
pub mod rules;
pub mod surge;
pub mod tickets;

pub use collector::{CollectedData, Collector};
pub use extractor::{Extractor, ExtractorConfig};
pub use feed::{FeedBatch, LiveFeed};
pub use ops::{ActionKind, ActionRequest, OperationPlatform};
pub use pipeline::{DailyPipeline, RunReport};
pub use rules::{OperationRule, RuleEngine};
