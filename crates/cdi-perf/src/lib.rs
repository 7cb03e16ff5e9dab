//! `cdi-perf` — the repository's one benchmark.
//!
//! One seeded harness drives the live wire path (simfleet day → collector
//! and extractor → `LiveFeed` → cdipack frame → TCP `serve` → `CdiService`
//! shards → watermark commit → query) and the daily job (`daily_job::run`
//! → `.cdp` store → BI drill-down), checks the outputs, prints every
//! metric by name with its unit, and — in a separate traced run — breaks
//! the same work down by layer. Layers are measured from outside, by
//! timing calls into their public functions; nothing outside this crate
//! is instrumented. See the crate's README for the metric map.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod alloc;
pub mod batch;
pub mod context;
pub mod input;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
