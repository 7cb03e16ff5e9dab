//! # minispark — an embedded partitioned batch-dataflow engine
//!
//! The paper computes the CDI daily with an Apache Spark application over
//! ~10 GB of events (Section V, Fig. 4). This crate is the Spark stand-in
//! for the reproduction: a small, multi-threaded, partitioned dataflow
//! engine plus the storage services around it.
//!
//! - [`dataset`] — lazy `Dataset<T>` plans: narrow transformations
//!   (map/filter/flat_map) compose per partition without materialization;
//!   wide transformations (group_by_key/reduce_by_key/join/sort) introduce a
//!   hash shuffle that materializes once and is shared by downstream
//!   consumers, mirroring Spark's stage split at shuffle boundaries.
//! - [`partition`] — [`Partition<T>`]: the `Arc`-shared immutable row
//!   vectors plans exchange. Materialized data (shuffles, sorts, caches,
//!   sources) is pinned once and read everywhere by refcount bump; deep
//!   copies happen only when a consumer needs ownership of still-shared
//!   rows, and are counted in the engine metrics.
//! - [`exec`] — the execution context: a scoped thread pool with
//!   chunked work-stealing over partitions, panic-isolated tasks with
//!   bounded retries (Spark's task re-execution), plus task/shuffle/copy
//!   metrics.
//! - [`hash`] — the fixed-seed [`hash::FixedState`] hasher: shuffle bucket
//!   assignment is identical across plans, processes, and runs, which is
//!   what makes joins co-partition and committed results reproducible.
//! - [`store`] — the storage substrates of the paper's Fig. 4: an
//!   append-only time-indexed [`store::EventLog`] (Simple Log Service
//!   stand-in), columnar [`store::Table`]s with `cdipack` (`.cdp`)
//!   persistence (MaxCompute stand-in) and a versioned [`store::ConfigStore`]
//!   (MySQL stand-in).
//! - [`pack`] — the `cdipack` binary encoding primitives (varints, zigzag
//!   deltas, bit-exact floats, length-prefixed strings) shared by table
//!   persistence here and the cdi-serve wire/snapshot codecs.
//! - [`bi`] — the Business-Intelligence layer: aggregation queries over
//!   tables with dimension drill-down and the weighted-ratio aggregate that
//!   realizes the paper's Formula 4 at any grouping level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bi;
pub mod dataset;
pub mod error;
pub mod exec;
pub mod hash;
pub mod pack;
pub mod partition;
pub mod store;

pub use dataset::Dataset;
pub use error::{Result, SparkError};
pub use exec::{ExecContext, MetricsSnapshot, RetryPolicy, TaskError};
pub use partition::Partition;
