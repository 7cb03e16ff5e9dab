//! # cdi-core — the Comprehensive Damage Indicator
//!
//! This crate implements the primary contribution of *"Stability is Not
//! Downtime: Comprehensive Stability Evaluation for Large-Scale Cloud
//! Servers in Alibaba Cloud"* (ICDE 2025): an event-driven stability metric
//! for fleets of cloud servers.
//!
//! The paper's insight is that **stability is not downtime** — only 27% of
//! stability tickets concern unavailability. Definition 1 frames stability
//! as the capacity to deliver and manage computational resources in a
//! *continuous* and *consistent* manner, which decomposes into three issue
//! categories, each with its own sub-metric:
//!
//! - **Unavailability Indicator** — continuity: crash/stall time over
//!   service time.
//! - **Performance Indicator** — consistency: severity-weighted degradation
//!   time over service time.
//! - **Control-Plane Indicator** — manageability: severity-weighted
//!   uncontrollability time over service time.
//!
//! ## Pipeline
//!
//! 1. [`event`] — the CloudBot event model (Table II of the paper) and the
//!    weighted spans `(t_s, t_e, w)` the indicator consumes.
//! 2. [`catalog`] — per-event-name metadata: category, period semantics,
//!    expiry, default severity.
//! 3. [`period`] — Section IV-B: derive `[t_s, t_e]` from raw events, both
//!    stateless (logged-duration or windowed) and stateful (start/end
//!    pairing with consecutive-duplicate filtering).
//! 4. [`weight`] — Section IV-C: expert level weights (Eq. 1), customer
//!    ticket-rank weights (Eq. 2), blended by AHP priorities (Eq. 3).
//! 5. [`indicator`] — Section IV-D: Algorithm 1 via an `O(n log n)`
//!    sweep-line max-weight envelope, fleet aggregation (Formula 4), and
//!    event-level drill-down (Section VI-C).
//! 6. [`baseline`] — the incumbent metrics CDI is compared against in
//!    Fig. 5: Downtime Percentage and Azure-style Annual Interruption Rate.
//!
//! [`customer`] additionally implements the paper's Section VIII-B proposal:
//! the Customer-Perspective Indicator computed over the event subset
//! disclosed through instance health diagnosis; [`streaming`] provides the
//! watermark-based accumulator that real-time consumers (the Section VIII-C
//! operation-platform optimization) use instead of daily batch replays.
//!
//! ## Quick example
//!
//! ```
//! use cdi_core::event::{Category, EventSpan};
//! use cdi_core::indicator::{cdi, ServicePeriod};
//! use cdi_core::time::minutes;
//!
//! // Table IV, VM 3: two slow_io spans (w = 0.5) and one overlapping
//! // vcpu_high span (w = 0.6) over a 1000-minute service period.
//! let spans = vec![
//!     EventSpan::new("slow_io", Category::Performance, minutes(488), minutes(490), 0.5),
//!     EventSpan::new("slow_io", Category::Performance, minutes(490), minutes(492), 0.5),
//!     EventSpan::new("vcpu_high", Category::Performance, minutes(490), minutes(495), 0.6),
//! ];
//! let period = ServicePeriod::new(0, minutes(1000)).unwrap();
//! let q = cdi(&spans, period).unwrap();
//! assert_eq!(q, 0.004);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod catalog;
pub mod customer;
pub mod error;
pub mod event;
pub mod indicator;
pub mod num;
pub mod period;
pub mod quarantine;
pub mod streaming;
pub mod time;
pub mod weight;

pub use catalog::{EventCatalog, EventSpec, PeriodKind};
pub use error::{CdiError, Result};
pub use event::{Category, EventSpan, RawEvent, Severity, Target};
pub use indicator::{cdi, CdiBreakdown, ServicePeriod, VmCdi};
pub use quarantine::{
    assign_weights_lenient, derive_periods_lenient, DerivationOutcome, QuarantineReason,
    QuarantinedEvent,
};
pub use streaming::{AccumulatorSnapshot, CdiAccumulator};
pub use time::{minutes, TimeRange, Timestamp};
