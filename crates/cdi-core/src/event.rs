//! The CloudBot event model (Table II of the paper) and the weighted spans
//! that Algorithm 1 consumes.
//!
//! A [`RawEvent`] is what the extractor emits: a point-in-time observation
//! with a name, target, severity level and expiry. The period-derivation
//! step ([`crate::period`]) turns raw events into [`EventSpan`]s — the
//! `(t_s, t_e, w)` triples of Section IV-A.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::time::Timestamp;

/// Severity level of an event, assigned by the extractor per Table II.
///
/// The paper's Example 3 uses `m = 4` levels of increasing severity; the
/// expert weight of level `i` is `i / m` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Lowest severity: anomalous but usually harmless.
    Warning,
    /// Noticeable degradation.
    Error,
    /// Severe degradation; customers likely affected.
    Critical,
    /// Total loss of the affected capability.
    Fatal,
}

impl Severity {
    /// All severities in increasing order.
    pub const ALL: [Severity; 4] = [
        Severity::Warning,
        Severity::Error,
        Severity::Critical,
        Severity::Fatal,
    ];

    /// 1-based rank of this level (`i` in Eq. 1).
    pub fn rank(&self) -> usize {
        match self {
            Severity::Warning => 1,
            Severity::Error => 2,
            Severity::Critical => 3,
            Severity::Fatal => 4,
        }
    }

    /// Number of levels (`m` in Eq. 1).
    pub const fn count() -> usize {
        4
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Critical => "critical",
            Severity::Fatal => "fatal",
        };
        f.write_str(s)
    }
}

/// Stability-issue category per Definition 1 / Section III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// The VM cannot provide computational service at all (crash, stall).
    Unavailability,
    /// The VM is up but performs below expectation (slow IO, packet loss).
    Performance,
    /// Control operations on the VM fail (start/stop/release/resize).
    ControlPlane,
}

impl Category {
    /// All categories, in the paper's order.
    pub const ALL: [Category; 3] =
        [Category::Unavailability, Category::Performance, Category::ControlPlane];

    /// Position of this category in [`Category::ALL`] — the index of its
    /// slot in every per-target `[_; 3]` triple.
    pub fn index(self) -> usize {
        match self {
            Category::Unavailability => 0,
            Category::Performance => 1,
            Category::ControlPlane => 2,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Unavailability => "unavailability",
            Category::Performance => "performance",
            Category::ControlPlane => "control-plane",
        };
        f.write_str(s)
    }
}

/// Target of an event: a VM or a physical machine (node controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Target {
    /// A virtual machine.
    Vm(u64),
    /// A node controller (physical host).
    Nc(u64),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Vm(id) => write!(f, "vm-{id}"),
            Target::Nc(id) => write!(f, "nc-{id}"),
        }
    }
}

/// A raw extracted event — the fields of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawEvent {
    /// Interpretable name, e.g. `slow_io`.
    pub name: String,
    /// Timestamp when the event was extracted (ms).
    pub time: Timestamp,
    /// Target of the event.
    pub target: Target,
    /// Interval between extraction and expiry (ms).
    pub expire_interval: i64,
    /// Severity level, target-dependent (Table II notes that events with
    /// identical names may carry different levels).
    pub level: Severity,
    /// Measured impact duration in ms, for events whose source logs it
    /// directly (e.g. `qemu_live_upgrade`); `None` otherwise.
    pub measured_duration: Option<i64>,
}

impl RawEvent {
    /// Convenience constructor for an event without a measured duration.
    pub fn new(
        name: impl Into<String>,
        time: Timestamp,
        target: Target,
        expire_interval: i64,
        level: Severity,
    ) -> Self {
        RawEvent {
            name: name.into(),
            time,
            target,
            expire_interval,
            level,
            measured_duration: None,
        }
    }

    /// Attach a measured impact duration (ms).
    pub fn with_measured_duration(mut self, duration_ms: i64) -> Self {
        self.measured_duration = Some(duration_ms);
        self
    }

    /// Expiry timestamp.
    pub fn expires_at(&self) -> Timestamp {
        self.time + self.expire_interval
    }
}

/// A weighted event span `(t_s, t_e, w)` — the unit Algorithm 1 consumes
/// (Section IV-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSpan {
    /// Event name (kept for event-level drill-down, Section VI-C).
    pub name: String,
    /// Stability category this span contributes to.
    pub category: Category,
    /// Start timestamp (ms, inclusive).
    pub start: Timestamp,
    /// End timestamp (ms, exclusive).
    pub end: Timestamp,
    /// Severity weight in `[0, 1]` (Section IV-C).
    pub weight: f64,
}

impl EventSpan {
    /// Create a span. `start <= end` and `0 <= weight <= 1` are debug-checked.
    pub fn new(
        name: impl Into<String>,
        category: Category,
        start: Timestamp,
        end: Timestamp,
        weight: f64,
    ) -> Self {
        debug_assert!(start <= end, "span start {start} > end {end}");
        debug_assert!((0.0..=1.0).contains(&weight), "weight {weight} outside [0,1]");
        EventSpan { name: name.into(), category, start, end, weight }
    }

    /// Span duration (ms).
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ranks_follow_eq1() {
        assert_eq!(Severity::Warning.rank(), 1);
        assert_eq!(Severity::Fatal.rank(), 4);
        assert_eq!(Severity::count(), 4);
        // Eq. 1: l_i = i/m. Critical (3rd of 4) → 0.75, as in Example 3.
        let l = Severity::Critical.rank() as f64 / Severity::count() as f64;
        assert!((l - 0.75).abs() < 1e-12);
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Warning < Severity::Error);
        assert!(Severity::Error < Severity::Critical);
        assert!(Severity::Critical < Severity::Fatal);
        assert_eq!(Severity::ALL.len(), Severity::count());
    }

    #[test]
    fn target_display() {
        assert_eq!(Target::Vm(7).to_string(), "vm-7");
        assert_eq!(Target::Nc(12).to_string(), "nc-12");
    }

    #[test]
    fn category_display_and_all() {
        assert_eq!(Category::Unavailability.to_string(), "unavailability");
        assert_eq!(Category::ControlPlane.to_string(), "control-plane");
        assert_eq!(Category::ALL.len(), 3);
    }

    #[test]
    fn raw_event_expiry_and_duration() {
        let e = RawEvent::new("slow_io", 1_000, Target::Vm(1), 600, Severity::Critical);
        assert_eq!(e.expires_at(), 1_600);
        assert_eq!(e.measured_duration, None);
        let e = e.with_measured_duration(250);
        assert_eq!(e.measured_duration, Some(250));
    }

    #[test]
    fn span_duration() {
        let s = EventSpan::new("x", Category::Performance, 100, 400, 0.5);
        assert_eq!(s.duration(), 300);
    }

    #[test]
    #[should_panic(expected = "weight")]
    #[cfg(debug_assertions)]
    fn span_rejects_bad_weight_in_debug() {
        let _ = EventSpan::new("x", Category::Performance, 0, 1, 1.5);
    }
}
