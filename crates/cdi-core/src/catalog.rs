//! Per-event-name metadata: how periods are derived, which stability
//! category an event contributes to, and extraction defaults.
//!
//! In production this configuration lives in MySQL (Section V, Fig. 4);
//! here it is an in-memory registry that the period-derivation and
//! weighting steps consult. A catalog pre-populated with every event family
//! mentioned in the paper is available via [`EventCatalog::paper_defaults`].

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::event::{Category, Severity};
use crate::time::{minutes, MINUTE_MS};

/// How an event's `[t_s, t_e]` period is derived (Section IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PeriodKind {
    /// Stateless event whose source logs the impact duration directly
    /// (e.g. `qemu_live_upgrade` logs milliseconds); falls back to the given
    /// default duration (ms) when the measurement is missing.
    MeasuredDuration {
        /// Fallback duration in ms.
        default_ms: i64,
    },
    /// Stateless event produced by a detector with a fixed time window
    /// (e.g. `slow_io` over 1-minute windows): the period is
    /// `[t − window, t]`, and persistent issues tile consecutive windows.
    Windowed {
        /// Detector window in ms.
        window_ms: i64,
    },
    /// Stateful start marker: paired with the nearest subsequent end event
    /// named `end_name` on the same target.
    StatefulStart {
        /// Name of the paired end event.
        end_name: String,
    },
    /// Stateful end marker (consumed by the pairing of its start).
    StatefulEnd,
}

/// Full specification of one event name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSpec {
    /// Stability category the event contributes to.
    pub category: Category,
    /// Period-derivation semantics.
    pub period: PeriodKind,
    /// Default extraction expiry interval (ms).
    pub expire_interval: i64,
    /// Default severity when the extractor does not override it.
    pub default_severity: Severity,
}

/// Registry of event specifications keyed by event name.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventCatalog {
    specs: HashMap<String, EventSpec>,
}

impl EventCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a spec.
    pub fn register(&mut self, name: impl Into<String>, spec: EventSpec) {
        self.specs.insert(name.into(), spec);
    }

    /// Look up a spec by event name.
    pub fn get(&self, name: &str) -> Option<&EventSpec> {
        self.specs.get(name)
    }

    /// Number of registered event names.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterate over `(name, spec)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &EventSpec)> {
        self.specs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Event names contributing to the given category.
    pub fn names_in_category(&self, category: Category) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .specs
            .iter()
            .filter(|(_, s)| s.category == category)
            .map(|(n, _)| n.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// A catalog pre-populated with every event family named in the paper,
    /// with period semantics as described there and expiry/severity defaults
    /// chosen to exercise each code path.
    pub fn paper_defaults() -> Self {
        let mut c = EventCatalog::new();
        let win = |category, window_min: i64, sev| EventSpec {
            category,
            period: PeriodKind::Windowed { window_ms: minutes(window_min) },
            expire_interval: minutes(10),
            default_severity: sev,
        };

        // Unavailability events (Section IV-A): total loss of service.
        c.register("vm_crash", win(Category::Unavailability, 1, Severity::Fatal));
        c.register("vm_hang", win(Category::Unavailability, 1, Severity::Fatal));
        c.register("nc_down", win(Category::Unavailability, 1, Severity::Fatal));
        c.register(
            "qemu_live_upgrade",
            EventSpec {
                category: Category::Unavailability,
                // QEMU upgrade logs the freeze duration in milliseconds.
                period: PeriodKind::MeasuredDuration { default_ms: 200 },
                expire_interval: minutes(5),
                default_severity: Severity::Error,
            },
        );
        c.register(
            "ddos_blackhole",
            EventSpec {
                category: Category::Unavailability,
                period: PeriodKind::StatefulStart { end_name: "ddos_blackhole_del".into() },
                expire_interval: minutes(60),
                default_severity: Severity::Fatal,
            },
        );
        c.register(
            "ddos_blackhole_del",
            EventSpec {
                category: Category::Unavailability,
                period: PeriodKind::StatefulEnd,
                expire_interval: minutes(60),
                default_severity: Severity::Warning,
            },
        );

        // Performance events (Example 1, Table IV, Cases 5-8).
        c.register("slow_io", win(Category::Performance, 1, Severity::Critical));
        c.register("packet_loss", win(Category::Performance, 1, Severity::Error));
        c.register("vcpu_high", win(Category::Performance, 1, Severity::Critical));
        c.register("nic_flapping", win(Category::Performance, 1, Severity::Error));
        c.register("gpu_drop", win(Category::Performance, 5, Severity::Fatal));
        c.register("cpu_contention", win(Category::Performance, 1, Severity::Error));
        c.register("vm_allocation_failed", win(Category::Performance, 5, Severity::Critical));
        c.register("inspect_cpu_power_tdp", win(Category::Performance, 5, Severity::Warning));
        c.register("memory_bandwidth_degraded", win(Category::Performance, 1, Severity::Error));

        // Control-plane events (Case 2, Fig. 5's 20250107 incident).
        c.register("vm_start_failed", win(Category::ControlPlane, 5, Severity::Critical));
        c.register("vm_stop_failed", win(Category::ControlPlane, 5, Severity::Critical));
        c.register("vm_release_failed", win(Category::ControlPlane, 5, Severity::Error));
        c.register("vm_resize_failed", win(Category::ControlPlane, 5, Severity::Error));
        c.register("api_error", win(Category::ControlPlane, 5, Severity::Critical));
        c.register("console_unreachable", win(Category::ControlPlane, 5, Severity::Critical));
        c.register("metrics_loss", win(Category::ControlPlane, 5, Severity::Warning));
        c
    }
}

/// A one-minute detector window — the paper's canonical example for
/// windowed stateless events.
pub const DEFAULT_WINDOW_MS: i64 = MINUTE_MS;

/// Host-only telemetry: events on an NC that describe the host alone
/// (TDP inspection) and so stay at NC scope instead of damaging the VMs it
/// hosts. The one source of the rule for the batch pipeline, the daily job
/// and the serving layer's default routing.
pub const HOST_ONLY_EVENTS: [&str; 1] = ["inspect_cpu_power_tdp"];

/// Does an NC event of this name stay at NC scope ([`HOST_ONLY_EVENTS`])?
pub fn is_host_only(name: &str) -> bool {
    HOST_ONLY_EVENTS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = EventCatalog::new();
        assert!(c.is_empty());
        c.register(
            "slow_io",
            EventSpec {
                category: Category::Performance,
                period: PeriodKind::Windowed { window_ms: minutes(1) },
                expire_interval: minutes(10),
                default_severity: Severity::Critical,
            },
        );
        assert_eq!(c.len(), 1);
        let spec = c.get("slow_io").unwrap();
        assert_eq!(spec.category, Category::Performance);
        assert!(c.get("unknown").is_none());
    }

    #[test]
    fn paper_defaults_cover_all_categories_and_kinds() {
        let c = EventCatalog::paper_defaults();
        assert!(c.len() >= 15);
        for cat in Category::ALL {
            assert!(!c.names_in_category(cat).is_empty(), "{cat} missing");
        }
        // All four period kinds appear.
        let kinds: Vec<&PeriodKind> = c.iter().map(|(_, s)| &s.period).collect();
        assert!(kinds.iter().any(|k| matches!(k, PeriodKind::MeasuredDuration { .. })));
        assert!(kinds.iter().any(|k| matches!(k, PeriodKind::Windowed { .. })));
        assert!(kinds.iter().any(|k| matches!(k, PeriodKind::StatefulStart { .. })));
        assert!(kinds.iter().any(|k| matches!(k, PeriodKind::StatefulEnd)));
    }

    #[test]
    fn stateful_pairing_wired_up() {
        let c = EventCatalog::paper_defaults();
        match &c.get("ddos_blackhole").unwrap().period {
            PeriodKind::StatefulStart { end_name } => assert_eq!(end_name, "ddos_blackhole_del"),
            other => panic!("expected StatefulStart, got {other:?}"),
        }
        assert!(matches!(
            c.get("ddos_blackhole_del").unwrap().period,
            PeriodKind::StatefulEnd
        ));
    }

    #[test]
    fn names_in_category_sorted() {
        let c = EventCatalog::paper_defaults();
        let perf = c.names_in_category(Category::Performance);
        let mut sorted = perf.clone();
        sorted.sort_unstable();
        assert_eq!(perf, sorted);
        assert!(perf.contains(&"slow_io"));
    }

    #[test]
    fn replace_overwrites() {
        let mut c = EventCatalog::paper_defaults();
        let before = c.len();
        c.register(
            "slow_io",
            EventSpec {
                category: Category::Performance,
                period: PeriodKind::Windowed { window_ms: minutes(2) },
                expire_interval: minutes(5),
                default_severity: Severity::Error,
            },
        );
        assert_eq!(c.len(), before);
        assert_eq!(c.get("slow_io").unwrap().default_severity, Severity::Error);
    }
}
