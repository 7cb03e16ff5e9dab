//! End-to-end chaos test: the daily job under injected malformed telemetry.
//!
//! The paper's Spark job survives executor crashes and dirty events as a
//! matter of course. This suite injects a seeded batch of malformed events
//! (unknown names, inverted spans, duplicates, late arrivals) through
//! `simfleet::ChaosConfig` and asserts the three guarantees of the fault
//! tolerance layer: the job completes; every injected bad event is
//! accounted for in the report and the quarantine table; and the CDI of
//! VMs untouched by chaos equals a chaos-free run's.

use cdi_repro::daily_job::{run, DailyJobConfig};
use cloudbot::pipeline::DailyPipeline;
use minispark::store::Value;
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::{ChaosConfig, ChaosKind, Fleet, FleetConfig, SimWorld};

const HOUR: i64 = 3_600_000;
const MIN: i64 = 60_000;

fn world() -> SimWorld {
    let fleet = Fleet::build(&FleetConfig {
        regions: vec!["r1".into()],
        azs_per_region: 1,
        clusters_per_az: 1,
        ncs_per_cluster: 2,
        vms_per_nc: 4,
        nc_cores: 16,
        machine_models: vec!["m".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    });
    let mut w = SimWorld::new(fleet, 2024);
    // Real faults, so the clean baseline is not trivially all-zero.
    w.inject(FaultInjection::new(
        FaultKind::VmDown,
        FaultTarget::Vm(0),
        HOUR,
        HOUR + 20 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::SlowIo { factor: 8.0 },
        FaultTarget::Vm(3),
        2 * HOUR,
        2 * HOUR + 15 * MIN,
    ));
    w.inject(FaultInjection::new(
        FaultKind::NicFlapping,
        FaultTarget::Nc(1),
        3 * HOUR,
        3 * HOUR + 10 * MIN,
    ));
    w
}

#[test]
fn chaos_run_completes_and_clean_vm_cdi_is_unchanged() {
    let pipeline = DailyPipeline::default();
    let config = DailyJobConfig { threads: 4, partitions: 8, max_task_attempts: 2 };

    let clean_world = world();
    let clean = run(&clean_world, &pipeline, 0, 0, 6 * HOUR, config).unwrap();
    // rows_cloned is perf accounting, not a health signal: ignore it here.
    assert_eq!(clean.report.quarantined, 0);
    assert_eq!(clean.report.failed_tasks, 0);
    assert_eq!(clean.report.retries, 0);
    assert!(!clean.report.degraded);
    assert_eq!(clean.quarantine_table.len(), 0);
    assert!(
        clean.rows.iter().any(|r| r.unavailability > 0.0 || r.performance > 0.0),
        "baseline must carry real damage, or the comparison proves nothing"
    );

    let mut chaotic_world = world();
    let chaos = ChaosConfig::light(0xC4A0);
    chaotic_world.set_chaos(Some(chaos));
    // Completes without panicking — a poisoned batch used to kill the run.
    let chaotic = run(&chaotic_world, &pipeline, 0, 0, 6 * HOUR, config).unwrap();

    // The report accounts for every injected bad event.
    assert_eq!(chaotic.report.quarantined, chaos.total());
    assert_eq!(chaotic.quarantine_table.len(), chaos.total());
    assert!(chaotic.report.degraded);
    assert_eq!(chaotic.report.failed_tasks, 0, "quarantine is not a task failure");

    // Every chaos event is malformed, so all of them quarantine and every
    // VM stays clean: every row equals the chaos-free run's.
    assert_eq!(chaotic.rows, clean.rows);
}

#[test]
fn quarantine_table_reasons_match_injected_kinds() {
    let pipeline = DailyPipeline::default();
    let mut w = world();
    let chaos = ChaosConfig { seed: 7, unknown_names: 3, inverted_spans: 2, late_arrivals: 2, duplicates: 1 };
    w.set_chaos(Some(chaos));
    let job = run(&w, &pipeline, 0, 0, 6 * HOUR, DailyJobConfig::default()).unwrap();

    let mut by_reason = std::collections::HashMap::new();
    for row in job.quarantine_table.rows() {
        let reason = match &row[4] {
            Value::Str(s) => s.clone(),
            other => panic!("reason column must be a string, got {other:?}"),
        };
        *by_reason.entry(reason).or_insert(0usize) += 1;
    }
    // Duplicates copy unknown-name events, so they quarantine as unknown.
    assert_eq!(by_reason.get("unknown_event"), Some(&(chaos.unknown_names + chaos.duplicates)));
    assert_eq!(by_reason.get("inverted_span"), Some(&chaos.inverted_spans));
    assert_eq!(by_reason.get("late_arrival"), Some(&chaos.late_arrivals));
    assert_eq!(by_reason.values().sum::<usize>(), chaos.total());

    // The injected batch itself agrees with the accounting.
    let batch = w.chaos_events(0, 6 * HOUR);
    assert_eq!(batch.len(), chaos.total());
    assert_eq!(
        batch.iter().filter(|e| e.kind == ChaosKind::InvertedSpan).count(),
        chaos.inverted_spans
    );
}

#[test]
fn chaos_is_deterministic_across_runs() {
    let pipeline = DailyPipeline::default();
    let chaos = ChaosConfig::light(99);
    let mk = || {
        let mut w = world();
        w.set_chaos(Some(chaos));
        run(&w, &pipeline, 0, 0, 6 * HOUR, DailyJobConfig::default()).unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.report, b.report);
    assert_eq!(a.quarantine_table.len(), b.quarantine_table.len());
    for (ra, rb) in a.quarantine_table.rows().zip(b.quarantine_table.rows()) {
        assert_eq!(ra, rb);
    }
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.vm, rb.vm);
        assert_eq!(ra.unavailability.to_bits(), rb.unavailability.to_bits());
        assert_eq!(ra.performance.to_bits(), rb.performance.to_bits());
        assert_eq!(ra.control_plane.to_bits(), rb.control_plane.to_bits());
    }
}
