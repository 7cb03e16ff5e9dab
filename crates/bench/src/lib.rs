//! Experiment harness: one module per table/figure of the paper's
//! evaluation, each returning a structured, serializable result that the
//! `experiments` binary renders and `EXPERIMENTS.md` records.
//!
//! The experiments exercise the *full pipeline* (simulate → collect →
//! extract → period/weight → CDI → aggregate); nothing about the paper's
//! curves is hard-coded beyond the fault schedules in
//! `simfleet::scenario`.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod diagbench;
pub mod drill;
pub mod experiments;
pub mod report;
pub mod scenarios;

use cloudbot::pipeline::DailyPipeline;

/// A pipeline whose collector samples VM metrics every `step_min` minutes
/// and whose windowed-event catalog entries match that step (so that event
/// periods still tile the damage they represent).
///
/// The year-long experiments use 5-minute sampling to keep runtimes
/// laptop-friendly; the incident-level experiments use the paper's
/// 1-minute windows.
pub fn pipeline_with_step(step_min: i64) -> DailyPipeline {
    DailyPipeline::with_step_ms(step_min * 60_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdi_core::catalog::PeriodKind;

    #[test]
    fn pipeline_step_rewrites_windows() {
        let p = pipeline_with_step(5);
        assert_eq!(p.collector.vm_step, 5 * 60_000);
        match p.catalog.get("slow_io").unwrap().period {
            PeriodKind::Windowed { window_ms } => assert_eq!(window_ms, 5 * 60_000),
            ref other => panic!("unexpected period {other:?}"),
        }
        // Non-windowed kinds untouched.
        assert!(matches!(
            p.catalog.get("ddos_blackhole").unwrap().period,
            PeriodKind::StatefulStart { .. }
        ));
    }
}
