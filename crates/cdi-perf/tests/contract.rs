//! `BENCHMARK.json` and the harness state the same benchmark, and every
//! run prints exactly the metrics the file names.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cdi_perf::spec::{self, MetricSpec, Scale};
use cdi_perf::workload::{self, RunArgs};
use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct WorkloadEntry {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct EndToEndEntry {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct PerLayerEntry {
    name: String,
    unit: String,
    better: String,
}

#[derive(Debug, Deserialize)]
struct BenchmarkFile {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEndEntry>,
    per_layer: Vec<PerLayerEntry>,
}

fn benchmark_file() -> BenchmarkFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_states_the_harness_tables() {
    let file = benchmark_file();
    assert_eq!(file.paths, ["crates/cdi-perf"]);
    assert_eq!(file.command.first().map(String::as_str), Some("cargo"));
    assert!((1..=60).contains(&file.run_seconds));

    let workloads: Vec<(&str, &str)> = file
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_str()))
        .collect();
    let want: Vec<(&str, &str)> = spec::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, want);
    assert!(file
        .workloads
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

    let same = |name: &str, unit: &str, better: &str, m: &MetricSpec| {
        assert_eq!((name, unit, better), (m.name, m.unit, m.better.word()));
    };
    assert_eq!(file.end_to_end.len(), spec::END_TO_END.len());
    for (e, m) in file.end_to_end.iter().zip(spec::END_TO_END) {
        same(&e.name, &e.unit, &e.better, m);
        assert_eq!(e.bound, m.bound, "{}", m.name);
    }
    assert_eq!(file.per_layer.len(), spec::PER_LAYER.len());
    for (e, m) in file.per_layer.iter().zip(spec::PER_LAYER) {
        same(&e.name, &e.unit, &e.better, m);
    }

    // Set-up time is gated like the rest, with the largest bound.
    let setup = file
        .end_to_end
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s is a metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(file.end_to_end.iter().all(|e| e.bound <= setup.bound));
}

fn quick_run(
    workload: &'static spec::WorkloadSpec,
    trace: bool,
    counts_only: bool,
) -> workload::RunOutput {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "contract-{}-{}-{}",
        workload.name, trace, counts_only
    ));
    workload::run(&RunArgs {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        counts_only,
        scale: Scale::QUICK,
        out_dir,
    })
}

/// Every metric named for the mode appears once with its unit, nothing
/// unnamed is printed, and the run is correct.
fn assert_reports_exactly(table: &[MetricSpec], out: &workload::RunOutput, label: &str) {
    let printed: BTreeSet<&str> = out.result.metrics.keys().map(String::as_str).collect();
    let named: BTreeSet<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(printed, named, "{label}");
    for m in table {
        assert_eq!(
            out.result.metrics[m.name].unit, m.unit,
            "{label} {}",
            m.name
        );
        assert!(
            out.result.metrics[m.name].value.is_finite(),
            "{label} {}",
            m.name
        );
    }
    assert!(out.result.correct, "{label}: {:?}", out.notes);
    assert_eq!(out.result.failed, 0, "{label}: {:?}", out.notes);
    assert!(out.result.attempted >= 1);
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_and_nothing_else() {
    for workload in spec::WORKLOADS {
        let out = quick_run(workload, false, false);
        assert_reports_exactly(spec::END_TO_END, &out, workload.name);
        // The driver compares against a median: no end-to-end metric may be 0.
        for m in spec::END_TO_END {
            assert!(
                out.result.metrics[m.name].value > 0.0,
                "{} {} is 0",
                workload.name,
                m.name
            );
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_write_the_trace() {
    for workload in [&spec::WORKLOADS[0], &spec::WORKLOADS[2]] {
        let out = quick_run(workload, true, false);
        assert_reports_exactly(spec::PER_LAYER, &out, workload.name);
        let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("contract-{}-true-false", workload.name))
            .join(format!("trace.{}.json", workload.name));
        let text = std::fs::read_to_string(trace).expect("trace file written");
        assert!(text.contains("\"context\"") && text.contains("\"cdipack.decode_req\""));
    }
}

#[test]
fn counts_only_runs_are_identical() {
    let workload = &spec::WORKLOADS[0];
    for trace in [false, true] {
        let a = quick_run(workload, trace, true).result;
        let b = quick_run(workload, trace, true).result;
        // Operation counts depend on how many closed-loop queries fit.
        assert_eq!(a.metrics, b.metrics, "trace {trace}");
        let table = if trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        for m in table.iter().filter(|m| m.kind == spec::Kind::Measured) {
            assert_eq!(
                a.metrics[m.name].value, 0.0,
                "{} is wall-clock and must be zeroed",
                m.name
            );
        }
    }
}
