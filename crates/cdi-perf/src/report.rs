//! Printing a run, and the two commands built on whole sets of runs:
//! `run` (every workload, untraced then traced, each in its own child
//! process so `peak_rss_mb` is per workload) and `check-repeat`.

use std::path::Path;
use std::process::Command;

use crate::context::Context;
use crate::spec::{self, Better, Kind, MetricSpec};
use crate::stats;
use crate::workload::{RunArgs, RunOutput, RunResult};

/// Print one run: the context header, every metric by name with its
/// unit (timings with their sample count and the highest percentile that
/// has at least ten samples beyond it), why anything failed, and — as the
/// last line — the result object.
pub fn print_run(args: &RunArgs, out: &RunOutput) {
    let context = Context::gather(args.seed, &args.scale);
    println!("{}", serde_json::to_string(&context).unwrap_or_default());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let table = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for spec in table {
        let Some(m) = out.result.metrics.get(spec.name) else {
            continue;
        };
        // The tail is the slow side, so it is shown for lower-is-better timings.
        let tail = out
            .details
            .get(spec.name)
            .map_or_else(String::new, |s| match s.top {
                Some((p, v)) if spec.better == Better::Lower => {
                    format!("  n={} p{p:.0}={v:.3}", s.n)
                }
                _ => format!("  n={}", s.n),
            });
        println!("  {:<36} {:>16.4} {}{tail}", spec.name, m.value, m.unit);
    }
    println!(
        "  operations attempted {} failed {}",
        out.result.attempted, out.result.failed
    );
    for note in &out.notes {
        println!("  FAILED: {note}");
    }
    println!("{}", serde_json::to_string(&out.result).unwrap_or_default());
}

/// One child run of a set.
#[derive(Debug)]
pub struct SetEntry {
    /// Workload name.
    pub workload: &'static str,
    /// Traced or untraced.
    pub trace: bool,
    /// The child's result, if it printed one.
    pub result: Option<RunResult>,
}

/// Options shared by `run` and `check-repeat`.
#[derive(Debug, Clone)]
pub struct SetArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds each home phase measures.
    pub seconds: u64,
    /// Zero every measured value.
    pub counts_only: bool,
}

/// Run every workload in each of the `traces` modes, each run a child
/// process of `exe`; echo the children's reports when `echo`.
pub fn run_set(exe: &Path, args: &SetArgs, traces: &[bool], echo: bool) -> Vec<SetEntry> {
    let mut set = Vec::new();
    for workload in spec::WORKLOADS {
        for &trace in traces {
            let mut cmd = Command::new(exe);
            cmd.args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.counts_only {
                cmd.arg("--counts-only");
            }
            // `output` waits for the child, so none outlives this call.
            let stdout = cmd
                .output()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
            let stdout = stdout.unwrap_or_default();
            let lines: Vec<&str> = stdout.lines().collect();
            if echo {
                for line in lines.iter().take(lines.len().saturating_sub(1)) {
                    println!("{line}");
                }
            }
            let result = lines
                .last()
                .and_then(|l| serde_json::from_str::<RunResult>(l).ok());
            set.push(SetEntry {
                workload: workload.name,
                trace,
                result,
            });
        }
    }
    set
}

fn value(set: &[SetEntry], workload: &str, trace: bool, metric: &str) -> Option<f64> {
    set.iter()
        .find(|e| e.workload == workload && e.trace == trace)
        .and_then(|e| e.result.as_ref())
        .and_then(|r| r.metrics.get(metric))
        .map(|m| m.value)
}

/// The `run` command. Returns whether every run was correct and the
/// batch layers add up.
pub fn run_command(exe: &Path, args: &SetArgs) -> bool {
    let set = run_set(exe, args, &[false, true], true);
    // ROADMAP item 1's inversion as one statement from one run on one input.
    println!("wire-saturate, one input, one run:");
    for metric in [
        "service.staged_spans_per_s",
        "ingest_spans_per_s",
        "server.rtt_p50_us",
    ] {
        match value(&set, "wire-saturate", true, metric) {
            Some(v) => println!("  {metric:<36} {v:>16.4}"),
            None => println!("  {metric:<36} missing"),
        }
    }
    // ROADMAP's accounting-closure rule: the staged twin's layers must add
    // up to the job within 10 %, or a layer is missing from the twin (or
    // the twin does work the job does not) and the per-layer batch numbers
    // cannot be trusted.
    // A counts-only set has no wall clock to close on.
    let closes = args.counts_only || {
        let closure = value(&set, "daily-batch", true, "daily_job.closure_ratio");
        let closes = closure.is_some_and(|v| CLOSURE_LIMITS.contains(&v));
        println!(
            "daily-batch: staged-twin layer sum / daily_job::run = {} ({} {CLOSURE_LIMITS:?})",
            closure.map_or_else(|| "missing".to_string(), |v| format!("{v:.3}")),
            if closes { "within" } else { "OUTSIDE" },
        );
        closes
    };
    let mut all_correct = closes;
    for e in &set {
        let verdict = match &e.result {
            Some(r) if r.correct => "correct",
            Some(_) => "INCORRECT",
            None => "NO RESULT",
        };
        all_correct &= verdict == "correct";
        println!("{} trace {}: {verdict}", e.workload, u8::from(e.trace));
    }
    all_correct
}

/// Closure ratios `run` accepts.
const CLOSURE_LIMITS: std::ops::RangeInclusive<f64> = 0.9..=1.1;

fn worse_by(spec: &MetricSpec, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match spec.better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Sets each side of `check-repeat` runs. The driver compares medians of
/// ten runs; a median of three keeps this command under twenty minutes and
/// a one-in-ten `peak_rss_mb` reading from failing the build it came from.
const REPEAT_SETS: u64 = 3;

/// The `check-repeat` command: the same build measured twice, the way the
/// driver does it. The two sides take turns; set `i` of either side runs
/// on `seed + i`. The medians of every end-to-end metric must agree within
/// the metric's bound (in either direction), and every exact count must be
/// identical run for run — the untraced ones on every seed, the traced
/// ones on the first. Returns the failures.
pub fn check_repeat(exe: &Path, args: &SetArgs) -> Vec<String> {
    let mut sides: [Vec<Vec<SetEntry>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..REPEAT_SETS {
        let set = SetArgs {
            seed: args.seed + i,
            ..args.clone()
        };
        let traces: &[bool] = if i == 0 { &[false, true] } else { &[false] };
        for side in &mut sides {
            side.push(run_set(exe, &set, traces, false));
        }
    }
    let mut failures = Vec::new();
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            let label = format!("{} trace {}", workload.name, u8::from(trace));
            let table = if trace {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            let results = |side: &[Vec<SetEntry>]| -> Vec<Option<RunResult>> {
                side.iter()
                    .flat_map(|set| {
                        set.iter()
                            .filter(|e| e.workload == workload.name && e.trace == trace)
                    })
                    .map(|e| e.result.clone())
                    .collect()
            };
            let (a, b) = (results(&sides[0]), results(&sides[1]));
            if a.iter()
                .chain(&b)
                .any(|r| !r.as_ref().is_some_and(|r| r.correct))
            {
                failures.push(format!("{label}: a run was incorrect or printed no result"));
                continue;
            }
            let values = |runs: &[Option<RunResult>], name: &str| -> Vec<f64> {
                runs.iter()
                    .flatten()
                    .filter_map(|r| r.metrics.get(name))
                    .map(|m| m.value)
                    .collect()
            };
            for spec in table {
                let (va, vb) = (values(&a, spec.name), values(&b, spec.name));
                let (ma, mb) = (stats::median(&va), stats::median(&vb));
                let gap = worse_by(spec, ma, mb).abs();
                let verdict = if spec.kind == Kind::Exact && va != vb {
                    "EXACT COUNT DIFFERS"
                } else if spec.bound > 0.0 && gap > spec.bound {
                    "OUTSIDE BOUND"
                } else {
                    "ok"
                };
                if spec.bound > 0.0 || verdict != "ok" {
                    println!(
                        "{label:<26} {:<28} {ma:>14.4} {mb:>14.4} {:>6.1}% of {:>4.1}%  {verdict}",
                        spec.name,
                        gap * 100.0,
                        spec.bound * 100.0
                    );
                }
                if verdict != "ok" {
                    failures.push(format!("{label}: {} {ma} vs {mb}: {verdict}", spec.name));
                }
            }
        }
    }
    failures
}
