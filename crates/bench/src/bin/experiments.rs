//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <subcommand> [--seed N]
//!
//!   fig2    ticket distribution (27/44/29)
//!   fig3    event-period worked example (Example 2)
//!   ex3     weight worked example (w = 0.625)
//!   table4  CDI worked example (0.020/0.002/0.004/0.003)
//!   fig5    incident comparison: CDI vs AIR vs DP
//!   fig6    FY2024 trend (-40%/-80%/-35%)           [--days N, default 365]
//!   fig8    architecture comparison (Case 5)        [--days N, default 40]
//!   fig9a   event-level spike (Case 6)
//!   fig9b   event-level dip (Case 7)
//!   table5  A/B hypothesis tests (Case 8)           [--trials N, default 120]
//!   fig11   per-action Performance Indicator distributions
//!   all     everything above
//!   drill   cdi-serve chaos drill (agreement gate)  [--seed N] [--quick]
//!   scenarios  detector scoring matrix → BENCH_PR8.json  [--seed N] [--quick]
//!   diagnose  outage-diag gates → BENCH_PR10.json  [--seed N] [--quick]
//!   dump <file.cdp>  print a stored cdipack table as JSON
//! ```
//!
//! Each run also writes machine-readable JSON into `results/`.

use bench::experiments::{fig2, fig5, fig6, fig8, fig9, golden, table5};
use bench::report::{fmt, fmt_ratio, sparkline, table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let seed = flag_value(&args, "--seed").unwrap_or(20250) as u64;
    let run = |name: &str| cmd == "all" || cmd == name || (cmd == "fig11" && name == "table5");
    let mut ran_any = false;

    if cmd == "drill" {
        let quick = args.iter().any(|a| a == "--quick");
        run_drill(seed, quick);
        return;
    }
    if cmd == "scenarios" {
        let quick = args.iter().any(|a| a == "--quick");
        run_scenarios(seed, quick);
        return;
    }
    if cmd == "diagnose" {
        let quick = args.iter().any(|a| a == "--quick");
        run_diagnose(seed, quick);
        return;
    }
    if cmd == "dump" {
        run_dump(args.get(1).map(String::as_str));
        return;
    }

    if run("fig2") {
        ran_any = true;
        run_fig2(seed);
    }
    if run("fig3") {
        ran_any = true;
        run_fig3();
    }
    if run("ex3") {
        ran_any = true;
        run_ex3();
    }
    if run("table4") {
        ran_any = true;
        run_table4();
    }
    if run("fig5") {
        ran_any = true;
        run_fig5(seed);
    }
    if run("fig6") {
        ran_any = true;
        let days = flag_value(&args, "--days").unwrap_or(365) as usize;
        run_fig6(seed, days);
        if args.iter().any(|a| a == "--ablate") {
            run_fig6_ablation(seed, days);
        }
    }
    if run("fig8") {
        ran_any = true;
        let days = flag_value(&args, "--days").unwrap_or(40) as usize;
        run_fig8(seed, days);
    }
    if run("fig9a") {
        ran_any = true;
        run_fig9a(seed);
    }
    if run("fig9b") {
        ran_any = true;
        run_fig9b(seed);
    }
    if run("table5") {
        ran_any = true;
        let trials = flag_value(&args, "--trials").unwrap_or(120) as usize;
        run_table5(seed, trials, cmd == "fig11" || cmd == "all");
    }
    if !ran_any {
        eprintln!("unknown subcommand '{cmd}'; see the doc comment for usage");
        std::process::exit(2);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<i64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn save_json(name: &str, value: &impl serde::Serialize) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(json) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, json);
        }
    }
}

fn heading(title: &str) {
    println!("\n==== {title} ====");
}

fn run_drill(seed: u64, quick: bool) {
    eprintln!(
        "(cdi-serve chaos drill, seed {seed}{}; the agreement gate is exact)",
        if quick { ", quick mode" } else { "" }
    );
    let report = bench::drill::run(seed, quick);
    let chaos = &report.chaos_agreement;
    println!(
        "chaos agreement: shard path {:?}, {} kill(s), {} respawn(s), {} restart(s), max CDI delta {:.3e}, {} lock-order violation(s) → {}",
        chaos.shard_path,
        chaos.kills,
        chaos.respawns,
        chaos.restarts,
        chaos.max_cdi_delta,
        chaos.lock_order_violations,
        if chaos.passed { "PASS" } else { "FAIL" },
    );
    println!(
        "autoscale: peak {} shards, settled at {}",
        report.autoscale.peak_shards, report.autoscale.final_shards
    );
    if !chaos.passed {
        eprintln!("chaos agreement gate FAILED");
        std::process::exit(1);
    }
}

fn run_scenarios(seed: u64, quick: bool) {
    heading("Scenario suite — detector scoring matrix");
    eprintln!(
        "(seed {seed}{}; deterministic: two runs produce byte-identical BENCH_PR8.json)",
        if quick { ", quick mode" } else { "" }
    );
    let report = match bench::scenarios::run(seed, quick) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scenario evaluation failed: {e}");
            std::process::exit(1);
        }
    };
    let rows: Vec<Vec<String>> = report
        .matrix
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                c.detector.clone(),
                format!("{:.3}", c.score.precision),
                format!("{:.3}", c.score.recall),
                format!("{:.3}", c.score.f1),
                c.score
                    .mean_ttd_ms
                    .map_or("-".to_string(), |t| format!("{:.1}", t / 60_000.0)),
                format!("{}/{}", c.score.detected_windows, c.score.total_windows),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["scenario", "detector", "precision", "recall", "F1", "TTD (min)", "windows"],
            &rows,
        )
    );
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_PR8.json", json + "\n") {
                eprintln!("cannot write BENCH_PR8.json: {e}");
                std::process::exit(1);
            }
            println!("wrote BENCH_PR8.json");
        }
        Err(e) => {
            eprintln!("scenario report failed to serialize: {e}");
            std::process::exit(1);
        }
    }
    if report.passed() {
        println!("floor gate: PASS ({} floors)", report.floors.len());
    } else {
        for v in &report.violations {
            eprintln!("floor violation: {v}");
        }
        eprintln!("floor gate FAILED ({} violation(s))", report.violations.len());
        std::process::exit(1);
    }
}

fn run_diagnose(seed: u64, quick: bool) {
    heading("Outage diagnosis — correlated-scenario gates");
    eprintln!(
        "(seed {seed}{}; deterministic: two runs produce byte-identical BENCH_PR10.json)",
        if quick { ", quick mode" } else { "" }
    );
    let report = match bench::diagbench::run(seed, quick) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("diagnosis evaluation failed: {e}");
            std::process::exit(1);
        }
    };
    let rows: Vec<Vec<String>> = report
        .scenarios
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                format!("{:.3}", r.score.f1),
                format!("{}/{}", r.score.detected_windows, r.score.total_windows),
                format!("{}", r.diagnoses.len()),
                if r.exact_scope { "yes".into() } else { "NO".into() },
                if r.batch_live_identical { "yes".into() } else { "NO".into() },
                if r.shard_invariant { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["scenario", "F1", "windows", "diagnoses", "exact scope", "batch=live", "shard-inv"],
            &rows,
        )
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_PR10.json", json + "\n") {
                eprintln!("cannot write BENCH_PR10.json: {e}");
                std::process::exit(1);
            }
            println!("wrote BENCH_PR10.json");
        }
        Err(e) => {
            eprintln!("diagnosis report failed to serialize: {e}");
            std::process::exit(1);
        }
    }
    if report.passed() {
        println!("diagnosis gate: PASS ({} floors + structural gates)", report.floors.len());
    } else {
        for v in &report.violations {
            eprintln!("diagnosis violation: {v}");
        }
        eprintln!("diagnosis gate FAILED ({} violation(s))", report.violations.len());
        std::process::exit(1);
    }
}

/// The one hand-inspection path for persisted tables: decode a `.cdp`
/// file and print it as JSON (schema + columns).
fn run_dump(path: Option<&str>) {
    let Some(path) = path else {
        eprintln!("usage: experiments dump <file.cdp>");
        std::process::exit(2);
    };
    let rendered = minispark::store::Table::from_pack(std::path::Path::new(path))
        .map(|packed| packed.into_table(&minispark::exec::ExecMetrics::default()))
        .map_err(|e| e.to_string())
        .and_then(|table| serde_json::to_string_pretty(&table).map_err(|e| e.to_string()));
    match rendered {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("cannot dump {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn run_fig2(seed: u64) {
    heading("Fig. 2 — distribution of tickets related to ECS stability");
    let r = fig2::run(seed, 120);
    println!(
        "{}",
        table(
            &["category", "share (measured)", "share (paper)"],
            &[
                vec!["unavailability".into(), format!("{:.1}%", 100.0 * r.unavailability_share), "27%".into()],
                vec!["performance".into(), format!("{:.1}%", 100.0 * r.performance_share), "44%".into()],
                vec!["control-plane".into(), format!("{:.1}%", 100.0 * r.control_plane_share), "29%".into()],
            ],
        )
    );
    println!(
        "tickets: {}   classifier accuracy vs ground truth: {:.1}%",
        r.total,
        100.0 * r.classifier_accuracy
    );
    save_json("fig2", &r);
}

fn run_fig3() {
    heading("Fig. 3 / Example 2 — event-period derivation");
    let r = golden::fig3();
    println!("slow_io period  : [{}, {}) min (windowed trace-back)", r.slow_io_period.0, r.slow_io_period.1);
    println!("ddos_blackhole  : [{}, {}) min (t2 paired with t4)", r.ddos_period.0, r.ddos_period.1);
    println!("dirty markers discarded: {} (the add at t3, the del at t5)", r.discarded_markers);
    save_json("fig3", &r);
}

fn run_ex3() {
    heading("Example 3 — event weight");
    let r = golden::ex3();
    println!("expert weight l3   = {} (paper: 0.75)", fmt(r.expert_weight));
    println!("customer weight p2 = {} (paper: 0.5)", fmt(r.customer_weight));
    println!("final weight w     = {} (paper: 0.625)", fmt(r.final_weight));
    save_json("ex3", &r);
}

fn run_table4() {
    heading("Table IV / Example 4 — CDI calculation");
    let r = golden::table4();
    println!(
        "{}",
        table(
            &["VM", "CDI (measured)", "CDI (paper)"],
            &[
                vec!["1".into(), format!("{:.6}", r.vm1), "0.020".into()],
                vec!["2".into(), format!("{:.6}", r.vm2), "0.002".into()],
                vec!["3".into(), format!("{:.6}", r.vm3), "0.004".into()],
                vec!["All".into(), format!("{:.6}", r.all), "0.003".into()],
            ],
        )
    );
    save_json("table4", &r);
}

fn run_fig5(seed: u64) {
    heading("Fig. 5 — stability evaluation on selected incidents");
    let r = fig5::run(seed);
    let daily = r.daily().clone();
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.label.clone(),
                fmt(row.cdi_u),
                fmt(row.cdi_p),
                fmt(row.cdi_c),
                fmt(row.air),
                fmt(row.dp),
                fmt_ratio(row.cdi_u, daily.cdi_u),
                fmt_ratio(row.cdi_c, daily.cdi_c),
                fmt_ratio(row.dp, daily.dp),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["day", "CDI-U", "CDI-P", "CDI-C", "AIR", "DP", "U/daily", "C/daily", "DP/daily"],
            &rows,
        )
    );
    println!("paper shape: 20240425 & 20240702 move CDI-U/AIR/DP; 20250107 moves ONLY CDI-C.");
    save_json("fig5", &r);
}

fn run_fig6(seed: u64, days: usize) {
    heading("Fig. 6 / Case 4 — overall CDI across the fiscal year");
    eprintln!("(simulating {days} days; use --days to shorten)");
    let r = fig6::run(seed, days);
    println!("CDI-U  {}", sparkline(&r.smooth_u));
    println!("CDI-P  {}", sparkline(&r.smooth_p));
    println!("CDI-C  {}", sparkline(&r.smooth_c));
    println!(
        "{}",
        table(
            &["sub-metric", "reduction (measured)", "reduction (paper)"],
            &[
                vec!["Unavailability".into(), format!("{:.0}%", 100.0 * r.reduction_u), "40%".into()],
                vec!["Performance".into(), format!("{:.0}%", 100.0 * r.reduction_p), "80%".into()],
                vec!["Control-plane".into(), format!("{:.0}%", 100.0 * r.reduction_c), "35%".into()],
            ],
        )
    );
    println!(
        "Mann-Kendall trend p-values (U/P/C): {} / {} / {}  — all declining (Sen slopes {} / {} / {})",
        fmt(r.trend_p[0]),
        fmt(r.trend_p[1]),
        fmt(r.trend_p[2]),
        fmt(r.sen_slope[0]),
        fmt(r.sen_slope[1]),
        fmt(r.sen_slope[2]),
    );
    save_json("fig6", &r);
}

fn run_fig6_ablation(seed: u64, days: usize) {
    heading("Fig. 6 ablation — per-strategy attribution (Section VI-A)");
    let results = fig6::run_ablation(seed, days);
    let labels = ["U-only governance", "P-only governance", "C-only governance"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .zip(labels)
        .map(|(r, label)| {
            vec![
                label.to_string(),
                format!("{:+.0}%", -100.0 * r.reduction_u),
                format!("{:+.0}%", -100.0 * r.reduction_p),
                format!("{:+.0}%", -100.0 * r.reduction_c),
            ]
        })
        .collect();
    println!("{}", table(&["strategy", "ΔU", "ΔP", "ΔC"], &rows));
    println!("expected: a strong diagonal — each strategy moves only its own sub-metric.");
    save_json("fig6_ablation", &results);
}

fn run_fig8(seed: u64, days: usize) {
    heading("Fig. 8 / Case 5 — Performance Indicator of deployment architectures");
    let r = fig8::run(seed, days);
    println!("homogeneous  {}", sparkline(&r.homogeneous));
    println!("hybrid       {}", sparkline(&r.hybrid));
    let rows: Vec<Vec<String>> = (0..days)
        .step_by(3)
        .map(|d| {
            vec![
                format!("{d}"),
                fmt(r.homogeneous[d]),
                fmt(r.hybrid[d]),
                fmt_ratio(r.hybrid[d], r.homogeneous[d]),
            ]
        })
        .collect();
    println!("{}", table(&["day", "homogeneous PI", "hybrid PI", "hybrid/homog"], &rows));
    println!(
        "paper shape: parity until day {}, divergence peaks ~day 20, convergence by day {}.",
        r.bug_start_day, r.converge_day
    );
    save_json("fig8", &r);
}

fn run_fig9a(seed: u64) {
    heading("Fig. 9(a) / Case 6 — event-level CDI of vm_allocation_failed");
    let r = fig9::run_a(seed, 30, 14);
    println!("series {}", sparkline(&r.series));
    for (day, kind) in &r.detections {
        println!("detector: {kind} on day {day} (paper: spike on day 14, recovery day 15)");
    }
    save_json("fig9a", &r);
}

fn run_fig9b(seed: u64) {
    heading("Fig. 9(b) / Case 7 — event-level CDI of inspect_cpu_power_tdp");
    let r = fig9::run_b(seed, 30, 13, 18);
    println!("series {}", sparkline(&r.series));
    for (day, kind) in &r.detections {
        println!("detector: {kind} on day {day} (paper: decline from day 13, recovery from day 18)");
    }
    save_json("fig9b", &r);
}

fn run_table5(seed: u64, trials: usize, show_fig11: bool) {
    heading("Table V / Case 8 — hypothesis test results");
    let r = table5::run(seed, trials);
    let mut rows = Vec::new();
    for t in &r.tests {
        rows.push(vec![
            t.name.clone(),
            t.omnibus.clone(),
            fmt(t.p_value),
            if t.significant { "True".into() } else { "False".into() },
        ]);
        for &(a, b, p) in &t.posthoc {
            let label = |i: usize| (b'A' + i as u8) as char;
            rows.push(vec![
                format!("  {}-{}", label(a), label(b)),
                "post-hoc".into(),
                fmt(p),
                if p < 0.05 { "True".into() } else { "False".into() },
            ]);
        }
    }
    println!("{}", table(&["sub-metric / pair", "test", "p-value", "significant"], &rows));
    println!("paper: U p=0.47 (ns), C p=0.89 (ns), P p≈0 with all pairs significant.");
    if show_fig11 {
        heading("Fig. 11 — Performance Indicator of each operation action");
        let max = r.perf_means.iter().cloned().fold(f64::MIN, f64::max);
        let rows: Vec<Vec<String>> = (0..3)
            .map(|a| {
                let (q1, med, q3) = r.perf_quartiles[a];
                vec![
                    format!("{}", (b'A' + a as u8) as char),
                    fmt(r.perf_means[a]),
                    format!("{:.2}", r.perf_means[a] / max * 0.42),
                    fmt(q1),
                    fmt(med),
                    fmt(q3),
                ]
            })
            .collect();
        println!(
            "{}",
            table(
                &["action", "mean PI", "normalized (paper: .40/.08/.42)", "q1", "median", "q3"],
                &rows,
            )
        );
        println!("action B wins — selected for nc_down_prediction, as in the paper.");
    }
    save_json("table5", &r);
}
