//! `cdi-perf` command line.
//!
//! ```text
//! cdi-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! cdi-perf run [--seed <n>] [--seconds <s>] [--counts-only]           every workload, untraced then traced
//! cdi-perf check-repeat [--seed <n>] [--seconds <s>]                  the build measured twice must agree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cdi_perf::report::{self, SetArgs};
use cdi_perf::spec::{self, Scale};
use cdi_perf::workload::{self, RunArgs};

const USAGE: &str = "usage: cdi-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
       cdi-perf run [--seed <n>] [--seconds <s>] [--counts-only]
       cdi-perf check-repeat [--seed <n>] [--seconds <s>]";

/// Where the trace files and the batch store go, relative to the checkout.
const OUT_DIR: &str = "crates/cdi-perf/out";

#[derive(Debug, Default)]
struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    counts_only: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    if args.peek().is_some_and(|a| !a.starts_with("--")) {
        cli.command = args.next();
    }
    while let Some(flag) = args.next() {
        let mut number = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or(format!("{name} needs a whole number"))
        };
        match flag.as_str() {
            "--seed" => cli.seed = Some(number("--seed")?),
            "--seconds" => cli.seconds = Some(number("--seconds")?),
            "--trace" => cli.trace = Some(number("--trace")?),
            "--workload" => cli.workload = Some(args.next().ok_or("--workload needs a name")?),
            "--counts-only" => cli.counts_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cdi-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        // cdi-serve's `tracked` lock sanitizer is live in such a build and
        // changes every timing.
        eprintln!("cdi-perf: refusing to measure a build with debug_assertions on; use --release");
        return ExitCode::from(2);
    }
    let set = SetArgs {
        seed: cli.seed.unwrap_or(20250),
        seconds: cli.seconds.unwrap_or(10),
        counts_only: cli.counts_only,
    };
    let exe = std::env::current_exe();
    match (cli.command.as_deref(), cli.workload.as_deref(), exe) {
        (None, Some(name), _) => {
            let Some(workload) = spec::workload(name) else {
                eprintln!("cdi-perf: unknown workload '{name}'\n{USAGE}");
                return ExitCode::from(2);
            };
            let args = RunArgs {
                workload,
                seed: set.seed,
                seconds: set.seconds,
                trace: cli.trace.unwrap_or(0) != 0,
                counts_only: set.counts_only,
                scale: Scale::FULL,
                out_dir: PathBuf::from(OUT_DIR),
            };
            report::print_run(&args, &workload::run(&args));
            ExitCode::SUCCESS
        }
        (Some("run"), None, Ok(exe)) => {
            if report::run_command(&exe, &set) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Some("check-repeat"), None, Ok(exe)) => {
            let failures = report::check_repeat(&exe, &set);
            for f in &failures {
                eprintln!("check-repeat: {f}");
            }
            if failures.is_empty() {
                println!("check-repeat: two sets agree");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
