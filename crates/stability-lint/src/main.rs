#![forbid(unsafe_code)]
//! CLI for the stability-lint engine. See the library docs for the rule
//! set; this binary adds workspace discovery, `lint.toml` loading, and
//! exit-status semantics for CI (`0` clean, `1` deny violations, `2`
//! usage/config errors).

use stability_lint::{config::Config, engine, Severity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        json: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                _ => return Err("--format must be `json` or `text`".into()),
            },
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "stability-lint: enforce the workspace reliability invariants (R1-R9)\n\n\
                     USAGE: stability-lint [--root DIR] [--config lint.toml] [--format text|json] [--quiet]\n\n\
                     Exit status: 0 clean, 1 deny-severity violations, 2 usage/config error.\n\
                     Default config: <root>/lint.toml if present."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Locate the workspace root: walk up from `start` until a directory with
/// a `Cargo.toml` containing `[workspace]` is found.
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = match start.canonicalize() {
        Ok(d) => d,
        Err(_) => return start.to_path_buf(),
    };
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = find_workspace_root(&args.root);

    let config_path = args.config.clone().unwrap_or_else(|| root.join("lint.toml"));
    let config = if config_path.exists() {
        match std::fs::read_to_string(&config_path)
            .map_err(|e| format!("{}: {e}", config_path.display()))
            .and_then(|text| Config::parse(&text))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    } else if args.config.is_some() {
        eprintln!("error: config `{}` not found", config_path.display());
        return ExitCode::from(2);
    } else {
        Config::default()
    };

    let report = match engine::run(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        for v in &report.violations {
            println!("{}", v.to_json());
        }
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        for idx in &report.stale_allows {
            let a = &config.allow[*idx];
            eprintln!(
                "stale allowlist entry: {} {} no longer matches — delete it from lint.toml",
                a.rule.as_str(),
                a.path
            );
        }
        if !args.quiet {
            eprintln!(
                "stability-lint: {} files, {} deny, {} warn, {} allowlisted, {} stale allow entries",
                report.files_scanned,
                report.deny_count(),
                report.warn_count(),
                report.allowed.len(),
                report.stale_allows.len()
            );
        }
    }

    if report.deny_count() > 0 {
        return ExitCode::from(1);
    }
    // A warn-only run still exits 0; CI prints the warnings.
    let _ = report.violations.iter().any(|v| v.severity == Severity::Warn);
    ExitCode::SUCCESS
}
