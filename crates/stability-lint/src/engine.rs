//! The lint driver: file discovery, crate scoping, rule execution, and
//! allowlist application.

use crate::config::Config;
use crate::diagnostics::{Severity, Violation};
use crate::lexer;
use crate::lockgraph::{self, Annotations, LockEdge};
use crate::rules::{self, FileCtx, RuleId};
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived the allowlist, deny first then warn,
    /// grouped by path and line.
    pub violations: Vec<Violation>,
    /// Violations suppressed by a `lint.toml` entry or an inline
    /// `// lint-allow(Rn): reason` marker.
    pub allowed: Vec<Violation>,
    /// Indices (into `Config::allow`) of entries that matched nothing:
    /// stale exceptions that should be deleted.
    pub stale_allows: Vec<usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Count of deny-severity violations (the exit-status signal).
    pub fn deny_count(&self) -> usize {
        self.violations.iter().filter(|v| v.severity == Severity::Deny).count()
    }

    /// Count of warn-severity violations.
    pub fn warn_count(&self) -> usize {
        self.violations.iter().filter(|v| v.severity == Severity::Warn).count()
    }
}

/// Lint every workspace `.rs` file under `root`, applying `config`.
pub fn run(root: &Path, config: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    run_on_files(root, &files, config)
}

/// Lint an explicit file list (paths relative to `root`). Test harnesses
/// use this to point the engine at fixture files under an assumed crate.
pub fn run_on_files(root: &Path, files: &[PathBuf], config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut matched = vec![false; config.allow.len()];
    // Per-file R6 findings (kept or allowed) so the workspace-wide pass
    // does not re-report a cycle already caught within one file.
    let mut seen_r6: Vec<(String, u32)> = Vec::new();
    let mut all_edges: Vec<LockEdge> = Vec::new();
    for rel in files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let crate_name = crate_of(&rel_str);
        if skip_file(&rel_str) {
            continue;
        }
        let source = fs::read_to_string(root.join(rel))
            .map_err(|e| format!("{rel_str}: {e}"))?;
        report.files_scanned += 1;
        let file = lint_file(&rel_str, &crate_name, &source);
        all_edges.extend(file.edges);
        report.allowed.extend(file.allowed);
        for v in file.violations {
            if v.rule == RuleId::R6 {
                seen_r6.push((v.path.clone(), v.line));
            }
            let v = Violation { severity: config.severity_of(v.rule), ..v };
            match config.match_allow(&v) {
                Some(idx) => {
                    matched[idx] = true;
                    report.allowed.push(v);
                }
                None => report.violations.push(v),
            }
        }
    }
    // Workspace-wide lock graph: declared chains and inferred nesting from
    // every scanned file merge by lock *name*, so an ABBA ordering split
    // across crates still closes a cycle here.
    for v in global_lock_cycles(&all_edges, &seen_r6) {
        let v = Violation { severity: config.severity_of(v.rule), ..v };
        match config.match_allow(&v) {
            Some(idx) => {
                matched[idx] = true;
                report.allowed.push(v);
            }
            None => report.violations.push(v),
        }
    }
    report.stale_allows = matched
        .iter()
        .enumerate()
        .filter_map(|(i, m)| (!m).then_some(i))
        .collect();
    // Deny before warn; then stable by location for reproducible output.
    report.violations.sort_by(|a, b| {
        let sev = |v: &Violation| matches!(v.severity, Severity::Warn) as u8;
        sev(a)
            .cmp(&sev(b))
            .then_with(|| a.path.cmp(&b.path))
            .then_with(|| a.line.cmp(&b.line))
    });
    Ok(report)
}

/// Lint one in-memory source file under an explicit crate name. This is
/// the kernel of the engine; everything else is discovery and filtering.
pub fn lint_source(rel_path: &str, crate_name: &str, source: &str) -> Vec<Violation> {
    lint_source_full(rel_path, crate_name, source).0
}

/// [`lint_source`] plus the file's lock-graph edges (empty when R6 does
/// not apply), so the workspace-wide graph can be assembled without
/// lexing twice.
pub fn lint_source_full(
    rel_path: &str,
    crate_name: &str,
    source: &str,
) -> (Vec<Violation>, Vec<LockEdge>) {
    let file = lint_file(rel_path, crate_name, source);
    (file.violations, file.edges)
}

/// Everything the engine learns from one file.
struct FileLint {
    /// Findings that stand, including stale-marker findings.
    violations: Vec<Violation>,
    /// Findings an inline marker suppressed.
    allowed: Vec<Violation>,
    edges: Vec<LockEdge>,
}

fn lint_file(rel_path: &str, crate_name: &str, source: &str) -> FileLint {
    let toks = lexer::lex(source);
    let in_test = rules::test_mask(&toks);
    let annots = Annotations::parse(source);
    let ctx =
        FileCtx { path: rel_path, crate_name, toks: &toks, in_test: &in_test, annots: &annots };
    let mut out = Vec::new();
    for rule in RuleId::all() {
        if rule.applies_to_crate(crate_name) && rule.applies_to_file(rel_path) {
            out.extend(rule.check(&ctx));
        }
    }
    let edges = if RuleId::R6.applies_to_crate(crate_name) {
        lockgraph::scan(&ctx).edges
    } else {
        Vec::new()
    };
    let (violations, allowed) = apply_markers(rel_path, &annots, out);
    FileLint { violations, allowed, edges }
}

/// Apply the file's `// lint-allow(Rn): reason` markers: a marker
/// suppresses findings of its rule on its own line or the line below (the
/// scan `// ordering:` and `// bound:` use). A marker with no finding
/// under it is stale and is itself reported under the rule it names, so
/// audited exceptions can only shrink.
fn apply_markers(
    rel_path: &str,
    annots: &Annotations,
    found: Vec<Violation>,
) -> (Vec<Violation>, Vec<Violation>) {
    let covers = |marker: &(u32, String), v: &Violation| {
        v.rule.as_str() == marker.1 && (v.line == marker.0 || v.line == marker.0 + 1)
    };
    let (allowed, mut kept): (Vec<_>, Vec<_>) =
        found.into_iter().partition(|v| annots.allow_markers.iter().any(|m| covers(m, v)));
    for marker in &annots.allow_markers {
        let Some(rule) = RuleId::parse(&marker.1) else { continue };
        if !allowed.iter().any(|v| covers(marker, v)) {
            kept.push(Violation {
                rule,
                severity: rule.default_severity(),
                path: rel_path.to_string(),
                line: marker.0,
                message: format!(
                    "stale `lint-allow({})` marker: no such finding on this line or the next",
                    marker.1
                ),
                hint: "delete the marker — the exception it audited is gone".to_string(),
            });
        }
    }
    (kept, allowed)
}

/// Cycle-check the merged workspace lock graph, skipping witnesses whose
/// location was already reported by a per-file R6 pass.
pub fn global_lock_cycles(edges: &[LockEdge], already: &[(String, u32)]) -> Vec<Violation> {
    lockgraph::find_cycles(edges)
        .into_iter()
        .filter(|c| !already.iter().any(|(p, l)| *p == c.path && *l == c.line))
        .map(|c| Violation {
            rule: RuleId::R6,
            severity: RuleId::R6.default_severity(),
            path: c.path,
            line: c.line,
            message: format!("lock-order cycle (workspace graph): {}", c.names.join(" -> ")),
            hint: "acquire locks in one global order (see the `// lock-order:` chains in cdi-serve::service); restructure so the reversed nesting is impossible"
                .to_string(),
        })
        .collect()
}

/// Which crate owns a workspace-relative path.
fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    "cdi-repro".to_string()
}

/// Files the engine never lints: test code (covered by the runtime chaos
/// suite, and allowed to use unwrap/expect for brevity), benches,
/// examples, build output, the lint engine's own bad-snippet fixtures, and
/// the vendored offline dependency stubs (build tooling, not product code).
fn skip_file(rel: &str) -> bool {
    rel.split('/').any(|seg| {
        matches!(
            seg,
            "target" | ".git" | ".scratch" | "tests" | "benches" | "examples" | "offline-stubs"
        )
    })
}

/// Recursively collect `.rs` files, recording paths relative to `root`.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | ".scratch" | "node_modules" | "offline-stubs"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_detection() {
        assert_eq!(crate_of("crates/cdi-core/src/lib.rs"), "cdi-core");
        assert_eq!(crate_of("src/lib.rs"), "cdi-repro");
    }

    #[test]
    fn test_and_bench_files_are_skipped() {
        assert!(skip_file("crates/cdi-core/tests/proptests.rs"));
        assert!(skip_file("crates/bench/benches/stats.rs"));
        assert!(skip_file("crates/stability-lint/tests/fixtures/r1_bad.rs"));
        assert!(skip_file("tools/offline-stubs/serde/src/lib.rs"));
        assert!(!skip_file("crates/cdi-core/src/indicator.rs"));
    }

    #[test]
    fn lint_source_scopes_rules_by_crate() {
        let src = "pub fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        // statskit: R1 + R2 fire, R5 does not (cdi-core only).
        let vs = lint_source("crates/statskit/src/x.rs", "statskit", src);
        let rules: Vec<&str> = vs.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"R1") && rules.contains(&"R2"), "{rules:?}");
        assert!(!rules.contains(&"R5"));
        // bench: only R2.
        let vs = lint_source("crates/bench/src/x.rs", "bench", src);
        let rules: Vec<&str> = vs.iter().map(|v| v.rule.as_str()).collect();
        assert_eq!(rules, vec!["R2"]);
    }
}
