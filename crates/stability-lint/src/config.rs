//! `lint.toml`: audited exceptions and severity overrides.
//!
//! The parser is a deliberate TOML subset (no external deps): `#` comments,
//! `[severity]` with `RULE = "deny"|"warn"` pairs, and repeated `[[allow]]`
//! tables with `rule`, `path`, and mandatory `reason` string keys — each
//! allows one rule across a whole file. Anything else is a hard error — an
//! allowlist that silently drops entries would un-audit the exceptions it
//! exists to audit. A single audited *site* is allowed where it stands,
//! with an inline `// lint-allow(Rn): reason` marker on the line or the
//! line above (see `engine`), so it moves with the code.
//!
//! ```toml
//! [severity]
//! R5 = "warn"
//!
//! [[allow]]
//! rule = "R1"
//! path = "crates/minispark/src/dataset.rs"
//! reason = "the panicking action wrappers are the documented twins of try_*"
//! ```

use crate::diagnostics::{Severity, Violation};
use crate::rules::RuleId;
use std::collections::HashMap;

/// One audited exception.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule being excepted.
    pub rule: RuleId,
    /// Workspace-relative path the exception applies to (the whole file).
    pub path: String,
    /// Why this site is acceptable (mandatory: unexplained exceptions are
    /// how invariants rot).
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// Audited exceptions, in file order.
    pub allow: Vec<AllowEntry>,
    /// Severity overrides by rule.
    pub severity: HashMap<RuleId, Severity>,
}

impl Config {
    /// Parse the config text. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = Section::None;
        let mut current: Option<PartialAllow> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(p) = current.take() {
                    cfg.allow.push(p.finish()?);
                }
                current = Some(PartialAllow::default());
                section = Section::Allow;
                continue;
            }
            if line == "[severity]" {
                if let Some(p) = current.take() {
                    cfg.allow.push(p.finish()?);
                }
                section = Section::Severity;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("lint.toml:{lineno}: unknown section `{line}`"));
            }
            let (key, value) = split_kv(&line)
                .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`, got `{line}`"))?;
            match section {
                Section::Severity => {
                    let rule = RuleId::parse(&key)
                        .ok_or_else(|| format!("lint.toml:{lineno}: unknown rule `{key}`"))?;
                    let sev = Severity::parse(&unquote(&value)?)
                        .ok_or_else(|| format!("lint.toml:{lineno}: severity must be deny|warn"))?;
                    cfg.severity.insert(rule, sev);
                }
                Section::Allow => {
                    let entry = current
                        .as_mut()
                        .ok_or_else(|| format!("lint.toml:{lineno}: key outside [[allow]]"))?;
                    match key.as_str() {
                        "rule" => {
                            let v = unquote(&value)?;
                            entry.rule = Some(RuleId::parse(&v).ok_or_else(|| {
                                format!("lint.toml:{lineno}: unknown rule `{v}`")
                            })?);
                        }
                        "path" => entry.path = Some(unquote(&value)?),
                        "reason" => entry.reason = Some(unquote(&value)?),
                        other => {
                            return Err(format!("lint.toml:{lineno}: unknown key `{other}`"));
                        }
                    }
                }
                Section::None => {
                    return Err(format!("lint.toml:{lineno}: key before any section"));
                }
            }
        }
        if let Some(p) = current.take() {
            cfg.allow.push(p.finish()?);
        }
        Ok(cfg)
    }

    /// Effective severity of a rule under this config.
    pub fn severity_of(&self, rule: RuleId) -> Severity {
        self.severity.get(&rule).copied().unwrap_or(rule.default_severity())
    }

    /// Index of the first allowlist entry matching the violation, if any.
    pub fn match_allow(&self, v: &Violation) -> Option<usize> {
        self.allow.iter().position(|a| a.rule == v.rule && a.path == v.path)
    }
}

enum Section {
    None,
    Allow,
    Severity,
}

#[derive(Default)]
struct PartialAllow {
    rule: Option<RuleId>,
    path: Option<String>,
    reason: Option<String>,
}

impl PartialAllow {
    fn finish(self) -> Result<AllowEntry, String> {
        let rule = self.rule.ok_or("lint.toml: [[allow]] entry missing `rule`")?;
        let path = self.path.ok_or("lint.toml: [[allow]] entry missing `path`")?;
        let reason = self.reason.ok_or("lint.toml: [[allow]] entry missing `reason`")?;
        if reason.trim().is_empty() {
            return Err("lint.toml: [[allow]] reason must be non-empty".into());
        }
        Ok(AllowEntry { rule, path, reason })
    }
}

/// Remove a trailing `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Split `key = value` on the first `=`.
fn split_kv(line: &str) -> Option<(String, String)> {
    let (k, v) = line.split_once('=')?;
    Some((k.trim().to_string(), v.trim().to_string()))
}

/// Strip the required surrounding quotes from a TOML string value.
fn unquote(v: &str) -> Result<String, String> {
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].replace("\\\"", "\"").replace("\\\\", "\\"))
    } else {
        Err(format!("expected a quoted string, got `{v}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
[severity]
R5 = "deny"

[[allow]]
rule = "R1"
path = "crates/minispark/src/dataset.rs"
reason = "documented panicking twin"  # trailing comment

[[allow]]
rule = "R1"
path = "crates/minispark/src/exec.rs"
reason = "whole-file audit"
"#,
        )
        .unwrap();
        assert_eq!(cfg.allow.len(), 2);
        assert_eq!(cfg.allow[1].path, "crates/minispark/src/exec.rs");
        assert_eq!(cfg.severity_of(RuleId::R5), Severity::Deny);
        assert_eq!(cfg.severity_of(RuleId::R1), Severity::Deny);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let err = Config::parse("[[allow]]\nrule = \"R1\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err =
            Config::parse("[[allow]]\nrule = \"R12\"\npath = \"x\"\nreason = \"r\"\n").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }
}
