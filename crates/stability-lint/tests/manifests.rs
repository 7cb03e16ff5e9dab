//! Dependency hygiene, read line by line from the workspace manifests.
//!
//! Every external dependency resolves to a hand-written stand-in under
//! `tools/offline-stubs`, and each stand-in is code to keep compiling and
//! keep honest. These tests keep the set from growing back: a member that
//! declares a stand-in must name it in its own `.rs` files, and every
//! stand-in directory must be reached from a member's declaration —
//! directly through `[workspace.dependencies]` or through another
//! stand-in's manifest (`serde` reaches `serde_derive`).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const STUBS: &str = "tools/offline-stubs";
const DEP_SECTIONS: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The non-blank, non-comment lines of one `[section]` of a manifest.
fn section<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let mut inside = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            out.push(line);
        }
    }
    out
}

/// The key of a `key = value` or `key.workspace = true` line.
fn key_of(line: &str) -> &str {
    let key = line.split('=').next().unwrap_or_default().trim();
    key.strip_suffix(".workspace").unwrap_or(key)
}

/// The `path = "…"` value of a dependency line, if it has one.
fn path_of(line: &str) -> Option<&str> {
    let rest = &line[line.find("path = \"")? + "path = \"".len()..];
    Some(&rest[..rest.find('"')?])
}

/// Workspace dependency name → stand-in directory, for every
/// `[workspace.dependencies]` entry that resolves into `tools/offline-stubs`.
fn workspace_stubs() -> BTreeMap<String, String> {
    let manifest = read(&root().join("Cargo.toml"));
    section(&manifest, "workspace.dependencies")
        .into_iter()
        .filter_map(|line| {
            let dir = path_of(line)?.strip_prefix(STUBS)?.trim_start_matches('/');
            Some((key_of(line).to_string(), dir.to_string()))
        })
        .collect()
}

/// Every workspace member's directory: the root package plus the
/// expansion of `members` (a trailing `/*` is the only glob it uses).
fn members() -> Vec<PathBuf> {
    let root = root();
    let manifest = read(&root.join("Cargo.toml"));
    let mut out = vec![root.clone()];
    for line in section(&manifest, "workspace") {
        if key_of(line) != "members" {
            continue;
        }
        for entry in line.split('"').skip(1).step_by(2) {
            match entry.strip_suffix("/*") {
                Some(parent) => {
                    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join(parent))
                        .unwrap_or_else(|e| panic!("cannot list {parent}: {e}"))
                        .filter_map(|d| d.ok().map(|d| d.path()))
                        .filter(|d| d.join("Cargo.toml").is_file())
                        .collect();
                    dirs.sort();
                    out.extend(dirs);
                }
                None => out.push(root.join(entry)),
            }
        }
    }
    out
}

/// The workspace dependencies a member manifest declares with
/// `workspace = true`, in any dependency section.
fn declared(manifest: &str) -> BTreeSet<String> {
    DEP_SECTIONS
        .iter()
        .flat_map(|name| section(manifest, name))
        .filter(|line| line.replace(' ', "").contains("workspace=true"))
        .map(|line| key_of(line).to_string())
        .collect()
}

/// The `.rs` files of the package rooted at `dir`: nested packages (any
/// subdirectory with its own `Cargo.toml`), build output and hidden
/// directories are not part of it.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && !path.join("Cargo.toml").is_file() {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Whether `src` names the identifier `ident` as a whole word.
fn names(src: &str, ident: &str) -> bool {
    src.match_indices(ident).any(|(i, _)| {
        let before = src[..i].chars().next_back();
        let after = src[i + ident.len()..].chars().next();
        !before.into_iter().chain(after).any(|c| c.is_alphanumeric() || c == '_')
    })
}

/// A member's directory relative to the workspace root (`.` for the root).
fn relative(member: &Path) -> String {
    let rel = member.strip_prefix(root()).unwrap_or(member).display().to_string();
    if rel.is_empty() { ".".to_string() } else { rel }
}

#[test]
fn every_declared_stand_in_is_named_in_its_member() {
    let stubs = workspace_stubs();
    assert!(!stubs.is_empty(), "no [workspace.dependencies] entry resolves into {STUBS}");
    let mut unused = Vec::new();
    for member in members() {
        let mut files = Vec::new();
        rust_files(&member, &mut files);
        let sources: Vec<String> = files.iter().map(|f| read(f)).collect();
        for dep in declared(&read(&member.join("Cargo.toml"))) {
            let ident = dep.replace('-', "_");
            if stubs.contains_key(&dep) && !sources.iter().any(|s| names(s, &ident)) {
                unused.push(format!("{} declares `{dep}`", relative(&member)));
            }
        }
    }
    assert!(unused.is_empty(), "stand-ins declared but named in no .rs file of the member: {unused:?}");
}

#[test]
fn every_stand_in_directory_is_reached() {
    let stubs = workspace_stubs();
    let in_use: BTreeSet<String> =
        members().iter().flat_map(|m| declared(&read(&m.join("Cargo.toml")))).collect();
    let mut reached: BTreeSet<String> =
        stubs.iter().filter(|(dep, _)| in_use.contains(*dep)).map(|(_, dir)| dir.clone()).collect();
    let mut frontier: Vec<String> = reached.iter().cloned().collect();
    while let Some(dir) = frontier.pop() {
        let manifest = read(&root().join(STUBS).join(&dir).join("Cargo.toml"));
        for line in DEP_SECTIONS.iter().flat_map(|name| section(&manifest, name)) {
            if let Some(next) = path_of(line).and_then(|p| p.strip_prefix("../")) {
                if reached.insert(next.to_string()) {
                    frontier.push(next.to_string());
                }
            }
        }
    }
    let present: BTreeSet<String> = fs::read_dir(root().join(STUBS))
        .unwrap_or_else(|e| panic!("cannot list {STUBS}: {e}"))
        .filter_map(|d| d.ok().map(|d| d.path()))
        .filter(|d| d.is_dir())
        .filter_map(|d| d.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .collect();
    let orphans: Vec<&String> = present.difference(&reached).collect();
    assert!(orphans.is_empty(), "stand-ins no member reaches, still under {STUBS}: {orphans:?}");
}
