//! Lock-order analysis shared by rules R6–R9: source-comment annotation
//! parsing, lock-acquisition extraction with a guard-liveness heuristic,
//! and cycle detection over the combined (declared + inferred) lock graph.
//!
//! The lexer deliberately drops plain `//` comments from the token stream,
//! so the annotation conventions live in a separate raw-line pass:
//!
//! - `// lock-order: a -> b -> c` declares that lock `a` may be held while
//!   acquiring `b`, and `b` while acquiring `c`. Chains from every scanned
//!   file merge into one workspace-wide graph.
//! - `// lock: name` on an acquisition line overrides the inferred lock
//!   name (used where a field name is not the canonical lock name, e.g. a
//!   queue's internal `state` mutex) and can mark helper calls such as
//!   `self.rd()` that return a guard without a literal `.read()` on the
//!   line.
//! - `// ordering: reason` on (or immediately above) an `Ordering::` use
//!   justifies a non-SeqCst atomic ordering for R8.
//! - `// bound: reason` on (or immediately above) a growth site records
//!   the bound/eviction argument R9 asks for.
//!
//! Guard liveness is a heuristic, not a borrow checker: a `let`-bound
//! guard lives to the end of its enclosing block (or an explicit
//! `drop(var)`), a temporary guard to the end of its statement, and the
//! held set resets at every `fn` item. That is enough to see same-scope
//! nesting; cross-function ordering knowledge comes from the declared
//! chains and, at runtime, from `cdi-serve`'s `tracked` sanitizer.

use crate::lexer::{Tok, TokKind};
use crate::rules::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

/// Comment-level annotations extracted from one file's raw source lines.
#[derive(Debug, Default, Clone)]
pub struct Annotations {
    /// `// lock-order:` chains: (lock names in order, 1-indexed line).
    pub chains: Vec<(Vec<String>, u32)>,
    /// `// lock: name` overrides, keyed by 1-indexed line.
    pub lock_names: BTreeMap<u32, String>,
    /// Lines carrying a non-empty `// ordering:` justification.
    pub ordering_ok: BTreeSet<u32>,
    /// Lines carrying a non-empty `// bound:` note.
    pub bound_ok: BTreeSet<u32>,
    /// `// lint-allow(Rn): reason` markers with a non-empty reason:
    /// (1-indexed line, rule name as written).
    pub allow_markers: Vec<(u32, String)>,
}

impl Annotations {
    /// Parse the annotation comments out of raw source text.
    pub fn parse(source: &str) -> Annotations {
        let mut out = Annotations::default();
        for (idx, raw) in source.lines().enumerate() {
            let line = idx as u32 + 1;
            let Some(pos) = raw.find("//") else { continue };
            // Plain `//` only: `///` and `//!` are docs, `//~` is a marker.
            let rest = raw[pos + 2..].trim_start();
            if let Some(chain) = rest.strip_prefix("lock-order:") {
                let names: Vec<String> = chain
                    .split("->")
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.len() >= 2 {
                    out.chains.push((names, line));
                }
            } else if let Some(name) = rest.strip_prefix("lock:") {
                let name = name.trim();
                if !name.is_empty() {
                    out.lock_names.insert(line, name.to_string());
                }
            } else if let Some(reason) = rest.strip_prefix("ordering:") {
                if !reason.trim().is_empty() {
                    out.ordering_ok.insert(line);
                }
            } else if let Some(reason) = rest.strip_prefix("bound:") {
                if !reason.trim().is_empty() {
                    out.bound_ok.insert(line);
                }
            } else if let Some((rule, reason)) =
                rest.strip_prefix("lint-allow(").and_then(|m| m.split_once("):"))
            {
                if !reason.trim().is_empty() {
                    out.allow_markers.push((line, rule.trim().to_string()));
                }
            }
        }
        out
    }

    /// Is there an `// ordering:` justification on `line` or the line above?
    pub fn justified_ordering(&self, line: u32) -> bool {
        self.ordering_ok.contains(&line) || (line > 1 && self.ordering_ok.contains(&(line - 1)))
    }

    /// Is there a `// bound:` note on `line` or the line above?
    pub fn bounded(&self, line: u32) -> bool {
        self.bound_ok.contains(&line) || (line > 1 && self.bound_ok.contains(&(line - 1)))
    }
}

/// One directed edge in the lock graph: `from` was held while `to` was
/// acquired (inferred), or the declared order says `from` precedes `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held (or declared earlier in a chain).
    pub from: String,
    /// Lock acquired (or declared later in a chain).
    pub to: String,
    /// Workspace-relative file the edge was observed/declared in.
    pub path: String,
    /// 1-indexed line of the acquisition (or the chain declaration).
    pub line: u32,
    /// True for `// lock-order:` chain edges, false for inferred nesting.
    pub declared: bool,
}

/// A blocking operation reached while at least one guard was live (R7).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// The blocking call's identifier (`sleep`, `join`, `push_blocking`...).
    pub op: String,
    /// Names of the guards live at the call, outermost first.
    pub held: Vec<String>,
    /// 1-indexed line of the blocking call.
    pub line: u32,
}

/// Everything the scanner learns about one file.
#[derive(Debug, Default)]
pub struct FileLockInfo {
    /// Lock-graph edges (declared chains expanded + inferred nesting).
    pub edges: Vec<LockEdge>,
    /// Blocking-while-locked sites for R7.
    pub blocking: Vec<BlockingSite>,
}

/// A lock currently held during the scan.
#[derive(Debug)]
struct Guard {
    name: String,
    /// Brace depth at acquisition; the guard dies when depth drops below.
    depth: usize,
    /// `let`-bound guards live to end of block, temporaries to end of
    /// statement.
    let_bound: bool,
    /// Variable name for `drop(var)` tracking, when known.
    var: Option<String>,
}

/// Methods that acquire a guard when called with zero arguments.
const ACQUIRERS: [&str; 3] = ["lock", "read", "write"];

/// Calls that can block the thread (R7). Condvar `wait` is deliberately
/// absent: waiting while holding the paired mutex is the condvar contract.
const BLOCKING: [&str; 13] = [
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "push_blocking",
    "write_all",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "accept",
    "connect",
    "drain_to_fence",
];

/// Scan one file: extract lock-graph edges and blocking-while-locked
/// sites using the guard-liveness heuristic described in the module docs.
pub fn scan(ctx: &FileCtx<'_>) -> FileLockInfo {
    let mut info = FileLockInfo::default();
    for (names, line) in &ctx.annots.chains {
        for pair in names.windows(2) {
            info.edges.push(LockEdge {
                from: pair[0].clone(),
                to: pair[1].clone(),
                path: ctx.path.to_string(),
                line: *line,
                declared: true,
            });
        }
    }

    let toks = ctx.toks;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Per-block "current statement started with `let`" + its binding name.
    let mut stmt_let: Vec<(bool, Option<String>)> = vec![(false, None)];
    let mut used_lock_ann: BTreeSet<u32> = BTreeSet::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_let.push((false, None));
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    stmt_let.pop();
                    if stmt_let.is_empty() {
                        stmt_let.push((false, None));
                    }
                    guards.retain(|g| g.depth <= depth);
                }
                ";" => {
                    guards.retain(|g| g.let_bound || g.depth != depth);
                    if let Some(top) = stmt_let.last_mut() {
                        *top = (false, None);
                    }
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident || ctx.in_test[i] {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => guards.clear(),
            "let" => {
                let mut j = i + 1;
                while toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                    j += 1;
                }
                let var = toks
                    .get(j)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone());
                if let Some(top) = stmt_let.last_mut() {
                    *top = (true, var);
                }
            }
            "drop" if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                if let Some(v) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                    if toks.get(i + 3).is_some_and(|n| n.is_punct(')')) {
                        guards.retain(|g| g.var.as_deref() != Some(v.text.as_str()));
                    }
                }
            }
            _ => {
                let prev_dot = i > 0 && toks[i - 1].is_punct('.');
                let prev_colon = i > 0 && toks[i - 1].is_punct(':');
                let open = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let zero_arg = open && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
                let annotated = ctx.annots.lock_names.get(&t.line).filter(|_| {
                    !used_lock_ann.contains(&t.line)
                });
                let is_acquire = prev_dot
                    && open
                    && ((ACQUIRERS.contains(&t.text.as_str()) && zero_arg)
                        || annotated.is_some());
                if is_acquire {
                    let name = match annotated {
                        Some(n) => {
                            used_lock_ann.insert(t.line);
                            n.clone()
                        }
                        None => infer_name(toks, i),
                    };
                    for g in &guards {
                        info.edges.push(LockEdge {
                            from: g.name.clone(),
                            to: name.clone(),
                            path: ctx.path.to_string(),
                            line: t.line,
                            declared: false,
                        });
                    }
                    // `let x = relock(state.lock()).len()` binds the
                    // *extracted value*, not the guard — only a trailing
                    // chain of guard-preserving adapters keeps the guard
                    // alive past the statement.
                    let (let_bound, var) = if guard_retained(toks, i) {
                        stmt_let.last().cloned().unwrap_or((false, None))
                    } else {
                        (false, None)
                    };
                    guards.push(Guard { name, depth, let_bound, var });
                } else if (prev_dot || (prev_colon && t.text == "sleep"))
                    && open
                    && BLOCKING.contains(&t.text.as_str())
                    && !guards.is_empty()
                    // `.join()` must be zero-arg so `path.join("x")` passes.
                    && (t.text != "join" || zero_arg)
                {
                    info.blocking.push(BlockingSite {
                        op: t.text.clone(),
                        held: guards.iter().map(|g| g.name.clone()).collect(),
                        line: t.line,
                    });
                }
            }
        }
        i += 1;
    }
    info
}

/// Method-chain adapters that pass the guard through rather than
/// extracting a value from it.
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "unwrap_or_default"];

/// After the acquisition call at `call` (the `lock`/`read`/`write`/helper
/// ident), does the statement bind the guard itself? True when the rest
/// of the expression is closing parens of wrappers like `relock(...)` and
/// guard-preserving adapters, ending the statement; false when a further
/// method call (`.len()`, `.checkpoint()`, `.take()`) consumes the guard
/// into a value, making the guard a statement-scoped temporary.
fn guard_retained(toks: &[Tok], call: usize) -> bool {
    // Skip the acquisition call's balanced argument parens.
    let mut j = call + 1;
    let mut depth = 0usize;
    while let Some(t) = toks.get(j) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    loop {
        match toks.get(j) {
            // Closing paren of an enclosing wrapper call.
            Some(t) if t.is_punct(')') => j += 1,
            // Statement ends with the guard still in hand.
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('.') => {
                let Some(m) = toks.get(j + 1) else { return false };
                if m.kind == TokKind::Ident
                    && GUARD_ADAPTERS.contains(&m.text.as_str())
                    && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
                {
                    // Skip the adapter's balanced argument parens.
                    let mut depth = 0usize;
                    j += 2;
                    while let Some(t) = toks.get(j) {
                        if t.is_punct('(') {
                            depth += 1;
                        } else if t.is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Infer a lock name from the receiver: the identifier immediately before
/// the `.lock()`/`.read()`/`.write()` call (`self.state.lock()` → `state`).
fn infer_name(toks: &[Tok], call: usize) -> String {
    // toks[call] is the method ident, toks[call-1] the `.`.
    if call >= 2 {
        let recv = &toks[call - 2];
        if recv.kind == TokKind::Ident || recv.kind == TokKind::RawIdent {
            return recv.text.clone();
        }
    }
    "<unnamed>".to_string()
}

/// A cycle in the lock graph, with the witness acquisition that closes it.
#[derive(Debug, Clone)]
pub struct CycleWitness {
    /// The cycle as a lock-name path, first node repeated at the end
    /// (`a -> b -> a` is `["a", "b", "a"]`), rotated so the smallest name
    /// leads — deterministic across runs.
    pub names: Vec<String>,
    /// File of the representative edge (inferred edges preferred).
    pub path: String,
    /// Line of the representative edge.
    pub line: u32,
}

/// Detect cycles in the combined lock graph. Each distinct cycle (by node
/// set and rotation-canonical order) is reported once, attributed to its
/// earliest inferred edge (falling back to a declared-chain line).
pub fn find_cycles(edges: &[LockEdge]) -> Vec<CycleWitness> {
    // Keep one representative edge per (from, to): inferred beats
    // declared, then earliest (path, line).
    let mut adj: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    for e in edges {
        let slot = adj.entry(e.from.as_str()).or_default();
        match slot.get_mut(e.to.as_str()) {
            Some(cur) => {
                if (e.declared, e.path.as_str(), e.line)
                    < (cur.declared, cur.path.as_str(), cur.line)
                {
                    *cur = e;
                }
            }
            None => {
                slot.insert(e.to.as_str(), e);
            }
        }
    }
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut raw_cycles: Vec<Vec<String>> = Vec::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for s in starts {
        dfs(s, &adj, &mut color, &mut stack, &mut raw_cycles);
    }

    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    for cyc in raw_cycles {
        let canon = canonical_rotation(&cyc);
        if !seen.insert(canon.clone()) {
            continue;
        }
        // Representative location: best edge along the cycle.
        let mut best: Option<&LockEdge> = None;
        let mut names = canon.clone();
        names.push(canon[0].clone());
        for pair in names.windows(2) {
            if let Some(e) = adj.get(pair[0].as_str()).and_then(|m| m.get(pair[1].as_str())) {
                let better = match best {
                    None => true,
                    Some(b) => {
                        (e.declared, e.path.as_str(), e.line)
                            < (b.declared, b.path.as_str(), b.line)
                    }
                };
                if better {
                    best = Some(e);
                }
            }
        }
        let (path, line) = best
            .map(|e| (e.path.clone(), e.line))
            .unwrap_or_else(|| (String::new(), 1));
        out.push(CycleWitness { names, path, line });
    }
    out.sort_by(|a, b| a.names.cmp(&b.names));
    out
}

/// Depth-first search collecting back-edge cycles (white/gray/black).
fn dfs<'a>(
    u: &'a str,
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, &'a LockEdge>>,
    color: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<String>>,
) {
    match color.get(u) {
        Some(2) => return,
        Some(1) => return, // handled by the caller's back-edge check
        _ => {}
    }
    color.insert(u, 1);
    stack.push(u);
    if let Some(next) = adj.get(u) {
        for &v in next.keys() {
            match color.get(v) {
                Some(1) => {
                    // Back edge: the cycle is the stack from v onward.
                    if let Some(pos) = stack.iter().position(|&n| n == v) {
                        cycles.push(stack[pos..].iter().map(|s| s.to_string()).collect());
                    }
                }
                Some(2) => {}
                _ => dfs(v, adj, color, stack, cycles),
            }
        }
    }
    stack.pop();
    color.insert(u, 2);
}

/// Rotate a cycle so its smallest node comes first (no trailing repeat).
fn canonical_rotation(cycle: &[String]) -> Vec<String> {
    if cycle.is_empty() {
        return Vec::new();
    }
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend(cycle[min_pos..].iter().cloned());
    out.extend(cycle[..min_pos].iter().cloned());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(src: &str) -> Annotations {
        Annotations::parse(src)
    }

    #[test]
    fn parses_chain_and_overrides() {
        let a = ann("// lock-order: a -> b -> c\nlet g = x.lock(); // lock: queue\n// ordering: stat only\nx.load(O::Relaxed);\n");
        assert_eq!(a.chains, vec![(vec!["a".into(), "b".into(), "c".into()], 1)]);
        assert_eq!(a.lock_names.get(&2).map(String::as_str), Some("queue"));
        assert!(a.justified_ordering(4));
        assert!(!a.justified_ordering(2));
    }

    #[test]
    fn doc_comments_do_not_declare_chains() {
        let a = ann("/// lock-order: a -> b\n//! lock-order: a -> b\n");
        assert!(a.chains.is_empty());
    }

    #[test]
    fn cycle_witness_is_canonical() {
        let e = |f: &str, t: &str, line| LockEdge {
            from: f.into(),
            to: t.into(),
            path: "x.rs".into(),
            line,
            declared: false,
        };
        let cycles = find_cycles(&[e("b", "c", 2), e("c", "a", 3), e("a", "b", 1)]);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].names, ["a", "b", "c", "a"]);
        assert_eq!((cycles[0].path.as_str(), cycles[0].line), ("x.rs", 1));
    }

    #[test]
    fn dag_has_no_cycles() {
        let e = |f: &str, t: &str| LockEdge {
            from: f.into(),
            to: t.into(),
            path: "x.rs".into(),
            line: 1,
            declared: true,
        };
        assert!(find_cycles(&[e("a", "b"), e("b", "c"), e("a", "c")]).is_empty());
    }
}
