//! Fixture-driven rule tests.
//!
//! Each `fixtures/rN_bad.rs` snippet embeds `//~ RULE` markers on the lines
//! that must fire; the test asserts the linter reports *exactly* that set of
//! (rule, line) pairs — nothing missing, nothing extra. The matching
//! `rN_good.rs` snippet shows the approved alternative and must be clean.
//!
//! Fixtures live under `tests/fixtures/`, which the engine's workspace walk
//! skips, so they never pollute a real `cargo run -p stability-lint`.

use stability_lint::{lint_source, lint_source_full, RuleId};

/// Collect `(rule, line)` expectations from `//~` markers in a fixture.
fn expected_markers(src: &str) -> Vec<(&'static str, u32)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else { continue };
        for word in line[pos + 3..].split_whitespace() {
            let rule = RuleId::parse(word)
                .unwrap_or_else(|| panic!("fixture marker names unknown rule `{word}`"));
            out.push((rule.as_str(), u32::try_from(i + 1).unwrap_or(u32::MAX)));
        }
    }
    out
}

/// Lint a fixture as if it lived at `rel_path` inside `crate_name` and
/// compare the fired (rule, line) pairs against the embedded markers.
fn check(fixture: &str, rel_path: &str, crate_name: &str) {
    let mut expected = expected_markers(fixture);
    let mut got: Vec<(&'static str, u32)> = lint_source(rel_path, crate_name, fixture)
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "violations reported for {rel_path} (left) differ from the //~ markers (right)"
    );
}

#[test]
fn r1_fires_on_each_panic_site() {
    check(
        include_str!("fixtures/r1_bad.rs"),
        "crates/statskit/src/fixture.rs",
        "statskit",
    );
}

#[test]
fn r1_ignores_tests_and_fallbacks() {
    check(
        include_str!("fixtures/r1_good.rs"),
        "crates/statskit/src/fixture.rs",
        "statskit",
    );
}

#[test]
fn r1_is_silent_outside_library_crates() {
    // Same panic-heavy source, but in a binary/bench crate: no findings.
    let violations = lint_source(
        "crates/bench/src/fixture.rs",
        "bench",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert!(
        violations.is_empty(),
        "R1 must not apply to non-library crates, got {violations:?}"
    );
}

#[test]
fn r2_fires_inside_every_sort_adapter() {
    check(
        include_str!("fixtures/r2_bad.rs"),
        "crates/cloudbot/src/fixture.rs",
        "cloudbot",
    );
}

#[test]
fn r2_accepts_total_cmp_and_unrelated_partial_cmp() {
    check(
        include_str!("fixtures/r2_good.rs"),
        "crates/cloudbot/src/fixture.rs",
        "cloudbot",
    );
}

#[test]
fn r3_fires_on_wall_clock_and_unseeded_rng() {
    check(
        include_str!("fixtures/r3_bad.rs"),
        "crates/simfleet/src/fixture.rs",
        "simfleet",
    );
}

#[test]
fn r3_accepts_injected_clock_and_seeded_rng() {
    check(
        include_str!("fixtures/r3_good.rs"),
        "crates/simfleet/src/fixture.rs",
        "simfleet",
    );
}

#[test]
fn r3_is_silent_outside_deterministic_crates() {
    let violations = lint_source(
        "crates/cloudbot/src/fixture.rs",
        "cloudbot",
        include_str!("fixtures/r3_good.rs"),
    );
    assert!(
        violations.is_empty(),
        "clean fixture must stay clean in any crate, got {violations:?}"
    );
}

#[test]
fn r4_fires_on_numeric_as_casts_in_metric_math() {
    check(
        include_str!("fixtures/r4_bad.rs"),
        "crates/cdi-core/src/indicator.rs",
        "cdi-core",
    );
}

#[test]
fn r4_accepts_from_and_try_from() {
    check(
        include_str!("fixtures/r4_good.rs"),
        "crates/cdi-core/src/indicator.rs",
        "cdi-core",
    );
}

#[test]
fn r4_is_scoped_to_metric_math_files() {
    // The same casts outside indicator/weight/streaming are not R4's business.
    let violations = lint_source(
        "crates/cdi-core/src/num.rs",
        "cdi-core",
        include_str!("fixtures/r4_bad.rs"),
    );
    assert!(
        violations.is_empty(),
        "R4 must only watch the metric-math files, got {violations:?}"
    );
}

#[test]
fn r5_fires_on_missing_docs() {
    check(
        include_str!("fixtures/r5_bad.rs"),
        "crates/cdi-core/src/fixture.rs",
        "cdi-core",
    );
}

#[test]
fn r5_accepts_documented_public_surface() {
    check(
        include_str!("fixtures/r5_good.rs"),
        "crates/cdi-core/src/fixture.rs",
        "cdi-core",
    );
}

#[test]
fn r5_is_scoped_to_cdi_core() {
    let violations = lint_source(
        "crates/statskit/src/fixture.rs",
        "statskit",
        include_str!("fixtures/r5_bad.rs"),
    );
    assert!(
        violations.is_empty(),
        "R5 must only apply to cdi-core, got {violations:?}"
    );
}

#[test]
fn r6_fires_on_abba_nesting() {
    check(
        include_str!("fixtures/r6_bad.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r6_accepts_declared_order_and_sequential_locking() {
    check(
        include_str!("fixtures/r6_good.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r6_cycle_message_carries_the_witness_path() {
    let vs = lint_source(
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
        include_str!("fixtures/r6_bad.rs"),
    );
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(
        vs[0].message.contains("a -> b -> a"),
        "witness path missing from `{}`",
        vs[0].message
    );
}

#[test]
fn r6_catches_abba_split_across_files() {
    // `forward.rs` nests a→b, `backward.rs` nests b→a: each file is clean
    // on its own, but the merged workspace graph closes the cycle.
    let fwd = "pub fn forward(p: &P) {\n\
               let ga = p.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
               let gb = p.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
               }\n";
    let bwd = "pub fn backward(p: &P) {\n\
               let gb = p.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
               let ga = p.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
               }\n";
    let (v1, e1) = lint_source_full("crates/cdi-serve/src/forward.rs", "cdi-serve", fwd);
    let (v2, e2) = lint_source_full("crates/cdi-serve/src/backward.rs", "cdi-serve", bwd);
    assert!(v1.iter().chain(&v2).all(|v| v.rule != RuleId::R6), "per-file must be clean");
    let mut edges = e1;
    edges.extend(e2);
    let global = stability_lint::engine::global_lock_cycles(&edges, &[]);
    assert_eq!(global.len(), 1, "{global:?}");
    assert!(global[0].message.contains("a -> b -> a"), "{}", global[0].message);
}

#[test]
fn r7_fires_on_each_blocking_call_under_guard() {
    check(
        include_str!("fixtures/r7_bad.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r7_accepts_hoisted_blocking_work() {
    check(
        include_str!("fixtures/r7_good.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r7_is_scoped_to_concurrent_crates() {
    let violations = lint_source(
        "crates/cloudbot/src/fixture.rs",
        "cloudbot",
        include_str!("fixtures/r7_bad.rs"),
    );
    assert!(
        violations.is_empty(),
        "R6-R8 must not apply to cloudbot, got {violations:?}"
    );
}

#[test]
fn r8_fires_on_unjustified_weak_orderings() {
    check(
        include_str!("fixtures/r8_bad.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r8_accepts_seqcst_and_justified_orderings() {
    check(
        include_str!("fixtures/r8_good.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r9_fires_on_unbounded_growth_into_long_lived_state() {
    check(
        include_str!("fixtures/r9_bad.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r9_accepts_bounded_growth_and_locals() {
    check(
        include_str!("fixtures/r9_good.rs"),
        "crates/cdi-serve/src/fixture.rs",
        "cdi-serve",
    );
}

#[test]
fn r9_is_scoped_to_the_serving_layer() {
    let violations = lint_source(
        "crates/minispark/src/fixture.rs",
        "minispark",
        include_str!("fixtures/r9_bad.rs"),
    );
    assert!(
        violations.iter().all(|v| v.rule != RuleId::R9),
        "R9 is cdi-serve only, got {violations:?}"
    );
}

#[test]
fn lint_allow_marker_suppresses_the_line_below_and_its_own_line() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               // lint-allow(R1): documented panicking twin\n\
               let a = x.unwrap();\n\
               let b = x.unwrap(); // lint-allow(R1): same contract\n\
               a + b\n\
               }\n";
    let violations = lint_source("crates/statskit/src/fixture.rs", "statskit", src);
    assert!(violations.is_empty(), "both sites carry a marker, got {violations:?}");
}

#[test]
fn lint_allow_marker_is_rule_specific_and_needs_a_reason() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               // lint-allow(R2): wrong rule\n\
               let a = x.unwrap();\n\
               // lint-allow(R1):\n\
               let b = x.unwrap();\n\
               a + b\n\
               }\n";
    let got: Vec<(&str, u32)> = lint_source("crates/statskit/src/fixture.rs", "statskit", src)
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    // Both unwraps still fire; the R2 marker covers nothing, so it is stale.
    assert_eq!(got, vec![("R1", 3), ("R1", 5), ("R2", 2)]);
}

#[test]
fn stale_lint_allow_marker_is_reported_under_its_rule() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n\
               // lint-allow(R1): used to unwrap here\n\
               x.unwrap_or(0)\n\
               }\n";
    let violations = lint_source("crates/statskit/src/fixture.rs", "statskit", src);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!((violations[0].rule, violations[0].line), (RuleId::R1, 2));
    assert!(violations[0].message.contains("stale"), "{}", violations[0].message);
}
