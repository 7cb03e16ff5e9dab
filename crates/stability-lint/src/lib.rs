#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
//! # stability-lint — workspace-wide invariant linting
//!
//! The CDI pipeline is only trustworthy if the code computing it cannot
//! silently panic, reorder NaNs, or break simulator determinism. Runtime
//! fault injection (the chaos suite from the fault-tolerance PR) samples
//! those failure modes; this crate makes them *statically impossible* to
//! reintroduce. It parses every `.rs` file in the workspace with a
//! dependency-free lexer (the build must work offline, so no `syn`) and
//! enforces nine repo-specific invariants:
//!
//! | id | name | scope | default |
//! |----|------|-------|---------|
//! | R1 | no-panic-path | library crates, outside tests | deny |
//! | R2 | nan-unsafe-sort | whole workspace | deny |
//! | R3 | nondeterminism | `simfleet`, `cdi-core`, `cdi-serve` | deny |
//! | R4 | lossy-numeric-cast | metric-math modules | deny |
//! | R5 | undocumented-pub | `cdi-core` public API | deny |
//! | R6 | lock-order-cycle | `cdi-serve`, `minispark`, `cdi-core` | deny |
//! | R7 | blocking-while-locked | `cdi-serve`, `minispark`, `cdi-core` | deny |
//! | R8 | unjustified-ordering | `cdi-serve`, `minispark`, `cdi-core` | deny |
//! | R9 | unbounded-growth | `cdi-serve` | warn |
//!
//! R6–R9 are the concurrency pass ([`lockgraph`]): R6 merges declared
//! `// lock-order:` chains with inferred same-scope nesting into one
//! workspace lock graph and fails on cycles with a witness path; R7 flags
//! blocking calls reachable while a guard is live; R8 requires every
//! non-SeqCst atomic `Ordering::` to carry an `// ordering:`
//! justification; R9 requires a `// bound:` note wherever long-lived
//! state grows on a hot path. The static declarations are cross-checked
//! at runtime by `cdi-serve::tracked`, a debug-only lock sanitizer that
//! asserts the *observed* acquisition graph stays inside the declared
//! order during tests and chaos drills.
//!
//! Audited exceptions are written where they apply: a
//! `// lint-allow(Rn): reason` comment on the offending line or the line
//! above it allows that one site, and a marker with no finding under it
//! is itself reported (under the rule it names) so exceptions can only
//! shrink. `lint.toml` at the workspace root holds the severity overrides
//! and whole-file `[[allow]]` entries, with the same stale check. Run it
//! with:
//!
//! ```text
//! cargo run -p stability-lint            # human output, exit 1 on deny
//! cargo run -p stability-lint -- --format json
//! ```

pub mod config;
pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod lockgraph;
pub mod rules;

pub use config::{AllowEntry, Config};
pub use diagnostics::{Severity, Violation};
pub use engine::{lint_source, lint_source_full, run, run_on_files, Report};
pub use lockgraph::{Annotations, CycleWitness, LockEdge};
pub use rules::RuleId;
