//! rts-check: a zero-dependency deterministic property/fuzz harness for
//! the smoothing stack.
//!
//! The crate has three layers:
//!
//! * [`engine`] — the generic machinery: [`run_property`] draws inputs
//!   from per-case [`SplitMix64`](rts_stream::rng::SplitMix64) seeds,
//!   evaluates a property, and shrinks any counterexample to a minimal
//!   replayable reproducer pinned by a single `CHECK_SEED` integer.
//! * [`gen`] — structured generators/shrinkers for the domain: streams,
//!   smoothing parameter sets (arbitrary or pinned to the balanced
//!   manifold `B = R·D`), drop policies, and fault plans.
//! * the check catalog — [`invariants`] binds the paper's theorems to
//!   executable predicates; [`oracles`] binds paired implementations
//!   (fast vs reference, composed vs parts, clever vs exhaustive) to
//!   exact agreement.
//! * [`reference_server`] — a map-backed counterpart of the product
//!   server, the test-only reference that the `ring-vs-map` oracle,
//!   `tests/buffer_diff.rs` and the hotpath ablation step against the
//!   product.
//!
//! Every run is a pure function of `(cases, seed)`, so CI, the
//! `smoothctl check` subcommand, and a developer shell all see the same
//! verdicts; a failure prints a `CHECK_SEED` that regenerates and
//! re-shrinks the exact counterexample anywhere.

pub mod engine;
pub mod gen;
pub mod invariants;
pub mod offline;
pub mod oracles;
mod reference_client;
pub mod reference_server;
pub mod smoothd;
pub mod telemetry;

pub use engine::{
    run_property, shrink_u64, shrink_vec, CheckConfig, CheckStats, Failure, Verdict,
};

/// Which layer a check belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// A paper bound or structural model invariant.
    Invariant,
    /// A differential comparison of paired implementations.
    Oracle,
}

impl CheckKind {
    /// Display tag.
    pub fn tag(self) -> &'static str {
        match self {
            CheckKind::Invariant => "invariant",
            CheckKind::Oracle => "oracle",
        }
    }
}

/// A named property in the catalog.
pub struct Check {
    /// Stable kebab-case name (the `--filter` key).
    pub name: &'static str,
    /// One line stating what the check binds.
    pub binds: &'static str,
    /// Invariant or oracle.
    pub kind: CheckKind,
    /// Runs the check under a configuration.
    pub run: fn(&CheckConfig) -> Result<CheckStats, Box<Failure>>,
}

/// The full catalog: invariants first, then oracles, both in their
/// declared order (the order is part of the deterministic output).
pub fn all_checks() -> Vec<Check> {
    let mut checks = invariants::checks();
    checks.extend(oracles::checks());
    checks.extend(offline::checks());
    checks.extend(smoothd::checks());
    checks.extend(telemetry::checks());
    checks
}

/// The outcome of one catalog run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Deterministic human-readable report text.
    pub text: String,
    /// Number of checks that ran and passed.
    pub passed: usize,
    /// Names of checks that failed.
    pub failed: Vec<&'static str>,
}

impl RunReport {
    /// Whether every selected check passed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Runs every catalog check whose name contains `filter` (all of them
/// when `filter` is `None`) and renders a deterministic report.
///
/// Failures do not stop the run: each selected check reports
/// independently, so one regression cannot mask another.
pub fn run_checks(cfg: &CheckConfig, filter: Option<&str>) -> RunReport {
    let mut text = String::new();
    let mut passed = 0;
    let mut failed = Vec::new();
    let selected: Vec<Check> = all_checks()
        .into_iter()
        .filter(|c| filter.is_none_or(|f| c.name.contains(f)))
        .collect();
    if selected.is_empty() {
        text.push_str("no checks match the filter\n");
        return RunReport {
            text,
            passed,
            failed,
        };
    }
    for check in &selected {
        match (check.run)(cfg) {
            Ok(stats) => {
                passed += 1;
                text.push_str(&format!("ok   {} ({} cases", check.name, stats.passed));
                if stats.discarded > 0 {
                    text.push_str(&format!(", {} discarded", stats.discarded));
                }
                text.push_str(")\n");
            }
            Err(failure) => {
                failed.push(check.name);
                text.push_str(&format!(
                    "FAIL {} [{}] — {}\n",
                    check.name,
                    check.kind.tag(),
                    check.binds
                ));
                let rendered = failure
                    .to_string()
                    .replace("--filter <name>", &format!("--filter {}", check.name));
                for line in rendered.lines() {
                    text.push_str(&format!("     {line}\n"));
                }
            }
        }
    }
    if failed.is_empty() {
        match cfg.case_seed {
            Some(cs) => text.push_str(&format!(
                "all {passed} checks passed (replay of CHECK_SEED {cs:#018x})\n"
            )),
            None => text.push_str(&format!(
                "all {passed} checks passed (seed {:#x}, {} cases each)\n",
                cfg.seed, cfg.cases
            )),
        }
    } else {
        text.push_str(&format!(
            "{} of {} checks FAILED: {}\n",
            failed.len(),
            selected.len(),
            failed.join(", ")
        ));
    }
    RunReport {
        text,
        passed,
        failed,
    }
}

/// Renders the catalog as a listing (`smoothctl check --list`).
pub fn list_checks() -> String {
    let mut out = String::new();
    for check in all_checks() {
        out.push_str(&format!(
            "{:<26} [{}] {}\n",
            check.name,
            check.kind.tag(),
            check.binds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_kebab_case() {
        let checks = all_checks();
        let mut names: Vec<_> = checks.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate check names");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "check name {name:?} is not kebab-case"
            );
        }
    }

    #[test]
    fn catalog_has_both_layers() {
        let checks = all_checks();
        assert!(checks.iter().any(|c| c.kind == CheckKind::Invariant));
        assert!(checks.iter().any(|c| c.kind == CheckKind::Oracle));
        assert!(checks.len() >= 20, "catalog shrank to {}", checks.len());
    }

    #[test]
    fn filter_selects_by_substring() {
        let cfg = CheckConfig::new(2, 1);
        let report = run_checks(&cfg, Some("textio"));
        assert!(report.ok(), "{}", report.text);
        assert_eq!(report.passed, 1);
        assert!(report.text.contains("ok   textio-roundtrip"));
    }

    #[test]
    fn unknown_filter_reports_no_matches() {
        let cfg = CheckConfig::new(1, 1);
        let report = run_checks(&cfg, Some("no-such-check"));
        assert!(report.ok());
        assert_eq!(report.passed, 0);
        assert!(report.text.contains("no checks match"));
    }

    #[test]
    fn listing_covers_the_catalog() {
        let listing = list_checks();
        for check in all_checks() {
            assert!(listing.contains(check.name), "{} missing", check.name);
        }
    }
}
