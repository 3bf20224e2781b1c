//! Randomized property tests over the whole stack, driven by the
//! rts-check catalog (`crates/check`).
//!
//! Each test runs one named check from the catalog — the same checks
//! `smoothctl check` and the CI fuzz-smoke job run. On a failure the
//! harness shrinks the counterexample and the assertion message carries
//! a minimal reproducer plus a `CHECK_SEED`; replay it with
//!
//! ```text
//! CHECK_SEED=0x... smoothctl check --filter <name>
//! ```
//!
//! Cases are generated with the workspace's own deterministic SplitMix64
//! PRNG (no external test-framework dependency, so the suite runs
//! offline and every run sees the same cases).

use rts_check::{all_checks, run_checks, CheckConfig};

const CASES: u64 = 64;
const SEED: u64 = 0x5eed;

/// Runs one catalog check by exact name and asserts it passes, printing
/// the shrunk reproducer report on failure.
fn check(name: &str) {
    let cfg = CheckConfig::new(CASES, SEED);
    let selected: Vec<_> = all_checks().into_iter().filter(|c| c.name == name).collect();
    assert_eq!(selected.len(), 1, "no catalog check named {name:?}");
    match (selected[0].run)(&cfg) {
        Ok(stats) => assert!(
            stats.passed > 0,
            "{name}: every case was discarded ({} discards)",
            stats.discarded
        ),
        Err(failure) => panic!(
            "{name} failed:\n{}",
            failure
                .to_string()
                .replace("--filter <name>", &format!("--filter {name}"))
        ),
    }
}

// ------------------------------------------------------------------
// Invariants: the paper's bounds as predicates over generated runs.
// ------------------------------------------------------------------

#[test]
fn conservation_holds_for_any_configuration() {
    check("conservation");
}

#[test]
fn link_is_driven_in_fifo_order() {
    check("fifo-order");
}

#[test]
fn resource_requirements_respected() {
    check("resource-bounds");
}

#[test]
fn balanced_configurations_never_drop_at_the_client() {
    check("balanced-no-client-loss");
}

#[test]
fn constant_sojourn_for_played_slices() {
    check("sojourn-constant");
}

#[test]
fn unit_throughput_policy_independent() {
    check("thm35-unit-loss");
}

#[test]
fn throughput_floor_of_theorem_39_holds() {
    check("thm39-throughput-floor");
}

#[test]
fn greedy_competitive_bound_of_theorem_41_holds() {
    check("thm41-greedy-competitive");
}

#[test]
fn optimal_dominates_online() {
    check("opt-dominates-online");
}

#[test]
fn planned_drops_always_achieve_the_optimum() {
    check("planned-drops-optimal");
}

#[test]
fn resync_skew_stays_within_policy_bounds() {
    check("resync-skew-bounded");
}

// ------------------------------------------------------------------
// Differential oracles: paired implementations must agree exactly.
// ------------------------------------------------------------------

#[test]
fn ring_and_map_backings_agree() {
    check("ring-vs-map");
}

#[test]
fn probes_never_change_the_schedule() {
    check("probed-vs-unprobed");
}

#[test]
fn empty_fault_plan_equals_plain_engine() {
    check("faults-empty-vs-plain");
}

#[test]
fn single_session_mux_equals_simulator() {
    check("mux-single-vs-sim");
}

#[test]
fn client_step_equals_step_into() {
    check("client-step-vs-into");
}

#[test]
fn timer_client_equals_closed_form_client() {
    check("client-timer-vs-known");
}

#[test]
fn queue_client_equals_reference_client() {
    check("client-queue-vs-reference");
}

#[test]
fn greedy_index_equals_greedy_rescan() {
    check("greedy-index-vs-rescan");
}

#[test]
fn unit_flow_optimum_equals_brute_force() {
    check("flow-vs-brute");
}

#[test]
fn frame_dp_optimum_equals_brute_force() {
    check("framedp-vs-brute");
}

#[test]
fn mixed_optimum_equals_brute_force() {
    check("mixed-vs-brute");
}

#[test]
fn balanced_equals_server_only() {
    check("sim-vs-server-only");
}

#[test]
fn chain_solver_equals_flow_reference() {
    check("unit-chain-vs-flow");
}

#[test]
fn optimal_plans_are_canonical() {
    check("unit-plan-canonical");
}

#[test]
fn warm_sweeps_equal_cold_solves() {
    check("sweep-warm-vs-cold");
}

#[test]
fn windowed_estimate_respects_its_gap_bound() {
    check("windowed-gap");
}

#[test]
fn textio_roundtrip() {
    check("textio-roundtrip");
}

// ------------------------------------------------------------------
// The smoothd serving layer: ingest codec and churn accounting.
// ------------------------------------------------------------------

#[test]
fn smoothd_frame_codec_roundtrips() {
    check("smoothd-frame-roundtrip");
}

#[test]
fn smoothd_frame_decoder_is_total_on_fuzzed_bytes() {
    check("smoothd-frame-fuzz");
}

#[test]
fn smoothd_stats_frames_roundtrip() {
    check("smoothd-stats-roundtrip");
}

#[test]
fn smoothd_stats_decoder_is_total_on_fuzzed_bytes() {
    check("smoothd-stats-fuzz");
}

#[test]
fn smoothd_churn_conserves_bytes_and_capacity() {
    check("smoothd-churn-conservation");
}

#[test]
fn smoothd_migration_is_invisible_to_the_ledger() {
    check("smoothd-migrate-conservation");
}

#[test]
fn smoothd_snapshots_restore_state_and_ledgers_exactly() {
    check("smoothd-snapshot-roundtrip");
}

#[test]
fn smoothd_snapshot_reader_is_total_on_fuzzed_bytes() {
    check("smoothd-snapshot-fuzz");
}

// ------------------------------------------------------------------
// The telemetry plane: histogram merge algebra and atomic snapshots.
// ------------------------------------------------------------------

#[test]
fn histogram_merge_is_order_free_and_snapshots_agree() {
    check("hist-merge-oracle");
}

// ------------------------------------------------------------------
// The catalog runner itself.
// ------------------------------------------------------------------

#[test]
fn every_catalog_check_has_a_test_above() {
    // Keep this file in lock-step with the catalog: adding a check
    // without a tier-1 test here is a wiring bug.
    let here = include_str!("props.rs");
    for check in all_checks() {
        assert!(
            here.contains(&format!("check(\"{}\")", check.name)),
            "catalog check {:?} has no test in tests/props.rs",
            check.name
        );
    }
}

#[test]
fn full_catalog_report_is_deterministic() {
    let cfg = CheckConfig::new(8, 7);
    let a = run_checks(&cfg, None);
    let b = run_checks(&cfg, None);
    assert_eq!(a, b, "catalog run is not a pure function of (cases, seed)");
    assert!(a.ok(), "{}", a.text);
}
