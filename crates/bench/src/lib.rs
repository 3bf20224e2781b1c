//! Experiment harness: the workloads, series computations, and table
//! output behind every figure binary and timing benchmark.
//!
//! Each `fig*` function in [`figures`] recomputes one figure of the
//! paper's Section 5 (or one analytical experiment from Sections 3–4)
//! and returns a [`Table`]; the binaries print it and write CSV under
//! `results/`. Keeping the computations in the library lets the
//! integration tests assert the *shape* of every figure — who wins,
//! by roughly what factor, where the knees are.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod capacity;
pub mod figures;
pub mod hotpath;
pub mod plot;
pub mod results;
pub mod table;
pub mod timing;
pub mod workload;

pub use results::results_dir;
pub use table::Table;

/// Held for its whole body by every unit test that runs a daemon or a
/// timing suite, so none of them shares the cores with another: a
/// wall-clock ratio such as `admit_bench`'s collapses when sibling tests
/// spin shards beside it.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the next one still runs.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}
