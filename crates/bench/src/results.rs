//! Where figure binaries write their CSVs.
//!
//! Historically every binary hardcoded `results/` relative to the
//! current working directory, which scattered output when run from a
//! crate subdirectory. [`results_dir`] centralizes the choice: the
//! `RESULTS_DIR` environment variable wins when set (and non-empty),
//! otherwise `results/` under the CWD as before. The directory is
//! created if missing so `Table::write_csv` never fails on a fresh
//! checkout.

use std::ffi::OsStr;
use std::path::PathBuf;

/// Environment variable overriding the CSV output directory.
pub const RESULTS_DIR_ENV: &str = "RESULTS_DIR";

/// Resolves (and creates) the directory figure binaries write CSVs to.
///
/// # Panics
///
/// Panics if the directory cannot be created — the binaries have no
/// useful way to continue without an output location.
pub fn results_dir() -> PathBuf {
    create(resolve(std::env::var_os(RESULTS_DIR_ENV).as_deref()))
}

/// The output directory for a `RESULTS_DIR` value: the value when set
/// and non-empty, `results/` under the CWD otherwise.
fn resolve(value: Option<&OsStr>) -> PathBuf {
    match value {
        Some(v) if !v.is_empty() => PathBuf::from(v),
        _ => PathBuf::from("results"),
    }
}

/// Creates `dir` (and its parents) if missing, and returns it.
fn create(dir: PathBuf) -> PathBuf {
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create results dir {}: {e}", dir.display()));
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_results_under_cwd() {
        assert_eq!(resolve(None), PathBuf::from("results"));
        assert_eq!(resolve(Some(OsStr::new(""))), PathBuf::from("results"));
    }

    #[test]
    fn override_wins_when_non_empty() {
        let dir = resolve(Some(OsStr::new("out/csv")));
        assert_eq!(dir, PathBuf::from("out/csv"));
    }

    #[test]
    fn creates_the_directory() {
        let root = std::env::temp_dir().join(format!("rts-bench-results-{}", std::process::id()));
        let dir = create(root.join("nested"));
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&root).expect("temp dir removable");
    }
}
