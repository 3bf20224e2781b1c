//! Machine shape, host calibration, and OS accounting read from
//! outside the program: process RSS and per-thread CPU time.

use std::fs;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::stats::sample_quantile;

/// Peak resident set size of this process so far, in MiB (Linux
/// `VmHWM`). The peak does not depend on when freed memory happens to
/// be handed back to the OS, so it repeats where the current RSS does
/// not.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds of CPU time used so far by each live thread of this
/// process whose name starts with one of `prefixes` (all threads when
/// `prefixes` is empty), as `(name#id, ns)` pairs. The kernel cuts
/// thread names to 15 bytes, so `smoothd-ingest-0` and
/// `smoothd-ingest-1` both read `smoothd-ingest-`; the thread id keeps
/// them apart. Reads the scheduler's `schedstat`, which counts in
/// nanoseconds.
pub fn thread_cpu(prefixes: &[&str]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let name = name.trim().to_string();
        if !prefixes.is_empty() && !prefixes.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        let id = task.file_name().to_string_lossy().into_owned();
        out.push((format!("{name}#{id}"), ns));
    }
    out.sort();
    out
}

/// How a [`Yardstick`] touches memory. Memory access, not arithmetic,
/// is what the host's neighbours slow down most, and how much depends
/// on the access pattern, so each workload samples the yardstick whose
/// pattern matches its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Random read-modify-writes over an 8 MiB table, four times L2:
    /// `sweep`'s grid makes scattered accesses within a few MiB. Over one
    /// 40 s run its grid time followed this yardstick with a slope of
    /// 0.8 (log-log, correlation 0.82), a pure-arithmetic chain only
    /// with a slope of 3.7.
    Scattered,
    /// A 2 MiB sequential read from a random page of a 32 MiB table:
    /// `resident`'s shards stream 127 MiB of session state every slot.
    /// Across eight runs its normalized throughput spread 0.053 with this
    /// yardstick and 0.088 with the scattered one.
    Streamed,
}

impl Access {
    /// The reference speed: a sample's time on the 2-vCPU 2.1 GHz Xeon
    /// VM the benchmark was tuned on, when quiet. Host-normalized times
    /// are measured times scaled by `reference / yardstick reading`.
    pub fn reference_ns(self) -> f64 {
        match self {
            Access::Scattered => 300_000.0,
            Access::Streamed => 220_000.0,
        }
    }
}

/// A fixed piece of work that does not depend on the program. Sampled
/// next to a workload, its wall time tells how fast the host ran the
/// benchmark at that moment, so a workload's times can be scaled to one
/// reference speed.
pub struct Yardstick {
    access: Access,
    table: Vec<u64>,
    x: u64,
}

/// Table updates per [`Access::Scattered`] sample.
const SCATTER_STEPS: u32 = 20_000;
/// Cache lines read per [`Access::Streamed`] sample (2 MiB).
const STREAM_LINES: usize = 1 << 15;
/// Time between yardstick samples taken while a workload's own
/// threads run: 20 samples a second, about 0.5% of one core.
pub const YARD_GAP: Duration = Duration::from_millis(50);

impl Yardstick {
    /// A yardstick with the given access pattern.
    pub fn new(access: Access) -> Yardstick {
        let entries: u64 = match access {
            Access::Scattered => 1 << 20,
            Access::Streamed => 1 << 22,
        };
        Yardstick {
            access,
            table: (0..entries).collect(),
            x: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// See [`Access::reference_ns`].
    pub fn reference_ns(&self) -> f64 {
        self.access.reference_ns()
    }

    /// Does the fixed work once; returns its wall nanoseconds.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        let mut x = self.x;
        let mask = self.table.len() - 1;
        match self.access {
            Access::Scattered => {
                for _ in 0..SCATTER_STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = x as usize & mask;
                    self.table[i] = self.table[i].wrapping_add(x);
                }
            }
            Access::Streamed => {
                // One u64 per 64-byte line, from a 4 KiB-aligned start.
                let start = x as usize & mask & !511;
                for line in 0..STREAM_LINES {
                    let v = self.table[(start + line * 8) & mask];
                    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v;
                }
            }
        }
        self.x = std::hint::black_box(x);
        t.elapsed().as_nanos() as u64
    }
}

/// The yardstick reading for the interval `[from, to)`: the median of
/// the samples taken in it, so a sample that a preemption landed in
/// does not count. `None` when no sample falls in the interval.
pub fn yard_reading(samples: &[(Instant, u64)], from: Instant, to: Instant) -> Option<f64> {
    let v: Vec<u64> = samples
        .iter()
        .filter(|(at, _)| *at >= from && *at < to)
        .map(|&(_, ns)| ns)
        .collect();
    (!v.is_empty()).then(|| crate::stats::median_u64(&v))
}

/// Total CPU nanoseconds of the matching threads.
pub fn cpu_ns(prefixes: &[&str]) -> u64 {
    thread_cpu(prefixes).iter().map(|(_, ns)| ns).sum()
}

/// CPU time per thread between two [`thread_cpu`] readings; a thread
/// missing from `before` counts from zero.
pub fn cpu_delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .map(|(name, ns)| {
            let prev = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, p)| *p);
            (name.clone(), ns.saturating_sub(prev))
        })
        .collect()
}

/// The machine's CPU time so far from `/proc/stat`, in clock ticks:
/// `(steal, total)`. Steal is time the hypervisor ran something else
/// while this machine's CPUs had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().sum()))
}

/// Share of all CPU time that was stolen between two [`cpu_ticks`]
/// readings, percent (0 when either is missing).
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64 * 100.0
        }
        _ => 0.0,
    }
}

fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) else {
            continue;
        };
        if kind != "Instruction" {
            parts.push(format!("L{level}={size}"));
        }
    }
    if parts.is_empty() {
        "unknown".to_string()
    } else {
        parts.join(" ")
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One line describing the machine the numbers came from: cores,
/// data/unified cache sizes, compiler, and source revision.
pub fn machine_shape() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git when the working directory is itself a checkout, so
    // nothing outside it is read.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".into())
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "nproc={nproc} caches=[{}] rustc=\"{rustc}\" commit={commit}",
        cache_sizes()
    )
}

/// Host calibration: how late a lone 1 ms sleep wakes, and how long a
/// fixed CPU loop takes. Neither depends on the program; they show
/// when a run hit a noisy-host episode.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Median wake-up lateness of a 1 ms sleep, µs.
    pub sleep_lag_p50_us: f64,
    /// 99th percentile wake-up lateness, µs (0 when too few samples).
    pub sleep_lag_p99_us: f64,
    /// Samples taken.
    pub samples: usize,
    /// Wall time of the fixed CPU loop, ms.
    pub spin_ms: f64,
}

/// Measures [`Calibration`] with `samples` sleeps.
pub fn calibrate(samples: usize) -> Calibration {
    let mut lags: Vec<u64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            (t.elapsed().as_nanos() as u64).saturating_sub(1_000_000)
        })
        .collect();
    lags.sort_unstable();
    let q = |p: f64| sample_quantile(&lags, p).map_or(0.0, |v| v as f64 / 1e3);
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    Calibration {
        sleep_lag_p50_us: q(0.5),
        sleep_lag_p99_us: q(0.99),
        samples,
        spin_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_deltas_pair_threads_by_id_not_by_cut_name() {
        let before = vec![
            ("smoothd-ingest-#11".to_string(), 100),
            ("smoothd-ingest-#12".to_string(), 5_000),
        ];
        let after = vec![
            ("smoothd-ingest-#11".to_string(), 150),
            ("smoothd-ingest-#12".to_string(), 5_070),
            ("smoothd-shard-0#13".to_string(), 40),
        ];
        let delta: Vec<u64> = cpu_delta(&before, &after).iter().map(|d| d.1).collect();
        assert_eq!(delta, vec![50, 70, 40]);
        let own = thread_cpu(&[]);
        assert!(own.iter().all(|(key, _)| key.contains('#')));
    }

    #[test]
    fn yardstick_reading_is_the_median_of_its_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples = [
            (at(0), 900),
            (at(10), 300),
            (at(20), 310),
            (at(30), 5_000),
            (at(40), 320),
        ];
        // A preempted sample (5 000) does not move the reading.
        assert_eq!(yard_reading(&samples, at(10), at(50)), Some(315.0));
        assert_eq!(yard_reading(&samples, at(0), at(10)), Some(900.0));
        assert_eq!(yard_reading(&samples, at(41), at(50)), None);
        for access in [Access::Scattered, Access::Streamed] {
            let mut stick = Yardstick::new(access);
            assert!(stick.sample() > 0 && stick.sample() > 0);
        }
    }

    #[test]
    fn steal_is_the_share_of_ticks_between_readings() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((30, 2000))), 2.0);
        assert_eq!(steal_pct(None, Some((30, 2000))), 0.0);
        assert_eq!(steal_pct(Some((10, 1000)), Some((10, 1000))), 0.0);
        let (steal, total) = cpu_ticks().expect("/proc/stat has a cpu line");
        assert!(steal <= total);
    }
}
