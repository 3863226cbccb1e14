//! Small measurement helpers: percentiles with a sample-count guard, the
//! pass/fail ledger behind `ok_ratio`, per-run scratch directories and the
//! machine facts recorded with every result.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A percentile is only reported as valid when at least this many samples
/// lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// the two closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `q`-quantile among `n` samples.
pub fn tail_samples(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// A human-readable validity mark for a percentile over `units` samples
/// (`what` names the unit: queries, rotations, ...).
pub fn sample_note(units: usize, q: f64, what: &str) -> String {
    let beyond = tail_samples(units, q);
    let mark = if beyond >= MIN_TAIL_SAMPLES {
        "valid"
    } else {
        "INVALID"
    };
    format!("n={units} {what}, {beyond} beyond, {mark}")
}

/// Whether a percentile over `units` samples has enough tail samples.
pub fn percentile_valid(units: usize, q: f64) -> bool {
    tail_samples(units, q) >= MIN_TAIL_SAMPLES
}

/// Latencies below this many nanoseconds are counted in one bucket per
/// nanosecond.
const HISTOGRAM_NS: usize = 1 << 16;

/// Latency samples in nanoseconds, kept exactly in constant memory: one
/// counter per nanosecond below [`HISTOGRAM_NS`], and the rare slower
/// samples verbatim. A closed-loop reader answers as many queries as the
/// host lets it, so a list of every sample would make the run's memory
/// follow the host's speed.
#[derive(Debug)]
pub struct NsHistogram {
    counts: Vec<u64>,
    slow: Vec<u64>,
    len: usize,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            counts: vec![0; HISTOGRAM_NS],
            slow: Vec::new(),
            len: 0,
        }
    }
}

impl NsHistogram {
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The `k`-th smallest sample (`k < len`).
    fn nth(&self, k: usize) -> f64 {
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > k as u64 {
                return ns as f64;
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[k - seen as usize] as f64
    }

    /// The `q`-quantile, interpolated as [`quantile`] does; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let pos = q * (self.len - 1) as f64;
        let (lo, hi) = (
            self.nth(pos.floor() as usize),
            self.nth(pos.ceil() as usize),
        );
        lo + (hi - lo) * (pos - pos.floor())
    }
}

/// Checks attempted and failed; the first few failures are kept verbatim.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    /// Checks passed / checks attempted.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory private to one pass (pid + sequence number), under
/// `.perfbench_scratch/` in the working directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new() -> std::io::Result<Self> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::current_dir()?
            .join(".perfbench_scratch")
            .join(format!("run-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copies every regular file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the working directory is checked out at, read straight from
/// `.git` (no subprocess); "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn histogram_quantiles_match_sorted_samples() {
        let ns = [70_000u64, 5, 900, 5, 12, 70_001, 3];
        let mut h = NsHistogram::default();
        for &x in &ns {
            h.record(Duration::from_nanos(x));
        }
        let v: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
        for q in [0.0, 0.3, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), quantile(&v, q));
        }
        assert_eq!(h.len(), ns.len());
    }

    #[test]
    fn tail_guard_counts_samples_beyond() {
        assert_eq!(tail_samples(100, 0.9), 10);
        assert!(percentile_valid(100, 0.9));
        assert!(!percentile_valid(99, 0.9));
        assert!(percentile_valid(1000, 0.99));
    }
}
