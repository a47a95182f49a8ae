//! Shared plumbing: the seeded input generator, latency summaries, the
//! result record every workload fills in, and process/file measurements.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// splitmix64 step: the benchmark's only source of randomness, so one seed
/// fixes every generated input independently of the program's own RNG.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one named input stream of a run.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(mix(seed) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Small deterministic RNG (splitmix64 sequence).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index into `0..n` with a Zipf-like skew (weight `1/(i+1)`), so a few
    /// keys are hot and the rest form a long cold tail.
    pub fn skewed(&mut self, n: usize) -> usize {
        let harmonic: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let mut x = self.unit() * harmonic;
        for i in 0..n {
            x -= 1.0 / (i + 1) as f64;
            if x <= 0.0 {
                return i;
            }
        }
        n - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Percentiles a tail may fall back to, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median, tail and sample count of one latency population (milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of the whole window's `values`.
///
/// The tail is at `tail_pct`, the workload's fixed choice (the highest
/// percentile its runs leave at least ten samples beyond); a run with too
/// few samples falls back down the ladder. A fixed choice keeps the tail
/// from jumping between percentiles when throughput moves the sample count
/// across a threshold.
pub fn summarize(values: &[f64], tail_pct: f64) -> Summary {
    let n = values.len();
    let beyond = |p: f64| (n as f64 * (100.0 - p) / 100.0).floor() >= 10.0;
    let tail_pct = std::iter::once(tail_pct)
        .chain(TAIL_LADDER.iter().copied().filter(|&p| p < tail_pct))
        .find(|&p| beyond(p))
        .unwrap_or(50.0);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal and total jiffies of all CPUs so far (`/proc/stat`): the share
/// of CPU time the host gave to other guests.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Total bytes of the regular files under `path` (a file or a directory).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| disk_bytes(&e.path()))
                .sum::<u64>()
        })
        .unwrap_or(0)
}

/// Bytes of a repository: its data file plus every sibling sharing its
/// name as a prefix (write-ahead log, checksum sidecar).
pub fn repository_bytes(file: &Path) -> u64 {
    let (Some(dir), Some(name)) = (file.parent(), file.file_name()) else {
        return 0;
    };
    let name = name.to_string_lossy();
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(name.as_ref()))
                .map(|e| disk_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

/// A uniform random sample of at most `cap` values (Algorithm R), so a
/// thread's latency record takes the same memory however fast it runs.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    values: Vec<f64>,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            values: Vec::with_capacity(cap),
            rng: Rng::new(seed),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let k = (self.rng.next_u64() % self.seen) as usize;
            if k < self.cap {
                self.values[k] = v;
            }
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Copy a repository's data file and its siblings (log, checksums) so that
/// `to` opens as the same repository.
pub fn copy_repository(from: &Path, to: &Path) -> std::io::Result<()> {
    let (Some(dir), Some(name)) = (from.parent(), from.file_name()) else {
        return Err(std::io::Error::other("repository path has no file name"));
    };
    let name = name.to_string_lossy();
    let to_name = to.to_string_lossy();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file = entry.file_name().to_string_lossy().into_owned();
        if let Some(suffix) = file.strip_prefix(name.as_ref()) {
            let target = format!("{to_name}{suffix}");
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    Ok(())
}

/// When a run's repeated set-ups happen: the first before the window, the
/// others spread over it (in pauses of the measured time), so a burst of
/// host load moves at most one of them. Set-up `k` of `total` is due once
/// `k / total` of the window has been measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupSchedule {
    total: usize,
    done: usize,
    window: Duration,
}

impl SetupSchedule {
    pub fn new(total: usize, window: Duration) -> SetupSchedule {
        SetupSchedule {
            total,
            done: 0,
            window,
        }
    }

    /// The number of the next set-up if it is due after `measured` of the
    /// window (pass the whole window to take every one left), counting it
    /// as done.
    pub fn next_due(&mut self, measured: Duration) -> Option<usize> {
        let due = self.done < self.total
            && measured >= self.window.mul_f64(self.done as f64 / self.total as f64);
        due.then(|| {
            self.done += 1;
            self.done - 1
        })
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        let path = std::env::current_dir()?
            .join(".bench_work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds each repeated set-up took (median reported).
    pub setup_s: Vec<f64>,
    /// Length of the measured window in seconds.
    pub window_s: f64,
    /// Ops completed in the measured window (`ops_per_s` is this over
    /// `window_s`).
    pub completed: u64,
    /// Percentile of the op tail (see [`summarize`]).
    pub op_tail_pct: f64,
    /// Latency of every completed op (ms), successful or not, or a uniform
    /// sample of them.
    pub op_ms: Vec<f64>,
    /// Latency of every untraced op, when the run alternates traced and
    /// untraced ops (trace mode only).
    pub untraced_op_ms: Vec<f64>,
    /// Latency of every traced op (trace mode only).
    pub traced_op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Write-ahead-log bytes the amplification figures divide.
    pub wal_bytes: f64,
    /// User bytes (input text plus sequence bytes) behind `wal_bytes`.
    pub wal_user_bytes: f64,
    /// File bytes at the end of the run.
    pub file_bytes: f64,
    /// User bytes behind `file_bytes`.
    pub file_user_bytes: f64,
    /// Run configuration for the report (key, JSON value).
    pub config: Vec<(String, String)>,
    /// Per-layer counter metrics (trace mode only); `main` adds the span
    /// medians.
    pub layers: crate::layers::Layers,
}

impl Outcome {
    /// Count one failed op, keeping its description if there is room.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    pub fn config(&mut self, key: &str, json_value: impl Into<String>) {
        self.config.push((key.to_string(), json_value.into()));
    }
}
