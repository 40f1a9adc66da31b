//! What the numbers were measured on: the host header printed before
//! every run, and the process's peak resident set.

use std::fs;

/// Host threads the native pool and the OS report.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of the unified or data cache at `level` on cpu0.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in fs::read_dir(base).ok()?.flatten() {
        let p = entry.path();
        let read = |f: &str| {
            fs::read_to_string(p.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if read("level").as_deref() != Some(&level.to_string()) {
            continue;
        }
        if read("type").as_deref() == Some("Instruction") {
            continue;
        }
        let size = read("size")?;
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size.as_str(), 1),
            },
        };
        return num.parse::<u64>().ok().map(|n| n * mult);
    }
    None
}

fn fmt_cache(level: u32) -> String {
    cache_bytes(level).map_or("unknown".into(), |b| format!("{} KiB", b / 1024))
}

/// The self-describing header: one `# key: value` line per fact.
pub fn header(workload: &str, seed: u64, pool_threads: usize) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    [
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("nproc", nproc().to_string()),
        ("pool threads", pool_threads.to_string()),
        ("cpu", cpu_model()),
        ("L2", fmt_cache(2)),
        ("L3", fmt_cache(3)),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", profile.to_string()),
    ]
    .iter()
    .map(|(k, v)| format!("# {k}: {v}\n"))
    .collect()
}

/// Peak resident set (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The guest's CPU-time counters at one instant: all CPU time, and the
/// part the hypervisor gave to other guests ("steal"), in ticks of the
/// first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct StealClock {
    total: u64,
    steal: u64,
}

impl StealClock {
    /// The counters now; zero where `/proc/stat` has no steal column.
    pub fn now() -> Self {
        let ticks: Vec<u64> = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|t| t.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Self {
            total: ticks.iter().sum(),
            steal: ticks.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of the guest's CPU time since `self` that was stolen.
    pub fn share_since(&self) -> f64 {
        let now = Self::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}
