//! Host measurements read from `/proc`: process CPU time and RSS, host
//! steal, and the provenance line every run prints.

use std::fs;

/// Process user+system CPU time in microseconds (all threads, live and
/// exited). `/proc/self/stat` counts in USER_HZ ticks, which Linux fixes
/// at 100 per second for user space.
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().expect("utime/stime are integers"))
        .collect();
    (fields[0] + fields[1]) * 10_000
}

/// Resident set size in bytes.
pub fn rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmRSS in /proc/self/status")
        * 1024
}

/// Aggregate host CPU ticks: `(steal, total)`.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

pub fn cpu_ticks() -> CpuTicks {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let vals: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    CpuTicks {
        steal: vals.get(7).copied().unwrap_or(0),
        total: vals.iter().sum(),
    }
}

/// Share of host CPU time stolen by the hypervisor between two samples.
pub fn steal_frac(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        0.0
    } else {
        after.steal.saturating_sub(before.steal) as f64 / total as f64
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One line of provenance: cores, CPU, crypto tier, source revision.
pub fn provenance(source_rev: &str) -> String {
    use ame_crypto::backend;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "nproc={nproc} cpu=\"{}\" features={} crypto_tier={} wide_shape={} source={source_rev}",
        cpu_model(),
        backend::host_features(),
        backend::active().name(),
        backend::wide_shape(),
    )
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
