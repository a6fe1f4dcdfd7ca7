//! Host facts recorded with every run (ungated, so a noisy run can be
//! explained) and the process-level measurements: CPU affinity, steal
//! time, thread count and peak resident memory. Linux only.

use std::fs;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_field(name: &str) -> Option<String> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    text.lines().find_map(|line| {
        line.strip_prefix(name)?
            .strip_prefix(':')
            .map(|value| value.trim().to_string())
    })
}

/// The CPU set of this process, as the kernel lists it (`0-1`).
pub fn cpu_set() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string())
}

/// Threads currently alive in this process.
pub fn threads() -> usize {
    status_field("Threads")
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|value| value.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU time counters of the host (`/proc/stat`, in ticks).
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the host-wide counters now.
    pub fn now() -> Option<Self> {
        let text = fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = text
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .filter_map(|field| field.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user time.
        let total = fields.iter().take(8).sum();
        Some(Self {
            steal: *fields.get(7)?,
            total,
        })
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`,
    /// formatted for the run-info line.
    pub fn steal_since(earlier: Option<Self>) -> String {
        match (earlier, Self::now()) {
            (Some(earlier), Some(now)) if now.total > earlier.total => format!(
                "{:.5}",
                now.steal.saturating_sub(earlier.steal) as f64 / (now.total - earlier.total) as f64
            ),
            _ => "unknown".to_string(),
        }
    }
}

const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `size_of_val(&mask)`
    // bytes, the layout of a glibc `cpu_set_t`; pid 0 names the calling
    // thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// `cpu`.
pub fn pin_to(cpu: usize) -> Result<usize, String> {
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("CPU {cpu} is out of range"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly `size_of_val(&mask)`
    // bytes, the layout of a glibc `cpu_set_t`; pid 0 names the calling
    // thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
