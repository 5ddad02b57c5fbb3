//! What the benchmark reads from the host: process CPU time, peak RSS and
//! the descriptor written into every output file.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU nanoseconds consumed by this process, all threads.
/// Read with one syscall and no allocation, so it can bracket a timed
/// window.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MB, or 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Logical cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The recorded host: a perf number means nothing without it.
#[derive(Clone, Debug)]
pub struct HostDescriptor {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub loadavg_start: f64,
}

impl HostDescriptor {
    /// Read the descriptor. `rustc -V` is the one child process the
    /// benchmark starts; it has ended when this returns. The commit comes
    /// from `REVTR_COMMIT` (set by `agree.sh`): the driver's checkout is
    /// not a git repository, and asking git would walk out of it.
    pub fn read() -> HostDescriptor {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostDescriptor {
            cores: cores(),
            cpu_model,
            rustc,
            commit: std::env::var("REVTR_COMMIT").unwrap_or_else(|_| "unknown".into()),
            loadavg_start: loadavg(),
        }
    }
}
