//! Process plumbing: stdout capture, peak memory, and order statistics.

use std::io::Write;
use std::os::fd::AsRawFd;
use std::path::Path;

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(src: i32, dst: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Runs `f` with the process's standard output redirected into `path`
/// (truncated first). Figure rendering prints its tables with `print!`;
/// capturing them keeps the benchmark's own stdout to its report, and
/// the captured bytes are what the output checks hash.
pub fn capture_stdout<T>(path: &Path, f: impl FnOnce() -> T) -> std::io::Result<T> {
    let file = std::fs::File::create(path)?;
    std::io::stdout().flush()?;
    // SAFETY: plain descriptor calls on fds this process owns; fd 1 is
    // restored (and the duplicate closed) before returning.
    let saved = unsafe { dup(1) };
    if saved < 0 || unsafe { dup2(file.as_raw_fd(), 1) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let out = f();
    let flushed = std::io::stdout().flush();
    unsafe {
        dup2(saved, 1);
        close(saved);
    }
    flushed.map(|()| out)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail latency: the highest order statistic with at least ten
/// samples beyond it, with the percentile it sits at. With ten samples
/// or fewer there is no such statistic and the maximum is returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
