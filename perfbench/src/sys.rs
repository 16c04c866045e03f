//! Process-level measurements (peak RSS, CPU time) and the benchmark's
//! on-disk state (traces and the cross-run digest record).

use std::path::{Path, PathBuf};

use soccar_serve::journal::fnv1a;

/// Directory for traces and digests: `perfbench/` under the cargo target
/// directory (`$CARGO_TARGET_DIR`, else `.bench_build`).
#[must_use]
pub fn state_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// The process's peak resident set (`VmHWM`), in MiB.
#[must_use]
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

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process so far, in seconds
/// (`getrusage(RUSAGE_SELF)`; every thread counts).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage` and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Hex FNV-1a digest.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Checks `digest` against the one an earlier run of this same binary
/// recorded for `key`, recording it when none exists. Returns the
/// earlier digest on a mismatch.
#[must_use]
pub fn check_recorded_digest(key: &str, digest: &str) -> Option<String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| self::digest(&bytes))
        .unwrap_or_default();
    let dir = state_dir().join("digests");
    let path = dir.join(format!("{key}-{exe}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == digest => None,
        Ok(earlier) => Some(earlier.trim().to_owned()),
        Err(_) => {
            // Best effort: a missing record only weakens the check.
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, digest));
            None
        }
    }
}

/// Writes a trace snapshot as NDJSON (`soccar_obs::to_ndjson`) to `path`.
///
/// # Errors
///
/// On a file-system failure, as text.
pub fn write_trace(path: &Path, snap: &soccar_obs::TraceSnapshot) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, soccar_obs::to_ndjson(snap))
        .map_err(|e| format!("{}: {e}", path.display()))
}
