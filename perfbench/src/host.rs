//! Everything the benchmark takes from the host rather than from the
//! simulation: the wall clock, process CPU time, peak resident set, core
//! count, revision and build id, output lines, and the watchdog. These are
//! the only sites in the benchmark that dcs-lint's `wall-clock`,
//! `ad-hoc-logging` and `thread-spawn` rules flag, so each carries an inline
//! suppression.

use std::path::Path;
// dcs-lint: allow(wall-clock)
use std::time::Instant;

/// A running wall-clock timer. Benchmark timing is out of band: no reading
/// ever feeds the simulation.
#[derive(Debug, Clone, Copy)]
// dcs-lint: allow(wall-clock)
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // dcs-lint: allow(wall-clock)
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the start.
    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Ends the process with exit code 1, printing no result, if it is still
/// running `limit_s` seconds from now: a program under test that stops
/// making progress fails the run instead of hanging it. The thread is never
/// joined; returning from `main` ends it.
pub fn watchdog(limit_s: u64) {
    // dcs-lint: allow(thread-spawn)
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(limit_s));
        note(&format!("still running after {limit_s} s; giving up"));
        std::process::exit(1);
    });
}

/// Writes one line to standard output (the benchmark's result protocol).
pub fn emit(line: &str) {
    // dcs-lint: allow(ad-hoc-logging)
    println!("{line}");
}

/// Writes one progress or diagnostic line to standard error.
pub fn note(line: &str) {
    // dcs-lint: allow(ad-hoc-logging)
    eprintln!("perfbench: {line}");
}

/// Process user + system CPU time in seconds, summed over every thread the
/// process ever ran (engine workers included), from `/proc/self/stat`.
/// `None` where that file is unreadable.
pub fn cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (USER_HZ = 100 on Linux).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) in MiB, or `None` where unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cores available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The git revision of `root`, or `"unknown"` outside a git checkout (the
/// build id then identifies the code).
pub fn revision(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A digest of the running executable: two runs share it exactly when they
/// run the same build of the program and the benchmark.
pub fn build_id() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(dcs_crypto::sha256(&bytes).to_hex()[..16].to_string())
}
