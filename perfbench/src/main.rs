//! `perfbench`: the full-stack ledger benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole simulated networks of one workload (see `README.md` beside
//! this crate), checks every correctness gate, and prints two lines on
//! standard output: a run record (revision, host, engine workers, seed,
//! network model, per-round detail, digests), then the result — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 if any gate fails, 2 on bad arguments, and 1
//! without a result if the run hangs past the watchdog.

mod gates;
mod host;
mod json;
mod probe;
mod report;
mod round;
mod workloads;

use std::path::PathBuf;

/// A second seed, never used while tuning the benchmark, on which later
/// performance claims are checked.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Longest a run may take before it is abandoned as hung.
const WATCHDOG_S: u64 = 170;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in wall seconds (sets the round count).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The directory holding the repository this benchmark measures.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default()
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            host::note(&e);
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        host::note(&format!(
            "unknown workload {:?}; known: {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
        std::process::exit(2);
    };
    host::watchdog(WATCHDOG_S);
    let run = report::execute(&spec, &args);
    let state_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-digests")));
    let (record, result, correct) = report::render(&spec, &args, &run, &repo_root(), state_dir);
    host::emit(&record);
    host::emit(&result);
    if !correct {
        std::process::exit(1);
    }
}
