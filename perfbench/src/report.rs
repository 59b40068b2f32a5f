//! Runs a workload's rounds and turns them into the two output lines: the
//! run record and the metrics result.

use crate::gates::{self, Verdict};
use crate::host::{self, Stopwatch};
use crate::json::J;
use crate::round::{self, RoundOut};
use crate::workloads::{self, Spec};
use crate::{Args, HELD_OUT_SEED};
use dcs_net::LatencyModel;
use dcs_sim::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Engine workers of the measured rounds. On a small shared host the
/// sharded engine's wall time follows how many cores the host lends it from
/// moment to moment (two-worker rounds swung between 1.2 and 1.7 cores'
/// worth of CPU per wall second), so the measured rounds run serial and the
/// engine's parallel speedup is a per-layer metric.
pub const WORKERS: usize = 1;

/// Every round of one run.
#[derive(Debug)]
pub struct Run {
    /// Untraced rounds at [`WORKERS`] engine workers (the end-to-end
    /// measurement).
    pub rounds: Vec<RoundOut>,
    /// Traced rounds, same seeds as `rounds` (per-layer run only).
    pub traced: Vec<RoundOut>,
    /// Untraced rounds at one engine worker per core, same seeds as
    /// `rounds` (per-layer run only).
    pub parallel: Vec<RoundOut>,
}

/// The number of rounds a run of `seconds` makes: at least three, so every
/// median has a middle.
pub fn round_count(spec: &Spec, seconds: f64) -> usize {
    ((seconds / spec.round_secs).round() as usize).max(3)
}

/// Runs every round of `spec` and, for a per-layer run, its traced twin and
/// its twin at one engine worker per core.
pub fn execute(spec: &Spec, args: &Args) -> Run {
    let mut run = Run {
        rounds: Vec::new(),
        traced: Vec::new(),
        parallel: Vec::new(),
    };
    for r in 0..round_count(spec, args.seconds) {
        let seed = workloads::round_seed(args.seed, r);
        let start = Stopwatch::start();
        let out = round::run(spec, seed, false, WORKERS);
        host::note(&format!(
            "{} round {r}: {} tx committed, setup {:.3} s, drive {:.3} s, round {:.3} s",
            spec.name,
            out.committed,
            out.setup.total_s(),
            out.wall_s,
            start.secs()
        ));
        run.rounds.push(out);
        if args.trace {
            run.traced.push(round::run(spec, seed, true, WORKERS));
            run.parallel
                .push(round::run(spec, seed, false, host::host_cpus()));
        }
    }
    run
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn per_round(rounds: &[RoundOut], f: impl Fn(&RoundOut) -> f64) -> f64 {
    median(rounds.iter().map(f).collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics: `(name, value, unit)`.
///
/// Every figure but `setup_s` pools the rounds (totals over totals): on a
/// shared host, pooling held the ten-seed spread of the rate metrics lower
/// than a median over three or four rounds did.
pub fn end_to_end(rounds: &[RoundOut]) -> Vec<(&'static str, f64, &'static str)> {
    let total = |f: fn(&RoundOut) -> f64| -> f64 { rounds.iter().map(f).sum() };
    let committed = total(|r| r.committed as f64);
    let wall = total(|r| r.wall_s);
    let mut latency = Summary::new();
    for r in rounds {
        latency.merge(&r.latency);
    }
    vec![
        (
            "wall_us_per_committed_tx",
            ratio(wall * 1e6, committed),
            "us",
        ),
        (
            "cpu_us_per_committed_tx",
            ratio(total(|r| r.cpu_s) * 1e6, committed),
            "us",
        ),
        ("sim_s_per_wall_s", ratio(total(|r| r.sim_s), wall), "s/s"),
        (
            "protocol_tps",
            ratio(committed, total(|r| r.horizon_s)),
            "tx/sim_s",
        ),
        ("commit_latency_p50_sim_s", latency.p50(), "sim_s"),
        ("commit_latency_p99_sim_s", latency.p99(), "sim_s"),
        ("setup_s", per_round(rounds, |r| r.setup.total_s()), "s"),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
    ]
}

/// The per-layer metrics of a traced run: `(name, value, unit)`.
pub fn per_layer(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let traced = &run.traced;
    let sum = |f: &dyn Fn(&RoundOut) -> f64| -> f64 { traced.iter().map(f).sum() };
    let h = |f: &dyn Fn(&RoundOut) -> u64| -> f64 { traced.iter().map(f).sum::<u64>() as f64 };
    let ns = 1e-9;
    let tx_msgs = h(&|r| r.layers.handlers.tx.calls);
    let first_seen = h(&|r| r.layers.handlers.tx_first_seen);
    let block_ns = h(&|r| r.layers.handlers.block.ns);
    let block_machine_ns = h(&|r| r.layers.handlers.block.machine_ns);
    let apply_ns = h(&|r| r.layers.machine.apply_ns);
    let wall = sum(&|r| r.wall_s);
    let events = h(&|r| r.events);
    let handler_s = h(&|r| r.layers.handlers.handler_ns()) * ns;
    let committed = h(&|r| r.committed);
    let msgs = h(&|r| r.layers.net.sent);
    // Per-worker event counts come from the rounds at one worker per core.
    let mut shards: Vec<u64> = Vec::new();
    for r in &run.parallel {
        if shards.len() < r.layers.shard_events.len() {
            shards.resize(r.layers.shard_events.len(), 0);
        }
        for (s, e) in shards.iter_mut().zip(&r.layers.shard_events) {
            *s += e;
        }
    }
    let shard_mean = ratio(shards.iter().sum::<u64>() as f64, shards.len() as f64);
    let shard_max = shards.iter().copied().max().unwrap_or(0) as f64;
    let (sigs, replay_s) = traced.iter().fold((0u64, 0.0), |(n, s), r| {
        (n + r.layers.verify_replay.0, s + r.layers.verify_replay.1)
    });
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&run.rounds)
        .map(|(t, u)| t.wall_s - u.wall_s)
        .collect();
    let speedup: Vec<f64> = run
        .rounds
        .iter()
        .zip(&run.parallel)
        .map(|(one, many)| ratio(one.wall_s, many.wall_s))
        .collect();
    vec![
        (
            "crypto.verify_items",
            h(&|r| r.layers.verify_items),
            "count",
        ),
        (
            "crypto.sigcache_hits",
            h(&|r| r.layers.sigcache_hits),
            "count",
        ),
        (
            "crypto.sigcache_misses",
            h(&|r| r.layers.sigcache_misses),
            "count",
        ),
        (
            "crypto.verify_us_per_sig",
            ratio(replay_s * 1e6, sigs as f64),
            "us",
        ),
        (
            "consensus.tx_busy_s",
            h(&|r| r.layers.handlers.tx.ns) * ns,
            "s",
        ),
        ("consensus.tx_msgs", tx_msgs, "count"),
        (
            "consensus.tx_dup_ratio",
            ratio(tx_msgs - first_seen, tx_msgs),
            "ratio",
        ),
        ("consensus.block_busy_s", block_ns * ns, "s"),
        (
            "consensus.block_msgs",
            h(&|r| r.layers.handlers.block.calls),
            "count",
        ),
        (
            "consensus.timer_busy_s",
            h(&|r| r.layers.handlers.timer.ns) * ns,
            "s",
        ),
        (
            "mempool.depth_peak",
            traced
                .iter()
                .map(|r| r.layers.depth_peak)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "mempool.rejected_invalid",
            h(&|r| r.layers.rejected_invalid),
            "count",
        ),
        (
            "chain.import_self_s",
            (block_ns - block_machine_ns) * ns,
            "s",
        ),
        ("chain.reorgs", h(&|r| r.layers.reorgs), "count"),
        (
            "chain.stale_rate",
            ratio(h(&|r| r.layers.blocks_stale), h(&|r| r.layers.blocks_seen)),
            "ratio",
        ),
        ("state.apply_s", apply_ns * ns, "s"),
        (
            "state.apply_calls",
            h(&|r| r.layers.machine.apply_calls),
            "count",
        ),
        (
            "state.revert_calls",
            h(&|r| r.layers.machine.revert_calls),
            "count",
        ),
        (
            "state.revert_s",
            h(&|r| r.layers.machine.revert_ns) * ns,
            "s",
        ),
        (
            "state.apply_us_per_tx",
            ratio(apply_ns * 1e-3, h(&|r| r.layers.machine.apply_txs)),
            "us",
        ),
        ("engine.events", events, "count"),
        ("engine.events_per_wall_s", ratio(events, wall), "1/s"),
        ("engine.overhead_s", WORKERS as f64 * wall - handler_s, "s"),
        ("engine.parallel_speedup", median(speedup), "ratio"),
        (
            "engine.shard_event_skew",
            ratio(shard_max, shard_mean),
            "ratio",
        ),
        ("net.msgs_sent", msgs, "count"),
        ("net.bytes_sent", h(&|r| r.layers.net.bytes_sent), "B"),
        ("net.msgs_per_committed_tx", ratio(msgs, committed), "ratio"),
        (
            "setup.keygen_s",
            per_round(traced, |r| r.setup.keygen_s),
            "s",
        ),
        ("setup.sign_s", per_round(traced, |r| r.setup.sign_s), "s"),
        ("setup.build_s", per_round(traced, |r| r.setup.build_s), "s"),
        ("trace.overhead_s", median(overhead), "s"),
    ]
}

/// Checks each round's digest against the one recorded by an earlier run
/// of the same code, workload, seed, and round (recording it if none is),
/// and each traced round's digest against its untraced twin.
fn digest_verdicts(
    spec: &Spec,
    args: &Args,
    run: &Run,
    build: Option<&str>,
    dir: Option<PathBuf>,
) -> Vec<Verdict> {
    let mut drift = Vec::new();
    for (i, r) in run.rounds.iter().enumerate() {
        let (Some(dir), Some(build)) = (&dir, build) else {
            break;
        };
        let file = dir.join(format!("{}-s{}-r{i}-{build}.digest", spec.name, args.seed));
        let hex = r.digest.to_hex();
        match std::fs::read_to_string(&file) {
            Ok(old) if old.trim() != hex => drift.push(i),
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &hex));
            }
        }
    }
    let twin_drift = |twins: &[RoundOut]| -> Vec<usize> {
        twins
            .iter()
            .zip(&run.rounds)
            .enumerate()
            .filter(|(_, (t, u))| t.digest != u.digest)
            .map(|(i, _)| i)
            .collect()
    };
    let traced_drift = twin_drift(&run.traced);
    let parallel_drift = twin_drift(&run.parallel);
    vec![
        Verdict {
            gate: "digest_repeats",
            failure: (!drift.is_empty())
                .then(|| format!("rounds {drift:?} differ from an earlier run of the same seed")),
        },
        Verdict {
            gate: "traced_digest",
            failure: (!traced_drift.is_empty())
                .then(|| format!("traced rounds {traced_drift:?} differ from untraced")),
        },
        Verdict {
            gate: "worker_digest",
            failure: (!parallel_drift.is_empty())
                .then(|| format!("rounds {parallel_drift:?} differ at one engine worker per core")),
        },
    ]
}

fn metrics_obj(metrics: &[(&str, f64, &str)]) -> J {
    J::obj(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            J::obj([("value", J::Num(*value)), ("unit", J::str(*unit))]),
        )
    }))
}

/// Renders the run record and the result line; returns them with whether
/// every gate passed.
pub fn render(
    spec: &Spec,
    args: &Args,
    run: &Run,
    repo: &Path,
    state_dir: Option<PathBuf>,
) -> (String, String, bool) {
    let rev = host::revision(repo);
    let build = host::build_id();
    // Every gate's failures, by gate name ("ok" when it has none).
    let mut failures: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
    let mut note = |label: String, v: Verdict| {
        let entry = failures.entry(v.gate).or_default();
        entry.extend(v.failure.map(|f| format!("{label}{f}")));
    };
    for (kind, rounds) in [
        ("round", &run.rounds),
        ("traced round", &run.traced),
        ("parallel round", &run.parallel),
    ] {
        for (i, r) in rounds.iter().enumerate() {
            for v in gates::check(&r.observation) {
                note(format!("{kind} {i}: "), v);
            }
        }
    }
    for v in digest_verdicts(spec, args, run, build.as_deref(), state_dir) {
        note(String::new(), v);
    }
    let correct = failures.values().all(Vec::is_empty);
    let gates = failures
        .into_iter()
        .map(|(gate, f)| {
            let verdict = if f.is_empty() {
                "ok".to_string()
            } else {
                f.join("; ")
            };
            (gate.to_string(), J::Str(verdict))
        })
        .collect();

    let measured = if args.trace { &run.traced } else { &run.rounds };
    let attempted: u64 = measured.iter().map(|r| r.attempted).sum();
    let failed: u64 = measured.iter().map(|r| r.failed).sum();
    let metrics = if args.trace {
        per_layer(run)
    } else {
        end_to_end(&run.rounds)
    };
    let samples: usize = run.rounds.iter().map(|r| r.latency.count()).sum();
    let wan = LatencyModel::wan();
    let run_digest = {
        let mut bytes = Vec::new();
        for r in &run.rounds {
            bytes.extend_from_slice(r.digest.as_bytes());
        }
        dcs_crypto::sha256(&bytes).to_hex()
    };
    let rounds = run
        .rounds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            J::obj([
                ("round_seed", J::Int(workloads::round_seed(args.seed, i))),
                ("setup_s", J::Num(r.setup.total_s())),
                ("wall_s", J::Num(r.wall_s)),
                ("cpu_s", J::Num(r.cpu_s)),
                ("sim_s", J::Num(r.sim_s)),
                ("events", J::Int(r.events)),
                ("attempted", J::Int(r.attempted)),
                ("committed", J::Int(r.committed)),
                ("failed", J::Int(r.failed)),
                ("last_commit_sim_s", J::Num(r.horizon_s)),
                ("digest", J::str(r.digest.to_hex())),
            ])
        })
        .collect();
    let record = J::obj([(
        "perfbench_record",
        J::obj([
            ("workload", J::str(spec.name)),
            ("seed", J::Int(args.seed)),
            ("held_out_seed", J::Int(HELD_OUT_SEED)),
            ("rev", J::str(rev)),
            ("build_id", J::str(build.clone().unwrap_or_default())),
            ("host_cpus", J::Int(host::host_cpus() as u64)),
            ("engine_workers", J::Int(WORKERS as u64)),
            (
                "parallel_engine_workers",
                J::Int(if args.trace {
                    host::host_cpus() as u64
                } else {
                    0
                }),
            ),
            ("traced", J::Bool(args.trace)),
            ("nodes", J::Int(spec.nodes as u64)),
            ("topology", J::str("4-regular")),
            (
                "latency_model",
                J::str("LatencyModel::wan(): log-normal, median 80 ms, sigma 0.5, no loss"),
            ),
            (
                "message_delay_ms",
                J::obj([
                    ("median", J::Num(80.0)),
                    ("sigma", J::Num(0.5)),
                    ("floor", J::Num(wan.min_latency().as_secs_f64() * 1e3)),
                ]),
            ),
            ("offered_tps", J::Num(spec.tps)),
            ("arrival_sim_s", J::Int(spec.arrival_secs)),
            ("canaries_per_round", J::Int(spec.canaries as u64)),
            ("latency_samples", J::Int(samples as u64)),
            ("run_digest", J::str(run_digest)),
            ("gates", J::Obj(gates)),
            ("rounds", J::Arr(rounds)),
        ]),
    )]);
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(attempted.max(1))),
        ("failed", J::Int(failed)),
        ("metrics", metrics_obj(&metrics)),
    ]);
    (record.render(), result.render(), correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, <second>)` of every entry listed in one section of
    /// `BENCHMARK.json`.
    fn listed(section: &str, second: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, second)))
            .collect()
    }

    fn emitted(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_emitted() {
        let run = Run {
            rounds: Vec::new(),
            traced: Vec::new(),
            parallel: Vec::new(),
        };
        assert_eq!(
            listed("end_to_end", "unit"),
            emitted(&end_to_end(&run.rounds))
        );
        assert_eq!(listed("per_layer", "unit"), emitted(&per_layer(&run)));
        let names: Vec<String> = listed("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, workloads::NAMES);
    }
}
