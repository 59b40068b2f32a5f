//! One round: drive a built network through its arrivals and drain, time
//! it, then read the finished network — gates, protocol figures, layer
//! counters, and the chain digest.

use crate::gates::Observation;
use crate::host::{self, Stopwatch};
use crate::probe::{Balances, MachineTimes, NodeLayers, Probe, Timed};
use crate::workloads::{self, Load, Network, SetupTimes, Spec};
use dcs_chain::StateMachine;
use dcs_crypto::{Hash256, VerifyPipeline};
use dcs_ledger::LedgerNode;
use dcs_net::{NetStats, NodeId, Runner};
use dcs_primitives::Transaction;
use dcs_sim::{SimDuration, SimTime, Summary};
use std::collections::{BTreeSet, HashSet};

/// Layer counters of one round, read from outside the program.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Handler costs summed over peers (zero unless traced).
    pub handlers: NodeLayers,
    /// State-machine costs summed over peers (zero unless traced).
    pub machine: MachineTimes,
    /// Signatures submitted to the peers' verification pipelines.
    pub verify_items: u64,
    /// Signature-cache hits summed over peers.
    pub sigcache_hits: u64,
    /// Signature-cache misses summed over peers.
    pub sigcache_misses: u64,
    /// Out-of-simulation replay of every client signature with the cache
    /// off: `(signatures, seconds)` (traced rounds only).
    pub verify_replay: (u64, f64),
    /// Admission refusals for bad witnesses, summed over peers.
    pub rejected_invalid: u64,
    /// Deepest mempool seen at any drive step, over all peers.
    pub depth_peak: usize,
    /// Reorganisations seen by the reference peer.
    pub reorgs: u64,
    /// Blocks the reference peer saw, and how many of them are off its
    /// canonical chain.
    pub blocks_seen: u64,
    /// See `blocks_seen`.
    pub blocks_stale: u64,
    /// Network counters.
    pub net: NetStats,
    /// Events dispatched per engine worker.
    pub shard_events: Vec<u64>,
}

/// Everything measured in one round.
#[derive(Debug, Clone)]
pub struct RoundOut {
    /// Set-up cost.
    pub setup: SetupTimes,
    /// Wall time of the drive (arrivals and drain).
    pub wall_s: f64,
    /// Process CPU time of the drive.
    pub cpu_s: f64,
    /// Simulated time driven.
    pub sim_s: f64,
    /// Engine events dispatched.
    pub events: u64,
    /// Client transactions submitted.
    pub attempted: u64,
    /// Client transactions on the reference chain with a successful receipt.
    pub committed: u64,
    /// Client transactions missing from the reference chain at the end of
    /// the drain, or committed with a failed receipt.
    pub failed: u64,
    /// Simulated instant of the last commit, in seconds.
    pub horizon_s: f64,
    /// Submit-to-commit latencies in simulated seconds.
    pub latency: Summary,
    /// Digest of every peer's canonical chain and state root and of the
    /// network counters.
    pub digest: Hash256,
    /// What the correctness gates check.
    pub observation: Observation,
    /// Layer counters.
    pub layers: LayerCounts,
}

/// Builds and drives round `round_seed` of `spec`. The set-up runs
/// `spec.setup_repeats` times; the last network built is driven and the
/// set-up times reported are the medians.
pub fn run(spec: &Spec, round_seed: u64, traced: bool, workers: usize) -> RoundOut {
    let mut samples = Vec::with_capacity(spec.setup_repeats);
    let mut built = None;
    for _ in 0..spec.setup_repeats.max(1) {
        drop(built.take()); // free the previous network before timing the next
        let start = Stopwatch::start();
        let (network, load, mut times) = workloads::setup(spec, round_seed, traced, workers);
        // Anything not attributed to a set-up step still counts as set-up.
        times.build_s += start.secs() - times.total_s();
        samples.push(times);
        built = Some((network, load));
    }
    let (network, load) = built.expect("at least one set-up");
    let setup = SetupTimes::median(&samples);
    let mut out = match network {
        Network::Signed(mut r) => drive(&mut r, spec, &load, setup),
        Network::Overload(mut r) => drive(&mut r, spec, &load, setup),
        Network::Gossip(mut r) => drive(&mut r, spec, &load, setup),
    };
    if traced && !load.signatures.is_empty() {
        let replay = VerifyPipeline::new(1, 0);
        let start = Stopwatch::start();
        let verdicts = replay.verify_batch(&load.signatures);
        let secs = start.secs();
        out.layers.verify_replay = (load.signatures.len() as u64, secs);
        out.observation.signatures_invalid = verdicts.iter().filter(|v| !**v).count() as u64;
    }
    out
}

fn drive<N, M>(
    runner: &mut Runner<Probe<N>>,
    spec: &Spec,
    load: &Load,
    setup: SetupTimes,
) -> RoundOut
where
    N: LedgerNode<Machine = Timed<M>> + Send,
    M: Balances + Send,
{
    let step = SimDuration::from_millis(spec.step_ms);
    let arrival_end = SimTime::ZERO + SimDuration::from_secs(spec.arrival_secs);
    let drain_end = arrival_end + SimDuration::from_secs(spec.max_drain_secs);
    let expected = load.submitted.len() as u64;
    let mut layers = LayerCounts::default();
    let mut events = 0;
    let mut t = SimTime::ZERO;
    let cpu_start = host::cpu_secs().unwrap_or(0.0);
    let start = Stopwatch::start();
    loop {
        t += step;
        events += runner.run_until(t);
        let depth = runner.nodes().iter().map(|n| n.core().mempool.len());
        layers.depth_peak = layers.depth_peak.max(depth.max().unwrap_or(0));
        let committed = runner.node(NodeId(0)).core().committed_tx_count();
        if t >= arrival_end && (committed >= expected || t >= drain_end) {
            break;
        }
    }
    t += SimDuration::from_millis(spec.tail_ms);
    events += runner.run_until(t);
    let wall_s = start.secs();
    let cpu_s = host::cpu_secs().unwrap_or(0.0) - cpu_start;

    let (observation, committed_ok, horizon_s, latency) = observe(runner, load);
    for node in runner.nodes() {
        layers.handlers.add(&node.layers);
        layers.machine.add(&node.core().chain.machine().times);
        layers.rejected_invalid += node.core().mempool.rejected_invalid();
        if let Some(p) = node.core().mempool.admission() {
            let s = p.stats();
            layers.verify_items += s.batch_items;
            if let Some(c) = s.cache {
                layers.sigcache_hits += c.hits;
                layers.sigcache_misses += c.misses;
            }
        }
    }
    let reference = &runner.node(NodeId(0)).core().chain;
    layers.reorgs = reference.stats().reorgs;
    layers.blocks_seen = reference.tree().len() as u64 - 1;
    layers.blocks_stale = layers.blocks_seen - (reference.canonical().len() as u64 - 1);
    layers.net = runner.stats();
    layers.shard_events = runner.shard_event_counts().to_vec();

    RoundOut {
        setup,
        wall_s,
        cpu_s,
        sim_s: t.as_secs_f64(),
        events,
        attempted: expected,
        committed: committed_ok,
        failed: expected - committed_ok,
        horizon_s,
        latency,
        digest: digest(runner, events),
        observation,
        layers,
    }
}

/// Reads the finished network: the gate observation, the client
/// transactions committed with a successful receipt, the instant of the
/// last commit, and commit latencies.
fn observe<N, M>(runner: &mut Runner<Probe<N>>, load: &Load) -> (Observation, u64, f64, Summary)
where
    N: LedgerNode<Machine = Timed<M>> + Send,
    M: Balances + Send,
{
    // Receipts of blocks the reference applied; only canonical ones count.
    let receipts = runner.node_mut(NodeId(0)).core_mut().chain.drain_receipts();
    let nodes = runner.nodes();
    let result = dcs_ledger::collect(nodes, &load.submitted, SimDuration::from_secs(1));
    let reference = nodes[0].core();
    let chain = &reference.chain;
    let canonical: BTreeSet<Hash256> = chain.canonical().iter().copied().collect();
    let mut failed_receipts: HashSet<Hash256> = HashSet::new();
    for (block, rs) in &receipts {
        if canonical.contains(block) {
            failed_receipts.extend(
                rs.iter()
                    .filter(|r| !r.status.is_success())
                    .map(|r| r.tx_id),
            );
        }
    }

    let mut committed = 0u64;
    let mut unknown = 0u64;
    let mut minted = 0u128;
    let mut last_commit_us = 0u64;
    for hash in chain.canonical().iter().skip(1) {
        let Some(block) = chain.tree().get(hash).and_then(|sb| sb.body()) else {
            continue;
        };
        for (tx, id) in block.txs.iter().zip(block.tx_ids()) {
            if let Transaction::Coinbase { value, .. } = tx {
                minted += u128::from(*value);
            } else if !load.submitted.contains_key(id) {
                unknown += 1;
            } else if !failed_receipts.contains(id) {
                committed += 1;
                last_commit_us = last_commit_us.max(block.header.timestamp_us);
            }
        }
    }

    let machine = chain.machine();
    let supply = machine.balance(&reference.address).map(|_| {
        let mut accounts: BTreeSet<_> = load.alloc.iter().map(|(a, _)| *a).collect();
        accounts.extend(nodes.iter().map(|n| n.core().address));
        let balances = accounts
            .iter()
            .map(|a| u128::from(machine.balance(a).unwrap_or(0)))
            .sum();
        (balances, load.alloc_total(), minted)
    });
    let canaries_committed = nodes
        .iter()
        .map(|n| {
            let included = n.core().included();
            load.canaries
                .iter()
                .filter(|c| included.contains(c))
                .count() as u64
        })
        .sum();
    let obs = Observation {
        internal_errors: result.internal_errors,
        rejected_blocks: result.rejected_blocks,
        replicas_agree: result.replicas_agree,
        peers: nodes
            .iter()
            .map(|n| {
                (
                    n.core().chain.tip_hash(),
                    n.core().chain.machine().state_root(),
                )
            })
            .collect(),
        supply,
        unknown_committed: unknown,
        canaries: load.canaries.len() as u64,
        canaries_committed,
        rejected_invalid: nodes
            .iter()
            .map(|n| n.core().mempool.rejected_invalid())
            .collect(),
        signatures_invalid: 0,
    };
    (obs, committed, last_commit_us as f64 / 1e6, result.latency)
}

/// The round's digest: every peer's canonical chain and state root, the
/// network counters, and the event count. Independent of the engine worker
/// count and of tracing.
fn digest<N, M>(runner: &Runner<Probe<N>>, events: u64) -> Hash256
where
    N: LedgerNode<Machine = Timed<M>>,
    M: Balances,
{
    let mut bytes = Vec::new();
    for node in runner.nodes() {
        let chain = &node.core().chain;
        for hash in chain.canonical() {
            bytes.extend_from_slice(hash.as_bytes());
        }
        bytes.extend_from_slice(chain.machine().state_root().as_bytes());
    }
    let s = runner.stats();
    for v in [s.sent, s.delivered, s.bytes_sent, events] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    dcs_crypto::sha256(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::workloads::NAMES;

    fn short(name: &str) -> Spec {
        workloads::spec(name).expect("known workload").short()
    }

    fn failing(obs: &Observation) -> Vec<&'static str> {
        gates::check(obs)
            .into_iter()
            .filter(|v| v.failure.is_some())
            .map(|v| v.gate)
            .collect()
    }

    #[test]
    fn every_workload_passes_its_gates_and_commits_everything() {
        for name in NAMES {
            let out = run(&short(name), 11, false, 1);
            assert!(out.attempted > 0, "{name}: nothing submitted");
            assert_eq!(out.failed, 0, "{name}: failed operations");
            assert!(
                failing(&out.observation).is_empty(),
                "{name}: {:?}",
                out.observation
            );
        }
    }

    #[test]
    fn digest_is_the_same_at_one_worker_and_at_every_core() {
        let cores = host::host_cpus().max(2);
        for name in NAMES {
            let spec = short(name);
            let one = run(&spec, 5, false, 1);
            let many = run(&spec, 5, false, cores);
            assert_eq!(one.digest, many.digest, "{name}: 1 vs {cores} workers");
            assert_eq!(one.latency.count(), many.latency.count(), "{name}");
        }
    }

    #[test]
    fn digest_is_the_same_traced_and_untraced() {
        for name in NAMES {
            let spec = short(name);
            let plain = run(&spec, 7, false, 2);
            let traced = run(&spec, 7, true, 2);
            assert_eq!(plain.digest, traced.digest, "{name}");
            assert!(
                traced.layers.handlers.handler_ns() > 0,
                "{name}: probes recorded nothing"
            );
            assert_eq!(
                plain.layers.handlers.handler_ns(),
                0,
                "{name}: untraced probes must be off"
            );
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let spec = short("signed_ordering");
        assert_ne!(
            run(&spec, 1, false, 1).digest,
            run(&spec, 2, false, 1).digest
        );
    }

    #[test]
    fn gates_catch_a_doctored_signed_round() {
        let out = run(&short("signed_ordering"), 3, false, 2);
        assert!(
            failing(&out.observation).is_empty(),
            "{:?}",
            out.observation
        );
        assert_eq!(out.observation.canaries, 5);
        assert!(out.observation.rejected_invalid.iter().all(|&r| r == 5));

        let mut committed_canary = out.observation.clone();
        committed_canary.canaries_committed = 1;
        assert_eq!(failing(&committed_canary), vec!["canaries_uncommitted"]);

        let mut skipped_admission = out.observation.clone();
        skipped_admission.rejected_invalid[4] = 0;
        assert_eq!(failing(&skipped_admission), vec!["canaries_refused"]);

        let mut short_balance = out.observation.clone();
        if let Some((balances, _, _)) = &mut short_balance.supply {
            *balances -= 1;
        }
        assert_eq!(failing(&short_balance), vec!["supply"]);

        let mut diverged = out.observation.clone();
        let peers = diverged.peers.len();
        diverged.peers[peers - 1] = (diverged.peers[0].0, dcs_crypto::sha256(b"forked state"));
        assert_eq!(failing(&diverged), vec!["state_roots"]);
    }
}
