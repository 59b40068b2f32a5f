//! The three workloads: what each network is, what load it gets, and how a
//! seed becomes its inputs. Every random choice — keys, arrival instants,
//! senders, recipients, amounts, points of contact, the network's own seed —
//! derives from the round seed, so a seed names one exact input.

use crate::host::Stopwatch;
use crate::probe::{Probe, Timed};
use dcs_chain::{genesis_block, NullMachine};
use dcs_consensus::{
    ordering::OrderingNode,
    pos::{PosNode, StakeTable},
    pow::PowNode,
    wire_size, WireMsg,
};
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256, KeyPair, PublicKey, Signature, VerifyPipeline};
use dcs_ledger::workload::Workload;
use dcs_net::{LatencyModel, NetConfig, NodeId, Runner, Topology};
use dcs_primitives::{
    AccountTx, ChainConfig, ConsensusKind, GasSchedule, SealedTx, Transaction, TxAuth,
};
use dcs_sim::{Rng, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Which network a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CS corner: an ordering service over signed account transfers.
    SignedOrdering,
    /// DC corner: proof of work over account transfers, offered 4× its
    /// block ceiling.
    PowOverload,
    /// The event engine at scale: 1,000 slot-based proof-of-stake peers
    /// over the null state machine.
    Gossip1k,
}

/// One workload's frozen configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Network kind.
    pub kind: Kind,
    /// Peer count.
    pub nodes: usize,
    /// Offered load: Poisson arrivals per simulated second.
    pub tps: f64,
    /// Simulated seconds during which transactions arrive.
    pub arrival_secs: u64,
    /// Funded accounts that send and receive.
    pub accounts: usize,
    /// Most client transactions a round submits.
    pub max_txs: usize,
    /// Forged-signature transactions injected per round.
    pub canaries: usize,
    /// Block capacity including the coinbase (proof-of-work and
    /// proof-of-stake workloads).
    pub block_tx_limit: usize,
    /// Target block interval (proof of work) or slot length (proof of
    /// stake) in simulated seconds.
    pub block_secs: u64,
    /// Set-ups per round; the round's set-up time is their median. Cheap
    /// set-ups repeat so the median is steady.
    pub setup_repeats: usize,
    /// Simulated time between drive steps (the drain check and mempool
    /// sampling run between steps).
    pub step_ms: u64,
    /// Simulated time run after the last transaction commits, so its block
    /// reaches every peer.
    pub tail_ms: u64,
    /// Longest drain after arrivals end; transactions still uncommitted
    /// then count as failed.
    pub max_drain_secs: u64,
    /// Wall seconds one round takes on the reference host (2 cores):
    /// `--seconds` divided by this is the round count.
    pub round_secs: f64,
}

/// Balance of every funded account.
const FUNDING: u64 = 1_000_000_000_000;

/// Mean hash rate of every proof-of-work peer (hashes per simulated second).
const HASH_POWER: f64 = 1_000.0;

/// Every workload runs over a 4-regular overlay with WAN delay and no loss.
fn net_config(nodes: usize) -> NetConfig {
    NetConfig {
        nodes,
        topology: Topology::KRegular { k: 4 },
        latency: LatencyModel::wan(),
        drop_probability: 0.0,
        bandwidth_bytes_per_sec: None,
    }
}

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "signed_ordering" => Spec {
            name: "signed_ordering",
            kind: Kind::SignedOrdering,
            nodes: 16,
            tps: 200.0,
            arrival_secs: 6,
            accounts: 512,
            max_txs: usize::MAX,
            canaries: 5,
            block_tx_limit: 500,
            block_secs: 0,
            setup_repeats: 1,
            step_ms: 500,
            tail_ms: 2_000,
            max_drain_secs: 20,
            round_secs: 4.2,
        },
        "pow_overload" => Spec {
            name: "pow_overload",
            kind: Kind::PowOverload,
            nodes: 16,
            tps: 100.0,
            arrival_secs: 60,
            accounts: 6_500,
            max_txs: 6_500,
            canaries: 0,
            block_tx_limit: 26,
            block_secs: 1,
            setup_repeats: 1,
            step_ms: 1_000,
            tail_ms: 3_000,
            max_drain_secs: 1_200,
            round_secs: 3.8,
        },
        "gossip_1k" => Spec {
            name: "gossip_1k",
            kind: Kind::Gossip1k,
            nodes: 1_000,
            tps: 50.0,
            arrival_secs: 20,
            accounts: 1_000,
            max_txs: usize::MAX,
            canaries: 0,
            block_tx_limit: 1_000,
            block_secs: 5,
            setup_repeats: 25,
            step_ms: 1_000,
            tail_ms: 5_000,
            max_drain_secs: 120,
            round_secs: 5.0,
        },
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
impl Spec {
    /// A short version of the workload for tests: a few simulated seconds
    /// of arrivals, and the 1,000-peer network cut to 200.
    pub fn short(mut self) -> Spec {
        self.arrival_secs = match self.kind {
            Kind::SignedOrdering => 2,
            Kind::PowOverload => 15,
            Kind::Gossip1k => 10,
        };
        self.nodes = self.nodes.min(200);
        self.setup_repeats = 1;
        self
    }
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &["signed_ordering", "pow_overload", "gossip_1k"];

/// The chain configuration of a workload.
fn chain_config(spec: &Spec) -> ChainConfig {
    match spec.kind {
        Kind::SignedOrdering => ChainConfig {
            gas: GasSchedule::free(),
            verify_signatures: true,
            block_tx_limit: spec.block_tx_limit,
            ..ChainConfig::hyperledger_like()
        },
        Kind::Gossip1k => ChainConfig {
            consensus: ConsensusKind::ProofOfStake {
                slot_us: spec.block_secs * 1_000_000,
            },
            block_tx_limit: spec.block_tx_limit,
            ..ChainConfig::ethereum_like()
        },
        Kind::PowOverload => ChainConfig {
            consensus: ConsensusKind::ProofOfWork {
                initial_difficulty: (spec.nodes as f64 * HASH_POWER) as u64 * spec.block_secs,
                retarget_window: 0,
                target_interval_us: spec.block_secs * 1_000_000,
            },
            block_tx_limit: spec.block_tx_limit,
            ..ChainConfig::bitcoin_like()
        },
    }
}

/// The seed of round `round` of a run seeded `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut rng = Rng::stream(seed, 0x7065_7266, round as u64);
    rng.next_u64()
}

/// Wall time of each set-up step of one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Key generation.
    pub keygen_s: f64,
    /// Transaction signing.
    pub sign_s: f64,
    /// Network construction and transaction injection.
    pub build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.keygen_s + self.sign_s + self.build_s
    }

    /// The sample whose total is the median of `samples` (the upper one of
    /// an even count).
    pub fn median(samples: &[SetupTimes]) -> SetupTimes {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_s().total_cmp(&b.total_s()));
        sorted.get(sorted.len() / 2).copied().unwrap_or_default()
    }
}

/// The transactions of one round, as submitted.
#[derive(Debug, Default)]
pub struct Load {
    /// Client transactions by id, with their due instants.
    pub submitted: HashMap<Hash256, SimTime>,
    /// Forged-signature transactions (never to commit).
    pub canaries: Vec<Hash256>,
    /// Genesis allocation of the account-model workloads.
    pub alloc: Vec<(Address, u64)>,
    /// Every client signature, for the out-of-simulation verify replay.
    pub signatures: Vec<(PublicKey, Hash256, Signature)>,
}

impl Load {
    /// Sum of the genesis allocation.
    pub fn alloc_total(&self) -> u128 {
        self.alloc.iter().map(|(_, v)| u128::from(*v)).sum()
    }
}

/// One client transaction waiting for its due instant.
struct Arrival {
    at: SimTime,
    node: NodeId,
    tx: SealedTx,
}

/// Generates the inputs of an account-model workload: Poisson arrivals of
/// transfers among funded accounts, signed by WOTS keys when `signed`, plus
/// the forged canaries. Senders take turns in a seeded shuffled order, so a
/// sender's consecutive transfers are `accounts` arrivals apart: a wallet
/// waits for its last transfer before sending the next. Transfers from one
/// sender closer together than gossip spreads them would reach the proposer
/// out of nonce order and fail (the mempool is FIFO, not nonce-aware).
/// Returns the inputs, the arrivals to inject, and the keygen/sign times.
fn account_inputs(spec: &Spec, seed: u64, signed: bool) -> (Load, Vec<Arrival>, f64, f64) {
    let mut rng = Rng::seed_from(seed ^ 0x5167_6e65_6421);
    let end = spec.arrival_secs as f64;
    let mut order: Vec<usize> = (0..spec.accounts).collect();
    rng.shuffle(&mut order);
    // The schedule first, so each sender's key is sized to what it signs.
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exp(1.0 / spec.tps);
        if t >= end || schedule.len() == spec.max_txs {
            break;
        }
        let from = order[schedule.len() % spec.accounts];
        let to = rng.below(spec.accounts as u64) as usize;
        let value = 1 + rng.below(100);
        let node = NodeId(rng.below(spec.nodes as u64) as usize);
        schedule.push((t, from, to, value, node));
    }

    let keygen_start = Stopwatch::start();
    let mut keys: Vec<KeyPair> = Vec::new();
    let mut canary_keys: Vec<KeyPair> = Vec::new();
    let addresses: Vec<Address> = if signed {
        let mut counts = vec![0u32; spec.accounts];
        for &(_, from, ..) in &schedule {
            counts[from] += 1;
        }
        let key_seed = |rng: &mut Rng| {
            let mut s = [0u8; 32];
            for chunk in s.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            s
        };
        keys = counts
            .iter()
            .map(|&c| KeyPair::generate(key_seed(&mut rng), height_for(c)))
            .collect();
        canary_keys = (0..spec.canaries)
            .map(|_| KeyPair::generate(key_seed(&mut rng), 1))
            .collect();
        keys.iter().map(KeyPair::address).collect()
    } else {
        (0..spec.accounts).map(account).collect()
    };
    let keygen_s = keygen_start.secs();

    let sign_start = Stopwatch::start();
    let mut nonces = vec![0u64; spec.accounts];
    let mut load = Load::default();
    let mut arrivals = Vec::with_capacity(schedule.len() + spec.canaries);
    for &(t, from, to, value, node) in &schedule {
        let mut tx = AccountTx::transfer(addresses[from], addresses[to], value, nonces[from]);
        nonces[from] += 1;
        if signed {
            tx.gas_limit = 0;
            tx.gas_price = 0;
            let msg = Transaction::Account(tx.clone()).signing_hash();
            let signature = keys[from]
                .sign(&msg)
                .expect("keys are sized to their senders");
            let pubkey = keys[from].public_key();
            load.signatures.push((pubkey, msg, signature.clone()));
            tx.auth = Some(TxAuth { pubkey, signature });
        }
        let sealed = SealedTx::new(Arc::new(Transaction::Account(tx)));
        let at = SimTime::from_micros((t * 1e6) as u64);
        load.submitted.insert(sealed.id(), at);
        arrivals.push(Arrival {
            at,
            node,
            tx: sealed,
        });
    }
    // Canaries: each witness is a valid signature by the sender's own key,
    // but over a different transfer, so only a real verification can tell.
    for (i, key) in canary_keys.iter().enumerate() {
        let mut tx = AccountTx::transfer(key.address(), addresses[i % spec.accounts], 7, 0);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        let mut decoy = tx.clone();
        decoy.value += 1;
        let signature = key
            .sign_with_index(&Transaction::Account(decoy).signing_hash(), 0)
            .expect("index 0 exists");
        tx.auth = Some(TxAuth {
            pubkey: key.public_key(),
            signature,
        });
        let sealed = SealedTx::new(Arc::new(Transaction::Account(tx)));
        load.canaries.push(sealed.id());
        let at =
            SimTime::from_micros(((i + 1) as f64 * end * 1e6 / (spec.canaries + 1) as f64) as u64);
        let node = NodeId(rng.below(spec.nodes as u64) as usize);
        arrivals.push(Arrival {
            at,
            node,
            tx: sealed,
        });
    }
    let sign_s = sign_start.secs();

    load.alloc = addresses
        .iter()
        .copied()
        .chain(canary_keys.iter().map(KeyPair::address))
        .map(|a| (a, FUNDING))
        .collect();
    (load, arrivals, keygen_s, sign_s)
}

/// The smallest key height whose capacity covers `count` signatures.
fn height_for(count: u32) -> u8 {
    (count.max(2).next_power_of_two().trailing_zeros()) as u8
}

/// Unsigned account `i` (clear of the peer reward addresses, which are the
/// first indices).
fn account(i: usize) -> Address {
    Address::from_index(1_000_000 + i as u64)
}

/// Injects each arrival at its due instant at its point of contact.
fn inject<P: dcs_net::Protocol<Msg = WireMsg>>(runner: &mut Runner<P>, arrivals: Vec<Arrival>) {
    for a in arrivals {
        let msg = WireMsg::Tx(a.tx);
        let size = wire_size(&msg);
        runner.net_mut().inject(a.at, a.node, msg, size);
    }
}

/// A built network with its load injected, ready to drive.
pub enum Network {
    /// `signed_ordering`.
    Signed(Runner<Probe<OrderingNode<Timed<AccountMachine>>>>),
    /// `pow_overload`.
    Overload(Runner<Probe<PowNode<Timed<AccountMachine>>>>),
    /// `gossip_1k`.
    Gossip(Runner<Probe<PosNode<Timed<NullMachine>>>>),
}

/// Builds round `seed` of `spec`: generates its inputs, builds the network
/// (probes on if `traced`), and injects every transaction at its due
/// instant. Returns the network, the load, and the set-up times.
pub fn setup(spec: &Spec, seed: u64, traced: bool, workers: usize) -> (Network, Load, SetupTimes) {
    let cfg = chain_config(spec);
    let genesis = genesis_block(&cfg);
    let net_seed = seed ^ 0x006e_6574_776f_726b;
    let addr = |id: NodeId| Address::from_index(id.0 as u64);
    let n = spec.nodes;
    match spec.kind {
        Kind::SignedOrdering => {
            let (load, arrivals, keygen_s, sign_s) = account_inputs(spec, seed, true);
            let build_start = Stopwatch::start();
            let mut runner = Runner::new(net_config(n), net_seed, |id| {
                // One pipeline per peer, single-threaded, shared by its
                // mempool admission and its state machine.
                let pipeline = Arc::new(VerifyPipeline::new(1, 1 << 16));
                let mut machine =
                    AccountMachine::with_alloc(&load.alloc).with_pipeline(Arc::clone(&pipeline));
                machine.schedule = cfg.gas.clone();
                machine.verify_signatures = true;
                let mut node = OrderingNode::new(
                    id,
                    addr(id),
                    genesis.clone(),
                    cfg.clone(),
                    Timed::new(machine, traced),
                    n,
                );
                node.core.mempool.set_admission(pipeline);
                Probe::new(node, traced)
            });
            runner.set_shards(workers);
            inject(&mut runner, arrivals);
            let times = SetupTimes {
                keygen_s,
                sign_s,
                build_s: build_start.secs(),
            };
            (Network::Signed(runner), load, times)
        }
        Kind::PowOverload => {
            let (load, arrivals, keygen_s, sign_s) = account_inputs(spec, seed, false);
            let build_start = Stopwatch::start();
            let mut runner = Runner::new(net_config(n), net_seed, |id| {
                let mut machine = AccountMachine::with_alloc(&load.alloc);
                machine.schedule = cfg.gas.clone();
                let node = PowNode::new(
                    id,
                    addr(id),
                    genesis.clone(),
                    cfg.clone(),
                    Timed::new(machine, traced),
                    HASH_POWER,
                );
                Probe::new(node, traced)
            });
            runner.set_shards(workers);
            inject(&mut runner, arrivals);
            let times = SetupTimes {
                keygen_s,
                sign_s,
                build_s: build_start.secs(),
            };
            (Network::Overload(runner), load, times)
        }
        Kind::Gossip1k => {
            let build_start = Stopwatch::start();
            let table = StakeTable::new(
                (0..n).map(|i| addr(NodeId(i))).collect(),
                vec![100; n],
                cfg.chain_id,
            );
            let mut runner = Runner::new(net_config(n), net_seed, |id| {
                let node = PosNode::new(
                    id,
                    genesis.clone(),
                    cfg.clone(),
                    Timed::new(NullMachine, traced),
                    table.clone(),
                    id.0,
                );
                Probe::new(node, traced)
            });
            runner.set_shards(workers);
            let duration = SimDuration::from_secs(spec.arrival_secs);
            let submitted = Workload::transfers(spec.tps, duration, spec.accounts as u64)
                .inject(runner.net_mut(), seed);
            let load = Load {
                submitted,
                ..Load::default()
            };
            let times = SetupTimes {
                build_s: build_start.secs(),
                ..SetupTimes::default()
            };
            (Network::Gossip(runner), load, times)
        }
    }
}
