//! An orderer whose own import refuses its block must not wedge the
//! service: the offending transaction is evicted and every valid one
//! behind it still commits.

use dcs_consensus::ordering::OrderingNode;
use dcs_consensus::{wire_size, WireMsg};
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256, KeyPair};
use dcs_net::{LatencyModel, NetConfig, NodeId, Runner, Topology};
use dcs_primitives::{AccountTx, ChainConfig, GasSchedule, SealedTx, Transaction, TxAuth};
use dcs_sim::{SimDuration, SimTime};
use std::sync::Arc;

const PEERS: usize = 4;
const SIGNED: usize = 6;

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn transfer(from: Address, to: Address, signer: Option<&mut KeyPair>) -> Transaction {
    let mut tx = AccountTx::transfer(from, to, 10, 0);
    tx.gas_limit = 0;
    tx.gas_price = 0;
    if let Some(keys) = signer {
        let signature = keys
            .sign(&Transaction::Account(tx.clone()).signing_hash())
            .unwrap();
        tx.auth = Some(TxAuth {
            pubkey: keys.public_key(),
            signature,
        });
    }
    Transaction::Account(tx)
}

#[test]
fn unsigned_transfer_is_evicted_and_valid_transfers_commit() {
    let mut senders: Vec<KeyPair> = (0..SIGNED)
        .map(|i| KeyPair::generate([i as u8 + 1; 32], 1))
        .collect();
    let forger = Address::from_index(900);
    let bob = Address::from_index(901);
    let mut alloc: Vec<(Address, u64)> = senders.iter().map(|k| (k.address(), 1_000)).collect();
    alloc.push((forger, 1_000));

    // The batch size stays above the injected count, so only the batch
    // timer cuts blocks. No admission pipeline: the unsigned transfer
    // reaches the orderer's mempool and poisons its first block.
    let chain_cfg = ChainConfig {
        gas: GasSchedule::free(),
        verify_signatures: true,
        ..ChainConfig::hyperledger_like()
    };
    let genesis = dcs_chain::genesis_block(&chain_cfg);
    let net = NetConfig {
        nodes: PEERS,
        topology: Topology::Complete,
        latency: LatencyModel::lan(),
        drop_probability: 0.0,
        bandwidth_bytes_per_sec: None,
    };
    let mut runner = Runner::new(net, 11, |id: NodeId| {
        let mut machine = AccountMachine::with_alloc(&alloc);
        machine.schedule = GasSchedule::free();
        machine.verify_signatures = true;
        OrderingNode::new(
            id,
            Address::from_index(id.0 as u64),
            genesis.clone(),
            chain_cfg.clone(),
            machine,
            PEERS,
        )
    });

    let mut txs: Vec<Transaction> = senders
        .iter_mut()
        .map(|keys| transfer(keys.address(), bob, Some(keys)))
        .collect();
    let valid: Vec<Hash256> = txs.iter().map(Transaction::id).collect();
    let unsigned = transfer(forger, bob, None);
    let unsigned_id = unsigned.id();
    txs.insert(SIGNED / 2, unsigned);
    for (i, tx) in txs.into_iter().enumerate() {
        let msg = WireMsg::Tx(SealedTx::new(Arc::new(tx)));
        let size = wire_size(&msg);
        runner
            .net_mut()
            .inject(at_ms(10 * i as u64 + 1), NodeId(i % PEERS), msg, size);
    }

    runner.run_until(at_ms(5_000));
    for node in runner.nodes() {
        let included = node.core.included();
        for id in &valid {
            assert!(included.contains(id), "valid transfer {id} never committed");
        }
        assert!(
            !included.contains(&unsigned_id),
            "unsigned transfer committed"
        );
        let db = &node.core.chain.machine().db;
        assert_eq!(db.balance(&bob), 10 * SIGNED as u64);
        assert_eq!(db.balance(&forger), 1_000);
    }
}
