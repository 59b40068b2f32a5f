//! Property-based equivalence of the batched (default) and serial state
//! application paths at the machine level: for arbitrary blocks — valid and
//! invalid transactions mixed, conflicting keys touched repeatedly within
//! one block — `serial_apply = true` and `false` must produce bit-identical
//! receipts, state roots, and errors.

use dcs_chain::StateMachine;
use dcs_contracts::machine::UtxoMachine;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{
    AccountTx, Block, BlockHeader, GasSchedule, Seal, Transaction, TxIn, TxOut, UtxoTx,
};
use proptest::prelude::*;

const ACCOUNTS: u64 = 6;

fn account_block(txs: Vec<Transaction>) -> Block {
    let mut body = vec![Transaction::Coinbase {
        to: Address::from_index(999),
        value: 50,
        height: 1,
    }];
    body.extend(txs);
    Block::new(
        BlockHeader::new(Hash256::ZERO, 1, 1, Address::from_index(999), Seal::None),
        body,
    )
}

proptest! {
    /// Account machine: random transfer blocks where nonces are sometimes
    /// stale, amounts sometimes overdraw, and the same sender/receiver pair
    /// (the "conflicting key" case) appears many times in one block. Failed
    /// receipts are part of the contract: both paths must fail the same
    /// transactions the same way.
    #[test]
    fn account_machine_batched_matches_serial(
        ops in proptest::collection::vec(
            (0u64..ACCOUNTS, 0u64..ACCOUNTS, 1u64..700, 0u64..3),
            0..40,
        ),
    ) {
        let alloc: Vec<(Address, u64)> =
            (0..ACCOUNTS).map(|i| (Address::from_index(i), 1_000)).collect();
        // Nonces follow each sender's success count most of the time, with
        // a random offset mixed in so some transactions carry bad nonces.
        let mut next_nonce = vec![0u64; ACCOUNTS as usize];
        let txs: Vec<Transaction> = ops
            .iter()
            .map(|(from, to, amount, nonce_skew)| {
                let nonce = next_nonce[*from as usize] + nonce_skew.saturating_sub(1);
                let mut tx = AccountTx::transfer(
                    Address::from_index(*from),
                    Address::from_index(*to),
                    *amount,
                    nonce,
                );
                tx.gas_limit = 0;
                tx.gas_price = 0;
                if nonce == next_nonce[*from as usize] {
                    next_nonce[*from as usize] += 1; // likely to succeed
                }
                Transaction::Account(tx)
            })
            .collect();
        let block = account_block(txs);

        let machine = |serial| {
            let mut m = AccountMachine::with_alloc(&alloc);
            m.schedule = GasSchedule::free();
            m.serial_apply = serial;
            m
        };
        let mut serial = machine(true);
        let mut batched = machine(false);
        let root_before = serial.state_root();
        prop_assert_eq!(root_before, batched.state_root());

        let serial_result = serial.apply_block(&block);
        let batched_result = batched.apply_block(&block);
        match (serial_result, batched_result) {
            (Ok((sr, _)), Ok((br, _))) => {
                prop_assert_eq!(sr, br);
                prop_assert_eq!(serial.state_root(), batched.state_root());
            }
            (s, b) => prop_assert_eq!(s.err(), b.err()),
        }
    }

    /// UTXO machine: random spend graphs, including spends of outputs
    /// created earlier in the same block, double spends, and overdrawn
    /// outputs. Valid blocks must commit to identical sets; the first
    /// invalid transaction must raise the identical error from both paths
    /// and leave both machines at the pre-block commitment.
    #[test]
    fn utxo_machine_batched_matches_serial(
        picks in proptest::collection::vec((0usize..20, 1u64..120, any::<bool>()), 1..20),
    ) {
        let alloc: Vec<(Address, u64)> =
            (0..8u64).map(|i| (Address::from_index(i), 100)).collect();
        let proto = UtxoMachine::with_alloc(&alloc);

        // Candidates grow with each generated tx so later picks can chain
        // onto in-block outputs or double-spend earlier inputs.
        let mut candidates: Vec<(dcs_state::OutPoint, u64)> = (0..8u64)
            .flat_map(|i| {
                let addr = Address::from_index(i);
                proto.set.outpoints_of(&addr).into_iter().map(|op| (op, 100))
            })
            .collect();
        let mut txs = Vec::new();
        for (pick, value, split) in &picks {
            let (op, available) = candidates[pick % candidates.len()];
            let spend = *value.min(&available).max(&1);
            let mut outputs = vec![TxOut {
                value: spend,
                recipient: Address::from_index(300),
            }];
            if *split && available > spend {
                outputs.push(TxOut {
                    value: available - spend,
                    recipient: Address::from_index(301),
                });
            }
            let tx = Transaction::Utxo(UtxoTx {
                inputs: vec![TxIn { prev_tx: op.tx, index: op.index, auth: None }],
                outputs: outputs.clone(),
            });
            for (i, out) in outputs.iter().enumerate() {
                candidates.push((
                    dcs_state::OutPoint { tx: tx.id(), index: i as u32 },
                    out.value,
                ));
            }
            txs.push(tx);
        }
        let mut body = vec![Transaction::Coinbase {
            to: Address::from_index(999),
            value: 50,
            height: 1,
        }];
        body.extend(txs);
        let block = Block::new(
            BlockHeader::new(Hash256::ZERO, 1, 1, Address::from_index(999), Seal::None),
            body,
        );

        let machine = |serial| {
            let mut m = UtxoMachine::with_alloc(&alloc);
            m.serial_apply = serial;
            m
        };
        let mut serial = machine(true);
        let mut batched = machine(false);
        let root_before = serial.state_root();
        prop_assert_eq!(root_before, batched.state_root());

        let serial_result = serial.apply_block(&block);
        let batched_result = batched.apply_block(&block);
        match (serial_result, batched_result) {
            (Ok((sr, su)), Ok((br, bu))) => {
                prop_assert_eq!(sr, br);
                prop_assert_eq!(su.len(), bu.len());
                prop_assert_eq!(serial.state_root(), batched.state_root());
            }
            (s, b) => {
                prop_assert_eq!(s.err(), b.err());
                // Failed blocks leave both machines at the pre-block state.
                prop_assert_eq!(serial.state_root(), root_before);
                prop_assert_eq!(batched.state_root(), root_before);
            }
        }
    }
}

/// Sweeps the contract's whole balance to the caller: the first call in a
/// block prunes a funded sweeper's account record (balance and nonce 0).
const SWEEPER: &str = "caller\naddress\nbalance\ntransfer\nstop";

/// The premise of `account_revert_restores_pre_block_state`: a sweeper call
/// removes the contract's account record, and the revert brings it back.
#[test]
fn sweeper_call_prunes_the_contract_account() {
    let sweeper = Address::from_index(500);
    let caller = Address::from_index(1);
    let mut m = AccountMachine::with_alloc(&[(caller, 1_000)]);
    m.schedule = GasSchedule::free();
    m.db.set_code(
        &sweeper,
        dcs_contracts::assemble(SWEEPER).expect("assembles"),
    );
    m.db.credit(&sweeper, 300);
    m.db.clear_journal();
    let root_before = m.state_root();

    let mut tx = AccountTx::call(caller, sweeper, Vec::new(), 20, 0, 0);
    tx.gas_price = 0;
    let block = account_block(vec![Transaction::Account(tx)]);
    let (receipts, undo) = m.apply_block(&block).expect("block applies");
    assert!(
        receipts.iter().all(|r| r.status.is_success()),
        "{receipts:?}"
    );
    assert!(m.db.prove_account(&sweeper).is_none(), "record pruned");
    assert_eq!(m.db.balance(&caller), 1_300);

    m.revert_block(undo);
    assert_eq!(m.state_root(), root_before);
    assert_eq!(m.db.balance(&sweeper), 300);
}

proptest! {
    /// `revert_block` after a batched `apply_block` restores the exact
    /// pre-block state: root, balances, nonces and code. Blocks mix
    /// transfers between funded accounts, transfers that create fresh
    /// accounts (as does the coinbase), calls that prune funded sweeper
    /// contracts to zero, and failing transactions (stale nonces,
    /// overdrafts), with keys touched repeatedly.
    #[test]
    fn account_revert_restores_pre_block_state(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..ACCOUNTS, 0u64..12, 0u64..700, 0u64..3),
            0..40,
        ),
    ) {
        let sweepers = [Address::from_index(500), Address::from_index(501)];
        let code = dcs_contracts::assemble(SWEEPER).expect("sweeper assembles");
        let alloc: Vec<(Address, u64)> =
            (0..ACCOUNTS).map(|i| (Address::from_index(i), 1_000)).collect();
        let mut m = AccountMachine::with_alloc(&alloc);
        m.schedule = GasSchedule::free();
        for s in &sweepers {
            m.db.set_code(s, code.clone());
            m.db.credit(s, 300);
        }
        m.db.clear_journal();

        let mut next_nonce = vec![0u64; ACCOUNTS as usize];
        let txs: Vec<Transaction> = ops
            .iter()
            .map(|(kind, from, to, amount, nonce_skew)| {
                let nonce = next_nonce[*from as usize] + nonce_skew.saturating_sub(1);
                if nonce == next_nonce[*from as usize] {
                    next_nonce[*from as usize] += 1;
                }
                let from = Address::from_index(*from);
                let mut tx = if *kind == 2 {
                    let sweeper = sweepers[(*to % 2) as usize];
                    AccountTx::call(from, sweeper, Vec::new(), *amount, nonce, 0)
                } else {
                    // Indices at or past ACCOUNTS are fresh accounts.
                    AccountTx::transfer(from, Address::from_index(*to), *amount, nonce)
                };
                tx.gas_limit = 0;
                tx.gas_price = 0;
                Transaction::Account(tx)
            })
            .collect();
        let block = account_block(txs);

        let watched: Vec<Address> = (0..12u64)
            .map(Address::from_index)
            .chain(sweepers)
            .chain([Address::from_index(999)])
            .collect();
        let snapshot = |m: &AccountMachine| -> Vec<(u64, u64, Option<Vec<u8>>)> {
            watched
                .iter()
                .map(|a| (m.db.balance(a), m.db.nonce(a), m.db.code(a).map(<[u8]>::to_vec)))
                .collect()
        };
        let root_before = m.state_root();
        let state_before = snapshot(&m);

        let (_, undo) = m.apply_block(&block).expect("unsigned account block applies");
        m.revert_block(undo);

        prop_assert_eq!(m.state_root(), root_before);
        prop_assert_eq!(snapshot(&m), state_before);
    }

    /// `AccountMachine::with_alloc` merges the allocation in one batch; it
    /// must equal crediting each entry serially, including addresses listed
    /// more than once, zero amounts, and credits that saturate.
    #[test]
    fn batched_alloc_matches_serial_credits(
        alloc in proptest::collection::vec(
            (0u64..40, prop_oneof![0u64..1_000, Just(u64::MAX / 2), Just(u64::MAX)]),
            0..120,
        ),
    ) {
        let alloc: Vec<(Address, u64)> =
            alloc.iter().map(|(i, v)| (Address::from_index(*i), *v)).collect();
        let batched = AccountMachine::with_alloc(&alloc);
        let mut serial = dcs_state::AccountDb::new();
        for (addr, amount) in &alloc {
            serial.credit(addr, *amount);
        }
        prop_assert_eq!(batched.state_root(), serial.root());
        prop_assert_eq!(batched.db.entry_count(), serial.entry_count());
        for i in 0..40u64 {
            let addr = Address::from_index(i);
            prop_assert_eq!(batched.db.balance(&addr), serial.balance(&addr));
        }
    }
}
