//! Known-answer state roots for block application and reorg undo: twenty
//! 26-transfer blocks on a 6,500-account genesis (the `pow_overload` shape),
//! then the last three reverted. The batched paths are proptested equal to
//! the serial ones; these roots, computed by the scalar per-write
//! implementation and frozen here, also catch an error both sides share.

use dcs_chain::StateMachine;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{AccountTx, Block, BlockHeader, Seal, Transaction};

const ACCOUNTS: u64 = 6_500;
const BLOCKS: u64 = 20;
const TRANSFERS: u64 = 26;

fn account(i: u64) -> Address {
    Address::from_index(1_000_000 + i)
}

/// Twenty blocks of default-gas transfers. Senders are distinct within a
/// block and recur every fifteen blocks (so nonces advance); the last
/// transfer of every block carries a bad nonce and fails.
fn blocks() -> Vec<Block> {
    let mut nonces = vec![0u64; ACCOUNTS as usize];
    let mut parent = Hash256::ZERO;
    (0..BLOCKS)
        .map(|b| {
            let proposer = Address::from_index(b % 4);
            let body = std::iter::once(Transaction::Coinbase {
                to: proposer,
                value: 50,
                height: b + 1,
            })
            .chain((0..TRANSFERS).map(|i| {
                let n = b * TRANSFERS + i;
                let from = (n % 390) * 7;
                let to = (b * 131 + i * 251) % ACCOUNTS;
                let mut nonce = nonces[from as usize];
                if i + 1 == TRANSFERS {
                    nonce += 5;
                } else {
                    nonces[from as usize] += 1;
                }
                let tx = AccountTx::transfer(account(from), account(to), 1 + n % 1_000, nonce);
                Transaction::Account(tx)
            }))
            .collect();
            let header = BlockHeader::new(parent, b + 1, (b + 1) * 1_000_000, proposer, Seal::None);
            let block = Block::new(header, body);
            parent = block.hash();
            block
        })
        .collect()
}

#[test]
fn known_answer_account_roots() {
    let alloc: Vec<(Address, u64)> = (0..ACCOUNTS).map(|i| (account(i), 1_000_000 + i)).collect();
    let mut m = AccountMachine::with_alloc(&alloc);
    assert_eq!(
        m.state_root().to_string(),
        "2b5d386fb5ef4b75c796ac0a30538c82b6265406b8bd98375d9ba9ef554893d6",
        "genesis root"
    );

    let mut roots = Vec::new();
    let mut undos = Vec::new();
    for block in &blocks() {
        let (receipts, undo) = m.apply_block(block).expect("valid block");
        assert_eq!(
            receipts.iter().filter(|r| r.status.is_success()).count(),
            26
        );
        roots.push(m.state_root());
        undos.push(undo);
    }
    assert_eq!(
        m.state_root().to_string(),
        "8ef463cc2b8dde0561c8f0a130068e17b79322b65ade05c7406b8e7ff17deb7a",
        "after 20 blocks"
    );

    for undo in undos.drain(17..).rev() {
        m.revert_block(undo);
    }
    assert_eq!(
        m.state_root().to_string(),
        "93b028efd6c0fd50b10e498f3b586e323b73e4aba6ea4bb323015aeef0cd6bc0",
        "after reverting 3"
    );
    assert_eq!(
        m.state_root(),
        roots[16],
        "reverting restores block 17's root"
    );
}
