//! The application state machines plugged under `dcs-chain`:
//! [`AccountMachine`] executes generation-2.0/3.0 blocks (account transfers,
//! deployments, contract calls with gas), and [`UtxoMachine`] executes
//! generation-1.0 blocks over the UTXO set. Both support exact reorg
//! rollback via undo logs.

use crate::exec::{execute_tx, prevalidate_witnesses, verify_witness, BlockCtx};
use dcs_chain::StateMachine;
use dcs_crypto::{Address, Hash256, VerifyPipeline};
use dcs_primitives::{Amount, Block, GasSchedule, Receipt, Transaction};
use dcs_state::{AccountDb, AccountUndo, UtxoSet, UtxoUndo};
use std::sync::Arc;

/// The account-model state machine (generations 2.0/3.0).
#[derive(Debug, Default)]
pub struct AccountMachine {
    /// The world state.
    pub db: AccountDb,
    /// Gas schedule applied to every transaction.
    pub schedule: GasSchedule,
    /// Whether witnesses are demanded and verified (block-invalidating).
    pub verify_signatures: bool,
    /// Apply blocks through the serial per-write trie path instead of the
    /// default batched overlay path. The two are bit-identical in roots,
    /// receipts, and errors; serial is kept for equivalence testing and
    /// bisection.
    pub serial_apply: bool,
    pipeline: Option<Arc<VerifyPipeline>>,
}

impl AccountMachine {
    /// An empty machine with the default gas schedule.
    pub fn new() -> Self {
        AccountMachine::default()
    }

    /// A machine with pre-funded genesis accounts (an address listed twice
    /// is credited twice), merged into the trie in one batch.
    pub fn with_alloc(alloc: &[(Address, Amount)]) -> Self {
        let mut m = AccountMachine::new();
        m.db.begin_batch();
        for (addr, amount) in alloc {
            m.db.credit(addr, *amount);
        }
        m.db.commit_batch();
        m.db.clear_journal();
        m
    }

    /// Routes witness verification through a shared verification pipeline:
    /// all witnesses of a block are batch-verified (in parallel, through the
    /// signature cache) before the serial execution loop. State transitions
    /// are unchanged — the pipeline accepts and rejects exactly the blocks
    /// the serial path does.
    pub fn with_pipeline(mut self, pipeline: Arc<VerifyPipeline>) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// The verification pipeline, if one is attached.
    pub fn pipeline(&self) -> Option<&Arc<VerifyPipeline>> {
        self.pipeline.as_ref()
    }
}

impl StateMachine for AccountMachine {
    type Undo = AccountUndo;

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, AccountUndo), String> {
        // Stateless prevalidation: batch-verify every witness up front so the
        // serial execution loop below never touches a signature.
        let prevalidated = match (self.verify_signatures, &self.pipeline) {
            (true, Some(pipeline)) => {
                prevalidate_witnesses(&block.txs, pipeline)?;
                true
            }
            _ => false,
        };
        let snapshot = self.db.snapshot();
        if !self.serial_apply {
            // Batched application: execution stages writes in an overlay and
            // one `MerkleMap::write_batch` pass merges them at commit, so
            // each touched trie branch rehashes once per block instead of
            // once per write. Roots, receipts, and errors are bit-identical
            // to the serial path.
            self.db.begin_batch();
            // Every sender and recipient is known up front: load their
            // records in one batched trie lookup.
            let parties = block.txs.iter().flat_map(|tx| match tx {
                Transaction::Coinbase { to, .. } => [Some(to), None],
                Transaction::Account(acct) => [Some(&acct.from), acct.to.as_ref()],
                Transaction::Utxo(_) => [None, None],
            });
            let proposer = std::iter::once(&block.header.proposer);
            self.db.preload_accounts(parties.flatten().chain(proposer));
        }
        let ctx = BlockCtx {
            proposer: block.header.proposer,
            timestamp_us: block.header.timestamp_us,
            height: block.header.height,
        };
        let ids = block.tx_ids();
        let mut receipts = Vec::with_capacity(block.txs.len());
        for (tx, id) in block.txs.iter().zip(ids) {
            match tx {
                Transaction::Coinbase { to, value, .. } => {
                    self.db.credit(to, *value);
                    receipts.push(Receipt::success(*id));
                }
                Transaction::Account(acct) => {
                    if self.verify_signatures && !prevalidated {
                        if let Err(e) = verify_witness(tx) {
                            self.db.rollback(snapshot);
                            self.db.abort_batch();
                            return Err(e);
                        }
                    }
                    receipts.push(execute_tx(&mut self.db, acct, *id, &ctx, &self.schedule));
                }
                Transaction::Utxo(_) => {
                    self.db.rollback(snapshot);
                    self.db.abort_batch();
                    return Err("UTXO transaction in an account-model ledger".into());
                }
            }
        }
        self.db.commit_batch();
        Ok((receipts, self.db.take_undo(snapshot)))
    }

    fn revert_block(&mut self, undo: AccountUndo) {
        self.db.apply_undo(undo);
    }

    fn state_root(&self) -> Hash256 {
        self.db.root()
    }
}

/// The UTXO-model state machine (generation 1.0).
#[derive(Debug, Default)]
pub struct UtxoMachine {
    /// The unspent-output set.
    pub set: UtxoSet,
    /// Apply blocks through the serial per-transaction path instead of the
    /// default batched one-sweep merge ([`UtxoSet::apply_batch`]). Both
    /// produce identical commitments, fees, undos, and errors.
    pub serial_apply: bool,
    pipeline: Option<Arc<VerifyPipeline>>,
}

impl UtxoMachine {
    /// An empty machine (witness verification off; see
    /// [`UtxoSet::with_witness_verification`] for the checked variant).
    pub fn new() -> Self {
        UtxoMachine::default()
    }

    /// A machine whose genesis state holds one output per `(owner, value)`.
    pub fn with_alloc(alloc: &[(Address, Amount)]) -> Self {
        let mut m = UtxoMachine::new();
        for (addr, value) in alloc {
            m.set.mint(*addr, *value);
        }
        m
    }

    /// A machine over `set` (typically
    /// [`UtxoSet::with_witness_verification`]).
    pub fn over(set: UtxoSet) -> Self {
        UtxoMachine {
            set,
            ..UtxoMachine::default()
        }
    }

    /// Routes witness verification through a shared verification pipeline:
    /// block signatures are batch-verified statelessly before the serial
    /// apply loop, which then skips per-input signature re-verification.
    /// Stateful checks (existence, ownership, balance) and state roots are
    /// unchanged for any thread count.
    pub fn with_pipeline(mut self, pipeline: Arc<VerifyPipeline>) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// The verification pipeline, if one is attached.
    pub fn pipeline(&self) -> Option<&Arc<VerifyPipeline>> {
        self.pipeline.as_ref()
    }
}

impl StateMachine for UtxoMachine {
    type Undo = Vec<UtxoUndo>;

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, Vec<UtxoUndo>), String> {
        // Phase 1 (stateless, parallel): batch-verify every witness
        // signature in the body through the pipeline. Existence/ownership/
        // balance checks cannot run here — an input may be created by an
        // earlier transaction of this very block — so they stay serial.
        let prevalidated = match &self.pipeline {
            Some(pipeline) if self.set.verifies_witnesses() => {
                UtxoSet::prevalidate_witnesses(&block.txs, pipeline).map_err(|e| e.to_string())?;
                true
            }
            _ => false,
        };
        // Phase 2 (stateful, deterministic): apply in block order.
        if !self.serial_apply {
            // Batched application: validate against the live set plus the
            // staged deltas, then merge everything in one sorted sweep. The
            // account-model guard runs first so the error surfaces exactly
            // as on the serial path (which never commits anything either).
            if block
                .txs
                .iter()
                .any(|tx| matches!(tx, Transaction::Account(_)))
            {
                return Err("account transaction in a UTXO ledger".into());
            }
            let applied = self
                .set
                .apply_batch(&block.txs, block.tx_ids(), !prevalidated)
                .map_err(|e| e.to_string())?;
            let mut undos = Vec::with_capacity(applied.len());
            let mut receipts = Vec::with_capacity(applied.len());
            for ((fee, undo), id) in applied.into_iter().zip(block.tx_ids()) {
                let mut r = Receipt::success(*id);
                r.fee_paid = fee;
                receipts.push(r);
                undos.push(undo);
            }
            return Ok((receipts, undos));
        }
        let mut undos = Vec::with_capacity(block.txs.len());
        let mut receipts = Vec::with_capacity(block.txs.len());
        for tx in &block.txs {
            if matches!(tx, Transaction::Account(_)) {
                for undo in undos.into_iter().rev() {
                    self.set.revert(undo);
                }
                return Err("account transaction in a UTXO ledger".into());
            }
            let applied = if prevalidated {
                self.set.apply_prevalidated(tx)
            } else {
                self.set.apply(tx)
            };
            match applied {
                Ok((fee, undo)) => {
                    undos.push(undo);
                    let mut r = Receipt::success(tx.id());
                    r.fee_paid = fee;
                    receipts.push(r);
                }
                Err(e) => {
                    for undo in undos.into_iter().rev() {
                        self.set.revert(undo);
                    }
                    return Err(e.to_string());
                }
            }
        }
        Ok((receipts, undos))
    }

    fn revert_block(&mut self, undos: Vec<UtxoUndo>) {
        for undo in undos.into_iter().rev() {
            self.set.revert(undo);
        }
    }

    fn state_root(&self) -> Hash256 {
        self.set.commitment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_primitives::{AccountTx, BlockHeader, ChainConfig, Seal, TxIn, TxOut, UtxoTx};

    fn block_with(parent: Hash256, height: u64, txs: Vec<Transaction>) -> Block {
        Block::new(
            BlockHeader::new(parent, height, height, Address::from_index(99), Seal::None),
            txs,
        )
    }

    #[test]
    fn account_machine_applies_and_reverts_exactly() {
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let mut m = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        let root0 = m.state_root();

        let txs = vec![
            Transaction::Coinbase {
                to: Address::from_index(99),
                value: 50,
                height: 1,
            },
            Transaction::Account(AccountTx::transfer(alice, bob, 500, 0)),
        ];
        let block = block_with(Hash256::ZERO, 1, txs);
        let (receipts, undo) = m.apply_block(&block).unwrap();
        assert_eq!(receipts.len(), 2);
        assert!(receipts.iter().all(|r| r.status.is_success()));
        assert_eq!(m.db.balance(&bob), 500);
        let root1 = m.state_root();
        assert_ne!(root0, root1);

        m.revert_block(undo);
        assert_eq!(m.state_root(), root0);
        assert_eq!(m.db.balance(&bob), 0);
        assert_eq!(m.db.nonce(&alice), 0);
    }

    #[test]
    fn account_machine_rejects_utxo_tx() {
        let mut m = AccountMachine::new();
        let block = block_with(
            Hash256::ZERO,
            1,
            vec![Transaction::Utxo(UtxoTx {
                inputs: vec![],
                outputs: vec![],
            })],
        );
        let root = m.state_root();
        assert!(m.apply_block(&block).is_err());
        assert_eq!(m.state_root(), root, "failed apply leaves no residue");
    }

    #[test]
    fn account_machine_enforces_witnesses_when_asked() {
        let alice = Address::from_index(1);
        let mut m = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        m.verify_signatures = true;
        let block = block_with(
            Hash256::ZERO,
            1,
            vec![Transaction::Account(AccountTx::transfer(
                alice,
                Address::from_index(2),
                1,
                0,
            ))],
        );
        let err = m.apply_block(&block).unwrap_err();
        assert!(err.contains("witness"), "{err}");
    }

    #[test]
    fn failed_tx_gets_failed_receipt_but_block_applies() {
        let alice = Address::from_index(1);
        let mut m = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        let txs = vec![
            // Wrong nonce: soft failure.
            Transaction::Account(AccountTx::transfer(alice, Address::from_index(2), 1, 7)),
            // Correct one succeeds.
            Transaction::Account(AccountTx::transfer(alice, Address::from_index(2), 1, 0)),
        ];
        let block = block_with(Hash256::ZERO, 1, txs);
        let (receipts, _) = m.apply_block(&block).unwrap();
        assert!(!receipts[0].status.is_success());
        assert!(receipts[1].status.is_success());
    }

    #[test]
    fn utxo_machine_round_trip() {
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let mut m = UtxoMachine::with_alloc(&[(alice, 100)]);
        let root0 = m.state_root();
        let op = m.set.outpoints_of(&alice)[0];

        let spend = Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 90,
                recipient: bob,
            }],
        });
        let block = block_with(Hash256::ZERO, 1, vec![spend]);
        let (receipts, undo) = m.apply_block(&block).unwrap();
        assert_eq!(receipts[0].fee_paid, 10);
        assert_eq!(m.set.balance_of(&bob), 90);

        m.revert_block(undo);
        assert_eq!(m.state_root(), root0);
        assert_eq!(m.set.balance_of(&alice), 100);
    }

    #[test]
    fn utxo_machine_atomic_on_midblock_failure() {
        let alice = Address::from_index(1);
        let mut m = UtxoMachine::with_alloc(&[(alice, 100)]);
        let root0 = m.state_root();
        let op = m.set.outpoints_of(&alice)[0];
        let good = Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: alice,
            }],
        });
        // Double spend of the same outpoint: invalid.
        let bad = Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: alice,
            }],
        });
        let block = block_with(Hash256::ZERO, 1, vec![good, bad]);
        assert!(m.apply_block(&block).is_err());
        assert_eq!(m.state_root(), root0, "partial application rolled back");
    }

    #[test]
    fn pipelined_utxo_machine_matches_serial_state_root() {
        use dcs_primitives::TxAuth;
        let mut kp = dcs_crypto::KeyPair::generate([11u8; 32], 3);
        let addr = kp.address();

        // Two machines over identical witness-verifying genesis states.
        let mut genesis = UtxoSet::with_witness_verification();
        let op = genesis.mint(addr, 100);
        let mut serial = UtxoMachine::over(genesis.clone());
        let pipeline = Arc::new(VerifyPipeline::new(4, 1024));
        let mut piped = UtxoMachine::over(genesis).with_pipeline(Arc::clone(&pipeline));

        // A block of chained signed self-transfers (mid-block dependencies).
        let mut prev = op;
        let mut txs = Vec::new();
        for _ in 0..4 {
            let mut utx = UtxoTx {
                inputs: vec![TxIn {
                    prev_tx: prev.tx,
                    index: prev.index,
                    auth: None,
                }],
                outputs: vec![TxOut {
                    value: 100,
                    recipient: addr,
                }],
            };
            let signing = Transaction::Utxo(utx.clone()).signing_hash();
            let sig = kp.sign(&signing).unwrap();
            utx.inputs[0].auth = Some(TxAuth {
                pubkey: kp.public_key(),
                signature: sig,
            });
            let tx = Transaction::Utxo(utx);
            prev = dcs_state::OutPoint {
                tx: tx.id(),
                index: 0,
            };
            txs.push(tx);
        }
        let block = block_with(Hash256::ZERO, 1, txs);

        let (r_serial, _) = serial.apply_block(&block).unwrap();
        let (r_piped, _) = piped.apply_block(&block).unwrap();
        assert_eq!(
            serial.state_root(),
            piped.state_root(),
            "roots must be bit-identical"
        );
        assert_eq!(
            r_serial.iter().map(|r| r.fee_paid).collect::<Vec<_>>(),
            r_piped.iter().map(|r| r.fee_paid).collect::<Vec<_>>()
        );
        let stats = pipeline.stats();
        assert_eq!(
            stats.cache.unwrap().misses,
            4,
            "all four signatures verified once"
        );
    }

    #[test]
    fn pipelined_utxo_machine_rejects_forged_witness_atomically() {
        use dcs_primitives::TxAuth;
        let mut kp = dcs_crypto::KeyPair::generate([12u8; 32], 2);
        let addr = kp.address();
        let mut set = UtxoSet::with_witness_verification();
        let op = set.mint(addr, 100);
        let mut m = UtxoMachine::over(set).with_pipeline(Arc::new(VerifyPipeline::new(2, 64)));
        let root0 = m.state_root();

        let mut utx = UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: addr,
            }],
        };
        let forged = kp.sign(&dcs_crypto::sha256(b"different message")).unwrap();
        utx.inputs[0].auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: forged,
        });
        let block = block_with(Hash256::ZERO, 1, vec![Transaction::Utxo(utx)]);
        let err = m.apply_block(&block).unwrap_err();
        assert!(err.contains("bad witness"), "{err}");
        assert_eq!(
            m.state_root(),
            root0,
            "prevalidation failure leaves no residue"
        );
    }

    #[test]
    fn pipelined_account_machine_matches_serial() {
        use dcs_primitives::TxAuth;
        let mut kp = dcs_crypto::KeyPair::generate([13u8; 32], 2);
        let alice = kp.address();
        let bob = Address::from_index(2);

        let sign = |mut acct: AccountTx, kp: &mut dcs_crypto::KeyPair| {
            let signing = Transaction::Account(acct.clone()).signing_hash();
            let sig = kp.sign(&signing).unwrap();
            acct.auth = Some(TxAuth {
                pubkey: kp.public_key(),
                signature: sig,
            });
            Transaction::Account(acct)
        };
        let tx0 = sign(AccountTx::transfer(alice, bob, 500, 0), &mut kp);
        let tx1 = sign(AccountTx::transfer(alice, bob, 300, 1), &mut kp);
        let block = block_with(Hash256::ZERO, 1, vec![tx0, tx1]);

        let mut serial = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        serial.verify_signatures = true;
        let pipeline = Arc::new(VerifyPipeline::new(4, 1024));
        let mut piped =
            AccountMachine::with_alloc(&[(alice, 1_000_000)]).with_pipeline(Arc::clone(&pipeline));
        piped.verify_signatures = true;

        serial.apply_block(&block).unwrap();
        piped.apply_block(&block).unwrap();
        assert_eq!(serial.state_root(), piped.state_root());
        assert_eq!(piped.db.balance(&bob), 800);
        assert_eq!(pipeline.stats().cache.unwrap().misses, 2);

        // An unsigned tx still invalidates the block through the pipeline.
        let unsigned = block_with(
            Hash256::ZERO,
            2,
            vec![Transaction::Account(AccountTx::transfer(alice, bob, 1, 2))],
        );
        let err = piped.apply_block(&unsigned).unwrap_err();
        assert!(err.contains("witness"), "{err}");
    }

    #[test]
    fn chain_integration_reorg_preserves_account_state() {
        // Full integration: Chain<AccountMachine> survives a reorg with
        // exact state restoration.
        use dcs_chain::Chain;
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let carol = Address::from_index(3);
        let cfg = ChainConfig::hyperledger_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let machine = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        let mut chain = Chain::new(genesis.clone(), cfg, machine);

        // Branch A: pay bob.
        let a1 = block_with(
            genesis.hash(),
            1,
            vec![Transaction::Account(AccountTx::transfer(
                alice, bob, 100, 0,
            ))],
        );
        chain.import(a1).unwrap();
        assert_eq!(chain.machine().db.balance(&bob), 100);

        // Branch B (longer): pay carol instead.
        let b1 = block_with(
            genesis.hash(),
            1,
            vec![Transaction::Account(AccountTx::transfer(
                alice, carol, 200, 0,
            ))],
        );
        let b2 = block_with(b1.hash(), 2, vec![]);
        chain.import(b1).unwrap();
        chain.import(b2).unwrap();

        // After the reorg, bob's payment is gone, carol's applied.
        assert_eq!(chain.machine().db.balance(&bob), 0);
        assert_eq!(chain.machine().db.balance(&carol), 200);
        assert_eq!(chain.stats().reorgs, 1);
    }
}
