//! The generation-2.0/3.0 state machine substrate: accounts with balances
//! and nonces, contract code, and per-contract storage, all stored in one
//! authenticated [`MerkleMap`] so a single `state_root` commits to
//! everything. Every mutation is journaled, giving transaction-level revert
//! (failed contract calls) and block-level undo (reorgs) for free.

use crate::merkle_map::MerkleMap;
use crate::StateError;
use dcs_crypto::codec::{decode_all, Decode, DecodeError, Encode, Reader};
use dcs_crypto::{Address, Hash256};
use dcs_primitives::Amount;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The balance/nonce record of one account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Account {
    /// Spendable balance.
    pub balance: Amount,
    /// Number of transactions sent (replay protection).
    pub nonce: u64,
}

impl Encode for Account {
    fn encode(&self, out: &mut Vec<u8>) {
        self.balance.encode(out);
        self.nonce.encode(out);
    }
}

impl Decode for Account {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Account {
            balance: Amount::decode(r)?,
            nonce: u64::decode(r)?,
        })
    }
}

const TAG_ACCOUNT: u8 = 0x00;
const TAG_STORAGE: u8 = 0x01;
const TAG_CODE: u8 = 0x02;

fn account_key(addr: &Address) -> Vec<u8> {
    let mut k = vec![TAG_ACCOUNT];
    k.extend_from_slice(addr.as_bytes());
    k
}

fn storage_key(addr: &Address, slot: &Hash256) -> Vec<u8> {
    let mut k = vec![TAG_STORAGE];
    k.extend_from_slice(addr.as_bytes());
    k.extend_from_slice(slot.as_ref());
    k
}

fn code_key(addr: &Address) -> Vec<u8> {
    let mut k = vec![TAG_CODE];
    k.extend_from_slice(addr.as_bytes());
    k
}

/// Decodes a stored account record (zero balance/nonce if absent).
fn decode_account(bytes: Option<&[u8]>) -> Account {
    bytes
        .and_then(|bytes| decode_all::<Account>(bytes).ok())
        .unwrap_or_default()
}

/// A block-level undo record extracted from the journal.
#[derive(Debug, Clone, Default)]
pub struct AccountUndo {
    entries: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

/// The account database.
///
/// # Examples
///
/// ```
/// use dcs_state::AccountDb;
/// use dcs_crypto::Address;
///
/// let mut db = AccountDb::new();
/// let alice = Address::from_index(1);
/// db.credit(&alice, 100);
/// let snap = db.snapshot();
/// db.debit(&alice, 30).unwrap();
/// db.rollback(snap); // failed tx: balance restored
/// assert_eq!(db.balance(&alice), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccountDb {
    map: MerkleMap,
    journal: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    /// Batched-application overlay (`Some` while a batch is open): every
    /// key the batch has loaded or written, with its trie value and its
    /// staged value. Changed keys are merged into the trie in one
    /// [`MerkleMap::write_batch`] pass at [`AccountDb::commit_batch`] time.
    /// Reads always consult the overlay first, so execution sees exactly the
    /// state the serial path would.
    overlay: Option<BTreeMap<Vec<u8>, Staged>>,
}

/// One key of an open write batch.
#[derive(Debug, Clone)]
struct Staged {
    /// The trie's value when the batch first loaded the key.
    base: Option<Vec<u8>>,
    /// The value execution sees now.
    value: Option<Vec<u8>>,
}

impl Staged {
    /// A key just loaded from the trie, not yet written.
    fn loaded(base: Option<Vec<u8>>) -> Self {
        Staged {
            value: base.clone(),
            base,
        }
    }
}

impl AccountDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        AccountDb::default()
    }

    /// The authenticated state root.
    pub fn root(&self) -> Hash256 {
        self.map.root()
    }

    /// Number of underlying map entries (accounts + slots + code blobs).
    pub fn entry_count(&self) -> usize {
        self.map.len()
    }

    /// Produces a Merkle inclusion proof for an account record, verifiable
    /// against [`AccountDb::root`] — how a light client checks a balance.
    pub fn prove_account(&self, addr: &Address) -> Option<crate::merkle_map::MapProof> {
        self.map.prove(&account_key(addr))
    }

    /// Opens a write batch: subsequent mutations are staged in an overlay
    /// instead of touching the trie, and [`AccountDb::commit_batch`] merges
    /// them in one [`MerkleMap::write_batch`] pass with a single root path
    /// rehash per touched branch. Journal semantics (snapshot / rollback /
    /// take_undo) are unchanged — mid-batch transaction failures revert
    /// exactly as on the serial path. No-op if a batch is already open.
    pub fn begin_batch(&mut self) {
        self.overlay.get_or_insert_with(BTreeMap::new);
    }

    /// Merges all staged writes into the trie in one pass and closes the
    /// batch. The resulting root is bit-identical to applying the same
    /// mutations serially. No-op when no batch is open.
    pub fn commit_batch(&mut self) {
        if let Some(overlay) = self.overlay.take() {
            // Keys that were only read, or whose writes a rollback undid,
            // are left out: rewriting a value leaves the root unchanged.
            self.map.write_batch(
                overlay
                    .into_iter()
                    .filter(|(_, s)| s.value != s.base)
                    .map(|(key, s)| (key, s.value))
                    .collect(),
            );
        }
    }

    /// Discards the overlay and closes the batch. The caller must already
    /// have rolled the journal back to the pre-batch snapshot — after such a
    /// rollback the overlay holds only writes restoring pre-batch values, so
    /// dropping it is equivalent to committing it. No-op outside a batch.
    pub fn abort_batch(&mut self) {
        self.overlay = None;
    }

    /// True while a write batch is open.
    pub fn is_batching(&self) -> bool {
        self.overlay.is_some()
    }

    fn raw_get(&self, key: &[u8]) -> Option<&[u8]> {
        if let Some(overlay) = &self.overlay {
            if let Some(staged) = overlay.get(key) {
                return staged.value.as_deref();
            }
        }
        self.map.get(key)
    }

    /// The overlay slot for `key`, loading the trie's value on first touch
    /// so the batch reads each key from the trie at most once.
    fn staged<'a>(
        map: &MerkleMap,
        overlay: &'a mut BTreeMap<Vec<u8>, Staged>,
        key: &[u8],
    ) -> &'a mut Staged {
        if !overlay.contains_key(key) {
            let base = map.get(key).map(<[u8]>::to_vec);
            overlay.insert(key.to_vec(), Staged::loaded(base));
        }
        overlay.get_mut(key).expect("inserted above")
    }

    fn raw_set(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        let old = match &mut self.overlay {
            // The overlay-visible previous value: an earlier staged write,
            // or (first touch in this batch) the trie's value.
            Some(overlay) => {
                std::mem::replace(&mut Self::staged(&self.map, overlay, &key).value, value)
            }
            None => match &value {
                Some(v) => self.map.insert(key.clone(), v.clone()),
                None => self.map.remove(&key),
            },
        };
        self.journal.push((key, old));
    }

    /// Reads an account record (zero balance/nonce if absent).
    pub fn account(&self, addr: &Address) -> Account {
        decode_account(self.raw_get(&account_key(addr)))
    }

    /// Loads the records of `addrs` into the open write batch with one
    /// [`MerkleMap::get_many`] lookup, so the batch's later reads and writes
    /// of these accounts never walk the trie. A block's senders and
    /// recipients are known before it executes; loading them together
    /// overlaps the walks. No-op outside a batch.
    pub fn preload_accounts<'a>(&mut self, addrs: impl IntoIterator<Item = &'a Address>) {
        let Some(overlay) = &mut self.overlay else {
            return;
        };
        let mut addrs: Vec<&Address> = addrs.into_iter().collect();
        addrs.sort_unstable();
        addrs.dedup();
        let keys: Vec<Vec<u8>> = addrs
            .into_iter()
            .map(account_key)
            .filter(|k| !overlay.contains_key(k))
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let values: Vec<Option<Vec<u8>>> = self
            .map
            .get_many(&refs)
            .into_iter()
            .map(|v| v.map(<[u8]>::to_vec))
            .collect();
        for (key, base) in keys.into_iter().zip(values) {
            overlay.insert(key, Staged::loaded(base));
        }
    }

    /// Reads an account record like [`AccountDb::account`]. Inside a write
    /// batch the record is loaded into the overlay, so later reads and
    /// writes of the same account in the batch do not walk the trie again.
    pub fn load_account(&mut self, addr: &Address) -> Account {
        let key = account_key(addr);
        decode_account(match &mut self.overlay {
            Some(overlay) => Self::staged(&self.map, overlay, &key).value.as_deref(),
            None => self.map.get(&key),
        })
    }

    /// The account's balance.
    pub fn balance(&self, addr: &Address) -> Amount {
        self.account(addr).balance
    }

    /// The account's nonce.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.account(addr).nonce
    }

    fn put_account(&mut self, addr: &Address, acct: Account) {
        if acct == Account::default() {
            self.raw_set(account_key(addr), None);
        } else {
            self.raw_set(account_key(addr), Some(acct.encoded()));
        }
    }

    /// Adds `value` to the account's balance.
    pub fn credit(&mut self, addr: &Address, value: Amount) {
        let mut acct = self.load_account(addr);
        acct.balance = acct.balance.saturating_add(value);
        self.put_account(addr, acct);
    }

    /// Subtracts `value` from the account's balance.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if the balance is too small; the
    /// state is unchanged.
    pub fn debit(&mut self, addr: &Address, value: Amount) -> Result<(), StateError> {
        let mut acct = self.load_account(addr);
        if acct.balance < value {
            return Err(StateError::InsufficientBalance {
                have: u128::from(acct.balance),
                need: u128::from(value),
            });
        }
        acct.balance -= value;
        self.put_account(addr, acct);
        Ok(())
    }

    /// Moves value between accounts atomically.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if `from` cannot cover `value`.
    pub fn transfer(
        &mut self,
        from: &Address,
        to: &Address,
        value: Amount,
    ) -> Result<(), StateError> {
        self.debit(from, value)?;
        self.credit(to, value);
        Ok(())
    }

    /// Increments the account nonce, returning the pre-increment value.
    pub fn bump_nonce(&mut self, addr: &Address) -> u64 {
        let mut acct = self.load_account(addr);
        let old = acct.nonce;
        acct.nonce += 1;
        self.put_account(addr, acct);
        old
    }

    /// The contract code stored at `addr`, if any.
    pub fn code(&self, addr: &Address) -> Option<&[u8]> {
        self.raw_get(&code_key(addr))
    }

    /// Installs contract code at `addr`.
    pub fn set_code(&mut self, addr: &Address, code: Vec<u8>) {
        self.raw_set(code_key(addr), Some(code));
    }

    /// Reads a contract storage slot.
    pub fn storage(&self, addr: &Address, slot: &Hash256) -> Option<&[u8]> {
        self.raw_get(&storage_key(addr, slot))
    }

    /// Writes (or clears, with `None`) a contract storage slot.
    pub fn set_storage(&mut self, addr: &Address, slot: &Hash256, value: Option<Vec<u8>>) {
        self.raw_set(storage_key(addr, slot), value);
    }

    /// Marks the current journal position; pass to [`AccountDb::rollback`]
    /// to revert everything after it (failed-transaction semantics).
    pub fn snapshot(&self) -> usize {
        self.journal.len()
    }

    /// Reverts all mutations made since `snapshot`.
    pub fn rollback(&mut self, snapshot: usize) {
        while self.journal.len() > snapshot {
            let (key, old) = self.journal.pop().expect("journal longer than snapshot");
            if let Some(overlay) = &mut self.overlay {
                // Inside a batch the journal records overlay-visible old
                // values, so restoring is a staged write; a key restored to
                // its trie value drops out of the commit-time merge.
                Self::staged(&self.map, overlay, &key).value = old;
                continue;
            }
            match old {
                Some(v) => {
                    self.map.insert(key, v);
                }
                None => {
                    self.map.remove(&key);
                }
            }
        }
    }

    /// Extracts the journal since `snapshot` as a block-level [`AccountUndo`]
    /// and clears it from the live journal (the block is now "applied").
    pub fn take_undo(&mut self, snapshot: usize) -> AccountUndo {
        AccountUndo {
            entries: self.journal.split_off(snapshot),
        }
    }

    /// Applies a block-level undo record, reversing an applied block, in one
    /// [`MerkleMap::write_batch`] pass. The journal is fed in reverse, so for
    /// a key written several times the last write of the batch — the
    /// journal's oldest entry — wins and restores the pre-block value.
    pub fn apply_undo(&mut self, undo: AccountUndo) {
        self.map
            .write_batch(undo.entries.into_iter().rev().collect());
    }

    /// Drops journal history (e.g. after finality): saves memory, forfeits
    /// rollback past this point.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn credit_debit_transfer() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 100);
        assert_eq!(db.balance(&addr(1)), 100);
        db.transfer(&addr(1), &addr(2), 40).unwrap();
        assert_eq!(db.balance(&addr(1)), 60);
        assert_eq!(db.balance(&addr(2)), 40);
        assert!(matches!(
            db.debit(&addr(2), 41),
            Err(StateError::InsufficientBalance { have: 40, need: 41 })
        ));
        assert_eq!(
            db.balance(&addr(2)),
            40,
            "failed debit must not change state"
        );
    }

    #[test]
    fn nonce_bumps() {
        let mut db = AccountDb::new();
        assert_eq!(db.nonce(&addr(1)), 0);
        assert_eq!(db.bump_nonce(&addr(1)), 0);
        assert_eq!(db.bump_nonce(&addr(1)), 1);
        assert_eq!(db.nonce(&addr(1)), 2);
    }

    #[test]
    fn root_reflects_content_and_reverts_cleanly() {
        let mut db = AccountDb::new();
        let empty_root = db.root();
        db.credit(&addr(1), 10);
        let r1 = db.root();
        assert_ne!(r1, empty_root);

        let snap = db.snapshot();
        db.credit(&addr(2), 20);
        db.set_storage(&addr(1), &dcs_crypto::sha256(b"slot"), Some(vec![1]));
        assert_ne!(db.root(), r1);
        db.rollback(snap);
        assert_eq!(db.root(), r1);
        assert_eq!(db.balance(&addr(2)), 0);
    }

    #[test]
    fn zero_account_is_pruned_from_map() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 10);
        db.debit(&addr(1), 10).unwrap();
        // Balance and nonce both zero → record removed → root returns to empty.
        assert_eq!(db.root(), Hash256::ZERO);
    }

    #[test]
    fn code_and_storage() {
        let mut db = AccountDb::new();
        let c = addr(7);
        db.set_code(&c, vec![0xde, 0xad]);
        assert_eq!(db.code(&c), Some(&[0xde, 0xad][..]));
        let slot = dcs_crypto::sha256(b"greeting");
        db.set_storage(&c, &slot, Some(b"hello".to_vec()));
        assert_eq!(db.storage(&c, &slot), Some(&b"hello"[..]));
        db.set_storage(&c, &slot, None);
        assert_eq!(db.storage(&c, &slot), None);
    }

    #[test]
    fn block_undo_round_trip() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 100);
        db.clear_journal();
        let before = db.root();

        let snap = db.snapshot();
        db.transfer(&addr(1), &addr(2), 30).unwrap();
        db.bump_nonce(&addr(1));
        let undo = db.take_undo(snap);
        let after = db.root();
        assert_ne!(before, after);

        db.apply_undo(undo);
        assert_eq!(db.root(), before);
        assert_eq!(db.balance(&addr(1)), 100);
        assert_eq!(db.nonce(&addr(1)), 0);
    }

    #[test]
    fn nested_snapshots() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 100);
        let outer = db.snapshot();
        db.debit(&addr(1), 10).unwrap();
        let inner = db.snapshot();
        db.debit(&addr(1), 20).unwrap();
        db.rollback(inner); // inner tx failed
        assert_eq!(db.balance(&addr(1)), 90);
        db.rollback(outer); // whole block rolled back
        assert_eq!(db.balance(&addr(1)), 100);
    }

    #[test]
    fn account_proof_verifies_against_root() {
        let mut db = AccountDb::new();
        for i in 0..20 {
            db.credit(&addr(i), 10 * (i + 1));
        }
        let root = db.root();
        let proof = db.prove_account(&addr(3)).expect("account exists");
        assert!(proof.verify(&root));
        let acct = decode_all::<Account>(proof.value()).unwrap();
        assert_eq!(acct.balance, 40);
        assert!(db.prove_account(&addr(999)).is_none());
    }

    #[test]
    fn saturating_credit_does_not_wrap() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), Amount::MAX);
        db.credit(&addr(1), 5);
        assert_eq!(db.balance(&addr(1)), Amount::MAX);
    }

    fn seeded(n: u64) -> AccountDb {
        let mut db = AccountDb::new();
        for i in 0..n {
            db.credit(&addr(i), 100 * (i + 1));
        }
        db.clear_journal();
        db
    }

    #[test]
    fn batched_application_matches_serial_root() {
        let mut serial = seeded(10);
        let mut batched = seeded(10);

        batched.begin_batch();
        for db in [&mut serial, &mut batched] {
            db.transfer(&addr(1), &addr(2), 30).unwrap();
            db.bump_nonce(&addr(1));
            db.transfer(&addr(2), &addr(3), 5).unwrap();
            db.set_code(&addr(7), vec![1, 2, 3]);
            db.set_storage(&addr(7), &dcs_crypto::sha256(b"s"), Some(vec![9]));
            // Reads mid-batch must see staged writes.
            assert_eq!(db.balance(&addr(2)), 100 * 3 + 30 - 5);
            // Prune an account to zero (a staged remove).
            let b = db.balance(&addr(4));
            db.debit(&addr(4), b).unwrap();
        }
        batched.commit_batch();

        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.entry_count(), serial.entry_count());
    }

    #[test]
    fn mid_batch_rollback_matches_serial_failed_tx() {
        let mut serial = seeded(5);
        let mut batched = seeded(5);

        batched.begin_batch();
        for db in [&mut serial, &mut batched] {
            db.transfer(&addr(1), &addr(2), 10).unwrap(); // good tx
            let snap = db.snapshot();
            db.transfer(&addr(2), &addr(3), 50).unwrap(); // tx that will fail…
            db.bump_nonce(&addr(2));
            db.rollback(snap); // …and be reverted
            db.transfer(&addr(3), &addr(4), 7).unwrap(); // good tx after revert
        }
        batched.commit_batch();

        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.balance(&addr(2)), serial.balance(&addr(2)));
        assert_eq!(batched.nonce(&addr(2)), 0);
    }

    #[test]
    fn rolled_back_batch_abort_restores_pre_batch_root() {
        let mut db = seeded(5);
        let before = db.root();
        let snap = db.snapshot();
        db.begin_batch();
        db.transfer(&addr(1), &addr(2), 10).unwrap();
        db.bump_nonce(&addr(3));
        db.rollback(snap);
        db.abort_batch();
        assert_eq!(db.root(), before);
        assert!(!db.is_batching());
    }

    #[test]
    fn preloaded_batch_matches_serial_root() {
        let mut serial = seeded(10);
        let mut batched = seeded(10);
        batched.begin_batch();
        // Present, absent and repeated accounts.
        batched.preload_accounts(&[addr(1), addr(2), addr(42), addr(1)]);
        assert_eq!(batched.balance(&addr(2)), 300);
        for db in [&mut serial, &mut batched] {
            db.transfer(&addr(1), &addr(42), 30).unwrap();
            db.bump_nonce(&addr(1));
        }
        batched.commit_batch();
        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.entry_count(), serial.entry_count());
    }

    #[test]
    fn batch_undo_round_trip_reverses_committed_block() {
        let mut db = seeded(5);
        let before = db.root();
        let snap = db.snapshot();
        db.begin_batch();
        db.transfer(&addr(1), &addr(2), 30).unwrap();
        db.bump_nonce(&addr(1));
        db.commit_batch();
        let undo = db.take_undo(snap);
        assert_ne!(db.root(), before);
        db.apply_undo(undo);
        assert_eq!(db.root(), before);
    }
}
