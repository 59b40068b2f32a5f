//! A canonical binary Merkle trie: an authenticated key→value map whose root
//! hash is a pure function of its contents (independent of insertion order),
//! with `O(log n)` inclusion proofs.
//!
//! Keys are routed by the bits of their SHA-256, so the trie is balanced in
//! expectation without rotations. The structure is kept canonical — every
//! branch has at least two leaves below it, and removals collapse chains — so
//! two maps with equal contents always have equal roots, which is what makes
//! the root usable as the header `state_root`.

use dcs_crypto::codec::{Decode, DecodeError, Encode, Reader};
use dcs_crypto::{sha256, Hash256, MultiHasher, Sha256};
use serde::{Deserialize, Serialize};

/// Domain byte of a leaf hash, `sha256(0x10 ‖ key hash ‖ sha256(value))`.
const LEAF_TAG: u8 = 0x10;
/// Domain byte of a branch hash, `sha256(0x11 ‖ left ‖ right)`.
const BRANCH_TAG: u8 = 0x11;

fn leaf_hash(key_hash: &Hash256, value: &[u8]) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(&[LEAF_TAG]);
    ctx.update(key_hash.as_ref());
    ctx.update(sha256(value).as_ref());
    ctx.finalize()
}

fn branch_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(&[BRANCH_TAG]);
    ctx.update(left.as_ref());
    ctx.update(right.as_ref());
    ctx.finalize()
}

/// Extracts bit `i` (0 = most significant) of a key hash.
fn bit(h: &Hash256, i: usize) -> bool {
    (h.as_bytes()[i / 8] >> (7 - i % 8)) & 1 == 1
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        key_hash: Hash256,
        key: Vec<u8>,
        value: Vec<u8>,
        hash: Hash256,
    },
    Branch {
        left: Option<Box<Node>>,
        right: Option<Box<Node>>,
        hash: Hash256,
    },
}

/// One pending write in a [`MerkleMap::write_batch`] call, routed by the
/// precomputed hash of its key.
struct BatchEntry {
    kh: Hash256,
    key: Vec<u8>,
    /// `Some` = insert/replace, `None` = remove.
    value: Option<Vec<u8>>,
    /// The leaf hash of `(kh, value)`, computed up front on lanes
    /// ([`Hash256::ZERO`] for a removal).
    hash: Hash256,
}

/// A child's hash as its stale parent sees it during a batch merge: already
/// known, or the output of an earlier entry of the [`Rehash`] plan.
#[derive(Debug, Clone, Copy)]
enum ChildHash {
    Known(Hash256),
    Stale(usize),
}

/// A branch whose hash the structural merge left stale.
#[derive(Debug)]
struct StaleBranch {
    left: ChildHash,
    right: ChildHash,
    /// 0 when both children are known, else one more than the round of
    /// the later stale child: every branch of round `r` depends only on
    /// rounds below `r`.
    round: usize,
}

/// The branches a batch merge left stale, in post-order (every branch after
/// the stale branches below it).
#[derive(Debug, Default)]
struct Rehash {
    stale: Vec<StaleBranch>,
}

impl Rehash {
    /// Records a branch over `left` and `right` as stale.
    fn push(&mut self, left: ChildHash, right: ChildHash) -> ChildHash {
        let round = [left, right]
            .into_iter()
            .filter_map(|c| match c {
                ChildHash::Stale(i) => Some(self.stale[i].round + 1),
                ChildHash::Known(_) => None,
            })
            .max()
            .unwrap_or(0);
        self.stale.push(StaleBranch { left, right, round });
        ChildHash::Stale(self.stale.len() - 1)
    }

    /// Computes every stale branch hash, one round at a time and eight
    /// `0x11 ‖ left ‖ right` messages per wide compression. Rounds are
    /// dependency levels counted from the bottom, so every stale branch just
    /// above the leaves lands in round 0 whatever its depth, and lanes stay
    /// full wherever the batch touched at least eight branches at once.
    fn hashes(&self) -> Vec<Hash256> {
        let mut out = vec![Hash256::ZERO; self.stale.len()];
        let mut order: Vec<usize> = (0..self.stale.len()).collect();
        order.sort_by_key(|&i| self.stale[i].round);
        let hasher = MultiHasher::wide();
        let mut pairs = Vec::new();
        let mut digests = Vec::new();
        for round in order.chunk_by(|&a, &b| self.stale[a].round == self.stale[b].round) {
            pairs.clear();
            for &i in round {
                for child in [self.stale[i].left, self.stale[i].right] {
                    pairs.push(match child {
                        ChildHash::Known(h) => h,
                        ChildHash::Stale(j) => out[j],
                    });
                }
            }
            digests.clear();
            hasher.hash_pairs_into(BRANCH_TAG, &pairs, &mut digests);
            for (&i, digest) in round.iter().zip(&digests) {
                out[i] = *digest;
            }
        }
        out
    }

    /// Writes `hashes` back into the stale branch `node` (plan entry `i`)
    /// and every stale branch below it.
    fn fill(&self, node: &mut Node, i: usize, hashes: &[Hash256]) {
        if let Node::Branch { left, right, hash } = node {
            *hash = hashes[i];
            for (child, link) in [(left, self.stale[i].left), (right, self.stale[i].right)] {
                if let ChildHash::Stale(j) = link {
                    let child = child.as_deref_mut().expect("a stale child is a branch");
                    self.fill(child, j, hashes);
                }
            }
        }
    }
}

impl Node {
    fn hash(&self) -> Hash256 {
        match self {
            Node::Leaf { hash, .. } | Node::Branch { hash, .. } => *hash,
        }
    }

    fn child_hash(child: &Option<Box<Node>>) -> Hash256 {
        child.as_ref().map_or(Hash256::ZERO, |n| n.hash())
    }

    fn rehash(&mut self) {
        if let Node::Branch { left, right, hash } = self {
            *hash = branch_hash(&Self::child_hash(left), &Self::child_hash(right));
        }
    }
}

/// An authenticated map with a Merkle root and inclusion proofs.
///
/// # Examples
///
/// ```
/// use dcs_state::MerkleMap;
///
/// let mut m = MerkleMap::new();
/// m.insert(b"k".to_vec(), b"v1".to_vec());
/// let r1 = m.root();
/// m.insert(b"k".to_vec(), b"v2".to_vec());
/// assert_ne!(m.root(), r1);
/// assert_eq!(m.get(b"k"), Some(&b"v2"[..]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MerkleMap {
    root: Option<Box<Node>>,
    len: usize,
}

impl MerkleMap {
    /// Creates an empty map (root = [`Hash256::ZERO`]).
    pub fn new() -> Self {
        MerkleMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root digest committing to the full contents.
    pub fn root(&self) -> Hash256 {
        Node::child_hash(&self.root)
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let mut node = self.root.as_deref()?;
        let kh = sha256(key);
        let mut depth = 0;
        loop {
            match node {
                Node::Leaf {
                    key_hash, value, ..
                } => {
                    return (*key_hash == kh).then_some(value.as_slice());
                }
                Node::Branch { left, right, .. } => {
                    let child = if bit(&kh, depth) { right } else { left };
                    node = child.as_deref()?;
                    depth += 1;
                }
            }
        }
    }

    /// Looks up every key in `keys`, returning the values in input order.
    /// Equivalent to [`MerkleMap::get`] per key, but the key hashes are
    /// computed eight per wide compression and all lookups descend the trie
    /// together, one level per pass, so their cache misses overlap instead
    /// of queueing one walk behind another.
    pub fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<&[u8]>> {
        let mut out = vec![None; keys.len()];
        let Some(root) = self.root.as_deref() else {
            return out;
        };
        let hashes = MultiHasher::wide().hash_many(keys);
        let mut walks: Vec<(usize, &Node)> = (0..keys.len()).map(|i| (i, root)).collect();
        let mut depth = 0;
        while !walks.is_empty() {
            walks.retain_mut(|(i, node)| match node {
                Node::Leaf {
                    key_hash, value, ..
                } => {
                    if *key_hash == hashes[*i] {
                        out[*i] = Some(value.as_slice());
                    }
                    false
                }
                Node::Branch { left, right, .. } => {
                    let child = if bit(&hashes[*i], depth) { right } else { left };
                    match child.as_deref() {
                        Some(child) => {
                            *node = child;
                            true
                        }
                        None => false,
                    }
                }
            });
            depth += 1;
        }
        out
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        let kh = sha256(&key);
        let (node, old) = Self::insert_at(self.root.take(), kh, key, value, 0);
        self.root = Some(node);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_at(
        node: Option<Box<Node>>,
        kh: Hash256,
        key: Vec<u8>,
        value: Vec<u8>,
        depth: usize,
    ) -> (Box<Node>, Option<Vec<u8>>) {
        match node {
            None => {
                let hash = leaf_hash(&kh, &value);
                (
                    Box::new(Node::Leaf {
                        key_hash: kh,
                        key,
                        value,
                        hash,
                    }),
                    None,
                )
            }
            Some(mut boxed) => match &mut *boxed {
                Node::Leaf {
                    key_hash,
                    value: old_value,
                    hash,
                    ..
                } if *key_hash == kh => {
                    let old = std::mem::replace(old_value, value);
                    *hash = leaf_hash(&kh, old_value);
                    (boxed, Some(old))
                }
                Node::Leaf { key_hash, .. } => {
                    // Split: push the existing leaf down until the paths of
                    // the two key hashes diverge.
                    let existing_bit = bit(key_hash, depth);
                    let new_bit = bit(&kh, depth);
                    let mut branch = Node::Branch {
                        left: None,
                        right: None,
                        hash: Hash256::ZERO,
                    };
                    if existing_bit == new_bit {
                        let (child, _) = Self::insert_at(Some(boxed), kh, key, value, depth + 1);
                        if let Node::Branch { left, right, .. } = &mut branch {
                            *(if new_bit { right } else { left }) = Some(child);
                        }
                    } else if let Node::Branch { left, right, .. } = &mut branch {
                        let new_hash = leaf_hash(&kh, &value);
                        let new_leaf = Box::new(Node::Leaf {
                            key_hash: kh,
                            key,
                            value,
                            hash: new_hash,
                        });
                        if new_bit {
                            *right = Some(new_leaf);
                            *left = Some(boxed);
                        } else {
                            *left = Some(new_leaf);
                            *right = Some(boxed);
                        }
                    }
                    branch.rehash();
                    (Box::new(branch), None)
                }
                Node::Branch { left, right, .. } => {
                    let slot = if bit(&kh, depth) { right } else { left };
                    let (child, old) = Self::insert_at(slot.take(), kh, key, value, depth + 1);
                    *slot = Some(child);
                    boxed.rehash();
                    (boxed, old)
                }
            },
        }
    }

    /// Removes `key`, returning its value if present. Collapses now-unary
    /// branches to keep the structure (and root) canonical.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let kh = sha256(key);
        let (node, old) = Self::remove_at(self.root.take(), &kh, 0);
        self.root = node;
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn remove_at(
        node: Option<Box<Node>>,
        kh: &Hash256,
        depth: usize,
    ) -> (Option<Box<Node>>, Option<Vec<u8>>) {
        match node {
            None => (None, None),
            Some(mut boxed) => match &mut *boxed {
                Node::Leaf { key_hash, .. } => {
                    if key_hash == kh {
                        if let Node::Leaf { value, .. } = *boxed {
                            (None, Some(value))
                        } else {
                            unreachable!("matched leaf above")
                        }
                    } else {
                        (Some(boxed), None)
                    }
                }
                Node::Branch { left, right, .. } => {
                    let go_right = bit(kh, depth);
                    let slot = if go_right { &mut *right } else { &mut *left };
                    let (child, old) = Self::remove_at(slot.take(), kh, depth + 1);
                    *slot = child;
                    if old.is_none() {
                        return (Some(boxed), None);
                    }
                    // Canonicalize: a branch left with a single *leaf* child
                    // collapses to that leaf (the leaf rises to the
                    // shallowest depth where its path is unique). A single
                    // *branch* child stays put — its subtree's leaves still
                    // diverge at their original depths, so the unary chain
                    // above them is part of the canonical shape.
                    let lone_leaf = match (&left, &right) {
                        (Some(l), None) if matches!(&**l, Node::Leaf { .. }) => left.take(),
                        (None, Some(r)) if matches!(&**r, Node::Leaf { .. }) => right.take(),
                        _ => None,
                    };
                    if let Some(leaf) = lone_leaf {
                        return (Some(leaf), old);
                    }
                    boxed.rehash();
                    (Some(boxed), old)
                }
            },
        }
    }

    /// Applies a whole batch of writes (`Some` = insert/replace, `None` =
    /// remove) in one trie pass. Later writes to the same key override
    /// earlier ones, exactly as serial application would. Because the trie
    /// is content-addressed, the resulting root is bit-identical to
    /// replaying the batch through [`MerkleMap::insert`] /
    /// [`MerkleMap::remove`] in order.
    ///
    /// The pass runs in three steps. Key hashes and the leaf hashes of every
    /// written value are computed up front, eight messages per wide
    /// compression. The structural merge then routes the sorted entries
    /// down the trie and records every branch it touches or creates as
    /// stale, in post-order. Finally the stale branches are rehashed in
    /// dependency rounds, bottom first, eight per wide compression, and the
    /// digests written back; the serial path instead rehashes the full root
    /// path once per write. No hash is stale when the call returns.
    pub fn write_batch(&mut self, entries: Vec<(Vec<u8>, Option<Vec<u8>>)>) {
        if entries.is_empty() {
            return;
        }
        let mut items = Self::prepare(entries);
        let mut plan = Rehash::default();
        let (node, delta, top) = Self::merge_at(self.root.take(), &mut items, 0, &mut plan);
        self.root = node;
        self.len = self.len.checked_add_signed(delta).expect("len underflow");
        if let (ChildHash::Stale(i), Some(root)) = (top, self.root.as_deref_mut()) {
            plan.fill(root, i, &plan.hashes());
        }
    }

    /// Hashes the keys, sorts the entries by routing path, keeps the last
    /// write per key, and computes the leaf hash of every surviving insert.
    fn prepare(entries: Vec<(Vec<u8>, Option<Vec<u8>>)>) -> Vec<Option<BatchEntry>> {
        let hasher = MultiHasher::wide();
        let key_refs: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        let hashes = hasher.hash_many(&key_refs);
        let mut items: Vec<BatchEntry> = entries
            .into_iter()
            .zip(hashes)
            .map(|((key, value), kh)| BatchEntry {
                kh,
                key,
                value,
                hash: Hash256::ZERO,
            })
            .collect();
        // Byte order of the key hash IS the routing path order (MSB-first
        // bits), so one sort gives every recursion level its partition.
        // The sort is stable: later writes to the same key stay later.
        items.sort_by(|a, b| a.kh.as_ref().cmp(b.kh.as_ref()));
        let mut deduped: Vec<BatchEntry> = Vec::with_capacity(items.len());
        for e in items {
            match deduped.last_mut() {
                Some(last) if last.kh == e.kh => *last = e, // last write wins
                _ => deduped.push(e),
            }
        }
        let values: Vec<&[u8]> = deduped.iter().filter_map(|e| e.value.as_deref()).collect();
        let value_hashes = hasher.hash_many(&values);
        let mut pairs = Vec::with_capacity(2 * values.len());
        let live = deduped.iter().filter(|e| e.value.is_some());
        for (e, vh) in live.zip(value_hashes) {
            pairs.extend([e.kh, vh]);
        }
        let mut leaf_hashes = Vec::with_capacity(values.len());
        hasher.hash_pairs_into(LEAF_TAG, &pairs, &mut leaf_hashes);
        let mut leaf_hashes = leaf_hashes.into_iter();
        for e in deduped.iter_mut().filter(|e| e.value.is_some()) {
            e.hash = leaf_hashes.next().expect("one leaf hash per insert");
        }
        deduped.into_iter().map(Some).collect()
    }

    /// The structural half of [`MerkleMap::write_batch`]: merges the sorted
    /// entries into the subtree at `node`, recording every branch it leaves
    /// stale in `plan`. Returns the new subtree, its change in live leaves,
    /// and its hash as the parent will see it.
    fn merge_at(
        node: Option<Box<Node>>,
        items: &mut [Option<BatchEntry>],
        depth: usize,
        plan: &mut Rehash,
    ) -> (Option<Box<Node>>, isize, ChildHash) {
        if items.is_empty() {
            let hash = ChildHash::Known(Node::child_hash(&node));
            return (node, 0, hash);
        }
        match node {
            None => Self::build_from_items(items, depth, plan),
            Some(mut boxed) => match &mut *boxed {
                Node::Leaf {
                    key_hash,
                    value,
                    hash,
                    ..
                } => {
                    let single = items.len() == 1
                        && items[0].as_ref().expect("unconsumed entry").kh == *key_hash;
                    if single {
                        // Only this key is written: update or delete in
                        // place, no structural change elsewhere.
                        let e = items[0].take().expect("unconsumed entry");
                        return match e.value {
                            Some(v) => {
                                *value = v;
                                *hash = e.hash;
                                (Some(boxed), 0, ChildHash::Known(e.hash))
                            }
                            None => (None, -1, ChildHash::Known(Hash256::ZERO)),
                        };
                    }
                    // Fold the existing leaf into the (sorted) item set and
                    // rebuild this subtree in one pass.
                    let leaf = match *boxed {
                        Node::Leaf {
                            key_hash,
                            key,
                            value,
                            hash,
                        } => BatchEntry {
                            kh: key_hash,
                            key,
                            value: Some(value),
                            hash,
                        },
                        Node::Branch { .. } => unreachable!("matched leaf above"),
                    };
                    let mut merged: Vec<Option<BatchEntry>> = Vec::with_capacity(items.len() + 1);
                    let mut leaf = Some(leaf);
                    for e in items.iter_mut() {
                        let entry = e.take().expect("unconsumed entry");
                        if let Some(l) = &leaf {
                            if entry.kh.as_ref() >= l.kh.as_ref() {
                                let l = leaf.take().expect("checked above");
                                // On an exact match the batch entry overrides
                                // the old leaf, which is simply dropped.
                                if entry.kh != l.kh {
                                    merged.push(Some(l));
                                }
                            }
                        }
                        merged.push(Some(entry));
                    }
                    if let Some(l) = leaf {
                        merged.push(Some(l));
                    }
                    let (subtree, added, hash) = Self::build_from_items(&mut merged, depth, plan);
                    // Exactly one pre-existing leaf was consumed by this
                    // rebuild (folded back in or overridden), so the live
                    // count of the new subtree overstates the delta by one.
                    (subtree, added - 1, hash)
                }
                Node::Branch { left, right, .. } => {
                    let split = items.partition_point(|e| {
                        !bit(&e.as_ref().expect("unconsumed entry").kh, depth)
                    });
                    let (l_items, r_items) = items.split_at_mut(split);
                    let (l, dl, lh) = Self::merge_at(left.take(), l_items, depth + 1, plan);
                    let (r, dr, rh) = Self::merge_at(right.take(), r_items, depth + 1, plan);
                    *left = l;
                    *right = r;
                    // Canonicalize exactly as `remove_at` does: a lone leaf
                    // rises, an empty branch vanishes, a lone branch child
                    // stays (its leaves still diverge deeper down).
                    let lone_leaf = match (&left, &right) {
                        (None, None) => return (None, dl + dr, ChildHash::Known(Hash256::ZERO)),
                        (Some(l), None) if matches!(&**l, Node::Leaf { .. }) => left.take(),
                        (None, Some(r)) if matches!(&**r, Node::Leaf { .. }) => right.take(),
                        _ => None,
                    };
                    if let Some(leaf) = lone_leaf {
                        let hash = ChildHash::Known(leaf.hash());
                        return (Some(leaf), dl + dr, hash);
                    }
                    (Some(boxed), dl + dr, plan.push(lh, rh))
                }
            },
        }
    }

    /// Builds a canonical subtree from sorted batch entries (removals of
    /// absent keys are no-ops), recording its branches in `plan`. Returns
    /// the subtree, the number of live leaves created, and its hash.
    fn build_from_items(
        items: &mut [Option<BatchEntry>],
        depth: usize,
        plan: &mut Rehash,
    ) -> (Option<Box<Node>>, isize, ChildHash) {
        let live = items
            .iter()
            .filter(|e| e.as_ref().is_some_and(|p| p.value.is_some()))
            .count();
        match live {
            0 => {
                for e in items.iter_mut() {
                    e.take();
                }
                (None, 0, ChildHash::Known(Hash256::ZERO))
            }
            1 => {
                let e = items
                    .iter_mut()
                    .filter_map(|e| e.take())
                    .find(|e| e.value.is_some())
                    .expect("one live entry");
                let leaf = Node::Leaf {
                    key_hash: e.kh,
                    key: e.key,
                    value: e.value.expect("live entry has a value"),
                    hash: e.hash,
                };
                (Some(Box::new(leaf)), 1, ChildHash::Known(e.hash))
            }
            _ => {
                let split = items
                    .partition_point(|e| !bit(&e.as_ref().expect("unconsumed entry").kh, depth));
                let (l_items, r_items) = items.split_at_mut(split);
                let (left, dl, lh) = Self::build_from_items(l_items, depth + 1, plan);
                let (right, dr, rh) = Self::build_from_items(r_items, depth + 1, plan);
                let branch = Node::Branch {
                    left,
                    right,
                    hash: Hash256::ZERO,
                };
                (Some(Box::new(branch)), dl + dr, plan.push(lh, rh))
            }
        }
    }

    /// Produces an inclusion proof for `key`, or `None` if absent.
    pub fn prove(&self, key: &[u8]) -> Option<MapProof> {
        let kh = sha256(key);
        let mut node = self.root.as_deref()?;
        let mut depth = 0;
        let mut siblings = Vec::new();
        loop {
            match node {
                Node::Leaf {
                    key_hash, value, ..
                } => {
                    if *key_hash != kh {
                        return None;
                    }
                    siblings.reverse(); // leaf-upward order for verification
                    return Some(MapProof {
                        key: key.to_vec(),
                        value: value.clone(),
                        siblings,
                    });
                }
                Node::Branch { left, right, .. } => {
                    let (child, sibling) = if bit(&kh, depth) {
                        (right, Node::child_hash(left))
                    } else {
                        (left, Node::child_hash(right))
                    };
                    siblings.push(sibling);
                    node = child.as_deref()?;
                    depth += 1;
                }
            }
        }
    }

    /// Iterates over all `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut stack: Vec<&Node> = Vec::new();
        if let Some(root) = self.root.as_deref() {
            stack.push(root);
        }
        std::iter::from_fn(move || loop {
            let node = stack.pop()?;
            match node {
                Node::Leaf { key, value, .. } => return Some((key.as_slice(), value.as_slice())),
                Node::Branch { left, right, .. } => {
                    if let Some(l) = left.as_deref() {
                        stack.push(l);
                    }
                    if let Some(r) = right.as_deref() {
                        stack.push(r);
                    }
                }
            }
        })
    }
}

impl FromIterator<(Vec<u8>, Vec<u8>)> for MerkleMap {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>>(iter: I) -> Self {
        let mut m = MerkleMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// An inclusion proof binding a key/value pair to a [`MerkleMap`] root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapProof {
    key: Vec<u8>,
    value: Vec<u8>,
    /// Sibling hashes from the leaf's parent up to the root.
    siblings: Vec<Hash256>,
}

impl MapProof {
    /// The proven key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The proven value.
    pub fn value(&self) -> &[u8] {
        &self.value
    }

    /// Encoded byte length (for E10 download-size accounting).
    pub fn encoded_len(&self) -> usize {
        self.encoded().len()
    }

    /// Verifies the proof against a state root.
    pub fn verify(&self, root: &Hash256) -> bool {
        let kh = sha256(&self.key);
        let mut acc = leaf_hash(&kh, &self.value);
        let depth = self.siblings.len();
        for (i, sibling) in self.siblings.iter().enumerate() {
            // Sibling i sits at depth (depth - 1 - i); the key's bit at that
            // depth decides which side our accumulator is on.
            let d = depth - 1 - i;
            acc = if bit(&kh, d) {
                branch_hash(sibling, &acc)
            } else {
                branch_hash(&acc, sibling)
            };
        }
        acc == *root
    }
}

impl Encode for MapProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.value.encode(out);
        self.siblings.encode(out);
    }
}

impl Decode for MapProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MapProof {
            key: Vec::decode(r)?,
            value: Vec::decode(r)?,
            siblings: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn empty_map() {
        let m = MerkleMap::new();
        assert_eq!(m.root(), Hash256::ZERO);
        assert!(m.is_empty());
        assert_eq!(m.get(b"missing"), None);
        assert!(m.prove(b"missing").is_none());
    }

    #[test]
    fn insert_get_update_remove() {
        let mut m = MerkleMap::new();
        assert_eq!(m.insert(b"a".to_vec(), b"1".to_vec()), None);
        assert_eq!(m.insert(b"a".to_vec(), b"2".to_vec()), Some(b"1".to_vec()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"a"), Some(&b"2"[..]));
        assert_eq!(m.remove(b"a"), Some(b"2".to_vec()));
        assert_eq!(m.remove(b"a"), None);
        assert!(m.is_empty());
        assert_eq!(m.root(), Hash256::ZERO);
    }

    #[test]
    fn root_is_content_addressed_not_order_addressed() {
        let pairs: Vec<_> = (0..50).map(kv).collect();
        let forward: MerkleMap = pairs.clone().into_iter().collect();
        let backward: MerkleMap = pairs.clone().into_iter().rev().collect();
        assert_eq!(forward.root(), backward.root());

        // Insert-then-remove returns to the same root.
        let mut m: MerkleMap = pairs.clone().into_iter().collect();
        let base = m.root();
        m.insert(b"extra".to_vec(), b"x".to_vec());
        assert_ne!(m.root(), base);
        m.remove(b"extra");
        assert_eq!(m.root(), base);
    }

    #[test]
    fn roots_differ_for_different_contents() {
        let a: MerkleMap = (0..10).map(kv).collect();
        let mut b: MerkleMap = (0..10).map(kv).collect();
        b.insert(b"key-3".to_vec(), b"tampered".to_vec());
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn proofs_verify_and_bind() {
        let m: MerkleMap = (0..100).map(kv).collect();
        let root = m.root();
        for i in (0..100).step_by(7) {
            let (k, v) = kv(i);
            let p = m.prove(&k).expect("present key");
            assert_eq!(p.key(), &k[..]);
            assert_eq!(p.value(), &v[..]);
            assert!(p.verify(&root));
            assert!(!p.verify(&sha256(b"wrong root")));
        }
    }

    #[test]
    fn tampered_proof_fails() {
        let m: MerkleMap = (0..20).map(kv).collect();
        let (k, _) = kv(5);
        let root = m.root();
        let mut p = m.prove(&k).unwrap();
        p.value = b"forged".to_vec();
        assert!(!p.verify(&root));
        let mut p2 = m.prove(&k).unwrap();
        if !p2.siblings.is_empty() {
            p2.siblings[0] = sha256(b"forged sibling");
            assert!(!p2.verify(&root));
        }
    }

    #[test]
    fn iter_visits_everything_once() {
        let m: MerkleMap = (0..37).map(kv).collect();
        let mut keys: Vec<Vec<u8>> = m.iter().map(|(k, _)| k.to_vec()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 37);
        assert_eq!(m.len(), 37);
    }

    #[test]
    fn removal_collapses_to_canonical_structure() {
        // Build {a}, then {a,b}, then remove b: root must equal the {a} root.
        let mut only_a = MerkleMap::new();
        only_a.insert(b"a".to_vec(), b"1".to_vec());
        let root_a = only_a.root();

        let mut m = MerkleMap::new();
        m.insert(b"a".to_vec(), b"1".to_vec());
        for i in 0..20 {
            let (k, v) = kv(i);
            m.insert(k, v);
        }
        for i in 0..20 {
            let (k, _) = kv(i);
            m.remove(&k);
        }
        assert_eq!(m.root(), root_a);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn write_batch_builds_same_root_as_serial_inserts() {
        let pairs: Vec<_> = (0..200).map(kv).collect();
        let serial: MerkleMap = pairs.clone().into_iter().collect();
        let mut batched = MerkleMap::new();
        batched.write_batch(pairs.into_iter().map(|(k, v)| (k, Some(v))).collect());
        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.len(), serial.len());
    }

    #[test]
    fn write_batch_mixed_ops_match_serial_replay() {
        // Start both maps from the same populated base.
        let base: Vec<_> = (0..100).map(kv).collect();
        let mut serial: MerkleMap = base.clone().into_iter().collect();
        let mut batched = serial.clone();

        // Updates, fresh inserts, removes of present and absent keys, and
        // conflicting writes to the same key inside one batch.
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = vec![
            (b"key-3".to_vec(), Some(b"updated".to_vec())),
            (b"brand-new".to_vec(), Some(b"n1".to_vec())),
            (b"key-7".to_vec(), None),
            (b"never-existed".to_vec(), None),
            (b"brand-new".to_vec(), Some(b"n2".to_vec())), // overrides n1
            (b"key-11".to_vec(), Some(b"x".to_vec())),
            (b"key-11".to_vec(), None), // insert then remove, same batch
            (b"only-removed".to_vec(), None),
            (b"key-42".to_vec(), Some(b"f1".to_vec())),
            (b"key-42".to_vec(), Some(b"f2".to_vec())),
            (b"key-42".to_vec(), Some(b"f3".to_vec())), // last write wins
        ];
        for (k, v) in ops.clone() {
            match v {
                Some(v) => {
                    serial.insert(k, v);
                }
                None => {
                    serial.remove(&k);
                }
            }
        }
        batched.write_batch(ops);
        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.len(), serial.len());
        assert_eq!(batched.get(b"brand-new"), Some(&b"n2"[..]));
        assert_eq!(batched.get(b"key-42"), Some(&b"f3"[..]));
        assert_eq!(batched.get(b"key-11"), None);
    }

    #[test]
    fn write_batch_removals_collapse_to_canonical_shape() {
        let mut m: MerkleMap = (0..50).map(kv).collect();
        m.insert(b"survivor".to_vec(), b"s".to_vec());
        m.write_batch((0..50).map(|i| (kv(i).0, None)).collect());
        let mut expect = MerkleMap::new();
        expect.insert(b"survivor".to_vec(), b"s".to_vec());
        assert_eq!(m.root(), expect.root());
        assert_eq!(m.len(), 1);

        // Proofs still verify against the collapsed structure.
        let p = m.prove(b"survivor").unwrap();
        assert!(p.verify(&m.root()));
    }

    #[test]
    fn write_batch_chunked_matches_one_shot() {
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..120)
            .map(|i| {
                let (k, v) = kv(i % 80); // plenty of key collisions
                if i % 7 == 3 {
                    (k, None)
                } else {
                    (k, Some(v))
                }
            })
            .collect();
        let mut one_shot = MerkleMap::new();
        one_shot.write_batch(ops.clone());
        let mut chunked = MerkleMap::new();
        for chunk in ops.chunks(13) {
            chunked.write_batch(chunk.to_vec());
        }
        assert_eq!(one_shot.root(), chunked.root());
        assert_eq!(one_shot.len(), chunked.len());
    }

    #[test]
    fn rehash_rounds_cover_every_lane_fill() {
        // A batch of the shape the scale proptest draws must rehash rounds
        // of 1, 2-3, 4-7 and at least 8 stale branches, so that every lane
        // fill of the pair kernel and its narrow fallbacks is exercised.
        let mut m: MerkleMap = (0..3_000).map(kv).collect();
        let batch: Vec<_> = (0..150u32)
            .map(|i| {
                let (k, v) = kv(i * 41 % 4_000);
                (k, (i % 4 != 0).then_some(v))
            })
            .collect();
        let mut items = MerkleMap::prepare(batch);
        let mut plan = Rehash::default();
        MerkleMap::merge_at(m.root.take(), &mut items, 0, &mut plan);
        let rounds = plan.stale.iter().map(|b| b.round + 1).max().unwrap_or(0);
        let mut sizes = vec![0usize; rounds];
        for b in &plan.stale {
            sizes[b.round] += 1;
        }
        for fill in [1..=1, 2..=3, 4..=7, 8..=usize::MAX] {
            assert!(
                sizes.iter().any(|n| fill.contains(n)),
                "{fill:?} in {sizes:?}"
            );
        }
    }

    #[test]
    fn write_batch_leaves_no_stale_hash() {
        // Every branch hash after a batch equals its recomputation from the
        // children, all the way down.
        fn check(node: &Node) -> Hash256 {
            match node {
                Node::Leaf {
                    key_hash,
                    value,
                    hash,
                    ..
                } => {
                    assert_eq!(*hash, leaf_hash(key_hash, value));
                    *hash
                }
                Node::Branch { left, right, hash } => {
                    let l = left.as_deref().map_or(Hash256::ZERO, check);
                    let r = right.as_deref().map_or(Hash256::ZERO, check);
                    assert_eq!(*hash, branch_hash(&l, &r));
                    *hash
                }
            }
        }
        let mut m: MerkleMap = (0..1_000).map(kv).collect();
        m.write_batch(
            (500..1_300)
                .map(|i| {
                    let (k, v) = kv(i);
                    (k, (i % 3 != 0).then_some(v))
                })
                .collect(),
        );
        check(m.root.as_deref().expect("non-empty map"));
    }

    #[test]
    fn get_many_matches_get() {
        let m: MerkleMap = (0..500).map(kv).collect();
        let keys: Vec<Vec<u8>> = (400..700).chain(0..3).map(|i| kv(i).0).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = m.get_many(&refs);
        assert_eq!(got.len(), keys.len());
        for (k, v) in keys.iter().zip(&got) {
            assert_eq!(*v, m.get(k), "{k:?}");
        }
        assert_eq!(MerkleMap::new().get_many(&refs), vec![None; refs.len()]);
    }

    #[test]
    fn proof_codec_round_trip() {
        let m: MerkleMap = (0..10).map(kv).collect();
        let (k, _) = kv(4);
        let p = m.prove(&k).unwrap();
        let d = dcs_crypto::codec::decode_all::<MapProof>(&p.encoded()).unwrap();
        assert_eq!(d, p);
        assert!(d.verify(&m.root()));
    }

    #[test]
    fn large_map_stays_logarithmic() {
        let m: MerkleMap = (0..2000).map(kv).collect();
        let (k, _) = kv(1234);
        let p = m.prove(&k).unwrap();
        // Expected depth ~ log2(2000) ≈ 11; allow generous slack.
        assert!(p.siblings.len() < 40, "depth {}", p.siblings.len());
    }
}
