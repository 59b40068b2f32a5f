//! Known-answer roots for the batched trie path. The equivalence proptests
//! compare `write_batch` against serial `insert`/`remove`; a hashing kernel
//! wrong in the same way on both sides would pass them. These roots were
//! computed by the scalar per-branch implementation and are frozen here.

use dcs_state::MerkleMap;

const BASE_ENTRIES: u32 = 5_000;

fn base_map() -> MerkleMap {
    let mut m = MerkleMap::new();
    m.write_batch(
        (0..BASE_ENTRIES)
            .map(|i| {
                let key = format!("account-{i}").into_bytes();
                (key, Some(i.to_le_bytes().repeat(3)))
            })
            .collect(),
    );
    m
}

/// 400 writes: removals of present and absent keys, updates, fresh
/// inserts, and fresh keys written three times (last write wins).
fn mixed_batch() -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    (0..400u32)
        .map(|j| {
            let (key, value) = match j % 5 {
                0 => (format!("account-{}", j * 37 % BASE_ENTRIES), None),
                1 => (
                    format!("account-{}", j * 13 % BASE_ENTRIES),
                    Some(j.to_be_bytes().to_vec()),
                ),
                2 => (
                    format!("fresh-{}", j % 160),
                    Some(vec![j as u8; 1 + j as usize % 40]),
                ),
                3 => (format!("never-{j}"), None),
                _ => (
                    format!("account-{}", j * 7 % BASE_ENTRIES),
                    Some(format!("updated-{j}").into_bytes()),
                ),
            };
            (key.into_bytes(), value)
        })
        .collect()
}

#[test]
fn known_answer_trie_roots() {
    let mut m = base_map();
    assert_eq!(m.len(), 5_000);
    assert_eq!(
        m.root().to_string(),
        "f27410548e4471472a8198181e57064e70c0896c96b90ff86ff65d4338c86ff2",
        "root of the 5,000-entry map"
    );
    m.write_batch(mixed_batch());
    assert_eq!(m.len(), 4_952);
    assert_eq!(
        m.root().to_string(),
        "5ac0a7869ab7f539625c332e55af1615318ca688abffc85f21a6766194acb906",
        "root after the mixed batch"
    );
}
