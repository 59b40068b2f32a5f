//! Property-based tests for the cryptographic substrate: codec round-trips,
//! Merkle proof soundness/completeness, streaming-hash equivalence, and
//! signature correctness over arbitrary inputs.

use dcs_crypto::codec::{decode_all, Encode};
use dcs_crypto::{sha256, Hash256, KeyPair, MerkleProof, MerkleTree, PublicKey, Sha256, Signature};
use proptest::prelude::*;

/// A height-2 public key that garbage signatures are verified against.
fn fixed_key() -> PublicKey {
    decode_all::<PublicKey>(&(sha256(b"fixed key"), 2u8).encoded()).expect("root and height")
}

proptest! {
    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut ctx = Sha256::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_is_injective_in_practice(a in proptest::collection::vec(any::<u8>(), 0..64),
                                       b in proptest::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn codec_round_trips_vecs(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        prop_assert_eq!(decode_all::<Vec<u64>>(&v.encoded()).unwrap(), v);
    }

    #[test]
    fn codec_round_trips_strings(s in "\\PC{0,64}") {
        prop_assert_eq!(decode_all::<String>(&s.encoded()).unwrap(), s);
    }

    #[test]
    fn codec_round_trips_nested(v in proptest::collection::vec((any::<u32>(), "\\PC{0,16}"), 0..16)) {
        prop_assert_eq!(decode_all::<Vec<(u32, String)>>(&v.encoded()).unwrap(), v);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Totality: arbitrary input decodes or errors, never panics.
        let _ = decode_all::<Vec<String>>(&bytes);
        let _ = decode_all::<Hash256>(&bytes);
        let _ = decode_all::<MerkleProof>(&bytes);
        let _ = decode_all::<(u64, Option<bool>)>(&bytes);
        // A signature decoded from untrusted bytes is verified, not trusted:
        // whatever shape it decodes to, `verify` must return.
        if let Ok(sig) = decode_all::<Signature>(&bytes) {
            let _ = fixed_key().verify(&sha256(&bytes), &sig);
        }
    }

    #[test]
    fn verify_rejects_malformed_signatures(
        index in 0u32..8,
        chains in 0usize..80,
        auth in 0usize..4,
        fill in any::<u8>(),
    ) {
        // Garbage rarely decodes as a signature; build well-framed ones of
        // every chain count and path length. None is valid for the key.
        let mut bytes = Vec::new();
        index.encode(&mut bytes);
        let hashes = |n: usize, tag: u8| -> Vec<Hash256> {
            (0..n).map(|i| sha256(&[fill, tag, i as u8])).collect()
        };
        hashes(chains, 0).encode(&mut bytes);
        hashes(auth, 1).encode(&mut bytes);
        let sig = decode_all::<Signature>(&bytes).expect("well-framed");
        prop_assert!(!fixed_key().verify(&sha256(&[fill]), &sig));
    }

    #[test]
    fn merkle_proofs_complete_and_sound(n in 1usize..40, probe in 0usize..40) {
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256(&[i as u8])).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let root = tree.root();
        let idx = probe % n;
        // Completeness: every leaf proves.
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&leaves[idx], &root));
        // Soundness: the proof binds to its own leaf only.
        for (j, other) in leaves.iter().enumerate() {
            if j != idx {
                prop_assert!(!proof.verify(other, &root));
            }
        }
    }

    #[test]
    fn merkle_root_is_content_sensitive(n in 2usize..32, flip in 0usize..32) {
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256(&[i as u8])).collect();
        let mut tampered = leaves.clone();
        let i = flip % n;
        tampered[i] = sha256(b"tampered");
        prop_assert_ne!(
            MerkleTree::from_leaves(leaves).root(),
            MerkleTree::from_leaves(tampered).root()
        );
    }
}

proptest! {
    // Signatures are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn signatures_verify_and_bind(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut kp = KeyPair::generate(seed, 1);
        let digest = sha256(&msg);
        let sig = kp.sign(&digest).unwrap();
        prop_assert!(kp.public_key().verify(&digest, &sig));
        // Binding: a different message fails.
        let mut other = msg.clone();
        other[0] ^= 1;
        prop_assert!(!kp.public_key().verify(&sha256(&other), &sig));
    }

    /// The parallel executor is observationally equal to the serial
    /// `PublicKey::verify` loop over arbitrary mixes of valid signatures,
    /// wrong-message forgeries, and wrong-key forgeries — for every thread
    /// count, and through the caching pipeline on both cold and warm passes.
    #[test]
    fn verify_batch_equals_serial_loop(
        spec in proptest::collection::vec((0u8..2, any::<u8>(), 0u8..3), 0..8)
    ) {
        use dcs_crypto::{VerifyPipeline, VerifyPool};

        let mut kps = [KeyPair::generate([0xA1; 32], 3), KeyPair::generate([0xB2; 32], 3)];
        let items: Vec<(dcs_crypto::PublicKey, Hash256, Signature)> = spec
            .iter()
            .map(|&(key, msg_byte, mode)| {
                let msg = sha256(&[msg_byte]);
                let (signer, pk_owner) = match mode {
                    // Valid: signed by the key whose pk we attach.
                    0 => (key as usize, key as usize),
                    // Wrong-message forgery: signature over a different digest.
                    1 => (key as usize, key as usize),
                    // Wrong-key forgery: genuine signature, other key's pk.
                    _ => (key as usize, 1 - key as usize),
                };
                let signed = if mode == 1 { sha256(&[msg_byte, 0xFF]) } else { msg };
                let sig = kps[signer].sign(&signed).expect("capacity 8 per key");
                (kps[pk_owner].public_key(), msg, sig)
            })
            .collect();

        let expected: Vec<bool> =
            items.iter().map(|(pk, msg, sig)| pk.verify(msg, sig)).collect();

        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                VerifyPool::new(threads).verify_batch(&items),
                expected.clone(),
                "pool threads={}", threads
            );
            let pipeline = VerifyPipeline::new(threads, 512);
            prop_assert_eq!(
                pipeline.verify_batch(&items),
                expected.clone(),
                "pipeline cold threads={}", threads
            );
            prop_assert_eq!(
                pipeline.verify_batch(&items),
                expected.clone(),
                "pipeline warm threads={}", threads
            );
            let cache = pipeline.stats().cache.expect("cache configured");
            prop_assert_eq!(cache.hits, items.len() as u64, "warm pass all hits");
        }
    }
}
