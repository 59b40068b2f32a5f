//! Criterion benchmarks for batched vs serial state application (E20): the
//! same work routed through the per-write trie path and through the
//! one-pass sorted batch merge. Both paths are bit-identical in roots,
//! receipts, and errors (proptested in `dcs-state`/`dcs-contracts`), so the
//! spread between rows is pure restructuring win — no extra cores involved.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{AccountTx, Block, BlockHeader, GasSchedule, Seal, Transaction};
use dcs_state::{MerkleMap, UtxoSet};
use std::hint::black_box;

/// Building an N-entry authenticated map: N serial root-rewriting inserts
/// vs one sorted `write_batch` merge.
fn bench_merkle_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply/merkle_map");
    for n in [256usize, 2_048] {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| {
                (
                    (i as u64).to_le_bytes().to_vec(),
                    (i as u64).to_be_bytes().to_vec(),
                )
            })
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("serial", n), &entries, |b, entries| {
            b.iter(|| {
                let mut map = MerkleMap::new();
                for (k, v) in entries {
                    map.insert(k.clone(), v.clone());
                }
                black_box(map.root())
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &entries, |b, entries| {
            b.iter(|| {
                let mut map = MerkleMap::new();
                map.write_batch(
                    entries
                        .iter()
                        .map(|(k, v)| (k.clone(), Some(v.clone())))
                        .collect(),
                );
                black_box(map.root())
            })
        });
        // The commit-path shape: a populated state absorbing one block's
        // worth of updates.
        let mut base = MerkleMap::new();
        for i in 0..8_192u64 {
            base.insert(i.to_le_bytes().to_vec(), i.to_be_bytes().to_vec());
        }
        group.bench_with_input(
            BenchmarkId::new("update/serial", n),
            &entries,
            |b, entries| {
                b.iter_batched(
                    || base.clone(),
                    |mut map| {
                        for (k, v) in entries {
                            map.insert(k.clone(), v.clone());
                        }
                        black_box(map.root())
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("update/batched", n),
            &entries,
            |b, entries| {
                b.iter_batched(
                    || base.clone(),
                    |mut map| {
                        map.write_batch(
                            entries
                                .iter()
                                .map(|(k, v)| (k.clone(), Some(v.clone())))
                                .collect(),
                        );
                        black_box(map.root())
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

/// One block of account transfers through `AccountMachine::apply_block` on
/// both paths. Unsigned with a free gas schedule, so the timed region is
/// execution plus state commitment — the part the batch refactor changed.
fn bench_account_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply/account_block");
    group.sample_size(20);
    const SENDERS: usize = 32;
    for txs_per_block in [256usize, 1_024] {
        let senders: Vec<Address> = (0..SENDERS as u64).map(Address::from_index).collect();
        let alloc: Vec<(Address, u64)> = senders.iter().map(|a| (*a, u64::MAX / 2)).collect();
        let mut nonces = vec![0u64; SENDERS];
        let body: Vec<Transaction> = std::iter::once(Transaction::Coinbase {
            to: Address::from_index(999),
            value: 50,
            height: 1,
        })
        .chain((0..txs_per_block).map(|i| {
            let s = i % SENDERS;
            let mut tx = AccountTx::transfer(
                senders[s],
                Address::from_index(10_000 + (i as u64 % 97)),
                1 + i as u64 % 100,
                nonces[s],
            );
            tx.gas_limit = 0;
            tx.gas_price = 0;
            nonces[s] += 1;
            Transaction::Account(tx)
        }))
        .collect();
        let header = BlockHeader::new(Hash256::ZERO, 1, 1, Address::from_index(999), Seal::None);
        let block = Block::new(header, body);
        group.throughput(Throughput::Elements(txs_per_block as u64));
        for (label, serial) in [("serial", true), ("batched", false)] {
            group.bench_with_input(
                BenchmarkId::new(label, txs_per_block),
                &block,
                |b, block| {
                    b.iter_batched(
                        || {
                            let mut m = AccountMachine::with_alloc(&alloc);
                            m.schedule = GasSchedule::free();
                            m.serial_apply = serial;
                            m
                        },
                        |mut m| {
                            use dcs_chain::StateMachine;
                            black_box(m.apply_block(block).expect("valid block"))
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    // The shape `pow_overload` applies on every peer: a coinbase plus 26
    // default-gas transfers, each from its own sender, on a 6,500-account
    // state; once as an apply, once as apply + revert (a reorg's cost).
    const ACCOUNTS: u64 = 6_500;
    const TRANSFERS: u64 = 26;
    let account = |i: u64| Address::from_index(1_000_000 + i);
    let alloc: Vec<(Address, u64)> = (0..ACCOUNTS).map(|i| (account(i), 1_000_000)).collect();
    let base = AccountMachine::with_alloc(&alloc).db;
    let body: Vec<Transaction> = std::iter::once(Transaction::Coinbase {
        to: Address::from_index(7),
        value: 50,
        height: 1,
    })
    .chain((0..TRANSFERS).map(|i| {
        let (from, to) = (account(i * 211), account((i * 97 + 3_001) % ACCOUNTS));
        Transaction::Account(AccountTx::transfer(from, to, 1 + i, 0))
    }))
    .collect();
    let header = BlockHeader::new(Hash256::ZERO, 1, 1, Address::from_index(7), Seal::None);
    let block = Block::new(header, body);
    group.throughput(Throughput::Elements(TRANSFERS));
    for (label, revert) in [("apply", false), ("apply_revert", true)] {
        group.bench_with_input(BenchmarkId::new(label, TRANSFERS), &block, |b, block| {
            b.iter_batched(
                || {
                    let mut m = AccountMachine::new();
                    m.db = base.clone();
                    m
                },
                |mut m| {
                    use dcs_chain::StateMachine;
                    let (receipts, undo) = m.apply_block(block).expect("valid block");
                    if revert {
                        m.revert_block(undo);
                    }
                    black_box(m.state_root());
                    (receipts, m)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// One block of UTXO spends through the set: a serial `apply` loop vs one
/// `apply_batch` staged-validate-then-merge pass.
fn bench_utxo_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply/utxo_block");
    group.sample_size(20);
    for spends in [256usize, 1_024] {
        let mut base = UtxoSet::new();
        let txs: Vec<Transaction> = (0..spends)
            .map(|i| {
                let coin = base.mint(Address::from_index(i as u64), 100);
                Transaction::Utxo(dcs_primitives::UtxoTx {
                    inputs: vec![dcs_primitives::TxIn {
                        prev_tx: coin.tx,
                        index: coin.index,
                        auth: None,
                    }],
                    outputs: vec![dcs_primitives::TxOut {
                        value: 90,
                        recipient: Address::from_index(70_000 + i as u64),
                    }],
                })
            })
            .collect();
        let ids: Vec<Hash256> = Transaction::batch_ids(&txs);
        group.throughput(Throughput::Elements(spends as u64));
        group.bench_with_input(BenchmarkId::new("serial", spends), &txs, |b, txs| {
            b.iter_batched(
                || base.clone(),
                |mut set| {
                    for tx in txs {
                        black_box(set.apply(tx).expect("valid spend"));
                    }
                    set
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("batched", spends), &txs, |b, txs| {
            b.iter_batched(
                || base.clone(),
                |mut set| {
                    black_box(set.apply_batch(txs, &ids, false).expect("valid spends"));
                    set
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_merkle_map,
    bench_account_apply,
    bench_utxo_apply
);
criterion_main!(benches);
