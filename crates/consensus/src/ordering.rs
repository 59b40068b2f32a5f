//! A Hyperledger-style ordering service (§2.4, \[2\], \[18\]): a designated
//! orderer sequences incoming transactions into batches; committing peers
//! validate and apply. "There is thus no possibility of branching ... and no
//! branch selection algorithm is therefore required" — the CS corner of the
//! DCS triangle, traded against decentralization (one or few orderers).
//!
//! Supports a static leader (`rotate_every = 0`) or round-robin rotation
//! every N blocks among all peers.

use crate::node::{is_sync_tag, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::Address;
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, Seal};
use dcs_sim::SimDuration;
use std::sync::Arc;

/// A peer in an ordering-service network. All peers gossip transactions;
/// whichever peer currently holds the orderer role cuts batches.
#[derive(Debug)]
pub struct OrderingNode<M: StateMachine> {
    /// Shared peer machinery.
    pub core: NodeCore<M>,
    batch_size: usize,
    batch_timeout_us: u64,
    rotate_every: u64,
    node_count: usize,
}

impl<M: StateMachine> OrderingNode<M> {
    /// Creates a peer; `node_count` is the network size (for rotation).
    ///
    /// # Panics
    ///
    /// Panics if the config is not `Ordering`.
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
        node_count: usize,
    ) -> Self {
        let ConsensusKind::Ordering {
            batch_size,
            batch_timeout_us,
            rotate_every,
        } = config.consensus
        else {
            panic!("OrderingNode requires an Ordering consensus config")
        };
        OrderingNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            batch_size,
            batch_timeout_us,
            rotate_every,
            node_count,
        }
    }

    /// Which peer orders the block at `height`.
    pub fn orderer_for_height(&self, height: u64) -> NodeId {
        match height.checked_div(self.rotate_every) {
            // rotate_every == 0 means a fixed orderer.
            None => NodeId(0),
            Some(turn) => NodeId((turn % self.node_count as u64) as usize),
        }
    }

    fn is_my_turn(&self) -> bool {
        self.orderer_for_height(self.core.chain.height() + 1) == self.core.id
    }

    fn pending(&self) -> usize {
        self.core.mempool.len()
    }

    fn try_cut_batch(&mut self, ctx: &mut Ctx<'_, WireMsg>, force: bool) {
        if !self.is_my_turn() {
            return;
        }
        let pending = self.pending();
        if pending == 0 {
            return;
        }
        if pending >= self.batch_size || force {
            let height = self.core.chain.height() + 1;
            let seal = Seal::Authority {
                view: 0,
                sequence: height,
                votes: 1,
            };
            let block = self.core.build_block(seal, ctx.now);
            self.core.handle_block(Arc::clone(&block), None, ctx);
            if self.core.chain.height() < height {
                // Our own import refused the block (e.g. a witness the
                // machine rejects). Evict the offending transaction so the
                // next cut differs, and do not retry now: the identical
                // batch would fail again, forever.
                self.evict_failing_tx(&block);
                return;
            }
            // Immediately try again: a backlog larger than one batch should
            // drain at full rate rather than one batch per timeout.
            self.try_cut_batch(ctx, false);
        }
    }

    /// Drops from the mempool the first transaction of `block` that the
    /// machine refuses on top of the current tip. Applying a body prefix
    /// fails exactly when the prefix contains that transaction, so a binary
    /// search over prefix lengths (each applied and reverted) finds it.
    fn evict_failing_tx(&mut self, block: &Block) {
        let machine = self.core.chain.machine_mut();
        let mut prefix_applies = |len: usize| {
            let prefix = Block::new(block.header.clone(), block.txs[..len].to_vec());
            match machine.apply_block(&prefix) {
                Ok((_, undo)) => {
                    machine.revert_block(undo);
                    true
                }
                Err(_) => false,
            }
        };
        let lens: Vec<usize> = (1..=block.txs.len()).collect();
        let failing = lens.partition_point(|&len| prefix_applies(len));
        if let Some(id) = block.tx_ids().get(failing) {
            self.core.mempool.remove(id);
        }
    }

    fn schedule_tick(&self, ctx: &mut Ctx<'_, WireMsg>) {
        ctx.set_timer(SimDuration::from_micros(self.batch_timeout_us), 0);
    }
}

impl<M: StateMachine> Protocol for OrderingNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.schedule_tick(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        match msg {
            WireMsg::Block(block) => {
                self.core.handle_block(block, Some(from), ctx);
            }
            WireMsg::Tx(tx) => {
                if self.core.handle_tx(tx, Some(from), ctx) {
                    self.try_cut_batch(ctx, false);
                }
            }
            WireMsg::Pbft(_) => {}
            WireMsg::BlockRequest(hash) => {
                self.core.handle_block_request(hash, from, ctx);
            }
            WireMsg::BlockNotFound(hash) => {
                self.core.handle_block_not_found(hash, from, ctx);
            }
            WireMsg::SyncRequest { locator } => {
                self.core.handle_sync_request(&locator, from, ctx);
            }
            WireMsg::SyncResponse { blocks, tip_height } => {
                if self
                    .core
                    .handle_sync_response(blocks, tip_height, from, ctx)
                {
                    // The orderer role may have rotated onto us at the new
                    // height; the regular tick picks that up.
                    self.try_cut_batch(ctx, false);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        // Sync retries share the timer queue; route them before the batch
        // tick (which deliberately ignores its tag).
        if is_sync_tag(tag) {
            self.core.handle_sync_timer(tag, ctx);
            return;
        }
        // Batch timeout: cut whatever is pending, then re-arm.
        self.try_cut_batch(ctx, true);
        self.schedule_tick(ctx);
    }
}
