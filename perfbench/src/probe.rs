//! The traced run's instruments, owned by the benchmark and wrapped around
//! the program from outside: [`Probe`] wraps a consensus peer and times its
//! message handlers (split by [`WireMsg`] variant) and timers; [`Timed`]
//! wraps a state machine and times block application and reversion. Both
//! forward every call unchanged and never touch the simulation context, so
//! a traced network is the same network — the chain digest proves it.
//!
//! Untraced rounds build the same wrappers switched off: each call is then
//! one predictable branch and a forward, with no clock read.

use crate::host::Stopwatch;
use dcs_chain::{NullMachine, StateMachine};
use dcs_consensus::{node::NodeCore, WireMsg};
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_ledger::LedgerNode;
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, Receipt};
use std::collections::HashSet;

/// Read access to account balances, for the supply-conservation gate.
/// Machines without balances (the null machine) return `None`.
pub trait Balances: StateMachine {
    /// The balance of `addr`, if this machine keeps balances.
    fn balance(&self, addr: &Address) -> Option<u64>;
}

impl Balances for AccountMachine {
    fn balance(&self, addr: &Address) -> Option<u64> {
        Some(self.db.balance(addr))
    }
}

impl Balances for NullMachine {
    fn balance(&self, _addr: &Address) -> Option<u64> {
        None
    }
}

/// Cumulative cost of one peer's state machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineTimes {
    /// `apply_block` calls.
    pub apply_calls: u64,
    /// Transactions in applied blocks (coinbases included).
    pub apply_txs: u64,
    /// Wall time inside `apply_block`.
    pub apply_ns: u64,
    /// `revert_block` calls.
    pub revert_calls: u64,
    /// Wall time inside `revert_block`.
    pub revert_ns: u64,
}

impl MachineTimes {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &MachineTimes) {
        self.apply_calls += other.apply_calls;
        self.apply_txs += other.apply_txs;
        self.apply_ns += other.apply_ns;
        self.revert_calls += other.revert_calls;
        self.revert_ns += other.revert_ns;
    }
}

/// A state machine with its block application and reversion timed.
#[derive(Debug)]
pub struct Timed<M> {
    /// The machine doing the work.
    pub inner: M,
    /// What it cost (all zero when off).
    pub times: MachineTimes,
    on: bool,
}

impl<M> Timed<M> {
    /// Wraps `inner`, timing it if `on`.
    pub fn new(inner: M, on: bool) -> Self {
        Timed {
            inner,
            times: MachineTimes::default(),
            on,
        }
    }
}

impl<M: StateMachine> StateMachine for Timed<M> {
    type Undo = M::Undo;

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, M::Undo), String> {
        if !self.on {
            return self.inner.apply_block(block);
        }
        let start = Stopwatch::start();
        let out = self.inner.apply_block(block);
        self.times.apply_ns += start.nanos();
        self.times.apply_calls += 1;
        self.times.apply_txs += block.txs.len() as u64;
        out
    }

    fn revert_block(&mut self, undo: M::Undo) {
        if !self.on {
            return self.inner.revert_block(undo);
        }
        let start = Stopwatch::start();
        self.inner.revert_block(undo);
        self.times.revert_ns += start.nanos();
        self.times.revert_calls += 1;
    }

    fn state_root(&self) -> Hash256 {
        self.inner.state_root()
    }
}

impl<M: Balances> Balances for Timed<M> {
    fn balance(&self, addr: &Address) -> Option<u64> {
        self.inner.balance(addr)
    }
}

/// Calls and wall time of one handler kind, with the state-machine time
/// spent inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Handler invocations.
    pub calls: u64,
    /// Wall time inside the handler.
    pub ns: u64,
    /// Of which inside `apply_block`/`revert_block`.
    pub machine_ns: u64,
}

impl Busy {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Busy) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.machine_ns += other.machine_ns;
    }
}

/// One peer's handler costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeLayers {
    /// `WireMsg::Tx` deliveries (gossip, admission, signature verify).
    pub tx: Busy,
    /// `WireMsg::Block` deliveries (import, apply, re-gossip).
    pub block: Busy,
    /// Every other message (sync requests and replies, PBFT).
    pub other: Busy,
    /// Timers and start-up (proposal, batch cut, sync retries).
    pub timer: Busy,
    /// Transactions this peer saw for the first time.
    pub tx_first_seen: u64,
}

impl NodeLayers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &NodeLayers) {
        self.tx.add(&other.tx);
        self.block.add(&other.block);
        self.other.add(&other.other);
        self.timer.add(&other.timer);
        self.tx_first_seen += other.tx_first_seen;
    }

    /// Wall time inside every handler.
    pub fn handler_ns(&self) -> u64 {
        self.tx.ns + self.block.ns + self.other.ns + self.timer.ns
    }
}

/// A consensus peer with its handlers timed.
#[derive(Debug)]
pub struct Probe<P> {
    /// The peer doing the work.
    pub inner: P,
    /// What its handlers cost (all zero when off).
    pub layers: NodeLayers,
    seen: HashSet<[u8; 8]>,
    on: bool,
}

impl<P> Probe<P> {
    /// Wraps `inner`, timing it if `on`.
    pub fn new(inner: P, on: bool) -> Self {
        Probe {
            inner,
            layers: NodeLayers::default(),
            seen: HashSet::new(),
            on,
        }
    }
}

impl<P, M> Probe<P>
where
    P: LedgerNode<Machine = Timed<M>>,
    M: Balances,
{
    fn machine_ns(&self) -> u64 {
        let t = &self.inner.core().chain.machine().times;
        t.apply_ns + t.revert_ns
    }

    fn timed(&mut self, pick: fn(&mut NodeLayers) -> &mut Busy, f: impl FnOnce(&mut P)) {
        if !self.on {
            return f(&mut self.inner);
        }
        let machine_before = self.machine_ns();
        let start = Stopwatch::start();
        f(&mut self.inner);
        let ns = start.nanos();
        let machine_ns = self.machine_ns() - machine_before;
        let busy = pick(&mut self.layers);
        busy.calls += 1;
        busy.ns += ns;
        busy.machine_ns += machine_ns;
    }
}

impl<P, M> Protocol for Probe<P>
where
    P: LedgerNode<Machine = Timed<M>>,
    M: Balances,
{
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.timed(|l| &mut l.timer, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        if !self.on {
            return self.inner.on_message(from, msg, ctx);
        }
        match &msg {
            WireMsg::Tx(tx) => {
                let mut key = [0u8; 8];
                key.copy_from_slice(&tx.id().as_bytes()[..8]);
                if self.seen.insert(key) {
                    self.layers.tx_first_seen += 1;
                }
                self.timed(|l| &mut l.tx, |p| p.on_message(from, msg, ctx));
            }
            WireMsg::Block(_) => self.timed(|l| &mut l.block, |p| p.on_message(from, msg, ctx)),
            _ => self.timed(|l| &mut l.other, |p| p.on_message(from, msg, ctx)),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        self.timed(|l| &mut l.timer, |p| p.on_timer(tag, ctx));
    }
}

impl<P, M> LedgerNode for Probe<P>
where
    P: LedgerNode<Machine = Timed<M>>,
    M: Balances,
{
    type Machine = Timed<M>;

    fn core(&self) -> &NodeCore<Timed<M>> {
        self.inner.core()
    }

    fn core_mut(&mut self) -> &mut NodeCore<Timed<M>> {
        self.inner.core_mut()
    }

    fn work_expended(&self) -> f64 {
        self.inner.work_expended()
    }
}
