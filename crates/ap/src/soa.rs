//! The datapath engine: every AP execution runs through a [`SoaLane`].
//!
//! A lane pairs one flat [`Datapath`] with the AP's memory blocks and
//! runs it to quiescence, one simulated cycle at a time:
//!
//! * every object is a node with up to two value ports and one predicate
//!   port, single-token input latches, and a single-token output latch
//!   (backpressure propagates naturally, as it would on gated channels);
//! * operations fire when their inputs are present, take their
//!   [`Operation::latency`] cycles, and broadcast their result to every
//!   successor (fan-out over one granted channel);
//! * **memory objects** produce load streams and absorb store streams. A
//!   `Load` with no address producer streams sequentially from its block
//!   (base pointer in `regs[0]`, block index in `regs[1]`, element count in
//!   `regs[2]`); a `Store` with no address producer writes sequentially the
//!   same way. This is the "load and store streams" traffic the paper's
//!   GOPS figure excludes (§4.1) and the Figure 7(d) mailbox pattern;
//! * **steer** objects guard data-intensive datapaths from control flow:
//!   they forward their value only when the predicate matches, which is
//!   how `if (x>y) z=x+1 else z=y+2` becomes two speculative arms;
//! * when the run drains, the report carries the **release tokens** the
//!   datapath fires on release (§2.2: "An object is released by receiving
//!   and firing release token(s) from the preceding object(s)"). They
//!   depend on the graph alone, so [`Datapath::build`] computes them once.
//!
//! # Live-node sets
//!
//! An acquired datapath is free from control (§2.2): an object acts only
//! when a token reaches it. The run loop follows that, so a cycle costs
//! what its tokens do, not the node count. It keeps three node-index
//! bitsets, and each of the cycle's three phases walks one of them in
//! ascending index order:
//!
//! 1. **deliver** — the *has-output* set: nodes holding a token. A
//!    delivered (or dropped) token leaves the set, makes the node a fire
//!    candidate again (it is un-busy), and makes every successor that
//!    received it a candidate;
//! 2. **retire** — the *in-flight* set: nodes whose operation is counting
//!    down its latency. A finished one moves to has-output;
//! 3. **fire** — the *candidate* set: nodes that got an input this cycle
//!    or became un-busy (every node, on the first cycle). The set is
//!    consumed as it is walked; a firing with a result joins in-flight.
//!    Busy candidates — in flight, holding a token, or sources past
//!    their stream limit (a fourth set, *exhausted*) — are masked out a
//!    word at a time.
//!
//! This is exactly the schedule of a loop that visits every node in
//! every phase:
//!
//! * Phase 1 does not depend on order: every input latch has one
//!   producer, so no delivery can block or enable another in the same
//!   phase.
//! * Phase 2 touches each node's own state only.
//! * In phase 3 a node that is not a candidate cannot fire. Whether it
//!   can depends only on its own latches, its own counters and its own
//!   busy state. Those change only by a delivery to it, by its own token
//!   leaving (both make it a candidate), or by its own firing. A firing
//!   with a result makes the node busy until its token leaves; one
//!   without (a `Store`, a steer whose predicate failed) consumed the
//!   latches it needs, so it waits for a delivery.
//! * Firing consumes only the node's own latches. The only state nodes
//!   share is memory, and the candidates still fire in ascending index
//!   order, so every load and store happens in the old order.
//!
//! `crates/ap/tests/engine_oracle.rs` keeps the visit-every-node stepper
//! as an independent oracle and checks the two against each other on
//! random datapaths.
//!
//! The slabs (per-node slots, tap buffers, the node sets) belong to the
//! thread, not to a datapath: each run clears and reuses its thread's
//! slabs, so a run allocates only its report, and a region sweep of
//! many lanes keeps one slab hot in cache instead of touching one per
//! lane. A single AP's `execute` is a one-lane run; a region executor
//! detaches many lanes and runs each to completion in turn. Lanes share
//! nothing, so every schedule and thread count gives the same bytes.

use crate::datapath::{Datapath, ExecutionReport, LHS, PRED, RHS};
use crate::error::ApError;
use std::cell::RefCell;
use std::collections::HashMap;
use vlsi_object::{MemoryBlock, Operation, Word};

thread_local! {
    /// This thread's run slabs, reused by every run on it.
    static SLABS: RefCell<RunSlabs> = RefCell::new(RunSlabs::default());
}

/// One datapath plus the memory blocks it runs over.
///
/// [`AdaptiveProcessor::begin_batch`] detaches a resident datapath and
/// the AP's memory into a lane; [`run`](Self::run) executes it;
/// [`AdaptiveProcessor::finish_batch`] hands both back. Standalone, a
/// lane is built with [`new`](Self::new) and dissolved with
/// [`finish`](Self::finish).
///
/// [`AdaptiveProcessor::begin_batch`]: crate::processor::AdaptiveProcessor::begin_batch
/// [`AdaptiveProcessor::finish_batch`]: crate::processor::AdaptiveProcessor::finish_batch
#[derive(Clone, Debug)]
pub struct SoaLane {
    /// Which resident datapath this lane was detached from.
    pub(crate) datapath_index: usize,
    dp: Datapath,
    memory: Vec<MemoryBlock>,
    /// How the last run ended; a lane never run reads as a zero-cycle
    /// timeout.
    outcome: Result<ExecutionReport, ApError>,
}

impl SoaLane {
    /// Pairs `dp` with the memory blocks its memory nodes index
    /// (`regs[1]`).
    pub fn new(dp: Datapath, memory: Vec<MemoryBlock>) -> SoaLane {
        SoaLane {
            datapath_index: 0,
            dp,
            memory,
            outcome: Err(ApError::ExecutionTimeout { cycles: 0 }),
        }
    }

    /// Runs the datapath until it drains or `max_cycles` elapse. Tap
    /// outputs are capped at `tap_limit` values per tap; a datapath
    /// whose only sinks are taps drains when every tap has `tap_limit`
    /// values (pure streams would otherwise never finish). Transient
    /// dataflow state starts cleared on every run; register state
    /// (stream pointers) carries over.
    pub fn run(&mut self, tap_limit: u64, max_cycles: u64) {
        SLABS.with(|slabs| {
            let slabs = &mut *slabs.borrow_mut();
            slabs.reset(self.dp.len());
            self.outcome = slabs.run(&mut self.dp, &mut self.memory, tap_limit, max_cycles);
        });
    }

    /// Dissolves the lane: the datapath with its advanced register
    /// state, the memory blocks, and the outcome of the run (a memory
    /// fault or cycle-budget timeout as a typed error).
    pub fn finish(self) -> (Datapath, Vec<MemoryBlock>, Result<ExecutionReport, ApError>) {
        (self.dp, self.memory, self.outcome)
    }
}

/// A set of node indices, walked in ascending order one 64-bit word at
/// a time.
#[derive(Default)]
struct NodeSet(Vec<u64>);

impl NodeSet {
    /// Empties the set and sizes it for `n` nodes.
    fn clear(&mut self, n: usize) {
        self.0.clear();
        self.0.resize(n.div_ceil(64), 0);
    }

    /// Makes the set hold every node `0..n`.
    fn fill(&mut self, n: usize) {
        self.clear(n);
        for (k, w) in self.0.iter_mut().enumerate() {
            let bits = n - k * 64;
            *w = if bits >= 64 { !0 } else { (1 << bits) - 1 };
        }
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// The node indices of word `k` of a set, ascending. The word is a copy,
/// so the walk may change the set as it goes.
fn members(k: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            k * 64 + bit
        })
    })
}

/// The transient state of one node during a run. Whether the node holds
/// an output token, has an operation in flight or is an exhausted
/// source is kept in the node sets; `val` is the token's value (a node
/// holds at most one).
#[derive(Clone, Copy)]
struct Slot {
    /// Input latches, by port.
    inputs: [Option<Word>; 3],
    /// The in-flight operation's result, then the output token.
    val: Word,
    /// Cycles left for the in-flight operation.
    rem: u32,
    /// Tokens this node has emitted.
    produced: u64,
    /// Times this node fired.
    firings: u64,
}

impl Slot {
    const IDLE: Slot = Slot {
        inputs: [None; 3],
        val: Word::ZERO,
        rem: 0,
        produced: 0,
        firings: 0,
    };
}

/// The engine's per-run state, parallel over node index. Each thread
/// keeps one and clears it at the start of every run.
#[derive(Default)]
struct RunSlabs {
    slots: Vec<Slot>,
    tap_vals: Vec<Vec<Word>>,
    /// Nodes holding a token to deliver (phase 1).
    has_out: NodeSet,
    /// Nodes whose operation is still counting down (phase 2).
    in_flight: NodeSet,
    /// Nodes that may fire this cycle (phase 3).
    candidates: NodeSet,
    /// Sources past their stream limit: they never fire again.
    exhausted: NodeSet,
    firings: u64,
    loads: u64,
    stores: u64,
    cycles: u64,
}

impl RunSlabs {
    /// Clears every slab for a fresh run of `n` nodes: every node starts
    /// as a fire candidate.
    fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, Slot::IDLE);
        self.tap_vals.clear();
        self.tap_vals.resize_with(n, Vec::new);
        self.has_out.clear(n);
        self.in_flight.clear(n);
        self.candidates.fill(n);
        self.exhausted.clear(n);
        self.firings = 0;
        self.loads = 0;
        self.stores = 0;
        self.cycles = 0;
    }

    fn run(
        &mut self,
        dp: &mut Datapath,
        memory: &mut [MemoryBlock],
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<ExecutionReport, ApError> {
        let words = self.candidates.0.len();
        for _ in 0..max_cycles {
            let mut activity = false;

            // Phase 1: deliver outputs to successor latches (broadcast
            // with backpressure: the output clears only when all
            // successors have accepted).
            for k in 0..words {
                for i in members(k, self.has_out.0[k]) {
                    let v = self.slots[i].val;
                    let succs = dp.succs(i);
                    if succs.is_empty() {
                        // A tap: collect. (Successor-less memory nodes
                        // drop the value.)
                        if dp.is_tap[i] && (self.tap_vals[i].len() as u64) < tap_limit {
                            self.tap_vals[i].push(v);
                            activity = true;
                        }
                    } else {
                        let slots = &mut self.slots;
                        if !succs
                            .iter()
                            .all(|&(s, p)| slots[s as usize].inputs[p as usize].is_none())
                        {
                            continue;
                        }
                        for &(s, p) in succs {
                            slots[s as usize].inputs[p as usize] = Some(v);
                            self.candidates.insert(s as usize);
                        }
                        activity = true;
                    }
                    self.slots[i].produced += 1;
                    self.has_out.remove(i);
                    self.candidates.insert(i);
                }
            }

            // Phase 2: retire in-flight operations whose latency elapsed.
            for k in 0..words {
                for i in members(k, self.in_flight.0[k]) {
                    let slot = &mut self.slots[i];
                    if slot.rem <= 1 {
                        self.in_flight.remove(i);
                        self.has_out.insert(i);
                    } else {
                        slot.rem -= 1;
                    }
                    activity = true;
                }
            }

            // Phase 3: fire ready candidates, in node-index order. A
            // busy candidate (in flight, holding a token, exhausted)
            // cannot fire; only a node's own firing changes its busy
            // bits, so they are masked out once per word.
            for k in 0..words {
                let busy = self.in_flight.0[k] | self.has_out.0[k] | self.exhausted.0[k];
                let word = std::mem::take(&mut self.candidates.0[k]) & !busy;
                for i in members(k, word) {
                    if self.try_fire(dp, memory, i)? {
                        activity = true;
                    }
                }
            }

            self.cycles += 1;
            if !activity {
                return Ok(self.report(dp));
            }
        }
        // The cycle budget elapsed with work still in flight.
        Err(ApError::ExecutionTimeout {
            cycles: self.cycles,
        })
    }

    /// Attempts to fire idle node `i`. Returns whether it fired.
    fn try_fire(
        &mut self,
        dp: &mut Datapath,
        memory: &mut [MemoryBlock],
        i: usize,
    ) -> Result<bool, ApError> {
        let op = dp.ops[i];
        let regs = &mut dp.regs[i];
        let slot = &mut self.slots[i];
        let ports = &mut slot.inputs;
        // A memory node with no address producer streams through its
        // block from the pointer in `regs[0]`.
        let streaming = !dp.has_src[i][LHS];
        // The value the firing puts in flight, if any.
        let result = match op {
            Operation::Const => {
                // A constant regenerates whenever downstream consumed
                // it, up to its stream limit (regs[2]; 0 = one-shot).
                if slot.produced >= regs[2].as_u64().max(1) {
                    self.exhausted.insert(i);
                    return Ok(false);
                }
                Some(dp.imms[i])
            }
            Operation::Load => {
                let addr = if streaming {
                    let limit = regs[2].as_u64();
                    if limit != 0 && slot.produced >= limit {
                        self.exhausted.insert(i);
                        return Ok(false);
                    }
                    regs[0].as_u64()
                } else {
                    // Addressed load: wait for the address token.
                    let Some(addr_tok) = ports[LHS].take() else {
                        return Ok(false);
                    };
                    regs[0].as_u64().wrapping_add(addr_tok.as_u64())
                };
                let v = memory
                    .get_mut(regs[1].as_u64() as usize)
                    .ok_or(ApError::UndefinedSource(dp.ids[i]))?
                    .load(addr)?;
                if streaming {
                    // The pointer advances only past a word actually read.
                    regs[0] = Word(addr + 1);
                }
                self.loads += 1;
                Some(v)
            }
            Operation::Store => {
                let Some(data) = ports[RHS] else {
                    return Ok(false);
                };
                let addr = if streaming {
                    let a = regs[0].as_u64();
                    regs[0] = Word(a + 1);
                    a
                } else {
                    let Some(addr_tok) = ports[LHS].take() else {
                        return Ok(false);
                    };
                    addr_tok.as_u64()
                };
                ports[RHS] = None;
                memory
                    .get_mut(regs[1].as_u64() as usize)
                    .ok_or(ApError::UndefinedSource(dp.ids[i]))?
                    .store(addr, data)?;
                // Stores produce no token; model latency as instant
                // retire.
                slot.produced += 1;
                self.stores += 1;
                None
            }
            Operation::SteerTrue | Operation::SteerFalse => {
                let (Some(v), Some(p)) = (ports[LHS], ports[PRED]) else {
                    return Ok(false);
                };
                ports[LHS] = None;
                ports[PRED] = None;
                // A failed predicate consumes the token silently; the
                // arm stays dark.
                (p.as_bool() == (op == Operation::SteerTrue)).then_some(v)
            }
            Operation::Merge => {
                let Some(v) = ports[LHS].take().or_else(|| ports[RHS].take()) else {
                    return Ok(false);
                };
                Some(v)
            }
            _ => {
                // Plain value operation: all declared ports must hold
                // tokens.
                let arity = op.arity();
                if (arity >= 1 && ports[LHS].is_none()) || (arity >= 2 && ports[RHS].is_none()) {
                    return Ok(false);
                }
                let lhs = if arity >= 1 { ports[LHS].take() } else { None };
                let rhs = if arity >= 2 { ports[RHS].take() } else { None };
                let v = op
                    .eval(
                        lhs.unwrap_or(Word::ZERO),
                        rhs.unwrap_or(Word::ZERO),
                        dp.imms[i],
                    )
                    .expect("context-free operation must evaluate");
                Some(v)
            }
        };
        // A firing without a result (a store, a dark steer) consumed the
        // latches it fired on, so the node cannot fire again before a
        // delivery makes it a candidate.
        if let Some(v) = result {
            slot.rem = op.latency();
            slot.val = v;
            self.in_flight.insert(i);
        }
        slot.firings += 1;
        self.firings += 1;
        Ok(true)
    }

    /// The report of a drained run.
    fn report(&mut self, dp: &Datapath) -> ExecutionReport {
        let mut taps = HashMap::new();
        let mut node_firings = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if dp.is_tap[i] {
                taps.insert(dp.ids[i], std::mem::take(&mut self.tap_vals[i]));
            }
            if slot.firings > 0 {
                node_firings.push((dp.ids[i], slot.firings));
            }
        }
        ExecutionReport {
            cycles: self.cycles,
            firings: self.firings,
            loads: self.loads,
            stores: self.stores,
            taps,
            node_firings,
            drained: true,
            release_tokens: dp.release_tokens,
            release_order: dp.release_order.clone(),
        }
    }
}
