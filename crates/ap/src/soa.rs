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
//! * when the run drains, **release tokens** propagate from the stream
//!   sources through the datapath (§2.2: "An object is released by
//!   receiving and firing release token(s) from the preceding object(s)"),
//!   yielding the release order the processor uses to free resources.
//!
//! Each cycle has three phases — deliver outputs, retire in-flight
//! operations, fire ready nodes — each walking the nodes in index order
//! over the datapath's flat arrays and one slab of per-node run state,
//! so one cycle of one AP touches a few dense arrays front to back. A single AP's `execute` is a one-lane run; a
//! region executor detaches many lanes and runs each to completion while
//! its slabs are cache-hot. Lanes share nothing, so every schedule and
//! thread count gives the same bytes.

use crate::datapath::{Datapath, ExecutionReport, LHS, PRED, RHS};
use crate::error::ApError;
use std::collections::HashMap;
use vlsi_object::{MemoryBlock, Operation, Word};

/// Sentinel for "nothing in flight" in the latency countdown slab
/// (`Operation::latency` is tiny; real countdowns never reach this).
const IDLE: u32 = u32::MAX;

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
        self.outcome =
            Flow::new(self.dp.len()).run(&mut self.dp, &mut self.memory, tap_limit, max_cycles);
    }

    /// Dissolves the lane: the datapath with its advanced register
    /// state, the memory blocks, and the outcome of the run (a memory
    /// fault or cycle-budget timeout as a typed error).
    pub fn finish(self) -> (Datapath, Vec<MemoryBlock>, Result<ExecutionReport, ApError>) {
        (self.dp, self.memory, self.outcome)
    }
}

/// The transient state of one node during a run.
#[derive(Clone, Copy)]
struct Slot {
    /// Input latches, by port.
    inputs: [Option<Word>; 3],
    /// Cycles left for the in-flight operation, or [`IDLE`].
    inflight_rem: u32,
    /// The in-flight operation's result.
    inflight_val: Word,
    /// Output latch.
    out: Option<Word>,
    /// Tokens this node has emitted.
    produced: u64,
    /// A source past its stream limit.
    exhausted: bool,
    /// Times this node fired.
    firings: u64,
}

/// The transient dataflow state of one run, parallel over node index.
struct Flow {
    slots: Vec<Slot>,
    tap_vals: Vec<Vec<Word>>,
    firings: u64,
    loads: u64,
    stores: u64,
    cycles: u64,
}

impl Flow {
    fn new(n: usize) -> Flow {
        let idle = Slot {
            inputs: [None; 3],
            inflight_rem: IDLE,
            inflight_val: Word::ZERO,
            out: None,
            produced: 0,
            exhausted: false,
            firings: 0,
        };
        Flow {
            slots: vec![idle; n],
            tap_vals: vec![Vec::new(); n],
            firings: 0,
            loads: 0,
            stores: 0,
            cycles: 0,
        }
    }

    fn run(
        mut self,
        dp: &mut Datapath,
        memory: &mut [MemoryBlock],
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<ExecutionReport, ApError> {
        let n = dp.len();
        for _ in 0..max_cycles {
            let mut activity = false;

            // Phase 1: deliver outputs to successor latches (broadcast
            // with backpressure: the output clears only when all
            // successors have accepted).
            for i in 0..n {
                let Some(v) = self.slots[i].out else { continue };
                let succs = dp.succs(i);
                if succs.is_empty() {
                    // A tap: collect. (Successor-less memory nodes drop
                    // the value.)
                    if dp.is_tap[i] && (self.tap_vals[i].len() as u64) < tap_limit {
                        self.tap_vals[i].push(v);
                        activity = true;
                    }
                    self.slots[i].out = None;
                    self.slots[i].produced += 1;
                    continue;
                }
                let slots = &mut self.slots;
                if succs
                    .iter()
                    .all(|&(s, p)| slots[s as usize].inputs[p as usize].is_none())
                {
                    for &(s, p) in succs {
                        slots[s as usize].inputs[p as usize] = Some(v);
                    }
                    slots[i].out = None;
                    slots[i].produced += 1;
                    activity = true;
                }
            }

            // Phase 2: retire in-flight operations whose latency elapsed.
            for slot in &mut self.slots {
                if slot.inflight_rem == IDLE {
                    continue;
                }
                if slot.inflight_rem <= 1 {
                    slot.inflight_rem = IDLE;
                    debug_assert!(slot.out.is_none());
                    slot.out = Some(slot.inflight_val);
                } else {
                    slot.inflight_rem -= 1;
                }
                activity = true;
            }

            // Phase 3: fire ready nodes, in node-index order.
            for i in 0..n {
                let s = &self.slots[i];
                let busy = s.inflight_rem != IDLE || s.out.is_some() || s.exhausted;
                if !busy && self.try_fire(dp, memory, i)? {
                    activity = true;
                }
            }

            self.cycles += 1;
            if !activity {
                return Ok(self.into_report(dp));
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
                    slot.exhausted = true;
                    return Ok(false);
                }
                Some(dp.imms[i])
            }
            Operation::Load => {
                let addr = if streaming {
                    let limit = regs[2].as_u64();
                    if limit != 0 && slot.produced >= limit {
                        slot.exhausted = true;
                        return Ok(false);
                    }
                    regs[0].as_u64()
                } else {
                    // Addressed load: wait for the address token.
                    let Some(addr_tok) = ports[LHS].take() else {
                        return Ok(false);
                    };
                    regs[0].as_u64() + addr_tok.as_u64()
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
        if let Some(v) = result {
            slot.inflight_rem = op.latency();
            slot.inflight_val = v;
        }
        slot.firings += 1;
        self.firings += 1;
        Ok(true)
    }

    /// The report of a drained run, release tokens included.
    fn into_report(mut self, dp: &Datapath) -> ExecutionReport {
        let mut report = ExecutionReport {
            cycles: self.cycles,
            firings: self.firings,
            loads: self.loads,
            stores: self.stores,
            taps: HashMap::new(),
            node_firings: HashMap::new(),
            drained: true,
            release_tokens: 0,
            release_order: Vec::new(),
        };
        for i in 0..dp.len() {
            if dp.is_tap[i] {
                report
                    .taps
                    .insert(dp.ids[i], std::mem::take(&mut self.tap_vals[i]));
            }
            if self.slots[i].firings > 0 {
                report.node_firings.insert(dp.ids[i], self.slots[i].firings);
            }
        }
        fire_release_tokens(dp, &mut report);
        report
    }
}

/// Propagates release tokens from the sources through the graph,
/// recording the release order. Sources (no wired inputs) fire first;
/// every node releases after receiving a token from each predecessor.
/// Nodes on cycles never receive all tokens; they are released by force
/// at the end (the paper's datapaths are acyclic).
fn fire_release_tokens(dp: &Datapath, report: &mut ExecutionReport) {
    let mut pending: Vec<usize> = dp
        .has_src
        .iter()
        .map(|srcs| srcs.iter().filter(|&&s| s).count())
        .collect();
    let mut queue: Vec<usize> = (0..dp.len()).filter(|&i| pending[i] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        report.release_order.push(dp.ids[i]);
        report.release_tokens += 1;
        for &(s, _) in dp.succs(i) {
            // One token per edge.
            report.release_tokens += 1;
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                queue.push(s as usize);
            }
        }
    }
    for (i, &p) in pending.iter().enumerate() {
        if p > 0 {
            report.release_order.push(dp.ids[i]);
        }
    }
}
