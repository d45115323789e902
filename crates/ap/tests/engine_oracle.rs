//! An independent oracle for the datapath engine.
//!
//! [`Reference`] is the plain stepper the engine's live-node loop must
//! equal: it builds its own node graph from the configuration stream
//! and, on every cycle, visits every node in each of the three phases
//! (deliver, retire, fire), in index order. The property below runs it
//! against [`SoaLane`] on random datapaths and asserts that both give
//! the same report, memory image and register state — and the same
//! `ExecutionTimeout` at tight cycle budgets.

use proptest::prelude::*;
use std::collections::HashMap;
use vlsi_ap::datapath::{Datapath, NodeSpec};
use vlsi_ap::{ApError, ExecutionReport, SoaLane};
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, MemoryBlock, ObjectId, ObjectKind,
    Operation, Word, PHYS_REGISTERS,
};
use vlsi_prng::Prng;

const LHS: usize = 0;
const RHS: usize = 1;
const PRED: usize = 2;

/// One node of the reference graph: static description plus run state.
struct RefNode {
    id: ObjectId,
    op: Operation,
    imm: Word,
    regs: [Word; PHYS_REGISTERS],
    wired: [bool; 3],
    tap: bool,
    inputs: [Option<Word>; 3],
    inflight: Option<(u32, Word)>,
    out: Option<Word>,
    produced: u64,
    exhausted: bool,
    firings: u64,
}

/// The visit-every-node stepper.
struct Reference {
    nodes: Vec<RefNode>,
    succs: Vec<Vec<(usize, usize)>>,
    release_order: Vec<ObjectId>,
    release_tokens: u64,
}

impl Reference {
    /// Builds the graph: one node per working-set object; the first
    /// element naming a sink wires a port, later ones only fill ports
    /// still unconnected.
    fn build(stream: &GlobalConfigStream, specs: &HashMap<ObjectId, NodeSpec>) -> Reference {
        let order = stream.working_set();
        let index: HashMap<ObjectId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut nodes: Vec<RefNode> = order
            .iter()
            .map(|id| {
                let s = &specs[id];
                RefNode {
                    id: s.id,
                    op: s.cfg.op,
                    imm: s.cfg.imm,
                    regs: s.regs,
                    wired: [false; 3],
                    tap: false,
                    inputs: [None; 3],
                    inflight: None,
                    out: None,
                    produced: 0,
                    exhausted: false,
                    firings: 0,
                }
            })
            .collect();
        let mut succs = vec![Vec::new(); nodes.len()];
        for e in stream.elements() {
            let sink = index[&e.sink];
            for (port, src) in [(LHS, e.src_lhs), (RHS, e.src_rhs), (PRED, e.src_pred)] {
                if let Some(src) = src {
                    if !nodes[sink].wired[port] {
                        nodes[sink].wired[port] = true;
                        succs[index[&src]].push((sink, port));
                    }
                }
            }
        }
        for (node, s) in nodes.iter_mut().zip(&succs) {
            node.tap = s.is_empty() && !node.op.is_memory_op();
        }
        let mut r = Reference {
            nodes,
            succs,
            release_order: Vec::new(),
            release_tokens: 0,
        };
        r.fire_release_tokens();
        r
    }

    /// Release tokens: sources first, every node after a token from
    /// each predecessor, nodes on cycles last.
    fn fire_release_tokens(&mut self) {
        let n = self.nodes.len();
        let mut pending: Vec<usize> = self
            .nodes
            .iter()
            .map(|node| node.wired.iter().filter(|&&w| w).count())
            .collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            self.release_order.push(self.nodes[i].id);
            self.release_tokens += 1;
            for &(s, _) in &self.succs[i] {
                self.release_tokens += 1;
                pending[s] -= 1;
                if pending[s] == 0 {
                    queue.push(s);
                }
            }
        }
        for (i, &p) in pending.iter().enumerate() {
            if p > 0 {
                self.release_order.push(self.nodes[i].id);
            }
        }
    }

    /// The live register state, in node order.
    fn regs(&self) -> Vec<(ObjectId, [Word; PHYS_REGISTERS])> {
        self.nodes.iter().map(|n| (n.id, n.regs)).collect()
    }

    /// One run: transient state cleared, registers carried over.
    fn run(
        &mut self,
        memory: &mut [MemoryBlock],
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<ExecutionReport, ApError> {
        for node in &mut self.nodes {
            node.inputs = [None; 3];
            node.inflight = None;
            node.out = None;
            node.produced = 0;
            node.exhausted = false;
            node.firings = 0;
        }
        let n = self.nodes.len();
        let mut tap_vals: Vec<Vec<Word>> = vec![Vec::new(); n];
        let mut report = ExecutionReport::default();
        for _ in 0..max_cycles {
            let mut activity = false;
            // Phase 1: deliver, every node in index order.
            for (i, taps) in tap_vals.iter_mut().enumerate() {
                let Some(v) = self.nodes[i].out else { continue };
                if self.succs[i].is_empty() {
                    if self.nodes[i].tap && (taps.len() as u64) < tap_limit {
                        taps.push(v);
                        activity = true;
                    }
                    self.nodes[i].out = None;
                    self.nodes[i].produced += 1;
                    continue;
                }
                if self.succs[i]
                    .iter()
                    .all(|&(s, p)| self.nodes[s].inputs[p].is_none())
                {
                    for &(s, p) in &self.succs[i] {
                        self.nodes[s].inputs[p] = Some(v);
                    }
                    self.nodes[i].out = None;
                    self.nodes[i].produced += 1;
                    activity = true;
                }
            }
            // Phase 2: retire, every node.
            for node in &mut self.nodes {
                let Some((rem, v)) = node.inflight else {
                    continue;
                };
                if rem <= 1 {
                    node.inflight = None;
                    node.out = Some(v);
                } else {
                    node.inflight = Some((rem - 1, v));
                }
                activity = true;
            }
            // Phase 3: fire, every idle node in index order.
            for i in 0..n {
                let node = &self.nodes[i];
                let busy = node.inflight.is_some() || node.out.is_some() || node.exhausted;
                if !busy && self.try_fire(memory, i, &mut report)? {
                    activity = true;
                }
            }
            report.cycles += 1;
            if !activity {
                report.drained = true;
                for (i, node) in self.nodes.iter().enumerate() {
                    if node.tap {
                        report
                            .taps
                            .insert(node.id, std::mem::take(&mut tap_vals[i]));
                    }
                    if node.firings > 0 {
                        report.node_firings.push((node.id, node.firings));
                    }
                }
                report.release_tokens = self.release_tokens;
                report.release_order = self.release_order.clone();
                return Ok(report);
            }
        }
        Err(ApError::ExecutionTimeout {
            cycles: report.cycles,
        })
    }

    fn try_fire(
        &mut self,
        memory: &mut [MemoryBlock],
        i: usize,
        report: &mut ExecutionReport,
    ) -> Result<bool, ApError> {
        let node = &mut self.nodes[i];
        let streaming = !node.wired[LHS];
        let result = match node.op {
            Operation::Const => {
                if node.produced >= node.regs[2].as_u64().max(1) {
                    node.exhausted = true;
                    return Ok(false);
                }
                Some(node.imm)
            }
            Operation::Load => {
                let addr = if streaming {
                    let limit = node.regs[2].as_u64();
                    if limit != 0 && node.produced >= limit {
                        node.exhausted = true;
                        return Ok(false);
                    }
                    node.regs[0].as_u64()
                } else {
                    let Some(a) = node.inputs[LHS].take() else {
                        return Ok(false);
                    };
                    node.regs[0].as_u64().wrapping_add(a.as_u64())
                };
                let v = memory
                    .get_mut(node.regs[1].as_u64() as usize)
                    .ok_or(ApError::UndefinedSource(node.id))?
                    .load(addr)?;
                if streaming {
                    node.regs[0] = Word(addr + 1);
                }
                report.loads += 1;
                Some(v)
            }
            Operation::Store => {
                let Some(data) = node.inputs[RHS] else {
                    return Ok(false);
                };
                let addr = if streaming {
                    let a = node.regs[0].as_u64();
                    node.regs[0] = Word(a + 1);
                    a
                } else {
                    let Some(a) = node.inputs[LHS].take() else {
                        return Ok(false);
                    };
                    a.as_u64()
                };
                node.inputs[RHS] = None;
                memory
                    .get_mut(node.regs[1].as_u64() as usize)
                    .ok_or(ApError::UndefinedSource(node.id))?
                    .store(addr, data)?;
                node.produced += 1;
                report.stores += 1;
                None
            }
            Operation::SteerTrue | Operation::SteerFalse => {
                let (Some(v), Some(p)) = (node.inputs[LHS], node.inputs[PRED]) else {
                    return Ok(false);
                };
                node.inputs[LHS] = None;
                node.inputs[PRED] = None;
                (p.as_bool() == (node.op == Operation::SteerTrue)).then_some(v)
            }
            Operation::Merge => {
                let Some(v) = node.inputs[LHS].take().or_else(|| node.inputs[RHS].take()) else {
                    return Ok(false);
                };
                Some(v)
            }
            op => {
                let arity = op.arity();
                if (arity >= 1 && node.inputs[LHS].is_none())
                    || (arity >= 2 && node.inputs[RHS].is_none())
                {
                    return Ok(false);
                }
                let lhs = if arity >= 1 {
                    node.inputs[LHS].take()
                } else {
                    None
                };
                let rhs = if arity >= 2 {
                    node.inputs[RHS].take()
                } else {
                    None
                };
                let v = op
                    .eval(
                        lhs.unwrap_or(Word::ZERO),
                        rhs.unwrap_or(Word::ZERO),
                        node.imm,
                    )
                    .expect("context-free operation must evaluate");
                Some(v)
            }
        };
        if let Some(v) = result {
            node.inflight = Some((node.op.latency(), v));
        }
        node.firings += 1;
        report.firings += 1;
        Ok(true)
    }
}

/// Memory blocks of every random datapath: blocks 0 and 1 hold loadable
/// words, block 2 is the shared store target.
const BLOCKS: u64 = 3;
const SHARED_BLOCK: u64 = 2;

/// The value operations a random compute node draws from: single-cycle
/// ALU ops, IMul (3 cycles) and IDiv (12), steering and merging.
const COMPUTE_OPS: [Operation; 13] = [
    Operation::Pass,
    Operation::AddImm,
    Operation::MulImm,
    Operation::INot,
    Operation::IAdd,
    Operation::IAnd,
    Operation::IMul,
    Operation::IDiv,
    Operation::ICmpGt,
    Operation::ICmpLt,
    Operation::SteerTrue,
    Operation::SteerFalse,
    Operation::Merge,
];

/// A random datapath: node specs, the stream chaining them, and its
/// memory image.
struct RandomDatapath {
    specs: HashMap<ObjectId, NodeSpec>,
    stream: GlobalConfigStream,
    memory: Vec<MemoryBlock>,
}

fn spec(id: u32, op: Operation, imm: u64, kind: ObjectKind, regs: [u64; 3]) -> NodeSpec {
    let mut r = [Word::ZERO; PHYS_REGISTERS];
    for (slot, v) in r.iter_mut().zip(regs) {
        *slot = Word(v);
    }
    NodeSpec {
        id: ObjectId(id),
        cfg: LocalConfig::with_imm(op, Word(imm)),
        kind,
        regs: r,
    }
}

/// Draws a datapath. One in four spans more than 64 nodes, so the
/// engine's live-node sets run over several words. Node `i`'s operands
/// come from earlier nodes, except for an occasional back edge (a
/// cycle). Sources are constants with stream limits and streaming
/// loads; sinks include addressed loads, addressed stores, and
/// streaming stores that all write one shared block.
fn random_datapath(rng: &mut Prng) -> RandomDatapath {
    let n = if rng.gen_bool(0.25) {
        rng.gen_range(65..160usize)
    } else {
        rng.gen_range(1..24usize)
    };
    let mut specs = HashMap::new();
    let mut elements = Vec::new();
    let pick = |rng: &mut Prng, i: usize| -> ObjectId {
        if i == 0 || rng.gen_bool(0.04) {
            ObjectId(rng.gen_range(0..n as u32))
        } else {
            ObjectId(rng.gen_range(0..i as u32))
        }
    };
    for i in 0..n {
        let id = i as u32;
        let sink = ObjectId(id);
        let roll = if i == 0 { 0 } else { rng.gen_range(0..20u32) };
        let (s, element) = match roll {
            // Constant: one-shot or a stream of up to 6 tokens.
            0..=2 => {
                let limit = rng.gen_range(0..7u64);
                let s = spec(
                    id,
                    Operation::Const,
                    rng.gen_range(0..40u64),
                    ObjectKind::Compute,
                    [0, 0, limit],
                );
                (s, None)
            }
            // Streaming load.
            3 | 4 => {
                let regs = [
                    rng.gen_range(0..8u64),
                    rng.gen_range(0..2u64),
                    rng.gen_range(1..10u64),
                ];
                (spec(id, Operation::Load, 0, ObjectKind::Memory, regs), None)
            }
            // Addressed load: base + address token.
            5 => {
                let regs = [rng.gen_range(0..16u64), rng.gen_range(0..BLOCKS), 0];
                let e = GlobalConfigElement::unary(sink, pick(rng, i));
                (
                    spec(id, Operation::Load, 0, ObjectKind::Memory, regs),
                    Some(e),
                )
            }
            // Streaming store into the shared block.
            6 | 7 => {
                let regs = [rng.gen_range(0..24u64), SHARED_BLOCK, 0];
                let e = GlobalConfigElement {
                    sink,
                    src_lhs: None,
                    src_rhs: Some(pick(rng, i)),
                    src_pred: None,
                };
                (
                    spec(id, Operation::Store, 0, ObjectKind::Memory, regs),
                    Some(e),
                )
            }
            // Addressed store.
            8 => {
                let e = GlobalConfigElement::binary(sink, pick(rng, i), pick(rng, i));
                let s = spec(
                    id,
                    Operation::Store,
                    0,
                    ObjectKind::Memory,
                    [0, SHARED_BLOCK, 0],
                );
                (s, Some(e))
            }
            // Compute.
            _ => {
                let op = COMPUTE_OPS[rng.gen_range(0..COMPUTE_OPS.len())];
                let e = if op.uses_predicate() {
                    GlobalConfigElement::unary(sink, pick(rng, i)).with_pred(pick(rng, i))
                } else if op.arity() == 2 {
                    GlobalConfigElement::binary(sink, pick(rng, i), pick(rng, i))
                } else {
                    GlobalConfigElement::unary(sink, pick(rng, i))
                };
                let s = spec(id, op, rng.gen_range(0..8u64), ObjectKind::Compute, [0; 3]);
                (s, Some(e))
            }
        };
        specs.insert(sink, s);
        elements.push(element.unwrap_or_else(|| GlobalConfigElement::nullary(sink)));
        // Now and then a second element names the same sink: it may only
        // fill ports the first left unwired.
        if i > 0 && rng.gen_bool(0.05) {
            elements.push(GlobalConfigElement::binary(
                sink,
                pick(rng, i),
                pick(rng, i),
            ));
        }
    }
    // Shuffle the element order a little, so node order is not id order.
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..elements.len());
        let b = rng.gen_range(0..elements.len());
        elements.swap(a, b);
    }
    let mut memory: Vec<MemoryBlock> = (0..BLOCKS).map(|_| MemoryBlock::new()).collect();
    for block in &mut memory[..2] {
        for addr in 0..32 {
            block.store(addr, Word(rng.gen_range(0..100u64))).unwrap();
        }
    }
    RandomDatapath {
        specs,
        stream: elements.into_iter().collect(),
        memory,
    }
}

/// Runs the engine and the reference on the same datapath, twice in a
/// row (the second run starts from the registers the first left), and
/// asserts equal outcomes, memory images and register state.
fn check_equivalent(
    dp: &RandomDatapath,
    tap_limit: u64,
    max_cycles: u64,
) -> Result<ExecutionReport, ApError> {
    let engine_dp = Datapath::build(&dp.stream, |id| dp.specs.get(&id).cloned()).unwrap();
    let mut reference = Reference::build(&dp.stream, &dp.specs);
    let mut lane = SoaLane::new(engine_dp, dp.memory.clone());
    let mut ref_memory = dp.memory.clone();
    let mut first = None;
    for round in 0..2 {
        lane.run(tap_limit, max_cycles);
        let (engine_dp, memory, outcome) = lane.finish();
        let want = reference.run(&mut ref_memory, tap_limit, max_cycles);
        assert_eq!(outcome, want, "round {round}: report");
        assert!(memory == ref_memory, "round {round}: memory image");
        let regs: Vec<_> = engine_dp.specs().map(|s| (s.id, s.regs)).collect();
        assert_eq!(regs, reference.regs(), "round {round}: registers");
        first.get_or_insert(outcome);
        lane = SoaLane::new(engine_dp, memory);
    }
    first.expect("two rounds ran")
}

proptest! {
    /// The live-node engine equals the visit-every-node reference on
    /// random datapaths, drained, failed and timed out alike. Each case
    /// draws eight datapaths.
    #[test]
    fn engine_matches_the_reference_stepper(seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..8 {
            let dp = random_datapath(&mut rng);
            let tap_limit = rng.gen_range(0..4u64);
            let Ok(report) = check_equivalent(&dp, tap_limit, 5_000) else {
                continue;
            };
            let cycles = report.cycles;
            // Tight budgets: below the drain count both must stop with
            // a timeout at the budget; at it, both drain the same way.
            for budget in [1, 2, cycles / 2, cycles.saturating_sub(1), cycles] {
                let outcome = check_equivalent(&dp, tap_limit, budget);
                if budget < cycles {
                    prop_assert_eq!(outcome, Err(ApError::ExecutionTimeout { cycles: budget }));
                } else {
                    prop_assert_eq!(outcome, Ok(report.clone()));
                }
            }
        }
    }
}

#[test]
fn tight_budgets_time_out_at_the_budget_in_both_steppers() {
    // A bounded stream: const(limit 6) -> IMul (3 cycles) -> IDiv (12)
    // -> tap. Below its drain count both steppers report the budget.
    let stream: GlobalConfigStream = [
        GlobalConfigElement::binary(ObjectId(1), ObjectId(0), ObjectId(0)),
        GlobalConfigElement::binary(ObjectId(2), ObjectId(1), ObjectId(0)),
    ]
    .into_iter()
    .collect();
    let specs: HashMap<ObjectId, NodeSpec> = [
        spec(0, Operation::Const, 7, ObjectKind::Compute, [0, 0, 6]),
        spec(1, Operation::IMul, 0, ObjectKind::Compute, [0; 3]),
        spec(2, Operation::IDiv, 0, ObjectKind::Compute, [0; 3]),
    ]
    .into_iter()
    .map(|s| (s.id, s))
    .collect();
    let dp = RandomDatapath {
        specs,
        stream,
        memory: Vec::new(),
    };
    let cycles = check_equivalent(&dp, 10, 10_000).expect("drains").cycles;
    for budget in 0..cycles {
        assert_eq!(
            check_equivalent(&dp, 10, budget),
            Err(ApError::ExecutionTimeout { cycles: budget })
        );
    }
}

#[test]
fn random_datapaths_reach_every_outcome() {
    // The oracle is only as good as what the generator reaches: drained
    // runs that store, wide (multi-word) drained runs, memory faults and
    // budget timeouts (a token circling a cycle) must all occur.
    let mut rng = Prng::seed_from_u64(2012);
    let (mut storing, mut wide, mut faults, mut timeouts) = (0, 0, 0, 0);
    for _ in 0..256 {
        let dp = random_datapath(&mut rng);
        match check_equivalent(&dp, 2, 5_000) {
            Ok(r) => {
                storing += usize::from(r.stores > 0);
                wide += usize::from(r.node_firings.len() > 64);
            }
            Err(ApError::ExecutionTimeout { .. }) => timeouts += 1,
            Err(_) => faults += 1,
        }
    }
    assert!(storing >= 100, "{storing} drained runs stored");
    assert!(wide >= 14, "{wide} drained runs fired over 64 nodes");
    assert!(faults >= 7, "{faults} runs faulted");
    assert!(timeouts >= 1, "{timeouts} runs timed out");
}
