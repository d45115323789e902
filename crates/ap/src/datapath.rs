//! A configured datapath in the flat form its engine runs.
//!
//! After acquirement the objects "are free from control" (§2.2): data
//! simply flows through the chained operators. [`Datapath::build`]
//! turns a configuration stream plus the resident objects into that
//! chained graph, flattened once into parallel arrays — ids, ops,
//! immediates, registers, wired-port flags, tap flags — and a CSR
//! successor list. The resident processor keeps this form between
//! runs: register state (memory stream pointers) advances in place and
//! persists across executions, while everything transient lives only
//! for one run of the [`SoaLane`](crate::soa::SoaLane) engine.

use crate::error::ApError;
use crate::metrics::ApMetrics;
use std::collections::HashMap;
use vlsi_object::{
    GlobalConfigStream, LocalConfig, ObjectId, ObjectKind, Operation, Word, PHYS_REGISTERS,
};

/// Static description of one datapath node, assembled from a bound object.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Object identity.
    pub id: ObjectId,
    /// Local configuration (operation + immediate).
    pub cfg: LocalConfig,
    /// Object species.
    pub kind: ObjectKind,
    /// Register contents at execution start. For memory objects:
    /// `regs[0]` = stream pointer, `regs[1]` = memory-block index,
    /// `regs[2]` = stream length (0 = unbounded).
    pub regs: [Word; PHYS_REGISTERS],
}

/// Per-port input latch indices.
pub(crate) const LHS: usize = 0;
pub(crate) const RHS: usize = 1;
pub(crate) const PRED: usize = 2;

/// Outcome of one datapath run.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Operation firings.
    pub firings: u64,
    /// Words read from memory blocks.
    pub loads: u64,
    /// Words written to memory blocks.
    pub stores: u64,
    /// Values collected at taps (successor-less compute nodes), per object.
    pub taps: HashMap<ObjectId, Vec<Word>>,
    /// Firings per object — the utilisation profile of the datapath
    /// (the busiest object bounds the stream rate).
    pub node_firings: HashMap<ObjectId, u64>,
    /// Whether the datapath reached quiescence (nothing in flight, nothing
    /// deliverable) rather than the cycle budget.
    pub drained: bool,
    /// Release tokens fired while freeing the datapath.
    pub release_tokens: u64,
    /// Object release order (sources first), as driven by release tokens.
    pub release_order: Vec<ObjectId>,
}

/// A configured datapath: one node per referenced object, in
/// working-set order, as parallel arrays plus a CSR successor list.
#[derive(Clone, Debug, Default)]
pub struct Datapath {
    pub(crate) ids: Vec<ObjectId>,
    kinds: Vec<ObjectKind>,
    pub(crate) ops: Vec<Operation>,
    pub(crate) imms: Vec<Word>,
    /// Live register state; memory stream pointers advance across runs.
    pub(crate) regs: Vec<[Word; PHYS_REGISTERS]>,
    /// Which input ports are wired (stream detection, release counts).
    pub(crate) has_src: Vec<[bool; 3]>,
    /// CSR successor offsets, `len + 1` entries.
    succ_start: Vec<u32>,
    /// CSR successor payload: `(node index, port)`.
    succ_list: Vec<(u32, u8)>,
    /// Successor-less compute nodes whose outputs a run collects.
    pub(crate) is_tap: Vec<bool>,
}

impl Datapath {
    /// Builds the dataflow graph for `stream`, resolving each referenced
    /// object through `resolve` (typically a closure over the object stack
    /// and the memory objects).
    ///
    /// Port wiring: the first element naming a sink wires its ports;
    /// later elements only fill ports still unconnected.
    pub fn build(
        stream: &GlobalConfigStream,
        mut resolve: impl FnMut(ObjectId) -> Option<NodeSpec>,
    ) -> Result<Datapath, ApError> {
        if stream.is_empty() {
            return Err(ApError::EmptyDatapath);
        }
        // First pass: materialise nodes for every referenced object.
        let working_set = stream.working_set();
        let index: HashMap<ObjectId, usize> = working_set
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let specs = working_set
            .into_iter()
            .map(|id| resolve(id).ok_or(ApError::UndefinedSource(id)))
            .collect::<Result<Vec<NodeSpec>, _>>()?;
        let mut dp = Datapath {
            ids: specs.iter().map(|s| s.id).collect(),
            kinds: specs.iter().map(|s| s.kind).collect(),
            ops: specs.iter().map(|s| s.cfg.op).collect(),
            imms: specs.iter().map(|s| s.cfg.imm).collect(),
            regs: specs.iter().map(|s| s.regs).collect(),
            ..Datapath::default()
        };
        // Second pass: wire ports.
        let n = dp.ids.len();
        dp.has_src = vec![[false; 3]; n];
        let mut succs: Vec<Vec<(u32, u8)>> = vec![Vec::new(); n];
        for e in stream.elements() {
            let sink = index[&e.sink];
            let ports = [(LHS, e.src_lhs), (RHS, e.src_rhs), (PRED, e.src_pred)];
            for (port, src) in ports {
                let Some(src_id) = src else { continue };
                if !dp.has_src[sink][port] {
                    dp.has_src[sink][port] = true;
                    succs[index[&src_id]].push((sink as u32, port as u8));
                }
            }
        }
        // Flatten the successor lists.
        dp.succ_start.reserve(n + 1);
        for (op, s) in dp.ops.iter().zip(&succs) {
            dp.succ_start.push(dp.succ_list.len() as u32);
            dp.succ_list.extend_from_slice(s);
            dp.is_tap.push(s.is_empty() && !op.is_memory_op());
        }
        dp.succ_start.push(dp.succ_list.len() as u32);
        Ok(dp)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the datapath has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Node `i`'s successors as `(node index, port)`.
    pub(crate) fn succs(&self, i: usize) -> &[(u32, u8)] {
        &self.succ_list[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// IDs of tap nodes (compute nodes with no successors) whose outputs
    /// the report collects.
    pub fn tap_ids(&self) -> Vec<ObjectId> {
        self.ids
            .iter()
            .zip(&self.is_tap)
            .filter(|(_, &tap)| tap)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The nodes with their live register state (memory stream pointers
    /// advance across runs), in node order.
    pub fn specs(&self) -> impl Iterator<Item = NodeSpec> + '_ {
        (0..self.len()).map(|i| NodeSpec {
            id: self.ids[i],
            cfg: LocalConfig::with_imm(self.ops[i], self.imms[i]),
            kind: self.kinds[i],
            regs: self.regs[i],
        })
    }

    /// Folds a report into the processor metrics.
    pub fn report_metrics(report: &ExecutionReport, m: &mut ApMetrics) {
        m.exec_cycles += report.cycles;
        m.firings += report.firings;
        m.loads += report.loads;
        m.stores += report.stores;
        m.release_tokens += report.release_tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaLane;
    use vlsi_object::{GlobalConfigElement, MemoryBlock};

    fn compute_spec(id: u32, op: Operation, imm: u64) -> NodeSpec {
        NodeSpec {
            id: ObjectId(id),
            cfg: LocalConfig::with_imm(op, Word(imm)),
            kind: ObjectKind::Compute,
            regs: [Word::ZERO; PHYS_REGISTERS],
        }
    }

    fn mem_spec(id: u32, op: Operation, base: u64, block: u64, len: u64) -> NodeSpec {
        let mut regs = [Word::ZERO; PHYS_REGISTERS];
        regs[0] = Word(base);
        regs[1] = Word(block);
        regs[2] = Word(len);
        NodeSpec {
            id: ObjectId(id),
            cfg: LocalConfig::op(op),
            kind: ObjectKind::Memory,
            regs,
        }
    }

    /// Runs `dp` once over `memory`; returns the datapath (with its
    /// advanced registers), the memory, and the report.
    fn run(
        dp: Datapath,
        memory: Vec<MemoryBlock>,
        tap_limit: u64,
        max_cycles: u64,
    ) -> (Datapath, Vec<MemoryBlock>, ExecutionReport) {
        let mut lane = SoaLane::new(dp, memory);
        lane.run(tap_limit, max_cycles);
        let (dp, memory, outcome) = lane.finish();
        (dp, memory, outcome.unwrap())
    }

    /// const(5) -> addimm(+3) -> tap
    #[test]
    fn constant_through_addimm() {
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 5)),
            1 => Some(compute_spec(1, Operation::AddImm, 3)),
            _ => None,
        })
        .unwrap();
        let (_, _, report) = run(dp, Vec::new(), 1, 10_000);
        assert!(report.drained);
        assert_eq!(report.taps[&ObjectId(1)], vec![Word(8)]);
    }

    /// Streaming: load 8 words, double them, store them back.
    #[test]
    fn load_double_store_stream() {
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)), // mul <- load
            GlobalConfigElement {
                sink: ObjectId(2),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            }, // store data <- mul
        ]
        .into_iter()
        .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem_spec(0, Operation::Load, 0, 0, 8)),
            1 => Some(compute_spec(1, Operation::MulImm, 2)),
            2 => Some(mem_spec(2, Operation::Store, 100, 0, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        for i in 0..8 {
            mem[0].store(i, Word(i + 1)).unwrap();
        }
        let (_, mem, report) = run(dp, mem, 0, 10_000);
        assert!(report.drained);
        assert_eq!(report.loads, 8);
        assert_eq!(report.stores, 8);
        for i in 0..8u64 {
            assert_eq!(mem[0].peek(100 + i).unwrap(), Word((i + 1) * 2));
        }
    }

    /// Figure 7 in miniature: if (x > y) z = x+1 else z = y+2.
    #[test]
    fn conditional_steering() {
        // Objects: 0=const x, 1=const y, 2=cmp(x>y), 3=steerT(x), 4=steerF(y),
        //          5=add1, 6=add2, 7=merge -> tap
        let stream: GlobalConfigStream = [
            GlobalConfigElement::binary(ObjectId(2), ObjectId(0), ObjectId(1)),
            GlobalConfigElement::unary(ObjectId(3), ObjectId(0)).with_pred(ObjectId(2)),
            GlobalConfigElement::unary(ObjectId(4), ObjectId(1)).with_pred(ObjectId(2)),
            GlobalConfigElement::unary(ObjectId(5), ObjectId(3)),
            GlobalConfigElement::unary(ObjectId(6), ObjectId(4)),
            GlobalConfigElement::binary(ObjectId(7), ObjectId(5), ObjectId(6)),
        ]
        .into_iter()
        .collect();
        let build = |x: u64, y: u64| {
            Datapath::build(&stream, move |id| match id.0 {
                0 => Some(compute_spec(0, Operation::Const, x)),
                1 => Some(compute_spec(1, Operation::Const, y)),
                2 => Some(compute_spec(2, Operation::ICmpGt, 0)),
                3 => Some(compute_spec(3, Operation::SteerTrue, 0)),
                4 => Some(compute_spec(4, Operation::SteerFalse, 0)),
                5 => Some(compute_spec(5, Operation::AddImm, 1)),
                6 => Some(compute_spec(6, Operation::AddImm, 2)),
                7 => Some(compute_spec(7, Operation::Merge, 0)),
                _ => None,
            })
            .unwrap()
        };
        // x=9 > y=4: z = x+1 = 10.
        let (_, _, r) = run(build(9, 4), Vec::new(), 1, 10_000);
        assert_eq!(r.taps[&ObjectId(7)], vec![Word(10)]);
        // x=2 < y=5: z = y+2 = 7.
        let (_, _, r) = run(build(2, 5), Vec::new(), 1, 10_000);
        assert_eq!(r.taps[&ObjectId(7)], vec![Word(7)]);
    }

    #[test]
    fn fanout_broadcasts_to_all_successors() {
        // const -> (addimm1, addimm2), both taps.
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(0)),
        ]
        .into_iter()
        .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 10)),
            1 => Some(compute_spec(1, Operation::AddImm, 1)),
            2 => Some(compute_spec(2, Operation::AddImm, 2)),
            _ => None,
        })
        .unwrap();
        assert_eq!(dp.tap_ids(), vec![ObjectId(1), ObjectId(2)]);
        let (_, _, r) = run(dp, Vec::new(), 1, 10_000);
        assert_eq!(r.taps[&ObjectId(1)], vec![Word(11)]);
        assert_eq!(r.taps[&ObjectId(2)], vec![Word(12)]);
    }

    #[test]
    fn release_tokens_follow_dependencies() {
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
        ]
        .into_iter()
        .collect();
        let dp = Datapath::build(&stream, |id| {
            Some(compute_spec(
                id.0,
                if id.0 == 0 {
                    Operation::Const
                } else {
                    Operation::Pass
                },
                1,
            ))
        })
        .unwrap();
        let (_, _, r) = run(dp, Vec::new(), 1, 10_000);
        assert_eq!(r.release_order, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        // tokens: 3 node firings + 2 edge deliveries
        assert_eq!(r.release_tokens, 5);
    }

    #[test]
    fn empty_stream_rejected() {
        let stream = GlobalConfigStream::new();
        assert!(matches!(
            Datapath::build(&stream, |_| None),
            Err(ApError::EmptyDatapath)
        ));
    }

    #[test]
    fn unresolved_object_rejected() {
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        assert!(matches!(
            Datapath::build(&stream, |_| None),
            Err(ApError::UndefinedSource(_))
        ));
    }

    #[test]
    fn timeout_on_starved_datapath() {
        // A binary op with only one producer never fires: the const
        // fills the add's lhs latch once, then everything stalls. The
        // run drains (it does not time out) with an empty tap.
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 1)),
            1 => Some(compute_spec(1, Operation::IAdd, 0)), // rhs never arrives
            _ => None,
        })
        .unwrap();
        let (_, _, r) = run(dp, Vec::new(), 1, 1_000);
        assert!(r.drained);
        assert!(r.taps[&ObjectId(1)].is_empty());
    }

    #[test]
    fn unbounded_stream_times_out_at_the_budget() {
        // An unbounded const into a tap with an enormous limit never
        // drains: the run fails typed, after exactly the budget.
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => {
                let mut s = compute_spec(0, Operation::Const, 5);
                s.regs[2] = Word(u64::MAX); // effectively unbounded
                Some(s)
            }
            1 => Some(compute_spec(1, Operation::Pass, 0)),
            _ => None,
        })
        .unwrap();
        let mut lane = SoaLane::new(dp, Vec::new());
        lane.run(u64::MAX, 50);
        let (_, _, outcome) = lane.finish();
        assert_eq!(
            outcome.unwrap_err(),
            ApError::ExecutionTimeout { cycles: 50 }
        );
    }

    #[test]
    fn node_firings_profile_the_datapath() {
        // load(8) -> mul -> store: every stage fires 8 times.
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement {
                sink: ObjectId(2),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            },
        ]
        .into_iter()
        .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem_spec(0, Operation::Load, 0, 0, 8)),
            1 => Some(compute_spec(1, Operation::MulImm, 2)),
            2 => Some(mem_spec(2, Operation::Store, 100, 0, 0)),
            _ => None,
        })
        .unwrap();
        let (_, _, report) = run(dp, vec![MemoryBlock::new()], 0, 10_000);
        for id in [0u32, 1, 2] {
            assert_eq!(report.node_firings[&ObjectId(id)], 8, "obj{id}");
        }
        assert_eq!(report.node_firings.values().sum::<u64>(), report.firings);
    }

    #[test]
    fn stream_load_respects_limit_and_pointer() {
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(mem_spec(0, Operation::Load, 5, 0, 3)),
            1 => Some(compute_spec(1, Operation::Pass, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        for i in 0..10 {
            mem[0].store(i, Word(100 + i)).unwrap();
        }
        let (dp, mem, r) = run(dp, mem, 10, 10_000);
        assert_eq!(r.taps[&ObjectId(1)], vec![Word(105), Word(106), Word(107)]);
        // The stream pointer advanced past the consumed words, and a
        // second run of the resident datapath continues from there.
        let spec = dp.specs().find(|s| s.id == ObjectId(0)).unwrap();
        assert_eq!(spec.regs[0], Word(8));
        let (_, _, r) = run(dp, mem, 10, 10_000);
        assert_eq!(r.taps[&ObjectId(1)], vec![Word(108), Word(109), Word(0)]);
    }

    #[test]
    fn addressed_load_uses_address_tokens() {
        // const(7) -> load(base 0) -> tap : reads mem[7].
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
            GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
        ]
        .into_iter()
        .collect();
        let dp = Datapath::build(&stream, |id| match id.0 {
            0 => Some(compute_spec(0, Operation::Const, 7)),
            1 => Some(mem_spec(1, Operation::Load, 0, 0, 0)),
            2 => Some(compute_spec(2, Operation::Pass, 0)),
            _ => None,
        })
        .unwrap();
        let mut mem = vec![MemoryBlock::new()];
        mem[0].store(7, Word(0x77)).unwrap();
        let (_, _, r) = run(dp, mem, 1, 10_000);
        assert_eq!(r.taps[&ObjectId(2)], vec![Word(0x77)]);
    }
}
