//! Executing a basic-block-partitioned program across processors.
//!
//! Figure 7(b)–(d): each basic block becomes its own small processor;
//! the *preceding* processor writes the following block's live-in
//! variables into that processor's memory blocks while it is inactive,
//! then activates it; the condition computed by a branching block decides
//! which arm is activated. "By isolating the application to basic blocks
//! that are independent of each other regarding their control flow, this
//! example does not have the negative impact [of control flow on
//! reconfiguration]."
//!
//! [`BlockExecutor`] performs exactly that choreography on a [`VlsiChip`]:
//!
//! 1. **deploy** — gather one region per block, compile each block to a
//!    datapath whose live-ins are *memory loads* (one memory block per
//!    variable, address 0 — the mailbox), install the objects;
//! 2. **run** — walk the block graph: write the current block's live-ins
//!    into its mailboxes (only legal while it is inactive), activate it,
//!    configure + execute its datapath, read the output/condition taps,
//!    deactivate it, and follow the terminator.

use crate::chip::VlsiChip;
use crate::error::CoreError;
use crate::scaled::ProcessorId;
use std::collections::HashMap;
use std::sync::Arc;
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_workloads::program::{BasicBlock, BlockDatapath, Terminator};

/// A block's executable deployment.
#[derive(Clone, Debug)]
struct DeployedBlock {
    proc: ProcessorId,
    /// Shared with the AP on every activation's configure.
    stream: Arc<GlobalConfigStream>,
    /// live-in var → memory-block index holding its mailbox word.
    input_blocks: Vec<(String, usize)>,
    /// live-out var → tap (probe) object.
    output_taps: Vec<(String, ObjectId)>,
    /// condition tap, if the block branches.
    cond_tap: Option<ObjectId>,
}

/// Statistics of one partitioned-program run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Blocks executed (activations).
    pub blocks_executed: u64,
    /// Mailbox words written between processors.
    pub mailbox_writes: u64,
    /// Total datapath execution cycles across blocks.
    pub exec_cycles: u64,
    /// Total configuration cycles across blocks.
    pub config_cycles: u64,
}

/// Pipelining summary of a multi-dataset run (Figure 7(d)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineReport {
    /// Datasets pushed through the block pipeline.
    pub datasets: usize,
    /// Total cycles if datasets run strictly one after another.
    pub sequential_cycles: u64,
    /// Makespan when each block processor overlaps across datasets.
    pub pipelined_cycles: u64,
    /// `sequential / pipelined`.
    pub speedup: f64,
}

/// The (block index, execution cycles) sequence of one run.
type BlockTrace = Vec<(usize, u64)>;

/// Executes partitioned programs on a chip.
#[derive(Debug)]
pub struct BlockExecutor {
    blocks: Vec<BasicBlock>,
    deployed: Vec<Option<DeployedBlock>>,
}

impl BlockExecutor {
    /// Deploys `blocks` onto `chip`, gathering one 4-cluster processor per
    /// non-empty block wherever the allocator finds free clusters.
    pub fn deploy(
        chip: &mut VlsiChip,
        blocks: Vec<BasicBlock>,
    ) -> Result<BlockExecutor, CoreError> {
        let mut deployed = Vec::with_capacity(blocks.len());
        for block in &blocks {
            if block.assigns.is_empty() && block.cond.is_none() {
                deployed.push(None);
                continue;
            }
            let id = chip.gather_any(4)?.id;
            let dp = BlockDatapath::compile(block);
            let lowered = lower_block(&dp);
            chip.install(id, lowered.objects)?;
            deployed.push(Some(DeployedBlock {
                proc: id,
                stream: Arc::new(lowered.stream),
                input_blocks: lowered.input_blocks,
                output_taps: lowered.output_taps,
                cond_tap: lowered.cond_tap,
            }));
        }
        Ok(BlockExecutor { blocks, deployed })
    }

    /// Runs the program for one input environment; returns the final
    /// environment and run statistics.
    pub fn run(
        &self,
        chip: &mut VlsiChip,
        inputs: &HashMap<String, i64>,
    ) -> Result<(HashMap<String, i64>, RunStats), CoreError> {
        let (env, stats, _) = self.run_traced(chip, inputs)?;
        Ok((env, stats))
    }

    /// Runs the program for a sequence of input datasets and reports the
    /// pipelining opportunity of Figure 7(d): because every block is its
    /// own processor, dataset `i + 1` may enter a block as soon as dataset
    /// `i` has left it. Results are computed exactly (sequentially); the
    /// pipelined makespan is derived from the measured per-block cycles by
    /// a list schedule over block occupancy.
    pub fn run_pipelined(
        &self,
        chip: &mut VlsiChip,
        datasets: &[HashMap<String, i64>],
    ) -> Result<(Vec<HashMap<String, i64>>, PipelineReport), CoreError> {
        let mut results = Vec::with_capacity(datasets.len());
        let mut traces: Vec<BlockTrace> = Vec::with_capacity(datasets.len());
        let mut sequential = 0u64;
        for inputs in datasets {
            let (env, stats, trace) = self.run_traced(chip, inputs)?;
            sequential += stats.exec_cycles;
            traces.push(trace);
            results.push(env);
        }
        // List schedule: each block is a resource; a dataset's stage k
        // starts when both its previous stage and the block are free.
        let mut block_free: HashMap<usize, u64> = HashMap::new();
        let mut makespan = 0u64;
        for trace in &traces {
            let mut t = 0u64;
            for &(block, cycles) in trace {
                let free = block_free.get(&block).copied().unwrap_or(0);
                let start = t.max(free);
                let end = start + cycles;
                block_free.insert(block, end);
                t = end;
            }
            makespan = makespan.max(t);
        }
        let report = PipelineReport {
            datasets: datasets.len(),
            sequential_cycles: sequential,
            pipelined_cycles: makespan,
            speedup: if makespan == 0 {
                1.0
            } else {
                sequential as f64 / makespan as f64
            },
        };
        Ok((results, report))
    }

    /// `run`, additionally returning the executed (block, exec-cycles)
    /// trace.
    fn run_traced(
        &self,
        chip: &mut VlsiChip,
        inputs: &HashMap<String, i64>,
    ) -> Result<(HashMap<String, i64>, RunStats, BlockTrace), CoreError> {
        // Re-run `run`'s walk, keeping the per-block cycle trace.
        let mut env = inputs.clone();
        let mut stats = RunStats::default();
        let mut trace = Vec::new();
        let mut cur = 0usize;
        let mut steps = 0usize;
        loop {
            steps += 1;
            let block = self.blocks.get(cur).ok_or(CoreError::UnknownBlock(cur))?;
            // An acyclic walk enters each block at most once.
            if steps > self.blocks.len() {
                return Err(CoreError::BlockCycle { block: cur });
            }
            let mut cond_value = None;
            if let Some(d) = &self.deployed[cur] {
                for (var, mem_block) in &d.input_blocks {
                    let v = env.get(var).copied().unwrap_or(0);
                    chip.write_mailbox(d.proc, *mem_block, 0, &[Word::from_i64(v)])?;
                    stats.mailbox_writes += 1;
                }
                chip.activate(d.proc)?;
                let cfg = chip.configure(d.proc, Arc::clone(&d.stream))?;
                stats.config_cycles += cfg.cycles;
                let report = chip.execute(d.proc, 1, 1_000_000)?;
                stats.exec_cycles += report.cycles;
                stats.blocks_executed += 1;
                trace.push((cur, report.cycles));
                for (var, tap) in &d.output_taps {
                    let vals =
                        report
                            .taps
                            .get(tap)
                            .filter(|v| !v.is_empty())
                            .ok_or(CoreError::Ap(vlsi_ap::ApError::ExecutionTimeout {
                                cycles: report.cycles,
                            }))?;
                    env.insert(var.clone(), vals[0].as_i64());
                }
                cond_value = d
                    .cond_tap
                    .and_then(|tap| report.taps.get(&tap)?.first())
                    .map(|w| w.as_i64());
                chip.deactivate(d.proc)?;
            }
            match &block.terminator {
                Terminator::End => break,
                Terminator::Jump(n) => cur = *n,
                Terminator::Branch {
                    then_block,
                    else_block,
                } => {
                    let c = cond_value.ok_or(CoreError::MissingCondition { block: cur })?;
                    cur = if c != 0 { *then_block } else { *else_block };
                }
            }
        }
        Ok((env, stats, trace))
    }

    /// The processor gathered for block `i`, if the block is non-empty.
    pub fn processor_of(&self, i: usize) -> Option<ProcessorId> {
        self.deployed
            .get(i)
            .and_then(|d| d.as_ref())
            .map(|d| d.proc)
    }

    /// Number of processors deployed.
    pub fn processor_count(&self) -> usize {
        self.deployed.iter().flatten().count()
    }
}

/// Lowers a compiled block datapath to its AP form:
///
/// * every live-in `Const` becomes an *addressed memory load* from its own
///   mailbox memory block (address 0), driven by a zero-address constant;
/// * every live-out (and the condition) gains a `Pass` probe so its value
///   is always observable as a tap.
struct LoweredBlock {
    objects: Vec<LogicalObject>,
    stream: GlobalConfigStream,
    input_blocks: Vec<(String, usize)>,
    output_taps: Vec<(String, ObjectId)>,
    cond_tap: Option<ObjectId>,
}

fn lower_block(dp: &BlockDatapath) -> LoweredBlock {
    let mut objects = dp.objects.clone();
    let mut elements: Vec<GlobalConfigElement> = dp.stream.elements().to_vec();
    let mut next_id = objects.iter().map(|o| o.id.0).max().unwrap_or(0) + 1;
    let mut fresh = |objects: &mut Vec<LogicalObject>, cfg: LocalConfig| {
        let id = ObjectId(next_id);
        next_id += 1;
        objects.push(LogicalObject::compute(id, cfg));
        id
    };

    // Live-ins: Const -> addressed Load from mailbox block i.
    let mut input_blocks = Vec::with_capacity(dp.inputs.len());
    for (i, (var, const_id)) in dp.inputs.iter().enumerate() {
        let addr_obj = fresh(
            &mut objects,
            LocalConfig::with_imm(Operation::Const, Word(0)),
        );
        // Replace the const object with a memory load bound to block i.
        let obj = objects
            .iter_mut()
            .find(|o| o.id == *const_id)
            .expect("input object exists");
        *obj = LogicalObject::memory(*const_id, LocalConfig::op(Operation::Load)).with_init(vec![
            Word(0),
            Word(i as u64),
            Word(0),
        ]);
        // Rewrite its stream element from nullary to addressed.
        for e in elements.iter_mut() {
            if e.sink == *const_id && e.src_lhs.is_none() {
                e.src_lhs = Some(addr_obj);
            }
        }
        input_blocks.push((var.clone(), i));
    }

    // Probes for outputs and condition.
    let mut output_taps = Vec::with_capacity(dp.outputs.len());
    for (var, obj) in &dp.outputs {
        let probe = fresh(&mut objects, LocalConfig::op(Operation::Pass));
        elements.push(GlobalConfigElement::unary(probe, *obj));
        output_taps.push((var.clone(), probe));
    }
    let cond_tap = dp.cond.map(|c| {
        let probe = fresh(&mut objects, LocalConfig::op(Operation::Pass));
        elements.push(GlobalConfigElement::unary(probe, c));
        probe
    });

    LoweredBlock {
        objects,
        stream: elements.into_iter().collect(),
        input_blocks,
        output_taps,
        cond_tap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_topology::Cluster;
    use vlsi_workloads::figure7;
    use vlsi_workloads::program::{BinOp, Expr};

    /// `x = x + 1`, ending in `terminator`.
    fn increment(id: usize, cond: Option<Expr>, terminator: Terminator) -> BasicBlock {
        BasicBlock {
            id,
            assigns: vec![(
                "x".into(),
                Expr::bin(BinOp::Add, Expr::var("x"), Expr::Const(1)),
            )],
            cond,
            terminator,
        }
    }

    /// A block with no assignments (nothing is deployed for it).
    fn empty(id: usize, terminator: Terminator) -> BasicBlock {
        BasicBlock {
            id,
            assigns: Vec::new(),
            cond: None,
            terminator,
        }
    }

    fn run_blocks(blocks: Vec<BasicBlock>) -> Result<HashMap<String, i64>, CoreError> {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = BlockExecutor::deploy(&mut chip, blocks).unwrap();
        let inputs = HashMap::from([("x".to_string(), 1i64)]);
        exec.run(&mut chip, &inputs).map(|(env, _)| env)
    }

    #[test]
    fn back_edge_is_a_typed_error() {
        let blocks = vec![
            increment(0, None, Terminator::Jump(1)),
            empty(1, Terminator::Jump(0)),
        ];
        assert_eq!(run_blocks(blocks), Err(CoreError::BlockCycle { block: 0 }));
    }

    #[test]
    fn out_of_range_target_is_a_typed_error() {
        let jump = vec![increment(0, None, Terminator::Jump(5))];
        assert_eq!(run_blocks(jump), Err(CoreError::UnknownBlock(5)));
        let branch = vec![increment(
            0,
            Some(Expr::var("x")),
            Terminator::Branch {
                then_block: 1,
                else_block: 9,
            },
        )];
        assert_eq!(run_blocks(branch), Err(CoreError::UnknownBlock(1)));
        assert_eq!(run_blocks(Vec::new()), Err(CoreError::UnknownBlock(0)));
    }

    #[test]
    fn branch_without_a_condition_is_a_typed_error() {
        let branch = Terminator::Branch {
            then_block: 1,
            else_block: 1,
        };
        // A computing block with no condition expression.
        let blocks = vec![
            increment(0, None, branch.clone()),
            empty(1, Terminator::End),
        ];
        assert_eq!(
            run_blocks(blocks),
            Err(CoreError::MissingCondition { block: 0 })
        );
        // An empty block that branches.
        assert_eq!(
            run_blocks(vec![empty(0, branch), empty(1, Terminator::End)]),
            Err(CoreError::MissingCondition { block: 0 })
        );
    }

    #[test]
    fn figure7_runs_on_four_processors() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let blocks = figure7::program().partition();
        let exec = BlockExecutor::deploy(&mut chip, blocks).unwrap();
        assert_eq!(exec.processor_count(), 4);
        for (x, y) in [(9i64, 4i64), (2, 5), (5, 5), (-3, 7)] {
            let inputs = HashMap::from([("x".to_string(), x), ("y".to_string(), y)]);
            let (env, stats) = exec.run(&mut chip, &inputs).unwrap();
            assert_eq!(
                env[figure7::RESULT_VAR],
                figure7::reference(x, y),
                "x={x} y={y}"
            );
            // Entry + one arm + buffer = 3 activations per run.
            assert_eq!(stats.blocks_executed, 3);
            assert!(stats.mailbox_writes >= 3);
        }
    }

    #[test]
    fn condition_selects_the_arm() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let blocks = figure7::program().partition();
        let exec = BlockExecutor::deploy(&mut chip, blocks).unwrap();
        // Large x: then-arm (x+1). Large y: else-arm (y+2).
        let (env, _) = exec
            .run(
                &mut chip,
                &HashMap::from([("x".into(), 100i64), ("y".into(), 0i64)]),
            )
            .unwrap();
        assert_eq!(env["buff"], 101);
        let (env, _) = exec
            .run(
                &mut chip,
                &HashMap::from([("x".into(), 0i64), ("y".into(), 100i64)]),
            )
            .unwrap();
        assert_eq!(env["buff"], 102);
    }

    #[test]
    fn pipelined_execution_overlaps_blocks() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let blocks = figure7::program().partition();
        let exec = BlockExecutor::deploy(&mut chip, blocks).unwrap();
        let datasets: Vec<HashMap<String, i64>> = (0..8i64)
            .map(|i| HashMap::from([("x".to_string(), i), ("y".to_string(), 7 - i)]))
            .collect();
        let (results, report) = exec.run_pipelined(&mut chip, &datasets).unwrap();
        assert_eq!(results.len(), 8);
        for (i, env) in results.iter().enumerate() {
            let i = i as i64;
            assert_eq!(env[figure7::RESULT_VAR], figure7::reference(i, 7 - i));
        }
        assert_eq!(report.datasets, 8);
        // The pipeline overlaps: the makespan beats sequential execution.
        assert!(report.pipelined_cycles < report.sequential_cycles);
        assert!(report.speedup > 1.2, "speedup {}", report.speedup);
    }

    #[test]
    fn runs_are_repeatable() {
        // The deployment must be reusable: datapaths reconfigure cleanly
        // (object caching makes later configures cheaper, not wrong).
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let blocks = figure7::program().partition();
        let exec = BlockExecutor::deploy(&mut chip, blocks).unwrap();
        let inputs = HashMap::from([("x".to_string(), 3i64), ("y".to_string(), 9i64)]);
        let (a, _) = exec.run(&mut chip, &inputs).unwrap();
        let (b, _) = exec.run(&mut chip, &inputs).unwrap();
        assert_eq!(a, b);
    }
}
