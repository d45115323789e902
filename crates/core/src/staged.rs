//! Executing compiled, pre-placed stage programs on a chip.
//!
//! [`blockexec`](crate::blockexec) runs *control-flow* partitions: basic
//! blocks joined by jumps and branches, each lowered on the fly. The
//! compiler (`vlsi-compile`) instead emits *dataflow* partitions: a DAG
//! cut into stages that execute once each, in index order, passing
//! live values forward through mailbox memory writes — the same §2.6.2
//! choreography (the predecessor writes a successor's memory blocks
//! while the successor is inactive), but with the lowering done ahead
//! of time and the region shapes chosen by the placement pass.
//!
//! [`StagedProgram`] is that ahead-of-time artifact: per stage, the
//! logical objects, the optimised configuration stream, the live-in
//! mailbox bindings, and the live-out probe taps. [`StagedExecutor`]
//! deploys it — either wherever the allocator finds room
//! ([`StagedExecutor::deploy`]) or onto the exact rectangles the
//! compiler placed ([`StagedExecutor::deploy_placed`]) — and pushes
//! input environments through the stage chain.

use crate::chip::VlsiChip;
use crate::error::CoreError;
use crate::scaled::ProcessorId;
use std::collections::HashMap;
use std::sync::Arc;
use vlsi_object::{GlobalConfigStream, LogicalObject, ObjectId, Word};
use vlsi_topology::Region;

/// One compiled stage: a partition of the dataflow graph, lowered to
/// objects + stream, with its mailbox and probe contracts.
#[derive(Clone, Debug, PartialEq)]
pub struct StagedStage {
    /// Stage label (for traces and artifact dumps).
    pub name: String,
    /// Clusters the stage's region must span.
    pub clusters: usize,
    /// Logical objects to install.
    pub objects: Vec<LogicalObject>,
    /// Optimised global configuration stream, shared by reference: every
    /// configure of this stage (sequential runs, pipelined re-deploys)
    /// hands the same `Arc` to the AP instead of deep-copying the
    /// elements.
    pub stream: Arc<GlobalConfigStream>,
    /// Live-in value name → mailbox memory-block index (the CSD channel
    /// the predecessor writes into while this stage is inactive).
    pub inputs: Vec<(String, usize)>,
    /// Live-out value name → probe (tap) object.
    pub outputs: Vec<(String, ObjectId)>,
}

/// A compiled program: stages executed in index order, every inter-stage
/// value carried by a mailbox write.
#[derive(Clone, Debug, PartialEq)]
pub struct StagedProgram {
    /// Program name (from the source netlist).
    pub name: String,
    /// Stages in execution (topological) order.
    pub stages: Vec<StagedStage>,
    /// Program outputs: `(output name, value name)` — the value is read
    /// from the environment after the last stage retires.
    pub outputs: Vec<(String, String)>,
}

impl StagedProgram {
    /// Total clusters across all stages (the admission request).
    pub fn clusters(&self) -> usize {
        self.stages.iter().map(|s| s.clusters).sum()
    }

    /// Groups stages into dependency **levels**: stage `j` sits one
    /// level past the deepest earlier stage whose outputs feed `j`'s
    /// inputs. Stages in one level share no data edges, so the whole
    /// level can execute as a single SoA region sweep without changing
    /// any value the sequential stage walk would produce. The level
    /// count is the pipeline depth the Fig. 7(d) overlap fills.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let stages = &self.stages;
        let mut level = vec![0usize; stages.len()];
        for j in 0..stages.len() {
            let mut lv = 0;
            for (var, _) in &stages[j].inputs {
                // The value stage j reads is whatever the *latest*
                // earlier producer of `var` wrote — depend on that one.
                for i in (0..j).rev() {
                    if stages[i].outputs.iter().any(|(v, _)| v == var) {
                        lv = lv.max(level[i] + 1);
                        break;
                    }
                }
            }
            level[j] = lv;
        }
        let depth = level.iter().max().map_or(0, |m| m + 1);
        let mut groups = vec![Vec::new(); depth];
        for (j, &lv) in level.iter().enumerate() {
            groups[lv].push(j);
        }
        groups
    }
}

/// Statistics of one staged run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StagedRunStats {
    /// Stages executed (activations).
    pub stages_executed: u64,
    /// Mailbox words written between stages.
    pub mailbox_writes: u64,
    /// Total datapath execution cycles across stages.
    pub exec_cycles: u64,
    /// Total configuration cycles across stages.
    pub config_cycles: u64,
}

/// Statistics of one pipelined batch run
/// ([`StagedExecutor::run_pipelined`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineRunStats {
    /// Datasets pushed through the pipeline.
    pub datasets: u64,
    /// Wavefront ticks the drain took (`depth + datasets − 1`).
    pub ticks: u64,
    /// Stage executions across all ticks (`datasets × stages`).
    pub stages_executed: u64,
    /// Mailbox words written between stages.
    pub mailbox_writes: u64,
    /// Total datapath execution cycles across all stage slots.
    pub exec_cycles: u64,
    /// Total configuration cycles. Each stage configures **once** (its
    /// datapath stays resident across datasets), so this is the
    /// per-stage cost, not `datasets ×` it — the pipelining win.
    pub config_cycles: u64,
    /// Busy stage-slots over available stage-slots, ×1000: how full the
    /// wavefront kept the placed regions (Fig. 7(d) steady state →
    /// 1000 as `datasets → ∞`).
    pub utilization_milli: u64,
}

/// A deployed staged program: one processor per stage.
#[derive(Debug)]
pub struct StagedExecutor {
    program: StagedProgram,
    procs: Vec<ProcessorId>,
}

impl StagedExecutor {
    /// Deploys `program` wherever the allocator finds free clusters
    /// (one `gather_any` per stage). On failure, every processor
    /// gathered so far is released — the chip is left as found.
    pub fn deploy(
        chip: &mut VlsiChip,
        program: StagedProgram,
    ) -> Result<StagedExecutor, CoreError> {
        Self::deploy_with(chip, program, |chip, stage, _| {
            chip.gather_any(stage.clusters).map(|o| o.id)
        })
    }

    /// Deploys `program` onto the exact `regions` the placement pass
    /// chose (one region per stage, same order; any other count is
    /// [`CoreError::RegionCountMismatch`]). On failure, every processor
    /// gathered so far is released.
    pub fn deploy_placed(
        chip: &mut VlsiChip,
        program: StagedProgram,
        regions: &[Region],
    ) -> Result<StagedExecutor, CoreError> {
        if regions.len() != program.stages.len() {
            return Err(CoreError::RegionCountMismatch {
                regions: regions.len(),
                stages: program.stages.len(),
            });
        }
        Self::deploy_with(chip, program, |chip, _, i| {
            chip.gather(regions[i].clone()).map(|o| o.id)
        })
    }

    fn deploy_with(
        chip: &mut VlsiChip,
        program: StagedProgram,
        mut gather: impl FnMut(&mut VlsiChip, &StagedStage, usize) -> Result<ProcessorId, CoreError>,
    ) -> Result<StagedExecutor, CoreError> {
        let mut procs = Vec::with_capacity(program.stages.len());
        for (i, stage) in program.stages.iter().enumerate() {
            let step = gather(chip, stage, i)
                .and_then(|id| chip.install(id, stage.objects.clone()).map(|_| id));
            match step {
                Ok(id) => procs.push(id),
                Err(e) => {
                    for id in procs {
                        let _ = chip.release_processor(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(StagedExecutor { program, procs })
    }

    /// The program's dependency levels (see [`StagedProgram::levels`]).
    fn levels(&self) -> Vec<Vec<usize>> {
        self.program.levels()
    }

    /// Runs the program for one input environment. Returns the program
    /// outputs (in [`StagedProgram::outputs`] order; absent values read
    /// as 0, matching the mailbox default) and run statistics.
    ///
    /// Stages execute level by level: each level's mailboxes are
    /// written and its processors activated and configured in stage
    /// order, then the whole level runs as one
    /// [`VlsiChip::execute_batch`] region sweep, then taps are read
    /// back in stage order. Independent stages therefore advance in one
    /// SoA sweep instead of one `execute` call each, while every value,
    /// report, and statistic stays identical to the sequential walk.
    pub fn run(
        &self,
        chip: &mut VlsiChip,
        inputs: &HashMap<String, i64>,
    ) -> Result<(Vec<i64>, StagedRunStats), CoreError> {
        let mut env = inputs.clone();
        let mut stats = StagedRunStats::default();
        for level in self.levels() {
            for &j in &level {
                let stage = &self.program.stages[j];
                let proc = self.procs[j];
                for (var, mem_block) in &stage.inputs {
                    let v = env.get(var).copied().unwrap_or(0);
                    chip.write_mailbox(proc, *mem_block, 0, &[Word::from_i64(v)])?;
                    stats.mailbox_writes += 1;
                }
                chip.activate(proc)?;
                let cfg = chip.configure(proc, Arc::clone(&stage.stream))?;
                stats.config_cycles += cfg.cycles;
            }
            let ids: Vec<ProcessorId> = level.iter().map(|&j| self.procs[j]).collect();
            let reports = chip.execute_batch(&ids, 1, 1_000_000)?;
            for (&j, report) in level.iter().zip(&reports) {
                let stage = &self.program.stages[j];
                stats.exec_cycles += report.cycles;
                stats.stages_executed += 1;
                for (var, tap) in &stage.outputs {
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
                chip.deactivate(self.procs[j])?;
            }
        }
        Ok((self.outputs_from(&env), stats))
    }

    /// Program outputs read from a finished environment, in
    /// [`StagedProgram::outputs`] order (absent values read as 0,
    /// matching the mailbox default).
    fn outputs_from(&self, env: &HashMap<String, i64>) -> Vec<i64> {
        self.program
            .outputs
            .iter()
            .map(|(_, var)| env.get(var).copied().unwrap_or(0))
            .collect()
    }

    /// Runs the program for a *batch* of input environments with the
    /// stages overlapped across datasets — the paper's Fig. 7(d)
    /// operating mode, where successive datasets stream through the
    /// placed regions concurrently and steady-state throughput is set
    /// by the slowest stage rather than the sum of all stages.
    ///
    /// The schedule is a wavefront over the dependency levels: at tick
    /// `t`, the stages of level `l` process dataset `t − l`, so a new
    /// dataset enters level 0 every tick while deeper levels work on
    /// earlier datasets, and the batch drains in `depth + N − 1` ticks.
    /// Each tick has three supervisor phases in deterministic
    /// (level, stage) order — mailbox staging + activation, one
    /// [`VlsiChip::execute_batch`] region sweep over every in-flight
    /// stage (all distinct processors, so the whole wavefront advances
    /// as one SoA sweep on the `vlsi-par` pool), then tap readback +
    /// deactivation. Deactivating a stage at the end of its tick is
    /// what makes the *next* tick's mailbox write legal (§2.6.2 lets
    /// others write a region's memory only while it is inactive): the
    /// supervisor's per-dataset environments are the second half of the
    /// double-buffer, holding each value between the producer's
    /// readback and the consumer's staging.
    ///
    /// Each stage is configured **once**, on the tick its first dataset
    /// arrives, and its datapath then stays resident: staged streams
    /// read their mailboxes through *addressed* loads (no stream
    /// pointers advance) and every engine run starts its transient
    /// dataflow state cleared, so re-executing the resident datapath on a
    /// freshly staged mailbox produces exactly the reports a
    /// reconfigure would. Skipping the per-dataset release + management
    /// pipeline replay is where the throughput gain over N sequential
    /// [`run`](Self::run) calls comes from; outputs and taps are
    /// bit-identical, only `config_cycles` shrinks.
    ///
    /// Per processor, the operation sequence for dataset `d` is the
    /// same as the sequential walk's, and level `l` of dataset `d`
    /// always retires before level `l + 1` of dataset `d` begins, so
    /// the returned outputs are **bit-identical** to N sequential
    /// `run` calls — and, since region sweeps are bit-deterministic at
    /// any pool width, invariant across thread counts.
    ///
    /// Returns one output vector per dataset (in dataset order) plus
    /// batch statistics, and records pipeline occupancy telemetry
    /// (`staged.*`) on the chip's handle.
    pub fn run_pipelined(
        &self,
        chip: &mut VlsiChip,
        datasets: &[HashMap<String, i64>],
    ) -> Result<(Vec<Vec<i64>>, PipelineRunStats), CoreError> {
        let levels = self.levels();
        let depth = levels.len();
        let n = datasets.len();
        let mut stats = PipelineRunStats {
            datasets: n as u64,
            ..PipelineRunStats::default()
        };
        let mut envs: Vec<HashMap<String, i64>> = datasets.to_vec();
        if depth == 0 || n == 0 {
            let outputs = envs.iter().map(|env| self.outputs_from(env)).collect();
            return Ok((outputs, stats));
        }
        let ticks = depth + n - 1;
        stats.ticks = ticks as u64;
        let mut configured = vec![false; self.program.stages.len()];
        let mut busy_ticks = vec![0u64; self.program.stages.len()];
        // In-flight (stage, dataset) slots, rebuilt each tick in
        // ascending (level, stage) order — the deterministic drain order.
        let mut active: Vec<(usize, usize)> = Vec::new();
        let mut ids: Vec<ProcessorId> = Vec::new();
        for t in 0..ticks {
            active.clear();
            for (l, level) in levels.iter().enumerate() {
                if t < l || t - l >= n {
                    continue;
                }
                let d = t - l;
                for &j in level {
                    let stage = &self.program.stages[j];
                    let proc = self.procs[j];
                    for (var, mem_block) in &stage.inputs {
                        let v = envs[d].get(var).copied().unwrap_or(0);
                        chip.write_mailbox(proc, *mem_block, 0, &[Word::from_i64(v)])?;
                        stats.mailbox_writes += 1;
                    }
                    chip.activate(proc)?;
                    if !configured[j] {
                        let cfg = chip.configure(proc, Arc::clone(&stage.stream))?;
                        stats.config_cycles += cfg.cycles;
                        configured[j] = true;
                    }
                    active.push((j, d));
                }
            }
            ids.clear();
            ids.extend(active.iter().map(|&(j, _)| self.procs[j]));
            let reports = chip.execute_batch(&ids, 1, 1_000_000)?;
            for (&(j, d), report) in active.iter().zip(&reports) {
                let stage = &self.program.stages[j];
                stats.exec_cycles += report.cycles;
                stats.stages_executed += 1;
                busy_ticks[j] += 1;
                for (var, tap) in &stage.outputs {
                    let vals =
                        report
                            .taps
                            .get(tap)
                            .filter(|v| !v.is_empty())
                            .ok_or(CoreError::Ap(vlsi_ap::ApError::ExecutionTimeout {
                                cycles: report.cycles,
                            }))?;
                    envs[d].insert(var.clone(), vals[0].as_i64());
                }
                chip.deactivate(self.procs[j])?;
            }
        }
        let slots = stats.ticks * self.program.stages.len() as u64;
        let busy: u64 = busy_ticks.iter().sum();
        stats.utilization_milli = (busy * 1000).checked_div(slots).unwrap_or(0);
        let tel = chip.telemetry();
        tel.count("staged.pipeline_runs", 1);
        tel.count("staged.pipeline_ticks", stats.ticks);
        tel.count("staged.utilization_milli", stats.utilization_milli);
        for (j, &b) in busy_ticks.iter().enumerate() {
            tel.gauge_set_at(
                "staged.occupancy_milli",
                j as u64,
                (b * 1000 / stats.ticks) as i64,
            );
        }
        let outputs = envs.iter().map(|env| self.outputs_from(env)).collect();
        Ok((outputs, stats))
    }

    /// The deployed program.
    pub fn program(&self) -> &StagedProgram {
        &self.program
    }

    /// The processors holding the stages, in stage order.
    pub fn processors(&self) -> &[ProcessorId] {
        &self.procs
    }

    /// Releases every stage processor (all must be inactive — `run`
    /// leaves them that way).
    pub fn release(self, chip: &mut VlsiChip) -> Result<(), CoreError> {
        for id in self.procs {
            chip.release_processor(id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_object::{GlobalConfigElement, LocalConfig, Operation};
    use vlsi_topology::{Cluster, Coord};

    /// Hand-build a two-stage program computing `(a + b) * c`:
    /// stage 0 computes `t = a + b`, stage 1 computes `out = t * c`.
    fn two_stage_program() -> StagedProgram {
        // Stage 0: mailbox loads a (block 0), b (block 1); t = a + b.
        let s0 = {
            let a = ObjectId(0);
            let b = ObjectId(1);
            let addr_a = ObjectId(2);
            let addr_b = ObjectId(3);
            let sum = ObjectId(4);
            let probe = ObjectId(5);
            let objects = vec![
                LogicalObject::memory(a, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(0),
                    Word(0),
                ]),
                LogicalObject::memory(b, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(1),
                    Word(0),
                ]),
                LogicalObject::compute(addr_a, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(addr_b, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(sum, LocalConfig::op(Operation::IAdd)),
                LogicalObject::compute(probe, LocalConfig::op(Operation::Pass)),
            ];
            let stream: Arc<GlobalConfigStream> = Arc::new(
                [
                    GlobalConfigElement::unary(a, addr_a),
                    GlobalConfigElement::unary(b, addr_b),
                    GlobalConfigElement::binary(sum, a, b),
                    GlobalConfigElement::unary(probe, sum),
                ]
                .into_iter()
                .collect(),
            );
            StagedStage {
                name: "s0".into(),
                clusters: 4,
                objects,
                stream,
                inputs: vec![("a".into(), 0), ("b".into(), 1)],
                outputs: vec![("t".into(), probe)],
            }
        };
        // Stage 1: mailbox loads t (block 0), c (block 1); out = t * c.
        let s1 = {
            let t = ObjectId(0);
            let c = ObjectId(1);
            let addr_t = ObjectId(2);
            let addr_c = ObjectId(3);
            let mul = ObjectId(4);
            let probe = ObjectId(5);
            let objects = vec![
                LogicalObject::memory(t, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(0),
                    Word(0),
                ]),
                LogicalObject::memory(c, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(1),
                    Word(0),
                ]),
                LogicalObject::compute(addr_t, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(addr_c, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(mul, LocalConfig::op(Operation::IMul)),
                LogicalObject::compute(probe, LocalConfig::op(Operation::Pass)),
            ];
            let stream: Arc<GlobalConfigStream> = Arc::new(
                [
                    GlobalConfigElement::unary(t, addr_t),
                    GlobalConfigElement::unary(c, addr_c),
                    GlobalConfigElement::binary(mul, t, c),
                    GlobalConfigElement::unary(probe, mul),
                ]
                .into_iter()
                .collect(),
            );
            StagedStage {
                name: "s1".into(),
                clusters: 4,
                objects,
                stream,
                inputs: vec![("t".into(), 0), ("c".into(), 1)],
                outputs: vec![("out".into(), probe)],
            }
        };
        StagedProgram {
            name: "madd".into(),
            stages: vec![s0, s1],
            outputs: vec![("result".into(), "out".into())],
        }
    }

    #[test]
    fn staged_chain_passes_values_by_mailbox() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, two_stage_program()).unwrap();
        assert_eq!(exec.processors().len(), 2);
        for (a, b, c) in [(2i64, 3i64, 4i64), (-5, 5, 7), (0, 0, 9)] {
            let inputs = HashMap::from([
                ("a".to_string(), a),
                ("b".to_string(), b),
                ("c".to_string(), c),
            ]);
            let (out, stats) = exec.run(&mut chip, &inputs).unwrap();
            assert_eq!(out, vec![(a.wrapping_add(b)).wrapping_mul(c)]);
            assert_eq!(stats.stages_executed, 2);
            assert_eq!(stats.mailbox_writes, 4);
        }
        exec.release(&mut chip).unwrap();
    }

    #[test]
    fn deploy_placed_binds_exact_regions() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let regions = vec![
            Region::rect(Coord::new(0, 0), 2, 2),
            Region::rect(Coord::new(4, 0), 2, 2),
        ];
        let exec = StagedExecutor::deploy_placed(&mut chip, two_stage_program(), &regions).unwrap();
        let inputs = HashMap::from([
            ("a".to_string(), 10i64),
            ("b".to_string(), 20i64),
            ("c".to_string(), 3i64),
        ]);
        let (out, _) = exec.run(&mut chip, &inputs).unwrap();
        assert_eq!(out, vec![90]);
        exec.release(&mut chip).unwrap();
        assert_eq!(chip.free_clusters(), 64);
    }

    #[test]
    fn deploy_placed_rejects_a_region_count_mismatch() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let one = vec![Region::rect(Coord::new(0, 0), 2, 2)];
        let err = StagedExecutor::deploy_placed(&mut chip, two_stage_program(), &one);
        assert_eq!(
            err.err(),
            Some(CoreError::RegionCountMismatch {
                regions: 1,
                stages: 2
            })
        );
        assert_eq!(chip.free_clusters(), 64, "nothing gathered");
    }

    /// Three stages: s0 and s1 are independent (level 0), s2 consumes
    /// both (level 1) — `t0 + t1` where `t0 = a + b`, `t1 = a * b`.
    fn diamond_program() -> StagedProgram {
        let arith_stage = |name: &str, op: Operation, out_var: &str| {
            let x = ObjectId(0);
            let y = ObjectId(1);
            let addr_x = ObjectId(2);
            let addr_y = ObjectId(3);
            let f = ObjectId(4);
            let probe = ObjectId(5);
            let objects = vec![
                LogicalObject::memory(x, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(0),
                    Word(0),
                ]),
                LogicalObject::memory(y, LocalConfig::op(Operation::Load)).with_init(vec![
                    Word(0),
                    Word(1),
                    Word(0),
                ]),
                LogicalObject::compute(addr_x, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(addr_y, LocalConfig::with_imm(Operation::Const, Word(0))),
                LogicalObject::compute(f, LocalConfig::op(op)),
                LogicalObject::compute(probe, LocalConfig::op(Operation::Pass)),
            ];
            let stream: Arc<GlobalConfigStream> = Arc::new(
                [
                    GlobalConfigElement::unary(x, addr_x),
                    GlobalConfigElement::unary(y, addr_y),
                    GlobalConfigElement::binary(f, x, y),
                    GlobalConfigElement::unary(probe, f),
                ]
                .into_iter()
                .collect(),
            );
            StagedStage {
                name: name.into(),
                clusters: 4,
                objects,
                stream,
                inputs: vec![("a".into(), 0), ("b".into(), 1)],
                outputs: vec![(out_var.into(), probe)],
            }
        };
        let mut join = arith_stage("join", Operation::IAdd, "out");
        join.inputs = vec![("t0".into(), 0), ("t1".into(), 1)];
        StagedProgram {
            name: "diamond".into(),
            stages: vec![
                arith_stage("s0", Operation::IAdd, "t0"),
                arith_stage("s1", Operation::IMul, "t1"),
                join,
            ],
            outputs: vec![("result".into(), "out".into())],
        }
    }

    #[test]
    fn independent_stages_share_a_level_and_batch() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, diamond_program()).unwrap();
        assert_eq!(
            exec.levels(),
            vec![vec![0, 1], vec![2]],
            "s0/s1 independent, join depends on both"
        );
        for (a, b) in [(2i64, 3i64), (-4, 6), (0, 9)] {
            let inputs = HashMap::from([("a".to_string(), a), ("b".to_string(), b)]);
            let (out, stats) = exec.run(&mut chip, &inputs).unwrap();
            let expect = a.wrapping_add(b).wrapping_add(a.wrapping_mul(b));
            assert_eq!(out, vec![expect]);
            assert_eq!(stats.stages_executed, 3);
            assert_eq!(stats.mailbox_writes, 6);
        }
        exec.release(&mut chip).unwrap();
        assert_eq!(chip.free_clusters(), 64);
    }

    #[test]
    fn chained_stages_stay_sequentially_levelled() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, two_stage_program()).unwrap();
        assert_eq!(
            exec.levels(),
            vec![vec![0], vec![1]],
            "s1 reads s0's t: strictly sequential"
        );
        exec.release(&mut chip).unwrap();
    }

    #[test]
    fn failed_deploy_releases_partial_gathers() {
        // A 2×2 die cannot hold two 4-cluster stages: the second gather
        // fails, and the first must be rolled back.
        let mut chip = VlsiChip::new(2, 2, Cluster::default());
        let err = StagedExecutor::deploy(&mut chip, two_stage_program());
        assert!(err.is_err());
        assert_eq!(chip.free_clusters(), 4);
    }

    /// Deterministic dataset batch for the equivalence tests.
    fn batch(vars: &[&str], n: usize) -> Vec<HashMap<String, i64>> {
        (0..n)
            .map(|d| {
                vars.iter()
                    .enumerate()
                    .map(|(k, v)| {
                        (
                            v.to_string(),
                            (d as i64 + 1) * 13 - 7 * k as i64 - (d as i64 % 3) * 101,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// The pipelined wavefront must reproduce N sequential runs bit for
    /// bit, on both a chained and a diamond program.
    #[test]
    fn pipelined_batch_matches_sequential_runs() {
        for (program, vars) in [
            (two_stage_program(), vec!["a", "b", "c"]),
            (diamond_program(), vec!["a", "b"]),
        ] {
            let mut chip = VlsiChip::new(8, 8, Cluster::default());
            let depth = program.levels().len();
            let stages = program.stages.len() as u64;
            let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
            let datasets = batch(&vars, 7);
            let mut seq = Vec::new();
            let mut seq_stats = StagedRunStats::default();
            for ds in &datasets {
                let (out, s) = exec.run(&mut chip, ds).unwrap();
                seq.push(out);
                seq_stats.exec_cycles += s.exec_cycles;
                seq_stats.mailbox_writes += s.mailbox_writes;
            }
            let (pipe, stats) = exec.run_pipelined(&mut chip, &datasets).unwrap();
            assert_eq!(pipe, seq, "pipelined outputs must equal sequential");
            assert_eq!(stats.datasets, 7);
            assert_eq!(stats.ticks, (depth + 7 - 1) as u64);
            assert_eq!(stats.stages_executed, 7 * stages);
            assert_eq!(stats.mailbox_writes, seq_stats.mailbox_writes);
            assert_eq!(
                stats.exec_cycles, seq_stats.exec_cycles,
                "resident re-execution must cost the same cycles"
            );
            assert_eq!(
                stats.utilization_milli,
                7000 * stages / (stats.ticks * stages)
            );
            exec.release(&mut chip).unwrap();
            assert_eq!(chip.free_clusters(), 64);
        }
    }

    /// Same equivalence on a die with defective clusters: the allocator
    /// routes the stages around the defects, and the overlapped batch
    /// still matches the sequential walk.
    #[test]
    fn pipelined_batch_matches_sequential_with_defects() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        for c in [Coord::new(0, 0), Coord::new(3, 2), Coord::new(5, 5)] {
            chip.mark_defective(c);
        }
        let exec = StagedExecutor::deploy(&mut chip, diamond_program()).unwrap();
        let datasets = batch(&["a", "b"], 5);
        let seq: Vec<Vec<i64>> = datasets
            .iter()
            .map(|ds| exec.run(&mut chip, ds).unwrap().0)
            .collect();
        let (pipe, _) = exec.run_pipelined(&mut chip, &datasets).unwrap();
        assert_eq!(pipe, seq, "defect-routed pipeline must match sequential");
        exec.release(&mut chip).unwrap();
    }

    /// Degenerate batches: empty (no ticks) and singleton (the wavefront
    /// collapses to the sequential walk).
    #[test]
    fn pipelined_batch_degenerate_sizes() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, two_stage_program()).unwrap();
        let (outs, stats) = exec.run_pipelined(&mut chip, &[]).unwrap();
        assert!(outs.is_empty());
        assert_eq!(stats, PipelineRunStats::default());
        let one = batch(&["a", "b", "c"], 1);
        let (outs, stats) = exec.run_pipelined(&mut chip, &one).unwrap();
        assert_eq!(outs, vec![exec.run(&mut chip, &one[0]).unwrap().0]);
        assert_eq!(stats.ticks, 2);
        assert_eq!(stats.utilization_milli, 500, "1 dataset fills half");
        exec.release(&mut chip).unwrap();
    }

    /// Pipeline occupancy telemetry lands on the chip's handle,
    /// deterministically.
    #[test]
    fn pipelined_batch_records_occupancy_telemetry() {
        let handle = vlsi_telemetry::TelemetryHandle::active();
        let mut chip = VlsiChip::with_telemetry(8, 8, Cluster::default(), handle.clone());
        let exec = StagedExecutor::deploy(&mut chip, diamond_program()).unwrap();
        let datasets = batch(&["a", "b"], 4);
        let (_, stats) = exec.run_pipelined(&mut chip, &datasets).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.counter("staged.pipeline_runs"), 1);
        assert_eq!(snap.counter("staged.pipeline_ticks"), stats.ticks);
        assert_eq!(
            snap.counter("staged.utilization_milli"),
            stats.utilization_milli
        );
        let json = snap.to_json();
        assert!(
            json.contains("staged.occupancy_milli[0]")
                && json.contains("staged.occupancy_milli[2]"),
            "per-stage occupancy gauges must export: {json}"
        );
        exec.release(&mut chip).unwrap();
    }
}
