//! Executing staged programs on a chip: one processor per stage, live
//! values passed forward by mailbox writes.
//!
//! Every stage runs the §2.6.2 choreography: its predecessor writes the
//! stage's memory blocks while the stage is inactive, then activates it.
//! Two front ends emit the [`StagedProgram`] artifact:
//!
//! * the compiler (`vlsi-compile`) cuts a dataflow DAG into stages ahead
//!   of time, with region shapes chosen by its placement pass;
//! * [`StagedProgram::from_program`] lowers a structured [`Program`] the
//!   Figure 7(b) way: one 4-cluster stage per non-empty basic block.
//!
//! Control flow becomes predication. A stage that ends in a branch
//! carries a **condition** tap ([`StagedStage::cond`]); each stage of an
//! arm carries a **guard** ([`StagedStage::guard`]) naming the earlier
//! condition stages and the truth it needs from each. A stage whose
//! guard fails for a dataset is never touched: no mailbox write, no
//! activation, no configure, no execute — the dark arm of Fig. 7(d).
//! [`StagedProgram::levels`] orders stages past every read/write and
//! guard dependence, so the same level schedule and wavefront serve
//! branching and straight-line programs alike.
//!
//! Per stage the artifact holds the logical objects, the configuration
//! stream, the live-in mailbox bindings, and the live-out probe taps.
//! [`StagedExecutor`] deploys it — either wherever the allocator finds
//! room ([`StagedExecutor::deploy`]) or onto the exact rectangles the
//! compiler placed ([`StagedExecutor::deploy_placed`]) — and pushes
//! input environments through the stages.

use crate::chip::VlsiChip;
use crate::error::CoreError;
use crate::scaled::ProcessorId;
use std::collections::HashMap;
use std::sync::Arc;
use vlsi_ap::ExecutionReport;
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_topology::Region;
use vlsi_workloads::program::{BasicBlock, BlockDatapath, Expr, Program, Stmt, Terminator};

/// One stage: a partition of the program, lowered to objects + stream,
/// with its mailbox and probe contracts and its predicate.
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
    /// The probe tap whose first word is this stage's branch condition
    /// (non-zero = true), if the stage ends in a branch.
    pub cond: Option<ObjectId>,
    /// A conjunction over earlier stages: `(k, flag)` holds for a
    /// dataset when stage `k` ran and its condition's truth equals
    /// `flag`. The stage runs only if every entry holds; an empty guard
    /// always holds.
    pub guard: Vec<(usize, bool)>,
}

/// A staged program: stages in program order, every inter-stage value
/// carried by a mailbox write.
#[derive(Clone, Debug, PartialEq)]
pub struct StagedProgram {
    /// Program name (the source netlist's; `blocks` for a lowered
    /// block program).
    pub name: String,
    /// Stages in program order: a sequential walk that skips each stage
    /// whose guard fails computes the program.
    pub stages: Vec<StagedStage>,
    /// Program outputs: `(output name, value name)` — the value is read
    /// from the environment after the last stage retires.
    pub outputs: Vec<(String, String)>,
}

impl StagedProgram {
    /// Lowers a structured program (Figure 7(a)→(b)): one 4-cluster
    /// stage per non-empty basic block, in program order — a block, then
    /// its then-arm, then its else-arm, then the rest of the program.
    ///
    /// Each block compiles with [`BlockDatapath::compile`]; every live-in
    /// becomes an addressed memory `Load` from its own mailbox block
    /// (address 0), and every live-out and the branch condition gain a
    /// `Pass` probe. A block ending in `if` carries the condition tap,
    /// and each stage of its arms is guarded on it. The program outputs
    /// are every variable the program names, in first-mention order, so
    /// a variable the program only reads passes its input through.
    pub fn from_program(program: &Program) -> StagedProgram {
        let mut stages = Vec::new();
        lower_stmts(&program.stmts, &[], &mut stages);
        let mut vars = Vec::new();
        named_vars(&program.stmts, &mut vars);
        StagedProgram {
            name: "blocks".into(),
            stages,
            outputs: vars.into_iter().map(|v| (v.clone(), v)).collect(),
        }
    }

    /// Total clusters across all stages (the admission request).
    pub fn clusters(&self) -> usize {
        self.stages.iter().map(|s| s.clusters).sum()
    }

    /// Groups stages into dependency **levels**: stage `j` sits one
    /// level past the deepest earlier stage `i` that writes a value `j`
    /// reads (RAW), reads a value `j` writes (WAR), writes a value `j`
    /// writes (WAW), or is named in `j`'s guard. Stages in one level
    /// share no such edge, so the whole level can execute as a single
    /// SoA region sweep, and whichever of its stages a dataset's guards
    /// select, every value equals the one the sequential program-order
    /// walk produces. The level count is the pipeline depth the
    /// Fig. 7(d) overlap fills.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let stages = &self.stages;
        fn names<T>(pairs: &[(String, T)], var: &str) -> bool {
            pairs.iter().any(|(v, _)| v == var)
        }
        let mut level = vec![0usize; stages.len()];
        for j in 0..stages.len() {
            let sj = &stages[j];
            for i in 0..j {
                let si = &stages[i];
                let depends = sj.guard.iter().any(|&(k, _)| k == i)
                    || sj.inputs.iter().any(|(v, _)| names(&si.outputs, v))
                    || sj
                        .outputs
                        .iter()
                        .any(|(v, _)| names(&si.inputs, v) || names(&si.outputs, v));
                if depends {
                    level[j] = level[j].max(level[i] + 1);
                }
            }
        }
        let depth = level.iter().max().map_or(0, |m| m + 1);
        let mut groups = vec![Vec::new(); depth];
        for (j, &lv) in level.iter().enumerate() {
            groups[lv].push(j);
        }
        groups
    }
}

/// Appends one stage per non-empty basic block of `stmts`, every one
/// guarded by `guard`. A block ends at an `if`: its arms follow with the
/// block's condition (true, false) added to their guard, then the rest
/// of the list as the join.
fn lower_stmts(stmts: &[Stmt], guard: &[(usize, bool)], stages: &mut Vec<StagedStage>) {
    let mut assigns = Vec::new();
    for (i, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::Assign(var, e) => assigns.push((var.clone(), e.clone())),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let at = stages.len();
                stages.push(lower_block(at, assigns, Some(cond.clone()), guard));
                let arm = |taken| [guard, &[(at, taken)]].concat();
                lower_stmts(then_branch, &arm(true), stages);
                lower_stmts(else_branch, &arm(false), stages);
                lower_stmts(&stmts[i + 1..], guard, stages);
                return;
            }
        }
    }
    if !assigns.is_empty() {
        stages.push(lower_block(stages.len(), assigns, None, guard));
    }
}

/// Compiles one basic block to stage `id`:
///
/// * every live-in `Const` becomes an *addressed memory load* from its
///   own mailbox memory block (address 0), driven by a zero-address
///   constant;
/// * every live-out (and the condition) gains a `Pass` probe so its
///   value is always observable as a tap.
fn lower_block(
    id: usize,
    assigns: Vec<(String, Expr)>,
    cond: Option<Expr>,
    guard: &[(usize, bool)],
) -> StagedStage {
    let dp = BlockDatapath::compile(&BasicBlock {
        id,
        assigns,
        cond,
        terminator: Terminator::End,
    });
    let mut objects = dp.objects;
    let mut elements: Vec<GlobalConfigElement> = dp.stream.elements().to_vec();
    let mut next_id = objects.iter().map(|o| o.id.0).max().unwrap_or(0) + 1;
    let mut fresh = |objects: &mut Vec<LogicalObject>, cfg: LocalConfig| {
        let id = ObjectId(next_id);
        next_id += 1;
        objects.push(LogicalObject::compute(id, cfg));
        id
    };

    // Live-ins: Const -> addressed Load from mailbox block i.
    let mut inputs = Vec::with_capacity(dp.inputs.len());
    for (i, (var, const_id)) in dp.inputs.into_iter().enumerate() {
        let addr_obj = fresh(
            &mut objects,
            LocalConfig::with_imm(Operation::Const, Word(0)),
        );
        // Replace the const object with a memory load bound to block i.
        if let Some(obj) = objects.iter_mut().find(|o| o.id == const_id) {
            *obj = LogicalObject::memory(const_id, LocalConfig::op(Operation::Load))
                .with_init(vec![Word(0), Word(i as u64), Word(0)]);
        }
        // Rewrite its stream element from nullary to addressed.
        for e in elements.iter_mut() {
            if e.sink == const_id && e.src_lhs.is_none() {
                e.src_lhs = Some(addr_obj);
            }
        }
        inputs.push((var, i));
    }

    // Probes for outputs and condition.
    let mut probe = |objects: &mut Vec<LogicalObject>, src: ObjectId| {
        let tap = fresh(objects, LocalConfig::op(Operation::Pass));
        elements.push(GlobalConfigElement::unary(tap, src));
        tap
    };
    let outputs = dp
        .outputs
        .into_iter()
        .map(|(var, obj)| (var, probe(&mut objects, obj)))
        .collect();
    let cond = dp.cond.map(|c| probe(&mut objects, c));

    StagedStage {
        name: format!("block{id}"),
        clusters: 4,
        objects,
        stream: Arc::new(elements.into_iter().collect()),
        inputs,
        outputs,
        cond,
        guard: guard.to_vec(),
    }
}

/// Every variable `stmts` name, read or written, in first-mention order.
fn named_vars(stmts: &[Stmt], vars: &mut Vec<String>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(var, e) => {
                e.free_vars(vars);
                if !vars.contains(var) {
                    vars.push(var.clone());
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.free_vars(vars);
                named_vars(then_branch, vars);
                named_vars(else_branch, vars);
            }
        }
    }
}

/// Statistics of one staged run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StagedRunStats {
    /// Stages executed (activations); a stage whose guard failed is
    /// not one.
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
    /// Stage executions across all ticks (`datasets × stages` less the
    /// stages whose guard failed).
    pub stages_executed: u64,
    /// Mailbox words written between stages.
    pub mailbox_writes: u64,
    /// Total datapath execution cycles across all stage slots.
    pub exec_cycles: u64,
    /// Total configuration cycles. Each stage configures **once**, on
    /// its first execution (its datapath stays resident across
    /// datasets), so this is the per-stage cost, not `datasets ×` it —
    /// the pipelining win. A stage no dataset ran never configures.
    pub config_cycles: u64,
    /// Busy stage-slots over available stage-slots, ×1000: how full the
    /// wavefront kept the placed regions (Fig. 7(d) steady state →
    /// 1000 as `datasets → ∞` when no guard fails).
    pub utilization_milli: u64,
}

/// A deployed staged program: one processor per stage.
#[derive(Debug)]
pub struct StagedExecutor {
    program: StagedProgram,
    procs: Vec<ProcessorId>,
    /// The program's dependency levels, computed once at deploy.
    levels: Vec<Vec<usize>>,
    /// Every variable the program names, in first-mention order; a run
    /// keeps its environment as one `i64` per variable.
    vars: Vec<String>,
    /// Per stage, its mailbox bindings and probe taps over variable
    /// slots.
    plans: Vec<StagePlan>,
    /// The program outputs' variable slots.
    output_slots: Vec<usize>,
}

/// One stage's contracts with its variable names resolved to slots.
#[derive(Debug)]
struct StagePlan {
    /// `(variable slot, mailbox memory-block index)`.
    inputs: Vec<(usize, usize)>,
    /// `(variable slot, probe tap)`.
    outputs: Vec<(usize, ObjectId)>,
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
        let mut vars: Vec<String> = Vec::new();
        let mut slot = |name: &String| match vars.iter().position(|v| v == name) {
            Some(i) => i,
            None => {
                vars.push(name.clone());
                vars.len() - 1
            }
        };
        let plans = program
            .stages
            .iter()
            .map(|stage| StagePlan {
                inputs: stage.inputs.iter().map(|(v, b)| (slot(v), *b)).collect(),
                outputs: stage.outputs.iter().map(|(v, t)| (slot(v), *t)).collect(),
            })
            .collect();
        let output_slots = program.outputs.iter().map(|(_, v)| slot(v)).collect();
        Ok(StagedExecutor {
            levels: program.levels(),
            program,
            procs,
            vars,
            plans,
            output_slots,
        })
    }

    /// The program's dependency levels (see [`StagedProgram::levels`]).
    fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// A run's environment for input `inputs`: one value per variable
    /// slot, 0 for a variable the inputs do not name (the mailbox
    /// default).
    fn env_of(&self, inputs: &HashMap<String, i64>) -> Vec<i64> {
        self.vars
            .iter()
            .map(|v| inputs.get(v).copied().unwrap_or(0))
            .collect()
    }

    /// Stages mailbox inputs for stage `j` from `env`, activates its
    /// processor, and configures it when `configure` is set. Returns
    /// `(mailbox words written, configuration cycles)`.
    fn stage_in(
        &self,
        chip: &mut VlsiChip,
        j: usize,
        env: &[i64],
        configure: bool,
    ) -> Result<(u64, u64), CoreError> {
        let proc = self.procs[j];
        let inputs = &self.plans[j].inputs;
        for &(var, mem_block) in inputs {
            chip.write_mailbox(proc, mem_block, 0, &[Word::from_i64(env[var])])?;
        }
        chip.activate(proc)?;
        let mut cycles = 0;
        if configure {
            cycles = chip
                .configure(proc, Arc::clone(&self.program.stages[j].stream))?
                .cycles;
        }
        Ok((inputs.len() as u64, cycles))
    }

    /// Whether stage `j` runs for a dataset whose stages so far left
    /// condition truths `truth` (`None` = did not run, or has no
    /// condition): every guard entry must hold.
    fn guard_holds(&self, j: usize, truth: &[Option<bool>]) -> bool {
        self.program.stages[j]
            .guard
            .iter()
            .all(|&(k, flag)| truth.get(k) == Some(&Some(flag)))
    }

    /// Reads stage `j`'s probe taps from `report` into `env`, its
    /// condition tap into `truth[j]`, and deactivates its processor. A
    /// probe that collected nothing is an
    /// [`ApError::ExecutionTimeout`](vlsi_ap::ApError::ExecutionTimeout).
    fn stage_out(
        &self,
        chip: &mut VlsiChip,
        j: usize,
        report: &ExecutionReport,
        env: &mut [i64],
        truth: &mut [Option<bool>],
    ) -> Result<(), CoreError> {
        let first = |tap: ObjectId| {
            report
                .taps
                .get(&tap)
                .and_then(|v| v.first())
                .map(|w| w.as_i64())
                .ok_or(CoreError::Ap(vlsi_ap::ApError::ExecutionTimeout {
                    cycles: report.cycles,
                }))
        };
        for &(var, tap) in &self.plans[j].outputs {
            env[var] = first(tap)?;
        }
        if let Some(tap) = self.program.stages[j].cond {
            truth[j] = Some(first(tap)? != 0);
        }
        chip.deactivate(self.procs[j])
    }

    /// Runs the program for one input environment. Returns the program
    /// outputs (in [`StagedProgram::outputs`] order; absent values read
    /// as 0, matching the mailbox default) and run statistics.
    ///
    /// Stages execute level by level: each level's stages whose guard
    /// holds get their mailboxes written and their processors activated
    /// and configured in stage order, then they run as one
    /// [`VlsiChip::execute_batch`] region sweep, then taps are read
    /// back in stage order. Independent stages therefore advance in one
    /// SoA sweep instead of one `execute` call each, while every value,
    /// report, and statistic stays identical to the sequential walk.
    pub fn run(
        &self,
        chip: &mut VlsiChip,
        inputs: &HashMap<String, i64>,
    ) -> Result<(Vec<i64>, StagedRunStats), CoreError> {
        let mut env = self.env_of(inputs);
        let mut truth = vec![None; self.procs.len()];
        let mut stats = StagedRunStats::default();
        let mut ran = Vec::new();
        for level in self.levels() {
            ran.clear();
            for &j in level {
                if self.guard_holds(j, &truth) {
                    let (writes, cycles) = self.stage_in(chip, j, &env, true)?;
                    stats.mailbox_writes += writes;
                    stats.config_cycles += cycles;
                    ran.push(j);
                }
            }
            if ran.is_empty() {
                continue;
            }
            let ids: Vec<ProcessorId> = ran.iter().map(|&j| self.procs[j]).collect();
            let reports = chip.execute_batch(&ids, 1, 1_000_000)?;
            for (&j, report) in ran.iter().zip(&reports) {
                stats.exec_cycles += report.cycles;
                stats.stages_executed += 1;
                self.stage_out(chip, j, report, &mut env, &mut truth)?;
            }
        }
        Ok((self.outputs_from(&env), stats))
    }

    /// Program outputs read from a finished environment, in
    /// [`StagedProgram::outputs`] order (a variable nothing wrote reads
    /// as 0, matching the mailbox default).
    fn outputs_from(&self, env: &[i64]) -> Vec<i64> {
        self.output_slots.iter().map(|&v| env[v]).collect()
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
    /// A stage whose guard fails for a dataset is skipped on that
    /// dataset's tick; the level schedule is the same for every dataset.
    ///
    /// Each stage is configured **once**, on the first tick it runs,
    /// and its datapath then stays resident: staged streams
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
        let mut envs: Vec<Vec<i64>> = datasets.iter().map(|ds| self.env_of(ds)).collect();
        let stages = self.procs.len();
        let mut truths = vec![vec![None; stages]; n];
        if depth == 0 || n == 0 {
            let outputs = envs.iter().map(|env| self.outputs_from(env)).collect();
            return Ok((outputs, stats));
        }
        let ticks = depth + n - 1;
        stats.ticks = ticks as u64;
        let mut configured = vec![false; stages];
        let mut busy_ticks = vec![0u64; stages];
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
                    if !self.guard_holds(j, &truths[d]) {
                        continue;
                    }
                    let (writes, cycles) = self.stage_in(chip, j, &envs[d], !configured[j])?;
                    stats.mailbox_writes += writes;
                    stats.config_cycles += cycles;
                    configured[j] = true;
                    active.push((j, d));
                }
            }
            if active.is_empty() {
                continue;
            }
            ids.clear();
            ids.extend(active.iter().map(|&(j, _)| self.procs[j]));
            let reports = chip.execute_batch(&ids, 1, 1_000_000)?;
            for (&(j, d), report) in active.iter().zip(&reports) {
                stats.exec_cycles += report.cycles;
                stats.stages_executed += 1;
                busy_ticks[j] += 1;
                self.stage_out(chip, j, report, &mut envs[d], &mut truths[d])?;
            }
        }
        let slots = stats.ticks * stages as u64;
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
    use vlsi_workloads::figure7;
    use vlsi_workloads::program::BinOp;

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
                cond: None,
                guard: Vec::new(),
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
                cond: None,
                guard: Vec::new(),
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
                cond: None,
                guard: Vec::new(),
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

    /// A variable an input map lacks reads 0 (the mailbox default), and
    /// a program output no stage writes reads straight from the inputs.
    #[test]
    fn missing_variables_read_zero() {
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let mut program = two_stage_program();
        program.outputs.push(("echo".into(), "a".into()));
        let exec = StagedExecutor::deploy(&mut chip, program).unwrap();
        // No `c`: (2 + 3) * 0.
        let partial = HashMap::from([("a".to_string(), 2i64), ("b".to_string(), 3i64)]);
        assert_eq!(exec.run(&mut chip, &partial).unwrap().0, vec![0, 2]);
        // Nothing at all: every mailbox reads 0.
        let datasets = [partial, HashMap::new()];
        let (outs, _) = exec.run_pipelined(&mut chip, &datasets).unwrap();
        assert_eq!(outs, vec![vec![0, 2], vec![0, 0]]);
        exec.release(&mut chip).unwrap();
    }

    /// `if (x > y) { z = x } else { z = y }; x = 7`. The trailing stage
    /// reads nothing, yet it overwrites `x`, which both the condition
    /// and the then-arm read (WAR), and the arms both write `z` (WAW).
    fn overwrite_after_branch() -> Program {
        Program {
            stmts: vec![
                Stmt::If {
                    cond: Expr::bin(BinOp::Gt, Expr::var("x"), Expr::var("y")),
                    then_branch: vec![Stmt::Assign("z".into(), Expr::var("x"))],
                    else_branch: vec![Stmt::Assign("z".into(), Expr::var("y"))],
                },
                Stmt::Assign("x".into(), Expr::Const(7)),
            ],
        }
    }

    /// A then-arm two stages deep (a nested if) beside a one-stage
    /// else-arm, joined by a stage reading both arms' results.
    fn nested_then_arm() -> Program {
        Program {
            stmts: vec![
                Stmt::If {
                    cond: Expr::bin(BinOp::Gt, Expr::var("a"), Expr::Const(0)),
                    then_branch: vec![Stmt::If {
                        cond: Expr::bin(BinOp::Gt, Expr::var("b"), Expr::Const(0)),
                        then_branch: vec![Stmt::Assign("r".into(), Expr::Const(1))],
                        else_branch: vec![Stmt::Assign("r".into(), Expr::Const(2))],
                    }],
                    else_branch: vec![Stmt::Assign("s".into(), Expr::Const(3))],
                },
                Stmt::Assign(
                    "t".into(),
                    Expr::bin(BinOp::Add, Expr::var("r"), Expr::var("s")),
                ),
            ],
        }
    }

    /// Runs `program` lowered, sequentially and pipelined, on `datasets`
    /// and checks every named variable against the interpreter.
    fn check_against_interpreter(program: &Program, datasets: &[HashMap<String, i64>]) {
        let staged = StagedProgram::from_program(program);
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, staged.clone()).unwrap();
        let expect: Vec<Vec<i64>> = datasets
            .iter()
            .map(|ds| {
                let mut env = ds.clone();
                program.interpret(&mut env);
                let value = |v: &String| env.get(v).copied().unwrap_or(0);
                staged.outputs.iter().map(|(_, v)| value(v)).collect()
            })
            .collect();
        let seq: Vec<Vec<i64>> = datasets
            .iter()
            .map(|ds| exec.run(&mut chip, ds).unwrap().0)
            .collect();
        assert_eq!(seq, expect, "run");
        let (pipe, _) = exec.run_pipelined(&mut chip, datasets).unwrap();
        assert_eq!(pipe, expect, "run_pipelined");
        exec.release(&mut chip).unwrap();
        assert_eq!(chip.free_clusters(), 64);
    }

    fn env(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|&(v, x)| (v.to_string(), x)).collect()
    }

    #[test]
    fn from_program_guards_each_arm_on_its_condition() {
        let staged = StagedProgram::from_program(&figure7::program());
        let guards: Vec<_> = staged.stages.iter().map(|s| s.guard.clone()).collect();
        // Entry, then-arm, else-arm, buffer — in program order.
        assert_eq!(
            guards,
            vec![vec![], vec![(0, true)], vec![(0, false)], vec![]]
        );
        assert!(staged.stages[0].cond.is_some());
        assert!(staged.stages[1..].iter().all(|s| s.cond.is_none()));
        assert_eq!(staged.clusters(), 16);
        let vars: Vec<&str> = staged.outputs.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["x", "y", "z", "buff"]);
    }

    #[test]
    fn a_trailing_overwrite_waits_for_every_earlier_reader() {
        let program = overwrite_after_branch();
        let staged = StagedProgram::from_program(&program);
        // The arms write the same z (WAW); x = 7 overwrites what the
        // condition and the then-arm read (WAR).
        assert_eq!(staged.levels(), vec![vec![0], vec![1], vec![2, 3]]);
        check_against_interpreter(
            &program,
            &[env(&[("x", 3), ("y", 1)]), env(&[("x", 1), ("y", 3)])],
        );
        let mut chip = VlsiChip::new(8, 8, Cluster::default());
        let exec = StagedExecutor::deploy(&mut chip, staged).unwrap();
        let (out, stats) = exec.run(&mut chip, &env(&[("x", 3), ("y", 1)])).unwrap();
        assert_eq!(out, vec![7, 1, 3], "x, y, z: the then-arm read x = 3");
        assert_eq!(stats.stages_executed, 3, "the else-arm stays dark");
    }

    #[test]
    fn a_join_waits_for_both_arms_of_unequal_depth() {
        let program = nested_then_arm();
        let staged = StagedProgram::from_program(&program);
        let levels = staged.levels();
        let level_of = |j: usize| levels.iter().position(|l| l.contains(&j)).unwrap();
        // Stages: 0 `a > 0`, 1 `b > 0`, 2 `r = 1`, 3 `r = 2`, 4 `s = 3`,
        // 5 `t = r + s`. The one-stage else-arm sits beside the inner
        // condition; the join lies past the deepest arm stage.
        assert_eq!(level_of(4), level_of(1));
        assert!(level_of(5) > level_of(3) && level_of(3) > level_of(2));
        assert!(level_of(5) > level_of(4));
        let datasets: Vec<_> = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            .iter()
            .map(|&(a, b)| env(&[("a", a), ("b", b), ("r", 10), ("s", 20)]))
            .collect();
        check_against_interpreter(&program, &datasets);
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
