//! The adaptive processor: stack + WSRF + pipeline + CSD + memory blocks.
//!
//! [`AdaptiveProcessor`] is the paper's minimum schedulable unit: an array
//! of compute physical objects (the stack), an array of memory objects
//! (outside the stack, §2.6.2), a WSRF, the management pipeline, and a
//! dynamic CSD network spanning both regions.
//!
//! Two execution regimes, per §2.5:
//!
//! * **streaming** — [`configure`](AdaptiveProcessor::configure) +
//!   [`execute`](AdaptiveProcessor::execute): the whole datapath is made
//!   resident and chained, then data streams through it. Requires the
//!   working set to fit the capacity `C`.
//! * **scalar (virtual hardware)** —
//!   [`execute_scalar`](AdaptiveProcessor::execute_scalar): elements are
//!   processed one at a time with objects swapped in and out on demand, so
//!   a datapath *larger than the array* still runs, at swap cost. This is
//!   the paper's virtual hardware: "An unused object should be swapped out
//!   to a memory block to make room for a newly requested object(s)."

use crate::datapath::{Datapath, ExecutionReport, NodeSpec};
use crate::error::ApError;
use crate::metrics::ApMetrics;
use crate::pipeline::{ConfigureOutcome, Pipeline, TraceEvent, CFB_COUNT, STAGES};
use crate::soa::SoaLane;
use crate::stack::{ObjectStack, ReferenceOutcome};
use crate::wsrf::{WorkingSetRegisterFile, WSRF_ENTRIES};
use std::collections::HashMap;
use std::sync::Arc;
use vlsi_csd::DynamicCsd;
use vlsi_object::{
    BoundObject, GlobalConfigStream, LogicalObject, MemoryBlock, ObjectId, ObjectKind,
    ObjectLibrary, Operation, Word,
};
use vlsi_telemetry::TelemetryHandle;

/// Structural parameters of one adaptive processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ApConfig {
    /// Compute physical objects — the stack capacity `C` (paper: 16).
    pub compute_objects: usize,
    /// Memory objects, each with a 64 KiB block (paper: 16).
    pub memory_objects: usize,
    /// CSD channels. The paper's Figure 3 finding: `N/2` channels suffice
    /// for random datapaths, which is the default here.
    pub channels: usize,
    /// WSRF entries (Table 3: 40).
    pub wsrf_entries: usize,
    /// Configuration buffers (Table 3: 3).
    pub cfb_count: usize,
}

impl Default for ApConfig {
    fn default() -> ApConfig {
        let compute = 16;
        let memory = 16;
        ApConfig {
            compute_objects: compute,
            memory_objects: memory,
            channels: (compute + memory) / 2,
            wsrf_entries: WSRF_ENTRIES,
            cfb_count: CFB_COUNT,
        }
    }
}

impl ApConfig {
    /// Total CSD positions (compute stack + memory region).
    pub fn positions(&self) -> usize {
        self.compute_objects + self.memory_objects
    }
}

/// One adaptive processor.
///
/// ```
/// use vlsi_ap::{AdaptiveProcessor, ApConfig};
/// use vlsi_object::{
///     GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId,
///     Operation, Word,
/// };
///
/// let mut ap = AdaptiveProcessor::new(ApConfig::default());
/// // Install two logical objects: a constant and an incrementer.
/// ap.install([
///     LogicalObject::compute(ObjectId(0), LocalConfig::with_imm(Operation::Const, Word(41))),
///     LogicalObject::compute(ObjectId(1), LocalConfig::with_imm(Operation::AddImm, Word(1))),
/// ])
/// .unwrap();
/// // The global configuration stream chains 0 -> 1.
/// let stream: GlobalConfigStream =
///     [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))].into_iter().collect();
/// let outcome = ap.configure(stream).unwrap();
/// assert_eq!(outcome.misses, 2); // both compulsory
/// let report = ap.execute(1, 100_000).unwrap();
/// assert_eq!(report.taps[&ObjectId(1)], vec![Word(42)]);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveProcessor {
    cfg: ApConfig,
    stack: ObjectStack,
    wsrf: WorkingSetRegisterFile,
    library: ObjectLibrary,
    csd: DynamicCsd,
    memory: Vec<MemoryBlock>,
    /// Memory objects bound in the memory region, in position order.
    memory_binds: Vec<BoundObject>,
    pipeline: Pipeline,
    metrics: ApMetrics,
    /// Resident datapaths, in configuration order ("The AP can configure
    /// multiple application datapaths in a sequential configuration
    /// manner", §1). Each entry keeps its stream, its executable graph,
    /// and the CSD routes chaining it.
    datapaths: Vec<ResidentDatapath>,
    /// Observability sink; the default handle is a no-op.
    telemetry: TelemetryHandle,
}

#[derive(Clone, Debug)]
struct ResidentDatapath {
    /// Shared, not owned: callers that keep a program resident (the
    /// staged executor, the pipelined batch path) hand the same
    /// `Arc` in on every reconfigure instead of deep-copying the
    /// stream's elements each time.
    stream: Arc<GlobalConfigStream>,
    dp: Datapath,
    routes: Vec<vlsi_csd::RouteId>,
}

impl Default for AdaptiveProcessor {
    fn default() -> Self {
        AdaptiveProcessor::new(ApConfig::default())
    }
}

impl AdaptiveProcessor {
    /// Builds a processor with the given structure (telemetry disabled).
    pub fn new(cfg: ApConfig) -> AdaptiveProcessor {
        AdaptiveProcessor::with_telemetry(cfg, TelemetryHandle::disabled())
    }

    /// Builds a processor recording into `telemetry`: per-stage pipeline
    /// occupancy (`ap.stage[i]` lanes, Figure 1 stage order), the
    /// `ap.miss_stall` histogram (stall cycles per miss batch), and
    /// hit/miss/eviction counters. The handle is also threaded into this
    /// processor's CSD network, so `csd.*` instruments land in the same
    /// registry.
    pub fn with_telemetry(cfg: ApConfig, telemetry: TelemetryHandle) -> AdaptiveProcessor {
        AdaptiveProcessor {
            cfg,
            stack: ObjectStack::new(cfg.compute_objects),
            wsrf: WorkingSetRegisterFile::with_capacity(cfg.wsrf_entries),
            library: ObjectLibrary::new(),
            csd: DynamicCsd::with_telemetry(cfg.positions(), cfg.channels, telemetry.clone()),
            memory: (0..cfg.memory_objects)
                .map(|_| MemoryBlock::new())
                .collect(),
            memory_binds: Vec::new(),
            pipeline: Pipeline {
                cfb_count: cfg.cfb_count,
                ..Pipeline::new()
            },
            metrics: ApMetrics::default(),
            datapaths: Vec::new(),
            telemetry,
        }
    }

    /// The structural configuration.
    pub fn config(&self) -> &ApConfig {
        &self.cfg
    }

    /// Registers logical objects into the library. Memory-kind objects are
    /// additionally *bound* into the memory region immediately (they do
    /// not participate in the stack); their block index defaults to their
    /// binding order when `regs[1]` is zero.
    pub fn install(
        &mut self,
        objects: impl IntoIterator<Item = LogicalObject>,
    ) -> Result<(), ApError> {
        for obj in objects {
            if obj.kind == ObjectKind::Memory {
                if self.memory_binds.len() >= self.cfg.memory_objects {
                    return Err(ApError::WorkingSetExceedsCapacity {
                        working_set: self.memory_binds.len() + 1,
                        capacity: self.cfg.memory_objects,
                    });
                }
                let mut bound = BoundObject::bind(obj.clone());
                if bound.regs[1] == Word::ZERO {
                    bound.regs[1] = Word(self.memory_binds.len() as u64);
                }
                self.memory_binds.push(bound);
            }
            self.library.register(obj)?;
        }
        Ok(())
    }

    /// IDs of the bound memory objects, in position order.
    pub fn memory_ids(&self) -> Vec<ObjectId> {
        self.memory_binds.iter().map(|b| b.id()).collect()
    }

    /// Configures a streaming datapath through the management pipeline.
    ///
    /// Any previously configured datapaths are released first (their
    /// chains freed, their objects left cached in the stack). To keep
    /// earlier datapaths resident, use
    /// [`configure_another`](Self::configure_another).
    ///
    /// The stream is accepted as anything convertible into an
    /// `Arc<GlobalConfigStream>`: owned streams work as before, while
    /// callers that configure the same stream repeatedly (the staged
    /// executor's deploy/run paths) can pass a cheap `Arc` clone and
    /// never copy the elements.
    pub fn configure(
        &mut self,
        stream: impl Into<Arc<GlobalConfigStream>>,
    ) -> Result<ConfigureOutcome, ApError> {
        self.release();
        self.configure_another(stream)
    }

    /// Configures an *additional* datapath without releasing the resident
    /// ones (§1's sequential configuration of multiple datapaths).
    ///
    /// The combined compute working set of all resident datapaths must
    /// fit the array, so every one of them stays executable. Because
    /// loading the new datapath's objects stack-shifts the array, the
    /// resident datapaths are re-requested and re-chained afterwards —
    /// exactly the paper's "the objects are requested again and will be
    /// chained" replay, at object-cache-hit cost.
    pub fn configure_another(
        &mut self,
        stream: impl Into<Arc<GlobalConfigStream>>,
    ) -> Result<ConfigureOutcome, ApError> {
        let stream: Arc<GlobalConfigStream> = stream.into();
        let memory_ids = self.memory_ids();
        // Combined compute working set must stay resident.
        let mut combined: Vec<ObjectId> = Vec::new();
        for s in self
            .datapaths
            .iter()
            .map(|r| r.stream.as_ref())
            .chain(std::iter::once(stream.as_ref()))
        {
            for id in s.working_set() {
                if !memory_ids.contains(&id) && !combined.contains(&id) {
                    combined.push(id);
                }
            }
        }
        if combined.len() > self.stack.capacity() {
            return Err(ApError::WorkingSetExceedsCapacity {
                working_set: combined.len(),
                capacity: self.stack.capacity(),
            });
        }
        // Tear down every live chain: the new configuration may shift the
        // stack, and chains are re-requested afterwards.
        for r in self.datapaths.iter_mut() {
            for route in r.routes.drain(..) {
                let _ = self.csd.disconnect(route);
            }
        }
        // Configure the new stream first (it faults its objects in), then
        // replay the resident streams (pure hits) to re-chain them.
        let outcome = self.configure_one(&stream, &memory_ids)?;
        let dp = self.build_datapath(&stream)?;
        self.datapaths.push(ResidentDatapath {
            stream,
            dp,
            routes: outcome.route_ids.clone(),
        });
        for i in 0..self.datapaths.len() - 1 {
            let s = Arc::clone(&self.datapaths[i].stream);
            let re = self.configure_one(&s, &memory_ids)?;
            let dp = self.build_datapath(&s)?;
            self.datapaths[i].routes = re.route_ids.clone();
            self.datapaths[i].dp = dp;
        }
        Ok(outcome)
    }

    fn configure_one(
        &mut self,
        stream: &GlobalConfigStream,
        memory_ids: &[ObjectId],
    ) -> Result<ConfigureOutcome, ApError> {
        let outcome = if self.telemetry.is_enabled() {
            let (outcome, events) = self.pipeline.configure_traced(
                stream,
                &mut self.stack,
                &mut self.wsrf,
                &mut self.library,
                &mut self.csd,
                memory_ids,
            )?;
            self.record_trace(&events);
            outcome
        } else {
            self.pipeline.configure(
                stream,
                &mut self.stack,
                &mut self.wsrf,
                &mut self.library,
                &mut self.csd,
                memory_ids,
            )?
        };
        self.metrics.config_cycles += outcome.cycles;
        self.metrics.object_hits += outcome.hits;
        self.metrics.object_misses += outcome.misses;
        self.metrics.swap_outs += outcome.evictions;
        self.metrics.chains += outcome.routes;
        self.metrics.stack_shifts = self.stack.shift_count();
        Ok(outcome)
    }

    /// Folds a Figure 1 configuration trace into the instrument registry:
    /// each event tallies occupancy of the pipeline stage that produced
    /// it (`ap.stage[i]`, [`STAGES`] order), miss-batch stalls land in
    /// the `ap.miss_stall` histogram.
    fn record_trace(&self, events: &[TraceEvent]) {
        let stage = |i: usize| i.min(STAGES.len() - 1) as u64;
        for e in events {
            match e {
                TraceEvent::Fetched { .. } => {
                    // Stages 1-3 advance in lockstep, one element each.
                    self.telemetry.count_at("ap.stage", stage(0), 1);
                    self.telemetry.count_at("ap.stage", stage(1), 1);
                    self.telemetry.count_at("ap.stage", stage(2), 1);
                }
                TraceEvent::Hit { .. } => {
                    self.telemetry.count_at("ap.stage", stage(3), 1);
                    self.telemetry.count("ap.hits", 1);
                }
                TraceEvent::Miss { .. } => {
                    self.telemetry.count_at("ap.stage", stage(3), 1);
                    self.telemetry.count("ap.misses", 1);
                }
                TraceEvent::Loaded { stall, .. } => {
                    self.telemetry.record("ap.miss_stall", *stall);
                }
                TraceEvent::Evicted { .. } => {
                    self.telemetry.count("ap.evictions", 1);
                }
                TraceEvent::Chained { .. } => {
                    self.telemetry.count_at("ap.stage", stage(4), 1);
                }
            }
        }
    }

    /// Builds the executable graph from the now-resident objects.
    fn build_datapath(&self, stream: &GlobalConfigStream) -> Result<Datapath, ApError> {
        let stack = &self.stack;
        let memory_binds = &self.memory_binds;
        Datapath::build(stream, |id| {
            if let Some(b) = stack.get(id) {
                return Some(NodeSpec {
                    id,
                    cfg: b.logical.cfg,
                    kind: b.logical.kind,
                    regs: b.regs,
                });
            }
            memory_binds
                .iter()
                .find(|b| b.id() == id)
                .map(|b| NodeSpec {
                    id,
                    cfg: b.logical.cfg,
                    kind: b.logical.kind,
                    regs: b.regs,
                })
        })
    }

    /// Number of resident datapaths.
    pub fn datapath_count(&self) -> usize {
        self.datapaths.len()
    }

    /// Runs the most recently configured datapath. `tap_limit` bounds
    /// values collected per tap; `max_cycles` bounds simulation.
    pub fn execute(&mut self, tap_limit: u64, max_cycles: u64) -> Result<ExecutionReport, ApError> {
        if self.datapaths.is_empty() {
            return Err(ApError::EmptyDatapath);
        }
        self.execute_datapath(self.datapaths.len() - 1, tap_limit, max_cycles)
    }

    /// Runs resident datapath `index` (configuration order) as a
    /// one-lane run of the datapath engine.
    pub fn execute_datapath(
        &mut self,
        index: usize,
        tap_limit: u64,
        max_cycles: u64,
    ) -> Result<ExecutionReport, ApError> {
        let mut lane = self.begin_batch_at(index)?;
        lane.run(tap_limit, max_cycles);
        self.finish_batch(lane)
    }

    /// Detaches the most recently configured datapath (plus this AP's
    /// memory blocks) into a [`SoaLane`] for a region executor to run.
    /// The lane must come back through
    /// [`finish_batch`](Self::finish_batch) — until then the AP has no
    /// memory and must not execute.
    pub fn begin_batch(&mut self) -> Result<SoaLane, ApError> {
        if self.datapaths.is_empty() {
            return Err(ApError::EmptyDatapath);
        }
        self.begin_batch_at(self.datapaths.len() - 1)
    }

    /// Detaches resident datapath `index` (configuration order) into a
    /// [`SoaLane`] — see [`begin_batch`](Self::begin_batch).
    pub fn begin_batch_at(&mut self, index: usize) -> Result<SoaLane, ApError> {
        let Some(resident) = self.datapaths.get_mut(index) else {
            return Err(ApError::EmptyDatapath);
        };
        let mut lane = SoaLane::new(
            std::mem::take(&mut resident.dp),
            std::mem::take(&mut self.memory),
        );
        lane.datapath_index = index;
        Ok(lane)
    }

    /// Reattaches a [`SoaLane`]: memory and the datapath (with its
    /// advanced register state) come home; on success the registers
    /// (stream pointers) are persisted to the bound objects, so a later
    /// swap-out writes them to the library, and metrics fold in. A
    /// failed lane persists nothing and folds no metrics.
    pub fn finish_batch(&mut self, lane: SoaLane) -> Result<ExecutionReport, ApError> {
        let index = lane.datapath_index;
        let (dp, memory, outcome) = lane.finish();
        self.memory = memory;
        let Some(resident) = self.datapaths.get_mut(index) else {
            return Err(ApError::EmptyDatapath);
        };
        resident.dp = dp;
        let report = outcome?;
        for spec in resident.dp.specs() {
            if let Some(b) = self.stack.get_mut(spec.id) {
                b.regs = spec.regs;
            } else if let Some(b) = self.memory_binds.iter_mut().find(|b| b.id() == spec.id) {
                b.regs = spec.regs;
            }
        }
        Datapath::report_metrics(&report, &mut self.metrics);
        Ok(report)
    }

    /// Releases all configured datapaths: every chain is torn down and the
    /// WSRF cleared. Objects remain cached in the stack — the object cache
    /// keeps them until LRU replacement evicts them (§2.4).
    pub fn release(&mut self) {
        for acq in self.wsrf.release_all() {
            for r in acq.routes {
                let _ = self.csd.disconnect(r);
            }
        }
        // Routes recorded per datapath may overlap with WSRF records;
        // disconnect is idempotent on unknown routes.
        for r in self.datapaths.drain(..) {
            for route in r.routes {
                let _ = self.csd.disconnect(route);
            }
        }
    }

    /// Releases a single resident datapath by index (firing its release
    /// tokens' effect): its chains are torn down; its objects stay cached.
    /// Later datapaths shift down one index.
    pub fn release_datapath(&mut self, index: usize) -> Result<(), ApError> {
        if index >= self.datapaths.len() {
            return Err(ApError::EmptyDatapath);
        }
        let resident = self.datapaths.remove(index);
        for route in resident.routes {
            let _ = self.csd.disconnect(route);
        }
        Ok(())
    }

    /// Scalar-mode execution: virtual hardware (§2.5).
    ///
    /// Elements are evaluated one at a time; each referenced compute object
    /// is faulted in on demand (library load + stack shift + possible LRU
    /// eviction and write-back). The working set may exceed the array
    /// capacity. Memory objects stream through their blocks as in
    /// streaming mode. Returns the final value produced by each sink.
    pub fn execute_scalar(
        &mut self,
        stream: &GlobalConfigStream,
    ) -> Result<HashMap<ObjectId, Word>, ApError> {
        if stream.is_empty() {
            return Err(ApError::EmptyDatapath);
        }
        self.release();
        let memory_ids = self.memory_ids();
        let mut values: HashMap<ObjectId, Word> = HashMap::new();
        for e in stream.elements() {
            // Fault in the referenced compute objects.
            for id in e.referenced() {
                if memory_ids.contains(&id) {
                    continue;
                }
                match self.stack.reference(id) {
                    ReferenceOutcome::Hit { .. } => {
                        self.metrics.object_hits += 1;
                    }
                    ReferenceOutcome::Miss => {
                        self.metrics.object_misses += 1;
                        self.metrics.config_cycles += u64::from(ObjectLibrary::LOAD_LATENCY);
                        let logical = self.library.load(id)?;
                        if let Some(victim) = self.stack.insert_top(BoundObject::bind(logical)) {
                            self.metrics.swap_outs += 1;
                            self.library.write_back(victim.unbind());
                        }
                    }
                }
                self.metrics.config_cycles += 1;
            }
            // Constant sources are self-firing: they produce their
            // immediate the first time anything consumes them.
            for src in e.sources() {
                if let std::collections::hash_map::Entry::Vacant(e) = values.entry(src) {
                    if let Ok((Operation::Const, imm)) = self.op_of(src, &memory_ids) {
                        e.insert(imm);
                    }
                }
            }
            // Evaluate the element.
            let (op, imm) = self.op_of(e.sink, &memory_ids)?;
            let get = |src: Option<ObjectId>, values: &HashMap<ObjectId, Word>| {
                src.and_then(|id| values.get(&id).copied())
                    .unwrap_or(Word::ZERO)
            };
            let lhs = get(e.src_lhs, &values);
            let rhs = get(e.src_rhs, &values);
            let pred = get(e.src_pred, &values);
            let result = match op {
                Operation::Load => {
                    let b = self
                        .memory_binds
                        .iter_mut()
                        .find(|b| b.id() == e.sink)
                        .ok_or(ApError::UndefinedSource(e.sink))?;
                    let block = b.regs[1].as_u64() as usize;
                    let addr = if e.src_lhs.is_some() {
                        b.regs[0].as_u64() + lhs.as_u64()
                    } else {
                        let a = b.regs[0].as_u64();
                        b.regs[0] = Word(a + 1);
                        a
                    };
                    let mem = self
                        .memory
                        .get_mut(block)
                        .ok_or(ApError::UndefinedSource(e.sink))?;
                    self.metrics.loads += 1;
                    Some(mem.load(addr)?)
                }
                Operation::Store => {
                    let b = self
                        .memory_binds
                        .iter_mut()
                        .find(|b| b.id() == e.sink)
                        .ok_or(ApError::UndefinedSource(e.sink))?;
                    let block = b.regs[1].as_u64() as usize;
                    let addr = if e.src_lhs.is_some() {
                        lhs.as_u64()
                    } else {
                        let a = b.regs[0].as_u64();
                        b.regs[0] = Word(a + 1);
                        a
                    };
                    let mem = self
                        .memory
                        .get_mut(block)
                        .ok_or(ApError::UndefinedSource(e.sink))?;
                    mem.store(addr, rhs)?;
                    self.metrics.stores += 1;
                    None
                }
                Operation::SteerTrue => pred.as_bool().then_some(lhs),
                Operation::SteerFalse => (!pred.as_bool()).then_some(lhs),
                op => op.eval(lhs, rhs, imm),
            };
            self.metrics.firings += 1;
            self.metrics.exec_cycles += u64::from(op.latency());
            if let Some(v) = result {
                values.insert(e.sink, v);
            }
        }
        Ok(values)
    }

    fn op_of(&self, id: ObjectId, memory_ids: &[ObjectId]) -> Result<(Operation, Word), ApError> {
        if memory_ids.contains(&id) {
            let b = self
                .memory_binds
                .iter()
                .find(|b| b.id() == id)
                .ok_or(ApError::UndefinedSource(id))?;
            return Ok((b.logical.cfg.op, b.logical.cfg.imm));
        }
        let b = self.stack.get(id).ok_or(ApError::UndefinedSource(id))?;
        Ok((b.logical.cfg.op, b.logical.cfg.imm))
    }

    /// Read access to memory block `block` (e.g. to inspect store streams).
    pub fn memory(&self, block: usize) -> Option<&MemoryBlock> {
        self.memory.get(block)
    }

    /// Write access to memory block `block` — the path a *preceding*
    /// processor (or host) uses to fill inputs while this processor is
    /// inactive (§3.3, Figure 7(d)).
    pub fn memory_mut(&mut self, block: usize) -> Option<&mut MemoryBlock> {
        self.memory.get_mut(block)
    }

    /// The object stack (for inspection).
    pub fn stack(&self) -> &ObjectStack {
        &self.stack
    }

    /// The WSRF (for inspection).
    pub fn wsrf(&self) -> &WorkingSetRegisterFile {
        &self.wsrf
    }

    /// The library (for inspection).
    pub fn library(&self) -> &ObjectLibrary {
        &self.library
    }

    /// The CSD network (for inspection).
    pub fn csd(&self) -> &DynamicCsd {
        &self.csd
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> ApMetrics {
        let mut m = self.metrics;
        m.stack_shifts = self.stack.shift_count();
        m
    }

    /// Releases everything and writes all cached objects back to the
    /// library — the processor returns to the `release` lifecycle state
    /// with no residual state in the array.
    pub fn flush(&mut self) {
        self.release();
        for logical in self.stack.drain_write_back() {
            self.metrics.swap_outs += 1;
            self.library.write_back(logical);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_object::{GlobalConfigElement, LocalConfig};

    fn ap() -> AdaptiveProcessor {
        AdaptiveProcessor::new(ApConfig::default())
    }

    fn const_obj(id: u32, v: u64) -> LogicalObject {
        LogicalObject::compute(
            ObjectId(id),
            LocalConfig::with_imm(Operation::Const, Word(v)),
        )
    }

    fn unary_obj(id: u32, op: Operation, imm: u64) -> LogicalObject {
        LogicalObject::compute(ObjectId(id), LocalConfig::with_imm(op, Word(imm)))
    }

    #[test]
    fn streaming_configure_execute() {
        let mut p = ap();
        p.install([const_obj(0, 5), unary_obj(1, Operation::AddImm, 3)])
            .unwrap();
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let out = p.configure(stream).unwrap();
        assert_eq!(out.misses, 2);
        let report = p.execute(1, 100_000).unwrap();
        assert_eq!(report.taps[&ObjectId(1)], vec![Word(8)]);
        assert!(p.metrics().exec_cycles > 0);
    }

    #[test]
    fn memory_stream_roundtrip() {
        let mut p = ap();
        // Memory object 100 loads 4 words from block 0; compute negates;
        // memory object 101 stores into block 1.
        let mut load = LogicalObject::memory(ObjectId(100), LocalConfig::op(Operation::Load));
        load.init = vec![Word(0), Word(0), Word(4)];
        let mut store = LogicalObject::memory(ObjectId(101), LocalConfig::op(Operation::Store));
        store.init = vec![Word(0), Word(1), Word(0)];
        p.install([load, store, unary_obj(1, Operation::MulImm, 10)])
            .unwrap();
        for i in 0..4 {
            p.memory_mut(0).unwrap().store(i, Word(i + 1)).unwrap();
        }
        let stream: GlobalConfigStream = [
            GlobalConfigElement::unary(ObjectId(1), ObjectId(100)),
            GlobalConfigElement {
                sink: ObjectId(101),
                src_lhs: None,
                src_rhs: Some(ObjectId(1)),
                src_pred: None,
            },
        ]
        .into_iter()
        .collect();
        p.configure(stream).unwrap();
        let report = p.execute(0, 100_000).unwrap();
        assert_eq!(report.stores, 4);
        for i in 0..4u64 {
            assert_eq!(p.memory(1).unwrap().peek(i).unwrap(), Word((i + 1) * 10));
        }
    }

    #[test]
    fn release_keeps_objects_cached() {
        let mut p = ap();
        p.install([const_obj(0, 1), unary_obj(1, Operation::AddImm, 1)])
            .unwrap();
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        p.configure(stream.clone()).unwrap();
        p.release();
        assert_eq!(p.csd().used_channels(), 0);
        assert_eq!(p.stack().len(), 2, "objects stay cached after release");
        // Reconfiguring hits.
        let out = p.configure(stream).unwrap();
        assert_eq!(out.misses, 0);
    }

    #[test]
    fn flush_writes_everything_back() {
        let mut p = ap();
        p.install([const_obj(0, 1), unary_obj(1, Operation::AddImm, 1)])
            .unwrap();
        let stream: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        p.configure(stream).unwrap();
        p.flush();
        assert!(p.stack().is_empty());
        assert_eq!(p.library().store_count(), 2);
    }

    #[test]
    fn scalar_mode_runs_oversized_working_sets() {
        // 24 objects on a 16-slot array: streaming is rejected, scalar works.
        let mut p = ap();
        let mut objs = vec![const_obj(0, 1)];
        for i in 1..24u32 {
            objs.push(unary_obj(i, Operation::AddImm, 1));
        }
        p.install(objs).unwrap();
        let stream: GlobalConfigStream = (1..24u32)
            .map(|i| GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)))
            .collect();
        assert!(matches!(
            p.configure(stream.clone()),
            Err(ApError::WorkingSetExceedsCapacity { .. })
        ));
        let values = p.execute_scalar(&stream).unwrap();
        // Chain of 23 increments starting from 1.
        assert_eq!(values[&ObjectId(23)], Word(24));
        let m = p.metrics();
        assert!(
            m.object_misses >= 24,
            "every object faulted in at least once"
        );
    }

    #[test]
    fn scalar_mode_swaps_preserve_hit_rate_structure() {
        // A loop over 4 objects on a 2-slot array thrashes; on a 8-slot
        // array it hits. Compare swap counts.
        let small_cfg = ApConfig {
            compute_objects: 2,
            ..ApConfig::default()
        };
        let make_stream = || -> GlobalConfigStream {
            let mut v = Vec::new();
            for _ in 0..8 {
                for i in 1..4u32 {
                    v.push(GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)));
                }
            }
            v.into_iter().collect()
        };
        let mut small = AdaptiveProcessor::new(small_cfg);
        let mut big = ap();
        for p in [&mut small, &mut big] {
            p.install((0..4u32).map(|i| unary_obj(i, Operation::AddImm, 1)))
                .unwrap();
        }
        small.execute_scalar(&make_stream()).unwrap();
        big.execute_scalar(&make_stream()).unwrap();
        assert!(small.metrics().object_misses > big.metrics().object_misses);
        assert!(small.metrics().swap_outs > big.metrics().swap_outs);
        assert!(small.metrics().hit_rate() < big.metrics().hit_rate());
    }

    #[test]
    fn multiple_datapaths_coexist() {
        // §1: "The AP can configure multiple application datapaths in a
        // sequential configuration manner." Two independent chains share
        // the array and the CSD network, and both execute.
        let mut p = ap();
        p.install([
            const_obj(0, 10),
            unary_obj(1, Operation::AddImm, 1),
            const_obj(10, 20),
            unary_obj(11, Operation::MulImm, 3),
        ])
        .unwrap();
        let a: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let b: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(11), ObjectId(10))]
            .into_iter()
            .collect();
        p.configure(a).unwrap();
        let out_b = p.configure_another(b).unwrap();
        assert_eq!(p.datapath_count(), 2);
        assert_eq!(out_b.misses, 2, "only b's objects fault");
        // Both datapaths run, in either order, repeatedly.
        let rb = p.execute_datapath(1, 1, 100_000).unwrap();
        assert_eq!(rb.taps[&ObjectId(11)], vec![Word(60)]);
        let ra = p.execute_datapath(0, 1, 100_000).unwrap();
        assert_eq!(ra.taps[&ObjectId(1)], vec![Word(11)]);
        // Releasing one keeps the other chained and runnable.
        p.release_datapath(0).unwrap();
        assert_eq!(p.datapath_count(), 1);
        let rb2 = p.execute_datapath(0, 1, 100_000).unwrap();
        assert_eq!(rb2.taps[&ObjectId(11)], vec![Word(60)]);
        p.csd().check_invariants().unwrap();
    }

    #[test]
    fn combined_working_set_enforced_across_datapaths() {
        let mut p = AdaptiveProcessor::new(ApConfig {
            compute_objects: 3,
            ..ApConfig::default()
        });
        p.install((0..6u32).map(|i| unary_obj(i, Operation::AddImm, 1)))
            .unwrap();
        let a: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(1), ObjectId(0))]
            .into_iter()
            .collect();
        let b: GlobalConfigStream = [GlobalConfigElement::unary(ObjectId(3), ObjectId(2))]
            .into_iter()
            .collect();
        p.configure(a).unwrap();
        // 2 + 2 objects on a 3-slot array: rejected, first stays intact.
        assert!(matches!(
            p.configure_another(b),
            Err(ApError::WorkingSetExceedsCapacity { .. })
        ));
        assert_eq!(p.datapath_count(), 1);
    }

    #[test]
    fn execute_without_configure_errors() {
        let mut p = ap();
        assert!(matches!(p.execute(1, 100), Err(ApError::EmptyDatapath)));
    }

    #[test]
    fn install_too_many_memory_objects() {
        let mut p = AdaptiveProcessor::new(ApConfig {
            memory_objects: 1,
            ..ApConfig::default()
        });
        let m0 = LogicalObject::memory(ObjectId(100), LocalConfig::op(Operation::Load));
        let m1 = LogicalObject::memory(ObjectId(101), LocalConfig::op(Operation::Load));
        p.install([m0]).unwrap();
        assert!(p.install([m1]).is_err());
    }
}
