//! `engine_sweep`: 1024 APs of 2×2 clusters fill a 64×64 die. Each AP
//! streams a long word stream through the eight-node
//! Load→MulImm→AddImm→INot→MulImm→AddImm→INot→Store kernel, and one
//! `execute_batch` region sweep runs them all on a two-thread pool.
//! Gathering, installing and configuring is set-up; the sweep is the
//! timed phase. Every output word is checked against the kernel's closed
//! form, computed here without the engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use vlsi_core::{ProcessorId, VlsiChip};
use vlsi_object::{
    GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId, Operation, Word,
};
use vlsi_par::Pool;
use vlsi_prng::Prng;
use vlsi_runtime::RuntimeConfig;
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::Cluster;

use crate::common::{grouped_percentile_milli, ratio, Bench, Fnv, Pass};
use crate::layers;
use crate::trace::Tracer;

/// Die edge in clusters.
const WIDTH: u16 = 64;
/// APs in the region: 2×2 clusters each exactly fill the die.
const LANES: usize = 1024;
/// Clusters per AP.
const AP_CLUSTERS: usize = 4;
/// Words each AP streams. Inputs sit at `[0, LEN)` of memory block 0,
/// outputs land at `[LEN, 2·LEN)` of the block the Store object is
/// placed on.
const LEN: u64 = 256;
/// The memory block the Store object (the second memory object) owns.
const OUT_BLOCK: usize = 1;
/// Nodes in the kernel; each fires once per word.
const NODES: u64 = 8;
/// Cycle budget per lane.
const MAX_CYCLES: u64 = 1_000_000;

/// The per-lane kernel constants and input words, drawn from the seed.
pub struct EngineSweep {
    mul_a: Vec<u64>,
    add_b: Vec<u64>,
    inputs: Vec<Vec<Word>>,
    expected: Vec<Vec<u64>>,
}

/// The configured die.
pub struct Ready {
    chip: VlsiChip,
    ids: Vec<ProcessorId>,
    stream: Arc<GlobalConfigStream>,
}

/// The kernel's closed form: the reference the sweep is checked against.
fn kernel(x: u64, a: u64, b: u64) -> u64 {
    let v = !(x.wrapping_mul(a).wrapping_add(7));
    !(v.wrapping_mul(5).wrapping_add(b))
}

impl EngineSweep {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> EngineSweep {
        let mut rng = Prng::seed_from_u64(seed ^ 0xE5_5EED);
        let mut w = EngineSweep {
            mul_a: Vec::with_capacity(LANES),
            add_b: Vec::with_capacity(LANES),
            inputs: Vec::with_capacity(LANES),
            expected: Vec::with_capacity(LANES),
        };
        for _ in 0..LANES {
            let a = rng.gen_range(2..32u64);
            let b = rng.gen_range(0..1024u64);
            let xs: Vec<u64> = (0..LEN).map(|_| rng.next_u64()).collect();
            w.expected
                .push(xs.iter().map(|&x| kernel(x, a, b)).collect());
            w.inputs.push(xs.into_iter().map(Word).collect());
            w.mul_a.push(a);
            w.add_b.push(b);
        }
        w
    }

    fn objects(&self, lane: usize) -> Vec<LogicalObject> {
        let imm = |op, v| LocalConfig::with_imm(op, Word(v));
        vec![
            LogicalObject::memory(ObjectId(0), LocalConfig::op(Operation::Load)).with_init(vec![
                Word(0),
                Word(0),
                Word(LEN),
            ]),
            LogicalObject::compute(ObjectId(1), imm(Operation::MulImm, self.mul_a[lane])),
            LogicalObject::compute(ObjectId(2), imm(Operation::AddImm, 7)),
            LogicalObject::compute(ObjectId(3), LocalConfig::op(Operation::INot)),
            LogicalObject::compute(ObjectId(4), imm(Operation::MulImm, 5)),
            LogicalObject::compute(ObjectId(5), imm(Operation::AddImm, self.add_b[lane])),
            LogicalObject::compute(ObjectId(6), LocalConfig::op(Operation::INot)),
            LogicalObject::memory(ObjectId(7), LocalConfig::op(Operation::Store)).with_init(vec![
                Word(LEN),
                Word(0),
                Word(0),
            ]),
        ]
    }
}

fn config_stream() -> GlobalConfigStream {
    let mut elems: Vec<GlobalConfigElement> = (1..7)
        .map(|i| GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)))
        .collect();
    elems.push(GlobalConfigElement {
        sink: ObjectId(7),
        src_lhs: None,
        src_rhs: Some(ObjectId(6)),
        src_pred: None,
    });
    elems.into_iter().collect()
}

/// Readies every lane for the next sweep: re-installs the kernel on a
/// wiped AP (so the stream pointers start over), refills the inputs,
/// activates and configures. Returns the configure cycles.
fn prime(
    w: &EngineSweep,
    chip: &mut VlsiChip,
    ids: &[ProcessorId],
    stream: &Arc<GlobalConfigStream>,
    tr: &Tracer,
) -> Result<u64, String> {
    let mut config_cycles = 0;
    for (lane, &id) in ids.iter().enumerate() {
        tr.span("ap.install", || chip.install(id, w.objects(lane)))
            .map_err(|e| format!("install lane {lane}: {e}"))?;
        tr.span("core.mailbox", || {
            chip.write_mailbox(id, 0, 0, &w.inputs[lane])
        })
        .map_err(|e| format!("fill lane {lane}: {e}"))?;
        tr.span("core.lifecycle", || chip.activate(id))
            .map_err(|e| format!("activate lane {lane}: {e}"))?;
        let out = tr
            .span("ap.configure", || chip.configure(id, Arc::clone(stream)))
            .map_err(|e| format!("configure lane {lane}: {e}"))?;
        config_cycles += out.cycles;
    }
    Ok(config_cycles)
}

impl Bench for EngineSweep {
    type Ready = Ready;
    const THREADS: usize = 2;
    const SETUPS: usize = 8;
    // One segment on two threads: its fastest passes are the rare
    // moments both vCPUs were quiet at once, so the median reads steadier.
    const SEGMENT_QUANTILE: f64 = 0.5;

    fn setup(&self, threads: usize, telemetry: bool, tr: &Tracer) -> Result<Ready, String> {
        let tel = if telemetry {
            TelemetryHandle::active()
        } else {
            TelemetryHandle::disabled()
        };
        let mut chip = tr.span("core.chip_new", || {
            VlsiChip::with_telemetry(WIDTH, WIDTH, Cluster::default(), tel)
        });
        chip.set_region_parallel(Pool::new(threads));
        let mut ids = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let out = tr
                .span("core.gather", || chip.gather_any(AP_CLUSTERS))
                .map_err(|e| format!("gather lane {lane}: {e}"))?;
            ids.push(out.id);
        }
        let stream = Arc::new(config_stream());
        prime(self, &mut chip, &ids, &stream, tr)?;
        Ok(Ready { chip, ids, stream })
    }

    fn set_threads(&self, ready: &mut Ready, threads: usize) {
        ready.chip.set_region_parallel(Pool::new(threads));
    }

    fn pass(&self, ready: &mut Ready, tr: &Tracer) -> Result<Pass, String> {
        let Ready { chip, ids, stream } = ready;
        let t0 = tr.now();
        let reports = tr
            .span("ap.execute_batch", || {
                chip.execute_batch(ids, 1, MAX_CYCLES)
            })
            .map_err(|e| format!("execute_batch: {e}"))?;
        let timed_ns = tr.now() - t0;

        let cycles_per_tick = RuntimeConfig::default().cycles_per_tick.max(1);
        let mut pass = Pass {
            timed_ns,
            segments_ns: vec![timed_ns],
            requests: LANES as u64,
            attempted: LANES as u64,
            ..Pass::default()
        };
        let mut digest = Fnv::default();
        let mut lane_ticks = Vec::with_capacity(LANES);
        for (lane, (&id, r)) in ids.iter().zip(&reports).enumerate() {
            tr.span("core.lifecycle", || chip.deactivate(id))
                .map_err(|e| format!("deactivate lane {lane}: {e}"))?;
            let out = tr
                .span("core.mailbox", || {
                    chip.read_mailbox(id, OUT_BLOCK, LEN, LEN as usize)
                })
                .map_err(|e| format!("read lane {lane}: {e}"))?;
            let ok = r.drained
                && out.len() == self.expected[lane].len()
                && out.iter().zip(&self.expected[lane]).all(|(w, &e)| w.0 == e);
            if ok {
                pass.sim.completed += 1;
            } else {
                pass.failed += 1;
            }
            pass.datasets += 1;
            pass.firings += r.firings;
            pass.sim.exec_cycles += r.cycles;
            lane_ticks.push((r.cycles / cycles_per_tick).max(1));
            digest.u64(r.cycles);
            digest.u64(r.firings);
            for w in &out {
                digest.u64(w.0);
            }
            tr.span("core.recycle", || chip.recycle_processor(id))
                .map_err(|e| format!("recycle lane {lane}: {e}"))?;
        }
        pass.sim.offered = LANES as u64;
        pass.sim.ticks = lane_ticks.iter().copied().max().unwrap_or(0);
        pass.sim.turnaround_p50_milli = grouped_percentile_milli(&mut lane_ticks, 500);
        pass.sim.turnaround_p99_milli = grouped_percentile_milli(&mut lane_ticks, 990);
        pass.digest = digest.0;
        let config_cycles = prime(self, chip, ids, stream, tr)?;
        pass.counts.insert("ap.config_cycles", config_cycles as f64);
        Ok(pass)
    }

    fn guards(&self, pass: &Pass) -> Result<(), String> {
        let want = LANES as u64 * LEN * NODES;
        if pass.firings != want {
            return Err(format!(
                "engine_sweep fired {} nodes, the kernel needs {want}",
                pass.firings
            ));
        }
        Ok(())
    }

    fn layers(&self, ready: &Ready, pass: &Pass, tr: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut m = layers::chip_counters(
            &ready.chip.telemetry().snapshot(),
            &[ready.chip.metrics()],
            tr.totals("core.gather"),
        );
        let exec = tr.totals("ap.execute_batch");
        let cfg = tr.totals("ap.configure");
        m.insert(
            "ap.ns_per_firing",
            ratio(exec.total_ns as f64, pass.firings as f64),
        );
        m.insert("ap.firings", pass.firings as f64);
        m.insert(
            "ap.configure_ns",
            ratio(cfg.total_ns as f64, cfg.calls as f64),
        );
        m.insert("ap.config_cycles", pass.counts["ap.config_cycles"]);
        m
    }
}
