//! `corpus_pipeline`: the 12-graph netgen corpus is compiled and each
//! graph is deployed on its placed regions with `deploy_placed` (set-up).
//! Each graph then runs one `run_pipelined` wavefront over a large
//! dataset batch at one thread (the timed phase). Every output is
//! checked against `Netlist::evaluate`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vlsi_compile::{compile, CompileOptions, Netlist};
use vlsi_core::{StagedExecutor, VlsiChip};
use vlsi_par::Pool;
use vlsi_prng::Prng;
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::Cluster;

use crate::common::{grouped_percentile_milli, ratio, Bench, Fnv, Pass};
use crate::layers;
use crate::trace::Tracer;

/// Datasets each graph's wavefront carries.
const DATASETS: usize = 192;

struct Graph {
    name: String,
    source: String,
    datasets: Vec<HashMap<String, i64>>,
    expected: Vec<Vec<i64>>,
}

/// The corpus sources, their datasets and the evaluator's outputs.
pub struct CorpusPipeline {
    graphs: Vec<Graph>,
}

struct Deployed {
    chip: VlsiChip,
    exec: StagedExecutor,
    depth: u64,
}

/// Every graph compiled and deployed on a die of its own.
pub struct Ready {
    deployed: Vec<Deployed>,
    stages: u64,
    cut_edges: u64,
}

/// `n` input environments for `netlist`, drawn from `rng`, with the
/// evaluator's outputs for each.
pub fn datasets_for(
    netlist: &Netlist,
    n: usize,
    rng: &mut Prng,
) -> (Vec<HashMap<String, i64>>, Vec<Vec<i64>>) {
    let envs: Vec<HashMap<String, i64>> = (0..n)
        .map(|_| {
            netlist
                .input_names()
                .iter()
                .map(|v| (v.to_string(), rng.gen_range(-500..500i64)))
                .collect()
        })
        .collect();
    let expected = envs.iter().map(|env| netlist.evaluate(env)).collect();
    (envs, expected)
}

impl CorpusPipeline {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Result<CorpusPipeline, String> {
        let mut rng = Prng::seed_from_u64(seed ^ 0xC0_4905);
        let mut graphs = Vec::new();
        for (name, source) in vlsi_workloads::netgen::corpus(seed) {
            let netlist = Netlist::parse(&source).map_err(|e| format!("{name}: {e}"))?;
            let (datasets, expected) = datasets_for(&netlist, DATASETS, &mut rng);
            graphs.push(Graph {
                name,
                source,
                datasets,
                expected,
            });
        }
        Ok(CorpusPipeline { graphs })
    }
}

impl Bench for CorpusPipeline {
    type Ready = Ready;
    const THREADS: usize = 1;
    const SETUPS: usize = 40;
    const SEGMENT_QUANTILE: f64 = 0.0;

    fn setup(&self, threads: usize, telemetry: bool, tr: &Tracer) -> Result<Ready, String> {
        let tel = || {
            if telemetry {
                TelemetryHandle::active()
            } else {
                TelemetryHandle::disabled()
            }
        };
        let opts = CompileOptions {
            telemetry: tel(),
            ..CompileOptions::default()
        };
        let pool = Pool::new(threads);
        let mut ready = Ready {
            deployed: Vec::with_capacity(self.graphs.len()),
            stages: 0,
            cut_edges: 0,
        };
        for g in &self.graphs {
            let c = tr
                .span("compile.compile", || compile(&g.source, &opts))
                .map_err(|e| format!("compile {}: {e}", g.name))?;
            ready.stages += c.partition.stages.len() as u64;
            ready.cut_edges += c.partition.cut_edges as u64;
            let depth = c.program.levels().len() as u64;
            let mut chip = tr.span("core.chip_new", || {
                VlsiChip::with_telemetry(
                    opts.chip_width,
                    opts.chip_height,
                    Cluster::default(),
                    tel(),
                )
            });
            chip.set_region_parallel(Arc::clone(&pool));
            let exec = tr
                .span("core.deploy_placed", || {
                    StagedExecutor::deploy_placed(&mut chip, c.program, &c.placement.regions)
                })
                .map_err(|e| format!("deploy {}: {e}", g.name))?;
            ready.deployed.push(Deployed { chip, exec, depth });
        }
        Ok(ready)
    }

    fn set_threads(&self, ready: &mut Ready, threads: usize) {
        let pool = Pool::new(threads);
        for d in &mut ready.deployed {
            d.chip.set_region_parallel(Arc::clone(&pool));
        }
    }

    fn pass(&self, ready: &mut Ready, tr: &Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut digest = Fnv::default();
        let mut turnaround = Vec::new();
        let (mut ticks, mut mailbox, mut util, mut stage_execs, mut config) = (0, 0, 0, 0, 0);
        for (g, d) in self.graphs.iter().zip(&mut ready.deployed) {
            let fired_before = d.chip.metrics().ap.firings;
            let t0 = tr.now();
            let run = tr.span("core.run_pipelined", || {
                d.exec.run_pipelined(&mut d.chip, &g.datasets)
            });
            let ns = tr.now() - t0;
            pass.timed_ns += ns;
            pass.segments_ns.push(ns);
            let (outs, stats) = run.map_err(|e| format!("run_pipelined {}: {e}", g.name))?;
            pass.firings += d.chip.metrics().ap.firings - fired_before;
            let n = g.datasets.len() as u64;
            pass.requests += n;
            pass.attempted += n;
            pass.datasets += n;
            for (got, want) in outs.iter().zip(&g.expected) {
                if got == want {
                    pass.sim.completed += 1;
                } else {
                    pass.failed += 1;
                }
                for &v in got {
                    digest.i64(v);
                }
            }
            pass.failed += n.saturating_sub(outs.len() as u64);
            pass.sim.offered += n;
            pass.sim.exec_cycles += stats.exec_cycles;
            pass.sim.ticks += stats.ticks;
            // Dataset `i` enters level 0 on tick `i` and leaves the last
            // level `depth` ticks later.
            turnaround.extend(std::iter::repeat_n(d.depth, outs.len()));
            ticks += stats.ticks;
            mailbox += stats.mailbox_writes;
            util += stats.utilization_milli;
            stage_execs += stats.stages_executed;
            config += stats.config_cycles;
            if stats.ticks <= d.depth {
                return Err(format!(
                    "{}: {} wavefront ticks over depth {} — no datasets overlapped",
                    g.name, stats.ticks, d.depth
                ));
            }
        }
        pass.sim.turnaround_p50_milli = grouped_percentile_milli(&mut turnaround, 500);
        pass.sim.turnaround_p99_milli = grouped_percentile_milli(&mut turnaround, 990);
        pass.digest = digest.0;
        let graphs = self.graphs.len() as f64;
        pass.counts.insert("core.wavefront_ticks", ticks as f64);
        pass.counts.insert("core.mailbox_writes", mailbox as f64);
        pass.counts
            .insert("core.utilization_milli", util as f64 / graphs);
        pass.counts.insert("core.stage_execs", stage_execs as f64);
        pass.counts.insert("ap.config_cycles", config as f64);
        Ok(pass)
    }

    fn guards(&self, pass: &Pass) -> Result<(), String> {
        if pass.counts["core.mailbox_writes"] == 0.0 {
            return Err("corpus_pipeline wrote no mailboxes between stages".into());
        }
        if pass.counts["core.stage_execs"] <= self.graphs.len() as f64 * DATASETS as f64 {
            return Err("corpus_pipeline ran every graph as a single stage".into());
        }
        Ok(())
    }

    fn layers(&self, ready: &Ready, pass: &Pass, tr: &Tracer) -> BTreeMap<&'static str, f64> {
        let merged = TelemetryHandle::active();
        for d in &ready.deployed {
            merged.merge_from(d.chip.telemetry());
        }
        let metrics: Vec<_> = ready.deployed.iter().map(|d| d.chip.metrics()).collect();
        let mut m = layers::chip_counters(&merged.snapshot(), &metrics, Default::default());
        let run = tr.totals("core.run_pipelined");
        let deploy = tr.totals("core.deploy_placed");
        let comp = tr.totals("compile.compile");
        m.insert("ap.firings", pass.firings as f64);
        m.insert("ap.config_cycles", pass.counts["ap.config_cycles"]);
        m.insert(
            "core.ns_per_stage_exec",
            ratio(run.total_ns as f64, pass.counts["core.stage_execs"]),
        );
        for k in [
            "core.wavefront_ticks",
            "core.mailbox_writes",
            "core.utilization_milli",
        ] {
            m.insert(k, pass.counts[k]);
        }
        m.insert(
            "core.deploy_ns",
            ratio(deploy.total_ns as f64, deploy.calls as f64),
        );
        m.insert(
            "compile.ns_per_graph",
            ratio(comp.total_ns as f64, comp.calls as f64),
        );
        m.insert("compile.stages", ready.stages as f64);
        m.insert("compile.cut_edges", ready.cut_edges as f64);
        m
    }
}
