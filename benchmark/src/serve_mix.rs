//! `serve_mix`: an open loop at one fixed arrival rate, near the
//! admission knee, in simulated ticks. An `IngestClient` feeds an
//! `IngestService` in front of a ring `Cluster` of four small dies at one
//! thread, and one chip dies a third of the way through the trace. Job
//! specs come from `mixed_jobs` (stream, blocks and idle jobs); every
//! `STAGED_EVERY`-th arrival is a compiled corpus program run as a
//! `Workload::Staged` job. The timed phase is the whole trace, from the
//! first arrival until every request reaches a terminal state.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use vlsi_compile::{compile, CompileOptions, Netlist};
use vlsi_core::VlsiChip;
use vlsi_fabric::{Cluster as ChipCluster, ClusterConfig, ClusterTopology};
use vlsi_faults::{Fault, FaultKind, FaultPlan};
use vlsi_ingest::{
    accounting, ClientConfig, IngestClient, IngestConfig, IngestError, IngestService, IngestSink,
};
use vlsi_par::Pool;
use vlsi_prng::Prng;
use vlsi_runtime::mix::mixed_jobs;
use vlsi_runtime::{Fifo, JobOutput, JobSpec, JobState, Runtime, RuntimeConfig, Workload};
use vlsi_telemetry::TelemetryHandle;
use vlsi_topology::Cluster;
use vlsi_workloads::{arrival_trace, ArrivalEvent, ArrivalProfile};

use crate::common::{grouped_percentile_milli, percentile, ratio, Bench, Fnv, Pass};
use crate::corpus_pipeline::datasets_for;
use crate::layers;
use crate::trace::Tracer;

/// Dies in the ring.
const CHIPS: usize = 4;
/// Die edge in clusters.
const DIE: u16 = 16;
/// Arrival rate, milli-jobs per tick: at the admission knee of four
/// 16×16 dies that lose one die, where degraded-mode shedding begins (at
/// most ~1% of arrivals shed across seeds; at 5 jobs/tick it is 2–7%).
const RATE_MILLI: u64 = 4500;
/// Ticks over which arrivals are drawn.
const HORIZON: u64 = 1000;
/// Tenants in the trace.
const TENANTS: u16 = 6;
/// The chip that dies, and when: a third of the way in.
const DEAD_CHIP: u16 = 3;
const DEATH_TICK: u64 = HORIZON / 3;
/// Every this-many-th arrival is a compiled staged program.
const STAGED_EVERY: usize = 10;
/// Datasets each staged job carries.
const STAGED_DATASETS: usize = 4;
/// Corpus graphs (by netgen corpus index) small enough to serve as jobs.
const STAGED_GRAPHS: &[usize] = &[0, 1, 3, 4, 6, 7, 9, 10];
/// Trace length at which a non-draining run counts as hung.
const MAX_TICKS: u64 = HORIZON * 40;

struct StagedArrival {
    graph: usize,
    datasets: Vec<HashMap<String, i64>>,
    expected: Vec<Vec<i64>>,
}

/// The arrival trace, the job mix and the staged jobs' datasets.
pub struct ServeMix {
    seed: u64,
    arrivals: Vec<ArrivalEvent>,
    mixed: Vec<JobSpec>,
    sources: Vec<(String, String)>,
    staged: BTreeMap<usize, StagedArrival>,
    /// AP node firings of one trace, counted once by polling every
    /// running job's processors after each tick (the trace is
    /// deterministic, so every pass fires the same nodes).
    firings: Cell<Option<u64>>,
}

/// The cluster front door, ready for one trace.
pub struct Ready {
    specs: Vec<JobSpec>,
    service: IngestService<TimedSink>,
    client: IngestClient,
    threads: usize,
    telemetry: bool,
    stages: u64,
    cut_edges: u64,
}

/// The cluster, wrapped so the benchmark can time every call the ingest
/// service makes into it.
struct TimedSink {
    inner: ChipCluster,
    tr: Tracer,
    ticks: u64,
    /// `(arrival index, service tick)` of every accepted request, kept
    /// while tracing.
    admitted: Vec<(usize, u64)>,
}

impl IngestSink for TimedSink {
    fn submit_job(&mut self, spec: JobSpec) -> bool {
        let arrival = spec.name.strip_prefix('a').and_then(|s| s.parse().ok());
        let inner = &mut self.inner;
        let ok = self.tr.span("cluster.submit", || inner.submit_job(spec));
        if ok && self.tr.enabled() {
            if let Some(i) = arrival {
                self.admitted.push((i, self.ticks + 1));
            }
        }
        ok
    }

    fn tick_sink(&mut self) -> Result<(), IngestError> {
        self.ticks += 1;
        let inner = &mut self.inner;
        self.tr.span("cluster.tick", || inner.tick_sink())
    }

    fn outstanding(&self) -> usize {
        self.tr
            .span("cluster.query", || IngestSink::outstanding(&self.inner))
    }

    fn completed(&self) -> u64 {
        self.tr
            .span("cluster.query", || IngestSink::completed(&self.inner))
    }

    fn failed(&self) -> u64 {
        self.tr
            .span("cluster.query", || IngestSink::failed(&self.inner))
    }

    fn lost(&self) -> u64 {
        self.tr
            .span("cluster.query", || IngestSink::lost(&self.inner))
    }
}

impl ServeMix {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Result<ServeMix, String> {
        let arrivals = arrival_trace(
            seed,
            ArrivalProfile::Sustained {
                rate_milli: RATE_MILLI,
            },
            HORIZON,
            TENANTS,
        );
        let mixed = mixed_jobs(seed, arrivals.len());
        let sources = vlsi_workloads::netgen::corpus(seed);
        let mut rng = Prng::seed_from_u64(seed ^ 0x5E_47E);
        let mut netlists = BTreeMap::new();
        for &g in STAGED_GRAPHS {
            let (name, src) = &sources[g];
            let nl = Netlist::parse(src).map_err(|e| format!("{name}: {e}"))?;
            netlists.insert(g, nl);
        }
        let mut staged = BTreeMap::new();
        for i in (STAGED_EVERY - 1..arrivals.len()).step_by(STAGED_EVERY) {
            let graph = STAGED_GRAPHS[(i / STAGED_EVERY) % STAGED_GRAPHS.len()];
            let (datasets, expected) = datasets_for(&netlists[&graph], STAGED_DATASETS, &mut rng);
            staged.insert(
                i,
                StagedArrival {
                    graph,
                    datasets,
                    expected,
                },
            );
        }
        Ok(ServeMix {
            seed,
            arrivals,
            mixed,
            sources,
            staged,
            firings: Cell::new(None),
        })
    }

    fn front_door(
        &self,
        threads: usize,
        telemetry: bool,
        tr: &Tracer,
    ) -> (IngestService<TimedSink>, IngestClient) {
        let tel = || {
            if telemetry {
                TelemetryHandle::active()
            } else {
                TelemetryHandle::disabled()
            }
        };
        let mut cluster = ChipCluster::with_telemetry(
            ClusterTopology::ring(CHIPS),
            (DIE, DIE),
            Pool::new(threads),
            ClusterConfig::standard(),
            tel(),
        );
        for _ in 0..CHIPS {
            let chip = VlsiChip::with_telemetry(DIE, DIE, Cluster::default(), tel());
            cluster.push_chip(Runtime::new(chip, Box::new(Fifo), RuntimeConfig::default()));
        }
        let mut plan = FaultPlan::none();
        plan.push(Fault::permanent(
            FaultKind::ChipDown { chip: DEAD_CHIP },
            DEATH_TICK,
        ));
        cluster.attach_fault_plan(plan);
        let sink = TimedSink {
            inner: cluster,
            tr: tr.clone(),
            ticks: 0,
            admitted: Vec::new(),
        };
        let service = IngestService::with_telemetry(sink, IngestConfig::default(), tel());
        let client =
            IngestClient::with_telemetry(service.ring(), self.seed, ClientConfig::default(), tel());
        (service, client)
    }
}

/// Firings of every processor held by a running job, keyed by
/// `(chip, job, processor)`: a processor executes when its job is
/// admitted and is released no earlier than the next tick, so reading
/// after every tick sees each execution.
fn poll_firings(cluster: &ChipCluster, seen: &mut BTreeMap<(usize, u64, u32), u64>) {
    for (c, rt) in cluster.fleet().chips().enumerate() {
        for rec in rt.jobs().filter(|r| r.state == JobState::Running) {
            for pid in &rec.procs {
                if let Ok(p) = rt.chip().processor(*pid) {
                    seen.insert((c, rec.id.0, pid.0), p.ap.metrics().firings);
                }
            }
        }
    }
}

impl Bench for ServeMix {
    type Ready = Ready;
    const THREADS: usize = 1;
    const SETUPS: usize = 40;
    const SEGMENT_QUANTILE: f64 = 0.0;

    fn setup(&self, threads: usize, telemetry: bool, tr: &Tracer) -> Result<Ready, String> {
        let opts = CompileOptions {
            telemetry: if telemetry {
                TelemetryHandle::active()
            } else {
                TelemetryHandle::disabled()
            },
            ..CompileOptions::default()
        };
        let (mut stages, mut cut_edges) = (0, 0);
        let mut programs = BTreeMap::new();
        for &g in STAGED_GRAPHS {
            let (name, src) = &self.sources[g];
            let c = tr
                .span("compile.compile", || compile(src, &opts))
                .map_err(|e| format!("compile {name}: {e}"))?;
            stages += c.partition.stages.len() as u64;
            cut_edges += c.partition.cut_edges as u64;
            programs.insert(g, c.program);
        }
        let specs = self
            .arrivals
            .iter()
            .enumerate()
            .map(|(i, ev)| match self.staged.get(&i) {
                Some(s) => JobSpec::for_staged(
                    format!("a{i}"),
                    programs[&s.graph].clone(),
                    s.datasets.clone(),
                    Some(s.expected.clone()),
                )
                .with_priority(ev.priority),
                None => {
                    let mut spec = self.mixed[i].clone();
                    spec.name = format!("a{i}");
                    // The mix draws absolute deadlines for a batch
                    // submitted at tick 0; an open loop makes them
                    // relative to the arrival.
                    spec.deadline = spec.deadline.map(|d| ev.at + d);
                    spec
                }
            })
            .collect();
        let (service, client) = self.front_door(threads, telemetry, tr);
        Ok(Ready {
            specs,
            service,
            client,
            threads,
            telemetry,
            stages,
            cut_edges,
        })
    }

    fn set_threads(&self, ready: &mut Ready, threads: usize) {
        ready.threads = threads;
        let tr = ready.service.sink().tr.clone();
        (ready.service, ready.client) = self.front_door(threads, ready.telemetry, &tr);
    }

    fn pass(&self, ready: &mut Ready, tr: &Tracer) -> Result<Pass, String> {
        let mut specs = ready.specs.clone().into_iter();
        let poll = self.firings.get().is_none();
        let mut fired = BTreeMap::new();
        let Ready {
            service, client, ..
        } = ready;
        let n = self.arrivals.len();
        let mut idx = 0;
        let mut segments_ns = Vec::new();
        let t0 = tr.now();
        while idx < n || client.has_pending() || !service.is_idle() {
            let s0 = tr.now();
            if service.now() >= MAX_TICKS {
                return Err(format!("serve_mix hung at tick {}", service.now()));
            }
            let t = service.now() + 1;
            tr.span("ingest.client", || client.tick(t));
            while idx < n && self.arrivals[idx].at <= t {
                let (tenant, spec) = (
                    self.arrivals[idx].tenant,
                    specs.next().expect("one spec per arrival"),
                );
                tr.span("ingest.client", || client.submit(t, tenant, spec));
                idx += 1;
            }
            tr.span("ingest.tick", || service.tick())
                .map_err(|e| format!("ingest tick {t}: {e}"))?;
            segments_ns.push(tr.now() - s0);
            if tr.enabled() {
                let ledger = tr.span("ingest.accounting", || accounting(service, client));
                if !ledger.is_balanced() {
                    return Err(format!("ledger unbalanced after tick {t}: {ledger:?}"));
                }
            }
            if poll {
                poll_firings(&service.sink().inner, &mut fired);
            }
        }
        let timed_ns = tr.now() - t0;
        if poll {
            self.firings.set(Some(fired.values().sum()));
        }

        let mut pass = self.score(service, client)?;
        pass.timed_ns = timed_ns;
        pass.segments_ns = segments_ns;
        pass.firings = self.firings.get().unwrap_or(0);
        if tr.enabled() {
            let sink = service.sink();
            let merged = sink.inner.merged_telemetry();
            let metrics: Vec<_> = sink
                .inner
                .fleet()
                .chips()
                .map(|rt| rt.chip().metrics())
                .collect();
            let chips = layers::chip_counters(&merged.snapshot(), &metrics, Default::default());
            pass.counts.extend(chips);
            let mut sojourn: Vec<u64> = sink
                .admitted
                .iter()
                .map(|&(i, at)| at - self.arrivals[i].at)
                .collect();
            pass.counts.insert(
                "ingest.sojourn_p99_ticks",
                percentile(&mut sojourn, 990) as f64,
            );
        }
        let (threads, telemetry) = (ready.threads, ready.telemetry);
        (ready.service, ready.client) = self.front_door(threads, telemetry, tr);
        Ok(pass)
    }

    fn guards(&self, pass: &Pass) -> Result<(), String> {
        let c = |k: &str| pass.counts.get(k).copied().unwrap_or(0.0);
        if c("fabric.chip_failures") != 1.0 {
            return Err("serve_mix: the chip death did not land".into());
        }
        if c("fabric.migrations") == 0.0 || c("fabric.messages") == 0.0 {
            return Err("serve_mix: no job migrated over the fabric".into());
        }
        for kind in ["stream", "blocks", "staged", "idle"] {
            if c(&format!("runtime.completed_{kind}")) == 0.0 {
                return Err(format!("serve_mix: no {kind} job completed"));
            }
        }
        if pass.firings == 0 {
            return Err("serve_mix: no AP node fired".into());
        }
        Ok(())
    }

    fn layers(&self, ready: &Ready, pass: &Pass, tr: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = pass
            .counts
            .iter()
            .filter(|(k, _)| layers::METRICS.iter().any(|(n, _, _)| n == *k))
            .map(|(k, v)| (*k, *v))
            .collect();
        let mut ticks = tr.samples("cluster.tick");
        m.insert("cluster.tick_ns_p50", percentile(&mut ticks, 500) as f64);
        m.insert("cluster.tick_ns_p99", percentile(&mut ticks, 990) as f64);
        let ingest = tr.totals("ingest.tick");
        m.insert(
            "ingest.tick_self_ns",
            ratio(ingest.self_ns as f64, ingest.calls as f64),
        );
        let client = tr.totals("ingest.client");
        m.insert(
            "ingest.client_ns",
            ratio(client.total_ns as f64, self.arrivals.len() as f64),
        );
        m.insert("ap.firings", pass.firings as f64);
        let comp = tr.totals("compile.compile");
        m.insert(
            "compile.ns_per_graph",
            ratio(comp.total_ns as f64, comp.calls as f64),
        );
        m.insert("compile.stages", ready.stages as f64);
        m.insert("compile.cut_edges", ready.cut_edges as f64);
        m
    }
}

impl ServeMix {
    /// Scores a drained trace: the conservation ledger, every job record
    /// on every chip, and every completed job's output against its
    /// oracle — the spec's reference words for stream jobs, the program
    /// interpreter for blocks jobs, `Netlist::evaluate` for staged jobs.
    fn score(
        &self,
        service: &IngestService<TimedSink>,
        client: &IngestClient,
    ) -> Result<Pass, String> {
        let ledger = accounting(service, client);
        if !ledger.is_balanced() || ledger.in_retry + ledger.in_ring + ledger.sink_outstanding != 0
        {
            return Err(format!("serve_mix ended with an open ledger: {ledger:?}"));
        }
        let cluster = &service.sink().inner;
        let mut pass = Pass {
            requests: ledger.arrivals,
            attempted: ledger.arrivals,
            note: format!("{ledger:?}\n# {:?}", cluster.network().stats()),
            ..Pass::default()
        };
        let mut digest = Fnv::default();
        let mut text = format!("{ledger:?}\n");
        let (mut turnaround, mut wait) = (Vec::new(), Vec::new());
        let mut config_cycles = 0;
        let mut completed = 0;
        for (c, rt) in cluster.fleet().chips().enumerate() {
            for rec in rt.jobs() {
                let _ = writeln!(
                    text,
                    "{c} {} {} {:?} {:?} {:?}",
                    rec.id, rec.spec.name, rec.state, rec.stats, rec.output
                );
                match rec.state {
                    JobState::Completed => {}
                    JobState::Migrated => continue,
                    _ => {
                        pass.failed += 1;
                        continue;
                    }
                }
                completed += 1;
                turnaround.push(rec.stats.turnaround);
                wait.push(rec.stats.wait);
                pass.sim.exec_cycles += rec.stats.exec_cycles;
                config_cycles += rec.stats.config_cycles;
                let kind = rec.spec.workload.label();
                *pass.counts.entry(completed_key(kind)).or_default() += 1.0;
                let (checked, ok) = self.check(
                    rec.spec.name.as_str(),
                    &rec.spec.workload,
                    rec.output.as_ref(),
                );
                pass.datasets += checked;
                if !ok {
                    pass.failed += 1;
                }
            }
        }
        pass.failed += ledger.lost;
        if completed != ledger.completed {
            pass.failed += completed.abs_diff(ledger.completed);
        }
        let summary = cluster.summary();
        let _ = writeln!(text, "{:?}", cluster.network().stats());
        digest.bytes(text.as_bytes());
        pass.digest = digest.0;
        pass.sim.ticks = service.now();
        pass.sim.turnaround_p50_milli = grouped_percentile_milli(&mut turnaround, 500);
        pass.sim.turnaround_p99_milli = grouped_percentile_milli(&mut turnaround, 990);
        pass.sim.completed = ledger.completed;
        pass.sim.offered = ledger.arrivals;
        let stats = cluster.network().stats();
        let migrations: u64 = cluster
            .fleet()
            .chips()
            .map(|rt| rt.stats().migrated_out)
            .sum();
        for (k, v) in [
            ("runtime.wait_p99_ticks", percentile(&mut wait, 990)),
            ("runtime.failures", summary.failed),
            ("fabric.messages", stats.messages),
            ("fabric.migrations", migrations),
            ("fabric.retransmits", stats.retransmits),
            ("fabric.jobs_lost", summary.lost),
            ("fabric.chip_failures", summary.chip_failures),
            ("ingest.retries", client.stats().retries),
            ("ingest.gave_up", client.stats().gave_up),
            ("ap.config_cycles", config_cycles),
        ] {
            pass.counts.insert(k, v as f64);
        }
        let st = service.stats();
        pass.counts.insert(
            "ingest.accept_ratio",
            ratio(st.accepted as f64, st.drained as f64),
        );
        Ok(pass)
    }

    /// Checks one completed job's output. Returns the datasets checked
    /// and whether all matched.
    fn check(&self, name: &str, workload: &Workload, output: Option<&JobOutput>) -> (u64, bool) {
        match (workload, output) {
            (Workload::Stream { expected, .. }, Some(JobOutput::Stream(got))) => {
                (1, expected.as_ref() == Some(got))
            }
            (
                Workload::Blocks {
                    program,
                    datasets,
                    result_var,
                },
                Some(JobOutput::Blocks(got)),
            ) => {
                let ok = datasets.len() == got.len()
                    && datasets.iter().zip(got).all(|(ds, &v)| {
                        let mut env = ds.clone();
                        program.interpret(&mut env);
                        env.get(result_var) == Some(&v)
                    });
                (datasets.len() as u64, ok)
            }
            (Workload::Staged { .. }, Some(JobOutput::Staged(got))) => {
                let arrival = name.strip_prefix('a').and_then(|s| s.parse::<usize>().ok());
                let ok = arrival
                    .and_then(|i| self.staged.get(&i))
                    .is_some_and(|s| s.expected == *got);
                (got.len() as u64, ok)
            }
            (Workload::Idle { .. }, _) => (0, true),
            _ => (0, false),
        }
    }
}

fn completed_key(kind: &str) -> &'static str {
    match kind {
        "stream" => "runtime.completed_stream",
        "blocks" => "runtime.completed_blocks",
        "staged" => "runtime.completed_staged",
        _ => "runtime.completed_idle",
    }
}
