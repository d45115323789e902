//! The per-layer metrics: their units, the end-to-end metric and
//! workload each should move, and the counters shared by every workload
//! that owns chips.

use std::collections::BTreeMap;

use vlsi_core::ChipMetrics;
use vlsi_telemetry::Snapshot;

use crate::common::ratio;
use crate::trace::SpanTotals;

const ENGINE: &str = "firings_per_s @ engine_sweep";
const ENGINE_SETUP: &str = "setup_s @ engine_sweep";
const GATHER: &str = "setup_s @ engine_sweep; requests_per_s @ serve_mix";
const PIPELINE: &str = "datasets_per_s @ corpus_pipeline";
const COMPILE: &str = "setup_s @ corpus_pipeline, serve_mix";
const SERVE: &str = "requests_per_s @ serve_mix";

/// `(name, unit, the end-to-end metric @ workload it should move)`.
/// Every traced run reports every name; a layer a workload leaves idle,
/// or whose calls happen inside another layer where the benchmark
/// cannot time them, reads 0 there.
pub const METRICS: &[(&str, &str, &str)] = &[
    ("ap.ns_per_firing", "ns", ENGINE),
    ("ap.firings", "count", ENGINE),
    ("ap.configure_ns", "ns", ENGINE_SETUP),
    ("ap.config_cycles", "cycles", ENGINE_SETUP),
    ("ap.hit_ratio", "ratio", ENGINE_SETUP),
    ("csd.chains", "count", "guard only (sim)"),
    ("csd.reject_ratio", "ratio", "guard only (sim)"),
    ("core.gather_ns", "ns", GATHER),
    ("core.gathers", "count", GATHER),
    ("core.releases", "count", GATHER),
    ("core.relocations", "count", GATHER),
    ("topology.switch_stores_per_gather", "count", GATHER),
    ("noc.cycles_per_gather", "cycles", GATHER),
    ("noc.link_crossings_per_gather", "count", GATHER),
    ("noc.ns_per_cycle", "ns", GATHER),
    ("core.ns_per_stage_exec", "ns", PIPELINE),
    ("core.wavefront_ticks", "ticks", PIPELINE),
    ("core.mailbox_writes", "count", PIPELINE),
    ("core.utilization_milli", "milli", PIPELINE),
    ("core.deploy_ns", "ns", "setup_s @ corpus_pipeline"),
    ("compile.ns_per_graph", "ns", COMPILE),
    ("compile.stages", "count", COMPILE),
    ("compile.cut_edges", "count", COMPILE),
    ("cluster.tick_ns_p50", "ns", SERVE),
    ("cluster.tick_ns_p99", "ns", SERVE),
    ("runtime.completed_stream", "count", SERVE),
    ("runtime.completed_blocks", "count", SERVE),
    ("runtime.completed_staged", "count", SERVE),
    ("runtime.completed_idle", "count", SERVE),
    ("runtime.wait_p99_ticks", "ticks", SERVE),
    ("runtime.failures", "count", SERVE),
    ("fabric.messages", "count", SERVE),
    ("fabric.migrations", "count", SERVE),
    ("fabric.retransmits", "count", SERVE),
    ("fabric.jobs_lost", "count", SERVE),
    ("ingest.tick_self_ns", "ns", SERVE),
    ("ingest.client_ns", "ns", SERVE),
    ("ingest.accept_ratio", "ratio", SERVE),
    ("ingest.sojourn_p99_ticks", "ticks", SERVE),
    ("ingest.retries", "count", SERVE),
    ("ingest.gave_up", "count", SERVE),
    ("par.speedup", "x", ENGINE),
    ("trace.overhead_ratio", "x", "-"),
];

/// The gather, NoC, switch, CSD and object-cache counters of a set of
/// chips: `snap` is their merged telemetry, `metrics` their chip-wide
/// totals, `gather` the benchmark's own spans around `gather_any` (zero
/// calls where gathers happen inside another layer).
pub fn chip_counters(
    snap: &Snapshot,
    metrics: &[ChipMetrics],
    gather: SpanTotals,
) -> BTreeMap<&'static str, f64> {
    let c = |n: &str| snap.counter(n) as f64;
    let gathers = c("core.gathers");
    let noc_cycles: u64 = metrics.iter().map(|m| m.noc_cycles).sum();
    let crossings: u64 = metrics.iter().map(|m| m.noc_link_crossings).sum();
    let stores: u64 = metrics.iter().map(|m| m.switch_stores).sum();
    let gather_ns = gather.total_ns as f64;
    let mut m = BTreeMap::new();
    m.insert(
        "ap.hit_ratio",
        ratio(c("ap.hits"), c("ap.hits") + c("ap.misses")),
    );
    m.insert("csd.chains", c("csd.chains"));
    m.insert(
        "csd.reject_ratio",
        ratio(c("csd.rejections"), c("csd.chains") + c("csd.rejections")),
    );
    m.insert("core.gathers", gathers);
    m.insert("core.releases", c("core.releases"));
    m.insert("core.relocations", c("core.relocations"));
    m.insert(
        "topology.switch_stores_per_gather",
        ratio(stores as f64, gathers),
    );
    m.insert("noc.cycles_per_gather", ratio(noc_cycles as f64, gathers));
    m.insert(
        "noc.link_crossings_per_gather",
        ratio(crossings as f64, gathers),
    );
    if gather.calls > 0 {
        m.insert("core.gather_ns", gather_ns / gather.calls as f64);
        m.insert("noc.ns_per_cycle", ratio(gather_ns, noc_cycles as f64));
    }
    m
}
