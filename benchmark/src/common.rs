//! Types and helpers shared by the three workloads.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// Simulated (modelled) results of one pass: exactly repeatable for a
/// seed, at any thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sim {
    /// Total simulated datapath cycles.
    pub exec_cycles: u64,
    /// Modelled ticks the pass spans.
    pub ticks: u64,
    /// Median request turnaround, milli-ticks (see [`grouped_percentile_milli`]).
    pub turnaround_p50_milli: u64,
    /// 99th-percentile request turnaround, milli-ticks.
    pub turnaround_p99_milli: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests offered.
    pub offered: u64,
}

/// What one pass over a workload's inputs produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host time of the timed phase, ns.
    pub timed_ns: u64,
    /// Host time of each segment of the timed phase, ns, in order. A
    /// segment does the same work on every pass (see [`Bench::pass`]),
    /// so the same segment of two passes can be compared.
    pub segments_ns: Vec<u64>,
    /// Requests brought to a terminal state.
    pub requests: u64,
    /// Output datasets checked against an oracle.
    pub datasets: u64,
    /// AP node firings.
    pub firings: u64,
    /// Operations attempted (the base of the failure ratio).
    pub attempted: u64,
    /// Failures: error returns, oracle mismatches, typed job failures,
    /// lost jobs.
    pub failed: u64,
    /// Modelled results.
    pub sim: Sim,
    /// FNV-1a digest over every output of the pass.
    pub digest: u64,
    /// Program counters read during the pass, for the per-layer report.
    pub counts: BTreeMap<&'static str, f64>,
    /// A summary line for the report.
    pub note: String,
}

/// One workload: inputs made from a seed, a set-up that builds the
/// system, and repeatable passes over it.
pub trait Bench {
    /// The built system a pass runs on.
    type Ready;
    /// Worker threads of the timed phase.
    const THREADS: usize;
    /// Timed set-ups per end-to-end run; `setup_s` is their median.
    const SETUPS: usize;
    /// Which of a segment's times over the timed passes the rates use:
    /// 0 the fastest, 0.5 the median.
    const SEGMENT_QUANTILE: f64;
    /// Builds the system (this is what `setup_s` times). With
    /// `telemetry`, the program's own counters are switched on.
    fn setup(&self, threads: usize, telemetry: bool, tr: &Tracer) -> Result<Self::Ready, String>;
    /// Changes the worker-thread count of later passes.
    fn set_threads(&self, ready: &mut Self::Ready, threads: usize);
    /// Runs one pass and checks its outputs. The timed phase is cut
    /// into the same segments on every pass: the whole batch
    /// (`engine_sweep`), one graph's wavefront (`corpus_pipeline`), one
    /// service tick (`serve_mix`).
    fn pass(&self, ready: &mut Self::Ready, tr: &Tracer) -> Result<Pass, String>;
    /// Checks that the pass exercised the layers the workload exists
    /// for.
    fn guards(&self, pass: &Pass) -> Result<(), String>;
    /// Per-layer metrics of a traced set-up plus pass.
    fn layers(&self, ready: &Self::Ready, pass: &Pass, tr: &Tracer) -> BTreeMap<&'static str, f64>;
}

/// FNV-1a, folded incrementally.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a word in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a signed word in.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Nearest-rank percentile (`per_mille` of 1000) of `values`.
pub fn percentile(values: &mut [u64], per_mille: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (values.len() as u64 * per_mille).div_ceil(1000).max(1);
    values[rank as usize - 1]
}

/// Percentile (`per_mille` of 1000) of whole-tick `values`, each tick
/// read as the interval `[v − ½, v + ½)` and interpolated within it (the
/// median of grouped data), in milli-ticks. A nearest-rank percentile of
/// a few distinct tick counts jumps a whole tick when the mix shifts a
/// little; this moves with the share of requests on either side.
pub fn grouped_percentile_milli(values: &mut [u64], per_mille: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let n = values.len() as f64;
    let p = per_mille as f64 / 1000.0;
    let mut below = 0usize;
    for group in values.chunk_by(|a, b| a == b) {
        let lower = below as f64 / n;
        let share = group.len() as f64 / n;
        if p < lower + share {
            let q = group[0] as f64 - 0.5 + (p - lower) / share;
            return (q * 1000.0).round().max(0.0) as u64;
        }
        below += group.len();
    }
    values[values.len() - 1] * 1000 + 500
}

/// The `f`-quantile (0 to 1) of `values`, by nearest rank.
pub fn quantile(values: &[f64], f: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * f).round() as usize]
}

/// Median of `values` (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
