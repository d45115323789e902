//! The repository's benchmark: three workloads, end-to-end metrics with
//! tracing off, and a traced run that yields per-layer metrics.
//!
//! ```text
//! vlsi-benchmark --workload <engine_sweep|corpus_pipeline|serve_mix>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in
//! this directory for what each metric means on each workload.

mod common;
mod corpus_pipeline;
mod engine_sweep;
mod layers;
mod serve_mix;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use common::{median, peak_rss_mb, quantile, ratio, Bench, Pass};
use trace::Tracer;

/// Passes measured at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2012,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    report: String,
}

/// Checks a pass against the reference pass: the simulated results, the
/// work done and the output digest must repeat exactly.
fn same_as(reference: &Pass, p: &Pass, what: &str) -> Result<(), String> {
    let work = |p: &Pass| (p.firings, p.datasets, p.requests);
    if work(p) != work(reference) {
        return Err(format!(
            "{what} diverged: (firings, datasets, requests) {:?}, reference {:?}",
            work(p),
            work(reference)
        ));
    }
    if p.sim != reference.sim || p.digest != reference.digest {
        return Err(format!(
            "{what} diverged: sim {:?} digest {:#x}, reference sim {:?} digest {:#x}",
            p.sim, p.digest, reference.sim, reference.digest
        ));
    }
    Ok(())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// End-to-end run: one untimed warm-up set-up and pass (the reference
/// every later pass must reproduce), then timed passes for `seconds`.
/// The timed set-ups are spread evenly over the same window, so that
/// `setup_s` samples the same host conditions as the passes.
///
/// The rates divide one pass's work by the sum, over the segments of the
/// timed phase, of each segment's [`Bench::SEGMENT_QUANTILE`] time over
/// the timed passes (see `README.md`).
fn run_e2e<B: Bench>(b: &B, args: &Args) -> Result<Outcome, String> {
    let tr = Tracer::off();
    let mut ready = b.setup(B::THREADS, false, &tr)?;
    let first = b.pass(&mut ready, &tr)?;
    b.guards(&first)?;
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    let mut setup_s = Vec::new();
    let mut timed_ms = Vec::new();
    let mut segments: Vec<Vec<f64>> = vec![Vec::new(); first.segments_ns.len()];
    let window = (args.seconds * 1e9) as u64;
    let start = tr.now();
    loop {
        let elapsed = tr.now() - start;
        if timed_ms.len() >= MIN_PASSES && setup_s.len() >= B::SETUPS && elapsed >= window {
            break;
        }
        if setup_s.len() < B::SETUPS && elapsed >= setup_s.len() as u64 * window / B::SETUPS as u64
        {
            drop(ready);
            let t0 = tr.now();
            ready = b.setup(B::THREADS, false, &tr)?;
            setup_s.push(secs(tr.now() - t0));
            continue;
        }
        let p = b.pass(&mut ready, &tr)?;
        same_as(&first, &p, "a timed pass")?;
        if p.segments_ns.len() != segments.len() {
            return Err(format!(
                "a timed pass ran {} segments, the warm-up pass {}",
                p.segments_ns.len(),
                segments.len()
            ));
        }
        for (s, &ns) in segments.iter_mut().zip(&p.segments_ns) {
            s.push(ns as f64);
        }
        attempted += p.attempted;
        failed += p.failed;
        timed_ms.push(secs(p.timed_ns) * 1e3);
    }
    let timed_s: f64 = segments
        .iter()
        .map(|s| quantile(s, B::SEGMENT_QUANTILE) / 1e9)
        .sum();
    let sim = first.sim;
    let q = |f: f64| quantile(&timed_ms, f);
    let report = format!(
        "# {} timed passes, ms: min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3}\n\
         # sum over {} segments of each one's quantile {} time, ms: {:.3}\n\
         # {} setups, s: median {:.6}\n# sim {sim:?}; digest {:#018x}\n# {}\n",
        timed_ms.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        segments.len(),
        B::SEGMENT_QUANTILE,
        timed_s * 1e3,
        setup_s.len(),
        median(&setup_s),
        first.digest,
        first.note
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("firings_per_s", first.firings as f64 / timed_s, "1/s"),
            ("datasets_per_s", first.datasets as f64 / timed_s, "1/s"),
            ("requests_per_s", first.requests as f64 / timed_s, "1/s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("sim_exec_cycles", sim.exec_cycles as f64, "cycles"),
            ("sim_ticks", sim.ticks as f64, "ticks"),
            (
                "sim_turnaround_p50_ticks",
                sim.turnaround_p50_milli as f64 / 1e3,
                "ticks",
            ),
            (
                "sim_turnaround_p99_ticks",
                sim.turnaround_p99_milli as f64 / 1e3,
                "ticks",
            ),
            (
                "goodput",
                ratio(sim.completed as f64, sim.offered as f64),
                "ratio",
            ),
        ],
        report,
    })
}

/// Traced run: untraced passes at one and two threads (the speed-up and
/// the tracing baseline), then a traced set-up plus pass at each thread
/// count. Every pass must reproduce the warm-up pass's simulated results
/// and digest. The per-layer metrics come from the traced run at the
/// workload's own thread count.
fn run_traced<B: Bench>(b: &B, args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let off = Tracer::off();
    let mut ready = b.setup(B::THREADS, false, &off)?;
    let first = b.pass(&mut ready, &off)?;
    b.guards(&first)?;
    let (mut attempted, mut failed) = (first.attempted, first.failed);

    let mut timed: [Vec<f64>; 2] = Default::default();
    let mut walls = Vec::new();
    let start = off.now();
    while timed[0].len() < MIN_PASSES || secs(off.now() - start) < args.seconds / 2.0 {
        for (k, threads) in [1, 2].into_iter().enumerate() {
            b.set_threads(&mut ready, threads);
            let w0 = off.now();
            let p = b.pass(&mut ready, &off)?;
            same_as(
                &first,
                &p,
                &format!("an untraced pass at {threads} threads"),
            )?;
            attempted += p.attempted;
            failed += p.failed;
            timed[k].push(p.timed_ns as f64);
            if threads == B::THREADS {
                walls.push((off.now() - w0) as f64);
            }
        }
    }
    drop(ready);

    let mut layer_values = BTreeMap::new();
    let mut report = String::new();
    let mut traced_pass_ns = 0.0;
    for threads in [B::THREADS, 3 - B::THREADS] {
        let tr = Tracer::on();
        let w0 = tr.now();
        let mut ready = b.setup(threads, true, &tr)?;
        let p0 = tr.now();
        let p = b.pass(&mut ready, &tr)?;
        let w1 = tr.now();
        same_as(&first, &p, &format!("the traced pass at {threads} threads"))?;
        b.guards(&p)?;
        attempted += p.attempted;
        failed += p.failed;
        if threads == B::THREADS {
            layer_values = b.layers(&ready, &p, &tr);
            traced_pass_ns = (w1 - p0) as f64;
            report = self_time_report(&tr, w1 - w0, name, threads);
        }
    }
    layer_values.insert("par.speedup", median(&timed[0]) / median(&timed[1]));
    layer_values.insert("trace.overhead_ratio", traced_pass_ns / median(&walls));

    let _ = writeln!(
        report,
        "# per-layer metrics ({name}, traced set-up + one pass)"
    );
    let mut metrics = Vec::new();
    for &(metric, unit, moves) in layers::METRICS {
        let v = layer_values.get(metric).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = writeln!(report, "#   {metric:<34} {v:>16.3} {unit:<6} -> {moves}");
        metrics.push((metric, v, unit));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}

/// Self time per layer and per span; with the untimed remainder (the
/// benchmark's own code) the rows add up exactly to `wall_ns`.
fn self_time_report(tr: &Tracer, wall_ns: u64, name: &str, threads: usize) -> String {
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut out = format!("# self time ({name}, traced set-up + one pass, {threads} thread(s))\n");
    for (span, t) in tr.all() {
        let layer = span.split('.').next().unwrap_or(span);
        *by_layer.entry(layer).or_default() += t.self_ns;
        let _ = writeln!(
            out,
            "#   span {span:<22} calls {:>8} self {:>14} ns total {:>14} ns",
            t.calls, t.self_ns, t.total_ns
        );
    }
    let remainder = wall_ns - tr.top_ns();
    let mut sum = remainder;
    for (layer, ns) in &by_layer {
        sum += ns;
        let share = 100.0 * *ns as f64 / wall_ns as f64;
        let _ = writeln!(out, "#   layer {layer:<21} self {ns:>14} ns {share:>6.2}%");
    }
    let share = 100.0 * remainder as f64 / wall_ns as f64;
    let _ = writeln!(
        out,
        "#   untimed remainder           {remainder:>14} ns {share:>6.2}%"
    );
    let _ = writeln!(out, "#   sum {sum} ns = wall {wall_ns} ns");
    assert_eq!(
        sum, wall_ns,
        "self times plus remainder must equal the wall time"
    );
    out
}

fn host_line() -> String {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# host nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git_rev={}",
        cmd("rustc", &["--version"]),
        // Only a checkout that is itself a repository: git must not walk
        // up into directories outside it.
        if std::path::Path::new(".git").exists() {
            cmd("git", &["rev-parse", "--short", "HEAD"])
        } else {
            "unknown".into()
        }
    )
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    fn go<B: Bench>(b: &B, args: &Args) -> Result<Outcome, String> {
        if args.trace {
            run_traced(b, args)
        } else {
            run_e2e(b, args)
        }
    }
    match args.workload.as_str() {
        "engine_sweep" => go(&engine_sweep::EngineSweep::new(args.seed), args),
        "corpus_pipeline" => go(&corpus_pipeline::CorpusPipeline::new(args.seed)?, args),
        "serve_mix" => go(&serve_mix::ServeMix::new(args.seed)?, args),
        w => Err(format!(
            "unknown workload `{w}` (engine_sweep, corpus_pipeline, serve_mix)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok(out) => {
            print!("{}", out.report);
            println!(
                "{}",
                json(out.failed == 0, out.attempted, out.failed, &out.metrics)
            );
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
