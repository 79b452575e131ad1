//! `eqbench` — one benchmark for the eqsql workspace.
//!
//! ```text
//! eqbench --workload compile|run-paged|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the workspace's public APIs from outside on three seeded
//! workloads (see `README.md` next to this crate), checks every output,
//! prints every metric by name with its unit, and ends its standard output
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` they are the per-layer ones: the run
//! records a span around each of the benchmark's own calls into a layer,
//! writes the spans out at exit, and reports tracing overhead as the
//! traced end-to-end numbers minus the untraced ones.

mod compile;
mod measure;
mod run_paged;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use measure::{CountingAlloc, Metrics};
use trace::Tracer;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median, each scaled to
/// the reference machine speed like the op timings.
const SETUP_REPS: usize = 5;

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the result line carries.
    pub metrics: Metrics,
    /// Workload-specific figures, printed but not in the result line.
    pub extra: Metrics,
}

enum Workload {
    Compile(compile::Compile),
    RunPaged(run_paged::RunPaged),
    Serve(serve::Serve),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Workload {
        match name {
            "compile" => Workload::Compile(compile::Compile::setup(seed)),
            "run-paged" => Workload::RunPaged(run_paged::RunPaged::setup(seed)),
            "serve" => Workload::Serve(serve::Serve::setup(seed)),
            other => unreachable!("workload {other} was validated"),
        }
    }

    /// Failures found while setting up (oracle disagreements, reference
    /// runs that failed).
    fn setup_failures(&self) -> u64 {
        match self {
            Workload::Compile(c) => c.oracle_failures,
            Workload::RunPaged(r) => r.setup_failures,
            Workload::Serve(_) => 0,
        }
    }

    fn sizes(&self) -> String {
        match self {
            Workload::Compile(c) => c.sizes(),
            Workload::RunPaged(r) => r.sizes(),
            Workload::Serve(s) => s.sizes(),
        }
    }

    fn run(&self, seconds: f64, tracer: &mut Tracer, out: &mut Outcome) {
        match self {
            Workload::Compile(c) => c.run(seconds, tracer, out),
            Workload::RunPaged(r) => r.run(seconds, tracer, out),
            Workload::Serve(s) => s.run(seconds, tracer, out),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["compile", "run-paged", "serve"].contains(&args.workload.as_str()) {
        return Err("--workload must be compile, run-paged or serve".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Spans written to the span file; the summary covers all of them.
const SPANS_WRITTEN: usize = 100_000;

/// Where span files go: the build directory, inside the checkout. One
/// file per workload, overwritten by the next traced run.
fn span_path(workload: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    dir.join("eqbench").join(format!("spans-{workload}.jsonl"))
}

fn untraced(args: &Args) -> Outcome {
    let mut times = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first so that peak memory stays that
        // of one set-up.
        drop(w.take());
        let t = Instant::now();
        w = Some(Workload::setup(&args.workload, args.seed));
        let secs = t.elapsed().as_secs_f64();
        times.push(secs * measure::speed(1));
    }
    let w = w.expect("set up at least once");
    let mut out = Outcome {
        failed: w.setup_failures(),
        ..Outcome::default()
    };
    let cpu0 = measure::cpu_seconds();
    let t = Instant::now();
    w.run(args.seconds, &mut Tracer::new(false, t, 0), &mut out);
    let util = (measure::cpu_seconds() - cpu0) / t.elapsed().as_secs_f64();
    out.metrics.put("setup_s", measure::median(&times), "s");
    out.metrics
        .put("peak_rss_mb", measure::peak_rss_mb(), "MiB");
    out.extra.put("proc.cpu_util", util, "ratio");
    println!("sizes: {}", w.sizes());
    out
}

fn traced(args: &Args) -> Outcome {
    let epoch = Instant::now();
    let cpu0 = measure::cpu_seconds();
    let w = Workload::setup(&args.workload, args.seed);
    println!("sizes: {}", w.sizes());
    let mut out = Outcome {
        failed: w.setup_failures(),
        ..Outcome::default()
    };

    // The workload's own op loop in four equal parts, alternating
    // untraced and traced, so that a slow stretch of the machine does not
    // land on one side only.
    let part = args.seconds / 4.0;
    let mut tracer = Tracer::new(true, epoch, 0);
    let mut sides = [Vec::new(), Vec::new()];
    for i in 0..4 {
        let mut o = Outcome::default();
        if i % 2 == 0 {
            w.run(part, &mut Tracer::new(false, epoch, 0), &mut o);
        } else {
            w.run(part, &mut tracer, &mut o);
        }
        out.attempted += o.attempted;
        out.failed += o.failed;
        sides[i % 2].push(o.metrics);
    }
    let overhead = |name: &str| {
        let mean = |side: &[Metrics]| {
            side.iter().map(|m| m.get(name).unwrap_or(0.0)).sum::<f64>() / side.len() as f64
        };
        mean(&sides[1]) - mean(&sides[0])
    };
    let m = &mut out.metrics;
    m.put("trace.p50_overhead_us", overhead("p50_us"), "us");
    m.put("trace.ops_per_s_overhead", overhead("ops_per_s"), "ops/s");

    // Layer probes, each on the inputs of the workload that exercises the
    // layer (set up here when it is not the workload under test).
    let mut probes = Tracer::new(true, epoch, 0);
    match &w {
        Workload::Compile(c) => c.probe(&mut probes, &mut out, 2),
        _ => compile::Compile::setup(args.seed).probe(&mut probes, &mut out, 2),
    }
    match &w {
        Workload::RunPaged(r) => r.probe(&mut probes, &mut out),
        _ => run_paged::RunPaged::setup(args.seed).probe(&mut probes, &mut out),
    }
    match &w {
        Workload::Serve(s) => s.probe(&mut probes, &mut out, 2.0),
        _ => serve::Serve::setup(args.seed).probe(&mut probes, &mut out, 2.0),
    }
    let util = (measure::cpu_seconds() - cpu0) / epoch.elapsed().as_secs_f64();
    out.metrics.put("proc.cpu_util", util, "ratio");

    tracer.absorb(probes);
    let path = span_path(&args.workload);
    match tracer.write(&path, SPANS_WRITTEN) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => {
            eprintln!("eqbench: cannot write {}: {e}", path.display());
            out.failed += 1;
        }
    }
    println!("self time by span (ms):");
    for (name, st) in tracer.summary() {
        println!(
            "  {name:<28} count {:>8}  total {:>10.3}  self {:>10.3}",
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        );
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eqbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };

    for (list, label) in [(&out.metrics, "metric"), (&out.extra, "also")] {
        for m in &list.list {
            println!("{label} {:<32} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "fail_ratio {:.6} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if out.metrics.list.iter().any(|m| !m.value.is_finite()) {
        eprintln!("eqbench: a metric is not a finite number");
        out.failed += 1;
    }
    let metrics: Vec<String> = out
        .metrics
        .list
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
