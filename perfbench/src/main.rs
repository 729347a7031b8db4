//! The OptRR stack benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warmup|query|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs from the repository root. One process starts the in-process
//! `NetServer` over a `Service`, drives one workload from at most two
//! client threads in closed loops, checks the answers, and prints one JSON
//! object as its last line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` replays the stack one rung at a time (see `ladder.rs`) and
//! reports the per-layer metrics. The exit code is non-zero when a
//! correctness gate fails. `perfbench/README.md` documents the workloads
//! and every metric.

mod ingest;
mod ladder;
mod query;
mod util;
mod warmup;

use std::process::ExitCode;
use util::{quantile, timed_setup, Slice, Tracer, OUT_DIR};

/// The parallel thresholds CI pins (`OPTRR_TUNE`), so the start-up probe
/// cannot move them between runs.
const BAKED_TUNE: &str = "pairs=32768,work=400000";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Warmup,
    Query,
    Ingest,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Warmup => "warmup",
            Workload::Query => "query",
            Workload::Ingest => "ingest",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "warmup" => Workload::Warmup,
        "query" => Workload::Query,
        "ingest" => Workload::Ingest,
        other => {
            return Err(format!(
                "unknown workload {other:?} (warmup, query or ingest)"
            ))
        }
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a run reports.
struct Report {
    metrics: Vec<Metric>,
    slice: Slice,
    failures: Vec<String>,
}

/// Set-up repetitions per workload: `setup_s` is their median.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Query => 5,
        Workload::Warmup | Workload::Ingest => 9,
    }
}

/// The service's own counters read after the measured phase: failed
/// connections, pipeline pins, rewarms and failed refresh runs.
const COUNTERS: [&str; 4] = [
    "serve_net_conn_errors_total",
    "serve_sampler_rebuilds_total",
    "serve_rewarms_total",
    "serve_refresh_failures_total",
];

/// The workload under test, set up and ready to run.
enum Bench {
    Warmup(warmup::Warmup),
    Query(query::Query),
    Ingest(ingest::Ingest),
}

impl Bench {
    /// Sets the workload up `reps` times and keeps the last; returns it
    /// with the median set-up seconds. Request generation happens after,
    /// outside the timed set-up.
    fn setup(workload: Workload, seed: u64, reps: usize) -> (Self, f64) {
        let (mut bench, setup_s) = timed_setup(
            reps,
            || match workload {
                Workload::Warmup => Bench::Warmup(warmup::setup(seed)),
                Workload::Query => Bench::Query(query::setup(seed)),
                Workload::Ingest => Bench::Ingest(ingest::setup(seed)),
            },
            Bench::stop,
        );
        match &mut bench {
            Bench::Warmup(_) => {}
            Bench::Query(q) => q.prepare(seed),
            Bench::Ingest(i) => i.prepare(seed),
        }
        (bench, setup_s)
    }

    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> (Slice, Option<Tracer>) {
        match self {
            Bench::Warmup(w) => w.run(seconds, tracer),
            Bench::Query(q) => q.run(seconds, tracer),
            Bench::Ingest(i) => i.run(seconds, tracer),
        }
    }

    fn check(&self) -> (Vec<String>, f64) {
        match self {
            Bench::Warmup(w) => w.check(),
            Bench::Query(q) => q.check(),
            Bench::Ingest(i) => i.check(),
        }
    }

    fn rig(&self) -> &util::Rig {
        match self {
            Bench::Warmup(w) => &w.rig,
            Bench::Query(q) => &q.rig,
            Bench::Ingest(i) => &i.rig,
        }
    }

    /// Reads [`COUNTERS`] from the workload's service through the
    /// `Metrics` verb and prints them.
    fn counters(&self, failures: &mut Vec<String>) -> Vec<u64> {
        let mut client = self.rig().connect(serve::Codec::Json);
        let counts = util::counters(&mut client, &COUNTERS).unwrap_or_else(|e| {
            failures.push(e);
            vec![0; COUNTERS.len()]
        });
        let shown: Vec<String> = COUNTERS
            .iter()
            .zip(&counts)
            .map(|(name, count)| format!("{name}={count}"))
            .collect();
        println!("# service counters: {}", shown.join(" "));
        counts
    }

    fn stop(self) {
        match self {
            Bench::Warmup(w) => w.stop(),
            Bench::Query(q) => q.stop(),
            Bench::Ingest(i) => i.stop(),
        }
    }
}

/// `--trace 0`: every end-to-end metric, measured untraced.
fn untraced(args: &Args) -> Report {
    let (mut bench, setup_s) = Bench::setup(args.workload, args.seed, setup_reps(args.workload));
    let (mut slice, _) = bench.run(args.seconds, None);
    let (mut failures, hv) = bench.check();
    failures.append(&mut slice.gate_failures);
    bench.counters(&mut failures);
    bench.stop();
    if slice.main_ns.is_empty() {
        failures.push("no main-verb request completed".into());
    }
    let mean_ns = slice.main_ns.iter().sum::<u64>() as f64 / slice.main_ns.len() as f64;
    let metrics = vec![
        metric("setup_s", "s", setup_s),
        metric("work_per_s", "1/s", slice.work_per_s()),
        metric("mean_us", "us", mean_ns / 1e3),
        metric("p95_us", "us", quantile(&mut slice.main_ns, 0.95) / 1e3),
        metric(
            "second_p50_us",
            "us",
            quantile(&mut slice.second_ns, 0.50) / 1e3,
        ),
        metric("front_hv_ratio", "ratio", hv),
    ];
    Report {
        metrics,
        slice,
        failures,
    }
}

fn print_phase(phase: &str, slice: &Slice) {
    println!(
        "# phase {phase}: attempted {} succeeded {} failed {} work {} in {:.3} s ({} main / {} second samples)",
        slice.tally.attempted,
        slice.tally.succeeded,
        slice.tally.failed,
        slice.work,
        slice.elapsed_s,
        slice.main_ns.len(),
        slice.second_ns.len()
    );
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    // Before any engine code runs: the tuning is read once per process.
    std::env::set_var("OPTRR_TUNE", BAKED_TUNE);
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {error}");
        return ExitCode::from(2);
    }
    let tuning = optrr::tuning();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} tuning=pairs:{},work:{},calibrated:{} nproc={} transport=loopback profile={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tuning.kernel_min_pairs,
        tuning.batch_min_work,
        tuning.calibrated,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let report = if args.trace {
        ladder::traced(&args)
    } else {
        untraced(&args)
    };
    print_phase(args.workload.name(), &report.slice);
    for failure in &report.failures {
        println!("# gate failed: {failure}");
    }
    let correct = report.failures.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.slice.tally.attempted.max(1),
        report.slice.tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
