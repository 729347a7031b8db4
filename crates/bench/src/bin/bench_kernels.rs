//! Microbenchmark of the hot-path kernels: alias-table disguise sampling,
//! blocked matrix multiply, slice-based LU, and the fitness-kernel fill at
//! the calibrated parallel threshold.
//!
//! Every optimized kernel is timed against the reference implementation it
//! replaced (`rr::disguise_dataset_reference`, `linalg::reference`), with
//! shared warm-up discipline and p50-over-p50 speedups. Results land in
//! `BENCH_kernels.json` at the workspace root.
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_kernels
//!  [-- --smoke | --report]`
//!
//! `--smoke` runs a fast pass without writing the baseline; `--report`
//! does no measuring at all — it parses the committed `BENCH_kernels.json`
//! and `BENCH_fitness.json` and prints their headline speedup lines
//! (report-only; missing files are noted, never fatal), which is what the
//! CI perf-delta step runs.

use bench_support::{summarize_ns, time_iterations, TimingSummary, DEFAULT_WARMUP_ITERS};
use datagen::CategoricalDataset;
use emoo::kernel::FitnessKernel;
use emoo::{Individual, Objectives};
use linalg::{LuDecomposition, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct SamplerRow {
    n: usize,
    draws: usize,
    naive: TimingSummary,
    alias: TimingSummary,
    naive_draws_per_sec: u64,
    alias_draws_per_sec: u64,
    /// Inverse-CDF p50 over alias p50 — ≥ 1 means the alias table wins.
    alias_over_naive: f64,
}

#[derive(Serialize)]
struct DisguiseRow {
    n: usize,
    records: usize,
    naive: TimingSummary,
    alias: TimingSummary,
    naive_records_per_sec: u64,
    alias_records_per_sec: u64,
    /// Naive p50 over alias p50 — ≥ 1 means the alias table wins.
    alias_over_naive: f64,
}

#[derive(Serialize)]
struct LinalgRow {
    n: usize,
    naive: TimingSummary,
    optimized: TimingSummary,
    optimized_over_naive: f64,
}

#[derive(Serialize)]
struct KernelFillRow {
    population: usize,
    fresh_pairs: usize,
    serial: TimingSummary,
    parallel: TimingSummary,
    calibrated: TimingSummary,
    serial_over_parallel: f64,
}

#[derive(Serialize)]
struct TuningRow {
    kernel_min_pairs: usize,
    batch_min_work: usize,
    calibrated: bool,
}

#[derive(Serialize)]
struct KernelsBaseline {
    tuning: TuningRow,
    sampler: Vec<SamplerRow>,
    disguise: Vec<DisguiseRow>,
    matmul: Vec<LinalgRow>,
    lu: Vec<LinalgRow>,
    kernel_fill: Vec<KernelFillRow>,
}

fn ratio(reference_p50: u64, optimized_p50: u64) -> f64 {
    reference_p50 as f64 / optimized_p50.max(1) as f64
}

fn records_per_sec(records: usize, p50_ns: u64) -> u64 {
    (records as f64 * 1e9 / p50_ns.max(1) as f64) as u64
}

/// Times the bare per-draw sampling kernels — O(log n) inverse-CDF binary
/// search vs O(1) alias lookup — over one warner column, with the samplers
/// built outside the timed region. This is the per-record cost the alias
/// table buys; [`disguise_series`] measures the whole path around it
/// (sampler build, record loop, outcome collection).
fn sampler_series(n: usize, draws: usize, warmup: usize, iters: usize) -> SamplerRow {
    let m = rr::schemes::warner(n, 0.6).expect("warner matrix");
    let column = m.randomization_distribution(n / 2).expect("column");
    let table = rr::AliasTable::from_distribution(&column);
    let mut rng = StdRng::seed_from_u64(17);
    let naive = summarize_ns(&time_iterations(warmup, iters, || {
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= column.sample(&mut rng);
        }
        std::hint::black_box(acc);
    }));
    let mut rng = StdRng::seed_from_u64(17);
    let alias = summarize_ns(&time_iterations(warmup, iters, || {
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= table.sample(&mut rng);
        }
        std::hint::black_box(acc);
    }));
    SamplerRow {
        n,
        draws,
        naive_draws_per_sec: records_per_sec(draws, naive.p50_ns),
        alias_draws_per_sec: records_per_sec(draws, alias.p50_ns),
        alias_over_naive: ratio(naive.p50_ns, alias.p50_ns),
        naive,
        alias,
    }
}

/// Times alias-table vs cached-CDF disguise over a cyclic record stream.
/// Both paths rebuild their per-column samplers inside the timed region —
/// the build is part of each path's real cost — and draw exactly one
/// uniform per record.
fn disguise_series(n: usize, records: usize, warmup: usize, iters: usize) -> DisguiseRow {
    let m = rr::schemes::warner(n, 0.6).expect("warner matrix");
    let data = CategoricalDataset::new(n, (0..records).map(|i| i % n).collect())
        .expect("cyclic records are in range");
    let mut rng = StdRng::seed_from_u64(11);
    let naive = summarize_ns(&time_iterations(warmup, iters, || {
        let out = rr::disguise_dataset_reference(&m, &data, &mut rng).expect("disguise");
        std::hint::black_box(out.retained);
    }));
    let mut rng = StdRng::seed_from_u64(11);
    let alias = summarize_ns(&time_iterations(warmup, iters, || {
        let out = rr::disguise_dataset(&m, &data, &mut rng).expect("disguise");
        std::hint::black_box(out.retained);
    }));
    DisguiseRow {
        n,
        records,
        naive_records_per_sec: records_per_sec(records, naive.p50_ns),
        alias_records_per_sec: records_per_sec(records, alias.p50_ns),
        alias_over_naive: ratio(naive.p50_ns, alias.p50_ns),
        naive,
        alias,
    }
}

/// A deterministic dense test matrix with exact zeros sprinkled in so the
/// multiply's zero-skip path is exercised on both sides.
fn dense(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let t = ((salt as f64) + (i * cols + j) as f64).sin();
            m[(i, j)] = if t.abs() < 0.05 { 0.0 } else { t };
        }
    }
    m
}

fn matmul_series(n: usize, warmup: usize, iters: usize) -> LinalgRow {
    let a = dense(n, n, 1);
    let b = dense(n, n, 2);
    let naive = summarize_ns(&time_iterations(warmup, iters, || {
        let out = linalg::reference::mul_matrix_naive(&a, &b).expect("multiply");
        std::hint::black_box(out.as_slice()[0]);
    }));
    let optimized = summarize_ns(&time_iterations(warmup, iters, || {
        let out = a.mul_matrix(&b).expect("multiply");
        std::hint::black_box(out.as_slice()[0]);
    }));
    LinalgRow {
        n,
        optimized_over_naive: ratio(naive.p50_ns, optimized.p50_ns),
        naive,
        optimized,
    }
}

/// A diagonally-dominant column-stochastic matrix — the shape evaluation
/// inverts — sized for the LU timing.
fn stochastic(n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let off = 0.3 / (n as f64 - 1.0);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = if i == j { 0.7 } else { off };
        }
    }
    m
}

fn lu_series(n: usize, warmup: usize, iters: usize) -> LinalgRow {
    let m = stochastic(n);
    let naive = summarize_ns(&time_iterations(warmup, iters, || {
        let (lu, _, _) = linalg::reference::lu_factor_naive(&m).expect("factor");
        std::hint::black_box(lu.as_slice()[0]);
    }));
    let optimized = summarize_ns(&time_iterations(warmup, iters, || {
        let lu = LuDecomposition::new(&m).expect("factor");
        std::hint::black_box(lu.packed().as_slice()[0]);
    }));
    LinalgRow {
        n,
        optimized_over_naive: ratio(naive.p50_ns, optimized.p50_ns),
        naive,
        optimized,
    }
}

/// Times one full fresh fitness-kernel fill (every pair fresh) for a
/// population, in the serial, forced-parallel, and calibrated kernel
/// configurations.
fn kernel_fill_series(population: usize, warmup: usize, iters: usize) -> KernelFillRow {
    let mut rng = StdRng::seed_from_u64(23);
    let members: Vec<Individual<u64>> = (0..population as u64)
        .map(|id| {
            let t: f64 = rand::Rng::gen(&mut rng);
            Individual::new(id, Objectives::pair(t, 1.0 - t))
        })
        .collect();
    let ids: Vec<u64> = (0..population as u64).collect();
    let timed = |threshold: Option<usize>| {
        summarize_ns(&time_iterations(warmup, iters, || {
            // A fresh kernel per iteration keeps every pair a fresh pair.
            let mut kernel = match threshold {
                Some(t) => FitnessKernel::with_parallel_threshold(t),
                None => FitnessKernel::new(),
            };
            let mut filled = members.clone();
            kernel.assign_fitness(&mut filled, &ids, 1);
            std::hint::black_box(filled[0].fitness);
        }))
    };
    let serial = timed(Some(usize::MAX));
    let parallel = timed(Some(0));
    let calibrated = timed(None);
    KernelFillRow {
        population,
        fresh_pairs: population * (population - 1) / 2,
        serial_over_parallel: ratio(serial.p50_ns, parallel.p50_ns),
        serial,
        parallel,
        calibrated,
    }
}

/// Report-only mode: parse the committed baselines and print their
/// headline speedups. Missing or unreadable files are reported and
/// skipped — this step never fails a build.
fn report() {
    use serde::Value;
    let num = |row: &Value, key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let int = |row: &Value, key: &str| row.get(key).and_then(Value::as_u64).unwrap_or(0);
    let rows = |value: &Value, key: &str| -> Vec<Value> {
        value
            .get(key)
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let load = |name: &str| -> Option<Value> {
        let path = format!("{root}/{name}");
        match std::fs::read_to_string(&path) {
            Ok(text) => match serde_json::from_str::<Value>(&text) {
                Ok(value) => Some(value),
                Err(error) => {
                    println!("perf-delta: {name}: unparsable ({error})");
                    None
                }
            },
            Err(_) => {
                println!("perf-delta: {name}: not committed, skipping");
                None
            }
        }
    };
    if let Some(kernels) = load("BENCH_kernels.json") {
        for row in rows(&kernels, "sampler") {
            println!(
                "perf-delta: sampler n={} alias-over-naive {:.2}x ({} -> {} draws/s)",
                int(&row, "n"),
                num(&row, "alias_over_naive"),
                int(&row, "naive_draws_per_sec"),
                int(&row, "alias_draws_per_sec"),
            );
        }
        for row in rows(&kernels, "disguise") {
            println!(
                "perf-delta: disguise n={} alias-over-naive {:.2}x ({} -> {} records/s)",
                int(&row, "n"),
                num(&row, "alias_over_naive"),
                int(&row, "naive_records_per_sec"),
                int(&row, "alias_records_per_sec"),
            );
        }
        for key in ["matmul", "lu"] {
            for row in rows(&kernels, key) {
                println!(
                    "perf-delta: {key} n={} optimized-over-naive {:.2}x",
                    int(&row, "n"),
                    num(&row, "optimized_over_naive"),
                );
            }
        }
        for row in rows(&kernels, "kernel_fill") {
            println!(
                "perf-delta: kernel-fill population={} serial-over-parallel {:.2}x",
                int(&row, "population"),
                num(&row, "serial_over_parallel"),
            );
        }
    }
    if let Some(fitness) = load("BENCH_fitness.json") {
        for row in rows(&fitness, "speedup_incremental") {
            println!(
                "perf-delta: fitness n={} scratch-over-incremental {:.2}x, over-calibrated {:.2}x",
                int(&row, "n"),
                num(&row, "scratch_over_incremental"),
                num(&row, "scratch_over_incremental_parallel"),
            );
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--report") {
        report();
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let warmup = DEFAULT_WARMUP_ITERS;
    let (disguise_records, disguise_iters) = if smoke { (5_000, 3) } else { (100_000, 12) };
    let linalg_iters = if smoke { 4 } else { 30 };
    let fill_iters = if smoke { 3 } else { 15 };
    let fill_populations: &[usize] = if smoke { &[64] } else { &[128, 512] };

    // Install the calibrated (or OPTRR_TUNE) thresholds before the
    // calibrated kernel series reads them.
    let tuning = optrr::tuning();
    println!(
        "tuning: kernel_min_pairs={} batch_min_work={} calibrated={}",
        tuning.kernel_min_pairs, tuning.batch_min_work, tuning.calibrated
    );

    let sampler: Vec<SamplerRow> = [4usize, 16, 64, 256]
        .iter()
        .map(|&n| {
            let row = sampler_series(n, disguise_records, warmup, disguise_iters);
            println!(
                "sampler    n={n:<4} inverse-cdf {:>7} ns  alias {:>9} ns  ({:.2}x, {} -> {} draws/s)",
                row.naive.p50_ns,
                row.alias.p50_ns,
                row.alias_over_naive,
                row.naive_draws_per_sec,
                row.alias_draws_per_sec,
            );
            row
        })
        .collect();

    let disguise: Vec<DisguiseRow> = [4usize, 16, 64, 256]
        .iter()
        .map(|&n| {
            let row = disguise_series(n, disguise_records, warmup, disguise_iters);
            println!(
                "disguise   n={n:<4} naive {:>9} ns  alias {:>9} ns  ({:.2}x, {} -> {} records/s)",
                row.naive.p50_ns,
                row.alias.p50_ns,
                row.alias_over_naive,
                row.naive_records_per_sec,
                row.alias_records_per_sec,
            );
            row
        })
        .collect();

    let matmul: Vec<LinalgRow> = [32usize, 64, 96]
        .iter()
        .map(|&n| {
            let row = matmul_series(n, warmup, linalg_iters);
            println!(
                "matmul     n={n:<4} naive {:>9} ns  blocked {:>8} ns  ({:.2}x)",
                row.naive.p50_ns, row.optimized.p50_ns, row.optimized_over_naive
            );
            row
        })
        .collect();

    let lu: Vec<LinalgRow> = [32usize, 64, 96]
        .iter()
        .map(|&n| {
            let row = lu_series(n, warmup, linalg_iters);
            println!(
                "lu         n={n:<4} naive {:>9} ns  slice {:>10} ns  ({:.2}x)",
                row.naive.p50_ns, row.optimized.p50_ns, row.optimized_over_naive
            );
            row
        })
        .collect();

    let kernel_fill: Vec<KernelFillRow> = fill_populations
        .iter()
        .map(|&population| {
            let row = kernel_fill_series(population, warmup, fill_iters);
            println!(
                "fill       p={population:<4} serial {:>8} ns  parallel {:>8} ns  calibrated {:>8} ns (pairs={})",
                row.serial.p50_ns, row.parallel.p50_ns, row.calibrated.p50_ns, row.fresh_pairs
            );
            row
        })
        .collect();

    if smoke {
        println!("smoke mode: skipping BENCH_kernels.json baseline write");
        return;
    }
    let baseline = KernelsBaseline {
        tuning: TuningRow {
            kernel_min_pairs: tuning.kernel_min_pairs,
            batch_min_work: tuning.batch_min_work,
            calibrated: tuning.calibrated,
        },
        sampler,
        disguise,
        matmul,
        lu,
        kernel_fill,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("wrote baseline {path}"),
        Err(error) => eprintln!("warning: could not write {path}: {error}"),
    }
}
