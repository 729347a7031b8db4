//! Benchmark of the incremental fitness kernel against from-scratch SPEA2
//! fitness assignment.
//!
//! Simulates the engine's steady state: a combined population of `n`
//! individuals where a `survival` fraction (the archive, ≥ 50% here)
//! carries over between generations and the rest are fresh offspring. Each
//! generation is fitness-assigned four ways — from scratch
//! ([`emoo::assign_fitness`]), and through a persistent
//! [`emoo::FitnessKernel`] in serial, forced-parallel, and default
//! ([`FitnessKernel::new`]) configurations — with the results asserted
//! bitwise equal before the timings are trusted. The first generations of
//! every series are untimed warm-up, and speedups compare medians, not
//! means.
//!
//! The default series is the one the engines actually run:
//! [`FitnessKernel::new`] switches between the serial and parallel fill
//! per generation at [`emoo::kernel::DEFAULT_PARALLEL_MIN_PAIRS`] fresh
//! pairs. The run asserts that this chosen path is never more than 10%
//! slower (p50) than the better of the two fixed paths at any benched `n`
//! — the guard against the old regression where the reported "parallel"
//! series forced the fan-out at sizes it could not pay for. Results land
//! in `BENCH_fitness.json` at the workspace root.
//!
//! Usage: `cargo run -p optrr-bench --release --bin bench_fitness
//!  [-- --generations G --survival-percent P | --smoke]`

use bench_support::{arg_value, summarize_ns, TimingSummary, DEFAULT_WARMUP_ITERS};
use emoo::kernel::FitnessKernel;
use emoo::{assign_fitness, Individual, Objectives};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// One measured series, in the same row shape as the other BENCH files.
#[derive(Serialize)]
struct Entry {
    name: String,
    mean_ns: u64,
    p50_ns: u64,
    min_ns: u64,
    max_ns: u64,
    iterations: u64,
}

impl Entry {
    fn new(name: String, timing: TimingSummary) -> Self {
        Self {
            name,
            mean_ns: timing.mean_ns,
            p50_ns: timing.p50_ns,
            min_ns: timing.min_ns,
            max_ns: timing.max_ns,
            iterations: timing.iterations,
        }
    }
}

/// The emitted baseline: per-series rows plus the headline speedups the
/// acceptance criteria read. All speedups are p50-over-p50.
#[derive(Serialize)]
struct FitnessBaseline {
    generations: usize,
    warmup_generations: usize,
    survival: f64,
    entries: Vec<Entry>,
    speedup_incremental: Vec<SpeedupEntry>,
}

#[derive(Serialize)]
struct SpeedupEntry {
    n: usize,
    /// Scratch p50 over serial-kernel p50.
    scratch_over_incremental: f64,
    /// Scratch p50 over the default ([`FitnessKernel::new`]) kernel p50 —
    /// the path the engines actually take.
    scratch_over_incremental_default: f64,
    /// Scratch p50 over the forced-parallel (threshold 0) kernel p50, the
    /// diagnostic that documents why the threshold exists.
    scratch_over_forced_parallel: f64,
}

/// A synthetic two-objective point cloud shaped like the engine's: mostly
/// near a front with some dominated stragglers.
fn random_point(rng: &mut StdRng) -> Objectives {
    let t: f64 = rng.gen();
    let noise: f64 = rng.gen::<f64>() * 0.3;
    Objectives::pair(t + noise, (1.0 - t) + noise)
}

/// Drives `warmup + generations` steps of one population of size `n` with
/// the given survivor count, timing the supplied assignment closure per
/// generation, asserting it reproduces the from-scratch fitness bitwise,
/// and discarding the warm-up samples.
fn run_series(
    n: usize,
    survivors: usize,
    warmup: usize,
    generations: usize,
    density_k: usize,
    seed: u64,
    mut assign: impl FnMut(&mut Vec<Individual<u64>>, &[u64]) -> u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    let mut members: Vec<Individual<u64>> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut samples = Vec::with_capacity(warmup + generations);
    for _ in 0..(warmup + generations) {
        // Survivors keep their ids; the rest of the population is fresh.
        members.truncate(survivors.min(members.len()));
        ids.truncate(members.len());
        while members.len() < n {
            members.push(Individual::new(next_id, random_point(&mut rng)));
            ids.push(next_id);
            next_id += 1;
        }
        samples.push(assign(&mut members, &ids));

        // Cross-check against the reference implementation (outside the
        // timed section).
        let mut reference: Vec<Individual<u64>> = members.clone();
        for ind in &mut reference {
            ind.fitness = None;
        }
        assign_fitness(&mut reference, density_k);
        for (a, b) in members.iter().zip(&reference) {
            assert_eq!(
                a.fitness.expect("assigned").to_bits(),
                b.fitness.expect("assigned").to_bits(),
                "incremental fitness diverged from scratch"
            );
        }
    }
    samples.split_off(warmup)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let generations = arg_value("--generations").unwrap_or(if smoke { 6 } else { 40 });
    let warmup = DEFAULT_WARMUP_ITERS;
    let survival_percent = arg_value("--survival-percent").unwrap_or(50).min(95);
    let density_k = 1usize;
    let sizes = [50usize, 100, 200];

    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for &n in &sizes {
        let survivors = n * survival_percent / 100;

        // From scratch: the pre-kernel O(n²) path, every generation.
        let scratch = run_series(
            n,
            survivors,
            warmup,
            generations,
            density_k,
            7,
            |members, _ids| {
                let started = Instant::now();
                assign_fitness(members, density_k);
                started.elapsed().as_nanos() as u64
            },
        );

        // Incremental: one kernel persists across each series. Serial
        // never crosses the parallel threshold, forced always does, and
        // the default kernel (the engines' configuration) decides per
        // generation. Forced-parallel runs last: right after its fan-outs
        // a serial series measures slower, which biased the gate below
        // against whichever series came next.
        let timed_kernel = |mut kernel: FitnessKernel| {
            run_series(
                n,
                survivors,
                warmup,
                generations,
                density_k,
                7,
                move |members, ids| {
                    let started = Instant::now();
                    kernel.assign_fitness(members, ids, density_k);
                    started.elapsed().as_nanos() as u64
                },
            )
        };
        let serial = summarize_ns(&timed_kernel(FitnessKernel::with_parallel_threshold(
            usize::MAX,
        )));
        let default = summarize_ns(&timed_kernel(FitnessKernel::new()));
        let forced = summarize_ns(&timed_kernel(FitnessKernel::with_parallel_threshold(0)));
        let scratch = summarize_ns(&scratch);

        // The production path must track the better fixed path: >10%
        // slower than either at any benched n is the benchmark regression
        // this guard exists for.
        let best_fixed = serial.p50_ns.min(forced.p50_ns);
        assert!(
            default.p50_ns as f64 <= best_fixed as f64 * 1.10,
            "default kernel path is >10% slower than the best fixed path at n={n}: \
             default p50 {} ns vs best fixed p50 {} ns (serial {}, forced-parallel {})",
            default.p50_ns,
            best_fixed,
            serial.p50_ns,
            forced.p50_ns,
        );

        let speedup = scratch.p50_ns as f64 / serial.p50_ns.max(1) as f64;
        let speedup_default = scratch.p50_ns as f64 / default.p50_ns.max(1) as f64;
        let speedup_forced = scratch.p50_ns as f64 / forced.p50_ns.max(1) as f64;
        println!(
            "n={n:<4} survivors={survivors:<4} scratch {:>9} ns  serial {:>9} ns ({speedup:.2}x)  default {:>9} ns ({speedup_default:.2}x)  forced-parallel {:>9} ns ({speedup_forced:.2}x)",
            scratch.p50_ns, serial.p50_ns, default.p50_ns, forced.p50_ns
        );
        speedups.push(SpeedupEntry {
            n,
            scratch_over_incremental: speedup,
            scratch_over_incremental_default: speedup_default,
            scratch_over_forced_parallel: speedup_forced,
        });
        entries.push(Entry::new(format!("fitness_scratch/n{n}"), scratch));
        entries.push(Entry::new(
            format!("fitness_incremental_serial/n{n}"),
            serial,
        ));
        entries.push(Entry::new(
            format!("fitness_incremental_default/n{n}"),
            default,
        ));
        entries.push(Entry::new(
            format!("fitness_incremental_forced_parallel/n{n}"),
            forced,
        ));
    }

    if smoke {
        println!("smoke mode: skipping BENCH_fitness.json baseline write");
        return;
    }
    let baseline = FitnessBaseline {
        generations,
        warmup_generations: warmup,
        survival: survival_percent as f64 / 100.0,
        entries,
        speedup_incremental: speedups,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fitness.json");
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("wrote baseline {path}"),
        Err(error) => eprintln!("warning: could not write {path}: {error}"),
    }
}
