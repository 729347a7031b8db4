//! The one job that runs on a key, the per-key job queue that orders
//! them, and the memory budget they enforce.
//!
//! Every engine run the service executes goes through here. A key's jobs
//! (warm-ups, refreshes, backoff retries, re-warms) wait in the key's
//! queue and run one at a time, in submission order, each as one
//! worker-pool job: two runs of one key never overlap, so each run's
//! target and warm-start seeds follow from the key's job order alone. A
//! job holds the key's run claim
//! ([`crate::lifecycle::StateCell::begin_run`]), replays the key's runs
//! when an eviction dropped its Ω, and runs the engine unless it is a
//! pure re-warm. It then lands the outcome or accounts the failure (retry
//! with exponential backoff, degrade once the fail budget is spent),
//! enforces the memory budget, and resolves the claim by dropping it.
//! Replays land their outcomes through the same [`Service::land`], and
//! every engine run of one key is the same [`Service::engine_run`] call.

use crate::lifecycle::{KeyState, RunClaim, StaleReason};
use crate::registry::KeyEntry;
use crate::service::{Service, REFRESH_TARGET_BLEND};
use crate::telemetry::ServeEvent;
use optrr::{Optimizer, OptrrConfig, OptrrError, OptrrOutcome, RunStatistics};
use stats::Categorical;
use std::sync::Arc;
use std::time::Duration;

/// What a job on a key does once it holds the run claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Job {
    /// One fresh engine run: a warm-up or a refresh.
    Run,
    /// A failed run's retry: waits out its backoff delay on the worker,
    /// then runs like [`Job::Run`].
    Retry(Duration),
    /// Rebuild an evicted key's Ω, with no new run (the query path's
    /// transparent re-warm).
    Rewarm,
}

/// Renders a caught panic payload into the failure reason the typed
/// `RefreshFailed` event carries.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|text| text.to_string());
    let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
    format!("panic: {}", text.as_deref().unwrap_or("unknown payload"))
}

impl Service {
    /// Queues one job on a key. The key's jobs run one at a time in
    /// submission order: the job that becomes the queue's head starts at
    /// once, and each finishing job starts the next before its own pool
    /// job ends, so [`Service::wait_idle`] stays a barrier over the queue.
    pub(crate) fn submit(self: &Arc<Self>, entry: &Arc<KeyEntry>, job: Job) {
        let mut jobs = entry.jobs();
        jobs.push_back(job);
        if jobs.len() == 1 {
            drop(jobs);
            self.start_head(entry, job);
        }
    }

    /// Runs a key's head job as one worker-pool job.
    fn start_head(self: &Arc<Self>, entry: &Arc<KeyEntry>, job: Job) {
        /// Retires the head job and starts the next one when dropped, so
        /// a job that panics (the pool contains it) cannot strand the
        /// jobs queued behind it.
        struct Handover(Arc<Service>, Arc<KeyEntry>);
        impl Drop for Handover {
            fn drop(&mut self) {
                let mut jobs = self.1.jobs();
                jobs.pop_front();
                if let Some(&next) = jobs.front() {
                    drop(jobs);
                    self.0.start_head(&self.1, next);
                }
            }
        }
        let handover = Handover(Arc::clone(self), Arc::clone(entry));
        self.pool
            .submit(move || handover.0.run_job(&handover.1, job));
    }

    /// Runs one job on a key, on a pool worker.
    fn run_job(self: &Arc<Self>, entry: &Arc<KeyEntry>, job: Job) {
        if let Job::Retry(delay) = job {
            std::thread::sleep(delay);
        }
        if job == Job::Rewarm {
            entry.touch(self.now_ms());
            // An earlier job of this key already replayed what the
            // eviction dropped: nothing is left to restore.
            if !entry.needs_replay() {
                return;
            }
        }
        let mut claim = entry.lifecycle().begin_run();
        // Whatever state the claim started from, a job that finds the Ω
        // dropped replays it first, so a run improves on the pre-eviction
        // Ω and warm-starts from the replayed seed chain instead of
        // cold-running into a wiped store.
        if entry.take_replay() {
            self.restore_resident(entry);
        }
        if job != Job::Rewarm {
            self.run_fresh(entry, &mut claim);
        }
        // Enforce the budget before the claim resolves, so a waiter woken
        // by this job never observes the accounting above budget.
        self.enforce_memory(entry.key());
    }

    /// One fresh engine run under a held claim: claims the next run
    /// index, runs the engine, and lands or fails the outcome.
    fn run_fresh(self: &Arc<Self>, entry: &Arc<KeyEntry>, claim: &mut RunClaim<'_>) {
        let from = claim.started_from();
        let run_index = entry.claim_run_index();
        // Injected chaos applies only to refreshes of keys that already
        // hold warm data: warm-ups and re-warm replays are the recovery
        // paths every chaos scenario converges through, so they stay
        // fault-free by construction.
        let inject = self.faults.as_deref().filter(|_| from.has_warm_data());
        if let Some(pause) = inject.and_then(|i| i.stall(entry.key(), run_index)) {
            std::thread::sleep(pause);
        }
        let inject_panic = inject.is_some_and(|i| i.refresh_panic(entry.key(), run_index));
        // The engine run is contained: a panic (injected or genuine)
        // unwinds to here, is converted into a failure, and goes through
        // the same retry/degrade accounting as an engine error.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "injected refresh fault (key {:x}, run {run_index})",
                    entry.key()
                );
            }
            // Seeds are consumed only past the injection point, so the
            // retry after an injected panic warm-starts from the exact
            // seed set this run would have used — that, plus the run-index
            // roll-back on failure, is what keeps a faulted-then-recovered
            // store bitwise-equal to a never-faulted one.
            let target = self.refresh_target(entry, from);
            self.engine_run(entry, run_index, target.as_ref(), entry.take_warm_seeds())
                .map(|outcome| (target, outcome))
        }));
        // A landed run marks the claim landed; a failed one goes through
        // the retry and degrade accounting.
        match result {
            Ok(Ok((target, outcome))) => {
                self.land(entry, run_index, target, outcome);
                claim.land();
            }
            Ok(Err(error)) => self.note_refresh_failure(entry, claim, run_index, error.to_string()),
            Err(payload) => {
                self.note_refresh_failure(entry, claim, run_index, panic_message(payload))
            }
        }
    }

    /// The engine configuration for one run of one key: the shared budget
    /// template with the key's δ and Ω resolution overlaid and the seed
    /// advanced by the run index, so every run of every key is
    /// deterministic and distinct.
    fn run_config(&self, entry: &KeyEntry, run_index: u64) -> OptrrConfig {
        OptrrConfig {
            delta: entry.delta(),
            omega_slots: entry.num_slots(),
            seed: self.config.base.seed.wrapping_add(run_index),
            ..self.config.base.clone()
        }
    }

    /// The per-key engine call of every run and re-warm replay: run
    /// `run_index` from `seeds`, for `target` or (with `None`, bit for bit
    /// `optimize_distribution_seeded`) the registered prior. Generations
    /// are traced by a recording-only hook that cannot perturb the run.
    fn engine_run(
        &self,
        entry: &KeyEntry,
        run_index: u64,
        target: Option<&Categorical>,
        seeds: Vec<rr::RrMatrix>,
    ) -> std::result::Result<OptrrOutcome, OptrrError> {
        let optimizer = Optimizer::new(self.run_config(entry, run_index))?;
        let optimizer = match self.obs.generation_observer(entry.key()) {
            Some(hook) => optimizer.with_generation_observer(hook),
            None => optimizer,
        };
        optimizer.optimize_refresh(entry.prior(), target, seeds)
    }

    /// The optimization target of one fresh run, chosen when it starts.
    /// Drift- and coverage-stale keys re-optimize against the estimated
    /// posterior (when one exists); warm-ups and manual refreshes target
    /// the registered prior. Replays read the run log instead.
    fn refresh_target(&self, entry: &KeyEntry, from: KeyState) -> Option<Categorical> {
        match from.stale_reason() {
            Some(StaleReason::Drift) | Some(StaleReason::Coverage) => entry
                .pipeline()
                .and_then(|p| p.posterior())
                .map(|posterior| rr::estimate::handoff_posterior(&posterior, REFRESH_TARGET_BLEND)),
            _ => None,
        }
    }

    /// Lands one engine outcome in a key's warm store: the one landing
    /// path of warm-ups, refreshes and re-warm replays. The run is traced,
    /// its Ω joins the store, its archive becomes the next run's seed
    /// set, the run log records its target, and the key's failure
    /// episode ends (the streak starts over).
    fn land(
        &self,
        entry: &KeyEntry,
        run_index: u64,
        target: Option<Categorical>,
        outcome: OptrrOutcome,
    ) {
        self.trace_run(entry, run_index, Some(&outcome.statistics));
        entry.land_run(run_index, target, outcome);
        entry.reset_failure_streak();
    }

    /// Traces one finished engine run; `stats` is `None` when it failed.
    fn trace_run(&self, entry: &KeyEntry, run_index: u64, stats: Option<&RunStatistics>) {
        self.obs.emit(ServeEvent::RefreshRun {
            key: entry.key(),
            run_index,
            generations: stats.map_or(0, |s| s.generations_run as u64),
            evaluations: stats.map_or(0, |s| s.evaluations as u64),
            pairs_reused: stats.map_or(0, |s| s.fitness_pairs_reused),
            pairs_computed: stats.map_or(0, |s| s.fitness_pairs_computed),
            landed: stats.is_some(),
        });
    }

    /// Accounts one failed (errored or panicked) run: typed telemetry,
    /// bounded exponential-backoff retry, and — once the fail budget is
    /// exhausted — graceful degradation to the last-good store.
    fn note_refresh_failure(
        self: &Arc<Self>,
        entry: &Arc<KeyEntry>,
        claim: &mut RunClaim<'_>,
        run_index: u64,
        reason: String,
    ) {
        self.trace_run(entry, run_index, None);
        eprintln!(
            "optrr-serve: refresh of key {:x} (run {run_index}) failed: {reason}",
            entry.key()
        );
        if !claim.started_from().has_warm_data() {
            // A failed warm-up resolves warm-and-empty: there is no
            // last-good Ω to degrade to, and a NoMatch answer beats a
            // retry loop against a configuration the optimizer rejects
            // deterministically.
            return;
        }
        // Roll the claimed run index back so the retry — or the eventual
        // recovery refresh — re-runs the *same* deterministic seed
        // instead of burning it.
        entry.unclaim_run_index(run_index);
        let streak = entry.count_refresh_failure();
        self.obs.emit(ServeEvent::RefreshFailed {
            key: entry.key(),
            run_index,
            streak,
            reason,
        });
        if streak >= self.config.fail_budget {
            // Budget exhausted: stop the automatic retries and serve the
            // last-good store, flagged degraded, until a later (manual or
            // drift-scheduled) refresh lands and restores `Warm`.
            claim.degrade();
            self.obs.emit(ServeEvent::Degraded {
                key: entry.key(),
                failures: streak,
            });
            return;
        }
        entry.count_retry();
        let delay = self.retry_delay(streak);
        self.obs.emit(ServeEvent::RefreshRetry {
            key: entry.key(),
            attempt: streak,
            delay_ms: delay.as_millis() as u64,
        });
        // The backoff sleeps *inside* the retry job, on a pool worker:
        // the retry is queued behind this job before it resolves, so
        // `wait_idle` (and the protocol's `Sync`) remain true barriers
        // over the whole retry chain.
        self.submit(entry, Job::Retry(delay));
    }

    /// Deterministic exponential backoff: attempt `n` (1-based) waits
    /// `retry_base_ms << (n - 1)` milliseconds, saturating at
    /// `retry_max_ms`.
    fn retry_delay(&self, attempt: u64) -> Duration {
        let exponent = attempt.saturating_sub(1).min(20) as u32;
        let ms = self
            .config
            .retry_base_ms
            .saturating_mul(1u64 << exponent)
            .min(self.config.retry_max_ms);
        Duration::from_millis(ms)
    }

    /// Rebuilds an evicted key's Ω and seed set under the caller's run
    /// claim: replays its runs `0..n` in order, each against its logged
    /// target and warm-started from the previous one's archive, without
    /// claiming new run indices — bit for bit the runs that landed. A
    /// failed run stops the replay and leaves the seed set empty. The one
    /// place a re-warm is counted and traced.
    fn restore_resident(&self, entry: &KeyEntry) {
        for run_index in 0..entry.engine_runs().max(1) {
            let target = entry.run_log().get(run_index as usize).cloned().flatten();
            match self.engine_run(entry, run_index, target.as_ref(), entry.take_warm_seeds()) {
                Ok(outcome) => self.land(entry, run_index, target, outcome),
                Err(error) => {
                    eprintln!(
                        "optrr-serve: re-warm of key {:x} failed at run {run_index}: {error}",
                        entry.key()
                    );
                    entry.put_warm_seeds(Vec::new());
                    break;
                }
            }
        }
        entry.count_rewarm();
        self.obs.emit(ServeEvent::Rewarmed { key: entry.key() });
    }

    /// Evicts expired keys (TTL) and then least-recently-touched keys
    /// until resident bytes fit the budget. `protect` is never evicted
    /// (the key that just grew — evicting it immediately would thrash).
    pub(crate) fn enforce_memory(&self, protect: u64) {
        self.sweep_ttl();
        let Some(budget) = self.config.memory_budget_bytes else {
            return;
        };
        // One registry-wide byte sum, then subtract what each eviction
        // frees — not a recount per victim, which would make a budget
        // squeeze quadratic in the key count.
        let mut resident = self.registry.resident_bytes();
        while resident > budget {
            let Some(victim) = self.registry.lru_evictable(protect) else {
                break;
            };
            match self.evict_key(&victim) {
                Some(freed) => resident = resident.saturating_sub(freed),
                None => break,
            }
        }
    }

    /// Evicts every idle key untouched for longer than the configured TTL.
    pub(crate) fn sweep_ttl(&self) {
        let Some(ttl) = self.config.key_ttl else {
            return;
        };
        let ttl_ms = ttl.as_millis() as u64;
        let now = self.now_ms();
        for entry in self.registry.entries() {
            if entry.state().has_warm_data()
                && entry.lifecycle().inflight() == 0
                && now.saturating_sub(entry.last_touch_ms()) > ttl_ms
            {
                self.evict_key(&entry);
            }
        }
    }
}
