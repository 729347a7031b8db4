//! A small fixed-size worker pool for refresh jobs.
//!
//! The service schedules engine runs (cold-key warm-ups, stale-key
//! refreshes, post-eviction re-warms) as jobs on this pool so the front
//! door stays responsive while optimizations execute in the background.
//! The pool is a classic shared-queue design: `workers` OS threads pop
//! boxed closures from one queue; `wait_idle` blocks until every submitted
//! job has finished, which is what the protocol's `Sync` request and the
//! deterministic tests use as a barrier. Which run a job performs — and
//! whether exactly one was scheduled — is decided by the per-key state
//! machine in [`crate::lifecycle`], and each key hands the pool one job
//! at a time from its own queue; the pool itself is oblivious.

use obs::Counter;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Jobs submitted but not yet finished (queued + running).
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or shutdown begins.
    work: Condvar,
    /// Signalled when `pending` drops to zero.
    idle: Condvar,
    /// Telemetry: jobs submitted / finished / panicked over the pool's
    /// lifetime. Recording-only (relaxed counters); the queue discipline
    /// above never reads them.
    jobs_submitted: Counter,
    jobs_executed: Counter,
    jobs_panicked: Counter,
}

impl PoolShared {
    /// The queue state is a deque of boxed jobs plus two integers, and
    /// every mutation under the lock either fully happens or not at all —
    /// a thread that panicked while holding it cannot have left anything
    /// half-written. So a poisoned lock is recovered, not escalated:
    /// cascading one contained job panic into every later `submit` and
    /// `wait_idle` would turn an isolated fault into a service outage.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A fixed pool of worker threads executing submitted jobs.
///
/// Dropping the pool waits for all pending jobs, then joins the workers
/// (all but the dropping thread, when a job drops the pool).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("pending", &self.pending())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with the given number of workers (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            jobs_submitted: Counter::new(),
            jobs_executed: Counter::new(),
            jobs_panicked: Counter::new(),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("optrr-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs submitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.shared.lock_state().pending
    }

    /// Enqueues a job for execution on some worker.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.lock_state();
        assert!(!state.shutdown, "submit after shutdown");
        state.queue.push_back(Box::new(job));
        state.pending += 1;
        drop(state);
        self.shared.jobs_submitted.inc();
        self.shared.work.notify_one();
    }

    /// Jobs submitted over the pool's lifetime.
    pub fn jobs_submitted(&self) -> u64 {
        self.shared.jobs_submitted.get()
    }

    /// Jobs that finished executing (panicked ones included).
    pub fn jobs_executed(&self) -> u64 {
        self.shared.jobs_executed.get()
    }

    /// Jobs whose closure panicked (the panic is contained; see
    /// `worker_loop`). The service publishes this as the
    /// `serve_worker_jobs_panicked` gauge.
    pub fn jobs_panicked(&self) -> u64 {
        self.shared.jobs_panicked.get()
    }

    /// Blocks until every submitted job has finished.
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock_state();
        while state.pending > 0 {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock_state();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        // A job can hold the last handle to the pool's owner (a refresh
        // holding the last `Arc<Service>`), and then the pool is dropped
        // on one of its own workers. A thread cannot join itself, so that
        // worker is skipped: it finishes the job, drains the queue like
        // the others, and exits on its own.
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.lock_state();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // A panicking job must not wedge `wait_idle`, so the panic is
        // contained and the pending count still drops.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        shared.jobs_executed.inc();
        if outcome.is_err() {
            shared.jobs_panicked.inc();
            eprintln!("optrr-serve: a worker job panicked; continuing");
        }
        let mut state = shared.lock_state();
        state.pending -= 1;
        if state.pending == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job_and_wait_idle_blocks_until_done() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.jobs_submitted(), 64);
        assert_eq!(pool.jobs_executed(), 64);
        assert_eq!(pool.jobs_panicked(), 0);
    }

    #[test]
    fn a_pool_dropped_by_its_own_job_joins_every_other_worker() {
        let pool = Arc::new(WorkerPool::new(3));
        let shared = Arc::clone(&pool.shared);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let last = Arc::clone(&pool);
        pool.submit(move || {
            gate.recv().unwrap();
            drop(last);
        });
        drop(pool);
        release.send(()).unwrap();
        // Every worker holds `shared` until it exits; the pool's own
        // reference goes when the job's drop returns.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while Arc::strong_count(&shared) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers still running"
            );
            std::thread::yield_now();
        }
        assert_eq!(shared.jobs_executed.get(), 1);
        assert_eq!(
            shared.jobs_panicked.get(),
            0,
            "the pool joined its own thread"
        );
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let flag = Arc::new(AtomicUsize::new(0));
        let inner = Arc::clone(&flag);
        pool.submit(move || {
            inner.store(7, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(flag.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn panicking_job_does_not_wedge_the_pool() {
        let pool = WorkerPool::new(2);
        pool.submit(|| panic!("job panic"));
        let ok = Arc::new(AtomicUsize::new(0));
        let inner = Arc::clone(&ok);
        pool.submit(move || {
            inner.store(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
        assert_eq!(pool.jobs_executed(), 2);
        assert_eq!(pool.jobs_panicked(), 1);
    }

    #[test]
    fn drop_joins_after_draining() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_idle();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
