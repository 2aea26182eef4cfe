//! A reusable scoped worker pool for the fleet hot paths.
//!
//! Every sharded pass in the workspace used to spawn fresh OS threads per
//! call via `std::thread::scope` — fine for one batch detection over a
//! finished fleet, wasteful for per-slot streaming pushes and Monte Carlo
//! drivers that shard thousands of times. [`WorkerPool`] keeps a fixed set
//! of parked worker threads alive and dispatches borrowed shard closures
//! to them through a channel, preserving the scoped-borrow ergonomics of
//! `std::thread::scope`:
//!
//! ```
//! let pool = chaff_core::pool::WorkerPool::new(4);
//! let mut counts = vec![0usize; 4];
//! pool.scope(|scope| {
//!     for (i, count) in counts.iter_mut().enumerate() {
//!         scope.spawn(move || *count = i + 1);
//!     }
//! });
//! assert_eq!(counts, vec![1, 2, 3, 4]);
//! ```
//!
//! # Semantics
//!
//! * [`WorkerPool::scope`] returns only after every closure spawned in it
//!   has finished, so closures may borrow from the enclosing frame
//!   (including mutably, via disjoint slices) exactly like
//!   `std::thread::scope`.
//! * A panicking closure is re-raised on the scoping thread via
//!   [`std::panic::resume_unwind`] after all closures finish; when several
//!   panic, the **lowest spawn index** wins — the same "join in shard
//!   order" semantics the `thread::scope` call sites had.
//! * Tasks are executed by the pool's workers *and* by any thread waiting
//!   for a scope to drain (the waiter "helps"). That keeps every core busy
//!   and makes nested scopes deadlock-free: a scope waiting inside a
//!   worker always makes global progress by running queued tasks itself.
//! * The pool never imposes a partitioning: callers keep their existing
//!   contiguous shard ranges, so detections remain bit-for-bit identical
//!   to the `thread::scope` implementation (which never depended on which
//!   thread ran a shard).
//!
//! [`global`] exposes one process-wide pool sized from
//! `std::thread::available_parallelism`, shared by the batch and streaming
//! detectors, the fleet simulation, the trace-ingestion pipeline and the
//! Monte Carlo driver — detection/simulation calls pay no per-call thread
//! spawns.
//!
//! # Why the one `unsafe` block is sound
//!
//! Queued jobs are type-erased to `'static` closures so the long-lived
//! workers can hold them (the *only* unsafe code in this workspace —
//! see [`PoolScope::spawn`]). Lifetimes are enforced at runtime by the
//! scope discipline: `scope` does not return (even on panic — a drop
//! guard waits) until every job it spawned has run to completion, so no
//! job can outlive the `'env` borrows it captures. This is the standard
//! scoped-pool construction (`crossbeam::scope`, `scoped_threadpool`),
//! proven by the borrow checker on the API surface and by the wait
//! discipline internally.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased job: a spawned shard closure with its scope bookkeeping
/// attached (pending-count decrement, panic capture).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared job queue: a mutex-guarded deque (not an `mpsc` receiver,
/// so waiting scopes can `try_pop` to help without blocking behind a
/// worker parked inside a blocking `recv`).
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled on every push and on shutdown.
    available: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// A fixed-size pool of persistent worker threads executing scoped jobs;
/// see the [module docs](self) for semantics and [`global`] for the
/// process-wide instance.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` persistent workers (clamped to at
    /// least one). Workers park on the job queue and live until the pool
    /// is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a worker thread — the same
    /// failure mode (and rarity) as `std::thread::scope`'s spawns.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("chaff-pool-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Number of worker threads (the scoping thread helps too, so up to
    /// `threads() + 1` tasks can run concurrently during a wait).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a [`PoolScope`] that can spawn borrowing closures
    /// onto the pool, returning `f`'s result after **all** spawned
    /// closures have finished. If any spawned closure panicked, the
    /// panic payload with the lowest spawn index is re-raised here.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope PoolScope<'scope, 'env>) -> R,
    {
        let scope = PoolScope {
            pool: self,
            state: Arc::new(ScopeState {
                sync: Mutex::new(ScopeSync {
                    pending: 0,
                    panic: None,
                }),
                done: Condvar::new(),
            }),
            next_seq: std::cell::Cell::new(0),
            env: std::marker::PhantomData,
        };
        // The guard waits for every spawned job when `f` unwinds: queued
        // jobs borrow from the caller's frame, so unwinding past this
        // frame before they finish would be unsound.
        let guard = WaitGuard { scope: &scope };
        let result = f(&scope);
        // `f` returned, so the wait (and any job panic) happens here. The
        // guard holds only a reference; forgetting it leaks nothing.
        std::mem::forget(guard);
        if let Some(payload) = wait_for_scope(self, &scope.state) {
            resume_unwind(payload);
        }
        result
    }

    /// Enqueues a type-erased job and wakes one worker.
    fn push(&self, job: Job) {
        {
            let mut state = lock(&self.queue.state);
            state.jobs.push_back(job);
        }
        self.queue.available.notify_one();
    }

    /// Pops a queued job without blocking (used by helping waiters).
    fn try_pop(&self) -> Option<Job> {
        lock(&self.queue.state).jobs.pop_front()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // No scope can be alive here (scopes borrow the pool), so the
        // queue holds no jobs anyone waits on; workers drain leftovers
        // and exit.
        lock(&self.queue.state).shutdown = true;
        self.queue.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The process-wide pool, created on first use with one worker per
/// available core. Shared by every sharded hot path in the workspace, so
/// repeated detection/simulation calls reuse the same parked threads.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    })
}

/// Locks a mutex, ignoring poisoning: queue and scope state are plain
/// bookkeeping (no invariant spans a panic — jobs run *outside* the
/// lock), so a panicked holder leaves consistent data.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut state = lock(&queue.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = queue
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

/// Per-scope synchronization: outstanding job count and the winning
/// (lowest spawn index) panic payload.
struct ScopeState {
    sync: Mutex<ScopeSync>,
    /// Signalled whenever a job finishes.
    done: Condvar,
}

struct ScopeSync {
    pending: usize,
    panic: Option<(usize, Box<dyn std::any::Any + Send>)>,
}

/// Handle for spawning borrowed closures inside [`WorkerPool::scope`];
/// mirrors [`std::thread::Scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    next_seq: std::cell::Cell<usize>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Spawns a closure onto the pool. The closure may borrow anything
    /// that outlives the enclosing [`WorkerPool::scope`] call; the scope
    /// waits for it before returning. Spawn order is the panic-priority
    /// order (lowest spawn index wins), matching the shard order the
    /// `thread::scope` call sites joined in.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        lock(&self.state.sync).pending += 1;
        let state = Arc::clone(&self.state);
        let job = move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            let mut sync = lock(&state.sync);
            if let Err(payload) = result {
                match &sync.panic {
                    Some((winner, _)) if *winner <= seq => {}
                    _ => sync.panic = Some((seq, payload)),
                }
            }
            sync.pending -= 1;
            drop(sync);
            state.done.notify_all();
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the job is erased to `'static` so persistent workers
        // can hold it, but it only borrows data living at least as long
        // as `'env`. `WorkerPool::scope` cannot return before this job
        // has run to completion: it waits for `pending == 0` after the
        // scoping closure returns, and `WaitGuard` waits the same way if
        // the closure unwinds; `pending` was incremented above
        // before the job became reachable. Trait-object transmutes over
        // a lifetime parameter are layout-identical fat pointers.
        #[allow(unsafe_code)]
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(job);
    }
}

/// Blocks until the scope's jobs have drained, running queued jobs on
/// this thread while waiting; returns the winning panic payload, if any.
fn wait_for_scope(pool: &WorkerPool, state: &ScopeState) -> Option<Box<dyn std::any::Any + Send>> {
    loop {
        // Help: run queued jobs (this scope's or a nested one's) instead
        // of parking a core. Every waiter making progress on the shared
        // queue is also the nested-scope deadlock-freedom argument.
        while let Some(job) = pool.try_pop() {
            job();
        }
        let sync = lock(&state.sync);
        if sync.pending == 0 {
            let mut sync = sync;
            return sync.panic.take().map(|(_, payload)| payload);
        }
        // A short wait (instead of a pure condvar sleep) re-polls the
        // queue: a still-running job may enqueue nested work that only
        // this thread is free to execute.
        let (sync, _) = state
            .done
            .wait_timeout(sync, Duration::from_millis(1))
            .unwrap_or_else(PoisonError::into_inner);
        drop(sync);
    }
}

/// Waits for the scope when the scoping closure unwinds, so `scope`
/// never unwinds past live borrowed jobs. The closure's own panic is the
/// one that propagates; job payloads are dropped. (Whether the closure
/// unwound is known from the guard being dropped at all, not from
/// `std::thread::panicking`: a helping waiter that is itself unwinding
/// may run this scope inside one of its queued jobs, and must still see
/// this scope's job panics.)
struct WaitGuard<'a, 'pool, 'env> {
    scope: &'a PoolScope<'pool, 'env>,
}

impl Drop for WaitGuard<'_, '_, '_> {
    fn drop(&mut self) {
        drop(wait_for_scope(self.scope.pool, &self.scope.state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_jobs_borrow_disjoint_mutable_slices() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0usize; 64];
        let chunk = 7;
        pool.scope(|scope| {
            for (s, slice) in data.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (j, x) in slice.iter_mut().enumerate() {
                        *x = s * chunk + j;
                    }
                });
            }
        });
        let expected: Vec<usize> = (0..64).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn more_jobs_than_workers_all_complete() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..500 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn scope_returns_closure_result() {
        let pool = WorkerPool::new(1);
        let got = pool.scope(|scope| {
            scope.spawn(|| {});
            42
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn lowest_spawn_index_panic_wins() {
        let pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for i in 0..8 {
                    scope.spawn(move || {
                        if i % 2 == 1 {
                            panic!("shard {i} failed");
                        }
                    });
                }
            });
        }))
        .unwrap_err();
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(message, "shard 1 failed");
    }

    #[test]
    fn panicking_scope_closure_still_waits_for_jobs() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&finished);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for _ in 0..4 {
                    let finished = Arc::clone(&finished);
                    scope.spawn(move || {
                        std::thread::sleep(Duration::from_millis(5));
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("closure panic");
            });
        }));
        assert!(caught.is_err());
        // Every job ran to completion before `scope` unwound.
        assert_eq!(observed.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // One worker: the outer job occupies it, so the inner scope can
        // only finish because waiters help run queued jobs.
        let pool = WorkerPool::new(1);
        let mut outer = vec![0usize; 4];
        pool.scope(|scope| {
            for (i, out) in outer.iter_mut().enumerate() {
                scope.spawn(move || {
                    let pool = global();
                    let mut inner = [0usize; 3];
                    pool.scope(|inner_scope| {
                        for (j, x) in inner.iter_mut().enumerate() {
                            inner_scope.spawn(move || *x = j + 1);
                        }
                    });
                    *out = i + inner.iter().sum::<usize>();
                });
            }
        });
        assert_eq!(outer, vec![6, 7, 8, 9]);
    }

    #[test]
    fn sequential_scopes_reuse_the_same_pool() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let mut data = [0usize; 8];
            pool.scope(|scope| {
                for x in data.iter_mut() {
                    scope.spawn(move || *x = round);
                }
            });
            assert!(data.iter().all(|&x| x == round), "round {round}");
        }
    }

    #[test]
    fn global_pool_is_a_singleton_with_at_least_one_worker() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
