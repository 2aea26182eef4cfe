//! Stress tests for the worker pool's scope discipline.
//!
//! `chaff_core::pool` erases each spawned job's lifetime so persistent
//! workers can hold it; the erasure is sound only if `scope` never
//! returns — normally or by unwinding — before every job it spawned has
//! finished. These tests hammer that contract in loops, on private
//! pools of one to three workers and on the shared global pool (which
//! the parallel test runner also drives from several test threads at
//! once):
//!
//! - nested scopes, including nested panics;
//! - a panic at every subset of spawn positions for one to eight jobs:
//!   the lowest panicking index's payload wins, and every job still ran;
//! - a panic in the scope body after spawning (alone, and together with
//!   panicking jobs): the drop guard waits for every job, and borrowed
//!   data holds every job's write once the panic is caught;
//! - a waiter that helps while it unwinds: a job it runs must still see
//!   the panics of the scopes that job opens.

use chaff_core::pool::{global, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

/// Every deliberate panic payload starts with this, so the quiet hook
/// can tell them from real failures.
const TAG: &str = "pool-stress:";

/// Silences the default hook for this file's deliberate panics only.
fn quiet_deliberate_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let deliberate = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with(TAG));
            if !deliberate {
                default(info);
            }
        }));
    });
}

/// The panic message of a caught payload.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string payload>".into())
}

/// The pools every scenario runs on: private pools of one to three
/// workers, then the shared global pool.
fn pools() -> Vec<WorkerPool> {
    (1..=3).map(WorkerPool::new).collect()
}

/// Spins for a few microseconds, longer for later jobs, so jobs finish
/// out of spawn order.
fn jitter(index: usize) {
    for _ in 0..(index * 7) % 5 {
        std::thread::yield_now();
    }
}

/// Sets its flag when dropped: a body local that marks the body's
/// unwind.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs one scope of `jobs` jobs on `pool`; job `i` records that it ran
/// and then panics when bit `i` of `mask` is set. Asserts that every job
/// ran and that the lowest panicking job's payload is the one raised.
fn panic_at_mask(pool: &WorkerPool, jobs: usize, mask: u32) {
    let mut ran = vec![0usize; jobs];
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|scope| {
            for (i, flag) in ran.iter_mut().enumerate() {
                scope.spawn(move || {
                    jitter(i);
                    *flag += 1;
                    if mask & (1 << i) != 0 {
                        panic!("{TAG} job {i}");
                    }
                });
            }
        });
    }));
    assert!(
        ran.iter().all(|&count| count == 1),
        "jobs = {jobs}, mask = {mask:#b}: every job runs exactly once, got {ran:?}"
    );
    match (caught, mask) {
        (Ok(()), 0) => {}
        (Err(payload), mask) if mask != 0 => assert_eq!(
            message(payload.as_ref()),
            format!("{TAG} job {}", mask.trailing_zeros()),
            "jobs = {jobs}, mask = {mask:#b}"
        ),
        (result, mask) => panic!(
            "jobs = {jobs}, mask = {mask:#b}: scope returned {:?}",
            result.map_err(|payload| message(payload.as_ref()))
        ),
    }
}

#[test]
fn the_lowest_panicking_spawn_index_wins_and_every_job_runs() {
    quiet_deliberate_panics();
    let private = pools();
    for round in 0..4 {
        for pool in private.iter().chain([global()]) {
            for jobs in 1..=8 {
                for mask in 0..1u32 << jobs {
                    // Every subset on the first round; afterwards the
                    // single-panic and all-panic masks, many times over.
                    if round == 0 || mask.count_ones() <= 1 || mask == (1 << jobs) - 1 {
                        panic_at_mask(pool, jobs, mask);
                    }
                }
            }
        }
    }
}

#[test]
fn a_panicking_scope_body_still_waits_for_every_job() {
    quiet_deliberate_panics();
    for pool in pools().iter().chain([global()]) {
        for jobs in 1..=8 {
            let mut written = vec![0usize; jobs];
            let finished = AtomicUsize::new(0);
            let unwinding = AtomicBool::new(false);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|scope| {
                    for (i, slot) in written.iter_mut().enumerate() {
                        let (finished, unwinding) = (&finished, &unwinding);
                        scope.spawn(move || {
                            // No job finishes before the body unwinds.
                            while !unwinding.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            *slot = i + 1;
                            finished.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    let _signal = SetOnDrop(&unwinding);
                    panic!("{TAG} body after {jobs} spawns");
                });
            }))
            .expect_err("the body panicked");
            assert_eq!(
                message(caught.as_ref()),
                format!("{TAG} body after {jobs} spawns")
            );
            // The guard waited: every borrowed write landed before the
            // unwind left `scope`.
            assert_eq!(finished.load(Ordering::SeqCst), jobs);
            let expected: Vec<usize> = (1..=jobs).collect();
            assert_eq!(written, expected);
        }
    }
}

#[test]
fn a_body_panic_outranks_job_panics_and_still_waits() {
    quiet_deliberate_panics();
    for pool in pools().iter().chain([global()]) {
        for jobs in 1..=8 {
            let mut ran = vec![false; jobs];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|scope| {
                    for (i, flag) in ran.iter_mut().enumerate() {
                        scope.spawn(move || {
                            jitter(i);
                            *flag = true;
                            panic!("{TAG} job {i}");
                        });
                    }
                    panic!("{TAG} body");
                });
            }))
            .expect_err("the body panicked");
            // The body's own unwind is what escapes; the job payloads are
            // dropped while the guard waits.
            assert_eq!(message(caught.as_ref()), format!("{TAG} body"));
            assert!(ran.iter().all(|&r| r), "jobs = {jobs}: {ran:?}");
        }
    }
}

/// A waiter whose scope body is unwinding helps by running queued jobs.
/// A scope opened inside such a job must still re-raise its own job
/// panics: the thread is unwinding, but that scope's body is not.
#[test]
fn a_job_run_by_an_unwinding_waiter_still_sees_nested_panics() {
    quiet_deliberate_panics();
    let pool = WorkerPool::new(1);
    for round in 0..20 {
        let started = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let nested_raised = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                // Occupy the only worker until the victim job has run.
                scope.spawn(|| {
                    started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
                while !started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Only this thread, unwinding below, is free to run it.
                scope.spawn(|| {
                    let nested = catch_unwind(AssertUnwindSafe(|| {
                        pool.scope(|inner| inner.spawn(|| panic!("{TAG} nested")));
                    }));
                    let raised = nested
                        .is_err_and(|payload| message(payload.as_ref()) == format!("{TAG} nested"));
                    nested_raised.store(raised, Ordering::SeqCst);
                    release.store(true, Ordering::SeqCst);
                });
                panic!("{TAG} body");
            });
        }))
        .expect_err("the body panicked");
        assert_eq!(message(caught.as_ref()), format!("{TAG} body"));
        assert!(
            nested_raised.load(Ordering::SeqCst),
            "round {round}: the nested scope swallowed its job's panic"
        );
    }
}

#[test]
fn nested_scopes_complete_and_propagate_inner_panics() {
    quiet_deliberate_panics();
    for round in 0..20 {
        for pool in pools().iter().chain([global()]) {
            // Three levels deep, every level borrowing its parent's slot.
            let mut outer = vec![0usize; 4];
            pool.scope(|scope| {
                for (i, out) in outer.iter_mut().enumerate() {
                    scope.spawn(move || {
                        let mut middle = [0usize; 3];
                        pool.scope(|scope| {
                            for (j, mid) in middle.iter_mut().enumerate() {
                                scope.spawn(move || {
                                    let mut inner = [0usize; 2];
                                    pool.scope(|scope| {
                                        for (k, x) in inner.iter_mut().enumerate() {
                                            scope.spawn(move || *x = k + 1);
                                        }
                                    });
                                    *mid = j + inner.iter().sum::<usize>();
                                });
                            }
                        });
                        *out = i + middle.iter().sum::<usize>();
                    });
                }
            });
            // middle = [3, 4, 5] sums to 12 under every outer job.
            assert_eq!(outer, vec![12, 13, 14, 15], "round {round}");

            // An inner job's panic surfaces through its outer job; the
            // lowest panicking outer job wins, and every outer job ran.
            let panicking = round % 4;
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|scope| {
                    for i in 0..4 {
                        let ran = &ran;
                        scope.spawn(move || {
                            pool.scope(|scope| {
                                for k in 0..2 {
                                    scope.spawn(move || {
                                        if i >= panicking && k == 1 {
                                            panic!("{TAG} inner {i}.{k}");
                                        }
                                    });
                                }
                            });
                            ran.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }))
            .expect_err("an inner job panicked");
            assert_eq!(
                message(caught.as_ref()),
                format!("{TAG} inner {panicking}.1"),
                "round {round}"
            );
            // Outer jobs below the first panicking one finish normally.
            assert_eq!(ran.load(Ordering::SeqCst), panicking, "round {round}");
        }
    }
}

#[test]
fn a_pool_survives_panicking_scopes_and_keeps_serving() {
    quiet_deliberate_panics();
    let pool = WorkerPool::new(2);
    for round in 0..200 {
        if round % 3 == 0 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|scope| {
                    scope.spawn(move || panic!("{TAG} round {round}"));
                });
            }));
            assert!(caught.is_err());
        }
        let mut data = [0usize; 6];
        pool.scope(|scope| {
            for (i, x) in data.iter_mut().enumerate() {
                scope.spawn(move || *x = round + i);
            }
        });
        let expected: Vec<usize> = (round..round + 6).collect();
        assert_eq!(data.to_vec(), expected, "round {round}");
    }
}
