//! Direct tests of the pool's lifetime-erased dispatch: the only `unsafe`
//! in the workspace.

use rfnoc_parallel::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn worker_panic_propagates_out_of_scoped_run() {
    let pool = WorkerPool::new(3);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.scoped_run(&|i| {
            if i == 2 {
                panic!("worker two fails");
            }
        });
    }))
    .expect_err("a spawned worker's panic reaches the caller");
    assert!(panic_message(&*err).contains("shard worker panicked"), "{:?}", panic_message(&*err));
}

#[test]
fn caller_panic_keeps_its_payload() {
    let pool = WorkerPool::new(2);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.scoped_run(&|i| {
            if i == 0 {
                panic!("caller fails");
            }
        });
    }))
    .expect_err("worker 0 runs on the caller and its panic resumes there");
    assert_eq!(panic_message(&*err), "caller fails");
}

#[test]
fn pool_is_reusable_after_a_panic() {
    let pool = WorkerPool::new(2);
    for failing in [1, 0] {
        let failed = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_run(&|i| {
                if i == failing {
                    panic!("worker {i} fails");
                }
            });
        }));
        assert!(failed.is_err());
        let hits = AtomicUsize::new(0);
        pool.scoped_run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2, "after worker {failing} panicked");
    }
}

#[test]
fn stress_dispatches_sum_exactly() {
    const DISPATCHES: u64 = 100_000;
    const WORKERS: usize = 2;
    let pool = WorkerPool::new(WORKERS);
    let sums = [const { AtomicU64::new(0) }; WORKERS];
    let round = AtomicU64::new(0);
    for _ in 0..DISPATCHES {
        // Each worker reads the round the caller published before the
        // dispatch: the start barrier must order that store before the
        // workers' loads, and the end barrier their adds before the next.
        let k = round.load(Ordering::Relaxed);
        pool.scoped_run(&|i| {
            let seen = round.load(Ordering::Relaxed);
            sums[i].fetch_add(seen * WORKERS as u64 + i as u64, Ordering::Relaxed);
        });
        round.store(k + 1, Ordering::Relaxed);
    }
    let n = DISPATCHES;
    for (i, s) in sums.iter().enumerate() {
        let expect = WORKERS as u64 * (n * (n - 1) / 2) + n * i as u64;
        assert_eq!(s.load(Ordering::Relaxed), expect, "worker {i}");
    }
}

static EXITED: AtomicUsize = AtomicUsize::new(0);

struct ExitMark;

impl Drop for ExitMark {
    fn drop(&mut self) {
        EXITED.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static MARK: ExitMark = const { ExitMark };
}

#[test]
fn drop_joins_every_worker() {
    const WORKERS: usize = 4;
    let pool = WorkerPool::new(WORKERS);
    pool.scoped_run(&|i| {
        if i > 0 {
            // Touch the thread-local so its destructor runs at thread exit.
            MARK.with(|_| {});
        }
    });
    assert_eq!(EXITED.load(Ordering::SeqCst), 0, "workers stay parked between jobs");
    drop(pool);
    // `join` returns only after a thread has run its thread-local
    // destructors, so every spawned worker has marked its exit.
    assert_eq!(EXITED.load(Ordering::SeqCst), WORKERS - 1);
}
