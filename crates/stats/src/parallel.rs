//! Seed-stable parallel map on a persistent worker pool.
//!
//! The Monte-Carlo experiments (paper §5: 20 runs per parameter point for
//! Figs. 4/5, 100 × 20 executions for Figs. 6/7) are embarrassingly
//! parallel. This module distributes *indices* over threads; each task
//! derives its own PRNG seed from `(base_seed, index)` via SplitMix64, so
//! the result of an experiment is a pure function of the base seed —
//! independent of thread count, batch size, or scheduling.
//!
//! The threads are one process-wide pool, started on the first call:
//! [`hardware_threads`] − 1 parked workers, plus the calling thread, which
//! always takes part through the same atomic index cursor. On one
//! hardware thread (e.g. under `taskset -c 0`) the pool has no workers
//! and every map is serial. The pool runs one map at a time: a caller
//! that finds it busy — another thread's map, or a job that blocks — runs
//! its own map serially instead of waiting, and so do calls nested inside
//! a map. Every path gives the same results, because every index derives
//! its own seed.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    /// Whether this thread takes part in a `parallel_map`: a pool worker
    /// always, a caller while it runs its share. Nested calls (a parallel
    /// sweep whose cells each run a parallel Monte-Carlo) run serially
    /// instead of oversubscribing the machine with workers² threads — the
    /// outer level already saturates the cores, and per-index seed
    /// derivation keeps results identical either way.
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the caller is already running on a `parallel_map` worker
/// thread. Callers that spawn threads of their own (e.g. the live
/// gossip runtime's node actors) use this to collapse nested
/// parallelism to a single thread instead of oversubscribing the
/// machine with workers² threads.
pub fn in_parallel_worker() -> bool {
    IN_PARALLEL_WORKER.with(Cell::get)
}

/// The machine's width: `available_parallelism` (which honours the CPU
/// affinity mask), read once per process — each read parses cgroup files.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Applies `f(index)` for every `index` in `0..jobs` in parallel and
/// returns the results in index order.
///
/// `f` must be `Sync` (it is shared by reference across workers) and the
/// output `Send`. Work is handed out via an atomic cursor in small batches,
/// which balances uneven per-index costs (e.g. mixed n=1000/n=5000 runs).
///
/// Calls nested inside another `parallel_map`, and calls made while the
/// pool runs another thread's map, run serially on the calling thread;
/// the result is the same either way because every index derives its own
/// seed. A panic in `f` reaches the caller with its payload once every
/// thread has left the map, and the pool stays usable.
pub fn parallel_map<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    Pool::global().map(jobs, f)
}

/// One thread's part in a map: it claims batches from the map's cursor
/// until none are left. It never unwinds; it records the job's panic.
type Share<'a> = dyn Fn() + Sync + 'a;

/// Parked worker threads that help whichever caller publishes a map.
struct Pool {
    state: Mutex<State>,
    /// Signalled once per published helper slot; parked workers wait here.
    wake: Condvar,
    /// Signalled when the last helper leaves a share; the caller waits here.
    idle: Condvar,
    helpers: usize,
}

struct State {
    /// The published map's share: `Some` while a caller owns the pool.
    share: Option<&'static Share<'static>>,
    /// Helper slots published and not yet claimed.
    open: usize,
    /// Helpers inside `share`.
    running: usize,
}

impl Pool {
    /// The process-wide pool, started on first use.
    fn global() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::start(hardware_threads() - 1))
    }

    /// Starts `helpers` parked workers. The pool lives as long as the
    /// process, and so do its workers, which are never joined.
    fn start(helpers: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State {
                share: None,
                open: 0,
                running: 0,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            helpers,
        }));
        for worker in 0..helpers {
            // A worker that fails to spawn only leaves its slots
            // unclaimed: callers retract them and do that work themselves.
            let _ = std::thread::Builder::new()
                .name(format!("parallel-map-{worker}"))
                .spawn(move || pool.work());
        }
        pool
    }

    /// Locks the pool state. No user code runs under this lock and each
    /// update is a single field write, so the state is valid even if a
    /// panic ever poisoned it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: claim a published slot, run that share, repeat.
    fn work(&self) {
        IN_PARALLEL_WORKER.with(|flag| flag.set(true));
        let mut state = self.lock();
        loop {
            state = self
                .wake
                .wait_while(state, |state| state.open == 0)
                .unwrap_or_else(PoisonError::into_inner);
            state.open -= 1;
            state.running += 1;
            let share = state.share.expect("open slots belong to a published share");
            drop(state);
            share();
            state = self.lock();
            state.running -= 1;
            if state.running == 0 {
                self.idle.notify_one();
            }
        }
    }

    fn map<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let participants = (self.helpers + 1).min(jobs);
        if participants <= 1 || in_parallel_worker() {
            return (0..jobs).map(f).collect();
        }
        // The cursor only hands out indices (`Relaxed`): results travel
        // under `done`'s lock and the pool's.
        let cursor = AtomicUsize::new(0);
        // Batch size: enough to amortize the atomic, small enough to balance.
        let batch = (jobs / (participants * 8)).max(1);
        let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let share = || {
            let claimed = panic::catch_unwind(AssertUnwindSafe(|| loop {
                let start = cursor.fetch_add(batch, Ordering::Relaxed);
                if start >= jobs {
                    break;
                }
                let values = (start..(start + batch).min(jobs)).map(&f).collect();
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((start, values));
            }));
            if let Err(payload) = claimed {
                // Hand out no further batches; keep the first payload.
                cursor.store(jobs, Ordering::Relaxed);
                panicked
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
        };
        // SAFETY: the erased lifetime is never outlived. Workers reach
        // `share` only through a slot claimed while it is published, and
        // `Published::drop` — which runs on every exit from this function,
        // unwinding included, before `share` and everything it borrows
        // (declared earlier) are dropped — retracts the unclaimed slots
        // and then waits until every helper that claimed one has left
        // `share`. So no worker touches the closure after `map` returns.
        let erased = unsafe { std::mem::transmute::<&Share<'_>, &'static Share<'static>>(&share) };
        let Some(published) = self.publish(erased, participants - 1) else {
            // Another map owns the pool: run serially, and count as inside
            // a map so calls nested in `f` stay serial even if the pool
            // frees up meanwhile.
            let _participating = Participating::enter();
            return (0..jobs).map(&f).collect();
        };
        {
            let _participating = Participating::enter();
            share();
        }
        drop(published);

        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        done.sort_unstable_by_key(|&(start, _)| start);
        let mut results = Vec::with_capacity(jobs);
        for (_, values) in done {
            results.extend(values);
        }
        assert_eq!(results.len(), jobs, "every index is mapped exactly once");
        results
    }

    /// Publishes `share` with `helpers` slots and wakes that many workers,
    /// unless another map owns the pool.
    fn publish(&self, share: &'static Share<'static>, helpers: usize) -> Option<Published<'_>> {
        let mut state = self.lock();
        if state.share.is_some() {
            return None;
        }
        state.share = Some(share);
        state.open = helpers;
        drop(state);
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        Some(Published(self))
    }
}

/// Marks the calling thread as taking part in a map until dropped, on
/// unwinding too.
struct Participating;

impl Participating {
    fn enter() -> Self {
        IN_PARALLEL_WORKER.with(|flag| flag.set(true));
        Participating
    }
}

impl Drop for Participating {
    fn drop(&mut self) {
        IN_PARALLEL_WORKER.with(|flag| flag.set(false));
    }
}

/// The caller's ownership of the pool. Dropping it retracts the slots no
/// helper has claimed and waits only for the helpers already inside the
/// share, so a slow wake-up costs nothing: the caller did that work.
struct Published<'p>(&'p Pool);

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        let mut state = pool.lock();
        state.open = 0;
        state = pool
            .idle
            .wait_while(state, |state| state.running > 0)
            .unwrap_or_else(PoisonError::into_inner);
        state.share = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SplitMix64, Xoshiro256StarStar};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The process-wide pool, and a private one with three helpers: more
    /// threads than cores, so its workers share a core with the caller
    /// even on a one-core machine, where the process-wide pool has none.
    fn pools() -> [&'static Pool; 2] {
        [Pool::global(), Pool::start(3)]
    }

    #[test]
    fn map_preserves_order() {
        let out = parallel_map(1000, |i| i * i);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn empty_and_single_job() {
        let empty: Vec<u32> = parallel_map(0, |_| 1u32);
        assert!(empty.is_empty());
        let one = parallel_map(1, |i| i + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn seeded_work_is_deterministic() {
        let base = 0xDEAD_BEEF;
        let run = || {
            parallel_map(64, |i| {
                let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(base, i as u64));
                (0..100).map(|_| rng.next_f64()).sum::<f64>()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same base seed must give identical results");
    }

    #[test]
    fn a_map_that_finds_the_pool_busy_counts_as_nested() {
        // A caller that finds the pool owned by another map runs its own
        // map serially; its jobs must count as inside a map, or a call
        // nested in them could publish on the pool once it frees up.
        let pool = Pool::start(3);
        let owned = std::sync::Barrier::new(2);
        let release = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.map(2, |i| {
                    if i == 0 {
                        owned.wait();
                        release.wait();
                    }
                })
            });
            owned.wait();
            let nested = pool.map(4, |_| in_parallel_worker());
            release.wait();
            assert_eq!(nested, vec![true; 4]);
        });
        assert!(!in_parallel_worker(), "the mark ends with the map");
    }

    #[test]
    fn nested_calls_run_serially_with_identical_results() {
        // A parallel map whose jobs call parallel_map again: the inner
        // calls must stay on the outer worker's thread (no worker pool
        // squared), and results must match the serial computation.
        let nested = parallel_map(8, |i| {
            let outer_thread = std::thread::current().id();
            let inner = parallel_map(8, move |j| {
                assert_eq!(
                    std::thread::current().id(),
                    outer_thread,
                    "nested parallel_map must not spawn workers"
                );
                (i * 8 + j) as u64
            });
            inner.iter().sum::<u64>()
        });
        let serial: Vec<u64> = (0..8)
            .map(|i| (0..8).map(|j| (i * 8 + j) as u64).sum())
            .collect();
        assert_eq!(nested, serial);
    }

    #[test]
    fn uneven_workload_completes() {
        // Mix trivial and heavier jobs to exercise the batching cursor.
        let out = parallel_map(37, |i| {
            if i % 5 == 0 {
                (0..10_000).map(|k| (k ^ i) as u64).sum::<u64>()
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 37);
    }

    #[test]
    fn a_panic_reaches_the_caller_and_the_pool_recovers() {
        for pool in pools() {
            let caught = panic::catch_unwind(|| {
                pool.map(16, |i| {
                    if i == 5 {
                        panic!("boom {i}");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the job's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("boom 5")
            );
            let squares: Vec<usize> = (0..1000).map(|i| i * i).collect();
            assert_eq!(pool.map(1000, |i| i * i), squares);
            assert!(!in_parallel_worker(), "the caller's flag is restored");
        }
    }

    #[test]
    fn concurrent_callers_match_the_serial_map() {
        for pool in pools() {
            std::thread::scope(|scope| {
                for caller in 0..4 {
                    scope.spawn(move || {
                        for call in 0..50 {
                            let jobs = 10 + call;
                            let serial: Vec<usize> = (0..jobs).map(|i| i * caller + call).collect();
                            assert_eq!(pool.map(jobs, |i| i * caller + call), serial);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn a_held_job_does_not_stall_another_threads_map() {
        let timeout = Duration::from_secs(10);
        let squares: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for pool in pools() {
            let (held_tx, held_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            std::thread::scope(|scope| {
                let holder = scope.spawn(|| {
                    pool.map(2, |i| {
                        if i == 0 {
                            held_tx.send(()).expect("the test is listening");
                            let release = release_rx.lock().expect("one holder");
                            release.recv().expect("the test releases the job");
                        }
                        i
                    })
                });
                held_rx.recv_timeout(timeout).expect("the held job started");
                let (done_tx, done_rx) = mpsc::channel();
                scope.spawn(move || done_tx.send(pool.map(1000, |i| i * i)));
                let other = done_rx.recv_timeout(timeout);
                // Release before asserting, so a failure cannot hang the scope.
                release_tx.send(()).expect("the holder is waiting");
                assert_eq!(other.expect("a held job stalled another map"), squares);
                assert_eq!(holder.join().expect("the holder finishes"), vec![0, 1]);
            });
        }
    }
}
