//! Seed-stable parallel map on OS threads.
//!
//! The Monte-Carlo experiments (paper §5: 20 runs per parameter point for
//! Figs. 4/5, 100 × 20 executions for Figs. 6/7) are embarrassingly
//! parallel. This module distributes *indices* over `crossbeam::scope`
//! threads; each task derives its own PRNG seed from `(base_seed, index)`
//! via SplitMix64, so the result of an experiment is a pure function of the
//! base seed — independent of thread count, chunk size, or scheduling.
//!
//! Per the HPC guides, we stay on std threads + crossbeam (no extra
//! dependencies) and split work into contiguous chunks to keep per-thread
//! state local.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Whether this thread is already a `parallel_map` worker. Nested
    /// calls (a parallel sweep whose cells each run a parallel
    /// Monte-Carlo) run serially instead of oversubscribing the machine
    /// with workers² threads — the outer level already saturates the
    /// cores, and per-index seed derivation keeps results identical
    /// either way.
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

/// Number of worker threads to use: `available_parallelism`, capped by the
/// job count so tiny jobs don't spawn idle threads.
fn worker_count(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(jobs).max(1)
}

/// Applies `f(index)` for every `index` in `0..jobs` in parallel and
/// returns the results in index order.
///
/// `f` must be `Sync` (it is shared by reference across workers) and the
/// output `Send`. Work is handed out via an atomic cursor in small batches,
/// which balances uneven per-index costs (e.g. mixed n=1000/n=5000 runs).
///
/// Calls nested inside another `parallel_map` (on a worker thread) run
/// serially; the result is the same either way because every index
/// derives its own seed.
pub fn parallel_map<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = worker_count(jobs);
    if workers == 1 || IN_PARALLEL_WORKER.with(Cell::get) {
        return (0..jobs).map(f).collect();
    }

    let mut results: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let cursor = AtomicUsize::new(0);
    // Batch size: enough to amortize the atomic, small enough to balance.
    let batch = (jobs / (workers * 8)).max(1);
    let results_ptr = SendPtr(results.as_mut_ptr());

    crossbeam::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            #[allow(clippy::redundant_locals)]
            let results_ptr = results_ptr;
            scope.spawn(move |_| {
                // Force whole-struct capture: edition-2021 disjoint capture
                // would otherwise move only the (non-Send) pointer field.
                #[allow(clippy::redundant_locals)]
                let results_ptr = &results_ptr;
                IN_PARALLEL_WORKER.with(|flag| flag.set(true));
                loop {
                    let start = cursor.fetch_add(batch, Ordering::Relaxed);
                    if start >= jobs {
                        break;
                    }
                    let end = (start + batch).min(jobs);
                    for i in start..end {
                        let value = f(i);
                        // SAFETY: each index i in 0..jobs is claimed by
                        // exactly one worker (the atomic cursor hands out
                        // disjoint ranges), so this write is exclusive, and
                        // `results` outlives the scope.
                        unsafe {
                            results_ptr.0.add(i).write(Some(value));
                        }
                    }
                }
            });
        }
    })
    .expect("parallel_map worker panicked");

    results
        .into_iter()
        .map(|slot| slot.expect("every index written exactly once"))
        .collect()
}

/// Raw-pointer wrapper that asserts cross-thread transferability.
///
/// Safe usage is established in [`parallel_map`]: workers write disjoint
/// indices only.
struct SendPtr<T>(*mut T);
// Manual impls: derive would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SplitMix64, Xoshiro256StarStar};

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
}
