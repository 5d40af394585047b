//! Work-stealing batch executor on scoped OS threads.
//!
//! A batch of `n` items is split round-robin across per-worker deques.
//! Each worker drains the *front* of its own deque (LIFO locality does not
//! matter here — items are independent simulations) and, when empty, steals
//! from the *back* of a victim's deque. Workers exit after a full sweep of
//! every deque finds no work; since batch items are never re-queued, an
//! empty sweep is a stable termination condition.
//!
//! The pool is deliberately `std`-only (no `crossbeam` deques): simulation
//! jobs run for microseconds to seconds, so a mutex per deque is nowhere
//! near the bottleneck, and the workspace builds without registry access.
//!
//! A one-item batch runs on the caller's thread: there is nothing to
//! steal, and on a 2-vCPU VM starting a scoped thread costs about 40 µs,
//! ten times a cache-hit 16×16×16 MatMul job. Every request of a
//! `pim-serve` dispatcher is such a batch. The rule is the item count,
//! not a one-worker pool: batches of two or more keep their scoped
//! workers even at `workers == 1`. Run inline, their allocator churn
//! (polybench host jobs build zero matrices) lands in the caller's main
//! heap, and a caller that keeps long-lived results there slows down:
//! perfbench `sweep` fell from 48.7/48.4/46.9 to 37.6/39.1/37.7 ops/s in
//! three pairs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters describing one batch execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Items each worker executed (indexed by worker id).
    pub per_worker: Vec<u64>,
    /// Items executed from a victim's deque rather than the worker's own.
    pub steals: u64,
}

/// Runs `f(worker_id, item_index, stolen)` for every index in `0..n_items`
/// on `workers` threads with work stealing; `stolen` is true when the item
/// came from a victim's deque rather than the worker's own. Returns
/// per-worker counters.
///
/// A one-item batch calls `f(0, 0, false)` on the calling thread and
/// returns the stats a one-worker pool would (see the module docs).
///
/// `f` must tolerate concurrent invocation from different threads (it is
/// `Sync`); each index is executed exactly once.
pub fn run_indexed<F>(workers: usize, n_items: usize, f: F) -> ExecutorStats
where
    F: Fn(usize, usize, bool) + Sync,
{
    if n_items == 1 {
        f(0, 0, false);
        return ExecutorStats {
            per_worker: vec![1],
            steals: 0,
        };
    }
    let workers = workers.max(1).min(n_items.max(1));
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n_items).step_by(workers).collect()))
        .collect();
    let steals = AtomicU64::new(0);
    let per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let steals = &steals;
            let per_worker = &per_worker;
            let f = &f;
            scope.spawn(move || loop {
                // Own deque first (front), then sweep victims (back).
                let mut item = queues[me].lock().expect("queue lock").pop_front();
                let mut was_stolen = false;
                if item.is_none() {
                    for offset in 1..workers {
                        let victim = (me + offset) % workers;
                        if let Some(stolen) = queues[victim].lock().expect("queue lock").pop_back()
                        {
                            steals.fetch_add(1, Ordering::Relaxed);
                            item = Some(stolen);
                            was_stolen = true;
                            break;
                        }
                    }
                }
                match item {
                    Some(idx) => {
                        f(me, idx, was_stolen);
                        per_worker[me].fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            });
        }
    });

    ExecutorStats {
        per_worker: per_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        steals: steals.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_indexed(4, n, |_w, i, _stolen| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.per_worker.iter().sum::<u64>(), n as u64);
    }

    #[test]
    fn uneven_work_gets_stolen() {
        // Make worker 0's items slow: with round-robin seeding and no
        // stealing it would own a quarter of the items but most of the
        // runtime; stealing shifts its queue to idle workers.
        let n = 64;
        let flagged = AtomicUsize::new(0);
        let stats = run_indexed(4, n, |_w, i, stolen| {
            if stolen {
                flagged.fetch_add(1, Ordering::Relaxed);
            }
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        assert_eq!(stats.per_worker.iter().sum::<u64>(), n as u64);
        assert!(
            stats.steals > 0,
            "idle workers steal the slow worker's backlog"
        );
        assert_eq!(
            flagged.load(Ordering::Relaxed) as u64,
            stats.steals,
            "the per-item stolen flag agrees with the aggregate counter"
        );
    }

    #[test]
    fn single_worker_and_empty_batches_work() {
        let ran = AtomicUsize::new(0);
        let stats = run_indexed(1, 5, |w, _i, _stolen| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(stats.per_worker, vec![5]);

        let stats = run_indexed(8, 0, |_w, _i, _stolen| panic!("no items"));
        assert_eq!(stats.per_worker.iter().sum::<u64>(), 0);
    }

    #[test]
    fn one_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        let stats = run_indexed(4, 1, |w, i, stolen| {
            assert_eq!((w, i, stolen), (0, 0, false));
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
        assert_eq!(
            stats,
            ExecutorStats {
                per_worker: vec![1],
                steals: 0
            }
        );
    }

    #[test]
    fn worker_count_is_clamped_to_items() {
        let stats = run_indexed(16, 3, |_w, _i, _stolen| {});
        assert_eq!(stats.per_worker.len(), 3, "no more workers than items");
    }
}
