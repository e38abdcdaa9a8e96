//! Shared worker pools for the parallel drivers: the thread-count policy
//! and the one batch executor.
//!
//! The suite/bench driver, the fleet generator and driver, and the
//! `canvas serve` dispatcher size their worker pools from
//! `CANVAS_EVAL_THREADS`. The variable is parsed **once** per process (so a
//! bad value warns once, not once per table), and every caller clamps the
//! shared answer to its own job count.
//!
//! [`run_batch`] runs a fixed set of indexed items on such a pool: the
//! precision table, corpus generation and the fleet driver all claim their
//! work through it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Worker count for a parallel driver with `jobs` independent jobs:
/// `CANVAS_EVAL_THREADS` when set (use `1` to force the sequential order),
/// else the machine's parallelism, clamped to `[1, jobs]`. Unusable values
/// (`0`, non-numeric) fall back to the default with a warning instead of
/// being silently ignored; the warning fires at most once per process.
pub fn worker_count(jobs: usize) -> usize {
    static PARSED: OnceLock<usize> = OnceLock::new();
    let n = *PARSED.get_or_init(|| parse_env(std::env::var("CANVAS_EVAL_THREADS").ok().as_deref()));
    clamp(n, jobs)
}

/// The parse-with-warning policy behind [`worker_count`], testable without
/// touching the process environment.
pub fn worker_count_from(raw: Option<&str>, jobs: usize) -> usize {
    clamp(parse_env(raw), jobs)
}

fn clamp(n: usize, jobs: usize) -> usize {
    n.min(jobs).max(1)
}

fn parse_env(raw: Option<&str>) -> usize {
    let default = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match raw {
        None => default(),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                let d = default();
                canvas_telemetry::events::warn(
                    "suite.threads",
                    format!(
                        "CANVAS_EVAL_THREADS={v:?} is not a positive integer; \
                         using the default of {d} worker(s)"
                    ),
                );
                d
            }
        },
    }
}

/// One finished item of a [`run_batch`].
#[derive(Debug)]
pub struct Done<T> {
    /// The worker that ran the item.
    pub worker: usize,
    /// The item's wall time, a panic's unwinding included.
    pub elapsed: Duration,
    /// The item's value, or the message of the panic it raised.
    pub result: Result<T, String>,
}

/// What one worker of a [`run_batch`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items the worker finished: its own partition plus stolen ones.
    pub processed: u64,
    /// Of those, items claimed from other workers' partitions.
    pub stolen: u64,
    /// Whether the worker died (its in-flight item is lost).
    pub died: bool,
}

/// The outcome of a [`run_batch`].
#[derive(Debug)]
pub struct Batch<T> {
    /// One entry per index, in index order; `None` marks the item a dead
    /// worker was running.
    pub items: Vec<Option<Done<T>>>,
    /// One entry per worker, in worker order.
    pub workers: Vec<WorkerStats>,
}

/// Panic payload that kills the worker instead of failing only its item:
/// the per-item guard re-raises it to the worker guard. Raise it with
/// `std::panic::resume_unwind(Box::new(WorkerDeath))`, which also skips
/// the panic hook; it models a worker thread crashing mid-item.
#[derive(Debug)]
pub struct WorkerDeath;

/// Runs items `0..n` on `workers` scoped threads (clamped to `[1, n]`).
///
/// The indices are split into contiguous partitions, one per worker. Each
/// worker builds its state with `init(worker)`, drains its own partition,
/// then steals from the other partitions in ring order, so every index is
/// claimed exactly once. Each item runs `run(&mut state, index)` under its
/// own `catch_unwind`: a panic becomes that index's error message and the
/// worker carries on. Each worker runs under a `catch_unwind` too, so a
/// worker that dies (a panic in `init`, or a [`WorkerDeath`]) loses only
/// the item it was running, and the others finish its partition.
pub fn run_batch<S, T>(
    n: usize,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    run: impl Fn(&mut S, usize) -> T + Sync,
) -> Batch<T>
where
    T: Send,
{
    let workers = clamp(workers, n);
    let ends: Vec<usize> = (1..=workers).map(|w| w * n / workers).collect();
    // claims are Relaxed: a cursor publishes no data, and the results
    // come back through the thread joins
    let cursors: Vec<AtomicUsize> =
        (0..workers).map(|w| AtomicUsize::new(w * n / workers)).collect();
    let work = |w: usize| {
        let mut stats = WorkerStats::default();
        let mut done = Vec::new();
        let survived = catch_unwind(AssertUnwindSafe(|| {
            let mut state = init(w);
            while let Some((index, stolen)) = claim(&cursors, &ends, w) {
                let started = Instant::now();
                let result =
                    catch_unwind(AssertUnwindSafe(|| run(&mut state, index))).map_err(|payload| {
                        if payload.is::<WorkerDeath>() {
                            resume_unwind(payload);
                        }
                        canvas_core::panic_message(payload.as_ref())
                    });
                done.push((index, Done { worker: w, elapsed: started.elapsed(), result }));
                stats.processed += 1;
                stats.stolen += u64::from(stolen);
            }
        }));
        stats.died = survived.is_err();
        (stats, done)
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let mut items: Vec<Option<Done<T>>> = (0..n).map(|_| None).collect();
    let workers = joined
        .into_iter()
        .map(|(stats, done)| {
            for (index, d) in done {
                items[index] = Some(d);
            }
            stats
        })
        .collect();
    Batch { items, workers }
}

/// Claims the next unclaimed index for worker `me`: its own partition
/// first, then the others' in ring order. Returns `(index, stolen)`.
fn claim(cursors: &[AtomicUsize], ends: &[usize], me: usize) -> Option<(usize, bool)> {
    let n = cursors.len();
    (0..n).find_map(|k| {
        let p = (me + k) % n;
        let index = cursors[p].fetch_add(1, Ordering::Relaxed);
        (index < ends[p]).then_some((index, k != 0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_fallbacks() {
        // unset: machine default, clamped to the job count
        assert_eq!(worker_count_from(None, 1), 1);
        assert!(worker_count_from(None, 1000) >= 1);
        // explicit positive values are honoured (clamped to jobs)
        assert_eq!(worker_count_from(Some("3"), 100), 3);
        assert_eq!(worker_count_from(Some(" 2 "), 100), 2);
        assert_eq!(worker_count_from(Some("64"), 4), 4);
        // zero and garbage fall back to the default instead of wedging
        let default = worker_count_from(None, 1000);
        assert_eq!(worker_count_from(Some("0"), 1000), default);
        assert_eq!(worker_count_from(Some("lots"), 1000), default);
        assert_eq!(worker_count_from(Some(""), 1000), default);
        assert_eq!(worker_count_from(Some("-2"), 1000), default);
    }

    #[test]
    fn worker_count_is_parsed_once_and_clamped_per_call() {
        let a = worker_count(1);
        assert_eq!(a, 1, "clamped to a single job");
        assert!(worker_count(1_000) >= a);
    }

    /// The partition `[start, end)` worker `w` of `workers` owns.
    fn partition(n: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
        w * n / workers..(w + 1) * n / workers
    }

    /// Asserts each worker's counts against the items it ran: `processed`
    /// is all of them, `stolen` those outside its own partition.
    fn assert_counts_match_partitions<T>(batch: &Batch<T>) {
        let (n, workers) = (batch.items.len(), batch.workers.len());
        for (w, stats) in batch.workers.iter().enumerate() {
            let ran: Vec<usize> = (0..n)
                .filter(|&i| batch.items[i].as_ref().is_some_and(|d| d.worker == w))
                .collect();
            let own = partition(n, workers, w);
            let stolen = ran.iter().filter(|i| !own.contains(i)).count();
            assert_eq!(stats.processed, ran.len() as u64, "worker {w} of {workers}, n = {n}");
            assert_eq!(stats.stolen, stolen as u64, "worker {w} of {workers}, n = {n}");
        }
    }

    #[test]
    fn every_index_runs_once_in_index_order() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 5, 37] {
                let batch = run_batch(n, workers, |_| (), |(), i| i * 10);
                let clamped = workers.min(n).max(1);
                assert_eq!(batch.items.len(), n);
                assert_eq!(batch.workers.len(), clamped, "{workers} workers, n = {n}");
                for (i, done) in batch.items.iter().enumerate() {
                    let done = done.as_ref().expect("no worker died");
                    assert_eq!(done.result, Ok(i * 10), "index {i}");
                }
                assert!(batch.workers.iter().all(|s| !s.died));
                assert_counts_match_partitions(&batch);
            }
        }
    }

    #[test]
    fn a_panicking_item_fails_alone() {
        let batch = run_batch(
            9,
            3,
            |_| (),
            |(), i| {
                if i == 4 {
                    panic!("item {i} exploded");
                }
                i
            },
        );
        for (i, done) in batch.items.iter().enumerate() {
            let result = &done.as_ref().expect("no worker died").result;
            if i == 4 {
                assert_eq!(result, &Err("item 4 exploded".to_string()));
            } else {
                assert_eq!(result, &Ok(i));
            }
        }
        assert!(batch.workers.iter().all(|s| !s.died), "the worker survives its item");
        assert_eq!(batch.workers.iter().map(|s| s.processed).sum::<u64>(), 9);
    }

    #[test]
    fn a_dead_worker_loses_only_its_in_flight_item() {
        let (n, workers) = (30usize, 3usize);
        // worker 0 finishes index 0, then dies on index 1; the others wait
        // at the barrier until it has claimed that index, so the schedule
        // is fixed
        let claimed = std::sync::Barrier::new(workers);
        let batch = run_batch(
            n,
            workers,
            |w| {
                if w != 0 {
                    claimed.wait();
                }
                (w, 0u32)
            },
            |(w, completed), i| {
                if *w == 0 && *completed == 1 {
                    claimed.wait();
                    resume_unwind(Box::new(WorkerDeath));
                }
                *completed += 1;
                i
            },
        );
        let lost: Vec<usize> = (0..n).filter(|&i| batch.items[i].is_none()).collect();
        assert_eq!(lost, vec![1], "only the in-flight item is lost");
        for (i, done) in batch.items.iter().enumerate().filter(|(i, _)| *i != 1) {
            assert_eq!(done.as_ref().map(|d| &d.result), Some(&Ok(i)));
        }
        assert_eq!(batch.workers[0], WorkerStats { processed: 1, stolen: 0, died: true });
        // the survivors finished the rest of worker 0's partition by stealing
        for i in partition(n, workers, 0).skip(2) {
            assert_ne!(batch.items[i].as_ref().map(|d| d.worker), Some(0), "index {i}");
        }
        assert_counts_match_partitions(&batch);
    }

    #[test]
    fn a_worker_whose_init_panics_loses_nothing() {
        let batch = run_batch(
            12,
            3,
            |w| {
                if w == 1 {
                    resume_unwind(Box::new("worker 1 failed to start"));
                }
            },
            |(), i| i,
        );
        assert!(batch.workers[1].died);
        assert_eq!(batch.workers[1].processed, 0);
        assert!(batch.items.iter().all(|d| d.as_ref().is_some_and(|d| d.result.is_ok())));
    }
}
