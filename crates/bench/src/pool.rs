//! The bench crate's one worker pool: fans independent jobs over scoped
//! threads and merges their results by index.
//!
//! Campaign cells, tenant runs and explore cases all go through
//! [`run_indexed`]. Every job is a pure function of its index, so the
//! merged slot vector is byte-identical for any worker count and any
//! completion order. Only the collector callback sees arrival order,
//! which is why progress streams are excluded from the determinism
//! contract.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use uvm_util::Rng;

use crate::campaign::DEFAULT_SNAPSHOT_EVERY;

/// Worker pool and checkpointing knobs. They are kept apart from the
/// spec of what runs so that changing them can never change a merged
/// result (they are not part of any fingerprint by construction).
#[derive(Debug, Clone, Default)]
pub struct PoolOptions {
    /// Worker threads (0 and 1 both mean one worker).
    pub workers: usize,
    /// Shuffle the dispatch order with this seed. A test hook: exercises
    /// arbitrary completion orders without changing the merged result.
    pub shuffle: Option<u64>,
    /// Auto-snapshot file. `None` disables checkpointing.
    pub snapshot_path: Option<PathBuf>,
    /// Completions between auto-snapshots (0 = [`DEFAULT_SNAPSHOT_EVERY`]).
    pub snapshot_every: usize,
    /// Resume from `snapshot_path` if it exists (fingerprint-checked).
    pub resume: bool,
    /// Dispatch at most this many jobs this invocation — a deterministic
    /// stand-in for a kill (tests, `--limit`). Enforced at dispatch, so
    /// exactly `limit` jobs run when that many are pending.
    pub limit: Option<usize>,
}

impl PoolOptions {
    /// The snapshot file if `executed` completions land on a snapshot
    /// boundary: every `snapshot_every` completions, or every
    /// [`DEFAULT_SNAPSHOT_EVERY`] when `snapshot_every` is 0.
    pub fn snapshot_due(&self, executed: usize) -> Option<&Path> {
        let every = match self.snapshot_every {
            0 => DEFAULT_SNAPSHOT_EVERY,
            n => n,
        };
        self.snapshot_path
            .as_deref()
            .filter(|_| executed.is_multiple_of(every))
    }
}

/// Runs `job(i)` for every index `i` whose slot is still `None`, on
/// `pool.workers` scoped threads, and stores each result in `results[i]`.
///
/// Slots that are already `Some` (a resume pre-fill) are skipped.
/// Workers take indices from one atomic cursor over the pending indices
/// in index order, or in the order [`PoolOptions::shuffle`] gives, cut to
/// [`PoolOptions::limit`]. On the calling thread, after each result is
/// stored, `collect(i, results, executed)` sees the new result and the
/// number of jobs finished so far. If `collect` returns an error, no
/// further job is dispatched, results still queued or running (at most
/// two per worker) are dropped, and the error is returned.
///
/// # Errors
///
/// Returns the first error `collect` returns.
pub fn run_indexed<T: Send, E>(
    results: &mut [Option<T>],
    pool: &PoolOptions,
    job: impl Fn(usize) -> T + Sync,
    mut collect: impl FnMut(usize, &[Option<T>], usize) -> Result<(), E>,
) -> Result<usize, E> {
    let mut order: Vec<usize> = (0..results.len())
        .filter(|&i| results[i].is_none())
        .collect();
    if let Some(seed) = pool.shuffle {
        Rng::seed_from_u64(seed).shuffle(&mut order);
    }
    order.truncate(pool.limit.unwrap_or(usize::MAX));
    let workers = pool.workers.clamp(1, order.len().max(1));
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    thread::scope(|s| {
        // Room for one queued result per worker: workers do not wait on
        // a collector that keeps up, and can never run far ahead of one
        // that has stopped.
        let (tx, rx) = mpsc::sync_channel::<(usize, T)>(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let (cursor, stop, order, job) = (&cursor, &stop, &order, &job);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    if tx.send((i, job(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut executed = 0;
        for (i, out) in rx {
            results[i] = Some(out);
            executed += 1;
            if let Err(e) = collect(i, results, executed) {
                // Dropping the receiver on return makes every in-flight
                // worker's next send fail, so the scope joins promptly.
                stop.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(executed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose result depends only on its index.
    fn square(i: usize) -> u64 {
        (i as u64) * (i as u64) + 7
    }

    fn run_all(pool: &PoolOptions, n: usize) -> (Vec<Option<u64>>, usize) {
        let mut results = vec![None; n];
        let executed = run_indexed(&mut results, pool, square, |_, _, _| Ok::<(), ()>(())).unwrap();
        (results, executed)
    }

    #[test]
    fn merge_is_identical_for_any_worker_count_and_dispatch_order() {
        let (reference, executed) = run_all(&PoolOptions::default(), 40);
        assert_eq!(executed, 40);
        assert!(reference
            .iter()
            .enumerate()
            .all(|(i, s)| *s == Some(square(i))));
        for workers in [1, 2, 8] {
            for shuffle in [None, Some(3), Some(11)] {
                let pool = PoolOptions {
                    workers,
                    shuffle,
                    ..PoolOptions::default()
                };
                let (results, executed) = run_all(&pool, 40);
                assert_eq!(executed, 40);
                assert_eq!(results, reference, "workers {workers}, shuffle {shuffle:?}");
            }
        }
    }

    #[test]
    fn limit_is_exact_for_any_worker_count() {
        for workers in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let mut results = vec![None; 20];
            let pool = PoolOptions {
                workers,
                shuffle: Some(5),
                limit: Some(4),
                ..PoolOptions::default()
            };
            let executed = run_indexed(
                &mut results,
                &pool,
                |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    square(i)
                },
                |_, _, _| Ok::<(), ()>(()),
            )
            .unwrap();
            assert_eq!(executed, 4, "workers {workers}");
            assert_eq!(ran.load(Ordering::Relaxed), 4, "workers {workers}");
            assert_eq!(results.iter().flatten().count(), 4, "workers {workers}");
        }
    }

    #[test]
    fn collector_error_stops_dispatch_and_is_returned() {
        for workers in [1, 2, 8] {
            let ran = AtomicUsize::new(0);
            let mut results = vec![None; 100];
            let pool = PoolOptions {
                workers,
                ..PoolOptions::default()
            };
            let err = run_indexed(
                &mut results,
                &pool,
                |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    square(i)
                },
                |i, _, executed| {
                    if executed == 3 {
                        Err(format!("stream closed at {i}"))
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert!(err.starts_with("stream closed at"), "{err}");
            // Three collected, plus at most one queued and one running
            // job per worker when the stop flag went up.
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran <= 3 + 2 * workers, "workers {workers}: {ran} jobs ran");
        }
    }

    #[test]
    fn prefilled_slots_are_skipped() {
        let mut results: Vec<Option<u64>> = vec![None; 10];
        for i in [0, 3, 4, 9] {
            results[i] = Some(1000 + i as u64);
        }
        let mut seen = Vec::new();
        let pool = PoolOptions {
            workers: 2,
            ..PoolOptions::default()
        };
        let executed = run_indexed(&mut results, &pool, square, |i, _, _| {
            seen.push(i);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(executed, 6);
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 5, 6, 7, 8]);
        for (i, slot) in results.iter().enumerate() {
            let want = if [0, 3, 4, 9].contains(&i) {
                1000 + i as u64
            } else {
                square(i)
            };
            assert_eq!(*slot, Some(want), "slot {i}");
        }
    }
}
