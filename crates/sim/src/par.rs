//! Deterministic fork–join parallelism for embarrassingly parallel
//! experiment grids.
//!
//! The experiment runner executes many independent (platform, workload)
//! simulations; each one is seeded and self-contained, so they can run on
//! different OS threads without any effect on the simulated results. This
//! module provides the one primitive that needs: [`parallel_map`], an
//! order-preserving map over a slice using scoped threads. It exists in-tree
//! because the build environment has no crates-registry access (`rayon` would
//! otherwise be the natural choice); the API is deliberately tiny so a later
//! swap to `rayon` is a one-line change at each call site.
//!
//! # Determinism
//!
//! `parallel_map(items, f)` returns exactly `items.iter().map(f).collect()`
//! — same values, same order — as long as `f` is a pure function of its
//! argument. Work is claimed from an atomic counter, so thread scheduling
//! affects only which thread computes which element, never the result.
//!
//! # Example
//!
//! ```
//! let squares = hams_sim::par::parallel_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Upper bound on worker threads, honouring the `HAMS_THREADS` environment
/// variable (0 or unset = one worker per available core).
#[must_use]
pub fn max_workers() -> usize {
    let from_env = std::env::var("HAMS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    if from_env > 0 {
        return from_env;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads one simulation cell may use for intra-cell
/// (per-bank) work, honouring the `HAMS_CELL_THREADS` environment variable.
///
/// Unset or `0` means **1**: intra-cell parallelism is opt-in, unlike the
/// cross-cell grid where every core is fair game by default. A grid of
/// cells already saturates the machine through [`parallel_map`]; cell
/// threads multiply on top of grid threads, so the conservative default
/// keeps `grid × cell` from oversubscribing unless the user asks for it.
#[must_use]
pub fn cell_workers() -> usize {
    std::env::var("HAMS_CELL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Runs `f` once per partition on a pool of scoped threads, giving each
/// invocation exclusive mutable access to its partition, and returns the
/// per-partition results in partition order.
///
/// This is the intra-cell sibling of [`parallel_map`]: where `parallel_map`
/// spreads independent *cells* (whole simulations) across the machine, this
/// spreads the independent *banks inside one cell* (disjoint `&mut`
/// partitions of its state) across at most `workers` threads — `0` resolves
/// to the [`cell_workers`] / `HAMS_CELL_THREADS` default. With one effective
/// worker the map runs inline on the caller's thread, spawning nothing.
///
/// Partitions are assigned to workers in contiguous runs (no work stealing):
/// results are deterministic for any pure-per-partition `f` regardless of
/// scheduling, and panics in `f` propagate to the caller with their own
/// payload.
pub fn scoped_partition_map<T, R, F>(parts: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = parts.len();
    let workers = if workers == 0 {
        cell_workers()
    } else {
        workers
    }
    .min(n);
    if workers <= 1 {
        return parts.iter_mut().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, run)| {
                let f = &f;
                scope.spawn(move || {
                    run.iter_mut()
                        .enumerate()
                        .map(|(j, p)| f(ci * chunk + j, p))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(results) => out.extend(results),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Maps `f` over `items` on a pool of scoped threads, preserving input
/// order in the output.
///
/// Equivalent to `items.iter().map(f).collect()` for any `f` that is a pure
/// function of its argument (see the module docs on determinism). Panics in
/// `f` propagate to the caller once all workers have stopped.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = max_workers().min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let out: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, f(&items[i]))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        // Join explicitly so a worker's panic resurfaces with its own
        // payload; the scope's implicit join would replace it with a generic
        // "a scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        out
    });
    // A hole is only possible when a worker panicked mid-item, and that
    // panic has already been re-raised above, so the expect never fires.
    out.into_iter()
        .map(|slot| slot.expect("worker delivered every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_in_value_and_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        let parallel = parallel_map(&items, |x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn repeated_runs_are_identical() {
        let items: Vec<u64> = (0..64).collect();
        let a = parallel_map(&items, |x| x * x);
        let b = parallel_map(&items, |x| x * x);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_their_own_message() {
        let items: Vec<u64> = (0..16).collect();
        let _ = parallel_map(&items, |x| {
            assert!(*x != 9, "boom");
            *x
        });
    }

    #[test]
    fn max_workers_is_positive() {
        assert!(max_workers() >= 1);
    }

    #[test]
    fn partition_map_matches_serial_at_every_worker_count() {
        let reference: Vec<u64> = (0..37u64).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let mut parts: Vec<u64> = (0..37).collect();
            let out = scoped_partition_map(&mut parts, workers, |i, p| {
                *p = p.wrapping_mul(*p);
                *p + i as u64 - (i as u64 * i as u64) + (i as u64 * i as u64) - i as u64 + 1
            });
            assert_eq!(out, reference, "workers={workers}");
            let squares: Vec<u64> = (0..37u64).map(|i| i * i).collect();
            assert_eq!(parts, squares, "mutations must land, workers={workers}");
        }
    }

    #[test]
    fn partition_map_empty_singleton_and_more_workers_than_parts() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(scoped_partition_map(&mut empty, 8, |_, p| *p).is_empty());
        let mut one = [41u32];
        assert_eq!(scoped_partition_map(&mut one, 8, |_, p| *p + 1), vec![42]);
    }

    #[test]
    fn partition_map_indices_are_partition_order() {
        let mut parts = [0usize; 23];
        let idx = scoped_partition_map(&mut parts, 4, |i, _| i);
        assert_eq!(idx, (0..23).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bank boom")]
    fn partition_map_panics_propagate_with_their_own_message() {
        let mut parts: Vec<u64> = (0..16).collect();
        let _ = scoped_partition_map(&mut parts, 4, |_, p| {
            assert!(*p != 11, "bank boom");
            *p
        });
    }

    #[test]
    fn cell_workers_defaults_to_one() {
        // The test environment does not set HAMS_CELL_THREADS for unit
        // tests; either way the resolved count must be positive.
        assert!(cell_workers() >= 1);
    }
}
