//! Scoped fork-join helpers with dynamic scheduling and deterministic results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::chunk_ranges;

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped at 16 (the simulated workloads rarely benefit beyond
/// that and the cap keeps test machines with many cores from oversubscribing
/// the memory bus on small problems).
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Map `0..len` through `f` in parallel, returning results in index order.
///
/// Output order is deterministic regardless of scheduling: each worker writes
/// into its own slot of a pre-allocated buffer.
pub fn parallel_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = threads.min(len);
    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    crossbeam::thread::scope(|s| {
        // Give each worker a balanced contiguous slice of the output buffer;
        // contiguous writes keep false sharing to the chunk boundaries only.
        let mut rest: &mut [Option<T>] = &mut out;
        let mut offset = 0;
        for range in chunk_ranges(len, workers) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let base = offset;
            offset += range.len();
            let f = &f;
            s.spawn(move |_| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + k));
                }
            });
        }
    })
    .expect("parallel_map worker panicked");
    out.into_iter()
        .map(|slot| slot.expect("parallel_map slot not filled"))
        .collect()
}

/// Split `out` into `items` equal contiguous chunks of `out.len() / items`
/// elements and run `body(item, chunk)` for each in parallel.
///
/// This is the workhorse of batch-parallel neural-network kernels: each
/// batch item owns a disjoint output slice, so the closure gets `&mut`
/// access with no locking and no `unsafe`.
///
/// # Panics
/// Panics if `out.len()` is not divisible by `items`.
pub fn parallel_for_slices<T, F>(out: &mut [T], items: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items == 0 {
        return;
    }
    assert_eq!(
        out.len() % items,
        0,
        "output length must divide evenly into items"
    );
    let item_len = out.len() / items;
    if threads <= 1 || items == 1 {
        for (i, chunk) in out.chunks_mut(item_len.max(1)).enumerate().take(items) {
            body(i, chunk);
        }
        return;
    }
    let workers = threads.min(items);
    crossbeam::thread::scope(|s| {
        let mut rest = out;
        let mut item_offset = 0usize;
        for range in chunk_ranges(items, workers) {
            let take = range.len() * item_len;
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = item_offset;
            item_offset += range.len();
            let body = &body;
            s.spawn(move |_| {
                for (k, chunk) in mine.chunks_mut(item_len.max(1)).enumerate() {
                    body(base + k, chunk);
                }
            });
        }
    })
    .expect("parallel_for_slices worker panicked");
}

/// Map `0..len` through `f` in parallel with *dynamic* (work-stealing style)
/// scheduling, returning results in index order.
///
/// Unlike [`parallel_map`], which statically partitions the index range into
/// one contiguous slice per worker, here workers claim indices one at a time
/// through a shared atomic cursor. When item costs are wildly uneven — e.g.
/// simulating device cohorts whose round times differ by an order of
/// magnitude — static partitioning leaves workers idle behind the unlucky
/// one; dynamic claiming keeps them all busy until the queue drains.
///
/// Output order (and therefore any subsequent reduction) is deterministic
/// regardless of which worker computed which item: each result lands in its
/// own index slot. Falls back to a plain sequential map when `threads <= 1`
/// or `len <= 1`, which is bit-identical to the parallel path for any `f`
/// whose output depends only on its index.
pub fn parallel_map_stealing<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = threads.min(len);
    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                // Each index is claimed exactly once, so the lock is never
                // contended; it only exists to hand `&mut` to the slot.
                *slots[i].lock().unwrap() = Some(f(i));
            });
        }
    })
    .expect("parallel_map_stealing worker panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("parallel_map_stealing slot not filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(257, 8, |i| i * i);
        let expect: Vec<_> = (0..257).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn parallel_for_slices_fills_disjoint_chunks() {
        let mut out = vec![0u32; 12 * 5];
        parallel_for_slices(&mut out, 12, 4, |item, chunk| {
            assert_eq!(chunk.len(), 5);
            for v in chunk {
                *v = item as u32;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i / 5) as u32);
        }
    }

    #[test]
    fn parallel_for_slices_single_thread_matches() {
        let mut a = vec![0.0f64; 30];
        let mut b = vec![0.0f64; 30];
        let f = |item: usize, chunk: &mut [f64]| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (item * 10 + k) as f64;
            }
        };
        parallel_for_slices(&mut a, 10, 1, f);
        parallel_for_slices(&mut b, 10, 7, f);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn parallel_for_slices_rejects_ragged() {
        let mut out = vec![0u8; 10];
        parallel_for_slices(&mut out, 3, 2, |_, _| {});
    }

    #[test]
    fn parallel_for_slices_zero_items_is_noop() {
        let mut out: Vec<u8> = Vec::new();
        parallel_for_slices(&mut out, 0, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn stealing_map_preserves_order_across_thread_counts() {
        let expect: Vec<_> = (0..233usize).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 4, 8, 16] {
            assert_eq!(
                parallel_map_stealing(233, threads, |i| i * 3 + 1),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stealing_map_handles_uneven_item_costs() {
        // Front-loaded costs: a static partition would serialize behind the
        // first worker; this just checks correctness under real imbalance.
        let out = parallel_map_stealing(64, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i as u64
        });
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_map_empty_and_single() {
        assert_eq!(parallel_map_stealing(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_stealing(1, 4, |i| i + 9), vec![9]);
    }

    #[test]
    fn stealing_map_visits_each_index_exactly_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        let _ = parallel_map_stealing(500, 8, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn recommended_threads_is_positive() {
        assert!(recommended_threads() >= 1);
        assert!(recommended_threads() <= 16);
    }
}
