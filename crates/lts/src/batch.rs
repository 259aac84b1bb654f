//! Deterministic chunked parallel map, shared by the batch analysis APIs.
//!
//! The compliance and risk crates both fan independent work items (policies,
//! user profiles) out over `crossbeam` scoped threads against one immutable
//! LTS + index. [`parallel_map`] is that one pattern: the item list is split
//! into `threads` contiguous chunks, each chunk is mapped on its own scoped
//! thread, and the per-chunk results are concatenated in spawn order — so
//! the output is exactly `items.iter().map(f).collect()` regardless of
//! thread count or scheduling.
//!
//! Every fan-out in the workspace sizes itself by [`fan_out`]: `None` runs
//! on the calling thread, and `Some(n)` is the only way to ask for more.

/// Maps `f` over `items`, fanned out over `threads` crossbeam scoped
/// threads ([`fan_out`]: `None` runs inline on the calling thread). Results
/// come back in item order and are identical to a sequential map — the
/// parallelism only partitions the item list, never the evaluation of a
/// single item.
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
    let threads = fan_out(threads).min(items.len());
    if threads <= 1 {
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

/// The threads a fan-out runs on: `Some(n)` is `n` (at least one), and
/// `None` is one, the calling thread. Fanning out is opt-in because on the
/// hosts measured so far it costs more than it saves (`docs/PERFORMANCE.md`,
/// "Fan out only when asked").
#[must_use]
pub fn fan_out(threads: Option<usize>) -> usize {
    threads.map_or(1, |n| n.max(1))
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
    fn fan_out_by_default_runs_every_item_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let ran_on = parallel_map(&items, None, |_| std::thread::current().id());
        assert_eq!(ran_on.len(), items.len());
        assert!(ran_on.iter().all(|&id| id == caller), "None must not fan out");
        assert_eq!(fan_out(None), 1);
        assert_eq!(fan_out(Some(3)), 3);
        assert_eq!(fan_out(Some(0)), 1);
    }

    #[test]
    fn empty_and_singleton_inputs_short_circuit() {
        assert!(parallel_map(&[] as &[u8], Some(4), |x| *x).is_empty());
        assert_eq!(parallel_map(&[7], Some(4), |x| x + 1), vec![8]);
    }
}
