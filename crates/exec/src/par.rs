//! Deterministic parallel fan-out for block instantiation.
//!
//! The parallelism contract everywhere in this crate is *bit-identical
//! results regardless of thread count*: every parallel call maps independent
//! inputs to pre-assigned output slots, so scheduling can never reorder or
//! merge floating-point work.  The position-addressable PRNG streams
//! (`mcdbr-prng`) make the inputs themselves order-free — the value of stream
//! `s` at position `i` does not depend on who generated positions `< i` — so
//! splitting a block across threads is safe by construction.
//!
//! Implementation note: this module plays the role a `rayon` parallel
//! iterator would play; the build environment is offline, so the fan-out is
//! written against `std::thread::scope` instead of adding the dependency.
//! `par_map_threads` is semantically `items.par_iter().map(f).collect()` with
//! a fixed chunking policy.  The width is the caller's: sessions pass
//! [`default_threads`], the machine's available parallelism, to their
//! backend, and tests pass explicit widths to the backend and `shard`
//! calls.  Only generation and block assembly fan out; every aggregate
//! folds on the calling thread.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The default worker count: the machine's available parallelism, or 1
/// when it is unknown.  Memoized, because sessions consult it on every
/// construction and a Gibbs run constructs many.
pub fn default_threads() -> usize {
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Map `f` over `items` on up to `threads` worker threads, preserving input
/// order in the output.  With `threads <= 1` (or trivially small inputs) the
/// map runs inline on the calling thread; results are identical either way.
pub fn par_map_threads<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (out_chunk, in_chunk) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            scope.spawn(move || {
                for (slot, item) in out_chunk.iter_mut().zip(in_chunk) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|u| u.expect("every slot filled by its worker"))
        .collect()
}

/// Fallible variant of [`par_map_threads`]: every item is mapped, then the
/// first error in input order (if any) is returned, so error selection is as
/// deterministic as the values themselves.
pub fn try_par_map_threads<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    par_map_threads(items, threads, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = par_map_threads(&items, 1, |&x| x * x);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map_threads(&items, threads, |&x| x * x), seq);
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map_threads(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn fallible_map_returns_first_error_in_input_order() {
        let items: Vec<i32> = (0..100).collect();
        let r = try_par_map_threads(&items, 7, |&x| if x >= 40 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(40));
        let ok = try_par_map_threads(&items, 7, |&x| Ok::<_, ()>(x * 2));
        assert_eq!(ok.unwrap()[50], 100);
    }

    #[test]
    fn float_results_are_bit_identical() {
        // The real guarantee the engine relies on: no accumulation-order
        // dependence because each slot is computed independently.
        let items: Vec<u64> = (0..512).collect();
        let a = par_map_threads(&items, 1, |&x| (x as f64).sqrt().sin());
        let b = par_map_threads(&items, 16, |&x| (x as f64).sqrt().sin());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn default_threads_is_positive_and_memoized() {
        assert!(default_threads() >= 1);
        // The OnceLock hands back the same resolution on every call.
        assert_eq!(default_threads(), default_threads());
    }
}
