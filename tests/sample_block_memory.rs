//! Memory regression guard for a sampled block.
//!
//! A naive Monte Carlo query (`McdbEngine::run_samples`) generates its
//! block's stream cells and folds every bundle once straight into the
//! aggregate (`fold_block`), so no `BundleSet` is ever built.
//! This binary holds one test only, so the counting global allocator below
//! sees that test's allocations and nothing else: the query's peak of live
//! bytes must stay below the live bytes of the very set the two-call path
//! (`instantiate_block`, then aggregate) would hold for the same query.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mcdbr::exec::ExecSession;
use mcdbr::mcdb::McdbEngine;
use mcdbr::workloads::{TpchConfig, TpchWorkload};

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live =
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst) + layout.size() as isize;
        PEAK.fetch_max(live, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the most bytes live at once while it ran, above what
/// was live when it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - start)
}

#[test]
fn a_naive_query_peaks_below_the_bundle_set_it_never_builds() {
    // Appendix D's join at test scale, with 80 line items per order: 100
    // order streams fanned out to 8 000 bundles, 250 repetitions.  The query
    // holds the block's cells and one fold's lanes, a small share of the
    // set, at any thread count.
    let config = TpchConfig {
        num_lineitems: 8_000,
        ..TpchConfig::test_scale()
    };
    let w = TpchWorkload::generate(config).unwrap();
    let query = w.total_loss_query();
    let reps = 250;

    // The set the two-call path holds: the live bytes a session's second
    // block adds, cells included, measured like the engine's second query
    // below.
    let mut session = ExecSession::prepare(&query.plan, &w.catalog, 1).unwrap();
    drop(session.instantiate_block(&w.catalog, 0, reps).unwrap());
    let before = LIVE.load(Ordering::SeqCst);
    let set = session.instantiate_block(&w.catalog, 0, reps).unwrap();
    let set_bytes = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(set.len(), 8_000);
    drop((set, session));

    // The same query through the engine, with its skeleton cached and its
    // pool warm from a first query.
    let mut engine = McdbEngine::new();
    let first = engine.run_samples(&query, &w.catalog, reps, 1).unwrap();
    let (samples, peak) =
        peak_above_start(|| engine.run_samples(&query, &w.catalog, reps, 2).unwrap());
    assert_eq!(first.single().unwrap().len(), reps);
    assert_eq!(samples.single().unwrap().len(), reps);
    assert!(
        peak < set_bytes,
        "run_samples peaked {peak} bytes above its start; the set alone holds {set_bytes}"
    );
}
