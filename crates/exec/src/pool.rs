//! Pooled columnar block buffers for phase-2 materialization.
//!
//! Every block materialization fills one [`ColumnBlock`] per active stream
//! and then moves each generated cell column out into its own shared
//! `Arc<Column>` ([`BlockBufferPool::adopt_cell`]), which the block's
//! bundles share.  What comes back to the pool is only the block's shell —
//! its shape and its grid of emptied columns — and the free-list reuses
//! those shells; a cell's storage is freed to the allocator when its last
//! bundle drops.
//!
//! The pool is shared freely across threads and shard tasks (acquisition is
//! a mutex pop, release a mutex push), and it doubles as the metering point
//! for two counters: `bytes_materialized` (logical bytes generated into its
//! buffers) and `buffer_reuses` (acquisitions served from the free-list
//! instead of a fresh allocation).
//!
//! Buffers released into an already-full pool are dropped, so a pool can
//! never retain more shells than its high-water mark of concurrently live
//! buffers (bounded by [`BlockBufferPool::with_max_pooled`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mcdbr_storage::{Column, ColumnBlock};

/// Default cap on idle pooled buffers — far above any realistic per-block
/// stream count, so the cap only guards pathologically shared pools.
const DEFAULT_MAX_POOLED: usize = 4096;

/// A pool of reusable [`ColumnBlock`] buffers (see the module docs).
#[derive(Debug)]
pub struct BlockBufferPool {
    buffers: Mutex<Vec<ColumnBlock>>,
    max_pooled: usize,
    acquires: AtomicU64,
    reuses: AtomicU64,
    bytes_materialized: AtomicU64,
}

impl Default for BlockBufferPool {
    fn default() -> Self {
        BlockBufferPool::with_max_pooled(DEFAULT_MAX_POOLED)
    }
}

impl BlockBufferPool {
    /// A pool with the default idle-buffer cap.
    pub fn new() -> Self {
        BlockBufferPool::default()
    }

    /// A pool retaining at most `max_pooled` idle buffers.
    pub fn with_max_pooled(max_pooled: usize) -> Self {
        BlockBufferPool {
            buffers: Mutex::new(Vec::new()),
            max_pooled,
            acquires: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            bytes_materialized: AtomicU64::new(0),
        }
    }

    /// Take a cleared buffer from the pool, or a fresh one if none is idle.
    pub fn acquire(&self) -> ColumnBlock {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        if let Some(block) = self.buffers.lock().expect("pool lock").pop() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return block;
        }
        ColumnBlock::new()
    }

    /// Return a buffer, accounting its materialized bytes and clearing it
    /// (capacity retained) so the next acquisition starts from a clean,
    /// warm buffer.  Dropped instead of pooled when the idle cap is reached.
    pub fn release(&self, mut block: ColumnBlock) {
        self.bytes_materialized
            .fetch_add(block.data_bytes() as u64, Ordering::Relaxed);
        block.clear();
        let mut buffers = self.buffers.lock().expect("pool lock");
        if buffers.len() < self.max_pooled {
            buffers.push(block);
        }
    }

    /// Move a freshly generated cell column out of a pooled block into a
    /// shared `Arc<Column>` — without copying the data.
    ///
    /// The block keeps an empty column in its place, so its bytes are
    /// accounted here and it contributes zero at release:
    /// `bytes_materialized` counts every generated byte exactly once whether
    /// a cell is adopted or the whole block released directly.
    pub fn adopt_cell(&self, col: &mut Column) -> Arc<Column> {
        self.bytes_materialized
            .fetch_add(col.data_bytes() as u64, Ordering::Relaxed);
        Arc::new(std::mem::take(col))
    }

    /// Total buffer acquisitions.
    pub fn acquires(&self) -> u64 {
        self.acquires.load(Ordering::Relaxed)
    }

    /// Acquisitions served by recycling a pooled buffer (the allocation
    /// savings of the pool).
    pub fn buffer_reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Logical bytes generated into this pool's buffers, counted when a cell
    /// is adopted or its block released — the columnar analogue of
    /// `values_materialized`, measured in memory rather than positions.
    /// Units that run in this process use this pool too.
    pub fn bytes_materialized(&self) -> u64 {
        self.bytes_materialized.load(Ordering::Relaxed)
    }

    /// Idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.buffers.lock().expect("pool lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_storage::Value;

    #[test]
    fn acquisitions_reuse_released_buffers() {
        let pool = BlockBufferPool::new();
        let a = pool.acquire();
        assert_eq!((pool.acquires(), pool.buffer_reuses()), (1, 0));
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire();
        assert_eq!((pool.acquires(), pool.buffer_reuses()), (2, 1));
        pool.release(b);
        // Round-trip again: still one idle buffer cycling.
        let _ = pool.acquire();
        assert_eq!(pool.buffer_reuses(), 2);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn pool_grows_to_concurrent_demand_and_respects_the_cap() {
        let pool = BlockBufferPool::with_max_pooled(2);
        let blocks: Vec<ColumnBlock> = (0..5).map(|_| pool.acquire()).collect();
        assert_eq!(pool.acquires(), 5);
        assert_eq!(pool.buffer_reuses(), 0, "all five were live at once");
        for b in blocks {
            pool.release(b);
        }
        assert_eq!(pool.idle(), 2, "releases beyond the cap drop the buffer");
    }

    #[test]
    fn released_buffers_come_back_fully_cleared() {
        let pool = BlockBufferPool::new();
        let mut block = pool.acquire();
        block.reset(1, 1, 4);
        block.column_mut(0, 0).push_f64(3.25);
        block.column_mut(0, 0).push_value(&Value::str("bleed"));
        pool.release(block);
        assert!(pool.bytes_materialized() > 0);
        let reused = pool.acquire();
        assert!(!reused.is_shaped(), "shape must not leak across blocks");
        assert_eq!(reused.num_positions(), 0);
        assert_eq!(reused.data_bytes(), 0, "no value bleed between blocks");
    }

    #[test]
    fn recycled_buffers_serve_streams_of_a_different_value_type() {
        // Regression: a pool is shared by every stream of a session, so a
        // buffer last typed Float64 by a Normal stream must serve a
        // string-category Discrete stream next (and vice versa) — the
        // cleared-but-typed column retypes instead of erroring or demoting
        // to the boxed Mixed store.
        use mcdbr_storage::Value;
        use mcdbr_vg::{DiscreteVg, NormalVg, VgFunction};

        let pool = BlockBufferPool::new();
        let mut block = pool.acquire();
        NormalVg
            .generate_block_into(
                &[Value::Float64(0.0), Value::Float64(1.0)],
                7,
                0,
                16,
                &mut block,
            )
            .unwrap();
        pool.release(block);

        let discrete = DiscreteVg::new(vec![Value::str("a"), Value::str("b")]);
        let weights = [Value::Float64(0.5), Value::Float64(0.5)];
        let mut block = pool.acquire();
        discrete
            .generate_block_into(&weights, 8, 0, 16, &mut block)
            .unwrap();
        assert_eq!(
            block.column(0, 0).data_type(),
            Some(mcdbr_storage::DataType::Utf8),
            "recycled buffer must retype, not demote"
        );
        pool.release(block);

        // And back to numeric: still a typed buffer.
        let mut block = pool.acquire();
        NormalVg
            .generate_block_into(
                &[Value::Float64(0.0), Value::Float64(1.0)],
                9,
                0,
                16,
                &mut block,
            )
            .unwrap();
        assert!(block.column(0, 0).f64_slice().is_some());
        assert_eq!(pool.buffer_reuses(), 2);
    }

    #[test]
    fn concurrent_releases_past_the_idle_cap_drop_without_inflating_reuses() {
        // Shard tasks return their buffers in whatever order they finish; a
        // pool whose idle cap is smaller than the number of in-flight
        // buffers must drop the overflow under *any* interleaving, and the
        // dropped buffers must never be double-counted as reuses by later
        // acquisitions.
        let pool = BlockBufferPool::with_max_pooled(2);
        let blocks: Vec<ColumnBlock> = (0..8).map(|_| pool.acquire()).collect();
        assert_eq!(pool.buffer_reuses(), 0, "all eight live at once");
        std::thread::scope(|scope| {
            for mut block in blocks {
                let pool = &pool;
                scope.spawn(move || {
                    block.reset(1, 1, 1);
                    block.column_mut(0, 0).push_f64(1.0);
                    pool.release(block);
                });
            }
        });
        assert_eq!(pool.idle(), 2, "releases beyond the cap must drop");
        // Every release was metered, pooled or dropped alike (8 bytes per
        // single-f64 buffer).
        assert_eq!(pool.bytes_materialized(), 8 * 8);
        // Re-acquiring eight buffers: exactly the two pooled ones count as
        // reuses; the dropped six must not inflate the counter.
        let again: Vec<ColumnBlock> = (0..8).map(|_| pool.acquire()).collect();
        assert_eq!(pool.buffer_reuses(), 2);
        assert_eq!(pool.acquires(), 16);
        assert_eq!(pool.idle(), 0);
        drop(again);
    }

    #[test]
    fn adopted_cells_are_owned_by_their_bundles_alone() {
        // The pool keeps no handle on an adopted cell: its storage goes back
        // to the allocator when the last bundle sharing it drops.
        let pool = BlockBufferPool::new();
        let mut block = pool.acquire();
        block.reset(1, 1, 2);
        block.column_mut(0, 0).push_f64(1.5);
        block.column_mut(0, 0).push_f64(2.5);
        let cell = pool.adopt_cell(block.column_mut(0, 0));
        assert_eq!(Arc::strong_count(&cell), 1);
        assert_eq!(cell.f64_slice(), Some(&[1.5, 2.5][..]));
        assert_eq!(block.column(0, 0).len(), 0, "the block keeps an empty cell");
        pool.release(block);
        assert_eq!(pool.bytes_materialized(), 16, "adopted bytes count once");
    }

    #[test]
    fn bytes_accumulate_across_releases() {
        let pool = BlockBufferPool::new();
        for round in 0..3 {
            let mut block = pool.acquire();
            block.reset(1, 1, 8);
            for i in 0..8 {
                block.column_mut(0, 0).push_f64(i as f64);
            }
            pool.release(block);
            assert_eq!(pool.bytes_materialized(), 64 * (round + 1));
        }
        assert_eq!(pool.buffer_reuses(), 2);
    }
}
