//! The buffer pool: a bounded cache of decoded page frames.
//!
//! Scans never decode a [`Page`] directly — they [`BufferPool::pin`] it,
//! receiving a [`PageGuard`] over the decoded rows.  The pool keeps at most
//! `budget` decoded frames resident, evicting the least-recently-used
//! *unpinned* frame when a miss pushes it over; pinned frames are never
//! evicted, so the pool may transiently exceed its budget when every frame
//! is in use (classic STEAL-avoidance: correctness first, budget second).
//!
//! One process-wide pool ([`BufferPool::global`], [`DEFAULT_FRAME_BUDGET`]
//! frames until a caller changes it with [`BufferPool::set_budget`]) backs
//! all table scans, so a resident server's sessions share frames exactly as
//! they share the session cache.  Private pools ([`BufferPool::new`]) exist
//! for tests that need exact hit/eviction accounting without cross-test
//! interference.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::Result;
use crate::page::Page;
use crate::tuple::Tuple;

/// The global pool's frame budget until [`BufferPool::set_budget`] changes
/// it: generous enough that the test workloads never evict unless a test
/// forces a tiny budget.
pub const DEFAULT_FRAME_BUDGET: usize = 1024;

/// A monotonically-consistent snapshot of the pool's counters.
///
/// Counters only ever grow; consumers window them by subtracting a baseline
/// snapshot (see [`PageCacheStats::since`]), the same delta pattern the
/// exec sessions use for buffer-reuse accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Pages decoded from their sealed bytes (pool misses).
    pub pages_read: u64,
    /// Pins satisfied by an already-resident frame.
    pub pool_hits: u64,
    /// Frames dropped to make room under the budget.
    pub pool_evictions: u64,
}

impl PageCacheStats {
    /// The counter deltas accumulated since `baseline` was snapped.
    pub fn since(&self, baseline: &PageCacheStats) -> PageCacheStats {
        PageCacheStats {
            pages_read: self.pages_read - baseline.pages_read,
            pool_hits: self.pool_hits - baseline.pool_hits,
            pool_evictions: self.pool_evictions - baseline.pool_evictions,
        }
    }
}

/// One resident decoded frame.
struct Frame {
    rows: Arc<Vec<Tuple>>,
    pins: usize,
}

struct PoolInner {
    budget: usize,
    frames: HashMap<u64, Frame>,
    /// LRU order: least-recently-used at the front.  Budgets are small
    /// (hundreds to low thousands of frames), so linear touch/evict scans
    /// cost less than the page decode they bracket.
    order: Vec<u64>,
    /// Counters live under the lock so they move atomically with the
    /// frame map: `pages_read` counts frames inserted, `pool_evictions`
    /// frames removed, and `resident == pages_read - pool_evictions`
    /// holds exactly even when scans race (a racing decoder that loses
    /// the insert adopts the winner's frame and counts a *hit*).
    stats: PageCacheStats,
}

impl PoolInner {
    fn touch(&mut self, page_id: u64) {
        if let Some(idx) = self.order.iter().position(|&id| id == page_id) {
            self.order.remove(idx);
        }
        self.order.push(page_id);
    }

    /// Evict least-recently-used unpinned frames until the pool is within
    /// budget (or only pinned frames remain).  Returns the eviction count.
    fn evict_to_budget(&mut self) -> u64 {
        let mut evicted = 0;
        while self.frames.len() > self.budget {
            let victim = self
                .order
                .iter()
                .position(|id| self.frames.get(id).is_some_and(|f| f.pins == 0));
            match victim {
                Some(idx) => {
                    let id = self.order.remove(idx);
                    self.frames.remove(&id);
                    evicted += 1;
                }
                None => break, // every frame pinned: over-budget is allowed
            }
        }
        evicted
    }
}

/// A bounded LRU cache of decoded page frames.  See the module docs.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("budget", &self.budget())
            .field("stats", &stats)
            .finish()
    }
}

impl BufferPool {
    /// A private pool with the given frame budget (clamped to at least 1).
    pub fn new(budget: usize) -> BufferPool {
        BufferPool {
            inner: Mutex::new(PoolInner {
                budget: budget.max(1),
                frames: HashMap::new(),
                order: Vec::new(),
                stats: PageCacheStats::default(),
            }),
        }
    }

    /// The process-wide pool every table scan defaults to, holding
    /// [`DEFAULT_FRAME_BUDGET`] frames until [`BufferPool::set_budget`].
    pub fn global() -> &'static BufferPool {
        static POOL: OnceLock<BufferPool> = OnceLock::new();
        POOL.get_or_init(|| BufferPool::new(DEFAULT_FRAME_BUDGET))
    }

    /// The current frame budget.
    pub fn budget(&self) -> usize {
        self.inner.lock().expect("buffer pool poisoned").budget
    }

    /// Change the frame budget, evicting down if shrinking.  The one way
    /// to size the global pool; tests use it to force eviction pressure.
    pub fn set_budget(&self, budget: usize) {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        inner.budget = budget.max(1);
        let evicted = inner.evict_to_budget();
        inner.stats.pool_evictions += evicted;
    }

    /// Pin `page`, decoding it into a resident frame on a miss.  The guard
    /// keeps the frame unevictable (and its rows alive) until dropped.
    ///
    /// Counters are exact under concurrency: they mutate only under the
    /// pool lock, in the same critical section as the frame map, so
    /// `pages_read` is precisely the number of frames ever inserted and
    /// `pool_evictions` precisely the number removed.  Two scans racing a
    /// miss on the same page both decode (deliberately, outside the lock),
    /// but only the insert winner counts a read — the loser adopts the
    /// winner's frame and counts a hit.
    pub fn pin<'p>(&'p self, page: &Page) -> Result<PageGuard<'p>> {
        {
            let mut inner = self.inner.lock().expect("buffer pool poisoned");
            if let Some(frame) = inner.frames.get_mut(&page.id()) {
                frame.pins += 1;
                let rows = Arc::clone(&frame.rows);
                inner.touch(page.id());
                inner.stats.pool_hits += 1;
                return Ok(PageGuard {
                    pool: self,
                    page_id: page.id(),
                    rows,
                });
            }
        }
        // Miss: decode outside the lock so concurrent scans of different
        // pages don't serialize on the decode (which may be a disk read).
        let rows = Arc::new(page.decode_rows()?);
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        match inner.frames.entry(page.id()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // A racing scan inserted while we decoded: adopt its frame.
                e.get_mut().pins += 1;
                inner.stats.pool_hits += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Frame {
                    rows: Arc::clone(&rows),
                    pins: 1,
                });
                inner.stats.pages_read += 1;
            }
        }
        let rows = Arc::clone(&inner.frames[&page.id()].rows);
        inner.touch(page.id());
        let evicted = inner.evict_to_budget();
        inner.stats.pool_evictions += evicted;
        Ok(PageGuard {
            pool: self,
            page_id: page.id(),
            rows,
        })
    }

    fn unpin(&self, page_id: u64) {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        if let Some(frame) = inner.frames.get_mut(&page_id) {
            frame.pins = frame.pins.saturating_sub(1);
        }
        // A pin released while the pool sat over budget (every frame
        // pinned at the time) is the moment the deferred eviction runs.
        let evicted = inner.evict_to_budget();
        inner.stats.pool_evictions += evicted;
    }

    /// Number of frames currently resident (pinned or not).
    pub fn resident_frames(&self) -> usize {
        self.inner
            .lock()
            .expect("buffer pool poisoned")
            .frames
            .len()
    }

    /// Snapshot the monotone counters.
    pub fn stats(&self) -> PageCacheStats {
        self.inner.lock().expect("buffer pool poisoned").stats
    }
}

/// A pinned page: dereferences to the decoded rows, unpins on drop.
pub struct PageGuard<'p> {
    pool: &'p BufferPool,
    page_id: u64,
    rows: Arc<Vec<Tuple>>,
}

impl PageGuard<'_> {
    /// The decoded rows of the pinned page.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }
}

impl Deref for PageGuard<'_> {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        &self.rows
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.page_id);
    }
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page_id", &self.page_id)
            .field("rows", &self.rows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn page(tag: i64, rows: usize) -> Page {
        let tuples: Vec<Tuple> = (0..rows)
            .map(|i| Tuple::from_iter_values([Value::Int64(tag), Value::Int64(i as i64)]))
            .collect();
        Page::seal(2, &tuples)
    }

    #[test]
    fn hit_miss_accounting() {
        let pool = BufferPool::new(4);
        let p = page(1, 3);
        {
            let g = pool.pin(&p).unwrap();
            assert_eq!(g.rows().len(), 3);
        }
        let _g = pool.pin(&p).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.pages_read, 1);
        assert_eq!(stats.pool_hits, 1);
        assert_eq!(stats.pool_evictions, 0);
    }

    #[test]
    fn lru_eviction_under_budget() {
        let pool = BufferPool::new(2);
        let pages: Vec<Page> = (0..3).map(|t| page(t, 2)).collect();
        for p in &pages {
            drop(pool.pin(p).unwrap());
        }
        // Budget 2, three distinct pages: the first (LRU) frame was evicted.
        assert_eq!(pool.resident_frames(), 2);
        assert_eq!(pool.stats().pool_evictions, 1);
        // Re-pinning the evicted page is a fresh read.
        drop(pool.pin(&pages[0]).unwrap());
        assert_eq!(pool.stats().pages_read, 4);
    }

    #[test]
    fn pinned_frames_survive_eviction() {
        let pool = BufferPool::new(1);
        let a = page(1, 2);
        let b = page(2, 2);
        let guard_a = pool.pin(&a).unwrap();
        // Pool is at budget with `a` pinned; pinning `b` must not evict `a`.
        let guard_b = pool.pin(&b).unwrap();
        assert_eq!(pool.resident_frames(), 2, "pinned frames are unevictable");
        drop(guard_b);
        // b unpinned: the deferred eviction brings the pool back to budget,
        // and the victim must be b (a is still pinned).
        assert_eq!(pool.resident_frames(), 1);
        drop(pool.pin(&a).unwrap());
        assert_eq!(
            pool.stats().pages_read,
            2,
            "a stayed resident through b's eviction"
        );
        drop(guard_a);
    }

    #[test]
    fn shrinking_budget_evicts() {
        let pool = BufferPool::new(8);
        let pages: Vec<Page> = (0..6).map(|t| page(t, 1)).collect();
        for p in &pages {
            drop(pool.pin(p).unwrap());
        }
        assert_eq!(pool.resident_frames(), 6);
        pool.set_budget(2);
        assert_eq!(pool.resident_frames(), 2);
        assert_eq!(pool.stats().pool_evictions, 4);
    }
}
