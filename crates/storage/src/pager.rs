//! The pager: explicit spilling of sealed pages to disk.
//!
//! A caller that wants a table's sealed bytes out of memory creates a
//! [`Pager`] over a directory it owns and hands it to
//! [`Table::spill_with`](crate::table::Table::spill_with).  Each spilled
//! page's bytes are appended to a per-table [`HeapFile`] under
//! `<root>/spill/`, and the in-memory [`Page`] keeps only `(file, slot,
//! len)` plus its content hash.  The buffer pool's decoded frame is then
//! the only resident copy — evicting it really frees the memory, and a
//! later pin reads the bytes back through the checksummed heap record.
//!
//! Spill heaps are deleted when the last page referencing them drops.
//! Spilling changes where bytes wait, never what they decode to: a
//! spilled table scans bit-identically to its in-memory twin under any
//! frame budget.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::heapfile::HeapFile;
use crate::page::Page;

/// A monotone snapshot of the pager's counters, windowed by subtraction
/// like every other counter family ([`PagerStats::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Page records appended to spill heaps.
    pub pages_written: u64,
    /// Page payloads read back from disk.
    pub disk_reads: u64,
    /// Wall-clock nanoseconds spent in those reads.
    pub disk_read_ns: u64,
    /// Sealed bytes moved out of memory by spilling.
    pub spilled_bytes: u64,
}

impl PagerStats {
    /// The counter deltas accumulated since `baseline` was snapped.
    pub fn since(&self, baseline: &PagerStats) -> PagerStats {
        PagerStats {
            pages_written: self.pages_written - baseline.pages_written,
            disk_reads: self.disk_reads - baseline.disk_reads,
            disk_read_ns: self.disk_read_ns - baseline.disk_read_ns,
            spilled_bytes: self.spilled_bytes - baseline.spilled_bytes,
        }
    }
}

/// The atomic counters behind [`PagerStats`], shared (via `Arc`) between a
/// pager and every heap file it opens so reads count no matter which layer
/// triggers them.
#[derive(Debug, Default)]
pub struct DiskCounters {
    pages_written: AtomicU64,
    disk_reads: AtomicU64,
    disk_read_ns: AtomicU64,
    spilled_bytes: AtomicU64,
}

impl DiskCounters {
    /// Record one disk read taking `ns` nanoseconds.
    pub fn count_read(&self, ns: u64) {
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.disk_read_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one page written, `spilled` of whose bytes left memory.
    pub fn count_write(&self, spilled: u64) {
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.spilled_bytes.fetch_add(spilled, Ordering::Relaxed);
    }

    /// Snapshot the monotone counters.
    pub fn snapshot(&self) -> PagerStats {
        PagerStats {
            pages_written: self.pages_written.load(Ordering::Relaxed),
            disk_reads: self.disk_reads.load(Ordering::Relaxed),
            disk_read_ns: self.disk_read_ns.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Disk-backed page storage rooted at a caller-owned directory.  See the
/// module docs.
pub struct Pager {
    root: PathBuf,
    counters: Arc<DiskCounters>,
    next_spill: AtomicU64,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Pager {
    /// A pager rooted at `root`, creating `root` and `root/spill` as
    /// needed.  Multiple processes may share one root — spill file names
    /// embed the pid.
    pub fn new(root: impl Into<PathBuf>) -> Result<Pager> {
        let root = root.into();
        let spill = root.join("spill");
        std::fs::create_dir_all(&spill)
            .map_err(|e| Error::Io(format!("create data dir {}: {e}", spill.display())))?;
        Ok(Pager {
            root,
            counters: Arc::new(DiskCounters::default()),
            next_spill: AtomicU64::new(0),
        })
    }

    /// Snapshot this pager's counters.
    pub fn stats(&self) -> PagerStats {
        self.counters.snapshot()
    }

    /// The root data directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh spill heap (deleted when the last page drops).  One per
    /// table: pages of a table cluster in one file.
    pub fn create_spill_heap(&self) -> Result<Arc<HeapFile>> {
        let n = self.next_spill.fetch_add(1, Ordering::Relaxed);
        let path = self
            .root
            .join("spill")
            .join(format!("{}-{n}.heap", std::process::id()));
        Ok(Arc::new(HeapFile::create(
            path,
            Arc::clone(&self.counters),
        )?))
    }

    /// Spill `page` into `heap`: append its bytes, return the disk-backed
    /// twin (same id, hash, and row/column counts — only where the bytes
    /// wait changes).  Already-disk-backed pages come back unchanged.
    pub fn spill_page(&self, page: &Page, heap: &Arc<HeapFile>) -> Result<Page> {
        if page.is_disk_backed() {
            return Ok(page.clone());
        }
        let bytes = page.load_bytes()?;
        let slot = heap.append_page(&bytes)?;
        self.counters.count_write(bytes.len() as u64);
        Ok(page.spilled(Arc::clone(heap), slot, bytes.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn temp_root(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mcdbr-pager-test-{}-{tag}-{n}", std::process::id()))
    }

    fn rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::from_iter_values([Value::Int64(i as i64), Value::str(format!("r{i}"))]))
            .collect()
    }

    #[test]
    fn spill_round_trips_and_counts() {
        let root = temp_root("spill");
        let pager = Pager::new(&root).unwrap();
        let page = Page::seal(2, &rows(20));
        let heap = pager.create_spill_heap().unwrap();
        let spilled = pager.spill_page(&page, &heap).unwrap();
        assert!(spilled.is_disk_backed());
        assert!(!page.is_disk_backed());
        assert_eq!(spilled.id(), page.id(), "spilling keeps the frame key");
        assert_eq!(spilled.content_hash(), page.content_hash());
        assert_eq!(spilled.decode_rows().unwrap(), page.decode_rows().unwrap());
        let stats = pager.stats();
        assert_eq!(stats.pages_written, 1);
        assert_eq!(stats.spilled_bytes, spilled.byte_len() as u64);
        assert!(stats.disk_reads >= 1, "decode_rows read the bytes back");
        assert!(stats.disk_read_ns > 0);
        // Re-spilling a disk page is a no-op.
        let again = pager.spill_page(&spilled, &heap).unwrap();
        assert_eq!(pager.stats().pages_written, 1);
        assert_eq!(again.content_hash(), page.content_hash());
        drop((page, spilled, again, heap));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn spill_heaps_are_ephemeral() {
        let root = temp_root("ephemeral");
        let pager = Pager::new(&root).unwrap();
        let heap = pager.create_spill_heap().unwrap();
        let path = heap.path().to_path_buf();
        assert!(path.exists());
        drop(heap);
        assert!(!path.exists(), "spill heap outlived its pages");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stats_window_by_subtraction() {
        let a = PagerStats {
            pages_written: 10,
            disk_reads: 7,
            disk_read_ns: 900,
            spilled_bytes: 4096,
        };
        let b = PagerStats {
            pages_written: 4,
            disk_reads: 2,
            disk_read_ns: 100,
            spilled_bytes: 1024,
        };
        let d = a.since(&b);
        assert_eq!(d.pages_written, 6);
        assert_eq!(d.disk_reads, 5);
        assert_eq!(d.disk_read_ns, 800);
        assert_eq!(d.spilled_bytes, 3072);
    }
}
