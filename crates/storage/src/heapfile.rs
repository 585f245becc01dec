//! Spill files: checksummed, slot-aligned page records on disk.
//!
//! A [`HeapFile`] is where a spilled table's sealed pages wait: an
//! append-only file of page records that the process which wrote it reads
//! back and deletes when the last page referencing it drops.  Every record
//! carries a FNV-1a checksum that [`HeapFile::read_page`] re-validates on
//! *every* read, so a truncated or bit-flipped record surfaces as a typed
//! [`Error::CorruptPage`], never as wrong rows.  Layout, in the one byte
//! format of [`crate::codec`] (the record prefix is read through its
//! [`Reader`], and its length must equal the slot table's):
//!
//! ```text
//! offset 0        magic "MCDH" | u16 version | u16 reserved
//!                 (padded with zeros to SLOT_ALIGN)
//! slot i          u32 len | u64 fnv1a(payload) | payload bytes
//!                 (padded with zeros to the next SLOT_ALIGN boundary)
//! ```
//!
//! Because page payloads are hashed with the same FNV-1a the [`Page`]
//! content hash uses, a record's stored checksum *is* the page's content
//! hash — one number names the bytes on disk, in memory, and on the wire.
//!
//! [`Page`]: crate::page::Page

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::codec::Reader;
use crate::error::{Error, Result};
use crate::page::{fnv1a, FNV_OFFSET};
use crate::pager::DiskCounters;

/// The four bytes every heap file leads with.
pub const HEAP_MAGIC: [u8; 4] = *b"MCDH";
/// On-disk format version; bumped on any incompatible layout change.
pub const HEAP_VERSION: u16 = 2;
/// Records (and the header) start on this boundary.  4 KiB matches the
/// common filesystem block size, so a torn sector write damages at most
/// one record.
pub const SLOT_ALIGN: u64 = 4096;

/// Bytes of a record's prefix (length, checksum).
const RECORD_PREFIX: usize = 4 + 8;

/// Round `offset` up to the next [`SLOT_ALIGN`] boundary.
fn align_up(offset: u64) -> u64 {
    offset.div_ceil(SLOT_ALIGN) * SLOT_ALIGN
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Io(format!("{what} {}: {e}", path.display()))
}

/// One appended record's location.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    len: u32,
}

struct FileState {
    file: File,
    slots: Vec<Slot>,
    /// Next append offset (always slot-aligned).
    end: u64,
}

/// An open spill file.  Shared behind an `Arc` by every disk-backed page
/// it holds and deleted from disk when the last reference drops.  All
/// access goes through an internal lock — reads seek, so they cannot
/// interleave with appends.
pub struct HeapFile {
    path: PathBuf,
    state: Mutex<FileState>,
    counters: Arc<DiskCounters>,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("path", &self.path)
            .field("pages", &self.page_count())
            .finish()
    }
}

impl HeapFile {
    /// Create a fresh heap file at `path` (truncating any previous file),
    /// writing the header.  The file is removed when the `HeapFile` drops.
    pub fn create(path: impl Into<PathBuf>, counters: Arc<DiskCounters>) -> Result<HeapFile> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create heap file", &path, e))?;
        let mut header = [0u8; SLOT_ALIGN as usize];
        header[..4].copy_from_slice(&HEAP_MAGIC);
        header[4..6].copy_from_slice(&HEAP_VERSION.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| io_err("write heap header", &path, e))?;
        Ok(HeapFile {
            state: Mutex::new(FileState {
                file,
                slots: Vec::new(),
                end: SLOT_ALIGN,
            }),
            path,
            counters,
        })
    }

    /// Append a page payload, returning its slot index.
    pub fn append_page(&self, payload: &[u8]) -> Result<usize> {
        let mut state = self.state.lock().expect("heap file poisoned");
        let offset = state.end;
        let len = u32::try_from(payload.len())
            .map_err(|_| Error::Invalid("page payload exceeds u32 bytes".into()))?;
        let checksum = fnv1a(FNV_OFFSET, payload);
        let mut record = Vec::with_capacity(RECORD_PREFIX + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&checksum.to_le_bytes());
        record.extend_from_slice(payload);
        state
            .file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| state.file.write_all(&record))
            .map_err(|e| io_err("append page to", &self.path, e))?;
        let slot = state.slots.len();
        state.slots.push(Slot { offset, len });
        state.end = align_up(offset + record.len() as u64);
        Ok(slot)
    }

    /// Read slot `slot` back, re-validating its checksum.  Counts one
    /// `disk_reads` (and the elapsed `disk_read_ns`) on the shared
    /// [`DiskCounters`].
    pub fn read_page(&self, slot: usize) -> Result<Vec<u8>> {
        let started = Instant::now();
        let mut state = self.state.lock().expect("heap file poisoned");
        let Slot { offset, len } = *state.slots.get(slot).ok_or_else(|| {
            Error::Invalid(format!(
                "heap file {} has no slot {slot}",
                self.path.display()
            ))
        })?;
        let mut record = vec![0u8; RECORD_PREFIX + len as usize];
        state
            .file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| state.file.read_exact(&mut record))
            .map_err(|e| match e.kind() {
                ErrorKind::UnexpectedEof => {
                    Error::CorruptPage(format!("{}: slot {slot} truncated", self.path.display()))
                }
                _ => io_err("read page from", &self.path, e),
            })?;
        drop(state);
        let corrupt =
            |what: &str| Error::CorruptPage(format!("{}: slot {slot} {what}", self.path.display()));
        let mut prefix = Reader::new(&record);
        let (Ok(stored_len), Ok(checksum)) = (prefix.u32("length"), prefix.u64("checksum")) else {
            return Err(corrupt("truncated"));
        };
        if stored_len != len {
            return Err(corrupt("length disagrees with the slot table"));
        }
        let payload = record.split_off(RECORD_PREFIX);
        if fnv1a(FNV_OFFSET, &payload) != checksum {
            return Err(corrupt("checksum mismatch on read"));
        }
        self.counters
            .count_read(started.elapsed().as_nanos() as u64);
        Ok(payload)
    }

    /// Number of appended page records.
    pub fn page_count(&self) -> usize {
        self.state.lock().expect("heap file poisoned").slots.len()
    }

    /// Where this heap file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Arc<DiskCounters> {
        Arc::new(DiskCounters::default())
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "mcdbr-heap-test-{}-{tag}-{n}.heap",
            std::process::id()
        ))
    }

    #[test]
    fn append_read_round_trip() {
        let path = temp_path("roundtrip");
        let stats = counters();
        let heap = HeapFile::create(&path, Arc::clone(&stats)).unwrap();
        let a: Vec<u8> = (0..200u8).collect();
        let b = vec![7u8; SLOT_ALIGN as usize + 100]; // spans multiple slots
        assert_eq!(heap.append_page(&a).unwrap(), 0);
        assert_eq!(heap.append_page(&b).unwrap(), 1);
        assert_eq!(heap.read_page(0).unwrap(), a);
        assert_eq!(heap.read_page(1).unwrap(), b);
        assert_eq!(heap.page_count(), 2);
        assert_eq!(stats.snapshot().disk_reads, 2);
        assert!(heap.read_page(2).is_err(), "missing slot is typed");
    }

    #[test]
    fn ephemeral_files_vanish_on_drop() {
        let path = temp_path("ephemeral");
        {
            let heap = HeapFile::create(&path, counters()).unwrap();
            heap.append_page(&[1, 2, 3]).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "a heap file must delete itself");
    }

    /// Cut the file under an open heap: the next `read_page` of the cut
    /// record reports a torn page.
    #[test]
    fn truncation_is_detected_on_open() {
        let path = temp_path("truncate");
        let heap = HeapFile::create(&path, counters()).unwrap();
        heap.append_page(&[9u8; 500]).unwrap();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(SLOT_ALIGN + 40))
            .unwrap();
        match heap.read_page(0) {
            Err(Error::CorruptPage(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected CorruptPage, got {other:?}"),
        }
    }

    /// Flip one payload bit under an open heap: `read_page` re-validates
    /// the checksum on every read and refuses the record.
    #[test]
    fn bit_flips_are_detected_on_open() {
        let path = temp_path("bitflip");
        let heap = HeapFile::create(&path, counters()).unwrap();
        heap.append_page(&[3u8; 300]).unwrap();
        assert_eq!(heap.read_page(0).unwrap(), vec![3u8; 300]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[SLOT_ALIGN as usize + RECORD_PREFIX + 17] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match heap.read_page(0) {
            Err(Error::CorruptPage(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected CorruptPage, got {other:?}"),
        }
    }
}
