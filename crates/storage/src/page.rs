//! Fixed-budget heap pages: the sealed, immutable unit of table storage.
//!
//! A [`Page`] holds a contiguous run of a table's rows encoded
//! columnar-within-page: a small header, a slot directory of per-column
//! payload offsets, then each column's [`Column::encode_wire`] bytes.  Pages
//! are sealed once and never mutated; a table is a vector of sealed pages
//! plus an open row tail (see `Table`).  Scans decode a page's rows through
//! the [`crate::bufpool::BufferPool`], which caches decoded frames under an
//! LRU budget, so the resident set stays bounded even when the table set is
//! not.
//!
//! Every page carries two identities:
//!
//! * a process-unique `page_id` (allocation order) — the buffer-pool frame
//!   key, never serialized;
//! * a FNV-1a `content_hash` over the encoded bytes — stable across
//!   encode/decode round trips and across processes; `Page: PartialEq`
//!   compares it, and a disk page's reads re-check it.
//!
//! Encoded layout, in the one byte format of [`crate::codec`]:
//!
//! ```text
//! u32 num_cols | u32 num_rows | u32 end_offset[num_cols] | column payloads
//! ```
//!
//! `end_offset[i]` is the byte offset one past column `i`'s payload,
//! relative to the start of the payload region — a slot directory that lets
//! a reader validate (or skip to) any column without decoding its
//! predecessors.  Pages are read through the bounded [`Reader`]; every
//! column must hold exactly `num_rows` values, and since nothing vouches
//! for the rows of a page with no columns, [`Page::from_bytes`] refuses
//! one that claims any.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::codec::{DecodeError, DecodeResult, Reader};
use crate::column::Column;
use crate::error::{Error, Result};
use crate::heapfile::HeapFile;
use crate::tuple::Tuple;
use crate::value::Value;

/// Target encoded payload size of a sealed page, in bytes.
///
/// Sealing is greedy: rows accumulate until their estimated encoded size
/// ([`estimate_row_bytes`]) reaches the budget, so a page holds at least one
/// row no matter how wide.  8 KiB keeps a few thousand pages under the
/// default frame budget while still amortizing per-page overhead.
pub const PAGE_BYTES: usize = 8 * 1024;

/// FNV-1a 64-bit offset basis: the starting `hash` of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a 64-bit hash — the one hash behind
/// page and heap-record checksums and plan fingerprints.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Process-unique page id allocator.  Ids are frame keys, not identities:
/// they are never serialized, and two pages with equal bytes but different
/// ids are equal pages occupying distinct buffer-pool frames.
static NEXT_PAGE_ID: AtomicU64 = AtomicU64::new(1);

/// Rough encoded size of one value, used by the greedy sealer.  Slightly
/// over-counts (dictionary-encoded strings share arena bytes) which only
/// makes pages smaller than the budget, never larger than intended.
pub fn value_cost(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int64(_) | Value::Float64(_) => 9,
        Value::Bool(_) => 2,
        Value::Utf8(s) => 5 + s.len(),
    }
}

/// Rough encoded size of one row: the sum of its value costs.
pub fn estimate_row_bytes(row: &Tuple) -> usize {
    row.values().iter().map(value_cost).sum()
}

/// Encode `rows` (each of arity `num_cols`) into the page byte layout.
/// Shared by [`Page::seal`] and the table-tail content hash, so a tail
/// sealed later hashes identically to the page it becomes.
pub(crate) fn encode_page_bytes(num_cols: usize, rows: &[Tuple]) -> Vec<u8> {
    let mut columns: Vec<Column> = (0..num_cols).map(|_| Column::default()).collect();
    for row in rows {
        for (col, value) in columns.iter_mut().zip(row.values()) {
            col.push_value(value);
        }
    }
    let mut payload = Vec::new();
    let mut ends = Vec::with_capacity(num_cols);
    for col in &columns {
        col.encode_wire(&mut payload);
        ends.push(payload.len() as u32);
    }
    let mut out = Vec::with_capacity(8 + num_cols * 4 + payload.len());
    out.extend_from_slice(&(num_cols as u32).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for end in ends {
        out.extend_from_slice(&end.to_le_bytes());
    }
    out.extend_from_slice(&payload);
    out
}

/// Where a sealed page's bytes wait between decodes.
#[derive(Debug, Clone)]
enum PageBytes {
    /// Resident: the default; only `Table::spill_with` moves bytes to disk.
    Memory(Arc<[u8]>),
    /// Spilled: the bytes live in a checksummed [`HeapFile`] record and
    /// are read back (and re-validated) on demand.  The heap file is kept
    /// alive by this reference, so a disk page can always load.
    Disk {
        file: Arc<HeapFile>,
        slot: usize,
        len: usize,
    },
}

/// One sealed, immutable page of table rows.
///
/// Cloning is cheap (the bytes are behind an [`Arc`], or on disk) and
/// preserves the page id, so catalog snapshots share buffer-pool frames
/// with the table they were cloned from.
#[derive(Debug, Clone)]
pub struct Page {
    id: u64,
    hash: u64,
    num_cols: u32,
    num_rows: u32,
    bytes: PageBytes,
}

impl PartialEq for Page {
    /// Content equality: ids are frame bookkeeping, not identity.  The
    /// 64-bit content hash (plus the byte length) stands in for the bytes
    /// themselves so disk-backed pages compare without I/O.
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.byte_len() == other.byte_len()
    }
}

impl Page {
    /// Seal `rows` (each of arity `num_cols`) into an immutable page with a
    /// fresh id.  The caller (the table layer) has already validated arity.
    pub fn seal(num_cols: usize, rows: &[Tuple]) -> Page {
        Page::adopt(
            num_cols as u32,
            rows.len() as u32,
            encode_page_bytes(num_cols, rows).into(),
        )
    }

    /// Rebuild a page from wire bytes, fully validating the encoding: the
    /// header, the slot directory, and every column payload are decoded
    /// once here, so later [`Page::decode_rows`] calls on an adopted page
    /// cannot fail.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Page> {
        let (num_cols, num_rows) = read_header(&mut Reader::new(&bytes)).map_err(corrupt_page)?;
        // Columns vouch for the row count; with none, nothing does, and a
        // corrupt header could demand billions of empty tuples.
        if num_cols == 0 && num_rows != 0 {
            return Err(Error::Invalid(format!(
                "corrupt page: {num_rows} rows across zero columns"
            )));
        }
        let page = Page::adopt(num_cols, num_rows, bytes.into());
        page.decode_rows()?;
        Ok(page)
    }

    fn adopt(num_cols: u32, num_rows: u32, bytes: Arc<[u8]>) -> Page {
        Page {
            id: NEXT_PAGE_ID.fetch_add(1, Ordering::Relaxed),
            hash: fnv1a(FNV_OFFSET, &bytes),
            num_cols,
            num_rows,
            bytes: PageBytes::Memory(bytes),
        }
    }

    /// The disk-backed twin of this page: same id, hash, and shape, bytes
    /// waiting in `file` at `slot`.  Only the pager calls this, *after*
    /// appending the identical bytes.
    pub(crate) fn spilled(&self, file: Arc<HeapFile>, slot: usize, len: usize) -> Page {
        Page {
            id: self.id,
            hash: self.hash,
            num_cols: self.num_cols,
            num_rows: self.num_rows,
            bytes: PageBytes::Disk { file, slot, len },
        }
    }

    /// The process-unique frame key.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// FNV-1a hash of the encoded bytes — the cross-process content identity.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Number of rows sealed into this page.
    pub fn num_rows(&self) -> usize {
        self.num_rows as usize
    }

    /// Arity of the sealed rows.
    pub fn num_cols(&self) -> usize {
        self.num_cols as usize
    }

    /// True when the bytes wait on disk rather than in memory.
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.bytes, PageBytes::Disk { .. })
    }

    /// Encoded length in bytes (known without I/O in either mode).
    pub fn byte_len(&self) -> usize {
        match &self.bytes {
            PageBytes::Memory(b) => b.len(),
            PageBytes::Disk { len, .. } => *len,
        }
    }

    /// The encoded bytes, as shipped verbatim inside `Plan` frames.  A
    /// memory page hands out its resident `Arc`; a disk page reads its
    /// heap record back (counting a disk read) and re-validates both the
    /// record checksum and this page's content hash, so a torn or stale
    /// record surfaces as [`Error::CorruptPage`] instead of wrong rows.
    pub fn load_bytes(&self) -> Result<Arc<[u8]>> {
        match &self.bytes {
            PageBytes::Memory(b) => Ok(Arc::clone(b)),
            PageBytes::Disk { file, slot, .. } => {
                let bytes = file.read_page(*slot)?;
                if fnv1a(FNV_OFFSET, &bytes) != self.hash {
                    return Err(Error::CorruptPage(format!(
                        "{}: slot {slot} bytes no longer match page hash",
                        file.path().display()
                    )));
                }
                Ok(bytes.into())
            }
        }
    }

    /// Decode every row of the page.  Pages built by [`Page::seal`] or
    /// validated by [`Page::from_bytes`] always decode; the error branch
    /// fires on bytes that skipped both constructors, or on a disk page
    /// whose heap record fails to load or validate.
    pub fn decode_rows(&self) -> Result<Vec<Tuple>> {
        let bytes = self.load_bytes()?;
        self.decode_rows_from(&bytes)
    }

    fn decode_rows_from(&self, bytes: &[u8]) -> Result<Vec<Tuple>> {
        let columns = decode_columns(bytes, self.num_cols, self.num_rows).map_err(corrupt_page)?;
        let mut rows = Vec::with_capacity(self.num_rows as usize);
        for r in 0..self.num_rows as usize {
            rows.push(Tuple::new(columns.iter().map(|c| c.value_at(r)).collect()));
        }
        Ok(rows)
    }
}

fn corrupt_page(e: DecodeError) -> Error {
    Error::Invalid(format!("corrupt page: {e}"))
}

/// Read a page header: `(num_cols, num_rows)`.
fn read_header(r: &mut Reader<'_>) -> DecodeResult<(u32, u32)> {
    Ok((r.u32("page column count")?, r.u32("page row count")?))
}

/// Decode a page's columns, checking the header against the expected
/// shape and every column against its slot-directory entry.
fn decode_columns(bytes: &[u8], num_cols: u32, num_rows: u32) -> DecodeResult<Vec<Column>> {
    let mut r = Reader::new(bytes);
    if read_header(&mut r)? != (num_cols, num_rows) {
        return Err(DecodeError::corrupt(
            "page header",
            "disagrees with page metadata",
        ));
    }
    let ends = r.u32s(num_cols as usize, "page slot directory")?;
    let payload_start = r.position();
    let mut columns = Vec::with_capacity(ends.len());
    for end in ends {
        let column = Column::decode_wire(&mut r)?;
        if column.len() != num_rows as usize {
            return Err(DecodeError::corrupt(
                "page column",
                "length disagrees with header",
            ));
        }
        if r.position() - payload_start != end as usize {
            return Err(DecodeError::corrupt(
                "page slot directory",
                "disagrees with column payload",
            ));
        }
        columns.push(column);
    }
    r.finish("page")?;
    Ok(columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::from_iter_values([
                    Value::Int64(i as i64),
                    Value::Float64(i as f64 * 0.5),
                    Value::str(format!("row-{i}")),
                ])
            })
            .collect()
    }

    #[test]
    fn seal_decode_identity() {
        let original = rows(37);
        let page = Page::seal(3, &original);
        assert_eq!(page.num_rows(), 37);
        assert_eq!(page.num_cols(), 3);
        assert_eq!(page.decode_rows().unwrap(), original);
    }

    #[test]
    fn empty_page_round_trips() {
        let page = Page::seal(2, &[]);
        assert_eq!(page.num_rows(), 0);
        assert_eq!(page.decode_rows().unwrap(), Vec::<Tuple>::new());
    }

    #[test]
    fn from_bytes_round_trip_preserves_hash() {
        let page = Page::seal(3, &rows(10));
        let rebuilt = Page::from_bytes(page.load_bytes().unwrap().to_vec()).unwrap();
        assert_eq!(rebuilt.content_hash(), page.content_hash());
        assert_ne!(
            rebuilt.id(),
            page.id(),
            "rebuilt page gets a fresh frame key"
        );
        assert_eq!(rebuilt, page, "equality is by content, not id");
        assert_eq!(rebuilt.decode_rows().unwrap(), page.decode_rows().unwrap());
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let page = Page::seal(3, &rows(4));
        let sealed = page.load_bytes().unwrap();
        assert!(Page::from_bytes(Vec::new()).is_err());
        assert!(Page::from_bytes(sealed[..6].to_vec()).is_err());
        // Flip a slot-directory byte: decode must notice the disagreement.
        let mut bytes = sealed.to_vec();
        bytes[9] ^= 0x5a;
        assert!(Page::from_bytes(bytes).is_err());
        // Truncate the payload mid-column.
        let mut bytes = sealed.to_vec();
        bytes.truncate(bytes.len() - 3);
        assert!(Page::from_bytes(bytes).is_err());
    }

    #[test]
    fn zero_column_headers_cannot_claim_rows() {
        // Eight bytes claiming 2^26 empty rows: nothing vouches for the
        // count, so it is refused before a single tuple is built.
        let mut bytes = 0u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(1u32 << 26).to_le_bytes());
        assert!(matches!(Page::from_bytes(bytes), Err(Error::Invalid(_))));
        // The honest zero-column page still round-trips.
        let empty = Page::seal(0, &[]);
        let rebuilt = Page::from_bytes(empty.load_bytes().unwrap().to_vec()).unwrap();
        assert_eq!((rebuilt.num_cols(), rebuilt.num_rows()), (0, 0));
    }

    #[test]
    fn hash_ignores_id_and_tracks_content() {
        let a = Page::seal(3, &rows(5));
        let b = Page::seal(3, &rows(5));
        assert_ne!(a.id(), b.id());
        assert_eq!(a.content_hash(), b.content_hash());
        let c = Page::seal(3, &rows(6));
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn null_and_bool_values_round_trip() {
        let original = vec![
            Tuple::from_iter_values([Value::Null, Value::Bool(true)]),
            Tuple::from_iter_values([Value::Int64(7), Value::Null]),
        ];
        let page = Page::seal(2, &original);
        assert_eq!(page.decode_rows().unwrap(), original);
    }
}
