//! Paged relations: a schema plus sealed heap pages and an open row tail,
//! scanned page-at-a-time through a buffer pool.  Plans (`PlanNode` in
//! `mcdbr-exec`) do the relational work over these scans.

use crate::bufpool::{BufferPool, PageGuard};
use crate::error::{Error, Result};
use crate::page::{estimate_row_bytes, Page, PAGE_BYTES};
use crate::pager::Pager;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A paged in-memory table.
///
/// Rows live in two places: a vector of sealed, immutable [`Page`]s (the
/// heap) and an open `tail` of rows not yet big enough to seal.  Scans read
/// page-at-a-time through a [`BufferPool`], so the decoded working set is
/// bounded by the pool's frame budget rather than by table size.  Cloning a
/// table is cheap — pages are `Arc`-backed and keep their ids, so catalog
/// snapshots share buffer-pool frames with their source.
///
/// Parameter tables (paper §2: `means(CID, m)`; Appendix D: `orders`,
/// `lineitem`) are `Table`s, as are materialized deterministic intermediate
/// results that the replenishment machinery (paper §9) re-reads instead of
/// recomputing.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    pages: Vec<Page>,
    paged_len: usize,
    tail: Vec<Tuple>,
    tail_bytes: usize,
    page_budget: usize,
}

impl PartialEq for Table {
    /// Logical equality: same schema, same rows in order.  Physical layout
    /// (page boundaries, sealed-vs-tail split) does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// Greedily seal `rows` into pages of at most ~`budget` estimated bytes.
fn seal_rows(num_cols: usize, rows: &[Tuple], budget: usize) -> Vec<Page> {
    let mut pages = Vec::new();
    let mut start = 0;
    let mut bytes = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let cost = estimate_row_bytes(row);
        if i > start && bytes + cost > budget {
            pages.push(Page::seal(num_cols, &rows[start..i]));
            start = i;
            bytes = 0;
        }
        bytes += cost;
    }
    if start < rows.len() {
        pages.push(Page::seal(num_cols, &rows[start..]));
    }
    pages
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            pages: Vec::new(),
            paged_len: 0,
            tail: Vec::new(),
            tail_bytes: 0,
            page_budget: PAGE_BYTES,
        }
    }

    /// Create a table from a schema and rows, validating arity.  Every row
    /// is sealed into pages (the default [`PAGE_BYTES`] budget), including
    /// the final partial page, so the layout is a pure function of the rows.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Result<Self> {
        Table::with_page_budget(schema, rows, PAGE_BYTES)
    }

    /// Like [`Table::new`] with an explicit page byte budget.  Tests and
    /// benches use tiny budgets to force many pages (and pool eviction)
    /// from small row counts.
    pub fn with_page_budget(schema: Schema, rows: Vec<Tuple>, budget: usize) -> Result<Self> {
        for row in &rows {
            if row.arity() != schema.len() {
                return Err(Error::ArityMismatch {
                    expected: schema.len(),
                    found: row.arity(),
                });
            }
        }
        let budget = budget.max(1);
        let pages = seal_rows(schema.len(), &rows, budget);
        Ok(Table {
            paged_len: rows.len(),
            schema,
            pages,
            tail: Vec::new(),
            tail_bytes: 0,
            page_budget: budget,
        })
    }

    /// Reassemble a table from shipped parts: sealed pages (already
    /// validated by [`Page::from_bytes`]) plus tail rows.  The wire layer's
    /// table decode lands here, keeping page bytes — and therefore content
    /// hashes — identical on both ends.
    pub fn from_parts(schema: Schema, pages: Vec<Page>, tail: Vec<Tuple>) -> Result<Self> {
        for page in &pages {
            if page.num_cols() != schema.len() {
                return Err(Error::ArityMismatch {
                    expected: schema.len(),
                    found: page.num_cols(),
                });
            }
        }
        for row in &tail {
            if row.arity() != schema.len() {
                return Err(Error::ArityMismatch {
                    expected: schema.len(),
                    found: row.arity(),
                });
            }
        }
        Ok(Table {
            paged_len: pages.iter().map(Page::num_rows).sum(),
            tail_bytes: tail.iter().map(estimate_row_bytes).sum(),
            schema,
            pages,
            tail,
            page_budget: PAGE_BYTES,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The sealed pages of the heap, in row order.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Rows appended since the last page was sealed.
    pub fn tail_rows(&self) -> &[Tuple] {
        &self.tail
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.paged_len + self.tail.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row after checking its arity.  The row lands in the open
    /// tail; once the tail's estimated bytes reach the page budget it is
    /// sealed into a fresh page.
    pub fn push(&mut self, row: Tuple) -> Result<()> {
        if row.arity() != self.schema.len() {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                found: row.arity(),
            });
        }
        self.tail_bytes += estimate_row_bytes(&row);
        self.tail.push(row);
        if self.tail_bytes >= self.page_budget {
            self.pages.push(Page::seal(self.schema.len(), &self.tail));
            self.paged_len += self.tail.len();
            self.tail.clear();
            self.tail_bytes = 0;
        }
        Ok(())
    }

    /// Spill every memory-backed sealed page through `pager` into a fresh
    /// heap file, returning how many pages moved.  This is the only way a
    /// page reaches disk: the caller that owns the memory budget decides.
    /// Pages keep their own `Arc` to the file, so clones and catalog
    /// snapshots stay readable after this table drops.
    pub fn spill_with(&mut self, pager: &Pager) -> Result<usize> {
        if self.pages.iter().all(Page::is_disk_backed) {
            return Ok(0);
        }
        let heap = pager.create_spill_heap()?;
        let mut moved = 0;
        for page in &mut self.pages {
            if !page.is_disk_backed() {
                *page = pager.spill_page(page, &heap)?;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Bytes of sealed pages currently resident in memory.  Disk-backed
    /// pages contribute zero: their only resident form is the decoded
    /// buffer-pool frame, which the frame budget bounds.
    pub fn resident_sealed_bytes(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| !p.is_disk_backed())
            .map(Page::byte_len)
            .sum()
    }

    /// Append many rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Tuple>) -> Result<()> {
        for row in rows {
            self.push(row)?;
        }
        Ok(())
    }

    /// Iterate over rows (owned), scanning page-at-a-time through the
    /// process-wide [`BufferPool::global`].
    pub fn iter(&self) -> TableIter<'_> {
        self.iter_with(BufferPool::global())
    }

    /// Like [`Table::iter`], but through an explicit pool — how tests pin
    /// eviction behaviour to a private pool with exact accounting.
    pub fn iter_with<'a>(&'a self, pool: &'a BufferPool) -> TableIter<'a> {
        TableIter {
            table: self,
            pool,
            next_page: 0,
            guard: None,
            row_idx: 0,
            tail_idx: 0,
        }
    }

    /// Visit every row by reference through the process-wide
    /// [`BufferPool::global`], stopping at the first error.  The same pins
    /// in the same order as [`Table::iter`], but no row is cloned: the
    /// visitor borrows each row from the pinned frame.
    pub fn try_for_each_row(&self, mut visit: impl FnMut(&Tuple) -> Result<()>) -> Result<()> {
        let pool = BufferPool::global();
        for page in &self.pages {
            // Sealed (or wire-validated) pages always decode; see
            // `Page::decode_rows`.
            let guard = pool.pin(page).expect("sealed page decodes");
            guard.rows().iter().try_for_each(&mut visit)?;
        }
        self.tail.iter().try_for_each(visit)
    }

    /// The column at `name` as a vector of values.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        Ok(self.iter().map(|r| r.value(idx).clone()).collect())
    }

    /// The column at `name` as a vector of f64 (errors on non-numeric values).
    pub fn column_f64(&self, name: &str) -> Result<Vec<f64>> {
        let idx = self.schema.index_of(name)?;
        self.iter().map(|r| r.value(idx).as_f64()).collect()
    }
}

impl<'a> IntoIterator for &'a Table {
    type Item = Tuple;
    type IntoIter = TableIter<'a>;

    fn into_iter(self) -> TableIter<'a> {
        self.iter()
    }
}

/// Row iterator over a table: pins one page at a time (the guard keeps the
/// current frame unevictable), then drains the open tail.  Rows come out
/// owned — page frames are shared cache entries, so handing out references
/// across pin boundaries is not possible.
pub struct TableIter<'a> {
    table: &'a Table,
    pool: &'a BufferPool,
    next_page: usize,
    guard: Option<PageGuard<'a>>,
    row_idx: usize,
    tail_idx: usize,
}

impl Iterator for TableIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if let Some(guard) = &self.guard {
                if self.row_idx < guard.rows().len() {
                    let row = guard.rows()[self.row_idx].clone();
                    self.row_idx += 1;
                    return Some(row);
                }
                self.guard = None;
            }
            if self.next_page < self.table.pages.len() {
                let page = &self.table.pages[self.next_page];
                self.next_page += 1;
                self.row_idx = 0;
                // Sealed (or wire-validated) pages always decode; see
                // `Page::decode_rows`.
                self.guard = Some(self.pool.pin(page).expect("sealed page decodes"));
                continue;
            }
            if self.tail_idx < self.table.tail.len() {
                let row = self.table.tail[self.tail_idx].clone();
                self.tail_idx += 1;
                return Some(row);
            }
            return None;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let consumed_pages: usize = self.table.pages[..self.next_page]
            .iter()
            .map(Page::num_rows)
            .sum();
        let remaining = self.table.len() - consumed_pages - self.tail_idx + {
            // Rows still unread in the currently pinned page.
            self.guard
                .as_ref()
                .map_or(0, |g| g.rows().len() - self.row_idx)
        };
        (remaining, Some(remaining))
    }
}

impl std::fmt::Debug for TableIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableIter")
            .field("next_page", &self.next_page)
            .field("row_idx", &self.row_idx)
            .field("tail_idx", &self.tail_idx)
            .finish()
    }
}

/// Builder for constructing tables row by row with arity checking deferred
/// until `build()`.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl TableBuilder {
    /// Start a builder for the given schema.
    pub fn new(schema: Schema) -> Self {
        TableBuilder {
            schema,
            rows: Vec::new(),
        }
    }

    /// Add a row.
    pub fn row<I, V>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.rows.push(Tuple::from_iter_values(values));
        self
    }

    /// Add a pre-built tuple.
    pub fn tuple(mut self, tuple: Tuple) -> Self {
        self.rows.push(tuple);
        self
    }

    /// Finish, validating every row's arity against the schema.
    pub fn build(self) -> Result<Table> {
        Table::new(self.schema, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn means_table() -> Table {
        // The §4.2 example: three customers with mean losses 3.0, 4.0, 5.0.
        TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
            .row([Value::Int64(1), Value::Float64(3.0)])
            .row([Value::Int64(2), Value::Float64(4.0)])
            .row([Value::Int64(3), Value::Float64(5.0)])
            .build()
            .unwrap()
    }

    fn wide_rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::from_iter_values([Value::Int64(i as i64), Value::Float64(i as f64)]))
            .collect()
    }

    #[test]
    fn build_and_len() {
        let t = means_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().names(), vec!["cid", "m"]);
        assert!(!t.is_empty());
    }

    #[test]
    fn arity_is_checked() {
        let schema = Schema::new(vec![Field::int64("a")]);
        let err = Table::new(schema.clone(), vec![Tuple::from_iter_values([1i64, 2i64])]);
        assert!(matches!(
            err,
            Err(Error::ArityMismatch {
                expected: 1,
                found: 2
            })
        ));
        let mut t = Table::empty(schema);
        assert!(t.push(Tuple::from_iter_values([1i64])).is_ok());
        assert!(t.push(Tuple::from_iter_values([1i64, 2i64])).is_err());
    }

    #[test]
    fn column_extraction() {
        let t = means_table();
        assert_eq!(t.column_f64("m").unwrap(), vec![3.0, 4.0, 5.0]);
        assert_eq!(t.column("cid").unwrap().len(), 3);
        assert!(t.column("nope").is_err());
    }

    #[test]
    fn extend_rows() {
        let mut t = Table::empty(Schema::new(vec![Field::int64("x")]));
        t.extend((0..5).map(|i| Tuple::from_iter_values([i as i64])))
            .unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn tiny_budget_spans_many_pages() {
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let rows = wide_rows(100);
        let t = Table::with_page_budget(schema, rows.clone(), 64).unwrap();
        assert!(t.pages().len() > 10, "64-byte budget must split 100 rows");
        assert_eq!(t.len(), 100);
        assert_eq!(t.iter().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn row_visitor_borrows_the_scan_and_stops_at_the_first_error() {
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let mut t = Table::with_page_budget(schema, wide_rows(40), 64).unwrap();
        t.push(wide_rows(41).pop().unwrap()).unwrap();
        assert!(t.pages().len() > 1 && !t.tail_rows().is_empty());
        let mut visited = Vec::new();
        t.try_for_each_row(|row| {
            visited.push(row.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, t.iter().collect::<Vec<_>>());
        let mut seen = 0;
        let err = t.try_for_each_row(|_| {
            seen += 1;
            if seen == 3 {
                return Err(Error::Invalid("third row".into()));
            }
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(seen, 3);
    }

    #[test]
    fn push_seals_pages_at_budget() {
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let mut t = Table::with_page_budget(schema, Vec::new(), 64).unwrap();
        for row in wide_rows(50) {
            t.push(row).unwrap();
        }
        assert!(!t.pages().is_empty(), "pushes past the budget seal pages");
        assert_eq!(t.len(), 50);
        assert_eq!(t.iter().collect::<Vec<_>>(), wide_rows(50));
    }

    #[test]
    fn logical_equality_ignores_layout() {
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let coarse = Table::new(schema.clone(), wide_rows(40)).unwrap();
        let fine = Table::with_page_budget(schema.clone(), wide_rows(40), 32).unwrap();
        assert_ne!(coarse.pages().len(), fine.pages().len());
        assert_eq!(coarse, fine, "equality is logical, not physical");
    }

    #[test]
    fn from_parts_round_trips() {
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let mut t = Table::with_page_budget(schema.clone(), wide_rows(30), 64).unwrap();
        t.push(Tuple::from_iter_values([
            Value::Int64(99),
            Value::Float64(9.9),
        ]))
        .unwrap();
        let rebuilt = Table::from_parts(
            schema,
            t.pages()
                .iter()
                .map(|p| Page::from_bytes(p.load_bytes().unwrap().to_vec()).unwrap())
                .collect(),
            t.tail_rows().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, t);
        assert_eq!(rebuilt.pages(), t.pages(), "the page bytes are kept");
    }

    #[test]
    fn explicit_spill_keeps_scans_bit_identical() {
        let root = std::env::temp_dir().join(format!("mcdbr-table-spill-{}", std::process::id()));
        let pager = Pager::new(&root).unwrap();
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let mut t = Table::with_page_budget(schema, wide_rows(100), 64).unwrap();
        let before: Vec<Tuple> = t.iter_with(&BufferPool::new(usize::MAX)).collect();
        assert!(t.resident_sealed_bytes() > 0);
        assert_eq!(t.spill_with(&pager).unwrap(), t.pages().len());
        assert_eq!(t.resident_sealed_bytes(), 0, "spilled pages hold no bytes");
        assert!(t.pages().iter().all(Page::is_disk_backed));
        assert_eq!(t.spill_with(&pager).unwrap(), 0, "second spill is a no-op");
        let after: Vec<Tuple> = t.iter_with(&BufferPool::new(2)).collect();
        assert_eq!(before, after, "spilling must not change scan results");
        assert!(pager.stats().disk_reads > 0, "tiny pool re-read from disk");
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let fresh = Table::with_page_budget(schema, wide_rows(100), 64).unwrap();
        assert_eq!(
            t.pages(),
            fresh.pages(),
            "spilling keeps every page's bytes"
        );
        drop(t);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scans_through_private_pool_under_eviction() {
        let schema = Schema::new(vec![Field::int64("a"), Field::float64("b")]);
        let t = Table::with_page_budget(schema, wide_rows(100), 64).unwrap();
        let unbounded = BufferPool::new(usize::MAX);
        let tiny = BufferPool::new(2);
        let full: Vec<Tuple> = t.iter_with(&unbounded).collect();
        let evicting: Vec<Tuple> = t.iter_with(&tiny).collect();
        assert_eq!(full, evicting, "eviction must not change scan results");
        assert!(tiny.stats().pool_evictions > 0, "tiny pool must evict");
    }
}
