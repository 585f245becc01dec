//! Columnar VG-output blocks: typed structure-of-arrays buffers for phase-2
//! block materialization.
//!
//! The row representation of a materialized stream block —
//! `Vec<Vec<Tuple>>`, one boxed `Vec<Value>` per VG output row per stream
//! position — pays a heap allocation (and a `Value` clone) per cell per
//! position.  A [`ColumnBlock`] stores the same data column-major instead:
//! one typed buffer per VG output *cell* (`Vec<i64>` / `Vec<f64>` /
//! `Vec<bool>`, UTF-8 interned via offsets into a shared byte arena), each
//! buffer holding that cell's value at every block position, plus a packed
//! null bitmap per column.  Batched VG generation writes scalars straight
//! into these buffers; reads come back as slices, and boxed [`Value`]s are
//! only built at the bundle-set boundary.
//!
//! The layout for a VG with output shape `rows × cols` over a block of `n`
//! positions:
//!
//! ```text
//! ColumnBlock { rows, cols,
//!   columns: [ Column(row 0, col 0), Column(row 0, col 1), ...,   // row-major
//!              Column(rows-1, cols-1) ] }                         // rows*cols columns
//! Column { data: Float64([v@pos 0, v@pos 1, ..., v@pos n-1]),     // one typed buffer
//!          nulls: Bitmap }                                        // packed u64 words
//! ```
//!
//! Columns type themselves on first push and keep their buffers (and the
//! Utf8 intern dictionary) across [`ColumnBlock::clear`], so pooled blocks
//! reuse capacity instead of reallocating.  A cell that genuinely mixes
//! value types across positions (possible only for `Discrete` VG functions
//! over heterogeneous category lists) demotes itself to a boxed
//! [`ColumnData::Mixed`] row store — the documented fallback row path.

use std::collections::HashMap;
use std::sync::Arc;

use crate::codec::{put_count, DecodeError, DecodeResult, Reader};
use crate::error::{Error, Result};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// A packed null bitmap: bit `i` set means position `i` is SQL NULL.
///
/// The bitmap is sparse-friendly — nothing is stored until the first null —
/// so the common all-non-null column costs one `bool` check per read.
#[derive(Debug, Clone, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    any: bool,
}

impl NullBitmap {
    /// Mark position `idx` as null.
    pub fn set(&mut self, idx: usize) {
        let word = idx / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (idx % 64);
        self.any = true;
    }

    /// Whether position `idx` is null.
    pub fn get(&self, idx: usize) -> bool {
        self.any && (self.words.get(idx / 64).copied().unwrap_or(0) >> (idx % 64)) & 1 == 1
    }

    /// Whether any position is null.
    pub fn any(&self) -> bool {
        self.any
    }

    fn clear(&mut self) {
        self.words.clear();
        self.any = false;
    }

    fn data_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// A dictionary-interned UTF-8 column: per-position `u32` indices into a
/// table of distinct strings stored as offsets into one shared byte arena.
///
/// Equal strings are stored once no matter how many positions carry them —
/// a `Discrete` VG over `k` categories stores `k` arena entries and `n`
/// 4-byte indices for an `n`-position block.  The distinct strings are also
/// kept as `Arc<str>` handles so the bundle-set boundary clones refcounts,
/// never bytes.
#[derive(Debug, Clone)]
pub struct Utf8Column {
    indices: Vec<u32>,
    /// `offsets[i]..offsets[i+1]` is interned string `i`'s byte range.
    offsets: Vec<u32>,
    arena: Vec<u8>,
    /// The distinct strings, in intern order, as cheaply clonable handles.
    dict: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl Default for Utf8Column {
    fn default() -> Self {
        Utf8Column {
            indices: Vec::new(),
            offsets: vec![0],
            arena: Vec::new(),
            dict: Vec::new(),
            lookup: HashMap::new(),
        }
    }
}

impl Utf8Column {
    /// Intern `s`, returning its dictionary id (existing id if already seen).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = self.dict.len() as u32;
        self.arena.extend_from_slice(s.as_bytes());
        self.offsets.push(self.arena.len() as u32);
        let handle: Arc<str> = Arc::from(s);
        self.dict.push(Arc::clone(&handle));
        self.lookup.insert(handle, id);
        id
    }

    /// Append a position holding the already-interned string `id`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `id` was not returned by [`Utf8Column::intern`] on
    /// this column since its last clear.
    pub fn push_id(&mut self, id: u32) {
        debug_assert!((id as usize) < self.dict.len(), "uninterned dictionary id");
        self.indices.push(id);
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if no positions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of distinct interned strings.
    pub fn distinct(&self) -> usize {
        self.dict.len()
    }

    /// The shared handle for the string at position `row`.
    pub fn handle_at(&self, row: usize) -> &Arc<str> {
        &self.dict[self.indices[row] as usize]
    }

    fn clear(&mut self) {
        self.indices.clear();
        self.offsets.truncate(1);
        self.arena.clear();
        self.dict.clear();
        self.lookup.clear();
    }

    fn data_bytes(&self) -> usize {
        self.indices.len() * 4 + self.offsets.len() * 4 + self.arena.len()
    }
}

/// The typed buffer behind one column.
#[derive(Debug, Clone, Default)]
pub enum ColumnData {
    /// No non-null value pushed yet; the column types itself on first push.
    #[default]
    Untyped,
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit IEEE floats (bit-exact; no transformation on the way in or out).
    Float64(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Interned UTF-8 (see [`Utf8Column`]).
    Utf8(Utf8Column),
    /// Boxed row-wise fallback for cells that mix value types across
    /// positions.  Only heterogeneous `Discrete` category lists trigger this.
    Mixed(Vec<Value>),
}

/// One column of a [`ColumnBlock`]: a typed buffer plus a null bitmap.
#[derive(Debug, Clone, Default)]
pub struct Column {
    len: usize,
    data: ColumnData,
    nulls: NullBitmap,
}

impl Column {
    /// Number of positions pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no positions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column's resolved type, if any non-null value has been pushed.
    pub fn data_type(&self) -> Option<DataType> {
        match &self.data {
            ColumnData::Untyped => None,
            ColumnData::Int64(_) => Some(DataType::Int64),
            ColumnData::Float64(_) => Some(DataType::Float64),
            ColumnData::Bool(_) => Some(DataType::Bool),
            ColumnData::Utf8(_) => Some(DataType::Utf8),
            ColumnData::Mixed(_) => None,
        }
    }

    /// The typed buffer (read-only).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// Append a null position.
    pub fn push_null(&mut self) {
        self.nulls.set(self.len);
        self.push_placeholder();
        self.len += 1;
    }

    /// Append an `i64` position.
    pub fn push_i64(&mut self, x: i64) {
        match &mut self.data {
            ColumnData::Int64(v) => v.push(x),
            _ => self.push_slow(Value::Int64(x)),
        }
        self.len += 1;
    }

    /// Append an `f64` position (stored bit-exactly).
    pub fn push_f64(&mut self, x: f64) {
        match &mut self.data {
            ColumnData::Float64(v) => v.push(x),
            _ => self.push_slow(Value::Float64(x)),
        }
        self.len += 1;
    }

    /// Append a `bool` position.
    pub fn push_bool(&mut self, x: bool) {
        match &mut self.data {
            ColumnData::Bool(v) => v.push(x),
            _ => self.push_slow(Value::Bool(x)),
        }
        self.len += 1;
    }

    /// Append a string position, interning it in the column dictionary.
    pub fn push_str(&mut self, s: &str) {
        match &mut self.data {
            ColumnData::Utf8(col) => {
                let id = col.intern(s);
                col.push_id(id);
            }
            _ => self.push_slow(Value::str(s)),
        }
        self.len += 1;
    }

    /// Append any value (dispatches to the typed pushes; `Null` sets the
    /// bitmap; a type clash demotes the column to [`ColumnData::Mixed`]).
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int64(x) => self.push_i64(*x),
            Value::Float64(x) => self.push_f64(*x),
            Value::Bool(x) => self.push_bool(*x),
            Value::Utf8(s) => match &mut self.data {
                ColumnData::Utf8(col) => {
                    let id = col.intern(s);
                    col.push_id(id);
                    self.len += 1;
                }
                _ => {
                    self.push_slow(v.clone());
                    self.len += 1;
                }
            },
        }
    }

    /// Intern `s` into the column's Utf8 dictionary without appending a
    /// position, (re)typing an *empty* column as Utf8 if needed — the
    /// `Discrete` VG fast path interns its categories once, then pushes
    /// dictionary ids per sampled row ([`Column::push_utf8_id`]).  A
    /// cleared column keeps its previous type for capacity reuse, so a
    /// pool-recycled buffer last used by a numeric stream retypes here.
    pub fn intern_utf8(&mut self, s: &str) -> Result<u32> {
        if self.len == 0 && !matches!(self.data, ColumnData::Utf8(_)) {
            self.data = ColumnData::Utf8(Utf8Column::default());
        }
        match &mut self.data {
            ColumnData::Utf8(col) => Ok(col.intern(s)),
            other => Err(Error::Invalid(format!(
                "cannot intern a string into a non-empty column typed {other:?}"
            ))),
        }
    }

    /// Append a position holding the pre-interned string `id` (from
    /// [`Column::intern_utf8`]).
    pub fn push_utf8_id(&mut self, id: u32) -> Result<()> {
        match &mut self.data {
            ColumnData::Utf8(col) => {
                col.push_id(id);
                self.len += 1;
                Ok(())
            }
            other => Err(Error::Invalid(format!(
                "cannot push an interned id into a column typed {other:?}"
            ))),
        }
    }

    /// Typed-push slow path: append to an existing `Mixed` store, (re)type
    /// an empty or untyped column (backfilling placeholder slots for any
    /// leading nulls), or demote a genuinely mismatched non-empty column to
    /// `Mixed`.  Does not bump `len` — the typed-push callers do.
    fn push_slow(&mut self, v: Value) {
        if self.len == 0 {
            // Empty columns retype freely — before the Mixed fast path, so
            // a pool-recycled buffer last demoted by a heterogeneous
            // Discrete stream recovers a typed buffer instead of staying
            // boxed forever.  (Capacity of the discarded buffer is lost;
            // same-type reuse — the common case — keeps it.)
            self.data = ColumnData::Untyped;
        }
        if let ColumnData::Mixed(vals) = &mut self.data {
            // Already demoted mid-column: a plain push, never a
            // re-collection — mixed cells must stay O(1) amortized.
            vals.push(v);
            return;
        }
        if matches!(self.data, ColumnData::Untyped) {
            self.data = match &v {
                Value::Int64(_) => ColumnData::Int64(vec![0; self.len]),
                Value::Float64(_) => ColumnData::Float64(vec![0.0; self.len]),
                Value::Bool(_) => ColumnData::Bool(vec![false; self.len]),
                Value::Utf8(_) => {
                    let mut col = Utf8Column::default();
                    if self.len > 0 {
                        let id = col.intern("");
                        for _ in 0..self.len {
                            col.push_id(id);
                        }
                    }
                    ColumnData::Utf8(col)
                }
                // push_value handled Null before reaching here.
                Value::Null => unreachable!("null goes through push_null"),
            };
            // Retry on the freshly typed buffer.
            match (&mut self.data, v) {
                (ColumnData::Int64(buf), Value::Int64(x)) => buf.push(x),
                (ColumnData::Float64(buf), Value::Float64(x)) => buf.push(x),
                (ColumnData::Bool(buf), Value::Bool(x)) => buf.push(x),
                (ColumnData::Utf8(col), Value::Utf8(s)) => {
                    let id = col.intern(&s);
                    col.push_id(id);
                }
                _ => unreachable!("variant chosen from the value"),
            }
        } else {
            // Type clash: demote to the boxed row store, preserving every
            // existing value (and nulls) exactly.
            let mut boxed: Vec<Value> = (0..self.len).map(|i| self.value_at(i)).collect();
            boxed.push(v);
            self.data = ColumnData::Mixed(boxed);
        }
    }

    /// Placeholder slot for a null position, keeping typed buffers aligned
    /// with the bitmap.  Untyped columns store nothing until they type.
    fn push_placeholder(&mut self) {
        match &mut self.data {
            ColumnData::Untyped => {}
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Utf8(col) => {
                let id = col.intern("");
                col.push_id(id);
            }
            ColumnData::Mixed(v) => v.push(Value::Null),
        }
    }

    /// The boxed value at position `idx` (a refcount bump for strings, a
    /// copy for scalars).
    pub fn value_at(&self, idx: usize) -> Value {
        if self.nulls.get(idx) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Untyped => Value::Null,
            ColumnData::Int64(v) => Value::Int64(v[idx]),
            ColumnData::Float64(v) => Value::Float64(v[idx]),
            ColumnData::Bool(v) => Value::Bool(v[idx]),
            ColumnData::Utf8(col) => Value::Utf8(Arc::clone(col.handle_at(idx))),
            ColumnData::Mixed(v) => v[idx].clone(),
        }
    }

    /// Materialize the whole column as boxed values — the bundle-set
    /// boundary, and the only place a full `Vec<Value>` is built.
    pub fn values_out(&self) -> Vec<Value> {
        if self.nulls.any() {
            return (0..self.len).map(|i| self.value_at(i)).collect();
        }
        match &self.data {
            ColumnData::Untyped => vec![Value::Null; self.len],
            ColumnData::Int64(v) => v.iter().map(|&x| Value::Int64(x)).collect(),
            ColumnData::Float64(v) => v.iter().map(|&x| Value::Float64(x)).collect(),
            ColumnData::Bool(v) => v.iter().map(|&x| Value::Bool(x)).collect(),
            ColumnData::Utf8(col) => (0..self.len)
                .map(|i| Value::Utf8(Arc::clone(col.handle_at(i))))
                .collect(),
            ColumnData::Mixed(v) => v.clone(),
        }
    }

    /// The raw `f64` slice, when the column is typed `Float64` and null-free.
    pub fn f64_slice(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float64(v) if !self.nulls.any() => Some(v),
            _ => None,
        }
    }

    /// Append `n` `Float64` positions initialized to `0.0` and return the
    /// appended slice for in-place batch writes — the two-pass batched VG
    /// kernels fill it with uniforms, then transform it in place.
    ///
    /// An empty column retypes itself to `Float64` (a pool-recycled buffer
    /// last used by the same stream keeps its capacity; one last used by a
    /// string stream retypes and starts cold, exactly like the push path).
    /// Returns `None` when the column already holds non-`Float64` data, in
    /// which case the caller falls back to per-value pushes.
    pub fn extend_f64_zeroed(&mut self, n: usize) -> Option<&mut [f64]> {
        if self.len == 0 && !matches!(self.data, ColumnData::Float64(_)) {
            self.data = ColumnData::Float64(Vec::new());
        }
        match &mut self.data {
            ColumnData::Float64(v) => {
                let start = v.len();
                v.resize(start + n, 0.0);
                self.len += n;
                Some(&mut v[start..])
            }
            _ => None,
        }
    }

    /// Append the `Float64` positions yielded by `values` and return the
    /// appended slice — the single-write analogue of
    /// [`Column::extend_f64_zeroed`] for batched kernels whose first pass
    /// produces every slot value anyway (no zero-fill that is immediately
    /// overwritten).  Same retyping rules; returns `None`, with the column
    /// untouched, when it already holds non-`Float64` data.
    pub fn extend_f64_values(
        &mut self,
        values: impl ExactSizeIterator<Item = f64>,
    ) -> Option<&mut [f64]> {
        if self.len == 0 && !matches!(self.data, ColumnData::Float64(_)) {
            self.data = ColumnData::Float64(Vec::new());
        }
        match &mut self.data {
            ColumnData::Float64(v) => {
                let start = v.len();
                v.extend(values);
                self.len += v.len() - start;
                Some(&mut v[start..])
            }
            _ => None,
        }
    }

    /// Logical bytes held by the column's buffers.
    pub fn data_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Untyped => 0,
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Utf8(col) => col.data_bytes(),
            ColumnData::Mixed(v) => v.len() * std::mem::size_of::<Value>(),
        };
        data + self.nulls.data_bytes()
    }

    /// Reserve room for `additional` more positions.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Untyped => {}
            ColumnData::Int64(v) => v.reserve(additional),
            ColumnData::Float64(v) => v.reserve(additional),
            ColumnData::Bool(v) => v.reserve(additional),
            ColumnData::Utf8(col) => col.indices.reserve(additional),
            ColumnData::Mixed(v) => v.reserve(additional),
        }
    }

    /// Clear all positions, keeping the typed buffer (and its capacity) for
    /// reuse.  The Utf8 dictionary is emptied too: pooled buffers must not
    /// leak one block's strings into the next.
    pub fn clear(&mut self) {
        self.len = 0;
        self.nulls.clear();
        match &mut self.data {
            ColumnData::Untyped => {}
            ColumnData::Int64(v) => v.clear(),
            ColumnData::Float64(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Utf8(col) => col.clear(),
            ColumnData::Mixed(v) => v.clear(),
        }
    }

    /// Append this column's wire encoding to `out`: the typed buffer (raw
    /// little-endian scalars; dictionary indices + offsets + byte arena for
    /// Utf8; tagged values for Mixed) preceded by the packed null-bitmap
    /// words.  Floats travel as raw bits, so the round trip is bit-exact.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        put_count(out, self.len);
        put_count(out, self.nulls.words.len());
        for word in &self.nulls.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        match &self.data {
            ColumnData::Untyped => out.push(0),
            ColumnData::Int64(v) => {
                out.push(1);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float64(v) => {
                out.push(2);
                for x in v {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            ColumnData::Bool(v) => {
                out.push(3);
                out.extend(v.iter().map(|&b| u8::from(b)));
            }
            ColumnData::Utf8(col) => {
                out.push(4);
                for idx in &col.indices {
                    out.extend_from_slice(&idx.to_le_bytes());
                }
                put_count(out, col.dict.len());
                for offset in &col.offsets {
                    out.extend_from_slice(&offset.to_le_bytes());
                }
                put_count(out, col.arena.len());
                out.extend_from_slice(&col.arena);
            }
            ColumnData::Mixed(v) => {
                out.push(5);
                for value in v {
                    value.encode_wire(out);
                }
            }
        }
    }

    /// Decode one column.  Truncated or corrupt input (unknown type tag,
    /// out-of-range dictionary data, invalid UTF-8) is a typed
    /// [`DecodeError`]; a successful decode reconstructs every position —
    /// and the Utf8 intern dictionary — exactly.  Typed buffers decode in
    /// one bounds check each.
    pub fn decode_wire(r: &mut Reader<'_>) -> DecodeResult<Column> {
        let len = r.u32("column length")? as usize;
        let num_words = r.u32("null bitmap length")? as usize;
        let words = r.u64s(num_words, "null bitmap")?;
        let any = words.iter().any(|&w| w != 0);
        let nulls = NullBitmap { words, any };
        let data = match r.u8("column type tag")? {
            0 => {
                // An Untyped column carries no buffer, so nothing below
                // vouches for `len`.  Untyped positions only ever come from
                // pushes of NULL, so a genuine encoding's bitmap words cover
                // every position — use that to reject a corrupt length.
                if len > num_words * 64 {
                    return Err(DecodeError::corrupt(
                        "untyped column",
                        "length exceeds its null bitmap",
                    ));
                }
                ColumnData::Untyped
            }
            1 => ColumnData::Int64(r.i64s(len, "Int64 column")?),
            2 => ColumnData::Float64(r.f64s(len, "Float64 column")?),
            3 => ColumnData::Bool(
                r.take(len, "Bool column")?
                    .iter()
                    .map(|&b| b != 0)
                    .collect(),
            ),
            4 => {
                let indices = r.u32s(len, "Utf8 column indices")?;
                let dict_len = r.u32("Utf8 dictionary length")? as usize;
                let offsets = r.u32s(dict_len + 1, "Utf8 dictionary offsets")?;
                let arena_len = r.u32("Utf8 arena length")? as usize;
                let arena = r.take(arena_len, "Utf8 arena")?.to_vec();
                // Rebuild the dictionary handles (and the intern lookup)
                // from the offsets, validating every range on the way.
                if offsets.first() != Some(&0)
                    || offsets.windows(2).any(|w| w[0] > w[1])
                    || offsets.last().copied().unwrap_or(0) as usize != arena.len()
                {
                    return Err(DecodeError::corrupt(
                        "Utf8 dictionary offsets",
                        "not an ascending cover of the arena",
                    ));
                }
                if indices.iter().any(|&i| i as usize >= dict_len) {
                    return Err(DecodeError::corrupt(
                        "Utf8 column indices",
                        "index outside the dictionary",
                    ));
                }
                // dict_len is trustworthy here: offsets decoded 1-per-entry
                // above, so a huge claimed count has already failed.
                let mut dict = Vec::with_capacity(dict_len);
                let mut lookup = HashMap::with_capacity(dict_len);
                for i in 0..dict_len {
                    let bytes = &arena[offsets[i] as usize..offsets[i + 1] as usize];
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| DecodeError::corrupt("Utf8 arena", "invalid UTF-8"))?;
                    let handle: Arc<str> = Arc::from(s);
                    dict.push(Arc::clone(&handle));
                    lookup.insert(handle, i as u32);
                }
                ColumnData::Utf8(Utf8Column {
                    indices,
                    offsets,
                    arena,
                    dict,
                    lookup,
                })
            }
            5 => ColumnData::Mixed(r.repeat(len, 1, Value::decode_wire)?),
            other => return Err(DecodeError::unknown("column type tag", other)),
        };
        // Every typed buffer above was read at exactly `len` elements.
        Ok(Column { len, data, nulls })
    }
}

/// A columnar block of VG outputs for one stream: `rows × cols` typed
/// [`Column`]s (row-major), each holding one VG output cell's value at every
/// materialized stream position.
///
/// Blocks are designed to be pooled: [`ColumnBlock::clear`] drops the data
/// but keeps every buffer's capacity (and column typing), so a reused block
/// materializes with zero heap allocation once warm.
#[derive(Debug, Clone, Default)]
pub struct ColumnBlock {
    rows: usize,
    cols: usize,
    shaped: bool,
    columns: Vec<Column>,
}

impl ColumnBlock {
    /// An empty, unshaped block.
    pub fn new() -> Self {
        ColumnBlock::default()
    }

    /// Shape the block for a VG with `rows × cols` output cells, clearing
    /// any previous data while keeping buffer capacity, and reserving room
    /// for `capacity` positions per column.  Batched VG implementations call
    /// this before writing; the generic fallback shapes implicitly from the
    /// first generated position.
    pub fn reset(&mut self, rows: usize, cols: usize, capacity: usize) {
        self.rows = rows;
        self.cols = cols;
        self.shaped = true;
        let needed = rows * cols;
        self.columns.truncate(needed);
        for col in &mut self.columns {
            col.clear();
            col.reserve(capacity);
        }
        while self.columns.len() < needed {
            let mut col = Column::default();
            col.reserve(capacity);
            self.columns.push(col);
        }
    }

    /// VG output rows per position (0 until shaped).
    pub fn rows_per_pos(&self) -> usize {
        self.rows
    }

    /// VG output columns per row (0 until shaped).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the block has been shaped (by [`ColumnBlock::reset`] or a
    /// first [`ColumnBlock::push_position`]).
    pub fn is_shaped(&self) -> bool {
        self.shaped
    }

    /// Number of materialized positions (taken from the first column; use
    /// [`ColumnBlock::validate`] to guarantee all columns agree).
    pub fn num_positions(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// The column for VG output cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the block's shape.
    pub fn column(&self, row: usize, col: usize) -> &Column {
        assert!(row < self.rows && col < self.cols, "cell outside VG shape");
        &self.columns[row * self.cols + col]
    }

    /// Mutable access to the column for VG output cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the block's shape.
    pub fn column_mut(&mut self, row: usize, col: usize) -> &mut Column {
        assert!(row < self.rows && col < self.cols, "cell outside VG shape");
        &mut self.columns[row * self.cols + col]
    }

    /// Append one position from a row-wise VG output table (the generic
    /// fallback path for VG functions without a native batched
    /// implementation).  The first push shapes the block; later pushes must
    /// match that shape — a VG whose output row count varies across
    /// positions is a contract violation and errors here.
    pub fn push_position(&mut self, tuples: &[Tuple]) -> Result<()> {
        if !self.shaped {
            let cols = tuples.first().map_or(0, Tuple::arity);
            if tuples.iter().any(|t| t.arity() != cols) {
                return Err(Error::Invalid(
                    "VG output rows have differing arity within one invocation".into(),
                ));
            }
            self.reset(tuples.len(), cols, 0);
        } else if tuples.len() != self.rows {
            return Err(Error::Invalid(format!(
                "VG invocation produced {} output rows at a later block position but {} at \
                 the start of the block; the executor requires a fixed, seed-independent row \
                 count per parameter row",
                tuples.len(),
                self.rows
            )));
        }
        for (r, tuple) in tuples.iter().enumerate() {
            if tuple.arity() != self.cols {
                return Err(Error::Invalid(format!(
                    "VG output row has {} columns but the block is shaped for {}",
                    tuple.arity(),
                    self.cols
                )));
            }
            for (c, value) in tuple.values().iter().enumerate() {
                self.columns[r * self.cols + c].push_value(value);
            }
        }
        Ok(())
    }

    /// Validate the block holds exactly `num_values` positions in every
    /// column — the once-per-block shape check that replaced the row path's
    /// per-position validation.
    pub fn validate(&self, num_values: usize) -> Result<()> {
        if !self.shaped {
            if num_values == 0 {
                return Ok(());
            }
            return Err(Error::Invalid(format!(
                "batched VG generation left the block unshaped ({num_values} positions \
                 requested)"
            )));
        }
        for (i, col) in self.columns.iter().enumerate() {
            if col.len() != num_values {
                return Err(Error::Invalid(format!(
                    "columnar block cell ({}, {}) holds {} positions, expected {num_values}; \
                     the batched VG implementation wrote ragged columns",
                    i / self.cols.max(1),
                    i % self.cols.max(1),
                    col.len()
                )));
            }
        }
        Ok(())
    }

    /// The boxed value of cell `(row, col)` at block position `pos`.
    pub fn value_at(&self, row: usize, col: usize, pos: usize) -> Result<Value> {
        self.check_cell(row, col)?;
        Ok(self.columns[row * self.cols + col].value_at(pos))
    }

    /// Materialize cell `(row, col)` across all positions as boxed values —
    /// the bundle-set boundary.
    pub fn values_out(&self, row: usize, col: usize) -> Result<Vec<Value>> {
        self.check_cell(row, col)?;
        Ok(self.columns[row * self.cols + col].values_out())
    }

    fn check_cell(&self, row: usize, col: usize) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::Invalid(format!(
                "VG output cell ({row}, {col}) outside the block shape {}x{}",
                self.rows, self.cols
            )));
        }
        Ok(())
    }

    /// Logical bytes materialized into the block's buffers.
    pub fn data_bytes(&self) -> usize {
        self.columns.iter().map(Column::data_bytes).sum()
    }

    /// Clear all data and the shape, keeping column buffers (and their
    /// capacity) for reuse by the next block.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.cols = 0;
        self.shaped = false;
        for col in &mut self.columns {
            col.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_columns_round_trip() {
        let mut col = Column::default();
        col.push_f64(1.5);
        col.push_f64(-0.0);
        col.push_f64(f64::NAN);
        assert_eq!(col.len(), 3);
        assert_eq!(col.data_type(), Some(DataType::Float64));
        assert_eq!(col.value_at(0), Value::Float64(1.5));
        // Bit-exact storage: -0.0 and NaN survive untouched.
        match col.value_at(1) {
            Value::Float64(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("{other:?}"),
        }
        match col.value_at(2) {
            Value::Float64(x) => assert!(x.is_nan()),
            other => panic!("{other:?}"),
        }
        assert_eq!(col.f64_slice().unwrap().len(), 3);
        assert_eq!(col.data_bytes(), 24);
    }

    #[test]
    fn utf8_columns_intern_per_distinct_string() {
        let mut col = Column::default();
        for s in ["ship", "truck", "ship", "air", "ship"] {
            col.push_str(s);
        }
        match col.data() {
            ColumnData::Utf8(u) => {
                assert_eq!(u.distinct(), 3, "equal strings share one arena entry");
                assert_eq!(u.len(), 5);
                assert_eq!(&**u.handle_at(0), "ship");
                assert_eq!(&**u.handle_at(2), "ship");
                assert_eq!(&**u.handle_at(3), "air");
                // Boundary clones are refcount bumps on the same handle.
                assert!(Arc::ptr_eq(u.handle_at(0), u.handle_at(2)));
            }
            other => panic!("{other:?}"),
        }
        let out = col.values_out();
        assert_eq!(out[1], Value::str("truck"));
        assert_eq!(out[4], Value::str("ship"));
    }

    #[test]
    fn null_bitmap_tracks_positions() {
        let mut col = Column::default();
        col.push_null();
        col.push_i64(7);
        col.push_null();
        assert!(col.nulls().any());
        assert_eq!(col.value_at(0), Value::Null);
        assert_eq!(col.value_at(1), Value::Int64(7));
        assert_eq!(col.value_at(2), Value::Null);
        assert_eq!(
            col.values_out(),
            vec![Value::Null, Value::Int64(7), Value::Null]
        );
        let mut floats = Column::default();
        floats.push_f64(1.0);
        floats.push_null();
        assert!(
            floats.f64_slice().is_none(),
            "nullable columns have no raw slice"
        );

        // A bitmap past one word still reads correctly.
        let mut bm = NullBitmap::default();
        bm.set(70);
        assert!(bm.get(70));
        assert!(!bm.get(69));
        assert!(!bm.get(1000));
    }

    #[test]
    fn mixed_cells_demote_to_boxed_values() {
        let mut col = Column::default();
        col.push_i64(1);
        col.push_value(&Value::str("two"));
        col.push_null();
        assert_eq!(col.data_type(), None);
        assert_eq!(
            col.values_out(),
            vec![Value::Int64(1), Value::str("two"), Value::Null]
        );
        // Later pushes append to the existing Mixed store (no per-push
        // re-collection); typed fast-path pushes land there too.
        col.push_f64(4.5);
        col.push_bool(true);
        assert!(matches!(col.data(), ColumnData::Mixed(v) if v.len() == 5));
        assert_eq!(col.value_at(3), Value::Float64(4.5));
        assert_eq!(col.value_at(4), Value::Bool(true));
    }

    #[test]
    fn cleared_columns_retype_for_the_next_blocks_value_type() {
        // The pool-recycling contract: clear() keeps a column's type for
        // capacity reuse, but an *empty* column must accept whatever type
        // the next stream holds — a buffer last used by a Float64 stream
        // may be handed to a string-category Discrete stream, and vice
        // versa.
        let mut col = Column::default();
        col.push_f64(1.0);
        col.clear();
        let id = col
            .intern_utf8("ship")
            .expect("empty column retypes to Utf8");
        col.push_utf8_id(id).unwrap();
        col.push_str("air");
        assert_eq!(col.data_type(), Some(DataType::Utf8));
        assert_eq!(
            col.values_out(),
            vec![Value::str("ship"), Value::str("air")]
        );

        // And back: Utf8 -> empty -> numeric stays a typed buffer, never
        // Mixed.
        col.clear();
        col.push_f64(2.5);
        col.push_f64(3.5);
        assert_eq!(col.data_type(), Some(DataType::Float64));
        assert_eq!(col.f64_slice(), Some(&[2.5, 3.5][..]));

        // Non-empty columns still refuse cross-type interning.
        assert!(col.intern_utf8("nope").is_err());

        // A buffer demoted to Mixed by a heterogeneous stream also recovers
        // a typed buffer once cleared — Mixed is never sticky across blocks.
        col.clear();
        col.push_i64(1);
        col.push_str("mix");
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        col.clear();
        col.push_f64(9.0);
        assert_eq!(col.data_type(), Some(DataType::Float64));
        assert_eq!(col.f64_slice(), Some(&[9.0][..]));
    }

    #[test]
    fn blocks_shape_from_the_first_row_push_and_reject_ragged_shapes() {
        let mut block = ColumnBlock::new();
        assert!(!block.is_shaped());
        block
            .push_position(&[
                Tuple::from_iter_values([Value::Int64(0), Value::Float64(1.0)]),
                Tuple::from_iter_values([Value::Int64(1), Value::Float64(2.0)]),
            ])
            .unwrap();
        assert!(block.is_shaped());
        assert_eq!((block.rows_per_pos(), block.cols()), (2, 2));
        block
            .push_position(&[
                Tuple::from_iter_values([Value::Int64(0), Value::Float64(3.0)]),
                Tuple::from_iter_values([Value::Int64(1), Value::Float64(4.0)]),
            ])
            .unwrap();
        block.validate(2).unwrap();
        assert_eq!(block.value_at(1, 1, 0).unwrap(), Value::Float64(2.0));
        assert_eq!(
            block.values_out(0, 1).unwrap(),
            vec![Value::Float64(1.0), Value::Float64(3.0)]
        );
        assert!(block.value_at(2, 0, 0).is_err(), "cell outside shape");

        // A position with a different row count is the VG-contract violation.
        let err = block
            .push_position(&[Tuple::from_iter_values([
                Value::Int64(0),
                Value::Float64(9.0),
            ])])
            .unwrap_err();
        assert!(err
            .to_string()
            .contains("fixed, seed-independent row count"));
    }

    #[test]
    fn validate_checks_uniform_lengths() {
        let mut block = ColumnBlock::new();
        block.reset(1, 2, 4);
        block.column_mut(0, 0).push_f64(1.0);
        block.column_mut(0, 1).push_f64(2.0);
        block.column_mut(0, 0).push_f64(3.0);
        assert!(block.validate(2).is_err(), "ragged columns must be caught");
        block.column_mut(0, 1).push_f64(4.0);
        block.validate(2).unwrap();
        assert!(block.validate(3).is_err());

        // Unshaped blocks validate only at zero positions.
        let empty = ColumnBlock::new();
        empty.validate(0).unwrap();
        assert!(empty.validate(1).is_err());
    }

    #[test]
    fn wire_codec_round_trips_every_column_type_bit_exactly() {
        let mut columns = vec![Column::default(); 8];
        for pos in 0..4 {
            columns[0].push_i64(pos as i64 - 2);
            columns[1].push_f64(f64::from_bits(
                0x7ff8_0000_0000_0001u64.wrapping_add(pos as u64), // NaN payloads
            ));
            columns[2].push_bool(pos % 2 == 0);
            columns[3].push_str(["ship", "truck", "ship", "air"][pos]);
            if pos == 1 {
                columns[4].push_null();
            } else {
                columns[4].push_f64(-0.0);
            }
            // A heterogeneous (Mixed) column.
            columns[5].push_value(
                &[
                    Value::Int64(7),
                    Value::str("x"),
                    Value::Null,
                    Value::Float64(2.5),
                ][pos],
            );
            // An all-NULL (Untyped) column; columns[7] stays empty.
            columns[6].push_null();
        }

        let mut buf = Vec::new();
        for column in &columns {
            column.encode_wire(&mut buf);
        }
        let mut r = Reader::new(&buf);
        for (c, a) in columns.iter().enumerate() {
            let b = Column::decode_wire(&mut r).unwrap();
            assert_eq!(
                (a.data_type(), a.len()),
                (b.data_type(), b.len()),
                "column {c}"
            );
            for i in 0..a.len() {
                match (a.value_at(i), b.value_at(i)) {
                    (Value::Float64(x), Value::Float64(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "column {c} pos {i}")
                    }
                    (x, y) => assert_eq!(x, y, "column {c} pos {i}"),
                }
            }
            // The intern dictionary survives: distinct counts match.
            if let (ColumnData::Utf8(a), ColumnData::Utf8(b)) = (a.data(), b.data()) {
                assert_eq!(a.distinct(), b.distinct());
            }
        }
        r.finish("columns").unwrap();

        // Truncation anywhere is a typed error, never a panic; so is a
        // corrupt type tag.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let decode_all =
                (0..columns.len()).try_for_each(|_| Column::decode_wire(&mut r).map(drop));
            assert!(decode_all.is_err(), "cut {cut}");
        }
        buf[8] = 9;
        assert!(matches!(
            Column::decode_wire(&mut Reader::new(&buf)),
            Err(DecodeError::Corrupt { .. })
        ));
    }

    #[test]
    fn clear_keeps_shape_capacity_but_no_data() {
        let mut block = ColumnBlock::new();
        block.reset(1, 1, 8);
        for i in 0..8 {
            block.column_mut(0, 0).push_i64(i);
        }
        block.column_mut(0, 0).push_value(&Value::str("bleed?"));
        assert!(block.data_bytes() > 0);
        block.clear();
        assert!(!block.is_shaped());
        assert_eq!(block.num_positions(), 0);
        assert_eq!(block.data_bytes(), 0);
        // Reshaping reuses the cleared column; no stale values appear.
        block.reset(1, 1, 4);
        block.column_mut(0, 0).push_i64(42);
        block.validate(1).unwrap();
        assert_eq!(block.values_out(0, 0).unwrap(), vec![Value::Int64(42)]);
    }
}

#[cfg(test)]
mod null_mask_tests {
    use super::*;

    #[test]
    fn extend_f64_zeroed_appends_writable_slots() {
        let mut col = Column::default();
        {
            let slots = col.extend_f64_zeroed(3).expect("fresh column retypes");
            assert_eq!(slots, &[0.0, 0.0, 0.0]);
            slots[1] = 2.5;
        }
        assert_eq!(col.len(), 3);
        assert_eq!(col.value_at(1), Value::Float64(2.5));
        // Appending extends, not overwrites.
        col.extend_f64_zeroed(2).unwrap();
        assert_eq!(col.len(), 5);
        // A non-Float64 column refuses and keeps its data intact.
        let mut s = Column::default();
        s.push_str("a");
        assert!(s.extend_f64_zeroed(4).is_none());
        assert_eq!(s.len(), 1);
    }
}
