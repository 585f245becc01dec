//! The one byte format, and the one bounded cursor that reads it.
//!
//! Every byte that comes from outside the process — dispatch and server
//! wire frames, column and value payloads, sealed pages, heap records — is
//! decoded through a [`Reader`].  The format rule, stated once:
//!
//! * integers are little-endian; floats travel as their raw IEEE bits, so
//!   every round trip is bit-exact;
//! * a sequence is a `u32` element count followed by the elements; a
//!   string is a `u32` byte length followed by UTF-8;
//! * a count is never trusted for allocation: a decoder reserves at most
//!   `remaining bytes / smallest element size` slots, so a hostile prefix
//!   fails on a bounds check instead of reserving gigabytes first.
//!
//! Every read is checked and names the field it was reading.  Running out
//! of bytes is [`DecodeError::Truncated`]; bytes no encoder writes (an
//! unknown tag, a bad flag, invalid UTF-8, inconsistent lengths) are
//! [`DecodeError::Corrupt`].  Nothing here panics on any input.

use std::fmt;

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside `what`.
    Truncated {
        /// The field being read when the bytes ran out.
        what: &'static str,
    },
    /// `what` holds a value no encoder writes.
    Corrupt {
        /// The field holding the bad value.
        what: &'static str,
        /// What is wrong with it.
        detail: String,
    },
}

impl DecodeError {
    /// A [`DecodeError::Corrupt`] naming `what`.
    pub fn corrupt(what: &'static str, detail: impl Into<String>) -> Self {
        DecodeError::Corrupt {
            what,
            detail: detail.into(),
        }
    }

    /// The error for a tag or flag byte outside its enumeration.
    pub fn unknown(what: &'static str, tag: u8) -> Self {
        DecodeError::corrupt(what, format!("unknown value {tag}"))
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { what } => write!(f, "input ends inside {what}"),
            DecodeError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result of a decode.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> DecodeResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated { what });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> DecodeResult<[u8; N]> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| DecodeError::Truncated { what })
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> DecodeResult<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// An `f64` from its little-endian IEEE bits.
    pub fn f64(&mut self, what: &'static str) -> DecodeResult<f64> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// A `u32`-length UTF-8 string, borrowed from the input.
    pub fn str(&mut self, what: &'static str) -> DecodeResult<&'a str> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| DecodeError::corrupt(what, "invalid UTF-8"))
    }

    /// A `u32`-length UTF-8 string, owned.
    pub fn string(&mut self, what: &'static str) -> DecodeResult<String> {
        self.str(what).map(str::to_owned)
    }

    /// A `0`/`1` presence flag, then — when set — the value `item` reads.
    pub fn option<T>(
        &mut self,
        what: &'static str,
        item: impl FnOnce(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Option<T>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => item(self).map(Some),
            other => Err(DecodeError::unknown(what, other)),
        }
    }

    /// `n` fixed-width scalars in one bounds check: the bytes are taken
    /// once and split with `chunks_exact`, so a column of a million floats
    /// costs one check, not a million.
    fn scalars<const N: usize, T>(
        &mut self,
        n: usize,
        what: &'static str,
        from: impl Fn([u8; N]) -> T,
    ) -> DecodeResult<Vec<T>> {
        let len = n.checked_mul(N).ok_or(DecodeError::Truncated { what })?;
        Ok(self
            .take(len, what)?
            .chunks_exact(N)
            .map(|c| from(c.try_into().expect("chunks_exact yields N-byte chunks")))
            .collect())
    }

    /// `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize, what: &'static str) -> DecodeResult<Vec<u32>> {
        self.scalars(n, what, u32::from_le_bytes)
    }

    /// `n` little-endian `u64`s.
    pub fn u64s(&mut self, n: usize, what: &'static str) -> DecodeResult<Vec<u64>> {
        self.scalars(n, what, u64::from_le_bytes)
    }

    /// `n` little-endian `i64`s.
    pub fn i64s(&mut self, n: usize, what: &'static str) -> DecodeResult<Vec<i64>> {
        self.scalars(n, what, i64::from_le_bytes)
    }

    /// `n` `f64`s from their little-endian IEEE bits.
    pub fn f64s(&mut self, n: usize, what: &'static str) -> DecodeResult<Vec<f64>> {
        self.scalars(n, what, f64::from_le_bytes)
    }

    /// A `u32` element count, then that many elements read by `item`, each
    /// of which encodes to at least `min_size` bytes.
    pub fn seq<T>(
        &mut self,
        what: &'static str,
        min_size: usize,
        item: impl FnMut(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Vec<T>> {
        let n = self.u32(what)? as usize;
        self.repeat(n, min_size, item)
    }

    /// `n` elements read by `item`, each at least `min_size` bytes.  The
    /// up-front reservation is capped by what the input can still hold, so
    /// an inflated `n` costs a bounds check, not an allocation.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        min_size: usize,
        mut item: impl FnMut(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Vec<T>> {
        let mut out = Vec::with_capacity(n.min(self.remaining() / min_size.max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Require the input to be fully consumed by `what`.
    pub fn finish(self, what: &'static str) -> DecodeResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::corrupt(what, format!("{n} trailing bytes"))),
        }
    }
}

/// Append a `u32` sequence count.
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Append a `u32`-length UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_checked_bulk_and_bounded() {
        let mut out = vec![1u8];
        out.extend_from_slice(&(-3i64).to_le_bytes());
        out.extend_from_slice(&f64::from_bits(0x7ff8_0000_0000_0001).to_le_bytes());
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out);
        assert_eq!(
            r.option("flag", |r| r.i64s(1, "i")).unwrap(),
            Some(vec![-3])
        );
        assert_eq!(r.f64s(1, "x").unwrap()[0].to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(r.str("s").unwrap(), "héllo");
        r.finish("all").unwrap();
        // Running out of bytes and a bad value are told apart, by field.
        assert_eq!(
            Reader::new(&[1, 2]).u32("w"),
            Err(DecodeError::Truncated { what: "w" })
        );
        let bad_flag = Reader::new(&[2]).option("flag", |r| r.u8("x"));
        assert!(matches!(
            bad_flag,
            Err(DecodeError::Corrupt { what: "flag", .. })
        ));
        assert!(Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str("s").is_err());
        // An inflated count fails on the bounds check, not an allocation.
        let mut claim = Vec::new();
        put_count(&mut claim, u32::MAX as usize);
        let err = Reader::new(&claim).seq("items", 8, |r| r.u64("item"));
        assert_eq!(err, Err(DecodeError::Truncated { what: "item" }));
        assert!(Reader::new(&out).u64s(usize::MAX, "xs").is_err());
    }
}
