//! Packed selection bitmasks.
//!
//! Columnar filters evaluate predicates column-at-a-time into a packed
//! [`Mask`] (one bit per position, 64 positions per word) and narrow it in
//! place; downstream operators read the surviving positions straight off
//! the mask instead of materializing a filtered copy of every column.
//!
//! Every mask operation maintains the trailing-word invariant documented on
//! [`Mask`]: bits at positions `>= len` in the last word are zero, so
//! whole-word AND/OR/NOT and popcounts need no edge handling for lengths
//! that are not a multiple of 64.

/// The comparison operators, as `f64` lane functions (what the expression
/// program runs on numeric operands).
///
/// The semantics mirror the scalar expression evaluator exactly, including
/// its NaN convention: `partial_cmp` returning `None` is treated as
/// `Ordering::Equal`, so a NaN lane satisfies `LtEq`/`GtEq` but not
/// `Lt`/`Gt`/`Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` (SQL semantics at a higher layer: NULL never equal).
    Eq,
    /// `<>`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
}

impl CmpOp {
    /// The scalar lane function: one branchless boolean per pair.
    #[inline(always)]
    pub fn lane(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            // SQL `<>` over non-null numerics is the negation of `=`, so a
            // NaN operand satisfies it (`!(NaN == x)`), unlike Lt/Gt.
            CmpOp::NotEq => a != b,
            CmpOp::Lt => a < b,
            // partial_cmp(None) -> Equal, and Equal satisfies <= and >=.
            CmpOp::LtEq => (a <= b) | a.is_nan() | b.is_nan(),
            CmpOp::Gt => a > b,
            CmpOp::GtEq => (a >= b) | a.is_nan() | b.is_nan(),
        }
    }
}

/// Number of 64-bit words needed to cover `len` one-bit lanes.
#[inline]
pub fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// A fixed-length packed bitmask: bit `i` of word `i / 64` is position `i`.
///
/// Invariant: bits at positions `>= len` in the final word are always zero.
/// Every constructor and mutator re-establishes the invariant (see
/// [`Mask::not_assign`] for the case that needs explicit trailing-word
/// masking), so word-granular combinators and [`Mask::count`] are exact for
/// any length, including lengths that are not a multiple of 64.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mask {
    len: usize,
    words: Vec<u64>,
}

impl Mask {
    /// An all-zero mask over `len` positions.
    pub fn zeros(len: usize) -> Mask {
        Mask {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// An all-one mask over `len` positions (trailing bits zero).
    pub fn ones(len: usize) -> Mask {
        let mut m = Mask {
            len,
            words: vec![u64::MAX; words_for(len)],
        };
        m.mask_tail();
        m
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Mask {
        let mut m = Mask::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            m.words[i / 64] |= (b as u64) << (i % 64);
        }
        m
    }

    /// Expand to one `bool` per position.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (trailing bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bit at position `idx`.
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Set the bit at position `idx` to `bit`.
    pub fn set(&mut self, idx: usize, bit: bool) {
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx / 64];
        *word = (*word & !(1 << (idx % 64))) | ((bit as u64) << (idx % 64));
    }

    /// Number of set bits.  Exact for any length thanks to the trailing-word
    /// invariant.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when every one of the `len` bits is set.
    pub fn all(&self) -> bool {
        self.count() == self.len
    }

    /// `self &= other` word-at-a-time.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Mask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// `self |= other` word-at-a-time.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &Mask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self = !self`, re-masking the trailing word so bits beyond `len`
    /// stay zero — the edge case for lengths not a multiple of 64.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// `self &= !other` word-at-a-time: clear every position set in `other`
    /// (used to null-out comparison lanes from a packed null bitmap).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not_assign(&mut self, other: &Mask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Zero any bits at positions `>= len` in the final word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Overwrite this mask with per-position results of `lane`, branchlessly
    /// packing 64 lanes per word.
    #[inline]
    pub fn fill_with(&mut self, len: usize, mut lane: impl FnMut(usize) -> bool) {
        self.len = len;
        self.words.clear();
        self.words.resize(words_for(len), 0);
        for (w, word) in self.words.iter_mut().enumerate() {
            let lo = w * 64;
            let hi = (lo + 64).min(len);
            let mut acc = 0u64;
            for i in lo..hi {
                acc |= (lane(i) as u64) << (i - lo);
            }
            *word = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_and_not_respect_non_multiple_of_64_lengths() {
        for len in [0, 1, 63, 64, 65, 127, 128, 130] {
            let ones = Mask::ones(len);
            assert_eq!(ones.count(), len, "len {len}");
            assert!(ones.all(), "len {len}");
            let mut z = Mask::zeros(len);
            z.not_assign();
            assert_eq!(z, ones, "NOT of zeros must equal ones at len {len}");
            z.not_assign();
            assert!(z.none(), "double NOT must round-trip at len {len}");
        }
    }

    #[test]
    fn fill_with_masks_the_trailing_word() {
        let mut m = Mask::default();
        m.fill_with(70, |_| true);
        assert_eq!(m.count(), 70);
        assert_eq!(m.words().len(), 2);
        assert_eq!(m.words()[1], (1 << 6) - 1, "bits 70..128 must stay zero");
    }

    #[test]
    fn combinators_match_boolean_reference() {
        let a: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..130).map(|i| i % 5 == 0).collect();
        let (ma, mb) = (Mask::from_bools(&a), Mask::from_bools(&b));

        let mut and = ma.clone();
        and.and_assign(&mb);
        let mut or = ma.clone();
        or.or_assign(&mb);
        let mut andnot = ma.clone();
        andnot.and_not_assign(&mb);
        let mut not = ma.clone();
        not.not_assign();

        for i in 0..130 {
            assert_eq!(and.get(i), a[i] && b[i], "AND lane {i}");
            assert_eq!(or.get(i), a[i] || b[i], "OR lane {i}");
            assert_eq!(andnot.get(i), a[i] && !b[i], "ANDNOT lane {i}");
            assert_eq!(not.get(i), !a[i], "NOT lane {i}");
        }
        assert_eq!(and.count(), (0..130).filter(|i| i % 15 == 0).count());
    }

    #[test]
    fn cmp_kernels_mirror_scalar_nan_conventions() {
        let vals = [1.0, f64::NAN, -3.5, 0.0, 7.25];
        // The scalar engine's reference semantics: `=`/`<>` through IEEE
        // equality (SQL equality), orderings through partial_cmp with
        // None -> Equal.
        let scalar = |op: CmpOp, a: f64, b: f64| {
            let ord = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::NotEq => a != b,
                CmpOp::Lt => ord.is_lt(),
                CmpOp::LtEq => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::GtEq => ord.is_ge(),
            }
        };
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            let rhs = [0.5, 0.5, f64::NAN, -0.0, 7.25];
            for (i, (&v, &r)) in vals.iter().zip(&rhs).enumerate() {
                assert_eq!(
                    op.lane(v, 0.5),
                    scalar(op, v, 0.5),
                    "{op:?} lane {i} vs const"
                );
                assert_eq!(op.lane(v, r), scalar(op, v, r), "{op:?} lane {i}");
                assert_eq!(
                    op.lane(0.5, v),
                    scalar(op, 0.5, v),
                    "{op:?} lane {i} const-lhs"
                );
            }
        }
    }
}
