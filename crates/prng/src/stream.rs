//! Position-addressable random streams.
//!
//! Paper §4.1: "There is a data stream associated with every uncertain data
//! value (or correlated set of uncertain data values) in the database. ...
//! Repeated execution of the Normal VG function, parameterized with the
//! customer's mean loss value m, produces a stream of realized loss values
//! for the customer."  The stream is addressed by *position*: in naive MCDB
//! the first `n` positions map to the `n` Monte Carlo repetitions; in MCDB-R
//! the Gibbs rejection sampler consumes positions monotonically and the
//! TS-seed records which position is currently assigned to each DB version.
//!
//! [`RandomStream`] produces the *uniform* variates at each position; the VG
//! functions in `mcdbr-vg` transform those uniforms into draws from the
//! modelled distribution.  A single stream position may consume several
//! uniforms (e.g. a rejection-based Gamma sampler), so the stream hands out a
//! fresh, deterministic sub-generator per position rather than a single
//! number: position `i` of stream `s` always yields the same sub-generator
//! regardless of the order or number of times positions are accessed.  This
//! random-access property is what lets MCDB-R clone DB versions by copying
//! *positions* instead of values (paper §4.2, Fig. 1) and lets replenishment
//! runs re-create exactly the values already assigned (paper §9).

use crate::pcg::Pcg64;

/// Identifier of a random stream (the paper's "PRNG seed" / TS-seed handle's
/// underlying seed).  Stable across runs for a fixed master seed.
pub type SeedId = u64;

/// Seed-independent identity of a random stream: which uncertain table it
/// belongs to (`table_tag`) and which parameter-table row it instantiates
/// (`row`).
///
/// A concrete [`SeedId`] is a function of `(master_seed, table_tag, row)` —
/// see [`seed_for`] — so the same `StreamKey` names "the same stream" across
/// different master seeds.  This is what lets a seed-independent plan
/// skeleton be shared between sessions that differ only in their master seed:
/// lineage is recorded per key, and [`StreamKey::bind`] re-derives the
/// concrete seeds for any master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamKey {
    /// Tag of the uncertain table the stream belongs to (the
    /// `RandomTableSpec::table_tag` mixed into seed derivation).
    pub table_tag: u64,
    /// Index of the parameter-table row the stream instantiates.
    pub row: u64,
}

impl StreamKey {
    /// The smallest stream key in `(table_tag, row)` order — the canonical
    /// lower bound of the whole key space, and the start of the first range
    /// in any [`StreamKeyRange::partition`].
    pub const MIN: StreamKey = StreamKey {
        table_tag: 0,
        row: 0,
    };

    /// Create a stream key.
    pub fn new(table_tag: u64, row: u64) -> Self {
        StreamKey { table_tag, row }
    }

    /// The concrete stream seed this key denotes under `master_seed`
    /// (exactly [`seed_for`]`(master_seed, self.table_tag, self.row)`).
    pub fn bind(&self, master_seed: u64) -> SeedId {
        seed_for(master_seed, self.table_tag, self.row)
    }
}

impl std::fmt::Display for StreamKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(table {}, row {})", self.table_tag, self.row)
    }
}

/// Split `n` items into `min(parts, n)` contiguous chunk lengths differing
/// by at most one (earlier chunks take the extra) — the balancing rule of
/// the stream-key partitioner ([`StreamKeyRange::partition`]).  Returns an
/// empty vector when `n == 0`.
pub fn balanced_chunks(n: usize, parts: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let (base, rem) = (n / parts, n % parts);
    (0..parts).map(|i| base + usize::from(i < rem)).collect()
}

/// A half-open range of stream keys, `[start, end)` in `(table_tag, row)`
/// order — the unit a sharded execution backend partitions a block's work
/// by.
///
/// `end == None` means "unbounded above"; the last range of every
/// [`StreamKeyRange::partition`] is unbounded, so a set of partition ranges
/// always covers the *entire* key space.  That makes a shard task
/// self-describing: given a plan skeleton, a master seed, and its range, a
/// worker can decide membership for any stream (or any bundle, by the
/// bundle's smallest key) without consulting the partitioner again — the
/// property that lets the same `(skeleton, seed, range)` triple be shipped
/// to another thread today and another process tomorrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKeyRange {
    /// Inclusive lower bound.
    pub start: StreamKey,
    /// Exclusive upper bound; `None` = unbounded.
    pub end: Option<StreamKey>,
}

impl StreamKeyRange {
    /// The range covering the whole key space, `[MIN, ∞)`.
    pub fn all() -> Self {
        StreamKeyRange {
            start: StreamKey::MIN,
            end: None,
        }
    }

    /// Whether `key` falls inside this range.
    pub fn contains(&self, key: StreamKey) -> bool {
        key >= self.start
            && match self.end {
                Some(end) => key < end,
                None => true,
            }
    }

    /// Partition a **sorted, deduplicated** slice of keys into at most
    /// `parts` contiguous ranges that jointly cover the entire key space:
    /// the first range starts at [`StreamKey::MIN`], the last is unbounded,
    /// and consecutive ranges meet exactly (no gaps, no overlap), so every
    /// possible key — listed or not — belongs to exactly one range.
    ///
    /// The partition is balanced: exactly `min(parts, keys.len())` ranges
    /// come back (never fewer), differing by at most one key, so a caller
    /// asking for `n` shards over at least `n` keys gets `n` shards.  With no
    /// keys, or `parts <= 1`, the single all-covering range is returned.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is not strictly increasing — range boundaries are
    /// drawn *between* keys, which only makes sense for sorted input.
    pub fn partition(keys: &[StreamKey], parts: usize) -> Vec<StreamKeyRange> {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "StreamKeyRange::partition requires strictly increasing keys"
        );
        let lens = balanced_chunks(keys.len(), parts);
        if lens.len() <= 1 {
            return vec![StreamKeyRange::all()];
        }
        // Boundaries are the first key of every chunk after the first; each
        // range [b_i, b_{i+1}) then holds exactly chunk i's keys.
        let mut ranges = Vec::with_capacity(lens.len());
        let mut start = StreamKey::MIN;
        let mut next = 0usize;
        for &len in &lens[..lens.len() - 1] {
            next += len;
            let bound = keys[next];
            ranges.push(StreamKeyRange {
                start,
                end: Some(bound),
            });
            start = bound;
        }
        ranges.push(StreamKeyRange { start, end: None });
        ranges
    }
}

impl std::fmt::Display for StreamKeyRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.end {
            Some(end) => write!(f, "[{} .. {})", self.start, end),
            None => write!(f, "[{} .. ∞)", self.start),
        }
    }
}

/// Derive the seed for stream `index` of table `table_tag` from a master seed.
///
/// Experiments use one master seed; every uncertain tuple derives its own
/// stream seed from `(master, table_tag, index)` so results are reproducible
/// and streams are pairwise independent for all practical purposes.
pub fn seed_for(master: u64, table_tag: u64, index: u64) -> SeedId {
    // SplitMix-style mixing of the three components.
    let mut x = master ^ table_tag.rotate_left(21) ^ index.rotate_left(42);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A position-addressable stream of uniform randomness derived from one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomStream {
    seed: SeedId,
    /// The seed's SplitMix expansion ([`Pcg64::expand_seed`]), computed once
    /// at construction: every position's sub-generator shares it, so batched
    /// generation loops skip two mixing rounds per position.
    expanded: u128,
}

impl RandomStream {
    /// Create the stream for a seed.
    pub fn new(seed: SeedId) -> Self {
        RandomStream {
            seed,
            expanded: Pcg64::expand_seed(seed),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> SeedId {
        self.seed
    }

    /// A deterministic sub-generator for stream position `pos`.
    ///
    /// The same `(seed, pos)` pair always produces an identical generator, so
    /// VG functions can re-derive any previously generated value — the
    /// property replenishment runs rely on.
    pub fn generator_at(&self, pos: u64) -> Pcg64 {
        Pcg64::with_expanded_seed(self.expanded, pos.wrapping_add(1))
    }

    /// The single uniform variate at position `pos` (convenience for VG
    /// functions that need exactly one uniform per value, e.g. inverse-CDF
    /// Normal sampling).
    pub fn uniform_at(&self, pos: u64) -> f64 {
        self.generator_at(pos).next_f64_open()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_random_access() {
        let s = RandomStream::new(99);
        let forward: Vec<f64> = (0..10).map(|p| s.uniform_at(p)).collect();
        let backward: Vec<f64> = (0..10).rev().map(|p| s.uniform_at(p)).collect();
        let backward_reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed);
    }

    #[test]
    fn repeated_access_is_stable() {
        let s = RandomStream::new(7);
        assert_eq!(s.uniform_at(5), s.uniform_at(5));
        let mut g1 = s.generator_at(3);
        let mut g2 = s.generator_at(3);
        for _ in 0..20 {
            assert_eq!(g1.next_u64(), g2.next_u64());
        }
    }

    #[test]
    fn different_positions_differ() {
        let s = RandomStream::new(1);
        let a = s.uniform_at(0);
        let b = s.uniform_at(1);
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomStream::new(10).uniform_at(0);
        let b = RandomStream::new(11).uniform_at(0);
        assert_ne!(a, b);
    }

    #[test]
    fn stream_uniforms_look_uniform() {
        let s = RandomStream::new(2025);
        let n = 50_000u64;
        let mean: f64 = (0..n).map(|p| s.uniform_at(p)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn seed_for_is_deterministic_and_spread_out() {
        let a = seed_for(42, 1, 0);
        let b = seed_for(42, 1, 0);
        assert_eq!(a, b);
        // Different indices should essentially never collide.
        let mut seeds: Vec<SeedId> = (0..1000).map(|i| seed_for(42, 1, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
        // Different tables and masters change the seed too.
        assert_ne!(seed_for(42, 1, 5), seed_for(42, 2, 5));
        assert_ne!(seed_for(42, 1, 5), seed_for(43, 1, 5));
    }

    #[test]
    fn partition_covers_the_key_space_disjointly() {
        let keys: Vec<StreamKey> = (0..10).map(|r| StreamKey::new(1, r)).collect();
        for parts in [1usize, 2, 3, 7, 10, 25] {
            let ranges = StreamKeyRange::partition(&keys, parts);
            // Balanced: exactly min(parts, len) ranges, sizes within one key.
            assert_eq!(ranges.len(), parts.clamp(1, keys.len()));
            let sizes: Vec<usize> = ranges
                .iter()
                .map(|r| keys.iter().filter(|&&k| r.contains(k)).count())
                .collect();
            assert!(sizes.iter().all(|&s| s >= 1));
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            // First range starts at MIN, last is unbounded, consecutive
            // ranges meet exactly.
            assert_eq!(ranges.first().unwrap().start, StreamKey::MIN);
            assert_eq!(ranges.last().unwrap().end, None);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, Some(w[1].start));
            }
            // Every listed key — and keys *between* listed keys — belongs to
            // exactly one range.
            for key in keys.iter().copied().chain([
                StreamKey::MIN,
                StreamKey::new(0, 999),
                StreamKey::new(1, 4),
                StreamKey::new(99, 0),
            ]) {
                let owners = ranges.iter().filter(|r| r.contains(key)).count();
                assert_eq!(owners, 1, "key {key} owned by {owners} ranges");
            }
            // Ranges are served in ascending key order.
            let mut seen = Vec::new();
            for r in &ranges {
                seen.extend(keys.iter().copied().filter(|&k| r.contains(k)));
            }
            assert_eq!(seen, keys);
        }
    }

    #[test]
    fn partition_handles_empty_and_tiny_inputs() {
        assert_eq!(
            StreamKeyRange::partition(&[], 4),
            vec![StreamKeyRange::all()]
        );
        let one = [StreamKey::new(2, 5)];
        assert_eq!(
            StreamKeyRange::partition(&one, 4),
            vec![StreamKeyRange::all()]
        );
        assert_eq!(
            StreamKeyRange::partition(&one, 0),
            vec![StreamKeyRange::all()]
        );
        assert!(StreamKeyRange::all().contains(StreamKey::MIN));
        assert!(StreamKeyRange::all().contains(StreamKey::new(u64::MAX, u64::MAX)));
        assert_eq!(StreamKeyRange::all().to_string(), "[(table 0, row 0) .. ∞)");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn partition_rejects_unsorted_keys() {
        let keys = [StreamKey::new(1, 5), StreamKey::new(1, 2)];
        let _ = StreamKeyRange::partition(&keys, 2);
    }

    #[test]
    fn ranges_span_table_tags() {
        // A multi-table plan's keys sort by (table_tag, row); boundaries may
        // fall between tables and membership must respect the full ordering.
        let keys = [
            StreamKey::new(1, 0),
            StreamKey::new(1, 1),
            StreamKey::new(2, 0),
            StreamKey::new(2, 1),
        ];
        let ranges = StreamKeyRange::partition(&keys, 2);
        assert_eq!(ranges.len(), 2);
        assert!(ranges[0].contains(StreamKey::new(1, 1)));
        assert!(ranges[1].contains(StreamKey::new(2, 0)));
        assert!(!ranges[0].contains(StreamKey::new(2, 0)));
        assert_eq!(
            ranges[0].to_string(),
            "[(table 0, row 0) .. (table 2, row 0))"
        );
    }

    #[test]
    fn stream_key_bind_matches_seed_for() {
        let key = StreamKey::new(3, 17);
        assert_eq!(key.bind(42), seed_for(42, 3, 17));
        assert_eq!(key.bind(43), seed_for(43, 3, 17));
        assert_ne!(key.bind(42), key.bind(43));
        assert_eq!(key.to_string(), "(table 3, row 17)");
        assert!(StreamKey::new(1, 0) < StreamKey::new(1, 1));
    }
}
