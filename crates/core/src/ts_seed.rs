//! TS-seeds: the bookkeeping attached to every random stream (paper §6).
//!
//! A TS-seed contains "(1) a TS-seed identifier, (2) the actual PRNG seed
//! used to produce a stream of random data, (3) the range of stream values
//! currently materialized and present within the Gibbs tuples, (4) the last
//! random value in that range that has previously been assigned to any DB
//! version for this TS-seed, and (5) the random value currently assigned to
//! each DB version for this TS-seed."
//!
//! Items (3)–(5) are stream *positions* here (the figures call them
//! "iteration numbers"): item (5) is the per-version assignment that defines
//! what the DB versions currently look like, item (4) feeds the rejection
//! sampler with "the next unassigned random value", and item (3) tells the
//! looper when it has run out of materialized data *for this stream* and
//! must trigger a replenishment run (paper §9).
//!
//! **The per-stream memory contract.**  Every stream starts with the same
//! initial block; from then on item (3) grows only for the stream whose
//! sampler ran past it, and each time by the stream's own materialized
//! length (it doubles).  A stream that was extended therefore consumed more
//! than half of what it holds, so after any run
//!
//! ```text
//! values materialized <= streams x initial block + 2 x stream positions consumed
//! ```
//!
//! however unevenly the streams are consumed.  The Gibbs tuples hold the
//! initial block; the looper keeps each later window beside the stream's
//! TS-seed, one per doubling — `log2(held / initial block)` windows, never
//! one per block of the hungriest stream.

use mcdbr_prng::SeedId;

/// The tail-sampling seed of paper §6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsSeed {
    /// (1) + (2): the stream identifier / PRNG seed.
    pub seed: SeedId,
    /// (3): one past the last materialized stream position (exclusive);
    /// the range starts at position 0.
    pub high: u64,
    /// (4): the highest stream position ever handed to the rejection sampler
    /// (or assigned during initialization).
    pub max_used: u64,
    /// (5): the stream position currently assigned to each DB version.
    pub assignment: Vec<u64>,
}

impl TsSeed {
    /// Create the TS-seed for a stream with `num_versions` DB versions and
    /// `materialized` values available, using the initial MCDB-style mapping
    /// "the i-th value in each stream is mapped to the i-th DB version"
    /// (paper Appendix A.1).
    pub fn new(seed: SeedId, num_versions: usize, materialized: u64) -> Self {
        assert!(
            materialized >= num_versions as u64,
            "need at least one materialized value per DB version"
        );
        TsSeed {
            seed,
            high: materialized,
            max_used: num_versions.saturating_sub(1) as u64,
            assignment: (0..num_versions as u64).collect(),
        }
    }

    /// Number of DB versions tracked.
    pub fn num_versions(&self) -> usize {
        self.assignment.len()
    }

    /// The stream position assigned to DB version `v`.
    pub fn assigned(&self, v: usize) -> u64 {
        self.assignment[v]
    }

    /// Assign stream position `pos` to DB version `v`, updating the
    /// "max used" bookkeeping.
    pub fn assign(&mut self, v: usize, pos: u64) {
        self.assignment[v] = pos;
        self.max_used = self.max_used.max(pos);
    }

    /// The next stream position the rejection sampler should try: "the first
    /// unused stream value" (paper §7 / Fig. 3).
    pub fn next_unused(&self) -> u64 {
        self.max_used + 1
    }

    /// Record that `count` additional stream positions have been materialized
    /// for this stream (the outcome of a replenishment run; the looper passes
    /// `high`, see the module docs).
    pub fn extend_materialized(&mut self, count: u64) {
        self.high += count;
    }

    /// Overwrite version `dst`'s assignment with version `src`'s — the
    /// cloning step, which the paper performs as "the column in each TS-seed
    /// that records the assignment for DB version two is simply copied to the
    /// column for version one" (Appendix A.2, Fig. 4(b)).
    pub fn clone_version(&mut self, dst: usize, src: usize) {
        self.assignment[dst] = self.assignment[src];
    }

    /// Rebuild the assignment vector for a new set of versions, where new
    /// version `v` takes its assignment from old version `sources[v]`.
    /// Used when the version count changes between bootstrapping steps
    /// (Algorithm 3 allows `n_{i+1} ≠ n_i`, and the final step clones up to
    /// `l` versions).
    pub fn reassign_from(&mut self, sources: &[usize]) {
        let new_assignment: Vec<u64> = sources.iter().map(|&s| self.assignment[s]).collect();
        self.assignment = new_assignment;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_mapping_is_identity() {
        let ts = TsSeed::new(42, 4, 100);
        assert_eq!(ts.assignment, vec![0, 1, 2, 3]);
        assert_eq!(ts.max_used, 3);
        assert_eq!(ts.next_unused(), 4);
        assert_eq!(ts.num_versions(), 4);
        assert_eq!(ts.high, 100);
    }

    #[test]
    #[should_panic(expected = "need at least one materialized value per DB version")]
    fn too_few_materialized_values_panics() {
        TsSeed::new(1, 10, 5);
    }

    #[test]
    fn assignment_updates_track_max_used() {
        let mut ts = TsSeed::new(1, 2, 10);
        // Fig. 3(b)-(c): version one moves to stream position 2, version two
        // rejects position 3 and accepts position 4.
        ts.assign(0, 2);
        assert_eq!(ts.max_used, 2);
        assert_eq!(ts.next_unused(), 3);
        ts.assign(1, 4);
        assert_eq!(ts.max_used, 4);
        assert_eq!(ts.assigned(0), 2);
        assert_eq!(ts.assigned(1), 4);
        // Assigning an older position never decreases max_used.
        ts.assign(0, 1);
        assert_eq!(ts.max_used, 4);
    }

    #[test]
    fn replenishment_detection_and_extension() {
        let mut ts = TsSeed::new(9, 2, 5);
        ts.assign(0, 4);
        // The next unused position (5) is beyond the materialized range.
        assert_eq!((ts.next_unused(), ts.high), (5, 5));
        ts.extend_materialized(5);
        assert_eq!(ts.high, 10);
    }

    #[test]
    fn cloning_copies_assignment_columns() {
        let mut ts = TsSeed::new(3, 4, 20);
        ts.assign(2, 7);
        ts.assign(3, 9);
        // Overwrite non-elite versions 0 and 1 with clones of 2 and 3.
        ts.clone_version(0, 2);
        ts.clone_version(1, 3);
        assert_eq!(ts.assignment, vec![7, 9, 7, 9]);
    }

    #[test]
    fn reassignment_handles_version_count_changes() {
        let mut ts = TsSeed::new(5, 4, 50);
        ts.assign(1, 11);
        ts.assign(3, 13);
        // Final stage: clone elites {1, 3} out to 5 versions round-robin.
        ts.reassign_from(&[1, 3, 1, 3, 1]);
        assert_eq!(ts.assignment, vec![11, 13, 11, 13, 11]);
        assert_eq!(ts.num_versions(), 5);
        assert_eq!(ts.max_used, 13);
    }

    #[test]
    fn paper_figure_4b_trace() {
        // Fig. 4(a) -> 4(b): with two versions assigned positions (V1, V2) =
        // (5,5) for seed2-style streams and (4,4) after the copy.  We model
        // one seed: before cloning V1 = 3, V2 = 5; after cloning the elite V2
        // over V1 both read 5.
        let mut ts = TsSeed::new(27, 2, 1000);
        ts.assign(0, 3);
        ts.assign(1, 5);
        ts.clone_version(0, 1);
        assert_eq!(ts.assignment, vec![5, 5]);
        assert_eq!(ts.max_used, 5);
    }
}
