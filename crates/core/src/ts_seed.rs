//! TS-seeds: the bookkeeping attached to every random stream (paper §6).
//!
//! A TS-seed contains "(1) a TS-seed identifier, (2) the actual PRNG seed
//! used to produce a stream of random data, (3) the range of stream values
//! currently materialized and present within the Gibbs tuples, (4) the last
//! random value in that range that has previously been assigned to any DB
//! version for this TS-seed, and (5) the random value currently assigned to
//! each DB version for this TS-seed."
//!
//! Items (4) and (5) are stream *positions* here (the figures call them
//! "iteration numbers"): item (5) defines what the DB versions currently
//! look like, and item (4) feeds the rejection sampler with "the next
//! unassigned random value".  Item (3) is not kept: a stream value is a
//! pure function of `(seed, position)`, so every stream holds the looper's
//! initial block, and a position past it is drawn when first reached.

use mcdbr_prng::SeedId;

/// The tail-sampling seed of paper §6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsSeed {
    /// (1) + (2): the stream identifier / PRNG seed.
    pub seed: SeedId,
    /// (4): the highest stream position ever handed to the rejection sampler
    /// (or assigned during initialization).
    pub max_used: u64,
    /// (5): the stream position currently assigned to each DB version.
    pub assignment: Vec<u64>,
}

impl TsSeed {
    /// Create the TS-seed for a stream with `num_versions` DB versions, using
    /// the initial MCDB-style mapping "the i-th value in each stream is
    /// mapped to the i-th DB version" (paper Appendix A.1).
    pub fn new(seed: SeedId, num_versions: usize) -> Self {
        TsSeed {
            seed,
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

    /// Rebuild the assignment vector for a new set of versions, where new
    /// version `v` takes its assignment from old version `sources[v]` — the
    /// cloning step, which the paper performs as "the column in each TS-seed
    /// that records the assignment for DB version two is simply copied to
    /// the column for version one" (Appendix A.2, Fig. 4(b)).  The version
    /// count may change between bootstrapping steps (Algorithm 3 allows
    /// `n_{i+1} ≠ n_i`, and the final step clones up to `l` versions).
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
        let ts = TsSeed::new(42, 4);
        assert_eq!(ts.assignment, vec![0, 1, 2, 3]);
        assert_eq!(ts.max_used, 3);
        assert_eq!(ts.next_unused(), 4);
        assert_eq!(ts.num_versions(), 4);
    }

    #[test]
    fn assignment_updates_track_max_used() {
        let mut ts = TsSeed::new(1, 2);
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
    fn reassignment_handles_version_count_changes() {
        let mut ts = TsSeed::new(5, 4);
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
        let mut ts = TsSeed::new(27, 2);
        ts.assign(0, 3);
        ts.assign(1, 5);
        ts.reassign_from(&[1, 1]);
        assert_eq!(ts.assignment, vec![5, 5]);
        assert_eq!(ts.max_used, 5);
    }
}
