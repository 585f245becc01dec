//! The plan-keyed session cache: pay phase 1 once per `(plan, catalog)`,
//! not once per `(plan, catalog, master_seed)`.
//!
//! A [`PlanSkeleton`] depends only on the plan's
//! structure and the catalog's contents — never on the master seed (lineage
//! is recorded by `(table_tag, row)` [`mcdbr_prng::StreamKey`]s and concrete
//! seeds are derived at binding time).  [`SessionCache`] exploits this by
//! storing skeletons under a key of
//!
//! * the plan's fingerprint ([`PlanNode::fingerprint`], a hash of the
//!   bytes the plan ships as), and
//! * the catalog's content epoch ([`mcdbr_storage::Catalog::epoch`]).
//!
//! A repeated query — same plan shape, same catalog, *any* master seed —
//! hits the cache and skips the deterministic skeleton pass (scans, joins,
//! constant predicates, VG probes) entirely; streams derive their
//! [`mcdbr_prng::seed_for`] seeds where they are generated.  Mutating the
//! catalog bumps its epoch to a globally fresh value, so stale entries can
//! never be served: the contract is *equal key ⇒ identical skeleton*, with
//! invalidation by key change rather than by eviction.
//!
//! Uncacheable plans (`Split` over a random column, paper §8) are never
//! stored: like a plan error, each session runs detection again, counts as
//! a miss, and falls back to the honest per-block executor — whose every
//! block re-runs the whole plan anyway.
//!
//! The cache is internally synchronized (`&self` methods, atomic counters),
//! so one cache can be shared — e.g. behind an [`std::sync::Arc`] — between
//! an engine, several Gibbs loopers, server connections, and worker
//! threads.  Concurrent misses on the *same* key are **single-flight**: the
//! first session to miss builds the skeleton (outside the entry lock, so
//! slow builds never block unrelated lookups), every racer waits for that
//! build and then takes it as a hit — so "one plan execution per distinct
//! `(plan, epoch)`" holds *exactly* under concurrency, not just on average,
//! and the hit/miss counters are race-free totals a test can assert.
//! Capacity is
//! bounded (LRU eviction, default [`SessionCache::DEFAULT_CAPACITY`]): a
//! long-lived engine that keeps mutating its catalog — orphaning entries
//! keyed on dead epochs — cannot grow the cache without bound, and under a
//! mixed multi-catalog workload that actually hits the bound, the entries
//! that survive are the ones still being asked for (hits refresh recency).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mcdbr_storage::{Catalog, Result};

use crate::plan::PlanNode;
use crate::session::{build_skeleton, ExecSession, PlanSkeleton, PrepError};

/// The identity of one plan version: `(plan fingerprint, catalog epoch)`.
/// Equal keys name identical skeletons, so [`SessionCache`] stores
/// skeletons under it, every [`PlanSkeleton`] records the key it was built
/// under, and a dispatching backend ships and looks up plans by it.  The
/// fingerprint hashes the plan's [`PlanNode::encode_wire`] bytes, so a
/// peer that rebuilds the plan from a frame recomputes the sender's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`PlanNode::fingerprint`] of the plan: FNV-1a of its wire bytes.
    pub fingerprint: u64,
    /// [`Catalog::epoch`] of the catalog the plan reads.  Only the pair has
    /// to identify the snapshot: a worker's rebuilt catalog mints its own
    /// local epoch.
    pub epoch: u64,
}

impl PlanKey {
    /// The key of `plan` over `catalog`.
    pub fn new(plan: &PlanNode, catalog: &Catalog) -> Self {
        PlanKey {
            fingerprint: plan.fingerprint(),
            epoch: catalog.epoch(),
        }
    }
}

/// A cache of [`PlanSkeleton`]s keyed by [`PlanKey`].
///
/// See the [module docs](self) for the key/invalidation contract.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use mcdbr_exec::plan::scalar_random_table;
/// use mcdbr_exec::{Expr, PlanNode, SessionCache};
/// use mcdbr_storage::{Catalog, Field, Schema, TableBuilder, Value};
/// use mcdbr_vg::NormalVg;
///
/// # fn main() -> mcdbr_storage::Result<()> {
/// let mut catalog = Catalog::new();
/// let means =
///     TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
///         .row([Value::Int64(1), Value::Float64(3.0)])
///         .build()?;
/// catalog.register("means", means)?;
/// let plan = PlanNode::random_table(scalar_random_table(
///     "Losses",
///     "means",
///     Arc::new(NormalVg),
///     vec![Expr::col("m"), Expr::lit(1.0)],
///     &["cid"],
///     "val",
///     1,
/// ));
///
/// let cache = SessionCache::new();
///
/// // First session pays phase 1 (a miss)...
/// let mut first = cache.session(&plan, &catalog, 7)?;
/// assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (0, 1));
/// assert_eq!(first.plan_executions(), 1);
///
/// // ...a repeat under a *fresh master seed* skips phase 1 entirely.
/// let mut second = cache.session(&plan, &catalog, 999)?;
/// assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (1, 1));
/// assert!(second.skeleton_hit());
/// assert_eq!(second.plan_executions(), 0);
///
/// // Both sessions materialize blocks as usual — and mutating the catalog
/// // would change its epoch, turning the next lookup into a miss.
/// let a = first.instantiate_block(&catalog, 0, 10)?;
/// let b = second.instantiate_block(&catalog, 0, 10)?;
/// assert_eq!(a.len(), b.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionCache {
    entries: Mutex<Entries>,
    /// In-progress skeleton builds, keyed like `entries` — the single-flight
    /// table.  Held only around map operations, never across a build.
    flights: Mutex<HashMap<PlanKey, Arc<Flight>>>,
    capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// One in-progress skeleton build that racing sessions wait on.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) {
        let mut done = self.done.lock().expect("flight poisoned");
        while !*done {
            done = self.cv.wait(done).expect("flight poisoned");
        }
    }

    fn finish(&self) {
        *self.done.lock().expect("flight poisoned") = true;
        self.cv.notify_all();
    }
}

/// Marks the guarded flight finished on every exit path — including a
/// panicking or erroring build — so waiters can never hang on a builder
/// that went away.
struct FlightGuard<'a> {
    cache: &'a SessionCache,
    key: PlanKey,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache
            .flights
            .lock()
            .expect("cache poisoned")
            .remove(&self.key);
        self.flight.finish();
    }
}

/// The guarded map with per-entry recency stamps (for bounded LRU
/// eviction): every hit and (re)insert stamps its entry with the next tick
/// of a monotonic clock, making a touch O(1) on the hot hit path regardless
/// of the configured capacity; eviction — the rare path, only when an
/// insert exceeds capacity — scans for the minimum stamp.
#[derive(Debug, Default)]
struct Entries {
    map: HashMap<PlanKey, Stamped>,
    clock: u64,
}

/// A cached skeleton plus the clock tick of its last use.
#[derive(Debug)]
struct Stamped {
    skeleton: Arc<PlanSkeleton>,
    last_used: u64,
}

impl Entries {
    /// The next recency stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evict the least-recently-used entry (linear scan — amortized against
    /// a skeleton build, never against a hit).
    fn evict_lru(&mut self) {
        if let Some(lru) = self
            .map
            .iter()
            .min_by_key(|(_, stamped)| stamped.last_used)
            .map(|(key, _)| *key)
        {
            self.map.remove(&lru);
        }
    }
}

impl Default for SessionCache {
    fn default() -> Self {
        SessionCache::with_capacity(SessionCache::DEFAULT_CAPACITY)
    }
}

impl SessionCache {
    /// Default maximum number of cached `(plan, catalog epoch)` entries.
    ///
    /// Catalog mutations mint fresh epochs, permanently orphaning entries
    /// keyed on the old epoch; the bound keeps a mutate-then-query loop from
    /// accumulating unreachable skeletons forever.  Eviction is LRU — least
    /// recently *used*, with hits refreshing recency — which handles the
    /// orphaned-epoch case exactly like FIFO did (dead entries stop being
    /// touched and age to the front) and additionally keeps a hot plan
    /// cached under mixed multi-catalog workloads, where insertion order
    /// says nothing about which entries are still earning their keep.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Create an empty cache with [`SessionCache::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        SessionCache::default()
    }

    /// Create an empty cache holding at most `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SessionCache {
            entries: Mutex::new(Entries::default()),
            flights: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Look `key` up, touching its recency stamp on a hit.
    fn lookup(&self, key: PlanKey) -> Option<Arc<PlanSkeleton>> {
        let mut entries = self.entries.lock().expect("cache poisoned");
        let stamp = entries.tick();
        let stamped = entries.map.get_mut(&key)?;
        // Touch on hit: the LRU order tracks use, not insertion.
        stamped.last_used = stamp;
        Some(Arc::clone(&stamped.skeleton))
    }

    /// Hand out an [`ExecSession`] for `(plan, catalog, master_seed)`.
    ///
    /// On a hit — a structurally identical plan was prepared against a
    /// catalog with this epoch before — phase 1 is skipped: the cached
    /// skeleton is bound to `master_seed` and the session reports
    /// `plan_executions() == 0` / `skeleton_hit() == true`.  On a miss the skeleton is built here, the
    /// session reports `plan_executions() == 1`, and the skeleton is stored
    /// for future sessions.
    ///
    /// Ordinary plan errors (missing tables, illegal joins) are returned and
    /// never cached; neither is an uncacheable plan, whose session falls
    /// back to per-block execution and counts as a miss every time.
    ///
    /// Concurrent misses on the same key coalesce into a **single** build:
    /// one racer runs phase 1, the others block until it lands and then
    /// take the entry as a hit (see the [module docs](self)).  If the build
    /// stores nothing (a plan error or an uncacheable plan), each waiter
    /// retries the build itself — both reproduce deterministically.
    pub fn session(
        &self,
        plan: &PlanNode,
        catalog: &Catalog,
        master_seed: u64,
    ) -> Result<ExecSession> {
        let key = PlanKey::new(plan, catalog);
        loop {
            if let Some(skeleton) = self.lookup(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(ExecSession::from_skeleton(
                    plan,
                    skeleton,
                    master_seed,
                    true,
                ));
            }

            // Miss: join this key's in-progress build, or become its builder.
            let flight = {
                let mut flights = self.flights.lock().expect("cache poisoned");
                match flights.get(&key) {
                    Some(flight) => {
                        let flight = Arc::clone(flight);
                        drop(flights);
                        flight.wait();
                        // The builder landed (its waiters hit) or failed
                        // (we re-miss and build ourselves) — re-check.
                        continue;
                    }
                    None => {
                        // A builder that ran wholly between the miss above
                        // and this lock has published its entry (entries
                        // land before the flight is removed): take the hit
                        // rather than run phase 1 a second time.
                        if self.lookup(key).is_some() {
                            continue;
                        }
                        let flight = Arc::new(Flight::default());
                        flights.insert(key, Arc::clone(&flight));
                        flight
                    }
                }
            };
            let _guard = FlightGuard {
                cache: self,
                key,
                flight,
            };

            // Build outside both locks, so a slow phase 1 blocks only the
            // sessions that need this exact skeleton.
            let skeleton = match build_skeleton(plan, catalog, key) {
                Ok(skeleton) => Arc::new(skeleton),
                Err(PrepError::ValueDependent(reason)) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok(ExecSession::fallback(plan, master_seed, reason));
                }
                Err(PrepError::Fail(e)) => return Err(e),
            };
            self.misses.fetch_add(1, Ordering::Relaxed);
            let session =
                ExecSession::from_skeleton(plan, Arc::clone(&skeleton), master_seed, false);
            let mut entries = self.entries.lock().expect("cache poisoned");
            let stamp = entries.tick();
            entries.map.insert(
                key,
                Stamped {
                    skeleton,
                    last_used: stamp,
                },
            );
            // LRU-evict beyond capacity: the minimum stamp is the entry that
            // has gone unused the longest (with a mutating catalog, the
            // orphaned-epoch ones age there on their own).
            while entries.map.len() > self.capacity {
                entries.evict_lru();
            }
            return Ok(session);
        }
    }

    /// Number of lookups that skipped phase 1 (the skeleton was already
    /// cached).
    pub fn skeleton_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to run the deterministic skeleton pass.
    pub fn skeleton_misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached `(plan, catalog epoch)` skeletons.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries before LRU eviction kicks in.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every cached entry (counters are kept).  Entries for stale
    /// catalog epochs are unreachable anyway — their keys can no longer be
    /// constructed — so this (like the capacity bound) is about memory, not
    /// correctness.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("cache poisoned");
        entries.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::scalar_random_table;
    use mcdbr_storage::{Field, Schema, TableBuilder, Value};
    use mcdbr_vg::NormalVg;

    fn catalog() -> Catalog {
        let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
            .row([Value::Int64(1), Value::Float64(3.0)])
            .row([Value::Int64(2), Value::Float64(4.0)])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means).unwrap();
        catalog
    }

    fn losses_plan() -> PlanNode {
        PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
    }

    #[test]
    fn racing_sessions_single_flight_one_miss() {
        // All racers ask for the same (plan, epoch) at once: exactly one
        // builds (one miss, plan_executions == 1 across the cache), the
        // rest coalesce onto that build and count as hits.
        let cache = Arc::new(SessionCache::new());
        let catalog = Arc::new(catalog());
        let plan = Arc::new(losses_plan());
        const RACERS: usize = 8;
        let barrier = Arc::new(std::sync::Barrier::new(RACERS));
        let handles: Vec<_> = (0..RACERS)
            .map(|seed| {
                let (cache, catalog, plan, barrier) = (
                    Arc::clone(&cache),
                    Arc::clone(&catalog),
                    Arc::clone(&plan),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    let session = cache.session(&plan, &catalog, seed as u64).unwrap();
                    session.plan_executions()
                })
            })
            .collect();
        let executions: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(executions, 1, "exactly one racer pays phase 1");
        assert_eq!(cache.skeleton_misses(), 1);
        assert_eq!(cache.skeleton_hits(), RACERS - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hits_and_misses_are_counted_per_key() {
        let catalog = catalog();
        let cache = SessionCache::new();
        assert!(cache.is_empty());

        let s1 = cache.session(&losses_plan(), &catalog, 1).unwrap();
        assert!(!s1.skeleton_hit());
        assert_eq!(s1.plan_executions(), 1);
        assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (0, 1));
        assert_eq!(cache.len(), 1);

        // Same plan, different seeds: hits, phase 1 skipped.
        for seed in [1u64, 2, 3] {
            let s = cache.session(&losses_plan(), &catalog, seed).unwrap();
            assert!(s.skeleton_hit());
            assert_eq!(s.plan_executions(), 0);
        }
        assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (3, 1));

        // A structurally different plan misses.
        let filtered = losses_plan().filter(Expr::col("cid").lt(Expr::lit(2i64)));
        let s2 = cache.session(&filtered, &catalog, 1).unwrap();
        assert!(!s2.skeleton_hit());
        assert_eq!(cache.skeleton_misses(), 2);
        assert_eq!(cache.len(), 2);

        cache.clear();
        assert!(cache.is_empty());
        // Cleared entries rebuild on demand.
        let s3 = cache.session(&losses_plan(), &catalog, 1).unwrap();
        assert!(!s3.skeleton_hit());
    }

    #[test]
    fn catalog_mutation_invalidates_by_epoch() {
        let mut catalog = catalog();
        let cache = SessionCache::new();
        let _ = cache.session(&losses_plan(), &catalog, 1).unwrap();
        assert_eq!(cache.skeleton_misses(), 1);

        // Replacing the parameter table changes the epoch: the next lookup
        // rebuilds the skeleton against the new contents.
        let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
            .row([Value::Int64(9), Value::Float64(100.0)])
            .build()
            .unwrap();
        catalog.register_or_replace("means", means);
        let fresh = cache.session(&losses_plan(), &catalog, 1).unwrap();
        assert!(!fresh.skeleton_hit());
        assert_eq!(cache.skeleton_misses(), 2);
        assert_eq!(fresh.prefix().unwrap().num_streams(), 1);
    }

    /// A `Split` over a random column (paper §8): its bundle structure
    /// depends on stream values, so it has no cacheable skeleton.
    fn split_plan() -> (PlanNode, Catalog) {
        let mut catalog = Catalog::new();
        let param = TableBuilder::new(Schema::new(vec![
            Field::int64("id"),
            Field::float64("w_a"),
            Field::float64("w_b"),
        ]))
        .row([Value::Int64(1), Value::Float64(0.5), Value::Float64(0.5)])
        .build()
        .unwrap();
        catalog.register("people", param).unwrap();
        let plan = PlanNode::random_table(scalar_random_table(
            "ages",
            "people",
            Arc::new(mcdbr_vg::DiscreteVg::new(vec![
                Value::Int64(20),
                Value::Int64(21),
            ])),
            vec![Expr::col("w_a"), Expr::col("w_b")],
            &["id"],
            "age",
            3,
        ))
        .split("age");
        (plan, catalog)
    }

    #[test]
    fn uncacheable_plans_are_never_stored() {
        // Like a plan error, an uncacheable plan stores nothing: every
        // session runs detection again, falls back, and counts as a miss.
        let (plan, catalog) = split_plan();
        let cache = SessionCache::new();
        let s1 = cache.session(&plan, &catalog, 1).unwrap();
        let s2 = cache.session(&plan, &catalog, 2).unwrap();
        for s in [&s1, &s2] {
            assert!(!s.is_cached());
            assert!(!s.skeleton_hit());
        }
        assert!(s1.fallback_reason().unwrap().contains("Split"));
        assert_eq!(s1.fallback_reason(), s2.fallback_reason());
        assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (0, 2));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_is_bounded_with_lru_eviction() {
        let mut catalog = catalog();
        let cache = SessionCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);

        // Three epochs of the same plan: each catalog mutation orphans the
        // previous entry; the bound keeps only the 2 most recently used.
        for i in 0..3i64 {
            let extra = TableBuilder::new(Schema::new(vec![Field::int64("x")]))
                .row([Value::Int64(i)])
                .build()
                .unwrap();
            catalog.register(format!("extra_{i}"), extra).unwrap();
            let _ = cache.session(&losses_plan(), &catalog, 1).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.skeleton_misses(), 3);
        // The newest entry is still cached.
        let s = cache.session(&losses_plan(), &catalog, 2).unwrap();
        assert!(s.skeleton_hit());
        // An evicted (oldest) entry would rebuild — but its epoch is dead, so
        // the observable effect is just bounded memory; re-querying the live
        // catalog keeps hitting.
        assert_eq!(cache.skeleton_hits(), 1);
    }

    #[test]
    fn eviction_order_is_recency_not_insertion() {
        // Three structurally distinct plans over one catalog epoch, capacity
        // 2.  Under FIFO, inserting C would evict A no matter what; under
        // LRU, a hit on A after B's insertion makes B the eviction victim.
        let catalog = catalog();
        let plan_a = losses_plan().filter(Expr::col("cid").lt(Expr::lit(10i64)));
        let plan_b = losses_plan().filter(Expr::col("cid").lt(Expr::lit(20i64)));
        let plan_c = losses_plan().filter(Expr::col("cid").lt(Expr::lit(30i64)));
        let cache = SessionCache::with_capacity(2);

        let _ = cache.session(&plan_a, &catalog, 1).unwrap(); // order: A
        let _ = cache.session(&plan_b, &catalog, 1).unwrap(); // order: A B
        assert!(cache.session(&plan_a, &catalog, 2).unwrap().skeleton_hit()); // order: B A
        let _ = cache.session(&plan_c, &catalog, 1).unwrap(); // evicts B: A C
        assert_eq!(cache.len(), 2);

        // A survived its FIFO death sentence...
        assert!(cache.session(&plan_a, &catalog, 3).unwrap().skeleton_hit());
        // ...C is cached...
        assert!(cache.session(&plan_c, &catalog, 3).unwrap().skeleton_hit());
        // ...and B — the least recently used — was the one evicted.
        assert_eq!(cache.skeleton_misses(), 3);
        assert!(!cache.session(&plan_b, &catalog, 3).unwrap().skeleton_hit());
        assert_eq!(cache.skeleton_misses(), 4);
        // Rebuilding B evicted the then-LRU entry, A (C was touched after
        // A's last hit): the survivors are exactly {C, B}.
        assert_eq!(cache.len(), 2);
        assert!(cache.session(&plan_c, &catalog, 4).unwrap().skeleton_hit());
        assert!(cache.session(&plan_b, &catalog, 4).unwrap().skeleton_hit());
        assert!(!cache.session(&plan_a, &catalog, 4).unwrap().skeleton_hit());
    }

    #[test]
    fn plan_errors_are_returned_not_cached() {
        let catalog = catalog();
        let cache = SessionCache::new();
        assert!(cache.session(&PlanNode::scan("nope"), &catalog, 1).is_err());
        assert!(cache.is_empty());
        assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (0, 0));
    }
}
