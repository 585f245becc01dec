//! Seeded, deterministic fault injection for MCDB-R.
//!
//! Chaos testing a distributed sampler is only useful if a failing run can be
//! replayed: this crate derives every fault decision from a [`Pcg64`]
//! position-addressable stream, so a fault plan plus a seed fully determines
//! *which* frame is dropped, *which* reply stalls, and *which* task runs slow
//! — independent of thread interleaving.  The decision for injection point
//! `p`'s `i`-th visit is a pure function of `(seed, p, i)`.
//!
//! A [`FaultPlan`] is parsed from its textual form (see [`FaultPlan::parse`]
//! for the grammar) and evaluated by a [`FaultInjector`], which the
//! dispatch wire and the worker loop consult at typed [`FaultPoint`]s.
//! The caller arms a plan (`ProcessBackend::with_fault_spec`); the only
//! environment read is [`env_injector`], through which a spawned worker
//! process picks up the plan its coordinator wrote into [`FAULTS_ENV`].
//! Nothing else in the library reads that variable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use mcdbr_prng::Pcg64;

/// Environment variable through which a coordinator hands its fault plan
/// to the worker processes it spawns.
pub const FAULTS_ENV: &str = "MCDBR_FAULTS";

/// Typed injection points consulted by the dispatch layer.
///
/// | Point | Sited at | Observable failure |
/// |-------|----------|--------------------|
/// | `StallBeforeReply` | worker, before the first frame of a task reply | hung-but-alive worker; coordinator read deadline |
/// | `PartialWrite` | frame writes on the dispatch wire | truncated/corrupt frame; stream desync |
/// | `DelayedWrite` | frame writes on the dispatch wire | slow pipe; latency only |
/// | `DropFrame` | frame writes on the dispatch wire | silent peer; read deadline |
/// | `SlowWorker` | worker, before serving a task | straggler; latency only |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Sleep before writing the first frame of a task reply.
    StallBeforeReply,
    /// Write only a prefix of a frame, then report success.
    PartialWrite,
    /// Sleep before writing a frame, then write it normally.
    DelayedWrite,
    /// Swallow a frame entirely while reporting success.
    DropFrame,
    /// Sleep before serving a task.
    SlowWorker,
}

/// All injection points, in decision-counter order.
pub const FAULT_POINTS: [FaultPoint; 5] = [
    FaultPoint::StallBeforeReply,
    FaultPoint::PartialWrite,
    FaultPoint::DelayedWrite,
    FaultPoint::DropFrame,
    FaultPoint::SlowWorker,
];

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::StallBeforeReply => 0,
            FaultPoint::PartialWrite => 1,
            FaultPoint::DelayedWrite => 2,
            FaultPoint::DropFrame => 3,
            FaultPoint::SlowWorker => 4,
        }
    }

    /// Key used in the plan grammar.
    pub fn key(self) -> &'static str {
        match self {
            FaultPoint::StallBeforeReply => "stall",
            FaultPoint::PartialWrite => "partial",
            FaultPoint::DelayedWrite => "delay",
            FaultPoint::DropFrame => "drop",
            FaultPoint::SlowWorker => "slow",
        }
    }

    /// Stream salt: decisions for different points never share a PRNG stream.
    fn salt(self) -> u64 {
        // Arbitrary distinct odd constants; folded into the plan seed.
        [
            0x7374_616c_6c01, // "stall"
            0x7061_7274_6902, // "parti"
            0x6465_6c61_7903, // "delay"
            0x6472_6f70_6604, // "dropf"
            0x736c_6f77_7705, // "sloww"
        ][self.index()]
    }

    fn default_millis(self) -> u64 {
        match self {
            // Long enough to trip any sane read deadline.
            FaultPoint::StallBeforeReply => 30_000,
            FaultPoint::PartialWrite | FaultPoint::DropFrame => 0,
            FaultPoint::DelayedWrite | FaultPoint::SlowWorker => 2,
        }
    }
}

/// Per-point fault parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that a given decision fires.
    pub prob: f64,
    /// Sleep duration for stall/delay/slow points; ignored for drop/partial.
    pub millis: u64,
    /// Cap on the number of times this point may fire (`None` = unlimited).
    /// Caps make exact counter audits possible in tests.
    pub max_fires: Option<u64>,
}

/// A parsed fault plan: a seed plus per-point specs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; every decision stream is derived from it.
    pub seed: u64,
    /// When set, only the worker with this slot index receives the plan
    /// (the coordinator's own send-side injection is disabled too).
    pub target_worker: Option<usize>,
    specs: [Option<FaultSpec>; 5],
    raw: String,
}

impl FaultPlan {
    /// Parse a plan from its textual form.
    ///
    /// Grammar: comma-separated fields, each either `seed=<u64>`,
    /// `worker=<index>`, or `<point>=<prob>[:<millis>][x<count>]` where
    /// `<point>` is one of `stall`, `partial`, `delay`, `drop`, `slow`.
    ///
    /// Example: `seed=42,stall=0.2:10000,drop=0.05,slow=0.1:2x8` — with seed
    /// 42, stall 20% of task replies for 10 s, drop 5% of frames, and slow 10%
    /// of tasks by 2 ms but at most 8 times.
    pub fn parse(raw: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 0,
            target_worker: None,
            specs: [None; 5],
            raw: raw.to_string(),
        };
        for field in raw.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault field `{field}` is missing `=`"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault seed `{value}`"))?;
                }
                "worker" => {
                    plan.target_worker = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad fault worker index `{value}`"))?,
                    );
                }
                key => {
                    let point = FAULT_POINTS
                        .iter()
                        .copied()
                        .find(|p| p.key() == key)
                        .ok_or_else(|| format!("unknown fault point `{key}`"))?;
                    plan.specs[point.index()] = Some(parse_spec(point, value.trim())?);
                }
            }
        }
        Ok(plan)
    }

    /// The spec for an injection point, if the plan enables it.
    pub fn spec(&self, point: FaultPoint) -> Option<&FaultSpec> {
        self.specs[point.index()].as_ref()
    }

    /// True when the plan has at least one enabled point.
    pub fn is_active(&self) -> bool {
        self.specs.iter().any(|s| s.is_some())
    }

    /// Should the worker at `slot` receive this plan?
    pub fn targets_worker(&self, slot: usize) -> bool {
        self.target_worker.is_none_or(|k| k == slot)
    }

    /// The textual form the plan was parsed from (round-trips through the
    /// `MCDBR_FAULTS` environment of spawned workers).
    pub fn as_str(&self) -> &str {
        &self.raw
    }
}

fn parse_spec(point: FaultPoint, value: &str) -> Result<FaultSpec, String> {
    let (value, max_fires) = match value.rsplit_once('x') {
        Some((head, count)) if count.chars().all(|c| c.is_ascii_digit()) && !count.is_empty() => {
            let cap: u64 = count
                .parse()
                .map_err(|_| format!("bad fault fire cap `{count}`"))?;
            (head, Some(cap))
        }
        _ => (value, None),
    };
    let (prob_str, millis) = match value.split_once(':') {
        Some((p, ms)) => (
            p,
            ms.parse()
                .map_err(|_| format!("bad fault duration `{ms}`"))?,
        ),
        None => (value, point.default_millis()),
    };
    let prob: f64 = prob_str
        .parse()
        .map_err(|_| format!("bad fault probability `{prob_str}`"))?;
    if !(0.0..=1.0).contains(&prob) {
        return Err(format!("fault probability {prob} outside [0, 1]"));
    }
    Ok(FaultSpec {
        prob,
        millis,
        max_fires,
    })
}

/// What a consulted injection point should do, when a decision fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this long before writing the reply.
    Stall(Duration),
    /// Sleep this long, then proceed normally.
    Delay(Duration),
    /// Swallow the frame; report success to the writer.
    Drop,
    /// Write only a prefix of the frame; report success to the writer.
    Truncate,
    /// Sleep this long before serving the task.
    Slow(Duration),
}

/// Evaluates a [`FaultPlan`] with position-addressable decisions.
///
/// Each injection point keeps its own decision counter; the `i`-th decision
/// for point `p` draws from `Pcg64::with_stream(seed ^ salt(p), i)` so a run
/// is replayable from the plan alone regardless of interleaving.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    decisions: [AtomicU64; 5],
    fired: [AtomicU64; 5],
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            decisions: Default::default(),
            fired: Default::default(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consult an injection point.  Advances the point's decision counter and
    /// returns the action to take, if the decision fired.
    pub fn decide(&self, point: FaultPoint) -> Option<FaultAction> {
        let spec = *self.plan.spec(point)?;
        let i = self.decisions[point.index()].fetch_add(1, Ordering::Relaxed);
        let draw = Pcg64::with_stream(self.plan.seed ^ point.salt(), i).next_f64();
        if draw >= spec.prob {
            return None;
        }
        if let Some(cap) = spec.max_fires {
            let won = self.fired[point.index()]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                    (f < cap).then_some(f + 1)
                })
                .is_ok();
            if !won {
                return None;
            }
        } else {
            self.fired[point.index()].fetch_add(1, Ordering::Relaxed);
        }
        let ms = Duration::from_millis(spec.millis);
        Some(match point {
            FaultPoint::StallBeforeReply => FaultAction::Stall(ms),
            FaultPoint::PartialWrite => FaultAction::Truncate,
            FaultPoint::DelayedWrite => FaultAction::Delay(ms),
            FaultPoint::DropFrame => FaultAction::Drop,
            FaultPoint::SlowWorker => FaultAction::Slow(ms),
        })
    }

    /// How many times a point has fired so far (for counter audits).
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }
}

/// Pure parse of the [`FAULTS_ENV`] value a worker process inherits.
/// Unset, empty, or malformed values disable injection (a coordinator
/// validates its plan with [`FaultPlan::parse`] before writing it).
pub fn plan_from_env(raw: Option<&str>) -> Option<FaultPlan> {
    let raw = raw?.trim();
    if raw.is_empty() {
        return None;
    }
    FaultPlan::parse(raw).ok().filter(FaultPlan::is_active)
}

/// The worker-process injector parsed from [`FAULTS_ENV`], memoized on
/// first use.  `None` when the variable is unset or names no active fault
/// points.  Only worker entry points (`mcdbr-worker`) call this; library
/// code takes its plan from the caller.
pub fn env_injector() -> Option<Arc<FaultInjector>> {
    static INJECTOR: OnceLock<Option<Arc<FaultInjector>>> = OnceLock::new();
    INJECTOR
        .get_or_init(|| {
            plan_from_env(std::env::var(FAULTS_ENV).ok().as_deref())
                .map(|plan| Arc::new(FaultInjector::new(plan)))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let plan = FaultPlan::parse(
            "seed=42,stall=0.2:10000,drop=0.05,partial=0.02,delay=0.1:5,slow=1:2x8",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.target_worker, None);
        assert_eq!(
            plan.spec(FaultPoint::StallBeforeReply),
            Some(&FaultSpec {
                prob: 0.2,
                millis: 10_000,
                max_fires: None
            })
        );
        assert_eq!(
            plan.spec(FaultPoint::DropFrame),
            Some(&FaultSpec {
                prob: 0.05,
                millis: 0,
                max_fires: None
            })
        );
        assert_eq!(
            plan.spec(FaultPoint::SlowWorker),
            Some(&FaultSpec {
                prob: 1.0,
                millis: 2,
                max_fires: Some(8)
            })
        );
        assert!(plan.is_active());
    }

    #[test]
    fn parses_worker_target() {
        let plan = FaultPlan::parse("seed=9,worker=1,stall=1:5000").unwrap();
        assert_eq!(plan.target_worker, Some(1));
        assert!(plan.targets_worker(1));
        assert!(!plan.targets_worker(0));
        let untargeted = FaultPlan::parse("seed=9,stall=1").unwrap();
        assert!(untargeted.targets_worker(0) && untargeted.targets_worker(7));
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "stall",            // missing '='
            "stall=2",          // prob > 1
            "stall=-0.1",       // prob < 0
            "seed=abc",         // non-numeric seed
            "warp=0.5",         // unknown point
            "stall=0.5:oops",   // bad duration
            "worker=minus-one", // bad index
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn env_parse_is_lenient() {
        assert_eq!(plan_from_env(None), None);
        assert_eq!(plan_from_env(Some("")), None);
        assert_eq!(plan_from_env(Some("garbage")), None);
        assert_eq!(plan_from_env(Some("seed=7")), None); // no active points
        assert!(plan_from_env(Some("seed=7,drop=0.5")).is_some());
    }

    #[test]
    fn decisions_are_position_addressable() {
        let plan = FaultPlan::parse("seed=11,drop=0.5,slow=0.5:1").unwrap();
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let seq_a: Vec<_> = (0..64).map(|_| a.decide(FaultPoint::DropFrame)).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.decide(FaultPoint::DropFrame)).collect();
        assert_eq!(seq_a, seq_b, "same plan must replay identically");
        assert!(seq_a.iter().any(Option::is_some));
        assert!(seq_a.iter().any(Option::is_none));
        // Distinct points draw from distinct streams: interleaving SlowWorker
        // decisions must not perturb the DropFrame sequence.
        let c = FaultInjector::new(FaultPlan::parse("seed=11,drop=0.5,slow=0.5:1").unwrap());
        let seq_c: Vec<_> = (0..64)
            .map(|_| {
                let _ = c.decide(FaultPoint::SlowWorker);
                c.decide(FaultPoint::DropFrame)
            })
            .collect();
        assert_eq!(seq_a, seq_c);
    }

    #[test]
    fn fire_caps_enable_exact_audits() {
        let plan = FaultPlan::parse("seed=3,stall=1:100x2").unwrap();
        let inj = FaultInjector::new(plan);
        let fired: Vec<_> = (0..10)
            .map(|_| inj.decide(FaultPoint::StallBeforeReply))
            .collect();
        assert_eq!(fired.iter().filter(|a| a.is_some()).count(), 2);
        assert_eq!(inj.fired(FaultPoint::StallBeforeReply), 2);
        // Probability 1 with a cap fires on the first decisions, then stops.
        assert!(fired[0].is_some() && fired[1].is_some() && fired[2].is_none());
    }

    #[test]
    fn actions_carry_durations() {
        let plan =
            FaultPlan::parse("seed=3,stall=1:250,delay=1:7,slow=1:3,partial=1,drop=1").unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.decide(FaultPoint::StallBeforeReply),
            Some(FaultAction::Stall(Duration::from_millis(250)))
        );
        assert_eq!(
            inj.decide(FaultPoint::DelayedWrite),
            Some(FaultAction::Delay(Duration::from_millis(7)))
        );
        assert_eq!(
            inj.decide(FaultPoint::SlowWorker),
            Some(FaultAction::Slow(Duration::from_millis(3)))
        );
        assert_eq!(
            inj.decide(FaultPoint::PartialWrite),
            Some(FaultAction::Truncate)
        );
        assert_eq!(inj.decide(FaultPoint::DropFrame), Some(FaultAction::Drop));
    }
}
