//! The fair scheduler: a bounded worker pool that interleaves work units
//! from concurrent queries instead of running queries serially.
//!
//! Every in-flight query owns a FIFO **unit queue**; the queues sit in a
//! round-robin ring.  A worker takes *one* unit from the front queue, then
//! rotates that queue to the back of the ring — so a query that fanned out
//! into many shard tasks cannot starve a query that arrived while it was
//! running: with q live queries, each gets every q-th worker slot
//! regardless of how many units it has queued.  Units within one query
//! stay FIFO, which the executors rely on for nothing (results are
//! reassembled by index) but keeps latency profiles intuitive.
//!
//! The scheduler never runs a unit on the thread that submitted it:
//! connection threads block in [`FairScheduler::run_batch`] while pool
//! workers execute, which is what makes per-unit **queue-wait** a real
//! measure of cross-query contention.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One schedulable unit of work.
type Unit = Box<dyn FnOnce() + Send + 'static>;

struct SchedState {
    /// The round-robin ring: `(query id, that query's FIFO unit queue)`.
    queues: VecDeque<(u64, VecDeque<Unit>)>,
    /// Total queued units across all queries (fast idle check).
    queued: usize,
    shutdown: bool,
}

/// The bounded, query-fair worker pool.  See the [module docs](self) for
/// the rotation rule.
pub struct FairScheduler {
    state: Mutex<SchedState>,
    work: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
    pool_size: usize,
}

impl std::fmt::Debug for FairScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairScheduler")
            .field("pool_size", &self.pool_size)
            .finish()
    }
}

impl FairScheduler {
    /// Start a scheduler with `workers` pool threads (minimum 1).
    pub fn start(workers: usize) -> Arc<FairScheduler> {
        let workers = workers.max(1);
        let sched = Arc::new(FairScheduler {
            state: Mutex::new(SchedState {
                queues: VecDeque::new(),
                queued: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            pool_size: workers,
        });
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || sched.worker_loop())
            })
            .collect();
        *sched.workers.lock().expect("scheduler pool") = handles;
        sched
    }

    /// Number of pool threads.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Enqueue one unit under `qid`'s queue (creating it on first use).
    pub fn submit(&self, qid: u64, unit: Unit) {
        let mut state = self.state.lock().expect("scheduler state");
        match state.queues.iter_mut().find(|(id, _)| *id == qid) {
            Some((_, queue)) => queue.push_back(unit),
            None => state.queues.push_back((qid, VecDeque::from([unit]))),
        }
        state.queued += 1;
        drop(state);
        self.work.notify_one();
    }

    fn worker_loop(&self) {
        loop {
            let unit = {
                let mut state = self.state.lock().expect("scheduler state");
                loop {
                    if state.queued > 0 {
                        break;
                    }
                    // Drain-then-exit: queued work is always finished, even
                    // when shutdown raced in while units were pending.
                    if state.shutdown {
                        return;
                    }
                    state = self.work.wait(state).expect("scheduler state");
                }
                // Round-robin: one unit from the front query, then rotate
                // that query to the back of the ring.
                let (qid, mut queue) = state.queues.pop_front().expect("queued > 0");
                let unit = queue.pop_front().expect("non-empty queue");
                state.queued -= 1;
                if !queue.is_empty() {
                    state.queues.push_back((qid, queue));
                }
                unit
            };
            unit();
        }
    }

    /// Run `jobs` as units of query `qid` and collect their results in
    /// submission order, blocking the calling thread until all complete.
    /// Per-unit queue wait (submission → execution start) is accumulated
    /// into `wait_ns`.
    ///
    /// Must not be called from a scheduler worker thread (a unit waiting on
    /// units would deadlock the pool); connection threads are the callers.
    pub fn run_batch<T, F>(&self, qid: u64, jobs: Vec<F>, wait_ns: &Arc<AtomicU64>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for (idx, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let wait_ns = Arc::clone(wait_ns);
            let submitted = Instant::now();
            self.submit(
                qid,
                Box::new(move || {
                    wait_ns.fetch_add(submitted.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    // A send failure means the caller gave up on the batch;
                    // the unit's work is simply dropped.
                    let _ = tx.send((idx, job()));
                }),
            );
        }
        drop(tx);
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, out) = rx.recv().expect("scheduler completed every unit");
            results[idx] = Some(out);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every index reported"))
            .collect()
    }

    /// Finish all queued units, then stop and join the pool threads.
    pub fn shutdown(&self) {
        {
            let mut state = self.state.lock().expect("scheduler state");
            state.shutdown = true;
        }
        self.work.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("scheduler pool")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// With one worker and two queries' units queued behind a gate, the
    /// rotation rule strictly alternates them — never the serial
    /// A1 A2 A3 B1 B2 B3 a plain FIFO would produce.
    #[test]
    fn round_robin_interleaves_queries() {
        let sched = FairScheduler::start(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();

        // The gate unit occupies the single worker while we queue the rest.
        sched.submit(
            0,
            Box::new(move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }),
        );
        started_rx.recv().unwrap();

        for (qid, label) in [
            (1, "A1"),
            (1, "A2"),
            (1, "A3"),
            (2, "B1"),
            (2, "B2"),
            (2, "B3"),
        ] {
            let order = Arc::clone(&order);
            sched.submit(qid, Box::new(move || order.lock().unwrap().push(label)));
        }
        gate_tx.send(()).unwrap();
        sched.shutdown();

        let order = order.lock().unwrap().clone();
        assert_eq!(order, vec!["A1", "B1", "A2", "B2", "A3", "B3"]);
    }

    #[test]
    fn run_batch_preserves_index_order() {
        let sched = FairScheduler::start(3);
        let wait = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..16u64).map(|i| move || i * i).collect();
        let out = sched.run_batch(7, jobs, &wait);
        assert_eq!(out, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_units() {
        let sched = FairScheduler::start(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            sched.submit(
                1,
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        sched.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
