//! Deterministic concurrency-test instruments.
//!
//! Races make bad tests; gates make them deterministic.  [`GateBackend`]
//! is an [`ExecBackend`] whose cell generation *blocks* until the test
//! opens the gate — so a test can hold a query provably in flight while it
//! probes admission control, kills a client, or starts a drain, then
//! release the gate and assert the outcome.  Every phase-2 call reaches the
//! gate: the Gibbs looper's draw, a block and a sampled block all go
//! through [`ExecBackend::instantiate_cells`].  Generation delegates to the
//! in-process backend, so results stay bit-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use mcdbr_exec::{
    BlockBufferPool, CellCols, DeterministicPrefix, ExecBackend, InProcessBackend, ShardStats,
};
use mcdbr_storage::Result;

/// An in-process backend whose `instantiate_cells` waits at a gate.  See
/// the [module docs](self).
#[derive(Debug, Default)]
pub struct GateBackend {
    inner: InProcessBackend,
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl GateBackend {
    /// A new backend with the gate closed.
    pub fn new() -> Self {
        GateBackend::default()
    }

    /// Open the gate permanently, releasing every waiter (current and
    /// future).
    pub fn open(&self) {
        *self.open.lock().expect("gate") = true;
        self.cv.notify_all();
    }

    /// How many cell generations have *entered* (reached the gate).
    pub fn entered(&self) -> usize {
        self.entered.load(Ordering::SeqCst)
    }

    /// Spin until at least `n` cell generations have entered — i.e.
    /// until `n` queries are provably in flight inside the executor.
    pub fn wait_entered(&self, n: usize) {
        while self.entered() < n {
            std::thread::yield_now();
        }
    }
}

impl ExecBackend for GateBackend {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn instantiate_cells(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<Vec<CellCols>> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate");
        while !*open {
            open = self.cv.wait(open).expect("gate");
        }
        drop(open);
        self.inner
            .instantiate_cells(prefix, pool, threads, base_pos, num_values)
    }

    fn shard_stats(&self) -> ShardStats {
        self.inner.shard_stats()
    }
}
