//! Cooperative cancellation with optional deadlines.
//!
//! Long-running phase-2 work (block materialization, per-rep aggregation)
//! is chunked into units that take milliseconds, so cancellation does not
//! need preemption: a [`CancelToken`] is checked at block boundaries and the
//! unit in flight simply finishes before the query unwinds with a typed
//! [`Error::Timeout`].  The server hands each admitted query a token carrying
//! its per-query deadline; anything holding a clone (the connection handler,
//! a drain path) can also cancel explicitly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdbr_storage::{Error, Result};

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
}

/// A cheaply clonable cancellation handle: an optional wall-clock deadline
/// plus an explicit cancel flag.  Cloning shares state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unbounded()
    }
}

impl CancelToken {
    /// A token that never expires on its own (explicit [`cancel`] only).
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn unbounded() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: None,
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A token that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(Instant::now() + timeout),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// Cancel explicitly; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Boundary check: `Err(Error::Timeout)` once cancelled or expired.
    pub fn check(&self) -> Result<()> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(Error::Timeout("query cancelled".into()));
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Err(Error::Timeout(
                "query deadline exceeded at block boundary".into(),
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_expires() {
        let t = CancelToken::unbounded();
        assert!(t.check().is_ok());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::unbounded();
        let clone = t.clone();
        clone.cancel();
        assert!(matches!(t.check(), Err(Error::Timeout(_))));
    }

    #[test]
    fn deadline_expiry_is_a_typed_timeout() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        let err = t.check().unwrap_err();
        assert!(matches!(err, Error::Timeout(_)), "got {err:?}");
        assert!(err.to_string().starts_with("deadline exceeded:"));
    }

    #[test]
    fn future_deadline_passes_checks() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }
}
