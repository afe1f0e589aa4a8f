//! Cooperative cancellation for long-running executions.
//!
//! The serving layer needs two things the per-query stack was never asked
//! for: per-request deadlines and a client-driven cancel RPC. Both reduce to
//! one primitive — a shared token the execution stack *polls* at bounded
//! intervals and the controller *trips* — so cancellation composes with the
//! checkpoint/resume machinery instead of fighting it: a tripped execution
//! surfaces [`PbError::Cancelled`] at its next poll point, every checkpoint
//! captured before that instant survives, and a resubmit resumes from them
//! rather than restarting.
//!
//! Poll cadence: the cost-unit simulator consults the token once per
//! budgeted execution (executions are closed-form and instantaneous), the
//! vectorized engine once per batch commit (≤ [`crate`]-external `BATCH`
//! rows of work past the trip point). Polling an untripped token with no
//! deadline is a single relaxed-ish atomic load; the deadline clock is read
//! only when a deadline exists.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::PbError;

#[derive(Debug, Default)]
struct Flag {
    cancelled: AtomicBool,
    /// Fixed at construction; `None` means no deadline.
    deadline: Option<Instant>,
}

/// Shared cancellation handle: cheap to clone (an `Arc`), cheap to poll.
///
/// Clones observe the same state — cancelling any clone cancels them all.
/// The default token never fires until [`CancelToken::cancel`] is called,
/// so threading one unconditionally costs nothing on un-cancelled runs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Flag>,
}

impl CancelToken {
    /// A token with no deadline; fires only on an explicit [`Self::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Flag {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that fires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trip the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// The typed error a cancelled execution surfaces, or `None` while the
    /// token is live. Explicit cancellation wins over the deadline so the
    /// reason reported to the client is stable once tripped.
    pub fn cancel_error(&self) -> Option<PbError> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(PbError::Cancelled("cancelled by request".into()));
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(PbError::Cancelled("deadline exceeded".into())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(t.cancel_error().is_none());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.cancel_error().is_some());
        match t.cancel_error() {
            Some(PbError::Cancelled(reason)) => assert_eq!(reason, "cancelled by request"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn elapsed_deadline_fires() {
        let t = CancelToken::with_timeout(Duration::from_millis(0));
        // The deadline is `now + 0`; by the time we poll it has passed.
        std::thread::sleep(Duration::from_millis(1));
        match t.cancel_error() {
            Some(PbError::Cancelled(reason)) => assert_eq!(reason, "deadline exceeded"),
            other => panic!("expected deadline cancellation, got {other:?}"),
        }
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.cancel_error().is_none());
        t.cancel();
        assert!(t.cancel_error().is_some());
    }
}
