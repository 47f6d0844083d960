//! Requests, responses, and the exactly-once completion slot.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bolt_tensor::Tensor;

use crate::registry::ModelEngines;

/// Where a request's latency went (all values in microseconds of the
/// server's unified timeline; see DESIGN.md §7 for the mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Wall time from submission until the executing stream picked the
    /// batch up: queue wait + batch formation + stream backlog.
    pub queue_us: f64,
    /// Simulated kernel time of the batch this request rode in.
    pub kernel_us: f64,
    /// End-to-end: `queue_us + kernel_us`.
    pub total_us: f64,
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// The model that served the request.
    pub model: String,
    /// Outputs for this sample, in `Graph::outputs` order. `None` when
    /// the engine is timing-only (shapes-only parameters) or functional
    /// execution is disabled.
    pub outputs: Option<Vec<Tensor>>,
    /// How many real requests shared the batch.
    pub batch_size: usize,
    /// The engine bucket the batch executed on (≥ `batch_size`, except
    /// when the batch overflowed every bucket and was split).
    pub bucket: usize,
    /// Back-to-back engine launches that served the batch (1 unless the
    /// batch overflowed every compiled bucket and was split).
    pub launches: usize,
    /// True when the request was served on an online-tuning fallback
    /// path (over-padded bucket, overflow split, or heuristic
    /// default-config engine) instead of a tuned engine fitting the
    /// batch.
    pub fallback: bool,
    /// True when the model's circuit breaker was open at placement time:
    /// the request still completed, but on a degraded path with
    /// background tuning suspended (see
    /// [`crate::OnlineConfig::breaker_threshold`]).
    pub degraded: bool,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
}

/// The terminal state of an accepted request. Every accepted request
/// resolves to exactly one `Outcome`.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The request executed.
    Completed(InferResponse),
    /// The request was accepted but could not be executed (e.g. the
    /// kernel failed); `reason` explains why.
    Rejected {
        /// Human-readable failure description.
        reason: String,
    },
    /// The request was still queued past its deadline and was shed at
    /// batch-formation time instead of executed late.
    DeadlineExceeded {
        /// How long it had waited when it was shed, in microseconds.
        waited_us: f64,
    },
}

impl Outcome {
    /// True for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }
}

/// One-shot, exactly-once completion slot shared between the client's
/// [`RequestHandle`] and the scheduler/worker that resolves it.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl ResponseSlot {
    /// Resolves the slot. Panics if it was already resolved — the
    /// scheduler guarantees exactly-once completion, and a double resolve
    /// is a serving-layer bug worth crashing loudly over in tests.
    pub(crate) fn resolve(&self, outcome: Outcome) {
        assert!(
            self.try_resolve(outcome),
            "request resolved twice (second resolve on an already-terminal slot)"
        );
    }

    /// Resolves the slot if it is still pending; returns whether this
    /// call won. The panic-recovery path uses this instead of
    /// [`ResponseSlot::resolve`]: after a worker panic it cannot know
    /// which requests of the batch were already resolved.
    pub(crate) fn try_resolve(&self, outcome: Outcome) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_some() {
            return false;
        }
        *state = Some(outcome);
        self.cv.notify_all();
        true
    }

    fn wait(&self) -> Outcome {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = state.as_ref() {
                return Some(outcome.clone());
            }
            let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, _) = self
                .cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    fn try_get(&self) -> Option<Outcome> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Client-side handle to an accepted request.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    /// Server-assigned request id (unique per server).
    pub id: u64,
    pub(crate) slot: Arc<ResponseSlot>,
}

impl RequestHandle {
    /// Blocks until the request reaches its terminal outcome.
    pub fn wait(&self) -> Outcome {
        self.slot.wait()
    }

    /// Blocks up to `timeout`; `None` if the request is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        self.slot.wait_timeout(timeout)
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Outcome> {
        self.slot.try_get()
    }
}

/// An accepted request queued for batching (scheduler-internal).
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub model: Arc<ModelEngines>,
    pub inputs: Vec<Tensor>,
    /// Submission instant on the server timeline, µs.
    pub submitted_us: f64,
    /// Absolute deadline on the server timeline, µs.
    pub deadline_us: Option<f64>,
    pub slot: Arc<ResponseSlot>,
}

impl QueuedRequest {
    /// Whether the request's deadline has passed by `now_us`.
    pub(crate) fn is_late(&self, now_us: f64) -> bool {
        self.deadline_us.is_some_and(|deadline| now_us > deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_resolves_exactly_once_and_wakes_waiters() {
        let slot = Arc::new(ResponseSlot::default());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        assert!(slot.try_get().is_none());
        slot.resolve(Outcome::Rejected {
            reason: "test".into(),
        });
        match waiter.join().expect("waiter") {
            Outcome::Rejected { reason } => assert_eq!(reason, "test"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "resolved twice")]
    fn double_resolve_panics() {
        let slot = ResponseSlot::default();
        slot.resolve(Outcome::DeadlineExceeded { waited_us: 1.0 });
        slot.resolve(Outcome::DeadlineExceeded { waited_us: 2.0 });
    }

    #[test]
    fn wait_timeout_returns_none_while_pending() {
        let slot = ResponseSlot::default();
        assert!(slot.wait_timeout(Duration::from_millis(5)).is_none());
    }
}
