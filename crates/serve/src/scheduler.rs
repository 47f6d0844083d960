//! The dynamic-batching scheduler: per-(model, shape) queues, the
//! batch-formation policy, and the batcher's view of the worker streams.
//!
//! Policy (DESIGN.md §7): a queue drains into a full batch the moment
//! `max_batch` requests wait. A partial batch is dispatched when its
//! oldest request has waited `batch_timeout`, immediately when the
//! server is draining, and — the policy is work-conserving — whenever a
//! worker would otherwise idle. Each pass has an *idle budget*: the
//! workers blocked on the hand-off whose simulated stream is free, minus
//! the formed batches no worker has taken yet. Full and timed-out
//! batches spend it first; what is left goes to partial batches, oldest
//! front request first. So `batch_timeout` bounds a partial batch's wait
//! only while every stream is busy, which is when waiting for company
//! pays. Requests whose deadline has already passed are shed at
//! formation time — executing them would waste a stream on work nobody
//! is waiting for. Formed batches wait in a bounded hand-off, from which
//! a worker whose stream is still busy takes one only when more batches
//! wait than free waiting workers can take ([`Scheduler::take`]).
//!
//! The scheduler is a plain data structure driven under the server's
//! lock, which keeps the policy deterministic and directly unit-testable.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::registry::ModelEngines;
use crate::request::QueuedRequest;

/// A formed batch handed to the worker pool.
#[derive(Debug)]
pub(crate) struct BatchJob {
    pub model: Arc<ModelEngines>,
    /// 1 ≤ `requests.len()` ≤ min(`max_batch`, model max bucket).
    pub requests: Vec<QueuedRequest>,
}

/// What one scheduling pass decided.
#[derive(Debug, Default)]
pub(crate) struct FormResult {
    /// Batches to dispatch, in formation order.
    pub jobs: Vec<BatchJob>,
    /// Requests shed because their deadline passed while queued.
    pub shed: Vec<QueuedRequest>,
    /// Absolute time (µs) of the next timeout/deadline edge, if any
    /// request is still waiting.
    pub next_wake_us: Option<f64>,
}

/// What a worker gets from [`Scheduler::take`].
#[derive(Debug)]
pub(crate) enum Take {
    /// A batch to run.
    Job(BatchJob),
    /// Nothing for this worker yet: wait for a wakeup, or at the latest
    /// until the given µs, when its own stream frees up.
    Wait(Option<f64>),
    /// Drained: the batcher is gone and the hand-off is empty.
    Closed,
}

/// One worker as the batcher sees it.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    /// Blocked waiting for a hand-off.
    waiting: bool,
    /// Absolute µs (server timeline) until which the worker's simulated
    /// stream is busy with batches it already ran.
    busy_until_us: f64,
}

/// Per-(model, shape-bucket) FIFO queues, the admission flags, and the
/// hand-off between the batcher and the workers.
#[derive(Debug)]
pub(crate) struct Scheduler {
    queues: HashMap<String, VecDeque<QueuedRequest>>,
    /// False once draining begins: no new admissions, partial batches
    /// flush immediately.
    pub accepting: bool,
    /// True for an abort drain (a killed cluster replica): formed
    /// batches are resolved `Rejected` by the batcher instead of
    /// dispatched, so queued work terminates fast without executing.
    pub aborting: bool,
    streams: Vec<Stream>,
    /// Formed batches no worker has taken yet, oldest first.
    handoff: VecDeque<BatchJob>,
    /// Set by the batcher when it exits: workers stop once the hand-off
    /// is empty.
    closed: bool,
}

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Self {
        Scheduler {
            queues: HashMap::new(),
            accepting: true,
            aborting: false,
            streams: vec![Stream::default(); workers],
            handoff: VecDeque::new(),
            closed: false,
        }
    }

    /// Queue key: model name plus the sample-shape signature fixed at
    /// registration (one shape bucket per model today, but the key keeps
    /// distinct shapes in distinct queues if that ever changes).
    pub(crate) fn key_for(model: &ModelEngines) -> String {
        format!("{}@{:?}", model.name(), model.sample_dims())
    }

    /// Depth of the queue `key`, for admission control.
    pub(crate) fn depth(&self, key: &str) -> usize {
        self.queues.get(key).map_or(0, VecDeque::len)
    }

    /// Total queued requests across all queues.
    pub(crate) fn pending(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    pub(crate) fn enqueue(&mut self, key: String, request: QueuedRequest) {
        self.queues.entry(key).or_default().push_back(request);
    }

    /// Worker `worker` blocks on the hand-off; its stream is busy until
    /// `busy_until_us`.
    pub(crate) fn worker_waiting(&mut self, worker: usize, busy_until_us: f64) {
        self.streams[worker] = Stream {
            waiting: true,
            busy_until_us,
        };
    }

    /// Waiting workers, other than `except`, whose stream is free at
    /// `now_us`.
    fn free_waiting(&self, now_us: f64, except: Option<usize>) -> usize {
        self.streams
            .iter()
            .enumerate()
            .filter(|&(w, s)| Some(w) != except && s.waiting && s.busy_until_us <= now_us)
            .count()
    }

    /// Hands formed batches to the workers.
    pub(crate) fn hand_off(&mut self, jobs: Vec<BatchJob>) {
        self.handoff.extend(jobs);
    }

    /// Formed batches no worker has taken yet.
    pub(crate) fn handoff_len(&self) -> usize {
        self.handoff.len()
    }

    /// The batcher exited: workers drain the hand-off, then stop.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Worker `worker` (marked waiting) asks for a batch at `now_us`. A
    /// worker whose stream is still busy leaves the hand-off to the free
    /// waiting ones while there are enough of them: a batch taken by a
    /// busy stream would queue behind its backlog on the simulated clock.
    pub(crate) fn take(&mut self, worker: usize, now_us: f64) -> Take {
        if self.handoff.is_empty() {
            return if self.closed {
                Take::Closed
            } else {
                Take::Wait(None)
            };
        }
        let busy_until_us = self.streams[worker].busy_until_us;
        if busy_until_us > now_us && self.handoff.len() <= self.free_waiting(now_us, Some(worker)) {
            return Take::Wait(Some(busy_until_us));
        }
        self.streams[worker].waiting = false;
        Take::Job(self.handoff.pop_front().expect("checked non-empty"))
    }

    /// How many batches could start on a free stream at `now_us` without
    /// queueing: the waiting workers whose stream is free, minus the
    /// batches already handed off to them.
    pub(crate) fn idle_budget(&self, now_us: f64) -> usize {
        self.free_waiting(now_us, None)
            .saturating_sub(self.handoff.len())
    }

    /// The earliest time after `now_us` a waiting worker's stream frees
    /// up, when a request is queued to use it.
    pub(crate) fn next_stream_free_us(&self, now_us: f64) -> Option<f64> {
        if self.queues.is_empty() {
            return None;
        }
        self.streams
            .iter()
            .filter(|s| s.waiting && s.busy_until_us > now_us)
            .map(|s| s.busy_until_us)
            .min_by(f64::total_cmp)
    }

    /// One scheduling pass at `now_us`. `flush` dispatches partial
    /// batches immediately (draining) instead of waiting out the timeout.
    /// `online` ignores each model's compiled max bucket when capping
    /// batches: with an online tuner behind the workers, a batch larger
    /// than every compiled bucket is served by split/fallback and tunes
    /// its own bucket, whereas a zero-bucket dynamic model would
    /// otherwise be capped to batches of 1 forever. `idle_budget` (see
    /// [`Scheduler::idle_budget`]) is how many batches may start on a
    /// free stream now: whatever full and timed-out batches leave of it
    /// goes to partial batches, oldest front request first.
    pub(crate) fn form(
        &mut self,
        now_us: f64,
        max_batch: usize,
        timeout_us: f64,
        flush: bool,
        online: bool,
        idle_budget: usize,
    ) -> FormResult {
        let mut result = FormResult::default();
        for queue in self.queues.values_mut() {
            // Shed already-late work first so it neither occupies batch
            // slots nor delays punctual requests.
            let mut kept = VecDeque::with_capacity(queue.len());
            for request in queue.drain(..) {
                match request.deadline_us {
                    Some(deadline) if now_us > deadline => result.shed.push(request),
                    _ => kept.push_back(request),
                }
            }
            *queue = kept;

            let Some(front) = queue.front() else { continue };
            let model_cap = if online {
                usize::MAX
            } else {
                front.model.max_batch()
            };
            let cap = max_batch.min(model_cap).max(1);
            let due_us = front.submitted_us + timeout_us;
            let drain_all = flush || now_us >= due_us;

            while queue.len() >= cap || (drain_all && !queue.is_empty()) {
                let take = queue.len().min(cap);
                result.jobs.push(batch_of(queue.drain(..take).collect()));
            }
        }

        // Work conservation: every queue left holds less than a full
        // batch, and a free stream would otherwise idle.
        let spare = idle_budget.saturating_sub(result.jobs.len());
        if spare > 0 {
            let mut partials: Vec<(&String, &mut VecDeque<QueuedRequest>)> = self
                .queues
                .iter_mut()
                .filter(|(_, q)| !q.is_empty())
                .collect();
            partials.sort_by(|(ka, a), (kb, b)| {
                a[0].submitted_us
                    .total_cmp(&b[0].submitted_us)
                    .then_with(|| ka.cmp(kb))
            });
            for (_, queue) in partials.into_iter().take(spare) {
                result.jobs.push(batch_of(queue.drain(..).collect()));
            }
        }

        for queue in self.queues.values() {
            if let Some(front) = queue.front() {
                let mut wake = front.submitted_us + timeout_us;
                for request in queue.iter() {
                    if let Some(deadline) = request.deadline_us {
                        wake = wake.min(deadline);
                    }
                }
                result.next_wake_us = Some(match result.next_wake_us {
                    Some(prev) => prev.min(wake),
                    None => wake,
                });
            }
        }
        self.queues.retain(|_, q| !q.is_empty());
        result
    }
}

fn batch_of(requests: Vec<QueuedRequest>) -> BatchJob {
    BatchJob {
        model: Arc::clone(&requests[0].model),
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResponseSlot;
    use crate::testing::test_arch;
    use crate::{EngineRegistry, ServeConfig};
    use bolt::BoltConfig;
    use bolt_tensor::{DType, Tensor};
    use std::sync::OnceLock;

    /// Compiled once for every test here: engines are immutable.
    fn engines() -> Arc<ModelEngines> {
        static ENGINES: OnceLock<Arc<ModelEngines>> = OnceLock::new();
        Arc::clone(ENGINES.get_or_init(|| {
            let registry = EngineRegistry::new(test_arch(), BoltConfig::default());
            registry
                .register_zoo("mlp-small", &ServeConfig::default().buckets())
                .expect("register")
        }))
    }

    fn request(
        model: &Arc<ModelEngines>,
        submitted_us: f64,
        deadline_us: Option<f64>,
    ) -> QueuedRequest {
        QueuedRequest {
            model: Arc::clone(model),
            inputs: vec![Tensor::randn(&[1, 128], DType::F16, 1)],
            submitted_us,
            deadline_us,
            slot: Arc::new(ResponseSlot::default()),
        }
    }

    #[test]
    fn full_batches_form_immediately_and_respect_max_batch() {
        let model = engines();
        let mut sched = Scheduler::new(1);
        let key = Scheduler::key_for(&model);
        for _ in 0..19 {
            sched.enqueue(key.clone(), request(&model, 0.0, None));
        }
        // Before the timeout, only complete batches of 8 may form.
        let result = sched.form(10.0, 8, 1_000.0, false, false, 0);
        assert_eq!(result.jobs.len(), 2);
        assert!(result.jobs.iter().all(|j| j.requests.len() == 8));
        assert_eq!(sched.pending(), 3, "partial batch keeps waiting");
        assert!(result.next_wake_us.is_some());

        // Past the timeout the remainder flushes as one partial batch.
        let result = sched.form(2_000.0, 8, 1_000.0, false, false, 0);
        assert_eq!(result.jobs.len(), 1);
        assert_eq!(result.jobs[0].requests.len(), 3);
        assert_eq!(sched.pending(), 0);
        assert!(result.next_wake_us.is_none());
    }

    #[test]
    fn partial_batch_waits_for_timeout_then_flushes() {
        let model = engines();
        let mut sched = Scheduler::new(1);
        let key = Scheduler::key_for(&model);
        for _ in 0..3 {
            sched.enqueue(key.clone(), request(&model, 100.0, None));
        }
        let early = sched.form(500.0, 8, 1_000.0, false, false, 0);
        assert!(early.jobs.is_empty(), "timeout not reached");
        assert_eq!(early.next_wake_us, Some(1_100.0));
        let due = sched.form(1_100.0, 8, 1_000.0, false, false, 0);
        assert_eq!(due.jobs.len(), 1);
        assert_eq!(due.jobs[0].requests.len(), 3);
    }

    #[test]
    fn flush_drains_partials_immediately() {
        let model = engines();
        let mut sched = Scheduler::new(1);
        sched.enqueue(Scheduler::key_for(&model), request(&model, 0.0, None));
        let result = sched.form(1.0, 8, 1_000_000.0, true, false, 0);
        assert_eq!(result.jobs.len(), 1);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn expired_deadlines_are_shed_not_batched() {
        let model = engines();
        let mut sched = Scheduler::new(1);
        let key = Scheduler::key_for(&model);
        sched.enqueue(key.clone(), request(&model, 0.0, Some(50.0)));
        sched.enqueue(key.clone(), request(&model, 0.0, None));
        let result = sched.form(100.0, 8, 10.0, false, false, 0);
        assert_eq!(result.shed.len(), 1);
        assert_eq!(result.jobs.len(), 1, "survivor still batches");
        assert_eq!(result.jobs[0].requests.len(), 1);
    }

    #[test]
    fn batch_cap_respects_model_max_bucket() {
        let registry = EngineRegistry::new(test_arch(), BoltConfig::default());
        let model = registry
            .register_zoo("mlp-small", &[1, 2])
            .expect("register");
        let mut sched = Scheduler::new(1);
        let key = Scheduler::key_for(&model);
        for _ in 0..5 {
            sched.enqueue(key.clone(), request(&model, 0.0, None));
        }
        // Global max_batch 8, but the model only has buckets up to 2.
        let result = sched.form(10.0, 8, 0.0, false, false, 0);
        assert!(result.jobs.iter().all(|j| j.requests.len() <= 2));
        assert_eq!(
            result.jobs.iter().map(|j| j.requests.len()).sum::<usize>(),
            5
        );
    }

    #[test]
    fn online_mode_ignores_model_max_bucket() {
        let registry = EngineRegistry::new(test_arch(), BoltConfig::default());
        let model = registry
            .register_zoo_dynamic("mlp-small")
            .expect("register");
        let mut sched = Scheduler::new(1);
        let key = Scheduler::key_for(&model);
        for _ in 0..5 {
            sched.enqueue(key.clone(), request(&model, 0.0, None));
        }
        // A zero-bucket dynamic model would cap at 1 offline; with an
        // online tuner behind the workers the global max_batch governs.
        let result = sched.form(10.0, 8, 0.0, false, true, 0);
        assert_eq!(result.jobs.len(), 1);
        assert_eq!(result.jobs[0].requests.len(), 5);
    }

    /// Fronts (submit times) of the dispatched batches, in dispatch order.
    fn fronts(result: &FormResult) -> Vec<f64> {
        result
            .jobs
            .iter()
            .map(|j| j.requests[0].submitted_us)
            .collect()
    }

    #[test]
    fn zero_idle_budget_holds_partials_until_the_timeout() {
        let model = engines();
        let key = Scheduler::key_for(&model);
        // The same queue, formed with and without an idle stream: with
        // none, the partial batch waits exactly as it did before work
        // conservation; with one, it leaves at once, whole.
        for (budget, dispatched) in [(0, 0), (1, 1)] {
            let mut sched = Scheduler::new(1);
            for _ in 0..3 {
                sched.enqueue(key.clone(), request(&model, 100.0, None));
            }
            let result = sched.form(500.0, 8, 1_000.0, false, false, budget);
            assert_eq!(result.jobs.len(), dispatched, "budget {budget}");
            assert_eq!(sched.pending(), 3 - 3 * dispatched);
            if dispatched == 0 {
                assert_eq!(result.next_wake_us, Some(1_100.0));
            } else {
                assert_eq!(result.jobs[0].requests.len(), 3);
                assert_eq!(result.next_wake_us, None);
            }
        }
    }

    #[test]
    fn idle_budget_dispatches_partials_oldest_front_first() {
        let model = engines();
        let mut sched = Scheduler::new(3);
        for (key, submitted_us) in [("a", 300.0), ("b", 100.0), ("c", 200.0)] {
            sched.enqueue(key.into(), request(&model, submitted_us, None));
            sched.enqueue(key.into(), request(&model, submitted_us + 1.0, None));
        }
        let result = sched.form(400.0, 8, 1_000.0, false, false, 2);
        assert_eq!(fronts(&result), vec![100.0, 200.0], "two oldest fronts");
        assert!(result.jobs.iter().all(|j| j.requests.len() == 2));
        assert_eq!(sched.depth("a"), 2, "the youngest partial keeps waiting");
        assert_eq!(result.next_wake_us, Some(1_300.0));
    }

    #[test]
    fn full_and_timed_out_batches_spend_the_idle_budget_first() {
        let model = engines();
        let mut sched = Scheduler::new(2);
        for _ in 0..8 {
            sched.enqueue("full".into(), request(&model, 300.0, None));
        }
        sched.enqueue("old".into(), request(&model, 0.0, None));
        sched.enqueue("young".into(), request(&model, 200.0, None));
        // The full batch and the timed-out one use both idle streams.
        let result = sched.form(1_000.0, 8, 1_000.0, false, false, 2);
        let mut sizes: Vec<usize> = result.jobs.iter().map(|j| j.requests.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 8]);
        assert_eq!(sched.depth("young"), 1, "no budget left for it");
        // One more idle stream would have taken it.
        let result = sched.form(1_000.0, 8, 1_000.0, false, false, 1);
        assert_eq!(fronts(&result), vec![200.0]);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn idle_budget_counts_waiting_free_streams_minus_untaken_batches() {
        let model = engines();
        let job = || batch_of(vec![request(&model, 0.0, None)]);
        let mut sched = Scheduler::new(3);
        assert_eq!(sched.idle_budget(0.0), 0, "no worker is waiting yet");
        sched.worker_waiting(0, 0.0);
        sched.worker_waiting(1, 500.0);
        sched.worker_waiting(2, 900.0);
        assert_eq!(sched.idle_budget(100.0), 1, "streams 1 and 2 are busy");
        assert_eq!(sched.idle_budget(500.0), 2);
        sched.hand_off(vec![job()]);
        assert_eq!(sched.idle_budget(500.0), 1, "one batch is on its way");
        assert!(matches!(sched.take(0, 500.0), Take::Job(_)));
        assert_eq!(sched.idle_budget(500.0), 1, "worker 1 is still free");
        assert_eq!(sched.idle_budget(1_000.0), 2);

        // The batcher wakes when a waiting worker's stream frees up, but
        // only while a request is queued to use it.
        assert_eq!(sched.next_stream_free_us(100.0), None);
        sched.enqueue(Scheduler::key_for(&model), request(&model, 0.0, None));
        assert_eq!(sched.next_stream_free_us(100.0), Some(500.0));
        assert_eq!(sched.next_stream_free_us(500.0), Some(900.0));
        assert_eq!(sched.next_stream_free_us(900.0), None);
    }

    #[test]
    fn busy_streams_leave_handed_off_batches_to_free_ones() {
        let model = engines();
        let job = || batch_of(vec![request(&model, 0.0, None)]);
        let mut sched = Scheduler::new(2);
        sched.worker_waiting(0, 1_000.0);
        sched.worker_waiting(1, 0.0);
        sched.hand_off(vec![job()]);
        // Worker 0's stream is busy and worker 1's is free: the batch is
        // worker 1's, and worker 0 waits until its stream frees up.
        assert!(matches!(sched.take(0, 100.0), Take::Wait(Some(t)) if t == 1_000.0));
        assert!(matches!(sched.take(1, 100.0), Take::Job(_)));
        // More batches than free streams: the busy stream takes the rest
        // rather than leave them unclaimed.
        sched.hand_off(vec![job()]);
        assert!(matches!(sched.take(0, 100.0), Take::Job(_)));
        // Empty hand-off: wait for work, or stop once closed.
        sched.worker_waiting(0, 1_000.0);
        assert!(matches!(sched.take(0, 100.0), Take::Wait(None)));
        sched.close();
        assert!(matches!(sched.take(0, 100.0), Take::Closed));
    }
}
