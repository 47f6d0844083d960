//! The dynamic-batching scheduler: per-(model, shape) queues, each
//! worker's simulated stream, and the one dispatch decision — which batch
//! a waiting worker runs next ([`Scheduler::next`]).
//!
//! Policy (DESIGN.md §7). Dispatch is *pull*: a worker done with its
//! batch records itself waiting, with the time its simulated stream frees
//! up, and asks for its next batch. Requests whose deadline has already
//! passed are shed first — executing them would waste a stream on work
//! nobody is waiting for. A batch is *ready* when it is full (`max_batch`,
//! clamped to the model's largest bucket), when its queue's oldest
//! request has waited `batch_timeout`, or when the server is draining. A
//! worker whose stream is free takes the ready batch with the oldest front
//! request, else the oldest partial batch: dispatch is work-conserving, so
//! a free stream never idles while a request waits. A worker whose stream
//! is still busy takes a ready batch only while more are ready than the
//! other free waiting workers can take — a batch it took would queue
//! behind its backlog on the simulated clock. Otherwise the worker waits
//! until its stream frees up, the next timeout or deadline edge, or a new
//! submission. So `batch_timeout` bounds a partial batch's wait only while
//! every stream is busy, which is when waiting for company pays.
//!
//! The scheduler is a plain data structure driven under the server's
//! lock, which keeps the policy deterministic and directly unit-testable.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::registry::ModelEngines;
use crate::request::QueuedRequest;

/// A batch a worker took.
#[derive(Debug)]
pub(crate) struct BatchJob {
    pub model: Arc<ModelEngines>,
    /// 1 ≤ `requests.len()` ≤ min(`max_batch`, model max bucket).
    pub requests: Vec<QueuedRequest>,
}

/// What a waiting worker gets from [`Scheduler::next`].
#[derive(Debug)]
pub(crate) enum Next {
    /// A batch to run.
    Batch(BatchJob),
    /// Nothing for this worker yet: wait for a submission, or at the
    /// latest until the given µs, when its stream frees up or a timeout or
    /// deadline edge passes.
    Wait(Option<f64>),
    /// Draining, and every queue is empty: the worker stops.
    Drained,
}

/// One worker's simulated stream.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    /// Between batches, asking for its next one.
    waiting: bool,
    /// Absolute µs (server timeline) until which the worker's simulated
    /// stream is busy with batches it already ran.
    busy_until_us: f64,
}

/// Per-(model, shape-bucket) FIFO queues, the admission flag, and the
/// workers' streams.
#[derive(Debug)]
pub(crate) struct Scheduler {
    queues: HashMap<String, VecDeque<QueuedRequest>>,
    /// False once draining begins: no new admissions, partial batches
    /// are ready at once.
    pub accepting: bool,
    streams: Vec<Stream>,
    max_batch: usize,
    timeout_us: f64,
    /// Ignore each model's compiled max bucket when capping batches: with
    /// an online tuner behind the workers, a batch larger than every
    /// compiled bucket is served by split/fallback and tunes its own
    /// bucket, whereas a zero-bucket dynamic model would otherwise be
    /// capped to batches of 1 forever.
    online: bool,
}

impl Scheduler {
    pub(crate) fn new(workers: usize, max_batch: usize, timeout_us: f64, online: bool) -> Self {
        Scheduler {
            queues: HashMap::new(),
            accepting: true,
            streams: vec![Stream::default(); workers],
            max_batch,
            timeout_us,
            online,
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

    pub(crate) fn enqueue(&mut self, key: String, request: QueuedRequest) {
        self.queues.entry(key).or_default().push_back(request);
    }

    /// Every queued request, in no particular order (an abort resolves
    /// them without executing).
    pub(crate) fn take_all(&mut self) -> Vec<QueuedRequest> {
        self.queues.drain().flat_map(|(_, queue)| queue).collect()
    }

    /// Worker `worker` is between batches; its stream is busy until
    /// `busy_until_us`.
    pub(crate) fn worker_waiting(&mut self, worker: usize, busy_until_us: f64) {
        self.streams[worker] = Stream {
            waiting: true,
            busy_until_us,
        };
    }

    /// Worker `worker` (recorded waiting) asks for its next batch at
    /// `now_us`. Requests whose deadline has passed move to `shed`, for
    /// the caller to resolve outside the lock.
    pub(crate) fn next(
        &mut self,
        worker: usize,
        now_us: f64,
        shed: &mut Vec<QueuedRequest>,
    ) -> Next {
        // Shed already-late work first so it neither occupies batch
        // slots nor delays punctual requests.
        for queue in self.queues.values_mut() {
            if queue.iter().any(|r| r.is_late(now_us)) {
                let (late, kept): (VecDeque<_>, VecDeque<_>) =
                    queue.drain(..).partition(|r| r.is_late(now_us));
                shed.extend(late);
                *queue = kept;
            }
        }
        self.queues.retain(|_, queue| !queue.is_empty());
        if self.queues.is_empty() {
            return if self.accepting {
                Next::Wait(None)
            } else {
                Next::Drained
            };
        }

        let busy_until_us = self.streams[worker].busy_until_us;
        let pick = if busy_until_us <= now_us {
            self.oldest(now_us, true)
                .or_else(|| self.oldest(now_us, false))
        } else if self.ready_batches(now_us) > self.free_waiting(worker, now_us) {
            self.oldest(now_us, true)
        } else {
            None
        };
        let Some(key) = pick else {
            return Next::Wait(Some(self.next_edge(now_us).min(busy_until_us)));
        };
        self.streams[worker].waiting = false;
        let cap = self.cap(&self.queues[&key][0]);
        let queue = self.queues.get_mut(&key).expect("picked a queued key");
        let take = queue.len().min(cap);
        let requests: Vec<QueuedRequest> = queue.drain(..take).collect();
        if queue.is_empty() {
            self.queues.remove(&key);
        }
        Next::Batch(BatchJob {
            model: Arc::clone(&requests[0].model),
            requests,
        })
    }

    /// The largest batch a queue whose front is `front` may form.
    fn cap(&self, front: &QueuedRequest) -> usize {
        let model_cap = if self.online {
            usize::MAX
        } else {
            front.model.max_batch()
        };
        self.max_batch.min(model_cap).max(1)
    }

    /// How many of `queue`'s batches are ready at `now_us`: every full
    /// one, and the remainder too once the front request has waited out
    /// the timeout or the server is draining.
    fn ready_in(&self, queue: &VecDeque<QueuedRequest>, now_us: f64) -> usize {
        let cap = self.cap(&queue[0]);
        if !self.accepting || now_us >= queue[0].submitted_us + self.timeout_us {
            queue.len().div_ceil(cap)
        } else {
            queue.len() / cap
        }
    }

    fn ready_batches(&self, now_us: f64) -> usize {
        self.queues.values().map(|q| self.ready_in(q, now_us)).sum()
    }

    /// Waiting workers, other than `except`, whose stream is free at
    /// `now_us`.
    fn free_waiting(&self, except: usize, now_us: f64) -> usize {
        self.streams
            .iter()
            .enumerate()
            .filter(|&(w, s)| w != except && s.waiting && s.busy_until_us <= now_us)
            .count()
    }

    /// The queue whose front request is oldest — among the queues with a
    /// ready batch when `ready_only` — ties broken by key.
    fn oldest(&self, now_us: f64, ready_only: bool) -> Option<String> {
        self.queues
            .iter()
            .filter(|(_, q)| !ready_only || self.ready_in(q, now_us) > 0)
            .min_by(|(ka, a), (kb, b)| {
                a[0].submitted_us
                    .total_cmp(&b[0].submitted_us)
                    .then_with(|| ka.cmp(kb))
            })
            .map(|(key, _)| key.clone())
    }

    /// The earliest edge after `now_us` at which a queue's front times
    /// out or a queued request's deadline passes.
    fn next_edge(&self, now_us: f64) -> f64 {
        self.queues
            .values()
            .flat_map(|q| {
                let due_us = q[0].submitted_us + self.timeout_us;
                q.iter()
                    .filter_map(|r| r.deadline_us)
                    .chain((due_us > now_us).then_some(due_us))
            })
            .fold(f64::INFINITY, f64::min)
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
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A stream busy for longer than any test here runs, µs.
    const BUSY: f64 = 1e12;

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

    fn pending(sched: &Scheduler) -> usize {
        sched.queues.values().map(VecDeque::len).sum()
    }

    /// Records `worker` waiting with its stream busy until
    /// `busy_until_us`, then asks for its next batch at `now_us`,
    /// discarding anything shed.
    fn next_at(sched: &mut Scheduler, worker: usize, busy_until_us: f64, now_us: f64) -> Next {
        sched.worker_waiting(worker, busy_until_us);
        sched.next(worker, now_us, &mut Vec::new())
    }

    /// The batch's size and its front request's submit time.
    fn taken(next: Next) -> (usize, f64) {
        match next {
            Next::Batch(job) => (job.requests.len(), job.requests[0].submitted_us),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    fn wait_until(next: Next) -> Option<f64> {
        match next {
            Next::Wait(wake) => wake,
            other => panic!("expected a wait, got {other:?}"),
        }
    }

    #[test]
    fn full_batches_dispatch_immediately_and_respect_max_batch() {
        let model = engines();
        let mut sched = Scheduler::new(1, 8, 1_000.0, false);
        let key = Scheduler::key_for(&model);
        for _ in 0..19 {
            sched.enqueue(key.clone(), request(&model, 0.0, None));
        }
        // Before the timeout, a busy stream takes only complete batches
        // of 8.
        assert_eq!(taken(next_at(&mut sched, 0, BUSY, 10.0)).0, 8);
        assert_eq!(taken(next_at(&mut sched, 0, BUSY, 10.0)).0, 8);
        assert_eq!(
            wait_until(next_at(&mut sched, 0, BUSY, 10.0)),
            Some(1_000.0),
            "the partial batch keeps waiting"
        );
        assert_eq!(pending(&sched), 3);

        // Past the timeout the remainder leaves as one partial batch.
        assert_eq!(taken(next_at(&mut sched, 0, BUSY, 2_000.0)).0, 3);
        assert_eq!(pending(&sched), 0);
        assert_eq!(wait_until(next_at(&mut sched, 0, BUSY, 2_000.0)), None);
    }

    #[test]
    fn partial_batch_waits_for_timeout_then_dispatches() {
        let model = engines();
        let mut sched = Scheduler::new(1, 8, 1_000.0, false);
        let key = Scheduler::key_for(&model);
        for _ in 0..3 {
            sched.enqueue(key.clone(), request(&model, 100.0, None));
        }
        assert_eq!(
            wait_until(next_at(&mut sched, 0, BUSY, 500.0)),
            Some(1_100.0),
            "timeout not reached"
        );
        assert_eq!(taken(next_at(&mut sched, 0, BUSY, 1_100.0)).0, 3);
    }

    #[test]
    fn draining_dispatches_partials_immediately() {
        let model = engines();
        let mut sched = Scheduler::new(1, 8, 1_000_000.0, false);
        sched.enqueue(Scheduler::key_for(&model), request(&model, 0.0, None));
        sched.accepting = false;
        assert_eq!(taken(next_at(&mut sched, 0, BUSY, 1.0)).0, 1);
        assert_eq!(pending(&sched), 0);
    }

    #[test]
    fn expired_deadlines_are_shed_not_batched() {
        let model = engines();
        let mut sched = Scheduler::new(1, 8, 10.0, false);
        let key = Scheduler::key_for(&model);
        sched.enqueue(key.clone(), request(&model, 0.0, Some(50.0)));
        sched.enqueue(key.clone(), request(&model, 0.0, None));
        sched.worker_waiting(0, BUSY);
        let mut shed = Vec::new();
        let next = sched.next(0, 100.0, &mut shed);
        assert_eq!(shed.len(), 1);
        assert_eq!(taken(next).0, 1, "the survivor still batches");
    }

    #[test]
    fn batch_cap_respects_model_max_bucket() {
        let registry = EngineRegistry::new(test_arch(), BoltConfig::default());
        let model = registry
            .register_zoo("mlp-small", &[1, 2])
            .expect("register");
        // Global max_batch 8, but the model only has buckets up to 2.
        let mut sched = Scheduler::new(1, 8, 0.0, false);
        let key = Scheduler::key_for(&model);
        for _ in 0..5 {
            sched.enqueue(key.clone(), request(&model, 0.0, None));
        }
        let mut sizes = Vec::new();
        while let Next::Batch(job) = next_at(&mut sched, 0, BUSY, 10.0) {
            sizes.push(job.requests.len());
        }
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn online_mode_ignores_model_max_bucket() {
        let registry = EngineRegistry::new(test_arch(), BoltConfig::default());
        let model = registry
            .register_zoo_dynamic("mlp-small")
            .expect("register");
        // A zero-bucket dynamic model would cap at 1 offline; with an
        // online tuner behind the workers the global max_batch governs.
        let mut sched = Scheduler::new(1, 8, 0.0, true);
        let key = Scheduler::key_for(&model);
        for _ in 0..5 {
            sched.enqueue(key.clone(), request(&model, 0.0, None));
        }
        assert_eq!(taken(next_at(&mut sched, 0, BUSY, 10.0)).0, 5);
    }

    #[test]
    fn busy_stream_holds_partials_until_the_timeout() {
        let model = engines();
        let key = Scheduler::key_for(&model);
        // The same queue, asked for by a busy and by a free stream: the
        // busy one leaves the partial batch waiting for its timeout; the
        // free one takes it at once, whole.
        for (busy_until_us, dispatched) in [(BUSY, false), (0.0, true)] {
            let mut sched = Scheduler::new(1, 8, 1_000.0, false);
            for _ in 0..3 {
                sched.enqueue(key.clone(), request(&model, 100.0, None));
            }
            let next = next_at(&mut sched, 0, busy_until_us, 500.0);
            if dispatched {
                assert_eq!(taken(next).0, 3);
                assert_eq!(pending(&sched), 0);
            } else {
                assert_eq!(wait_until(next), Some(1_100.0));
                assert_eq!(pending(&sched), 3);
            }
        }
        // A busy stream also wakes when it frees up, if that comes first.
        let mut sched = Scheduler::new(1, 8, 1_000.0, false);
        sched.enqueue(key, request(&model, 100.0, None));
        assert_eq!(
            wait_until(next_at(&mut sched, 0, 700.0, 500.0)),
            Some(700.0)
        );
    }

    #[test]
    fn free_streams_take_partials_oldest_front_first() {
        let model = engines();
        let mut sched = Scheduler::new(3, 8, 1_000.0, false);
        for (key, submitted_us) in [("a", 300.0), ("b", 100.0), ("c", 200.0)] {
            sched.enqueue(key.into(), request(&model, submitted_us, None));
            sched.enqueue(key.into(), request(&model, submitted_us + 1.0, None));
        }
        // Two free streams take the two oldest fronts, whole; the busy
        // third leaves the youngest partial waiting for its timeout.
        assert_eq!(taken(next_at(&mut sched, 0, 0.0, 400.0)), (2, 100.0));
        assert_eq!(taken(next_at(&mut sched, 1, 0.0, 400.0)), (2, 200.0));
        assert_eq!(
            wait_until(next_at(&mut sched, 2, BUSY, 400.0)),
            Some(1_300.0)
        );
        assert_eq!(sched.depth("a"), 2);
    }

    #[test]
    fn full_and_timed_out_batches_go_before_partials() {
        let model = engines();
        let mut sched = Scheduler::new(3, 8, 1_000.0, false);
        for _ in 0..8 {
            sched.enqueue("full".into(), request(&model, 300.0, None));
        }
        sched.enqueue("old".into(), request(&model, 0.0, None));
        sched.enqueue("young".into(), request(&model, 200.0, None));
        // The timed-out and the full batch go first, oldest front first,
        // though the young partial's front is older than the full one's.
        assert_eq!(taken(next_at(&mut sched, 0, 0.0, 1_000.0)), (1, 0.0));
        assert_eq!(taken(next_at(&mut sched, 1, 0.0, 1_000.0)), (8, 300.0));
        assert_eq!(sched.depth("young"), 1);
        // One more free stream takes it.
        assert_eq!(taken(next_at(&mut sched, 2, 0.0, 1_000.0)), (1, 200.0));
        assert_eq!(pending(&sched), 0);
    }

    #[test]
    fn busy_stream_leaves_a_ready_batch_to_a_free_worker_but_takes_the_surplus() {
        let model = engines();
        let mut sched = Scheduler::new(2, 8, 1_000.0, false);
        for _ in 0..16 {
            sched.enqueue("k".into(), request(&model, 0.0, None));
        }
        sched.worker_waiting(1, 0.0);
        // Two full batches, one free waiting worker: the busy stream
        // takes the surplus one…
        assert_eq!(taken(next_at(&mut sched, 0, 1_000.0, 100.0)).0, 8);
        // …and leaves the other to worker 1, waiting until its own
        // stream frees up.
        assert_eq!(
            wait_until(next_at(&mut sched, 0, 1_000.0, 100.0)),
            Some(1_000.0)
        );
        assert_eq!(taken(sched.next(1, 100.0, &mut Vec::new())).0, 8);
        // A worker that is not waiting (running a batch) is not a free
        // stream: the busy one takes the next ready batch itself.
        for _ in 0..8 {
            sched.enqueue("k".into(), request(&model, 0.0, None));
        }
        assert_eq!(taken(next_at(&mut sched, 0, 1_000.0, 100.0)).0, 8);
    }

    #[test]
    fn drained_once_draining_and_empty() {
        let model = engines();
        let mut sched = Scheduler::new(1, 8, 1_000.0, false);
        assert_eq!(
            wait_until(next_at(&mut sched, 0, 0.0, 0.0)),
            None,
            "wait for work"
        );
        sched.enqueue("k".into(), request(&model, 0.0, None));
        sched.accepting = false;
        assert_eq!(
            taken(next_at(&mut sched, 0, BUSY, 1.0)).0,
            1,
            "queued work first"
        );
        assert!(matches!(next_at(&mut sched, 0, BUSY, 1.0), Next::Drained));
    }

    /// One step of a randomized schedule: `(op, worker, arg)`.
    type Op = (u8, usize, u64);

    /// The test's own model of one queued request.
    #[derive(Debug)]
    struct Queued {
        id: usize,
        submitted_us: f64,
        deadline_us: Option<f64>,
    }

    const TIMEOUT_US: f64 = 200.0;

    /// A scheduler driven through a random schedule beside an independent
    /// model of its queues, checking every dispatch decision.
    struct Harness {
        sched: Scheduler,
        cap: usize,
        queues: HashMap<String, VecDeque<Queued>>,
        /// Response-slot address → request id.
        ids: HashMap<usize, usize>,
        /// Every slot, kept alive so addresses stay unique.
        slots: Vec<Arc<ResponseSlot>>,
        /// Ids in the order they left, taken or shed.
        left: Vec<usize>,
        /// Per worker: (waiting, busy_until_us).
        streams: Vec<(bool, f64)>,
    }

    impl Harness {
        fn id(&self, request: &QueuedRequest) -> usize {
            self.ids[&(Arc::as_ptr(&request.slot) as usize)]
        }

        /// Ready batches in the model's `queue` at `now_us`.
        fn ready(&self, queue: &VecDeque<Queued>, now_us: f64) -> usize {
            if !self.sched.accepting || now_us >= queue[0].submitted_us + TIMEOUT_US {
                queue.len().div_ceil(self.cap)
            } else {
                queue.len() / self.cap
            }
        }

        fn enqueue(&mut self, key: &str, now_us: f64, deadline_us: Option<f64>) {
            let request = request(&engines(), now_us, deadline_us);
            let id = self.slots.len();
            self.ids.insert(Arc::as_ptr(&request.slot) as usize, id);
            self.slots.push(Arc::clone(&request.slot));
            self.sched.enqueue(key.into(), request);
            self.queues
                .entry(key.into())
                .or_default()
                .push_back(Queued {
                    id,
                    submitted_us: now_us,
                    deadline_us,
                });
        }

        fn waiting(&mut self, worker: usize, busy_until_us: f64) {
            self.sched.worker_waiting(worker, busy_until_us);
            self.streams[worker] = (true, busy_until_us);
        }

        /// Asks for waiting `worker`'s next batch at `now_us`; `false`
        /// once it is drained.
        fn next(&mut self, worker: usize, now_us: f64) -> Result<bool, TestCaseError> {
            let mut shed = Vec::new();
            let next = self.sched.next(worker, now_us, &mut shed);
            for request in &shed {
                let id = self.id(request);
                let late = self.queues.values_mut().find_map(|q| {
                    let at = q.iter().position(|r| r.id == id)?;
                    q.remove(at)
                });
                prop_assert!(late.is_some(), "request {} left twice", id);
                prop_assert!(
                    late.and_then(|r| r.deadline_us).is_some_and(|d| now_us > d),
                    "request {} shed before its deadline",
                    id
                );
                self.left.push(id);
            }
            self.queues.retain(|_, q| !q.is_empty());
            prop_assert!(
                self.queues
                    .values()
                    .flatten()
                    .all(|r| r.deadline_us.is_none_or(|d| now_us <= d)),
                "a late request survived shedding"
            );
            let free = self.streams[worker].1 <= now_us;
            match next {
                Next::Batch(job) => {
                    let batch: Vec<usize> = job.requests.iter().map(|r| self.id(r)).collect();
                    let n = batch.len();
                    prop_assert!(
                        n >= 1 && n <= self.cap,
                        "batch of {} over cap {}",
                        n,
                        self.cap
                    );
                    let key = self
                        .queues
                        .iter()
                        .find(|(_, q)| q[0].id == batch[0])
                        .map(|(k, _)| k.clone());
                    prop_assert!(
                        key.is_some(),
                        "batch front {} is no queue's front",
                        batch[0]
                    );
                    let key = key.expect("checked");
                    let ready_total: usize =
                        self.queues.values().map(|q| self.ready(q, now_us)).sum();
                    let was_ready = self.ready(&self.queues[&key], now_us) > 0;
                    let free_others = (0..self.streams.len())
                        .filter(|&w| {
                            w != worker && self.streams[w].0 && self.streams[w].1 <= now_us
                        })
                        .count();
                    if !free {
                        prop_assert!(was_ready, "a busy stream took a partial batch");
                        prop_assert!(
                            ready_total > free_others,
                            "a busy stream took one of {} ready batches from {} free waiting workers",
                            ready_total,
                            free_others
                        );
                    }
                    let queue = self.queues.get_mut(&key).expect("found");
                    let front: Vec<usize> = queue.drain(..n).map(|r| r.id).collect();
                    prop_assert_eq!(&batch, &front, "FIFO within queue {}", key);
                    self.queues.retain(|_, q| !q.is_empty());
                    self.left.extend(batch);
                    self.streams[worker].0 = false;
                    Ok(true)
                }
                Next::Wait(_) => {
                    prop_assert!(
                        !free || self.queues.is_empty(),
                        "a free waiting stream waited while requests were queued"
                    );
                    Ok(true)
                }
                Next::Drained => {
                    prop_assert!(
                        !self.sched.accepting && self.queues.is_empty(),
                        "drained early"
                    );
                    Ok(false)
                }
            }
        }
    }

    fn check_schedule(workers: usize, max_batch: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut h = Harness {
            sched: Scheduler::new(workers, max_batch, TIMEOUT_US, false),
            // mlp-small's largest default bucket, 8, is above max_batch.
            cap: max_batch,
            queues: HashMap::new(),
            ids: HashMap::new(),
            slots: Vec::new(),
            left: Vec::new(),
            streams: vec![(false, 0.0); workers],
        };
        let mut now_us = 0.0;
        for &(op, worker, arg) in ops {
            let worker = worker % workers;
            match op {
                0 => {
                    let key = if arg % 2 == 0 { "a" } else { "b" };
                    h.enqueue(key, now_us, (arg % 3 == 0).then_some(now_us + arg as f64));
                }
                1 => now_us += arg as f64,
                2 if !h.streams[worker].0 => {
                    let backlog = if arg % 2 == 0 { arg as f64 } else { 0.0 };
                    h.waiting(worker, now_us + backlog);
                }
                3 if h.streams[worker].0 => {
                    h.next(worker, now_us)?;
                }
                _ => {}
            }
        }

        // Drain: every worker comes back on a free stream until all of
        // them are told to stop.
        h.sched.accepting = false;
        let mut running = vec![true; workers];
        while running.contains(&true) {
            now_us += 1.0;
            for (worker, running) in running.iter_mut().enumerate() {
                if *running {
                    h.waiting(worker, now_us);
                    *running = h.next(worker, now_us)?;
                }
            }
        }
        let mut left = h.left.clone();
        left.sort_unstable();
        prop_assert_eq!(
            left,
            (0..h.slots.len()).collect::<Vec<_>>(),
            "every request leaves exactly once"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random interleavings of submissions, clock advances,
        /// workers turning idle (on a free or a busy stream) and dispatch
        /// calls: every request leaves exactly once, taken or shed;
        /// batches are FIFO within a queue and never exceed the cap; a
        /// free waiting stream never waits while a request is queued; and
        /// a busy stream never takes a batch a free waiting worker could
        /// take.
        #[test]
        fn dispatch_invariants_hold_over_random_schedules(
            workers in 1usize..4,
            max_batch in 1usize..6,
            ops in prop::collection::vec((0u8..4, 0usize..4, 0u64..400), 1..160),
        ) {
            check_schedule(workers, max_batch, &ops)?;
        }
    }
}
