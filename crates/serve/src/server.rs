//! The serving front-end: admission control, and the worker pool of
//! simulated GPU streams. Each worker is a thin thread loop around
//! [`Scheduler::next`]: it asks for its own next batch, runs it on its
//! stream, and asks again; the dispatch decision lives in the scheduler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bolt_tensor::Tensor;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::launch::{launch, Launch};
use crate::metrics::{LoadGauges, Metrics, MetricsSnapshot};
use crate::online::OnlineEngineManager;
use crate::registry::EngineRegistry;
use crate::request::{
    InferResponse, LatencyBreakdown, Outcome, QueuedRequest, RequestHandle, ResponseSlot,
};
use crate::scheduler::{BatchJob, Next, Scheduler};
use crate::Result;

/// Shared state between the front-end and the workers.
struct Inner {
    registry: Arc<EngineRegistry>,
    config: ServeConfig,
    /// The online tuning & engine-lifecycle manager, when
    /// [`ServeConfig::online`] is set.
    online: Option<OnlineEngineManager>,
    /// Origin of the server's unified µs timeline.
    epoch: Instant,
    metrics: Metrics,
    sched: Mutex<Scheduler>,
    /// Wakes waiting workers on submissions and on drain.
    work_cv: Condvar,
    next_id: AtomicU64,
}

impl Inner {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock_sched(&self) -> MutexGuard<'_, Scheduler> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A multi-model dynamic-batching inference server over compiled Bolt
/// engines.
///
/// Lifecycle: build an [`EngineRegistry`], register models, call
/// [`BoltServer::start`], submit from any number of threads, then
/// [`BoltServer::shutdown`] to drain gracefully. Dropping the server also
/// drains it.
pub struct BoltServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for BoltServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoltServer")
            .field("models", &self.inner.registry.names())
            .field("config", &self.inner.config)
            .finish()
    }
}

impl BoltServer {
    /// Starts `config.workers` stream workers over the models already
    /// registered in `registry` (models may also be registered while the
    /// server runs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the configuration violates an
    /// invariant the server depends on ([`ServeConfig::validate`]); no
    /// threads are started in that case.
    pub fn start(registry: Arc<EngineRegistry>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let online = config
            .online
            .clone()
            .map(|oc| OnlineEngineManager::new(Arc::clone(&registry), oc));
        let inner = Arc::new(Inner {
            registry,
            sched: Mutex::new(Scheduler::new(
                config.workers,
                config.max_batch,
                config.batch_timeout.as_secs_f64() * 1e6,
                online.is_some(),
            )),
            config,
            online,
            epoch: Instant::now(),
            metrics: Metrics::default(),
            work_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
        });

        let workers = (0..inner.config.workers)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                // Supervisor: per-batch panics are isolated inside the
                // loop; one that still escapes (an injected worker kill,
                // a real bug outside batch scope) restarts the loop in
                // place so the stream pool never shrinks. A clean return
                // means the server drained.
                std::thread::spawn(move || loop {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&inner, worker)
                    })) {
                        Ok(()) => return,
                        Err(_) => inner.metrics.worker_restarted(),
                    }
                })
            })
            .collect();
        Ok(BoltServer { inner, workers })
    }

    /// The registry backing this server.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.inner.registry
    }

    /// The online engine manager, when [`ServeConfig::online`] is set —
    /// e.g. to inspect [`crate::EngineState`]s or wait for the compile
    /// queue to drain in tests.
    pub fn online(&self) -> Option<&OnlineEngineManager> {
        self.inner.online.as_ref()
    }

    /// Submits one single-sample request. `deadline` (defaulting to
    /// [`ServeConfig::default_deadline`]) bounds how long the request may
    /// wait: if it is still queued past the deadline it is shed with
    /// [`Outcome::DeadlineExceeded`] instead of executed late.
    ///
    /// # Errors
    ///
    /// Admission control rejects fast — [`ServeError::UnknownModel`],
    /// [`ServeError::InvalidInput`], [`ServeError::QueueFull`]
    /// (backpressure), [`ServeError::ShuttingDown`] — and every rejection
    /// is counted in the metrics. An `Ok` handle is a guarantee: the
    /// request will resolve to exactly one terminal [`Outcome`].
    pub fn submit(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<RequestHandle> {
        self.submit_recoverable(model, inputs, deadline)
            .map_err(|(e, _inputs)| e)
    }

    /// Like [`BoltServer::submit`], but a rejection hands the input
    /// tensors back to the caller alongside the error. Inputs are real
    /// (deep-copying) buffers, so a cluster router that wants to re-route
    /// a backpressured request to another replica must get them back
    /// rather than clone per attempt.
    ///
    /// # Errors
    ///
    /// The same admission errors as [`BoltServer::submit`], paired with
    /// the unconsumed inputs.
    pub fn submit_recoverable(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> std::result::Result<RequestHandle, (ServeError, Vec<Tensor>)> {
        let inner = &*self.inner;
        inner.metrics.submitted();
        let Some(engines) = inner.registry.get(model) else {
            inner.metrics.rejected_unknown_model();
            return Err((ServeError::UnknownModel { name: model.into() }, inputs));
        };
        if let Err(e) = engines.validate_sample(&inputs) {
            inner.metrics.rejected_invalid_input();
            return Err((e, inputs));
        }
        if engines.max_batch() == 0 && inner.online.is_none() {
            // A zero-bucket dynamic model is only servable when an online
            // tuner can create (or fall back past) the missing engines.
            inner.metrics.rejected_no_engine();
            return Err((
                ServeError::NoEngine {
                    model: model.into(),
                    reason: "model has no compiled buckets and online tuning is disabled".into(),
                },
                inputs,
            ));
        }

        let key = Scheduler::key_for(&engines);
        let mut sched = inner.lock_sched();
        if !sched.accepting {
            inner.metrics.rejected_shutting_down();
            return Err((ServeError::ShuttingDown, inputs));
        }
        if sched.depth(&key) >= inner.config.queue_capacity {
            inner.metrics.rejected_queue_full();
            return Err((
                ServeError::QueueFull {
                    model: model.into(),
                    capacity: inner.config.queue_capacity,
                },
                inputs,
            ));
        }

        let now_us = inner.now_us();
        let deadline_us = deadline
            .or(inner.config.default_deadline)
            .map(|d| now_us + d.as_secs_f64() * 1e6);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ResponseSlot::default());
        sched.enqueue(
            key,
            QueuedRequest {
                model: engines,
                inputs,
                submitted_us: now_us,
                deadline_us,
                slot: Arc::clone(&slot),
            },
        );
        inner.metrics.accepted();
        inner.work_cv.notify_all();
        Ok(RequestHandle { id, slot })
    }

    /// Blocking convenience: submit and wait for the terminal outcome.
    ///
    /// # Errors
    ///
    /// Same admission errors as [`BoltServer::submit`].
    pub fn infer(&self, model: &str, inputs: Vec<Tensor>) -> Result<Outcome> {
        Ok(self.submit(model, inputs, None)?.wait())
    }

    /// Cheap instantaneous load gauges (queue depth, in-flight count,
    /// recent p99) — what a cluster router polls per placement decision,
    /// without paying for the full snapshot's percentile sorts.
    pub fn load(&self) -> LoadGauges {
        self.inner.metrics.gauges()
    }

    /// A point-in-time metrics snapshot (callable while serving).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot(
            self.inner.now_us(),
            self.inner.registry.workspaces(),
            self.inner
                .online
                .as_ref()
                .map(OnlineEngineManager::snapshot),
        )
    }

    /// Graceful drain: stop accepting, flush every queue (partial batches
    /// dispatch immediately), wait for all in-flight batches, stop the
    /// threads, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain();
        self.metrics()
    }

    /// Abrupt stop (a killed cluster replica): stop accepting and resolve
    /// everything still queued as [`Outcome::Rejected`] instead of
    /// executing it. Batches already on a stream still finish — the
    /// exactly-once guarantee holds: every accepted request resolves,
    /// just mostly as rejections.
    pub fn abort(mut self) -> MetricsSnapshot {
        let queued = {
            let mut sched = self.inner.lock_sched();
            sched.accepting = false;
            sched.take_all()
        };
        // Resolve outside the lock. Exactly-once still holds — each
        // request resolves, as a shed or a rejection.
        let now_us = self.inner.now_us();
        let (late, rest): (Vec<_>, Vec<_>) = queued.into_iter().partition(|r| r.is_late(now_us));
        shed(&self.inner, late, now_us);
        self.inner.metrics.dequeued(rest.len());
        reject_all(&self.inner, rest, "server aborted");
        self.drain();
        self.metrics()
    }

    /// Stops accepting; the workers take what is queued, then stop.
    fn drain(&mut self) {
        self.inner.lock_sched().accepting = false;
        self.inner.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for BoltServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Idle re-check interval: bounds how stale a sleeping worker's view can
/// get even if a wakeup is missed.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// How long to sleep from `now_us` to the `wake` edge, capped by
/// [`IDLE_TICK`].
fn until(wake: Option<f64>, now_us: f64) -> Duration {
    wake.map(|wake| Duration::from_secs_f64((wake - now_us).max(1.0) / 1e6))
        .unwrap_or(IDLE_TICK)
        .min(IDLE_TICK)
}

/// Resolves each request as [`Outcome::DeadlineExceeded`] at `now_us`,
/// counting it.
fn shed(inner: &Inner, requests: impl IntoIterator<Item = QueuedRequest>, now_us: f64) {
    for request in requests {
        inner.metrics.deadline_shed();
        request.slot.resolve(Outcome::DeadlineExceeded {
            waited_us: now_us - request.submitted_us,
        });
    }
}

/// Blocks worker `worker`, whose stream is busy until `busy_until_us`,
/// until [`Scheduler::next`] gives it a batch; `None` once the server has
/// drained.
fn next_job(inner: &Inner, worker: usize, busy_until_us: f64) -> Option<BatchJob> {
    let mut sched = inner.lock_sched();
    sched.worker_waiting(worker, busy_until_us);
    let mut late = Vec::new();
    loop {
        let now_us = inner.now_us();
        let next = sched.next(worker, now_us, &mut late);
        if late.is_empty() {
            if let Next::Wait(wake) = next {
                sched = inner
                    .work_cv
                    .wait_timeout(sched, until(wake, now_us))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                continue;
            }
        }
        // Resolve outside the lock so submitters keep moving.
        drop(sched);
        shed(inner, late.drain(..), now_us);
        match next {
            Next::Batch(job) => {
                inner.metrics.dequeued(job.requests.len());
                return Some(job);
            }
            Next::Drained => return None,
            Next::Wait(_) => sched = inner.lock_sched(), // ask again: time moved on
        }
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    // This worker's simulated stream: absolute µs (server timeline) until
    // which the stream is busy. Batches dispatched to the same stream
    // queue behind each other, exactly like kernels on a CUDA stream.
    // (Reset on a supervisor restart: a crashed stream loses its backlog.)
    let mut busy_until_us = 0.0f64;
    loop {
        // Chaos: a worker thread may die *between* batches — it holds no
        // job here, so nothing is lost; the supervisor respawns it.
        bolt::faults::panic_if_scheduled(bolt::faults::FaultSite::WorkerKill);
        let Some(mut job) = next_job(inner, worker, busy_until_us) else {
            return; // server drained
        };
        // Panic isolation per batch: a panicking kernel (or an injected
        // fault) rejects the batch's own requests and nothing else.
        // `execute_batch` drains requests from the job as it resolves
        // them, so whatever remains after a panic is exactly the
        // unresolved set.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(inner, &mut job, &mut busy_until_us)
        }));
        if let Err(payload) = run {
            inner.metrics.worker_panic();
            let reason = ServeError::Panicked {
                component: "batch execution".into(),
                message: crate::panic_message(&payload),
            }
            .to_string();
            reject_all(inner, job.requests.drain(..), &reason);
        }
    }
}

/// Resolves each still-pending request as [`Outcome::Rejected`] with
/// `reason`, counting every one this call resolved.
fn reject_all(inner: &Inner, requests: impl IntoIterator<Item = QueuedRequest>, reason: &str) {
    for request in requests {
        let reason = reason.to_string();
        if request.slot.try_resolve(Outcome::Rejected { reason }) {
            inner.metrics.rejected_execution();
        }
    }
}

fn execute_batch(inner: &Inner, job: &mut BatchJob, busy_until_us: &mut f64) {
    let batch = job.requests.len();
    // Place, run (bucket-sized chunks per launch, when the model is
    // functional) and price the batch. The inputs are moved out: a
    // request no longer needs them once its batch runs.
    let samples: Vec<Vec<Tensor>> = job
        .requests
        .iter_mut()
        .map(|r| std::mem::take(&mut r.inputs))
        .collect();
    let Launch {
        placed,
        sim_us: kernel_us,
        real_flops,
        launched_flops,
        mut outputs,
    } = match launch(inner.online.as_ref(), &job.model, &samples, batch) {
        Ok(launched) => launched,
        Err(e) => {
            // Admission guarantees a terminal outcome; an unplaceable or
            // failed batch (e.g. the heuristic fallback compile failed)
            // rejects every request in it.
            reject_all(inner, job.requests.drain(..), &e.to_string());
            return;
        }
    };
    if placed.launches > 1 {
        inner.metrics.batch_overflow();
    }

    // Chaos: a slow batch (stalls this stream, so later batches queue
    // behind it and may be shed at their deadlines), then a mid-batch
    // panic before any result is published (isolated by the worker's
    // per-batch catch_unwind above).
    bolt::faults::stall(bolt::faults::FaultSite::BatchStall);
    bolt::faults::panic_if_scheduled(bolt::faults::FaultSite::BatchPanic);

    // The real batch of `batch` requests rode the bucket-sized launch
    // (repeated when the batch was split). The step observer attributes
    // the batch's latency per kernel, once per launch — with each
    // launch's compute scaled by its occupancy, so the zero-padded tail
    // rows of a partial final launch are not priced as real work.
    inner.metrics.batch(batch, kernel_us);
    inner.metrics.launch_flops(real_flops, launched_flops);
    let bucket = placed.bucket.max(1);
    let timings = &placed.engine.price().timings;
    for launch in 0..placed.launches {
        let rows = (batch - launch * bucket).min(bucket);
        inner
            .metrics
            .kernel_times(&timings.scaled_occupancy(rows, bucket));
    }

    // Advance this stream's simulated timeline and settle per-request
    // latency: queue wait (real) + stream backlog + batch kernel time
    // (simulated).
    let now_us = inner.now_us();
    let start_us = now_us.max(*busy_until_us);
    let done_us = start_us + kernel_us;
    *busy_until_us = done_us;

    for (index, request) in job.requests.drain(..).enumerate() {
        let latency = LatencyBreakdown {
            queue_us: start_us - request.submitted_us,
            kernel_us,
            total_us: done_us - request.submitted_us,
        };
        inner.metrics.completed(latency.total_us);
        if placed.degraded {
            inner.metrics.degraded();
        }
        request.slot.resolve(Outcome::Completed(InferResponse {
            model: job.model.name().to_string(),
            outputs: outputs.as_mut().map(|o| std::mem::take(&mut o[index])),
            batch_size: batch,
            bucket: placed.bucket,
            launches: placed.launches,
            fallback: placed.fallback,
            degraded: placed.degraded,
            latency,
        }));
    }
}
