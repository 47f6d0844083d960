//! One serving replica: an independent engine registry plus a
//! [`BoltServer`] (scheduler, batcher, worker pool of simulated GPU
//! streams), with a cluster-visible health state, placement-class
//! membership, per-arch kernel-cost signals, and retire hooks.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bolt::BoltConfig;
use bolt_gpu_sim::GpuArch;
use bolt_serve::registry::GraphBuilder;
use bolt_serve::{
    BoltServer, EngineRegistry, LoadGauges, MetricsSnapshot, RequestHandle, ServeConfig, ServeError,
};
use bolt_tensor::Tensor;
use parking_lot::RwLock;

use crate::error::ClusterError;

/// One model a replica serves.
#[derive(Clone)]
pub enum ModelSpec {
    /// A `bolt-models` zoo model by name.
    Zoo {
        /// Zoo model name (e.g. `"mlp-small"`).
        name: String,
        /// `true` compiles fully-profiled engines per bucket at launch;
        /// `false` boots fast on heuristic default-config engines (no
        /// profiling) — the autoscaler's scale-up path, which must not
        /// stall the cluster behind minutes of tuning.
        tuned: bool,
    },
    /// A model outside the zoo, from a graph-builder callback.
    Custom {
        /// Served model name.
        name: String,
        /// `batch` → inference graph at that batch size.
        build: GraphBuilder,
        /// See [`ModelSpec::Zoo::tuned`].
        tuned: bool,
    },
}

impl ModelSpec {
    /// The served model name.
    pub fn name(&self) -> &str {
        match self {
            ModelSpec::Zoo { name, .. } | ModelSpec::Custom { name, .. } => name,
        }
    }

    fn tuned(&self) -> bool {
        match self {
            ModelSpec::Zoo { tuned, .. } | ModelSpec::Custom { tuned, .. } => *tuned,
        }
    }
}

impl std::fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelSpec::Zoo { name, tuned } => f
                .debug_struct("Zoo")
                .field("name", name)
                .field("tuned", tuned)
                .finish(),
            ModelSpec::Custom { name, tuned, .. } => f
                .debug_struct("Custom")
                .field("name", name)
                .field("tuned", tuned)
                .finish_non_exhaustive(),
        }
    }
}

/// Everything needed to launch one replica. Every replica in a
/// placement class runs the same spec; different classes may run
/// different architectures. Sharing [`BoltConfig::cache_path`] across
/// replicas makes later launches (autoscaler scale-up) warm, and
/// setting [`BoltConfig::bundle_path`] to a packed multi-arch bundle
/// (`bolt-tune pack`) boots replicas of *any* arch with zero tuning
/// time — launch strictly validates that the bundle carries a shard for
/// the replica's architecture.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Simulated GPU the replica's engines compile for.
    pub arch: GpuArch,
    /// Compiler configuration (set `cache_path` for warm scale-up,
    /// `bundle_path` for zero-tuning boots from a shipped bundle).
    pub bolt: BoltConfig,
    /// Per-replica server configuration.
    pub serve: ServeConfig,
    /// Models every replica serves.
    pub models: Vec<ModelSpec>,
}

/// A replica's cluster-visible health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving: the router may place new requests here.
    Healthy,
    /// Graceful drain in progress: no new placements, queued work
    /// finishes.
    Draining,
    /// Gone (killed or fully drained): the router must skip it and
    /// re-route.
    Dead,
}

impl Health {
    fn from_u8(v: u8) -> Health {
        match v {
            0 => Health::Healthy,
            1 => Health::Draining,
            _ => Health::Dead,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Health::Healthy => 0,
            Health::Draining => 1,
            Health::Dead => 2,
        }
    }
}

/// The simulated kernel-cost signal the cost/SLO-aware router places
/// by: what one request costs on *this* replica's architecture, priced
/// from the compiled engines' `bolt-gpu-sim` timelines (no live
/// measurement on the routing path — each engine's price is memoized on
/// its plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Simulated latency of a single-sample launch (the smallest
    /// compiled bucket), in µs — the latency-critical signal.
    pub batch1_us: f64,
    /// Simulated per-sample cost at the largest compiled bucket, in µs
    /// — the throughput signal (big arches amortize better).
    pub per_sample_us: f64,
    /// The largest compiled bucket the per-sample cost was priced at.
    pub max_batch: usize,
}

/// One serving replica, owned by a [`crate::Cluster`].
pub struct Replica {
    id: u64,
    /// The placement class that launched this replica.
    class: String,
    registry: Arc<EngineRegistry>,
    /// `None` once retired; the server is *taken out* to shut down, so a
    /// racing submit sees an empty slot and reports `ShuttingDown`
    /// instead of touching a joined thread pool.
    server: RwLock<Option<BoltServer>>,
    health: AtomicU8,
    /// Simulated tuning wall-clock this replica's launch paid. Zero when
    /// it booted fully warm from a cache or packed bundle.
    tuning_seconds: f64,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("class", &self.class)
            .field("arch", &self.registry.arch().name)
            .field("health", &self.health())
            .finish_non_exhaustive()
    }
}

impl Replica {
    /// Compiles the spec's models into a fresh registry and starts the
    /// serving threads, recording the replica's `class` and the tuning
    /// time the launch paid. When the spec names a tune bundle
    /// ([`BoltConfig::bundle_path`] or `BOLT_TUNE_BUNDLE`), the bundle
    /// is validated **strictly** first: a missing, corrupt, or
    /// wrong-arch bundle refuses the launch instead of silently
    /// re-tuning for minutes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Bundle`] for an unusable tune bundle,
    /// [`ClusterError::Launch`] when a model fails to register/compile
    /// or the serve configuration is invalid.
    pub fn launch(id: u64, class: &str, spec: &ReplicaSpec) -> Result<Arc<Replica>, ClusterError> {
        let registry = Arc::new(EngineRegistry::new(spec.arch.clone(), spec.bolt.clone()));
        if let Some(path) = spec.bolt.tune_bundle_path() {
            // The compiler already loaded the bundle leniently at
            // construction; re-loading strictly costs one parse of a
            // small file (inserts are first-wins no-ops) and turns a
            // fleet misconfiguration into a typed refusal.
            registry
                .compiler()
                .profiler()
                .load_bundle(&path)
                .map_err(|e| ClusterError::Bundle {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                })?;
        }
        let buckets = spec.serve.buckets();
        for model in &spec.models {
            register_model(&registry, model, &buckets).map_err(ClusterError::Launch)?;
        }
        let tuning_seconds = registry.compiler().profiler().stats().tuning_seconds();
        let server = BoltServer::start(Arc::clone(&registry), spec.serve.clone())
            .map_err(ClusterError::Launch)?;
        Ok(Arc::new(Replica {
            id,
            class: class.to_string(),
            registry,
            server: RwLock::new(Some(server)),
            health: AtomicU8::new(Health::Healthy.as_u8()),
            tuning_seconds,
        }))
    }

    /// The cluster-assigned replica id (stable for its lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The placement class this replica belongs to.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The architecture this replica's engines are compiled for.
    pub fn arch(&self) -> &GpuArch {
        self.registry.arch()
    }

    /// Simulated tuning wall-clock the launch paid (template generation
    /// plus profiling). Zero when every workload came from a warm cache
    /// or packed bundle — the paper's "ship the tuned configs, not the
    /// tuning" claim, observable per replica.
    pub fn tuning_seconds(&self) -> f64 {
        self.tuning_seconds
    }

    /// The kernel-cost signal for `model` on this replica's architecture,
    /// priced from the buckets compiled right now ([`bolt::ExecutionPlan::price`]),
    /// so online hot-swaps and evictions show up on the next lookup.
    /// `None` when the model is unknown here or has no compiled bucket
    /// yet (dynamic registration before first traffic).
    pub fn kernel_cost(&self, model: &str) -> Option<KernelCost> {
        let engines = self.registry.get(model)?;
        let buckets = engines.bucket_sizes();
        let (&smallest, &largest) = (buckets.first()?, buckets.last()?);
        let batch1_us = engines.engine_for(smallest)?.1.price().total_us;
        let (max_batch, big_engine) = engines.engine_for(largest)?;
        let per_sample_us = big_engine.price().total_us / max_batch.max(1) as f64;
        Some(KernelCost {
            batch1_us,
            per_sample_us,
            max_batch,
        })
    }

    /// This replica's engine registry.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.registry
    }

    /// Current health state.
    pub fn health(&self) -> Health {
        Health::from_u8(self.health.load(Ordering::Acquire))
    }

    pub(crate) fn set_health(&self, health: Health) {
        self.health.store(health.as_u8(), Ordering::Release);
    }

    /// Live load gauges, `None` once the replica is retired.
    pub fn load(&self) -> Option<LoadGauges> {
        self.server.read().as_ref().map(BoltServer::load)
    }

    /// A metrics snapshot, `None` once the replica is retired.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.server.read().as_ref().map(BoltServer::metrics)
    }

    /// Submits to this replica's server, handing inputs back on any
    /// rejection so the router can re-route. A non-`Healthy` replica
    /// refuses immediately with [`ServeError::ShuttingDown`].
    ///
    /// # Errors
    ///
    /// The server's admission errors, paired with the unconsumed inputs.
    pub fn submit_recoverable(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<RequestHandle, (ServeError, Vec<Tensor>)> {
        if self.health() != Health::Healthy {
            return Err((ServeError::ShuttingDown, inputs));
        }
        match &*self.server.read() {
            Some(server) => server.submit_recoverable(model, inputs, deadline),
            None => Err((ServeError::ShuttingDown, inputs)),
        }
    }

    /// Stops the replica and returns its final metrics (or `None` when
    /// already retired). `graceful` drains queued work to completion;
    /// `!graceful` is an abrupt kill — queued requests resolve
    /// `Rejected`, in-flight batches still finish (exactly-once holds
    /// either way).
    pub fn retire(&self, graceful: bool) -> Option<MetricsSnapshot> {
        self.set_health(if graceful {
            Health::Draining
        } else {
            Health::Dead
        });
        let server = self.server.write().take()?;
        let stats = if graceful {
            server.shutdown()
        } else {
            server.abort()
        };
        self.set_health(Health::Dead);
        Some(stats)
    }
}

/// Registers one model on a replica's registry: tuned specs compile
/// fully-profiled engines per bucket; untuned specs register dynamically
/// and install heuristic default-config engines (zero profiling time).
fn register_model(
    registry: &Arc<EngineRegistry>,
    model: &ModelSpec,
    buckets: &[usize],
) -> Result<(), ServeError> {
    let name = model.name().to_string();
    if model.tuned() {
        match model {
            ModelSpec::Zoo { .. } => {
                registry.register_zoo(&name, buckets)?;
            }
            ModelSpec::Custom { build, .. } => {
                let build = Arc::clone(build);
                registry.register_with(&name, buckets, move |batch| build(batch))?;
            }
        }
        return Ok(());
    }
    match model {
        ModelSpec::Zoo { .. } => {
            registry.register_zoo_dynamic(&name)?;
        }
        ModelSpec::Custom { build, .. } => {
            let build = Arc::clone(build);
            registry.register_dynamic(&name, move |batch| build(batch))?;
        }
    }
    for &bucket in buckets {
        let engine = registry.compile_heuristic_bucket(&name, bucket)?;
        registry.insert_bucket(&name, bucket, engine)?;
    }
    Ok(())
}
