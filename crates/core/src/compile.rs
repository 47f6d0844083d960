//! The end-to-end Bolt compilation pipeline (paper Figure 3).

use std::sync::Arc;

use bolt_gpu_sim::GpuArch;
use bolt_graph::passes::PassManager;
use bolt_graph::Graph;

use crate::config::BoltConfig;
use crate::lower::lower;
use crate::plan::ExecutionPlan;
use crate::profiler::BoltProfiler;
use crate::runtime::{CompiledModel, TuningSummary};
use crate::Result;

/// The Bolt compiler: graph passes → partition/lowering with deeper
/// fusion → hardware-native profiling → templated code generation.
#[derive(Debug)]
pub struct BoltCompiler {
    arch: GpuArch,
    config: BoltConfig,
    profiler: BoltProfiler,
}

impl BoltCompiler {
    /// Creates a compiler for `arch` with `config`.
    ///
    /// If `config.bundle_path` (or `BOLT_TUNE_BUNDLE`) names a packed
    /// multi-arch bundle, the shard matching `arch` is loaded first —
    /// the fleet warm-boot path, one shipped artifact serving replicas
    /// of every architecture. Then, if `config.cache_path` (or
    /// `BOLT_TUNE_CACHE`) names an existing autotune cache file, it is
    /// loaded so compilation starts warm. A missing cache file is normal
    /// (first run); an invalid one — corrupt, wrong schema version, or
    /// tuned for a different architecture — degrades to a warning and a
    /// cold start, never a failure. Bundle problems also degrade to a
    /// warning here; fleet code that *requires* the warm boot validates
    /// the bundle strictly before launch (typed
    /// [`crate::BoltError::CacheArchMismatch`]) via
    /// [`BoltProfiler::load_bundle`].
    pub fn new(arch: GpuArch, config: BoltConfig) -> Self {
        let profiler = BoltProfiler::new(&arch, config.profiler_candidates);
        let compiler = BoltCompiler {
            arch,
            config,
            profiler,
        };
        if let Some(path) = compiler.config.tune_bundle_path() {
            if let Err(e) = compiler.profiler.load_bundle(&path) {
                eprintln!("warning: ignoring tune bundle: {e}");
            }
        }
        if let Some(path) = compiler.tune_cache_path() {
            if path.exists() {
                if let Err(e) = compiler.profiler.load_cache(&path) {
                    eprintln!("warning: ignoring tune cache {}: {e}", path.display());
                }
            }
        }
        compiler
    }

    /// The on-disk autotune cache location: `config.cache_path`, else the
    /// `BOLT_TUNE_CACHE` environment variable, else none.
    pub fn tune_cache_path(&self) -> Option<std::path::PathBuf> {
        self.config.tune_cache_path()
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// The active configuration.
    pub fn config(&self) -> &BoltConfig {
        &self.config
    }

    /// The profiler (shared across compilations: its workload cache is
    /// what makes repeated compilations cheap, like the paper's reusable
    /// sample programs).
    pub fn profiler(&self) -> &BoltProfiler {
        &self.profiler
    }

    /// Compiles a graph into an executable model.
    ///
    /// After a successful compile the profiler cache is persisted to
    /// [`BoltCompiler::tune_cache_path`] (when one is configured); a
    /// write failure is reported as a warning, not an error, since the
    /// cache is purely an optimization.
    ///
    /// # Errors
    ///
    /// Returns an error when graph passes fail or a workload has no legal
    /// template configuration.
    pub fn compile(&self, graph: &Graph) -> Result<CompiledModel> {
        if let Some(site) = crate::faults::fail(crate::faults::FaultSite::Compile) {
            return Err(crate::BoltError::Injected { site });
        }
        let optimized = if self.config.deployment_passes {
            PassManager::deployment().run(graph)?
        } else {
            graph.clone()
        };

        let before = self.profiler.stats();
        let steps = lower(&optimized, &self.arch, &self.config, &self.profiler)?;
        let after = self.profiler.stats();

        // Deltas, so the one-time template-generation cost is charged to
        // the first compilation that actually measures — not re-billed to
        // every model built by this process (or loaded from a warm cache).
        let tuning = TuningSummary {
            workloads: after.workloads - before.workloads,
            measurements: after.measurements - before.measurements,
            pruned: after.pruned - before.pruned,
            tuning_seconds: after.tuning_seconds() - before.tuning_seconds(),
        };

        if let Some(path) = self.tune_cache_path() {
            if let Err(e) = self.profiler.save_cache(&path) {
                eprintln!("warning: failed to save tune cache {}: {e}", path.display());
            }
        }

        // Build the execution plan: prepack constants into kernel-native
        // layouts and run the liveness pass that assigns buffer slots.
        let plan = ExecutionPlan::build(self.arch.clone(), optimized, steps, self.config.clone());
        Ok(CompiledModel {
            plan: Arc::new(plan),
            tuning,
        })
    }

    /// Compiles a graph with **heuristic default template configs**: the
    /// same passes, lowering, prepacking, and memory planning as
    /// [`BoltCompiler::compile`], but every workload resolves to the
    /// config generator's first (default) candidate instead of a profiled
    /// winner. Nothing is measured, the shared autotune cache is neither
    /// consulted nor written, and the returned
    /// [`CompiledModel::tuning`] summary is all zeros.
    ///
    /// This is the serving layer's immediate-fallback path for a workload
    /// that has never been tuned: the heuristic engine serves traffic
    /// right away while a real profiled compile runs in the background.
    ///
    /// # Errors
    ///
    /// Returns an error when graph passes fail or a workload has no legal
    /// template configuration.
    pub fn compile_heuristic(&self, graph: &Graph) -> Result<CompiledModel> {
        if let Some(site) = crate::faults::fail(crate::faults::FaultSite::HeuristicCompile) {
            return Err(crate::BoltError::Injected { site });
        }
        let optimized = if self.config.deployment_passes {
            PassManager::deployment().run(graph)?
        } else {
            graph.clone()
        };
        let profiler = BoltProfiler::heuristic(&self.arch);
        let steps = lower(&optimized, &self.arch, &self.config, &profiler)?;
        let plan = ExecutionPlan::build(self.arch.clone(), optimized, steps, self.config.clone());
        Ok(CompiledModel {
            plan: Arc::new(plan),
            tuning: TuningSummary::default(),
        })
    }

    /// Phase-1 view of a graph's profiling work: the deduplicated
    /// workload set [`BoltCompiler::compile`] would measure, after the
    /// same deployment passes. Useful for warming caches ahead of time
    /// and for benchmarking the profiling engine in isolation.
    ///
    /// # Errors
    ///
    /// Returns an error when graph passes fail.
    pub fn profile_tasks(&self, graph: &Graph) -> Result<Vec<crate::profiler::ProfileTask>> {
        let optimized = if self.config.deployment_passes {
            PassManager::deployment().run(graph)?
        } else {
            graph.clone()
        };
        Ok(crate::lower::collect_profile_tasks(
            &optimized,
            &self.config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::StepKind;
    use bolt_graph::GraphBuilder;
    use bolt_tensor::{Activation, DType, Tensor};

    fn t4() -> GpuArch {
        GpuArch::tesla_t4()
    }

    #[test]
    fn mlp_compiles_to_fused_kernels() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[64, 128]);
        let h = b.dense_bias(x, 256, "fc1");
        let r = b.activation(h, Activation::ReLU, "relu");
        let o = b.dense_bias(r, 64, "fc2");
        let g = b.finish(&[o]);

        let compiler = BoltCompiler::new(t4(), BoltConfig::default());
        let model = compiler.compile(&g).unwrap();
        // Two dense+epilogue kernels, possibly persistent-fused into one.
        assert!(model.kernel_count() <= 2);
        assert!(model.tuning.workloads >= 1);
        assert!(model.tuning.tuning_seconds > 0.0);
        let report = model.time();
        assert!(report.total_us > 0.0 && report.total_us.is_finite());
    }

    #[test]
    fn functional_matches_unoptimized_semantics() {
        // Compile the same tiny model with and without fusion; outputs
        // must agree exactly (same FP16 rounding points).
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[16, 24]);
        let h = b.dense_bias(x, 16, "fc1");
        let r = b.activation(h, Activation::ReLU, "relu");
        let o = b.dense_bias(r, 8, "fc2");
        let g = b.finish(&[o]);

        let fused = BoltCompiler::new(t4(), BoltConfig::default())
            .compile(&g)
            .unwrap();
        let unfused = BoltCompiler::new(t4(), BoltConfig::no_optimizations())
            .compile(&g)
            .unwrap();
        let input = Tensor::randn(&[16, 24], DType::F16, 5);
        let a = fused.run(std::slice::from_ref(&input)).unwrap();
        let bout = unfused.run(&[input]).unwrap();
        assert_eq!(a.len(), 1);
        let diff = a[0].max_abs_diff(&bout[0]).unwrap();
        assert!(diff < 2e-2, "fusion changed numerics by {diff}");
    }

    #[test]
    fn small_cnn_compiles_and_runs() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[2, 3, 16, 16]);
        let c1 = b.conv2d_bias(x, 8, 3, (1, 1), (1, 1), "c1");
        let r1 = b.activation(c1, Activation::ReLU, "r1");
        let p = b.max_pool(r1, 2, 2, "pool");
        let c2 = b.conv2d_bias(p, 8, 3, (1, 1), (1, 1), "c2");
        let r2 = b.activation(c2, Activation::ReLU, "r2");
        let gap = b.global_avg_pool(r2, "gap");
        let fc = b.dense_bias(gap, 4, "fc");
        let g = b.finish(&[fc]);

        let compiler = BoltCompiler::new(t4(), BoltConfig::default());
        let model = compiler.compile(&g).unwrap();
        // First conv has C=3 -> padded to 8.
        let padded = model.steps().iter().any(|s| {
            matches!(
                s.kind,
                StepKind::Conv2d {
                    pad_to: Some(8),
                    ..
                }
            )
        });
        assert!(padded, "first layer must be padded to alignment 8");

        let input = Tensor::randn(&[2, 3, 16, 16], DType::F16, 1);
        let out = model.run(&[input]).unwrap();
        assert_eq!(out[0].shape().dims(), &[2, 4]);
        let report = model.time();
        assert!(report.total_us > 0.0);
        assert!(report.images_per_sec(2) > 0.0);
    }

    #[test]
    fn deployment_passes_fold_bn() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[1, 4, 8, 8]);
        let c = b.conv2d(x, 8, 3, (1, 1), (1, 1), "conv");
        let bn = b.batch_norm(c, "bn");
        let r = b.activation(bn, Activation::ReLU, "relu");
        let g = b.finish(&[r]);
        let model = BoltCompiler::new(t4(), BoltConfig::default())
            .compile(&g)
            .unwrap();
        // BN folded: no host batch_norm steps remain.
        assert!(model.steps().iter().all(|s| !s.name.contains("batch_norm")));
    }

    #[test]
    fn persistent_fusion_fires_on_b2b_gemms() {
        // Tall-skinny chain from Table 1: (16384,64,256) -> (16384,16,64).
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[16384, 256]);
        let d0 = b.dense(x, 64, "g0");
        let r0 = b.activation(d0, Activation::ReLU, "r0");
        let d1 = b.dense(r0, 16, "g1");
        let r1 = b.activation(d1, Activation::ReLU, "r1");
        let g = b.finish(&[r1]);

        let fused_model = BoltCompiler::new(t4(), BoltConfig::default())
            .compile(&g)
            .unwrap();
        let has_b2b = fused_model
            .steps()
            .iter()
            .any(|s| matches!(s.kind, StepKind::B2bGemm { .. }));
        assert!(
            has_b2b,
            "profitable b2b chain must fuse: {:?}",
            fused_model
                .steps()
                .iter()
                .map(|s| &s.name)
                .collect::<Vec<_>>()
        );

        let unfused_model = BoltCompiler::new(t4(), BoltConfig::epilogue_only())
            .compile(&g)
            .unwrap();
        let fused_t = fused_model.time().total_us;
        let unfused_t = unfused_model.time().total_us;
        assert!(fused_t < unfused_t, "{fused_t} !< {unfused_t}");
    }
}
