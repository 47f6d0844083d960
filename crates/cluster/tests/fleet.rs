//! Heterogeneous-fleet acceptance: a mixed T4 + A100 cluster where
//! every replica — of either architecture — boots from **one** packed
//! tune bundle with zero tuning seconds, the cost/SLO router places by
//! per-arch simulated kernel cost, and the autoscaler scales the hot
//! class instead of the fleet uniformly.

use std::sync::Arc;
use std::time::Duration;

use bolt::{BoltConfig, TuneBundle};
use bolt_cluster::{
    Autoscaler, AutoscalerConfig, Cluster, ClusterConfig, ClusterError, ModelSpec, PlacementClass,
    PlacementPolicy, ReplicaSpec, ScaleDecision,
};
use bolt_gpu_sim::GpuArch;
use bolt_serve::testing::occupy_streams;
use bolt_serve::{EngineRegistry, Outcome, ServeConfig};
use bolt_tensor::{DType, Tensor};

const MODEL: &str = "mlp-small";

fn sample(seed: u64) -> Vec<Tensor> {
    vec![Tensor::randn(&[1, 128], DType::F16, seed)]
}

fn fast_tuning() -> BoltConfig {
    BoltConfig {
        profiler_candidates: 4,
        ..BoltConfig::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bolt_fleet_test");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}_{name}", std::process::id()))
}

/// Tunes `MODEL`'s serving buckets once per arch and packs the shards
/// into one bundle at `path` — the `bolt-tune pack` flow via the
/// library API.
fn pack_bundle(path: &std::path::Path, arches: &[GpuArch], serve: &ServeConfig) {
    let mut bundle = TuneBundle::new();
    for arch in arches {
        let registry = EngineRegistry::new(arch.clone(), fast_tuning());
        registry
            .register_zoo(MODEL, &serve.buckets())
            .expect("tuning registry compiles");
        bundle.absorb(registry.compiler().profiler().export_shard());
    }
    bundle.write(path).expect("bundle writes");
}

fn class(
    name: &str,
    arch: GpuArch,
    replicas: usize,
    bolt: BoltConfig,
    serve: &ServeConfig,
) -> PlacementClass {
    PlacementClass {
        name: name.into(),
        spec: ReplicaSpec {
            arch,
            bolt,
            serve: serve.clone(),
            models: vec![ModelSpec::Zoo {
                name: MODEL.into(),
                tuned: true,
            }],
        },
        initial_replicas: replicas,
        min_replicas: 1,
        max_replicas: 4,
    }
}

#[test]
fn mixed_fleet_boots_every_arch_from_one_bundle_with_zero_tuning() {
    let bundle_path = tmp("mixed.bundle");
    let serve = ServeConfig::default();
    pack_bundle(
        &bundle_path,
        &[GpuArch::tesla_t4(), GpuArch::a100()],
        &serve,
    );

    let bolt = BoltConfig {
        bundle_path: Some(bundle_path.clone()),
        ..fast_tuning()
    };
    let cluster = Cluster::new(ClusterConfig {
        classes: vec![
            class("t4", GpuArch::tesla_t4(), 2, bolt.clone(), &serve),
            class("a100", GpuArch::a100(), 1, bolt, &serve),
        ],
        policy: PlacementPolicy::cost_slo(),
    })
    .expect("mixed fleet comes up");

    assert_eq!(cluster.replica_count(), 3);
    assert_eq!(cluster.class_count("t4"), 2);
    assert_eq!(cluster.class_count("a100"), 1);
    for replica in cluster.replicas() {
        assert_eq!(
            replica.tuning_seconds(),
            0.0,
            "replica {} ({}, class {}) must boot fully warm from the bundle",
            replica.id(),
            replica.arch().name,
            replica.class()
        );
    }

    // The per-arch kernel-cost signal exists on both classes and says
    // the A100 is faster — the information CostSlo routes on.
    let replicas = cluster.replicas();
    let t4_cost = replicas
        .iter()
        .find(|r| r.class() == "t4")
        .and_then(|r| r.kernel_cost(MODEL))
        .expect("t4 cost priced");
    let a100_cost = replicas
        .iter()
        .find(|r| r.class() == "a100")
        .and_then(|r| r.kernel_cost(MODEL))
        .expect("a100 cost priced");
    assert!(
        a100_cost.batch1_us < t4_cost.batch1_us,
        "a100 batch-1 {:.2}us must beat t4 {:.2}us",
        a100_cost.batch1_us,
        t4_cost.batch1_us
    );

    // And it serves across the mix.
    for i in 0..6 {
        let outcome = cluster.infer(MODEL, sample(i)).expect("routed");
        assert!(matches!(outcome, Outcome::Completed(_)));
    }
    let end = cluster.shutdown();
    assert_eq!(end.totals.completed, 6);
    assert_eq!(end.totals.unresolved(), 0);
    let _ = std::fs::remove_file(&bundle_path);
}

#[test]
fn launch_refuses_a_bundle_missing_the_replicas_arch() {
    let bundle_path = tmp("v100_only.bundle");
    let serve = ServeConfig::default();
    pack_bundle(&bundle_path, &[GpuArch::tesla_v100()], &serve);

    let bolt = BoltConfig {
        bundle_path: Some(bundle_path.clone()),
        ..fast_tuning()
    };
    match Cluster::new(ClusterConfig {
        classes: vec![class("t4", GpuArch::tesla_t4(), 1, bolt, &serve)],
        policy: PlacementPolicy::default(),
    }) {
        Err(ClusterError::Bundle { path, reason }) => {
            assert!(path.contains("v100_only.bundle"), "{path}");
            assert!(
                reason.contains("Tesla V100"),
                "the refusal names what the bundle holds: {reason}"
            );
        }
        other => panic!("expected typed Bundle refusal, got {other:?}"),
    }
    let _ = std::fs::remove_file(&bundle_path);
}

#[test]
fn cost_slo_sends_tight_deadlines_to_the_fast_class() {
    let serve = ServeConfig::default();
    let cluster = Cluster::new(ClusterConfig {
        classes: vec![
            class("t4", GpuArch::tesla_t4(), 2, fast_tuning(), &serve),
            class("a100", GpuArch::a100(), 1, fast_tuning(), &serve),
        ],
        policy: PlacementPolicy::CostSlo {
            tight_deadline_us: 25_000,
        },
    })
    .expect("mixed fleet comes up");

    // Latency-critical traffic, one at a time so the fleet is idle at
    // every placement: each request must go to the fastest arch.
    for i in 0..8 {
        let outcome = cluster
            .submit(MODEL, sample(i), Some(Duration::from_millis(20)))
            .expect("routed")
            .wait();
        assert!(matches!(outcome, Outcome::Completed(_)));
    }
    let end = cluster.shutdown();
    let a100_served: u64 = end
        .retired
        .iter()
        .filter(|r| r.class == "a100")
        .map(|r| r.stats.completed)
        .sum();
    assert_eq!(
        a100_served, 8,
        "an idle fleet routes every tight-deadline request to the A100 class"
    );
    assert_eq!(end.totals.unresolved(), 0);
}

#[test]
fn autoscaler_scales_the_hot_class_not_the_fleet() {
    // Queues hold work (batches form only at max_batch, the busy stream
    // waits out a far timeout), so outstanding requests stay visible per
    // class.
    let serve = ServeConfig {
        workers: 1,
        batch_timeout: Duration::from_secs(10),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let cluster = Cluster::new(ClusterConfig {
        classes: vec![
            class("t4", GpuArch::tesla_t4(), 1, fast_tuning(), &serve),
            class("a100", GpuArch::a100(), 1, fast_tuning(), &serve),
        ],
        policy: PlacementPolicy::cost_slo(),
    })
    .expect("mixed fleet comes up");
    let mut scaler = Autoscaler::new(
        Arc::clone(&cluster),
        AutoscalerConfig {
            queue_depth_high: 2.0,
            scale_up_after: 2,
            cooldown_ticks: 0,
            ..AutoscalerConfig::default()
        },
    );

    // Throughput traffic on an idle mix goes to the cheapest class
    // (A100); with batches held, its queue builds while the T4 stays
    // idle — only the hot class may grow. Only the A100's stream is
    // occupied: the ballast's own latency would read as hot on the T4.
    let a100_replica = cluster
        .replicas()
        .into_iter()
        .find(|r| r.class() == "a100")
        .expect("a100 class live");
    occupy_streams(a100_replica.registry(), 1, |model, inputs| {
        a100_replica
            .submit_recoverable(model, inputs, None)
            .map_err(|(e, _)| e)
            .expect("ballast admitted")
    });
    let handles: Vec<_> = (0..6)
        .map(|i| cluster.submit(MODEL, sample(i), None).expect("queued"))
        .collect();
    assert_eq!(
        a100_replica.load().expect("live").outstanding(),
        6,
        "cheapest class absorbed the whole burst"
    );

    assert_eq!(scaler.tick(), ScaleDecision::Hold, "hysteresis first");
    match scaler.tick() {
        ScaleDecision::ScaledUp { class, .. } => assert_eq!(class, "a100"),
        other => panic!("expected the a100 class to scale, got {other:?}"),
    }
    assert_eq!(cluster.class_count("a100"), 2);
    assert_eq!(cluster.class_count("t4"), 1, "the cold class must not grow");

    let end = cluster.shutdown();
    for handle in handles {
        assert!(matches!(handle.wait(), Outcome::Completed(_)));
    }
    assert_eq!(end.totals.unresolved(), 0);
}
