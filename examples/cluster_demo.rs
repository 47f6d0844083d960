//! The cluster layer end to end: consistent-hash routing with failover
//! past a killed replica, then an autoscaler riding a load storm — scale
//! up under simulated-GPU backlog, scale back down to the floor once the
//! storm passes — with the exactly-once invariant checked at every
//! shutdown.
//!
//! Run with: `cargo run --release --example cluster_demo`
//! CI smoke mode (smaller storm, fast): `... --example cluster_demo -- --smoke`

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::BoltConfig;
use bolt_cluster::{
    Autoscaler, AutoscalerConfig, Cluster, ClusterConfig, ClusterError, ModelSpec, PlacementPolicy,
    ReplicaSpec, ScaleDecision,
};
use bolt_gpu_sim::GpuArch;
use bolt_serve::{Outcome, ServeConfig};
use bolt_tensor::{DType, Tensor};

/// The storm model: a deep, wide FFN stack, shapes-only — workers price
/// it on the simulated GPU instead of computing it, so a request storm
/// builds *simulated* stream backlog the autoscaler can see without the
/// host needing real GPU-sized compute.
fn dense_deep() -> ModelSpec {
    ModelSpec::Custom {
        name: "dense-deep".into(),
        build: Arc::new(|batch| {
            let mut b = bolt_graph::GraphBuilder::shapes_only(DType::F16);
            let mut h = b.input(&[batch, 1024]);
            for layer in 0..5 {
                h = b.dense_bias(h, 8192, &format!("ffn{layer}"));
            }
            let out = b.dense_bias(h, 1024, "head");
            b.finish(&[out])
        }),
        tuned: false,
    }
}

fn spec(models: Vec<ModelSpec>) -> ReplicaSpec {
    ReplicaSpec {
        arch: GpuArch::tesla_t4(),
        bolt: BoltConfig::default(),
        serve: ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(3),
            queue_capacity: 4096,
            ..ServeConfig::default()
        },
        models,
    }
}

fn sample(seed: u64) -> Vec<Tensor> {
    vec![Tensor::randn(&[1, 128], DType::F16, seed)]
}

/// Consistent-hash placement pins a model to one ring owner; killing the
/// owner re-routes its traffic to a survivor without losing a request.
fn routing_and_failover() {
    println!("== routing & failover (consistent hashing, 3 replicas) ==");
    let cluster = Cluster::new(ClusterConfig::homogeneous(
        spec(vec![ModelSpec::Zoo {
            name: "mlp-small".into(),
            tuned: false,
        }]),
        3,
        PlacementPolicy::default(),
    ))
    .expect("cluster comes up");

    for i in 0..9 {
        let outcome = cluster.infer("mlp-small", sample(i)).expect("routed");
        assert!(matches!(outcome, Outcome::Completed(_)));
    }
    let owner = cluster
        .snapshot()
        .live
        .iter()
        .find(|(_, stats)| stats.accepted > 0)
        .map(|(id, _)| *id)
        .expect("one replica owns the model");
    println!("  9 requests for mlp-small all landed on ring owner: replica {owner}");

    cluster.kill_replica(owner).expect("kill the owner");
    println!("  killed replica {owner}; router re-routes to a survivor");
    for i in 9..18 {
        let outcome = cluster.infer("mlp-small", sample(i)).expect("rerouted");
        assert!(matches!(outcome, Outcome::Completed(_)));
    }

    let end = cluster.shutdown();
    let survivor = end
        .retired
        .iter()
        .find(|r| r.graceful && r.stats.accepted > 0)
        .expect("a survivor served the re-routed traffic");
    println!(
        "  replica {} took over: {} completed there; cluster totals {} accepted / {} resolved",
        survivor.id, survivor.stats.completed, end.totals.accepted, end.totals.resolved
    );
    assert_eq!(end.totals.unresolved(), 0, "no request silently dropped");
}

/// A storm past one replica's simulated capacity drives the windowed p99
/// over threshold; the autoscaler grows the set, then drains back to the
/// floor once a light trickle shows the cluster cold again.
fn autoscale_under_storm(smoke: bool) {
    println!("\n== autoscaler (1..4 replicas, least-loaded routing) ==");
    let mut config =
        ClusterConfig::homogeneous(spec(vec![dense_deep()]), 1, PlacementPolicy::LeastLoaded);
    config.classes[0].min_replicas = 1;
    config.classes[0].max_replicas = 4;
    let cluster = Cluster::new(config).expect("cluster comes up");

    let scaler = Autoscaler::new(
        Arc::clone(&cluster),
        AutoscalerConfig {
            // The trickle keeps a couple of requests queued per replica
            // while partial batches wait for a busy stream; "cold" must
            // sit above that floor or it never fires.
            queue_depth_low: 4.0,
            // Bracket the two regimes: the storm's windowed p99 is
            // hundreds of ms of simulated backlog, the trickle's is
            // ~15 ms (batch-timeout waits plus single-core scheduling
            // jitter — these latencies include real queue time).
            p99_high_us: 60_000.0,
            p99_low_us: 22_000.0,
            scale_up_after: 2,
            scale_down_after: 3,
            cooldown_ticks: 2,
            ..AutoscalerConfig::default()
        },
    );
    let handle = scaler.spawn(Duration::from_millis(30));

    // Storm: ~3x one replica's simulated capacity (open-loop pacer, so
    // late service cannot slow the arrivals down).
    let (requests, rate) = if smoke {
        (1600, 16_000.0)
    } else {
        (4800, 16_000.0)
    };
    println!("  storm: {requests} requests at {rate:.0} rps against 1 replica...");
    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests);
    for i in 0..requests {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match cluster.submit(
            "dense-deep",
            vec![Tensor::randn(&[1, 1024], DType::F16, i as u64)],
            None,
        ) {
            Ok(handle) => handles.push(handle),
            Err(ClusterError::AllBackpressured { .. }) => {}
            Err(other) => panic!("unexpected cluster error: {other}"),
        }
    }
    for handle in &handles {
        handle.wait();
    }
    let grown = cluster.replica_count();
    println!("  storm over: cluster grew to {grown} replicas");

    // Trickle: light traffic in full batches (8 at once, so a batch
    // forms immediately and completes fast). Each replica's windowed p99
    // is over its last 256 completions, so the trickle must roll the
    // storm-era latencies out of every window before the autoscaler sees
    // the cluster cold and starts draining.
    let rounds = if smoke { 300 } else { 600 };
    for round in 0..rounds {
        let burst: Vec<_> = (0..8)
            .filter_map(|i| {
                cluster
                    .submit(
                        "dense-deep",
                        vec![Tensor::randn(&[1, 1024], DType::F16, round * 8 + i)],
                        None,
                    )
                    .ok()
            })
            .collect();
        for handle in &burst {
            handle.wait();
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let decisions = handle.stop();
    for decision in &decisions {
        match decision {
            ScaleDecision::ScaledUp { class, added } => {
                println!("  decision: scaled up class {class} (replica {added})")
            }
            ScaleDecision::ScaledDown { class, drained } => {
                println!("  decision: scaled down class {class} (drained replica {drained})")
            }
            ScaleDecision::Failed { error } => println!("  decision: failed ({error})"),
            ScaleDecision::Hold => {}
        }
    }
    let ups = decisions
        .iter()
        .filter(|d| matches!(d, ScaleDecision::ScaledUp { .. }))
        .count();
    let downs = decisions
        .iter()
        .filter(|d| matches!(d, ScaleDecision::ScaledDown { .. }))
        .count();
    assert!(ups >= 1, "the storm must trigger at least one scale-up");
    assert!(
        downs >= 1,
        "the trickle must let the autoscaler drain back down"
    );
    let settled = cluster.replica_count();
    println!("  settled at {settled} replica(s) after the trickle");
    assert!(
        settled < 1 + ups,
        "scale-down shrank the cluster below its peak"
    );

    let end = cluster.shutdown();
    println!(
        "  totals: {} accepted, {} completed, {} resolved, {} unresolved",
        end.totals.accepted,
        end.totals.completed,
        end.totals.resolved,
        end.totals.unresolved()
    );
    assert_eq!(
        end.totals.unresolved(),
        0,
        "exactly-once held through scale-up, drain, and shutdown"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    routing_and_failover();
    autoscale_under_storm(smoke);
    println!("\nok: routing, failover, and autoscaling all preserved exactly-once");
}
