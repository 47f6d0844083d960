//! Cluster acceptance tests: placement affinity, failover past
//! backpressure and dead replicas, autoscaler decisions, and the
//! exactly-once invariant under membership churn.
//!
//! Replicas boot on heuristic (unprofiled) engines so each test pays
//! compile seconds, not tuning minutes — routing and lifecycle are
//! what's under test, not kernel quality.

use std::sync::Arc;
use std::time::Duration;

use bolt::BoltConfig;
use bolt_cluster::{
    Autoscaler, AutoscalerConfig, Cluster, ClusterConfig, ClusterError, ModelSpec, PlacementPolicy,
    Replica, ReplicaSpec, ScaleDecision,
};
use bolt_serve::testing::{occupy_streams, test_arch};
use bolt_serve::{Outcome, ServeConfig, ServeError};
use bolt_tensor::{DType, Tensor};

fn sample(seed: u64) -> Vec<Tensor> {
    vec![Tensor::randn(&[1, 128], DType::F16, seed)]
}

fn spec(serve: ServeConfig) -> ReplicaSpec {
    ReplicaSpec {
        arch: test_arch(),
        bolt: BoltConfig::default(),
        serve,
        models: vec![ModelSpec::Zoo {
            name: "mlp-small".into(),
            tuned: false,
        }],
    }
}

fn cluster(replicas: usize, policy: PlacementPolicy, serve: ServeConfig) -> Arc<Cluster> {
    Cluster::new(ClusterConfig::homogeneous(spec(serve), replicas, policy))
        .expect("cluster comes up")
}

/// Like `cluster`, with explicit scaling bounds on the single class.
fn bounded_cluster(
    replicas: usize,
    min: usize,
    max: usize,
    policy: PlacementPolicy,
    serve: ServeConfig,
) -> Arc<Cluster> {
    let mut config = ClusterConfig::homogeneous(spec(serve), replicas, policy);
    config.classes[0].min_replicas = min;
    config.classes[0].max_replicas = max;
    Cluster::new(config).expect("cluster comes up")
}

/// A serve config whose queues hold work once [`hold_streams`] has
/// occupied the streams: batches form only at `max_batch` and the
/// timeout is far away, so queued requests stay visible to gauges and
/// admission control.
fn holding_config(queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        batch_timeout: Duration::from_secs(10),
        queue_capacity,
        ..ServeConfig::default()
    }
}

/// Occupies the one simulated stream of `replica` (a `holding_config`
/// replica), returning how many ballast requests that took.
fn hold_replica(replica: &Replica) -> u64 {
    occupy_streams(replica.registry(), 1, |model, inputs| {
        replica
            .submit_recoverable(model, inputs, None)
            .map_err(|(e, _)| e)
            .expect("ballast admitted")
    })
}

/// [`hold_replica`] on every live replica; returns the ballast total.
fn hold_streams(cluster: &Cluster) -> u64 {
    cluster.replicas().iter().map(|r| hold_replica(r)).sum()
}

#[test]
fn consistent_hash_pins_a_model_to_one_replica() {
    let cluster = cluster(
        3,
        PlacementPolicy::ConsistentHash { virtual_nodes: 64 },
        ServeConfig::default(),
    );
    for i in 0..12 {
        let outcome = cluster.infer("mlp-small", sample(i)).expect("routed");
        assert!(matches!(outcome, Outcome::Completed(_)));
    }
    let end = cluster.shutdown();
    let serving: Vec<_> = end
        .retired
        .iter()
        .filter(|r| r.stats.accepted > 0)
        .collect();
    assert_eq!(
        serving.len(),
        1,
        "cache affinity: every request for one model lands on the ring owner"
    );
    assert_eq!(end.totals.completed, 12);
    assert_eq!(end.totals.unresolved(), 0);
}

#[test]
fn router_reroutes_after_replica_death() {
    let cluster = cluster(
        2,
        PlacementPolicy::ConsistentHash { virtual_nodes: 64 },
        ServeConfig::default(),
    );
    // Discover the ring owner for this model.
    cluster.infer("mlp-small", sample(0)).expect("routed");
    let primary = cluster
        .snapshot()
        .live
        .iter()
        .find(|(_, stats)| stats.accepted > 0)
        .map(|(id, _)| *id)
        .expect("someone served it");

    cluster.kill_replica(primary).expect("kill the owner");

    // The router detects the death and re-routes to the survivor.
    for i in 1..5 {
        let outcome = cluster.infer("mlp-small", sample(i)).expect("rerouted");
        assert!(matches!(outcome, Outcome::Completed(_)));
    }
    let end = cluster.shutdown();
    assert_eq!(end.totals.completed, 5);
    assert_eq!(end.totals.unresolved(), 0, "no request silently dropped");
    assert!(end.retired.iter().any(|r| !r.graceful && r.id == primary));
}

#[test]
fn backpressure_fails_over_then_fails_fast_cluster_wide() {
    // Capacity 2 per replica, batches held: 2 replicas admit exactly 4.
    let cluster = cluster(
        2,
        PlacementPolicy::ConsistentHash { virtual_nodes: 64 },
        holding_config(2),
    );
    let held = hold_streams(&cluster);
    let mut handles = Vec::new();
    for i in 0..4 {
        handles.push(
            cluster
                .submit("mlp-small", sample(i), None)
                .expect("admitted, overflowing onto the second replica"),
        );
    }
    // Both replicas hold queued work now.
    let loads: Vec<u64> = cluster
        .replicas()
        .iter()
        .map(|r| r.load().expect("live").outstanding())
        .collect();
    assert_eq!(loads.iter().sum::<u64>(), 4);
    assert!(
        loads.iter().all(|&l| l == 2),
        "failover spread admissions across both replicas: {loads:?}"
    );

    // The fifth submit finds every candidate backpressured.
    match cluster.submit("mlp-small", sample(99), None) {
        Err(ClusterError::AllBackpressured { attempted }) => assert_eq!(attempted, 2),
        other => panic!("expected AllBackpressured, got {other:?}"),
    }

    // Drain flushes the held batches; everything admitted completes.
    let end = cluster.shutdown();
    for handle in handles {
        assert!(matches!(handle.wait(), Outcome::Completed(_)));
    }
    assert_eq!(end.totals.completed, 4 + held);
    assert_eq!(end.totals.unresolved(), 0);
}

#[test]
fn non_recoverable_rejections_fail_fast() {
    let cluster = cluster(2, PlacementPolicy::LeastLoaded, ServeConfig::default());
    match cluster.submit("no-such-model", sample(0), None) {
        Err(ClusterError::Replica(ServeError::UnknownModel { name })) => {
            assert_eq!(name, "no-such-model");
        }
        other => panic!("expected fail-fast UnknownModel, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn kernel_cost_follows_bucket_removal() {
    let cluster = cluster(1, PlacementPolicy::LeastLoaded, ServeConfig::default());
    let replica = cluster.replicas().pop().expect("one replica");
    let before = replica.kernel_cost("mlp-small").expect("priced");

    // An eviction (or hot-swap) changes the model's buckets after the
    // router has already priced it.
    let engines = replica
        .registry()
        .remove_bucket("mlp-small", 1)
        .expect("bucket 1 removed");
    let (smallest, engine) = engines.engine_for(1).expect("a bucket remains");
    assert_eq!(smallest, 2);
    let after = replica.kernel_cost("mlp-small").expect("still priced");
    assert_eq!(after.batch1_us, engine.price().total_us);
    assert_ne!(after.batch1_us, before.batch1_us, "stale price");
    cluster.shutdown();
}

#[test]
fn abrupt_kill_rejects_queued_work_exactly_once() {
    let cluster = cluster(1, PlacementPolicy::LeastLoaded, holding_config(64));
    let id = cluster.replicas()[0].id();
    let held = hold_streams(&cluster);
    let handles: Vec<_> = (0..5)
        .map(|i| {
            cluster
                .submit("mlp-small", sample(i), None)
                .expect("queued")
        })
        .collect();
    let stats = cluster.kill_replica(id).expect("killed");
    assert_eq!(stats.accepted, 5 + held);
    assert_eq!(
        stats.resolved(),
        5 + held,
        "abort resolves everything queued, as rejections"
    );
    for handle in handles {
        assert!(
            matches!(handle.wait(), Outcome::Rejected { .. }),
            "queued work on a killed replica terminates as Rejected"
        );
    }
    let end = cluster.shutdown();
    assert_eq!(end.totals.unresolved(), 0);
}

#[test]
fn autoscaler_scales_up_on_queue_pressure() {
    let cluster = bounded_cluster(1, 1, 2, PlacementPolicy::LeastLoaded, holding_config(64));
    let mut scaler = Autoscaler::new(
        Arc::clone(&cluster),
        AutoscalerConfig {
            queue_depth_high: 4.0,
            scale_up_after: 2,
            cooldown_ticks: 0,
            ..AutoscalerConfig::default()
        },
    );
    // Six requests sit queued (batches need 8 to form, the stream is
    // busy, timeout is far).
    hold_streams(&cluster);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            cluster
                .submit("mlp-small", sample(i), None)
                .expect("queued")
        })
        .collect();
    assert_eq!(
        scaler.tick(),
        ScaleDecision::Hold,
        "first hot tick: hysteresis"
    );
    match scaler.tick() {
        ScaleDecision::ScaledUp { .. } => {}
        other => panic!("expected scale-up on second hot tick, got {other:?}"),
    }
    assert_eq!(cluster.replica_count(), 2);
    // At the max: further hot ticks hold.
    assert_eq!(scaler.tick(), ScaleDecision::Hold);
    assert_eq!(scaler.tick(), ScaleDecision::Hold);

    let end = cluster.shutdown();
    for handle in handles {
        assert!(matches!(handle.wait(), Outcome::Completed(_)));
    }
    assert_eq!(end.totals.unresolved(), 0);
}

#[test]
fn autoscaler_drains_idle_replicas_down_to_min() {
    let cluster = bounded_cluster(
        2,
        1,
        4,
        PlacementPolicy::LeastLoaded,
        ServeConfig::default(),
    );
    let mut scaler = Autoscaler::new(
        Arc::clone(&cluster),
        AutoscalerConfig {
            scale_down_after: 2,
            cooldown_ticks: 0,
            ..AutoscalerConfig::default()
        },
    );
    assert_eq!(
        scaler.tick(),
        ScaleDecision::Hold,
        "first cold tick: hysteresis"
    );
    match scaler.tick() {
        ScaleDecision::ScaledDown { .. } => {}
        other => panic!("expected scale-down on second cold tick, got {other:?}"),
    }
    assert_eq!(cluster.replica_count(), 1);
    // At the floor: stays there no matter how idle.
    assert_eq!(scaler.tick(), ScaleDecision::Hold);
    assert_eq!(scaler.tick(), ScaleDecision::Hold);
    assert_eq!(cluster.replica_count(), 1);

    let end = cluster.shutdown();
    assert!(
        end.retired.iter().any(|r| r.graceful),
        "scale-down drained gracefully"
    );
    assert_eq!(end.totals.unresolved(), 0);
}

#[test]
fn autoscaler_restores_the_floor_after_a_crash() {
    let cluster = cluster(1, PlacementPolicy::LeastLoaded, ServeConfig::default());
    let id = cluster.replicas()[0].id();
    cluster.kill_replica(id).expect("crash");
    assert!(matches!(
        cluster.submit("mlp-small", sample(0), None),
        Err(ClusterError::NoReplicas)
    ));

    let mut scaler = Autoscaler::new(Arc::clone(&cluster), AutoscalerConfig::default());
    match scaler.tick() {
        ScaleDecision::ScaledUp { .. } => {}
        other => panic!("below the floor must restore immediately, got {other:?}"),
    }
    assert_eq!(cluster.replica_count(), 1);
    let outcome = cluster
        .infer("mlp-small", sample(1))
        .expect("serving again");
    assert!(matches!(outcome, Outcome::Completed(_)));
    cluster.shutdown();
}

#[test]
fn storm_with_membership_churn_loses_nothing() {
    let cluster = cluster(2, PlacementPolicy::LeastLoaded, ServeConfig::default());
    let threads = 4;
    let per_thread = 40;
    let mut joins = Vec::new();
    for t in 0..threads {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let mut completed = 0u64;
            let mut terminal = 0u64;
            for i in 0..per_thread {
                match cluster.submit("mlp-small", sample((t * per_thread + i) as u64), None) {
                    Ok(handle) => {
                        terminal += 1;
                        if matches!(handle.wait(), Outcome::Completed(_)) {
                            completed += 1;
                        }
                    }
                    Err(ClusterError::AllBackpressured { .. } | ClusterError::NoReplicas) => {}
                    Err(other) => panic!("unexpected cluster error: {other}"),
                }
            }
            (terminal, completed)
        }));
    }
    // Mid-storm churn: crash one replica, then scale back up.
    std::thread::sleep(Duration::from_millis(30));
    let victim = cluster.replicas()[0].id();
    cluster.kill_replica(victim).expect("mid-storm crash");
    cluster.scale_up(1).expect("mid-storm scale-up");

    let mut accepted_waited = 0u64;
    for join in joins {
        let (terminal, _) = join.join().expect("storm thread");
        accepted_waited += terminal;
    }
    let end = cluster.shutdown();
    assert_eq!(
        end.totals.accepted, accepted_waited,
        "every Ok(handle) the callers hold is an accepted request"
    );
    assert_eq!(
        end.totals.unresolved(),
        0,
        "churn dropped requests: accepted {} resolved {}",
        end.totals.accepted,
        end.totals.resolved
    );
}
