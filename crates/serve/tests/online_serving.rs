//! End-to-end acceptance tests for online tuning (ISSUE 4): a server
//! started with **zero** precompiled buckets serves a stream of unseen
//! batch sizes — every request reaches a terminal outcome, the earliest
//! responses ride the fallback path, and once the background tuner
//! catches up identical requests run on tuned engines with strictly
//! lower simulated latency. A restart against the persisted autotune
//! cache then re-creates the same engines without measuring anything
//! (`tuning_seconds == 0`).

use std::sync::Arc;
use std::time::Duration;

use bolt::BoltConfig;
use bolt_models::zoo::sample_inputs;
use bolt_serve::testing::{occupy_streams, test_arch};
use bolt_serve::{
    BoltServer, EngineRegistry, InferResponse, OnlineConfig, Outcome, RequestHandle, ServeConfig,
};
use bolt_tensor::Tensor;

fn sample(seed: u64) -> Vec<Tensor> {
    sample_inputs("mlp-large", seed).expect("zoo model")
}

fn online_server(registry: &Arc<EngineRegistry>) -> BoltServer {
    BoltServer::start(
        Arc::clone(registry),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            batch_timeout: Duration::from_millis(1),
            online: Some(OnlineConfig::default()),
            ..Default::default()
        },
    )
    .expect("valid serve config")
}

fn completed(outcome: Outcome) -> InferResponse {
    match outcome {
        Outcome::Completed(response) => response,
        other => panic!("request must complete, got {other:?}"),
    }
}

/// The ISSUE acceptance scenario, both halves: cold start converging to
/// tuned engines, then a warm restart off the persisted cache.
#[test]
fn cold_server_serves_unseen_shapes_and_converges_to_tuned_engines() {
    let dir = std::env::temp_dir().join(format!("bolt-online-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("autotune.tune");
    let registry = || {
        let reg = Arc::new(EngineRegistry::new(
            test_arch(),
            BoltConfig {
                cache_path: Some(cache.clone()),
                ..BoltConfig::default()
            },
        ));
        // Zero precompiled buckets: every shape this test serves is
        // unseen by construction.
        reg.register_zoo_dynamic("mlp-large").expect("register");
        reg
    };

    // ---- Phase 1: cold start. ----
    let reg = registry();
    assert_eq!(reg.get("mlp-large").unwrap().max_batch(), 0);
    let server = online_server(&reg);

    // The very first request cannot have a tuned engine; it must still
    // complete — served on the heuristic default-config fallback.
    let first = completed(server.infer("mlp-large", sample(0)).expect("admitted"));
    assert!(first.fallback, "first response rides the fallback path");
    assert_eq!(first.batch_size, 1);
    let outputs = first.outputs.as_ref().expect("mlp-large runs functionally");
    assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    let fallback_kernel_us = first.latency.kernel_us;
    assert!(fallback_kernel_us > 0.0);

    // A stream of unseen batch sizes: waves of concurrent submissions so
    // the batcher forms multi-request batches that miss, split, and pad.
    let mut handles: Vec<RequestHandle> = Vec::new();
    for (wave, count) in [2usize, 3, 5, 8, 3].into_iter().enumerate() {
        for i in 0..count {
            handles.push(
                server
                    .submit("mlp-large", sample((wave * 100 + i) as u64), None)
                    .expect("admitted"),
            );
        }
    }
    for handle in &handles {
        let response = completed(handle.wait());
        let outputs = response.outputs.expect("functional outputs");
        assert_eq!(outputs[0].shape().dims(), &[1, 10]);
        assert!(response.launches >= 1);
        assert!(response.latency.total_us > 0.0);
    }

    // Let the background tuner drain, then replay the first request:
    // identical input, now on a tuned engine, strictly faster.
    assert!(
        server.online().unwrap().wait_idle(Duration::from_secs(120)),
        "background compiles drain"
    );
    let replay = completed(server.infer("mlp-large", sample(0)).expect("admitted"));
    assert!(!replay.fallback, "replay is served by a tuned engine");
    assert_eq!(replay.launches, 1);
    assert!(
        replay.latency.kernel_us < fallback_kernel_us,
        "tuned engine must be strictly faster: tuned {} vs fallback {}",
        replay.latency.kernel_us,
        fallback_kernel_us
    );

    let stats = server.shutdown();
    assert_eq!(stats.resolved(), stats.accepted, "every request terminal");
    assert_eq!(stats.rejected_execution, 0);
    let online = stats.online.expect("online counters present");
    assert!(online.fallback_served >= 1);
    assert!(online.compiles_completed >= 1);
    assert_eq!(online.compiles_failed, 0);
    assert_eq!(online.hot_swaps, online.compiles_completed);
    assert!(
        online.tuning_seconds > 0.0,
        "cold compiles must charge simulated tuning time"
    );
    assert_eq!(online.compile_queue_depth, 0);
    assert!(cache.exists(), "autotune cache persisted after compiles");
    let tuned_buckets = reg.get("mlp-large").unwrap().bucket_sizes();
    assert!(
        tuned_buckets.contains(&1),
        "bucket 1 tuned online: {tuned_buckets:?}"
    );

    // ---- Phase 2: warm restart against the persisted cache. ----
    let reg = registry();
    assert_eq!(
        reg.get("mlp-large").unwrap().max_batch(),
        0,
        "the restart also begins with zero compiled engines"
    );
    let server = online_server(&reg);
    let warm_first = completed(server.infer("mlp-large", sample(0)).expect("admitted"));
    assert!(warm_first.fallback, "engines are still compiled on demand");
    assert!(server.online().unwrap().wait_idle(Duration::from_secs(120)));
    let warm_replay = completed(server.infer("mlp-large", sample(0)).expect("admitted"));
    assert!(!warm_replay.fallback);
    assert_eq!(
        warm_replay.latency.kernel_us, replay.latency.kernel_us,
        "the cache reproduces the same tuned engine"
    );
    let online = server.shutdown().online.expect("online counters");
    assert!(online.compiles_completed >= 1);
    assert_eq!(
        online.tuning_seconds, 0.0,
        "every workload comes warm from the persisted cache: nothing is measured"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a batch larger than every compiled bucket is split
/// explicitly across repeated launches (never silently truncated), the
/// split is counted in the metrics, and the background tuner compiles
/// the quantized bucket so later batches run in one launch.
#[test]
fn oversized_batches_split_explicitly_and_count_overflow() {
    let reg = Arc::new(EngineRegistry::new(test_arch(), BoltConfig::default()));
    reg.register_zoo("mlp-small", &[2]).expect("register");
    let server = BoltServer::start(
        Arc::clone(&reg),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            // Long enough that all six submissions below join one batch
            // while the stream is busy.
            batch_timeout: Duration::from_millis(200),
            online: Some(OnlineConfig::default()),
            ..Default::default()
        },
    )
    .expect("valid serve config");
    let held = occupy_streams(&reg, 1, |model, inputs| {
        server
            .submit(model, inputs, None)
            .expect("ballast admitted")
    });

    let sample = |seed: u64| sample_inputs("mlp-small", seed).expect("zoo model");
    let handles: Vec<RequestHandle> = (0..6)
        .map(|i| {
            server
                .submit("mlp-small", sample(i), None)
                .expect("admitted")
        })
        .collect();
    for handle in &handles {
        let response = completed(handle.wait());
        assert_eq!(response.batch_size, 6, "all six share one batch");
        assert_eq!(response.bucket, 2, "largest compiled bucket");
        assert_eq!(response.launches, 3, "ceil(6/2) explicit launches");
        assert!(response.fallback);
        let outputs = response.outputs.expect("split batches still compute");
        assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    }

    assert!(server.online().unwrap().wait_idle(Duration::from_secs(120)));
    assert!(
        reg.get("mlp-small").unwrap().has_bucket(8),
        "the overflow's quantized bucket is tuned in the background"
    );
    let stats = server.shutdown();
    assert!(stats.batch_overflow >= 1, "split batches are counted");
    assert_eq!(stats.completed, 6 + held);
}

/// A zero-bucket dynamic model with online tuning *disabled* is
/// unservable: every submit is rejected fast with
/// [`bolt_serve::ServeError::NoEngine`], counted in
/// `rejected_no_engine`, and never enters the queues. Enabling online
/// tuning on the identical registry makes the same submit admissible.
#[test]
fn zero_bucket_model_without_online_tuning_rejects_and_counts() {
    let reg = Arc::new(EngineRegistry::new(test_arch(), BoltConfig::default()));
    reg.register_zoo_dynamic("mlp-large").expect("register");

    let server = BoltServer::start(
        Arc::clone(&reg),
        ServeConfig {
            online: None,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    for seed in 0..3 {
        let err = server.submit("mlp-large", sample(seed), None).unwrap_err();
        assert!(
            matches!(err, bolt_serve::ServeError::NoEngine { .. }),
            "got {err:?}"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.rejected_no_engine, 3);
    assert_eq!(stats.completed, 0);
    assert_eq!(
        stats.resolved(),
        0,
        "rejected-at-admission requests never enter the resolution pipeline"
    );

    // Same registry, online tuning on: the submit is admissible and the
    // request completes on the heuristic fallback path.
    let server = online_server(&reg);
    let outcome = server
        .submit("mlp-large", sample(7), None)
        .expect("admitted with online tuning")
        .wait();
    let response = completed(outcome);
    assert!(response.fallback);
    let stats = server.shutdown();
    assert_eq!(stats.rejected_no_engine, 0);
    assert_eq!(stats.completed, 1);
}
