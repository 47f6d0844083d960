//! End-to-end serving tests: the acceptance-criteria load test, batching
//! determinism, admission control, timing-only models, and an
//! exactly-once property test under concurrent submitters and shutdown.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use bolt::BoltConfig;
use bolt_serve::testing::{occupy_streams, test_arch};
use bolt_serve::{BoltServer, EngineRegistry, Outcome, RequestHandle, ServeConfig, ServeError};
use bolt_tensor::{DType, Tensor};

/// One registry shared by every test: engines are immutable, and sharing
/// the compiler means each (model, bucket) pair is tuned exactly once for
/// the whole suite.
fn shared_registry() -> Arc<EngineRegistry> {
    static REGISTRY: OnceLock<Arc<EngineRegistry>> = OnceLock::new();
    Arc::clone(REGISTRY.get_or_init(|| {
        let registry = Arc::new(EngineRegistry::new(test_arch(), BoltConfig::default()));
        registry
            .register_zoo("mlp-small", &[1, 2, 4, 8])
            .expect("mlp-small registers");
        registry
            .register_zoo("mlp-large", &[1, 2, 4, 8])
            .expect("mlp-large registers");
        registry
            .register_zoo("cnn-small", &[1, 2, 4])
            .expect("cnn-small registers");
        registry
    }))
}

fn sample(model: &str, seed: u64) -> Vec<Tensor> {
    let dims: Vec<usize> = match model {
        "mlp-small" => vec![1, 128],
        "mlp-large" => vec![1, 256],
        "cnn-small" => vec![1, 3, 8, 8],
        other => panic!("unexpected model {other}"),
    };
    vec![Tensor::randn(&dims, DType::F16, seed)]
}

/// The ISSUE acceptance test: 4 workers, `max_batch` 8, 1,000 concurrent
/// requests against two registered models — every request reaches a
/// terminal outcome, dynamic batching achieves mean batch size > 2 under
/// saturating load, and deadline-shed requests are observed and counted.
#[test]
fn thousand_concurrent_requests_batch_and_resolve() {
    let server = Arc::new(
        BoltServer::start(
            shared_registry(),
            ServeConfig {
                workers: 4,
                max_batch: 8,
                batch_timeout: Duration::from_millis(20),
                queue_capacity: 2048,
                ..Default::default()
            },
        )
        .expect("valid serve config"),
    );

    let models = ["mlp-small", "mlp-large"];
    let submitters = 8;
    let per_thread = 125; // 8 × 125 = 1,000
    let handles: Vec<RequestHandle> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..submitters)
            .map(|t| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let model = models[(t + i) % models.len()];
                            server
                                .submit(model, sample(model, (t * per_thread + i) as u64), None)
                                .expect("queue capacity covers the full load")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("submitter"))
            .collect()
    });
    assert_eq!(handles.len(), 1000);

    // While the queues are still deep, lob in already-late requests: the
    // batcher must shed them at formation time, never execute them.
    let shed_handles: Vec<RequestHandle> = (0..10)
        .map(|i| {
            server
                .submit(
                    "mlp-small",
                    sample("mlp-small", 5000 + i),
                    Some(Duration::ZERO),
                )
                .expect("shed candidates are admitted")
        })
        .collect();

    for handle in &handles {
        match handle.wait() {
            Outcome::Completed(response) => {
                assert!(response.batch_size >= 1 && response.batch_size <= 8);
                assert!(response.bucket >= response.batch_size);
                let outputs = response.outputs.expect("serving MLPs run functionally");
                assert_eq!(outputs.len(), 1);
                assert_eq!(outputs[0].shape().dims(), &[1, 10]);
                assert!(response.latency.total_us > 0.0);
            }
            other => panic!("load request must complete, got {other:?}"),
        }
    }
    let mut shed_seen = 0;
    for handle in &shed_handles {
        match handle.wait() {
            Outcome::DeadlineExceeded { .. } => shed_seen += 1,
            Outcome::Completed(_) => {} // raced formation before its scan
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(shed_seen > 0, "at least one already-late request is shed");

    let stats = server_arc_shutdown(server);
    assert_eq!(stats.accepted, 1010);
    assert_eq!(stats.resolved(), stats.accepted, "every request terminal");
    assert_eq!(stats.completed, 1000 + (10 - shed_seen) as u64);
    assert_eq!(stats.deadline_shed, shed_seen as u64);
    assert!(
        stats.mean_batch > 2.0,
        "saturating load must batch: mean batch {}",
        stats.mean_batch
    );
    assert!(stats.latency_p99_us >= stats.latency_p50_us);
    assert!(stats.sim_images_per_sec > 0.0);
}

fn server_arc_shutdown(server: Arc<BoltServer>) -> bolt_serve::MetricsSnapshot {
    Arc::try_unwrap(server)
        .expect("all submitters joined")
        .shutdown()
}

/// Occupies the one simulated stream of a single-worker `server`,
/// returning how many ballast batches of 1 that took.
fn hold_stream(server: &BoltServer) -> u64 {
    occupy_streams(server.registry(), 1, |model, inputs| {
        server
            .submit(model, inputs, None)
            .expect("ballast admitted")
    })
}

/// Batch formation is driven by `max_batch` (a full batch dispatches
/// immediately) and `batch_timeout` (while the stream is busy, a partial
/// batch waits the timeout out before dispatching).
#[test]
fn batch_formation_respects_max_batch_and_timeout() {
    // Full batch: forms the moment 4 requests wait, long before the
    // generous 2 s timeout.
    let server = BoltServer::start(
        shared_registry(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            batch_timeout: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .expect("valid serve config");
    let held = hold_stream(&server);
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit("mlp-small", sample("mlp-small", i), None)
                .expect("submit")
        })
        .collect();
    for handle in &handles {
        assert!(handle.wait().is_completed());
    }
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "a full batch must not wait for the timeout"
    );
    let stats = server.shutdown();
    assert_eq!(stats.batch_hist, vec![(1, held), (4, 1)]);

    // Partial batch: two requests cannot fill max_batch, so behind a
    // busy stream they dispatch only once the oldest has waited out the
    // timeout.
    let timeout = Duration::from_millis(150);
    let server = BoltServer::start(
        shared_registry(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            batch_timeout: timeout,
            ..Default::default()
        },
    )
    .expect("valid serve config");
    let held = hold_stream(&server);
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..2)
        .map(|i| {
            server
                .submit("mlp-small", sample("mlp-small", 10 + i), None)
                .expect("submit")
        })
        .collect();
    for handle in &handles {
        assert!(handle.wait().is_completed());
    }
    assert!(
        start.elapsed() >= Duration::from_millis(100),
        "a partial batch must wait for the batch timeout"
    );
    let stats = server.shutdown();
    assert_eq!(
        stats.batch_hist,
        vec![(1, held), (2, 1)],
        "one batch of 2, not 1+1"
    );
}

/// Work-conserving dispatch: on an idle server a lone request leaves on
/// the free stream at once instead of waiting out `batch_timeout` for
/// company that is not coming.
#[test]
fn idle_server_dispatches_a_lone_request_without_waiting_for_the_timeout() {
    let server = BoltServer::start(
        shared_registry(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            batch_timeout: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .expect("valid serve config");
    let start = std::time::Instant::now();
    let outcome = server
        .submit("mlp-small", sample("mlp-small", 20), None)
        .expect("submit")
        .wait();
    let elapsed = start.elapsed();
    match outcome {
        Outcome::Completed(response) => assert_eq!(response.batch_size, 1),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(100),
        "a lone request on an idle server took {elapsed:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.batch_hist, vec![(1, 1)]);
}

/// While every stream is busy a free worker is not an idle stream:
/// partial batches keep waiting out the timeout and batch together.
#[test]
fn busy_streams_still_hold_partial_batches_together() {
    let timeout = Duration::from_millis(100);
    let server = BoltServer::start(
        shared_registry(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            batch_timeout: timeout,
            ..Default::default()
        },
    )
    .expect("valid serve config");
    let held = hold_stream(&server);
    // Two rounds: the worker is back on the hand-off between them, but
    // its stream is still busy with the ballast, so each round waits.
    for round in 0..2u64 {
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                server
                    .submit("mlp-small", sample("mlp-small", 30 + 3 * round + i), None)
                    .expect("submit")
            })
            .collect();
        for handle in &handles {
            match handle.wait() {
                Outcome::Completed(response) => {
                    assert_eq!(response.batch_size, 3);
                    assert!(
                        response.latency.queue_us >= bolt_serve::testing::BALLAST_MIN_US / 2.0,
                        "the batch queued behind the ballast on the stream"
                    );
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(
            start.elapsed() >= timeout,
            "round {round} waited the timeout"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.batch_hist, vec![(1, held), (3, 2)]);
}

#[test]
fn admission_control_rejects_fast_and_counts() {
    let server = BoltServer::start(
        shared_registry(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            // With the stream held busy, the queue never drains during
            // the submissions below.
            batch_timeout: Duration::from_secs(10),
            queue_capacity: 3,
            ..Default::default()
        },
    )
    .expect("valid serve config");
    hold_stream(&server);

    assert!(matches!(
        server.submit("no-such-model", sample("mlp-small", 0), None),
        Err(ServeError::UnknownModel { .. })
    ));
    assert!(matches!(
        server.submit(
            "mlp-small",
            vec![Tensor::randn(&[1, 7], DType::F16, 0)],
            None
        ),
        Err(ServeError::InvalidInput { .. })
    ));

    // Fill the bounded queue, then watch backpressure kick in.
    let held: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit("mlp-small", sample("mlp-small", i), None)
                .expect("fits in queue")
        })
        .collect();
    assert!(matches!(
        server.submit("mlp-small", sample("mlp-small", 9), None),
        Err(ServeError::QueueFull { capacity: 3, .. })
    ));

    let stats = server.shutdown();
    assert_eq!(stats.rejected_unknown_model, 1);
    assert_eq!(stats.rejected_invalid_input, 1);
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.rejected, 3);
    // Graceful drain still completes the held requests.
    for handle in held {
        assert!(handle.wait().is_completed());
    }
}

/// Shapes-only zoo graphs cannot run functionally; the server still
/// serves them, pricing batches on the simulator (outputs `None`).
#[test]
fn timing_only_models_serve_without_outputs() {
    let registry = Arc::new(EngineRegistry::new(test_arch(), BoltConfig::default()));
    let model = registry
        .register_with("dlrm-bottom", &[1, 2], |batch| {
            bolt_models::mlp::dlrm_bottom_mlp(batch, &[64, 32, 8])
        })
        .expect("register");
    assert!(!model.functional(), "shapes-only graphs are timing-only");

    let server = BoltServer::start(registry, ServeConfig::default()).expect("valid serve config");
    match server
        .infer("dlrm-bottom", vec![Tensor::randn(&[1, 64], DType::F16, 1)])
        .expect("admitted")
    {
        Outcome::Completed(response) => {
            assert!(response.outputs.is_none());
            assert!(response.latency.kernel_us > 0.0);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
}

/// The CNN zoo entry serves end to end — conv, pad, layout-transform,
/// and host steps all run through the shared plan executor — and the
/// plan's step observer surfaces per-kernel latency attribution plus the
/// planned workspace in the metrics snapshot.
#[test]
fn cnn_serves_with_kernel_attribution_and_workspace() {
    let server =
        BoltServer::start(shared_registry(), ServeConfig::default()).expect("valid serve config");
    for i in 0..4 {
        match server
            .infer("cnn-small", sample("cnn-small", 100 + i))
            .expect("admitted")
        {
            Outcome::Completed(response) => {
                let outputs = response.outputs.expect("cnn-small runs functionally");
                assert_eq!(outputs.len(), 1);
                assert_eq!(outputs[0].shape().dims(), &[1, 10]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 4);

    // Per-kernel attribution: every batch's simulated time is broken
    // down by step name, sorted descending by total time.
    assert!(!stats.kernel_stats.is_empty());
    assert!(
        stats.kernel_stats.iter().any(|k| k.name.contains("conv2d")),
        "conv kernels appear in the attribution: {:?}",
        stats.kernel_stats
    );
    for pair in stats.kernel_stats.windows(2) {
        assert!(pair[0].total_us >= pair[1].total_us, "sorted descending");
    }
    for stat in &stats.kernel_stats {
        assert!(stat.launches > 0);
        assert!(stat.mean_us > 0.0);
    }
    let total_attributed: f64 = stats.kernel_stats.iter().map(|k| k.total_us).sum();
    assert!(total_attributed > 0.0);

    // The snapshot reports each model's planned peak workspace.
    let cnn_ws = stats
        .model_workspace
        .iter()
        .find(|(name, _)| name == "cnn-small")
        .map(|(_, ws)| *ws)
        .expect("cnn-small workspace reported");
    assert!(cnn_ws > 0, "planned workspace is positive");
}

#[test]
fn submissions_after_shutdown_are_rejected() {
    let server =
        BoltServer::start(shared_registry(), ServeConfig::default()).expect("valid serve config");
    let ok = server
        .submit("mlp-small", sample("mlp-small", 1), None)
        .expect("accepted while running");
    assert!(ok.wait().is_completed());
    // Dropping shuts the server down; a second server on the same
    // registry proves engines outlive individual servers.
    drop(server);
    let server =
        BoltServer::start(shared_registry(), ServeConfig::default()).expect("valid serve config");
    assert!(server
        .infer("mlp-small", sample("mlp-small", 2))
        .expect("fresh server accepts")
        .is_completed());
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exactly-once: under random worker counts, batch limits, concurrent
    /// submitters, deadlines, and a shutdown racing the submitters, every
    /// accepted request resolves to exactly one terminal outcome and the
    /// metrics agree with the observed outcomes.
    #[test]
    fn every_accepted_request_resolves_exactly_once(
        workers in 1usize..4,
        max_batch in 1usize..9,
        submitters in 1usize..4,
        per_thread in 1usize..25,
        timeout_ms in 1u64..10,
    ) {
        let server = Arc::new(BoltServer::start(
            shared_registry(),
            ServeConfig {
                workers,
                max_batch,
                batch_timeout: Duration::from_millis(timeout_ms),
                queue_capacity: 64,
                ..Default::default()
            },
        ).expect("valid serve config"));

        let mut accepted: Vec<RequestHandle> = Vec::new();
        let mut admission_rejected = 0u64;
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..submitters)
                .map(|t| {
                    let server = Arc::clone(&server);
                    scope.spawn(move || {
                        let mut ok = Vec::new();
                        let mut rejected = 0u64;
                        for i in 0..per_thread {
                            let deadline = if i % 3 == 0 {
                                Some(Duration::ZERO)
                            } else {
                                None
                            };
                            let model = if i % 2 == 0 { "mlp-small" } else { "mlp-large" };
                            let seed = (t * per_thread + i) as u64;
                            match server.submit(model, sample(model, seed), deadline) {
                                Ok(handle) => ok.push(handle),
                                Err(ServeError::QueueFull { .. })
                                | Err(ServeError::ShuttingDown) => rejected += 1,
                                Err(other) => panic!("unexpected admission error {other}"),
                            }
                        }
                        (ok, rejected)
                    })
                })
                .collect();
            for thread in threads {
                let (ok, rejected) = thread.join().expect("submitter");
                accepted.extend(ok);
                admission_rejected += rejected;
            }
        });

        let stats = Arc::try_unwrap(server)
            .expect("submitters joined")
            .shutdown();

        let mut completed = 0u64;
        let mut shed = 0u64;
        for handle in &accepted {
            match handle.try_wait() {
                Some(Outcome::Completed(_)) => completed += 1,
                Some(Outcome::DeadlineExceeded { .. }) => shed += 1,
                Some(Outcome::Rejected { reason }) => {
                    panic!("no execution failure expected: {reason}")
                }
                None => panic!("accepted request left unresolved after drain"),
            }
        }
        prop_assert_eq!(stats.accepted, accepted.len() as u64);
        prop_assert_eq!(stats.completed, completed);
        prop_assert_eq!(stats.deadline_shed, shed);
        prop_assert_eq!(stats.resolved(), stats.accepted);
        prop_assert_eq!(
            stats.rejected_queue_full + stats.rejected_shutting_down,
            admission_rejected
        );
        prop_assert_eq!(
            stats.submitted,
            accepted.len() as u64 + admission_rejected
        );
    }
}
