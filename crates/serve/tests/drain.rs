//! Drain, gauge, and configuration-validation acceptance tests: the
//! invariants the cluster layer's autoscaler and router build on.
//!
//! - graceful drain resolves every accepted request exactly once
//!   (completed or rejected, never dropped);
//! - the live `queue_depth`/`inflight` gauges track load and return to
//!   zero after drain;
//! - a degenerate [`ServeConfig`] is rejected at construction with a
//!   typed [`ServeError::Config`] instead of panicking or hanging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bolt::BoltConfig;
use bolt_serve::testing::{occupy_streams, test_arch};
use bolt_serve::{BoltServer, EngineRegistry, Outcome, ServeConfig, ServeError};
use bolt_tensor::{DType, Tensor};

fn registry() -> Arc<EngineRegistry> {
    let reg = Arc::new(EngineRegistry::new(test_arch(), BoltConfig::default()));
    // Heuristic engines: fast to build, and engine quality is irrelevant
    // to drain semantics.
    reg.register_zoo_dynamic("mlp-small").expect("register");
    for bucket in [1usize, 2, 4, 8] {
        let engine = reg
            .compile_heuristic_bucket("mlp-small", bucket)
            .expect("heuristic compile");
        reg.insert_bucket("mlp-small", bucket, engine)
            .expect("install");
    }
    reg
}

fn sample(seed: u64) -> Vec<Tensor> {
    vec![Tensor::randn(&[1, 128], DType::F16, seed)]
}

/// Occupies the one simulated stream of a single-worker `server`, so
/// partial batches wait out `batch_timeout`; returns how many ballast
/// requests that took.
fn hold_stream(server: &BoltServer) -> u64 {
    occupy_streams(server.registry(), 1, |model, inputs| {
        server
            .submit(model, inputs, None)
            .expect("ballast admitted")
    })
}

#[test]
fn graceful_drain_resolves_every_accepted_request_exactly_once() {
    let server = Arc::new(
        BoltServer::start(
            registry(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("valid serve config"),
    );

    // Concurrent submitters, with the drain racing the tail of the storm:
    // some requests are in queues, some in formed batches, some on
    // streams when accepting flips off.
    let outcomes = Arc::new([
        AtomicU64::new(0), // completed
        AtomicU64::new(0), // rejected
        AtomicU64::new(0), // deadline exceeded
    ]);
    let mut joins = Vec::new();
    let mut accepted = 0u64;
    let mut handles = Vec::new();
    for i in 0..300u64 {
        match server.submit("mlp-small", sample(i), None) {
            Ok(handle) => {
                accepted += 1;
                handles.push(handle);
            }
            Err(ServeError::QueueFull { .. }) => {}
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    for handle in handles {
        let outcomes = Arc::clone(&outcomes);
        joins.push(std::thread::spawn(move || {
            let index = match handle.wait() {
                Outcome::Completed(_) => 0,
                Outcome::Rejected { .. } => 1,
                Outcome::DeadlineExceeded { .. } => 2,
            };
            outcomes[index].fetch_add(1, Ordering::Relaxed);
        }));
    }

    let server = Arc::try_unwrap(server).ok();
    let stats = match server {
        Some(server) => server.shutdown(),
        None => unreachable!("all clones dropped"),
    };
    for join in joins {
        join.join().expect("waiter");
    }

    let terminal: u64 = outcomes.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(
        terminal, accepted,
        "every accepted request reached exactly one terminal outcome"
    );
    assert_eq!(
        stats.resolved(),
        stats.accepted,
        "server accounting agrees: resolved == accepted after drain"
    );
    assert_eq!(stats.worker_panics, 0, "no double-resolution panics");
    assert_eq!(
        stats.queue_depth, 0,
        "queue gauge returns to zero after drain"
    );
    assert_eq!(
        stats.inflight, 0,
        "inflight gauge returns to zero after drain"
    );
}

#[test]
fn gauges_show_live_load_and_zero_after_drain() {
    // Batches form only at 8, the stream is busy and the timeout is far
    // away: submitted requests sit in the queue where the gauge can see
    // them.
    let server = BoltServer::start(
        registry(),
        ServeConfig {
            workers: 1,
            batch_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    hold_stream(&server);

    let handles: Vec<_> = (0..3)
        .map(|i| server.submit("mlp-small", sample(i), None).expect("queued"))
        .collect();
    let load = server.load();
    assert_eq!(load.queue_depth, 3, "queued work is visible live");
    assert_eq!(load.outstanding(), 3);

    let stats = server.shutdown();
    for handle in handles {
        assert!(matches!(handle.wait(), Outcome::Completed(_)));
    }
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.resolved(), stats.accepted);
}

#[test]
fn abort_rejects_queued_work_instead_of_executing_it() {
    let server = BoltServer::start(
        registry(),
        ServeConfig {
            workers: 1,
            batch_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    let held = hold_stream(&server);
    let handles: Vec<_> = (0..5)
        .map(|i| server.submit("mlp-small", sample(i), None).expect("queued"))
        .collect();
    let stats = server.abort();
    assert_eq!(stats.accepted, 5 + held);
    assert_eq!(
        stats.resolved(),
        5 + held,
        "abort still resolves everything"
    );
    assert_eq!(stats.completed, held, "nothing but the ballast executed");
    for handle in handles {
        assert!(matches!(handle.wait(), Outcome::Rejected { .. }));
    }
}

#[test]
fn degenerate_configs_are_rejected_with_typed_errors() {
    let cases = [
        (
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            "workers",
        ),
        (
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            "max_batch",
        ),
        (
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            "queue_capacity",
        ),
        (
            ServeConfig {
                batch_timeout: Duration::ZERO,
                default_deadline: None,
                ..ServeConfig::default()
            },
            "batch_timeout",
        ),
    ];
    for (config, expect) in cases {
        match BoltServer::start(registry(), config) {
            Err(ServeError::Config { reason }) => assert!(
                reason.contains(expect),
                "reason {reason:?} should name {expect}"
            ),
            other => panic!("expected Config error naming {expect}, got {other:?}"),
        }
    }

    // Zero timeout WITH a deadline is legal: the deadline bounds waits.
    let ok = BoltServer::start(
        registry(),
        ServeConfig {
            batch_timeout: Duration::ZERO,
            default_deadline: Some(Duration::from_secs(1)),
            ..ServeConfig::default()
        },
    );
    assert!(ok.is_ok(), "zero timeout with a deadline is valid");
    drop(ok);
}
