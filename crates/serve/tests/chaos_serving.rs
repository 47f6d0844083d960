//! Chaos acceptance tests (ISSUE 5): drive the serving stack through a
//! seeded fault schedule — compile failures, worker panics and kills,
//! tuner kills, slow batches, and a pre-corrupted autotune cache — and
//! assert the hardening holds: **zero lost or hung requests**, every
//! failure surfaced as a typed error or a degraded response, all
//! workers and tuners alive at drain, and the corrupt cache quarantined
//! and rebuilt on disk. The schedule is a pure function of the seed
//! (`BOLT_CHAOS_SEED`, default 42), so a failing run reproduces
//! bit-for-bit.
//!
//! Run with: `cargo test -p bolt-serve --features chaos`
#![cfg(feature = "chaos")]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bolt::faults::{self, ChaosConfig, FaultSite};
use bolt::BoltConfig;
use bolt_models::zoo::sample_inputs;
use bolt_serve::testing::test_arch;
use bolt_serve::{
    BoltServer, EngineRegistry, OnlineConfig, OnlineEngineManager, Outcome, ServeConfig,
};

/// The fault plan is process-global, and every test here has a phase
/// that must run fault-free after its own plan is dropped (recovery, the
/// half-open probe) while its tuner threads are still compiling. Tests
/// in this file therefore run one at a time, so no test's plan fires
/// into another's fault-free phase.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_seed() -> u64 {
    std::env::var("BOLT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bolt-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dynamic_registry(cache: Option<std::path::PathBuf>) -> Arc<EngineRegistry> {
    let reg = Arc::new(EngineRegistry::new(
        test_arch(),
        BoltConfig {
            cache_path: cache,
            ..BoltConfig::default()
        },
    ));
    reg.register_zoo_dynamic("mlp-small").expect("register");
    reg
}

/// The ISSUE acceptance scenario: 500 requests against a cold dynamic
/// server while the fault plan injects 30% compile failures, a worker
/// panic mid-batch, worker and tuner kills between batches, slow
/// batches, and the autotune cache starts out corrupted on disk.
#[test]
fn serving_survives_seeded_fault_storm_with_zero_lost_requests() {
    let _serial = serial();
    let seed = chaos_seed();
    let dir = scratch_dir("storm");
    let cache = dir.join("autotune.tune");
    // (c) A corrupted cache file is already on disk at warm-start.
    std::fs::write(&cache, b"bolt-autotune-cache v2 arch=sm75\ngarbage entry\n").unwrap();

    let reg = dynamic_registry(Some(cache.clone()));
    let guard = faults::install(ChaosConfig {
        seed,
        // (a) 30% of profiled compiles fail with a typed injected error.
        compile_fail_ratio: 0.3,
        // (b) One worker panic mid-batch, isolated by catch_unwind.
        batch_panics: vec![2],
        // Thread deaths between batches/compiles: the supervisors respawn.
        worker_kills: vec![5],
        tuner_kills: vec![1],
        // A sprinkle of slow batches, to age queues realistically.
        batch_stall_ratio: 0.05,
        batch_stall: Duration::from_micros(200),
        ..ChaosConfig::default()
    });

    let server = Arc::new(
        BoltServer::start(
            Arc::clone(&reg),
            ServeConfig {
                workers: 2,
                max_batch: 8,
                batch_timeout: Duration::from_millis(1),
                queue_capacity: 1024,
                online: Some(OnlineConfig {
                    tuner_threads: 2,
                    retry_backoff: Duration::from_millis(5),
                    retry_backoff_max: Duration::from_millis(50),
                    breaker_threshold: 4,
                    breaker_cooldown: Duration::from_millis(20),
                    ..OnlineConfig::default()
                }),
                ..Default::default()
            },
        )
        .expect("valid serve config"),
    );

    const REQUESTS: usize = 500;
    let handles: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    (0..REQUESTS / 4)
                        .map(|i| {
                            let seed = (t * 1000 + i) as u64;
                            server
                                .submit(
                                    "mlp-small",
                                    sample_inputs("mlp-small", seed).unwrap(),
                                    None,
                                )
                                .expect("admission never fails under this load")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });

    // Zero hung requests: every handle reaches a terminal outcome in
    // bounded time, and every non-completion is a *typed* failure.
    let (mut completed, mut rejected) = (0u64, 0u64);
    for handle in &handles {
        match handle
            .wait_timeout(Duration::from_secs(120))
            .expect("request must not hang under faults")
        {
            Outcome::Completed(_) => completed += 1,
            Outcome::Rejected { reason } => {
                assert!(
                    reason.contains("panic isolated") || reason.contains("injected fault"),
                    "rejections under chaos carry the injected cause, got: {reason}"
                );
                rejected += 1;
            }
            Outcome::DeadlineExceeded { .. } => {
                panic!("no deadlines were set, none may be exceeded")
            }
        }
    }
    assert_eq!(completed + rejected, REQUESTS as u64, "zero lost requests");
    assert!(
        completed >= (REQUESTS as u64) * 9 / 10,
        "only the injected batch panic may reject; got {rejected} rejections"
    );

    // The tuner pool survives the storm and still converges: every
    // compile failure retries (backoff) until the key lands.
    let manager = server.online().expect("online mode");
    assert!(
        manager.wait_idle(Duration::from_secs(300)),
        "tuners drain even with 30% compile failures"
    );

    // Every injected fault was predicted by the pure schedule: the same
    // seed reproduces the same (site, occurrence) -> action mapping.
    let replayed = ChaosConfig {
        seed,
        compile_fail_ratio: 0.3,
        batch_panics: vec![2],
        worker_kills: vec![5],
        tuner_kills: vec![1],
        batch_stall_ratio: 0.05,
        batch_stall: Duration::from_micros(200),
        ..ChaosConfig::default()
    };
    let events = guard.events();
    assert!(!events.is_empty(), "the storm must have injected something");
    for event in &events {
        assert!(
            replayed.fires(event.site, event.occurrence),
            "event {event:?} must replay from the seed alone"
        );
    }
    let injected_compile_failures = events
        .iter()
        .filter(|e| e.site == FaultSite::Compile)
        .count() as u64;
    drop(guard); // Uninstall: the recovery below runs fault-free.

    // Self-healing: with the plan gone, re-requesting every key still in
    // `Failed` (once its backoff elapses) recompiles it successfully —
    // the whole engine set recovers.
    let recovery_deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let snap = manager.snapshot();
        if snap.failed_buckets.is_empty() && snap.tripped_models.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < recovery_deadline,
            "keys must recover once faults stop: {:?}",
            snap.failed_buckets
        );
        std::thread::sleep(Duration::from_millis(25));
        let engines = reg.get("mlp-small").unwrap();
        for failed in &snap.failed_buckets {
            let _ = manager.acquire(&engines, failed.bucket);
        }
        if snap.failed_buckets.is_empty() {
            // Breaker still cooling down with no failed key to retry:
            // any miss-free acquire keeps the clock moving until the
            // half-open probe can fire.
            let _ = manager.acquire(&engines, 1);
        }
        assert!(manager.wait_idle(Duration::from_secs(60)));
    }

    // The stack is healthy after the storm: a fresh request completes,
    // workers and tuners are alive (restart counters prove the deaths
    // happened *and* were recovered).
    match server
        .infer("mlp-small", sample_inputs("mlp-small", 9999).unwrap())
        .expect("server accepts after the storm")
    {
        Outcome::Completed(_) => {}
        other => panic!("post-storm request must complete, got {other:?}"),
    }

    let stats = Arc::try_unwrap(server).expect("clients joined").shutdown();
    assert_eq!(
        stats.resolved(),
        stats.accepted,
        "every accepted request is terminal at drain"
    );
    assert!(stats.worker_panics >= 1, "the batch panic was recorded");
    assert!(
        stats.worker_restarts >= 1,
        "the killed worker was respawned"
    );
    let online = stats.online.expect("online counters");
    assert!(online.tuner_restarts >= 1, "the killed tuner was respawned");
    assert_eq!(
        online.compiles_failed, injected_compile_failures,
        "every failed compile is an injected one, each counted once"
    );
    assert!(
        online.failed_buckets.is_empty(),
        "all keys recovered once the plan was uninstalled: {:?}",
        online.failed_buckets
    );

    // The corrupt cache was quarantined (evidence preserved) and a
    // valid cache was rebuilt in its place by the surviving compiles.
    let quarantined = dir.join("autotune.tune.corrupt");
    assert!(quarantined.exists(), "corrupt cache renamed, not deleted");
    let rebuilt = std::fs::read_to_string(&cache).expect("cache rebuilt on disk");
    assert!(
        rebuilt
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("checksum ")),
        "rebuilt cache carries a checksum footer"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `EngineState::Failed { retry_after }` gates retries: while the
/// backoff deadline is in the future no amount of traffic re-enqueues
/// the compile, and the first miss after it enqueues **exactly one**.
#[test]
fn failed_bucket_retries_exactly_once_after_backoff() {
    let _serial = serial();
    let guard = faults::install(ChaosConfig {
        seed: chaos_seed(),
        compile_fail_ratio: 1.0, // every profiled compile fails
        ..ChaosConfig::default()
    });
    let reg = dynamic_registry(None);
    let engines = reg.get("mlp-small").unwrap();
    let manager = OnlineEngineManager::new(
        Arc::clone(&reg),
        OnlineConfig {
            retry_backoff: Duration::from_millis(300),
            retry_backoff_max: Duration::from_secs(2),
            breaker_threshold: u32::MAX, // keep the breaker out of this test
            ..OnlineConfig::default()
        },
    );

    manager.acquire(&engines, 2).expect("heuristic fallback");
    assert!(manager.wait_idle(Duration::from_secs(60)));
    let snap = manager.snapshot();
    assert_eq!(snap.compiles_failed, 1);
    assert_eq!(snap.failed_buckets.len(), 1);
    assert_eq!(snap.failed_buckets[0].attempts, 1);
    let retry_in = snap.failed_buckets[0].retry_in;
    assert!(retry_in > Duration::ZERO, "backoff must be pending");

    // Hammer the key while the backoff deadline is in the future: no
    // compile may be (re-)enqueued.
    for _ in 0..50 {
        manager.acquire(&engines, 2).expect("still served");
    }
    assert!(manager.wait_idle(Duration::from_secs(60)));
    assert_eq!(
        manager.snapshot().compiles_failed,
        1,
        "no re-enqueue before retry_after"
    );

    // First miss past the deadline: exactly one retry, which fails
    // again and doubles the backoff.
    std::thread::sleep(retry_in + Duration::from_millis(50));
    manager.acquire(&engines, 2).expect("served while retrying");
    assert!(manager.wait_idle(Duration::from_secs(60)));
    let snap = manager.snapshot();
    assert_eq!(snap.compiles_failed, 2, "exactly one retry after backoff");
    assert_eq!(snap.failed_buckets[0].attempts, 2);
    assert!(
        snap.failed_buckets[0].retry_in > retry_in,
        "backoff grows: {:?} then {:?}",
        retry_in,
        snap.failed_buckets[0].retry_in
    );
    drop(guard);
}

/// The per-model circuit breaker: consecutive compile failures trip it,
/// tripped models serve degraded without enqueueing compiles, and after
/// the cooldown a single half-open probe (succeeding once the faults
/// stop) closes it again.
#[test]
fn breaker_trips_serves_degraded_then_probe_recovers() {
    let _serial = serial();
    let guard = faults::install(ChaosConfig {
        seed: chaos_seed(),
        compile_fail_ratio: 1.0,
        ..ChaosConfig::default()
    });
    let reg = dynamic_registry(None);
    let engines = reg.get("mlp-small").unwrap();
    let manager = OnlineEngineManager::new(
        Arc::clone(&reg),
        OnlineConfig {
            retry_backoff: Duration::from_millis(1), // backoff out of the way
            retry_backoff_max: Duration::from_millis(2),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(250),
            ..OnlineConfig::default()
        },
    );

    // Two consecutive failures trip the breaker.
    let placed = manager.acquire(&engines, 2).expect("first miss");
    assert!(!placed.degraded, "breaker still closed on the first miss");
    assert!(manager.wait_idle(Duration::from_secs(60)));
    std::thread::sleep(Duration::from_millis(10)); // past the 1 ms backoff
    manager.acquire(&engines, 2).expect("second miss");
    assert!(manager.wait_idle(Duration::from_secs(60)));
    let snap = manager.snapshot();
    assert_eq!(snap.compiles_failed, 2);
    assert_eq!(snap.breaker_trips, 1, "threshold 2 trips on failure 2");
    assert_eq!(snap.tripped_models, vec!["mlp-small".to_string()]);

    // Open breaker: served, flagged degraded, no compile enqueued.
    let placed = manager.acquire(&engines, 2).expect("served while open");
    assert!(placed.degraded);
    assert!(manager.wait_idle(Duration::from_secs(60)));
    let snap = manager.snapshot();
    assert_eq!(snap.compiles_failed, 2, "open breaker enqueues nothing");
    assert!(snap.degraded_served >= 2, "degraded requests are counted");

    // Stop injecting, wait out the cooldown: the next miss admits one
    // half-open probe, the probe succeeds, and the breaker closes.
    drop(guard);
    std::thread::sleep(Duration::from_millis(300));
    let placed = manager.acquire(&engines, 2).expect("probe miss");
    assert!(placed.degraded, "the probe itself still serves degraded");
    assert!(manager.wait_idle(Duration::from_secs(60)));
    let snap = manager.snapshot();
    assert_eq!(snap.compiles_completed, 1, "the probe compile succeeded");
    assert!(snap.tripped_models.is_empty(), "success closes the breaker");
    assert!(snap.failed_buckets.is_empty());

    let placed = manager.acquire(&engines, 2).expect("tuned after recovery");
    assert!(!placed.fallback, "the probed bucket is tuned and serving");
    assert!(!placed.degraded, "closed breaker serves clean");
}
