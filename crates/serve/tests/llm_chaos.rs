//! Chaos tests for the continuous batcher (ISSUE 9, satellite d; KV
//! pressure from ISSUE 10): kill the decode worker mid-step and
//! withhold KV blocks mid-decode on seeded schedules, and assert the
//! transactional step protocol and the KV governor hold — every kill is
//! retried, every preempted sequence replays, no token is lost or
//! duplicated, and the streams stay bit-identical to a fault-free
//! sequential run. Decode steps stage all effects (KV rows uncommitted,
//! tokens unappended, clock uncharged) until the full step computes, so
//! a mid-step panic needs no rollback.
//!
//! Run with: `cargo test -p bolt-serve --features chaos`
#![cfg(feature = "chaos")]

use bolt::faults::{self, ChaosConfig, FaultSite};
use bolt::BoltConfig;
use bolt_models::{sample_prompts, PromptLengths};
use bolt_serve::testing::test_arch;
use bolt_serve::{BatchMode, ContinuousBatcher, FinishReason, LlmServeConfig, SequenceRequest};

fn batcher(max_slots: usize) -> ContinuousBatcher {
    ContinuousBatcher::new(
        test_arch(),
        BoltConfig::default(),
        LlmServeConfig {
            max_slots,
            mode: BatchMode::Continuous,
            ..LlmServeConfig::default()
        },
    )
    .expect("tiny-lm batcher")
}

fn submit_all(batcher: &mut ContinuousBatcher, prompts: &[Vec<u32>], max_new: usize) {
    for prompt in prompts {
        batcher
            .submit(SequenceRequest {
                prompt: prompt.clone(),
                max_new_tokens: max_new,
                deadline_us: None,
            })
            .expect("valid request");
    }
}

/// Mid-step worker kills on a seeded schedule: the killed decode
/// attempts are retried and the batched streams still match a
/// fault-free sequential oracle token for token.
#[test]
fn worker_kills_mid_decode_are_retried_without_losing_tokens() {
    let prompts =
        sample_prompts("tiny-lm", 6, PromptLengths::uniform(2, 12), 77).expect("tiny-lm prompts");
    let max_new = 5;

    // Fault-free oracle first: one sequence at a time, under an empty
    // plan so no other test's plan can fire into it.
    let quiet = faults::install(ChaosConfig::default());
    let mut oracle = batcher(1);
    let mut expected = Vec::new();
    for prompt in &prompts {
        submit_all(&mut oracle, std::slice::from_ref(prompt), max_new);
        let mut done = oracle.run_to_completion();
        assert_eq!(done.len(), 1);
        expected.push(done.pop().expect("one result").tokens);
    }
    drop(quiet);

    // Now the chaos run: kill the decode worker at WorkerKill
    // occurrences 1, 3, and 6 (zero-based). The occurrence counter
    // advances on every attempt (retries included), so each kill fires
    // once and the retry of that same step survives.
    let guard = faults::install(ChaosConfig {
        worker_kills: vec![1, 3, 6],
        ..ChaosConfig::default()
    });

    let mut chaotic = batcher(4);
    submit_all(&mut chaotic, &prompts, max_new);
    let mut results = chaotic.run_to_completion();
    results.sort_by_key(|r| r.id);
    let stats = chaotic.stats();
    let kills = guard
        .events()
        .iter()
        .filter(|e| e.site == FaultSite::WorkerKill)
        .count();
    drop(guard);
    assert!(kills >= 3, "expected at least 3 kills to fire, saw {kills}");
    assert!(
        stats.step_retries >= 3,
        "each kill must surface as a retried step, saw {}",
        stats.step_retries
    );

    assert_eq!(
        results.len(),
        prompts.len(),
        "exactly one result per sequence"
    );
    for (i, seq) in results.iter().enumerate() {
        assert_eq!(seq.finish, FinishReason::Length);
        assert_eq!(
            seq.tokens.len(),
            max_new,
            "sequence {i} lost or duplicated tokens under chaos"
        );
        assert_eq!(
            seq.tokens, expected[i],
            "sequence {i} diverged from the fault-free oracle"
        );
    }
    assert_eq!(
        stats.generated_tokens,
        (prompts.len() * max_new) as u64,
        "token conservation under chaos"
    );
}

/// Seeded KV memory-pressure episodes mid-decode: the chaos site
/// transiently withholds most of the block pool, the governor preempts
/// live sequences to fit the remainder, and every preempted sequence
/// replays to exactly the stream a fault-free run produces.
#[test]
fn kv_pressure_mid_decode_preempts_and_recovers_bit_identically() {
    // Prompts of 14 cross into a second 16-row block after a few decode
    // steps — exactly when the pressure episodes land.
    let prompts =
        sample_prompts("tiny-lm", 8, PromptLengths::fixed(14), 31).expect("tiny-lm prompts");
    let max_new = 8;

    // Fault-free oracle: one sequence at a time, roomy default budget,
    // under an empty plan so no other test's plan can fire into it.
    let quiet = faults::install(ChaosConfig::default());
    let mut oracle = batcher(1);
    let mut expected = Vec::new();
    for prompt in &prompts {
        submit_all(&mut oracle, std::slice::from_ref(prompt), max_new);
        let mut done = oracle.run_to_completion();
        assert_eq!(done.len(), 1);
        expected.push(done.pop().expect("one result").tokens);
    }
    drop(quiet);

    // Two pressure episodes (occurrences are per-step polls): one as the
    // first block crossings queue up, one mid-replay. Each withholds
    // 60% of a 12-block budget for 3 steps.
    let guard = faults::install(ChaosConfig {
        kv_pressure_steps: vec![2, 9],
        kv_pressure_fraction: 0.6,
        kv_pressure_duration_steps: 3,
        ..ChaosConfig::default()
    });

    let mut chaotic = ContinuousBatcher::new(
        test_arch(),
        BoltConfig::default(),
        LlmServeConfig {
            max_slots: 8,
            mode: BatchMode::Continuous,
            kv_budget_blocks: Some(12),
            ..LlmServeConfig::default()
        },
    )
    .expect("tiny-lm batcher");
    submit_all(&mut chaotic, &prompts, max_new);
    let mut results = chaotic.run_to_completion();
    results.sort_by_key(|r| r.id);
    let stats = chaotic.stats();
    let episodes = guard
        .events()
        .iter()
        .filter(|e| e.site == FaultSite::KvPressure)
        .count();
    drop(guard);

    assert_eq!(episodes, 2, "both seeded pressure episodes fired");
    assert_eq!(stats.kv_pressure_events, 2);
    assert!(
        stats.preemptions > 0,
        "withholding 60% of the pool must preempt someone"
    );
    assert!(stats.recompute_tokens > 0, "replays recompute KV state");

    assert_eq!(results.len(), prompts.len(), "exactly one result each");
    for (i, seq) in results.iter().enumerate() {
        assert_eq!(seq.finish, FinishReason::Length);
        assert_eq!(
            seq.tokens.len(),
            max_new,
            "sequence {i} lost or duplicated tokens under pressure"
        );
        assert_eq!(
            seq.tokens, expected[i],
            "sequence {i} diverged from the fault-free oracle"
        );
    }
    assert_eq!(
        stats.generated_tokens,
        (prompts.len() * max_new) as u64,
        "token conservation under pressure"
    );
    let gov = chaotic.kv_governor();
    assert_eq!(gov.kv_blocks_in_use, 0, "drained pool");
    assert_eq!(gov.preemptions, stats.preemptions);
    assert!(
        gov.kv_fresh_allocations <= 12,
        "pressure never pushes the arena past its budget"
    );
}
