//! Simulated-clock results must repeat exactly: a plan's memoized price
//! is the simulator's own answer, and two identically configured LLM
//! batchers that reach the warm (fully tuned) state charge identical
//! sim time and FLOPs for the same work, whatever the tuner threads did.

use std::time::Duration;

use bolt::{BoltCompiler, BoltConfig, StepTimings};
use bolt_gpu_sim::GpuArch;
use bolt_models::{model_by_name, sample_prompts, PromptLengths};
use bolt_serve::{ContinuousBatcher, LlmServeConfig, SequenceRequest};

#[test]
fn memoized_plan_price_matches_the_simulator() {
    let compiler = BoltCompiler::new(GpuArch::tesla_t4(), BoltConfig::default());
    for (name, batch) in [("mlp-small", 8), ("cnn-small", 4), ("resnet-18", 1)] {
        let model = compiler
            .compile(&model_by_name(name, batch).graph)
            .expect("zoo model compiles");
        let plan = model.plan();
        let mut observed = StepTimings::default();
        let walked = plan.time_observed(&mut observed);
        let price = plan.price();
        assert_eq!(price.total_us.to_bits(), plan.time().total_us.to_bits());
        assert_eq!(price.total_us.to_bits(), walked.total_us.to_bits());
        assert_eq!(
            price.timings.steps, observed.steps,
            "{name}: per-step timings"
        );
        assert!(!price.timings.steps.is_empty(), "{name}: every step priced");
        assert!(std::ptr::eq(price, plan.price()), "{name}: priced once");
    }
}

/// Per-pass accounting of a warm batcher.
#[derive(Debug)]
struct WarmPass {
    /// Each step's own charged sim time, as bits: must repeat exactly.
    step_sim_us: Vec<u64>,
    tokens: Vec<Vec<u32>>,
    /// Deltas of cumulative counters over the pass. The counters start
    /// from the warm-up's totals, which depend on when background tunes
    /// landed, so the subtraction carries that base's rounding.
    sim_us: f64,
    real_flops: f64,
    launched_flops: f64,
}

/// Warms a fresh batcher on the workload, waits for every tuned bucket,
/// then serves the workload again and records that pass.
fn warm_pass(prompts: &[Vec<u32>]) -> WarmPass {
    let mut batcher = ContinuousBatcher::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
        LlmServeConfig::default(),
    )
    .expect("tiny-lm builds");
    let submit = |batcher: &mut ContinuousBatcher| {
        for prompt in prompts {
            batcher
                .submit(SequenceRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: 6,
                    deadline_us: None,
                })
                .expect("valid prompt");
        }
    };
    submit(&mut batcher);
    batcher.run_to_completion();
    assert!(batcher.wait_tuned(Duration::from_secs(120)), "tuner drains");

    let (sim0, m0) = (batcher.sim_now_us(), batcher.metrics());
    submit(&mut batcher);
    let mut step_sim_us = Vec::new();
    while batcher.live() > 0 || batcher.queued() > 0 {
        step_sim_us.push(batcher.step().sim_us.to_bits());
    }
    let m1 = batcher.metrics();
    WarmPass {
        step_sim_us,
        tokens: batcher
            .take_finished()
            .into_iter()
            .map(|r| r.tokens)
            .collect(),
        sim_us: batcher.sim_now_us() - sim0,
        real_flops: m1.real_flops - m0.real_flops,
        launched_flops: m1.launched_flops - m0.launched_flops,
    }
}

#[test]
fn warm_llm_passes_repeat_exactly_across_fresh_batchers() {
    let prompts = sample_prompts("tiny-lm", 20, PromptLengths::uniform(1, 24), 7).unwrap();
    let first = warm_pass(&prompts);
    let second = warm_pass(&prompts);
    assert!(first.step_sim_us.len() > 1);
    assert_eq!(first.step_sim_us, second.step_sim_us, "per-step sim time");
    assert_eq!(first.tokens, second.tokens);
    // A mispriced launch is off by percents; base rounding by ~1e-16.
    for (what, a, b) in [
        ("sim clock advance", first.sim_us, second.sim_us),
        ("real flops", first.real_flops, second.real_flops),
        (
            "launched flops",
            first.launched_flops,
            second.launched_flops,
        ),
    ] {
        assert!((a - b).abs() <= 1e-12 * a.abs(), "{what}: {a} vs {b}");
    }
}
