//! `llm`: an offline batch of seeded sequences through the `tiny-lm`
//! continuous batcher, default configuration (online tuning on, eight
//! slots), at a KV budget of [`KV_BUDGET_BLOCKS`] that forces
//! preempt-and-recompute.
//!
//! Set-up builds the batcher, runs one warm-up pass over the same
//! requests and waits for the online tuner to go idle. A timed pass
//! submits every sequence and steps the batcher until it drains; each
//! `step()` is timed, and since a step emits one token per live
//! sequence its host duration is the inter-token latency. Every stream
//! of every pass must equal the single-slot sequential oracle.
//!
//! The bounded end-to-end latency is read on the sim clock (time to
//! first token); the host figures are printed by name but swing too far
//! between minutes on a shared host to bound.
//! The sim clock does not repeat exactly from run to run of one seed
//! either: which buckets the online tuner has hot-swapped, and the price
//! the batcher memoizes for each, depend on tuner-thread timing. Every
//! pass's value is in the provenance, and `batcher.sim_repeat` records
//! whether the passes of a run agree.

use std::time::{Duration, Instant};

use bolt::BoltConfig;
use bolt_gpu_sim::GpuArch;
use bolt_models::llm::{lm_head_name, post_name, qkv_name};
use bolt_models::zoo::{sample_prompts, PromptLengths};
use bolt_models::{llm_by_name, DecoderModel};
use bolt_serve::{ContinuousBatcher, LlmServeConfig, SequenceRequest, StepReport};
use bolt_tensor::{DType, Tensor};

use crate::report::{Clock, Metric, Outcome};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{peak_rss_mb, rss_growth_per_pass, timed_setups, Args};

const MODEL: &str = "tiny-lm";
const SEQUENCES: usize = 512;
const PROMPT_MIN: usize = 4;
const PROMPT_MAX: usize = 32;
const NEW_MIN: usize = 16;
const NEW_MAX: usize = 24;
/// Tight enough that about 150–180 preemptions happen per pass.
const KV_BUDGET_BLOCKS: usize = 16;
/// Set-ups timed per run.
const SETUPS: usize = 3;
/// Longest wait for the online tuner to go idle during set-up.
const TUNE_TIMEOUT: Duration = Duration::from_secs(60);
/// Direct calls per traced GEMM / attention measurement.
const KERNEL_CALLS: usize = 200;
const GEMM_ROWS: [usize; 4] = [1, 2, 4, 8];
const ATTENTION_CTX: [usize; 3] = [16, 32, 48];
const GEMM_SPANS: [[&str; 4]; 3] = [
    [
        "decode_gemm.qkv.m1",
        "decode_gemm.qkv.m2",
        "decode_gemm.qkv.m4",
        "decode_gemm.qkv.m8",
    ],
    [
        "decode_gemm.post.m1",
        "decode_gemm.post.m2",
        "decode_gemm.post.m4",
        "decode_gemm.post.m8",
    ],
    [
        "decode_gemm.lm_head.m1",
        "decode_gemm.lm_head.m2",
        "decode_gemm.lm_head.m4",
        "decode_gemm.lm_head.m8",
    ],
];
const ATTENTION_SPANS: [&str; 3] = ["attention.ctx16", "attention.ctx32", "attention.ctx48"];

fn requests(seed: u64) -> Vec<SequenceRequest> {
    let prompts = sample_prompts(
        MODEL,
        SEQUENCES,
        PromptLengths::uniform(PROMPT_MIN, PROMPT_MAX),
        seed,
    )
    .expect("tiny-lm is an LLM zoo entry");
    let mut rng = Rng::new(seed, 0x11);
    prompts
        .into_iter()
        .map(|prompt| SequenceRequest {
            prompt,
            max_new_tokens: NEW_MIN + rng.below(NEW_MAX - NEW_MIN + 1),
            deadline_us: None,
        })
        .collect()
}

fn batcher(max_slots: usize, kv_budget_blocks: Option<usize>) -> ContinuousBatcher {
    ContinuousBatcher::new(
        GpuArch::tesla_t4(),
        BoltConfig::default(),
        LlmServeConfig {
            max_slots,
            kv_budget_blocks,
            ..LlmServeConfig::default()
        },
    )
    .expect("tiny-lm batcher")
}

fn submit_all(b: &mut ContinuousBatcher, requests: &[SequenceRequest]) {
    for r in requests {
        b.submit(r.clone()).expect("valid request");
    }
}

/// What one timed pass measured.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    step_s: Vec<f64>,
    reports: Vec<StepReport>,
    tokens: u64,
    sim_delta_us: f64,
    /// Largest |Σ step sim − sim-clock delta|, µs.
    sim_sum_error_us: f64,
    streams: Vec<Vec<u32>>,
    ttft_sim_us: Vec<f64>,
    peak_blocks: usize,
    preemptions: u64,
    recompute_tokens: u64,
    real_flops: f64,
    launched_flops: f64,
}

fn run_pass(
    b: &mut ContinuousBatcher,
    requests: &[SequenceRequest],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let stats0 = b.stats();
    let metrics0 = b.metrics();
    let sim0 = b.sim_now_us();
    submit_all(b, requests);
    let mut pass = Pass::default();
    let start = Instant::now();
    while b.live() > 0 || b.queued() > 0 {
        let t = Instant::now();
        let report = b.step();
        pass.step_s.push(t.elapsed().as_secs_f64());
        if let Some(tr) = tracer.as_deref_mut() {
            let name = if report.admitted > 0 {
                "batcher.step.prefill"
            } else {
                "batcher.step.decode"
            };
            let end = tr.now_us();
            tr.push(crate::trace::Span {
                name,
                start_us: tr.at_us(t),
                end_us: end,
                parent: None,
                id: pass.reports.len() as u64,
            });
            pass.peak_blocks = pass.peak_blocks.max(b.kv_governor().kv_blocks_in_use);
        }
        pass.reports.push(report);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    let stats1 = b.stats();
    let metrics1 = b.metrics();
    pass.tokens = stats1.generated_tokens - stats0.generated_tokens;
    pass.sim_delta_us = b.sim_now_us() - sim0;
    let summed: f64 = pass.reports.iter().map(|r| r.sim_us).sum();
    pass.sim_sum_error_us = (summed - pass.sim_delta_us).abs();
    pass.preemptions = stats1.preemptions - stats0.preemptions;
    pass.recompute_tokens = stats1.recompute_tokens - stats0.recompute_tokens;
    pass.real_flops = metrics1.real_flops - metrics0.real_flops;
    pass.launched_flops = metrics1.launched_flops - metrics0.launched_flops;
    let finished = b.take_finished();
    pass.ttft_sim_us = finished.iter().filter_map(|r| r.ttft_us).collect();
    pass.streams = finished.into_iter().map(|r| r.tokens).collect();
    pass
}

/// Streams of one sequence at a time through a single-slot batcher.
fn oracle(requests: &[SequenceRequest]) -> Vec<Vec<u32>> {
    let mut o = batcher(1, None);
    requests
        .iter()
        .map(|r| {
            o.submit(r.clone()).expect("valid request");
            o.run_to_completion().pop().expect("one sequence").tokens
        })
        .collect()
}

/// (mismatched streams, lost tokens, duplicated tokens) against the oracle.
fn compare(streams: &[Vec<u32>], oracle: &[Vec<u32>]) -> (u64, u64, u64) {
    let (mut bad, mut lost, mut dup) = (0, 0, 0);
    for i in 0..oracle.len().max(streams.len()) {
        let got = streams.get(i).map_or(&[][..], Vec::as_slice);
        let want = oracle.get(i).map_or(&[][..], Vec::as_slice);
        if got != want {
            bad += 1;
        }
        lost += want.len().saturating_sub(got.len()) as u64;
        dup += got.len().saturating_sub(want.len()) as u64;
    }
    (bad, lost, dup)
}

/// Times the batcher's own sub-model engines at M = 1, 2, 4, 8 and host
/// attention at three context lengths; returns mean µs per call.
fn time_kernels(b: &ContinuousBatcher, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let names = [qkv_name(MODEL, 0), post_name(MODEL, 0), lm_head_name(MODEL)];
    let labels = ["qkv", "post", "lm_head"];
    let mut work = Vec::new();
    for (g, name) in names.iter().enumerate() {
        let engines = b.registry().get(name).expect("registered sub-model");
        let sample: Vec<Tensor> = engines
            .sample_dims()
            .iter()
            .enumerate()
            .map(|(i, dims)| Tensor::randn(dims, DType::F16, seed ^ i as u64))
            .collect();
        for (r, &m) in GEMM_ROWS.iter().enumerate() {
            if let Some((_, plan)) = engines.engine_for(m) {
                work.push((g, r, plan, vec![sample.clone(); m], 0.0f64));
            }
        }
    }
    let spec = llm_by_name(MODEL).expect("tiny-lm spec");
    let model = DecoderModel::new(spec, LlmServeConfig::default().salt);
    let mut rng = Rng::new(seed, 0xa7);
    let mut data = |n: usize| {
        (0..n)
            .map(|_| rng.unit() as f32 - 0.5)
            .collect::<Vec<f32>>()
    };
    let q = data(spec.hidden);
    let kv: Vec<(Vec<f32>, Vec<f32>)> = ATTENTION_CTX
        .iter()
        .map(|&n| (data(n * spec.hidden), data(n * spec.hidden)))
        .collect();
    let mut attention_us = [0.0f64; 3];
    for call in 0..KERNEL_CALLS {
        for (g, r, plan, samples, total_us) in &mut work {
            let ((), s) = tracer.time(GEMM_SPANS[*g][*r], None, call as u64, |_, _| {
                std::hint::black_box(plan.run_batched(samples).expect("sub-model runs"));
            });
            *total_us += tracer.spans()[s].dur_us();
        }
        for (c, (keys, values)) in kv.iter().enumerate() {
            let ((), s) = tracer.time(ATTENTION_SPANS[c], None, call as u64, |_, _| {
                std::hint::black_box(model.attention(&q, &[keys], &[values], ATTENTION_CTX[c]));
            });
            attention_us[c] += tracer.spans()[s].dur_us();
        }
    }
    let mut out: Vec<Metric> = work
        .iter()
        .map(|(g, r, _, _, total_us)| {
            Metric::new(
                format!(
                    "decode_gemm.run_batched_us.{}.m{}",
                    labels[*g], GEMM_ROWS[*r]
                ),
                total_us / KERNEL_CALLS as f64,
                "us",
                Clock::Host,
            )
            .over(KERNEL_CALLS)
        })
        .collect();
    for (c, us) in attention_us.iter().enumerate() {
        out.push(
            Metric::new(
                format!("attention.us.ctx{}", ATTENTION_CTX[c]),
                us / KERNEL_CALLS as f64,
                "us",
                Clock::Host,
            )
            .over(KERNEL_CALLS),
        );
    }
    out
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let requests = requests(args.seed);
    let (setup_s, (mut b, warm_streams)) = timed_setups(SETUPS, || {
        let mut b = batcher(LlmServeConfig::default().max_slots, Some(KV_BUDGET_BLOCKS));
        submit_all(&mut b, &requests);
        let streams: Vec<Vec<u32>> = b
            .run_to_completion()
            .into_iter()
            .map(|r| r.tokens)
            .collect();
        b.wait_tuned(TUNE_TIMEOUT);
        (b, streams)
    });
    let fresh0 = b.kv_governor().kv_fresh_allocations;
    let online0 = b.metrics().online.expect("the batcher tunes online");

    let mut tracer = Tracer::new();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    let start = Instant::now();
    while plain.len() + traced.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate untraced and traced passes.
        if args.trace && plain.len() > traced.len() {
            traced.push(run_pass(&mut b, &requests, Some(&mut tracer)));
        } else {
            plain.push(run_pass(&mut b, &requests, None));
            if plain.len() == 1 {
                rss_mb = peak_rss_mb();
            }
        }
    }
    let fresh_allocs = b.kv_governor().kv_fresh_allocations - fresh0;
    let kernels = args.trace.then(|| time_kernels(&b, args.seed, &mut tracer));
    let online = b.metrics().online.expect("the batcher tunes online");
    out.note(
        "llm.timed_fallback_served",
        online.fallback_served - online0.fallback_served,
    );
    out.note("llm.timed_hot_swaps", online.hot_swaps - online0.hot_swaps);
    for name in b.registry().names() {
        let buckets = b
            .registry()
            .get(&name)
            .map(|e| e.bucket_sizes())
            .unwrap_or_default();
        out.note(&format!("llm.buckets.{name}"), format!("{buckets:?}"));
    }

    let oracle = oracle(&requests);
    let passes = plain.iter().chain(&traced);
    let (mut bad, mut lost, mut dup) = compare(&warm_streams, &oracle);
    for p in passes.clone() {
        let (b2, l, d) = compare(&p.streams, &oracle);
        bad += b2;
        lost += l;
        dup += d;
    }
    let runs = 1 + plain.len() + traced.len();
    out.attempted = (runs * SEQUENCES) as u64;
    out.check(
        "llm.streams_vs_oracle",
        (runs * SEQUENCES) as u64,
        bad,
        format!("{lost} lost and {dup} duplicated tokens"),
    );
    let sum_bad = passes
        .clone()
        .filter(|p| p.sim_sum_error_us > 1e-9 * p.sim_delta_us.max(1.0))
        .count();
    let worst = passes
        .clone()
        .map(|p| p.sim_sum_error_us)
        .fold(0.0, f64::max);
    out.check(
        "llm.step_sim_sum",
        (plain.len() + traced.len()) as u64,
        sum_bad as u64,
        format!("Σ StepReport.sim_us vs sim-clock delta, worst residual {worst:e} us"),
    );

    let tokens: u64 = plain.iter().map(|p| p.tokens).sum();
    let wall: f64 = plain.iter().map(|p| p.wall_s).sum();
    // Host figures: per pass, then the median over passes.
    let itl_ms: Vec<Vec<f64>> = plain
        .iter()
        .map(|p| p.step_s.iter().map(|s| s * 1e3).collect())
        .collect();
    let (itl_p50, _, n) = stats::median_of_passes(&itl_ms, 50.0);
    let (itl_tail, tail_p, _) = stats::median_of_passes(&itl_ms, 99.0);
    let per_pass_tps: Vec<f64> = plain.iter().map(|p| p.tokens as f64 / p.wall_s).collect();
    let tokens_per_s = stats::median(&per_pass_tps);
    out.note("llm.tokens_per_s.per_pass", format!("{per_pass_tps:.0?}"));
    let steps: usize = plain.iter().map(|p| p.reports.len()).sum();
    let tokens_per_step = tokens as f64 / steps as f64;
    out.named = vec![
        Metric::new("tokens_per_s", tokens_per_s, "1/s", Clock::Host).over(plain.len()),
        Metric::new("itl_p50_ms", itl_p50, "ms", Clock::Host).pct(n, 50.0),
        Metric::new("itl_p99_ms", itl_tail, "ms", Clock::Host).pct(n, tail_p),
        Metric::new("tokens_per_step", tokens_per_step, "count", Clock::Count).over(steps),
    ];
    // Sim clock: every pass's value is kept, so the run-to-run spread
    // shows in the provenance.
    let sim_tps: Vec<f64> = passes
        .clone()
        .map(|p| p.tokens as f64 / (p.sim_delta_us / 1e6))
        .collect();
    let ttft_ms: Vec<Vec<f64>> = passes
        .clone()
        .map(|p| p.ttft_sim_us.iter().map(|us| us / 1e3).collect())
        .collect();
    let (ttft_p50, _, ttft_n) = stats::median_of_passes(&ttft_ms, 50.0);
    let (ttft_tail, ttft_p, _) = stats::median_of_passes(&ttft_ms, 99.0);
    let sim_ttft: Vec<f64> = ttft_ms
        .iter()
        .map(|t| stats::tail(&stats::sorted(t.clone()), 99.0).1)
        .collect();
    let sim_tokens_per_s = stats::median(&sim_tps);
    out.named.extend([
        Metric::new("sim_ttft_p50_ms", ttft_p50, "ms", Clock::Sim).pct(ttft_n, 50.0),
        Metric::new("sim_ttft_p99_ms", ttft_tail, "ms", Clock::Sim).pct(ttft_n, ttft_p),
        Metric::new("sim_tokens_per_s", sim_tokens_per_s, "1/s", Clock::Sim).over(sim_tps.len()),
    ]);
    // The bounded latency is on the sim clock: on a shared 2-core host
    // the decode loop's host speed swings up to 2x between minutes, far
    // past any usable bound, while the sim clock moves only with the
    // online tuner's schedule.
    out.e2e = vec![
        Metric::new("setup_s", setup_s, "s", Clock::Host).over(SETUPS),
        Metric::new("peak_rss_mb", rss_mb, "MB", Clock::Host),
        Metric::new("latency_p50_ms", ttft_p50, "ms", Clock::Sim).pct(ttft_n, 50.0),
    ];

    // Passes read the batcher's cumulative sim clock, so their deltas
    // differ in the last bits even when every launch is priced alike;
    // anything beyond rounding is a different schedule.
    let repeat = sim_tps
        .windows(2)
        .all(|w| (w[0] - w[1]).abs() <= 1e-9 * w[0]);
    out.note("llm.sim_tokens_per_s.per_pass", format!("{sim_tps:?}"));
    out.note("llm.sim_ttft_p99_ms.per_pass", format!("{sim_ttft:?}"));
    out.note("llm.sim_repeat", repeat);
    out.note("llm.passes", plain.len() + traced.len());
    out.note("llm.sequences", SEQUENCES);

    if let Some(kernels) = kernels {
        let step_stats = |prefill: bool| {
            let v = stats::sorted(
                traced
                    .iter()
                    .flat_map(|p| p.reports.iter().zip(&p.step_s))
                    .filter(|(r, _)| (r.admitted > 0) == prefill)
                    .map(|(_, s)| s * 1e6)
                    .collect(),
            );
            let (p, tail) = stats::tail(&v, 99.0);
            (stats::percentile(&v, 50.0), tail, p, v.len())
        };
        let (d50, d99, dp, dn) = step_stats(false);
        let (p50, p99, pp, pn) = step_stats(true);
        let traced_tokens: u64 = traced.iter().map(|p| p.tokens).sum();
        let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
        let reports: Vec<&StepReport> = traced.iter().flat_map(|p| &p.reports).collect();
        let real: f64 = traced.iter().map(|p| p.real_flops).sum();
        let launched: f64 = traced.iter().map(|p| p.launched_flops).sum();
        let per_pass = |f: fn(&Pass) -> f64| stats::mean(&traced.iter().map(f).collect::<Vec<_>>());
        let step_sum: f64 = plain.iter().flat_map(|p| &p.step_s).sum();
        out.layers = vec![
            Metric::new(
                "trace.overhead_frac",
                (tokens as f64 / wall) / (traced_tokens as f64 / traced_wall) - 1.0,
                "frac",
                Clock::Host,
            )
            .over(traced.len()),
            Metric::new(
                "rss.growth_mb_per_pass",
                rss_growth_per_pass(rss_mb, plain.len() + traced.len()),
                "MB",
                Clock::Host,
            ),
            Metric::new("batcher.step_us_p50.decode", d50, "us", Clock::Host).pct(dn, 50.0),
            Metric::new("batcher.step_us_p99.decode", d99, "us", Clock::Host).pct(dn, dp),
            Metric::new("batcher.step_us_p50.prefill", p50, "us", Clock::Host).pct(pn, 50.0),
            Metric::new("batcher.step_us_p99.prefill", p99, "us", Clock::Host).pct(pn, pp),
            Metric::new(
                "batcher.mean_live",
                stats::mean(&reports.iter().map(|r| r.decoded as f64).collect::<Vec<_>>()),
                "count",
                Clock::Count,
            )
            .over(reports.len()),
            Metric::new(
                "batcher.padding_frac",
                1.0 - real / launched,
                "frac",
                Clock::Count,
            ),
            Metric::new(
                "batcher.tokens_per_step",
                tokens_per_step,
                "count",
                Clock::Count,
            )
            .over(steps),
            Metric::new(
                "batcher.loop_overhead_frac",
                1.0 - step_sum / wall,
                "frac",
                Clock::Host,
            ),
            Metric::new(
                "batcher.sim_tokens_per_s",
                sim_tokens_per_s,
                "1/s",
                Clock::Sim,
            )
            .over(sim_tps.len()),
            Metric::new(
                "batcher.sim_ttft_p99_ms",
                stats::median(&sim_ttft),
                "ms",
                Clock::Sim,
            )
            .over(sim_ttft.len()),
            Metric::new(
                "batcher.sim_repeat",
                if repeat { 1.0 } else { 0.0 },
                "flag",
                Clock::Count,
            ),
            Metric::new(
                "kv.preemptions",
                per_pass(|p| p.preemptions as f64),
                "count",
                Clock::Count,
            ),
            Metric::new(
                "kv.recompute_tokens",
                per_pass(|p| p.recompute_tokens as f64),
                "count",
                Clock::Count,
            ),
            Metric::new(
                "kv.peak_blocks",
                traced.iter().map(|p| p.peak_blocks).max().unwrap_or(0) as f64,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "kv.fresh_allocs",
                fresh_allocs as f64,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "online.fallback_served",
                online.fallback_served as f64,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "online.hot_swaps",
                online.hot_swaps as f64,
                "count",
                Clock::Count,
            ),
            Metric::new("online.tuning_s", online.tuning_seconds, "s", Clock::Sim),
        ];
        out.layers.extend(kernels);
        out.tracer = Some(tracer);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_counts_lost_and_duplicated_tokens() {
        let oracle = vec![vec![1, 2, 3], vec![4, 5]];
        assert_eq!(compare(&oracle, &oracle), (0, 0, 0));
        let short = vec![vec![1, 2], vec![4, 5, 6]];
        assert_eq!(compare(&short, &oracle), (2, 1, 1));
        assert_eq!(compare(&[vec![1, 2, 3]], &oracle), (1, 2, 0));
    }

    #[test]
    fn requests_are_seeded_and_in_range() {
        let a = requests(5);
        assert_eq!(a.len(), SEQUENCES);
        assert!(a
            .iter()
            .all(|r| (PROMPT_MIN..=PROMPT_MAX).contains(&r.prompt.len())
                && (NEW_MIN..=NEW_MAX).contains(&r.max_new_tokens)));
        let b = requests(5);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.prompt == y.prompt && x.max_new_tokens == y.max_new_tokens));
    }
}
