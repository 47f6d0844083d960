//! `compile`: cold compiles of a seeded draw of zoo models.
//!
//! A round builds one fresh `BoltCompiler` per architecture (no disk
//! cache) and compiles every model once per architecture, each at a
//! seeded batch of 1 or 32, in seeded order. A pass is
//! [`ROUNDS_PER_PASS`] rounds; passes repeat the same draw until the
//! window closes. The first pass fixes the sim-clock fields and every
//! later pass must reproduce them bit for bit. Stratifying over models
//! keeps the geometric mean of simulated inference time steady across
//! seeds while the seed still moves it.

use std::time::Instant;

use bolt::{BoltCompiler, BoltConfig};
use bolt_gpu_sim::GpuArch;
use bolt_graph::passes::PassManager;
use bolt_graph::Graph;
use bolt_models::zoo::{self, SERVING_MODELS};
use bolt_tensor::{DType, Tensor};

use crate::report::{Clock, Metric, Outcome};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{peak_rss_mb, rss_growth_per_pass, timed_setups, Args};

/// CNNs, RepVGG, Inception and the three serving models.
const MODELS: [&str; 19] = [
    "vgg-11",
    "vgg-13",
    "vgg-16",
    "vgg-19",
    "inception-v3",
    "resnet-18",
    "resnet-34",
    "resnet-50",
    "resnet-101",
    "resnet-152",
    "repvgg-a0",
    "repvgg-a1",
    "repvgg-b0",
    "repvggaug-a0",
    "repvggaug-a1",
    "repvggaug-b0",
    "mlp-small",
    "mlp-large",
    "cnn-small",
];

const BATCHES: [usize; 2] = [1, 32];

const ARCHS: [&str; 3] = ["t4", "v100", "a100"];

/// Set-ups timed per run; each is only tens of ms, so take several.
const SETUPS: usize = 5;

/// Rounds in one pass: enough that the seeded batch choices move the
/// pass's geometric-mean sim time by only a few percent across seeds,
/// and that a pass's 1026 compiles support a p99.
const ROUNDS_PER_PASS: usize = 18;

fn arch(index: usize) -> GpuArch {
    match index {
        0 => GpuArch::tesla_t4(),
        1 => GpuArch::tesla_v100(),
        _ => GpuArch::a100(),
    }
}

/// One compile of the draw: architecture and graph index.
#[derive(Debug, Clone, Copy)]
struct Job {
    arch: usize,
    model: usize,
    batch: usize,
}

impl Job {
    fn graph(&self) -> usize {
        self.model * BATCHES.len() + self.batch
    }
}

/// Sim-clock fields of one compile; must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimFields {
    total_us: f64,
    kernels: usize,
    tuning_s: f64,
    measured: usize,
    pruned: usize,
}

/// Host-clock timings of one traced compile, ms.
#[derive(Debug, Clone, Copy, Default)]
struct Traced {
    passes_ms: f64,
    nodes: usize,
    profile_ms: f64,
    rest_ms: f64,
}

fn draw(seed: u64) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed, 0xc0);
    (0..ROUNDS_PER_PASS)
        .map(|_| {
            let mut round: Vec<Job> = (0..ARCHS.len())
                .flat_map(|arch| (0..MODELS.len()).map(move |model| (arch, model)))
                .map(|(arch, model)| Job {
                    arch,
                    model,
                    batch: 0,
                })
                .collect();
            for job in &mut round {
                job.batch = rng.below(BATCHES.len());
            }
            rng.shuffle(&mut round);
            round
        })
        .collect()
}

fn build_graphs() -> Vec<Graph> {
    MODELS
        .iter()
        .flat_map(|m| BATCHES.iter().map(move |&b| zoo::model_by_name(m, b).graph))
        .collect()
}

fn compilers(config: &BoltConfig) -> Vec<BoltCompiler> {
    (0..ARCHS.len())
        .map(|a| BoltCompiler::new(arch(a), config.clone()))
        .collect()
}

/// One untraced pass: `compile()` as a user calls it.
fn pass(
    graphs: &[Graph],
    rounds: &[Vec<Job>],
    host_ms: &mut Vec<f64>,
) -> Result<Vec<SimFields>, String> {
    let config = BoltConfig::default();
    let mut sims = Vec::with_capacity(rounds.len() * rounds[0].len());
    for round in rounds {
        let compilers = compilers(&config);
        for job in round {
            let t = Instant::now();
            let model = compilers[job.arch]
                .compile(&graphs[job.graph()])
                .map_err(|e| format!("{} on {}: {e}", MODELS[job.model], ARCHS[job.arch]))?;
            host_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sims.push(SimFields {
                total_us: model.time().total_us,
                kernels: model.kernel_count(),
                tuning_s: model.tuning.tuning_seconds,
                measured: model.tuning.measurements,
                pruned: model.tuning.pruned,
            });
        }
    }
    Ok(sims)
}

/// One traced pass: the same pipeline called layer by layer, each call
/// a span — deployment passes, profile-task collection and batched
/// profiling, then `compile()` of the optimized graph with passes off,
/// which leaves lowering and plan build (profiler now warm).
fn traced_pass(
    graphs: &[Graph],
    rounds: &[Vec<Job>],
    tracer: &mut Tracer,
    host_ms: &mut Vec<f64>,
    layers: &mut Vec<Traced>,
) -> Result<Vec<SimFields>, String> {
    let config = BoltConfig {
        deployment_passes: false,
        ..BoltConfig::default()
    };
    let mut sims = Vec::new();
    for round in rounds {
        let compilers = compilers(&config);
        for job in round {
            let id = host_ms.len() as u64;
            let compiler = &compilers[job.arch];
            let fail = |e: &dyn std::fmt::Display| {
                format!("{} on {}: {e}", MODELS[job.model], ARCHS[job.arch])
            };
            let (result, root) = tracer.time("compile", None, id, |t, me| {
                let (optimized, passes) = t.time("graph.passes", Some(me), id, |_, _| {
                    PassManager::deployment().run(&graphs[job.graph()])
                });
                let optimized = optimized.map_err(|e| fail(&e))?;
                let before = compiler.profiler().stats();
                let (tasks, collect) = t.time("profiler.tasks", Some(me), id, |_, _| {
                    compiler.profile_tasks(&optimized)
                });
                let tasks = tasks.map_err(|e| fail(&e))?;
                let ((), profile) = t.time("profiler.profile", Some(me), id, |_, _| {
                    compiler.profiler().profile_batch(&tasks)
                });
                let after = compiler.profiler().stats();
                let (model, rest) = t.time("compile.lower_plan", Some(me), id, |_, _| {
                    compiler.compile(&optimized)
                });
                let model = model.map_err(|e| fail(&e))?;
                let nodes = optimized.nodes().len();
                Ok::<_, String>((
                    nodes,
                    model,
                    before,
                    after,
                    [passes, collect, profile, rest],
                ))
            });
            let (nodes, model, before, after, children) = result?;
            let s = tracer.spans();
            let ms = |i: usize| s[i].dur_us() / 1e3;
            host_ms.push(ms(root));
            layers.push(Traced {
                passes_ms: ms(children[0]),
                nodes,
                profile_ms: ms(children[1]) + ms(children[2]),
                rest_ms: ms(children[3]),
            });
            sims.push(SimFields {
                total_us: model.time().total_us,
                kernels: model.kernel_count(),
                tuning_s: after.tuning_seconds() - before.tuning_seconds()
                    + model.tuning.tuning_seconds,
                measured: after.measurements - before.measurements + model.tuning.measurements,
                pruned: after.pruned - before.pruned + model.tuning.pruned,
            });
        }
    }
    Ok(sims)
}

/// Compiles every materialized cell fresh and compares `run` against the
/// plan's reference interpreter, bit for bit. Returns (checked, failed).
fn check_outputs(graphs: &[Graph], seed: u64) -> (u64, u64, String) {
    let (mut checked, mut failed) = (0, 0);
    let mut first = String::new();
    for (m, name) in MODELS.iter().enumerate() {
        if !SERVING_MODELS.contains(name) {
            continue;
        }
        for (a, arch_name) in ARCHS.iter().enumerate() {
            let compiler = BoltCompiler::new(arch(a), BoltConfig::default());
            for (b, batch) in BATCHES.iter().enumerate() {
                let graph = &graphs[m * BATCHES.len() + b];
                let inputs: Vec<Tensor> = graph
                    .input_ids()
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| {
                        Tensor::randn(graph.node(id).shape.dims(), DType::F16, seed ^ i as u64)
                    })
                    .collect();
                checked += 1;
                let ok = compiler.compile(graph).is_ok_and(|model| {
                    matches!(
                        (model.run(&inputs), model.plan().run_reference(&inputs)),
                        (Ok(out), Ok(reference)) if out == reference
                    )
                });
                if !ok {
                    failed += 1;
                    if first.is_empty() {
                        first = format!("first mismatch: {name} b{batch} on {arch_name}");
                    }
                }
            }
        }
    }
    (checked, failed, first)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, graphs) = timed_setups(SETUPS, build_graphs);
    let rounds = draw(args.seed);
    let per_pass = rounds.iter().map(Vec::len).sum::<usize>();

    let mut host_ms: Vec<Vec<f64>> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_layers = Vec::new();
    let mut tracer = Tracer::new();
    let mut first: Option<Vec<SimFields>> = None;
    let (mut passes, mut traced_passes, mut sim_mismatch, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut first_error = String::new();
    let mut rss_mb = 0.0;
    let start = Instant::now();
    while passes + traced_passes < 2 || start.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate untraced and traced passes.
        let traced = args.trace && passes > traced_passes;
        let result = if traced {
            traced_passes += 1;
            traced_pass(
                &graphs,
                &rounds,
                &mut tracer,
                &mut traced_ms,
                &mut traced_layers,
            )
        } else {
            passes += 1;
            host_ms.push(Vec::with_capacity(per_pass));
            let r = pass(&graphs, &rounds, host_ms.last_mut().expect("just pushed"));
            if passes == 1 {
                rss_mb = peak_rss_mb();
            }
            r
        };
        match result {
            Ok(sims) => match &first {
                None => first = Some(sims),
                Some(f) => {
                    sim_mismatch += f.iter().zip(&sims).filter(|(a, b)| a != b).count() as u64
                }
            },
            Err(e) => {
                errors += 1;
                if first_error.is_empty() {
                    first_error = e;
                }
            }
        }
    }
    let compiles = (passes + traced_passes) * per_pass as u64;
    out.attempted = compiles;
    // A pass stops at its first failed compile.
    out.check("compile.errors", compiles, errors, first_error);
    out.check(
        "compile.sim_identical",
        (passes + traced_passes).saturating_sub(1) * per_pass as u64,
        sim_mismatch,
        "every pass reproduces the first pass's sim fields bit for bit".into(),
    );
    let (checked, failed, detail) = check_outputs(&graphs, args.seed);
    out.check("compile.run_vs_reference", checked, failed, detail);

    let Some(sims) = first else {
        return out;
    };
    // Sim-clock fields of the draw.
    let sim_infer_ms = stats::geomean(&sims.iter().map(|s| s.total_us / 1e3).collect::<Vec<_>>());
    let tuning_s = sims.iter().map(|s| s.tuning_s).sum::<f64>() / ROUNDS_PER_PASS as f64;
    // Host figures: per pass, then the median over passes.
    let (p50, _, n) = stats::median_of_passes(&host_ms, 50.0);
    let (tail, tail_p, _) = stats::median_of_passes(&host_ms, 99.0);
    let per_s = stats::median(
        &host_ms
            .iter()
            .map(|p| 1e3 / stats::mean(p))
            .collect::<Vec<_>>(),
    );
    out.named = vec![
        Metric::new("compile_ms_p50", p50, "ms", Clock::Host).pct(n, 50.0),
        Metric::new("compile_ms_p99", tail, "ms", Clock::Host).pct(n, tail_p),
        Metric::new("compiles_per_s", per_s, "1/s", Clock::Host).over(n),
        Metric::new("tuning_s", tuning_s, "s", Clock::Sim).over(ROUNDS_PER_PASS),
        Metric::new("sim_infer_ms", sim_infer_ms, "ms", Clock::Sim).over(sims.len()),
    ];
    out.e2e = vec![
        Metric::new("setup_s", setup_s, "s", Clock::Host).over(SETUPS),
        Metric::new("peak_rss_mb", rss_mb, "MB", Clock::Host),
        Metric::new("latency_p50_ms", p50, "ms", Clock::Host).pct(n, 50.0),
    ];
    out.note("compile.passes", passes);
    out.note("compile.compiles_per_pass", per_pass);
    out.note("compile.batches", "seeded 1 or 32 per (model, arch, round)");

    if args.trace && !traced_layers.is_empty() {
        let m =
            |f: fn(&Traced) -> f64| stats::mean(&traced_layers.iter().map(f).collect::<Vec<_>>());
        let measured: usize = sims.iter().map(|s| s.measured).sum();
        let pruned: usize = sims.iter().map(|s| s.pruned).sum();
        let count = sims.len() as f64;
        let per_arch = |a: usize| {
            let v: Vec<f64> = rounds
                .iter()
                .flatten()
                .zip(&sims)
                .filter(|(j, _)| j.arch == a)
                .map(|(_, s)| s.total_us)
                .collect();
            stats::geomean(&v)
        };
        let nt = traced_layers.len();
        out.layers = vec![
            Metric::new(
                "trace.overhead_frac",
                stats::mean(&traced_ms) / stats::mean(&host_ms.concat()) - 1.0,
                "frac",
                Clock::Host,
            )
            .over(nt),
            Metric::new(
                "rss.growth_mb_per_pass",
                rss_growth_per_pass(rss_mb, (passes + traced_passes) as usize),
                "MB",
                Clock::Host,
            ),
            Metric::new("graph.passes_ms", m(|t| t.passes_ms), "ms", Clock::Host).over(nt),
            Metric::new("graph.nodes", m(|t| t.nodes as f64), "count", Clock::Count).over(nt),
            Metric::new(
                "profiler.profile_ms",
                m(|t| t.profile_ms),
                "ms",
                Clock::Host,
            )
            .over(nt),
            Metric::new(
                "profiler.measured",
                measured as f64 / count,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "profiler.pruned",
                pruned as f64 / count,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "profiler.prune_frac",
                pruned as f64 / (measured + pruned).max(1) as f64,
                "frac",
                Clock::Count,
            ),
            Metric::new("compile.rest_ms", m(|t| t.rest_ms), "ms", Clock::Host).over(nt),
            Metric::new("compile.tuning_s", tuning_s, "s", Clock::Sim).over(ROUNDS_PER_PASS),
            Metric::new("compile.sim_infer_ms", sim_infer_ms, "ms", Clock::Sim).over(sims.len()),
            Metric::new(
                "kernels.count",
                sims.iter().map(|s| s.kernels as f64).sum::<f64>() / count,
                "count",
                Clock::Count,
            ),
            Metric::new("kernels.sim_us.t4", per_arch(0), "us", Clock::Sim),
            Metric::new("kernels.sim_us.v100", per_arch(1), "us", Clock::Sim),
            Metric::new("kernels.sim_us.a100", per_arch(2), "us", Clock::Sim),
        ];
        // Per model and arch: kernels and sim µs at each batch drawn.
        let mut cells = std::collections::BTreeMap::new();
        for (job, s) in rounds.iter().flatten().zip(&sims) {
            cells.insert(
                format!(
                    "{}.{}.b{}",
                    MODELS[job.model], ARCHS[job.arch], BATCHES[job.batch]
                ),
                (s.kernels, s.total_us),
            );
        }
        for (cell, (kernels, us)) in cells {
            out.note(
                &format!("kernels.{cell}"),
                format!("{kernels} kernels, {us:.3} us sim"),
            );
        }
        out.tracer = Some(tracer);
    }
    out
}
