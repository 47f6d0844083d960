//! The repository benchmark. Three workloads drive `bolt`, `bolt-serve`
//! and `bolt-cluster` through their public APIs:
//!
//! - `compile`: cold compiles of a seeded draw of zoo models for T4,
//!   V100 and A100 (graph passes, profiler, lowering; no serving);
//! - `serve`: an open loop of single-sample requests through
//!   `Cluster::submit` over a fixed ladder of offered rates;
//! - `llm`: an offline batch of seeded sequences through the
//!   `tiny-lm` continuous batcher under a KV budget that preempts.
//!
//! Usage: `perfbench --workload <compile|serve|llm> --seed <n>
//! --seconds <s> --trace <0|1>`. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics of `BENCHMARK.json` untraced (`--trace 0`), or the
//! per-layer metrics from a traced run (`--trace 1`). Lines before it
//! print every metric by name with its unit and clock, the per-layer
//! span table, and a provenance object. Spans and the report are also
//! written under `perfbench/out/`. The exit code is 1 when an output or
//! sum check fails.

mod compile;
mod llm;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{json_str, Clock, Metric};

/// End-to-end metrics every workload reports, with units. What each
/// means per workload is in `perfbench/README.md`.
const E2E: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics of a traced run, with units. A workload reports
/// zero for a layer it does not load.
const LAYERS: [(&str, &str); 64] = [
    ("trace.overhead_frac", "frac"),
    ("rss.growth_mb_per_pass", "MB"),
    // compile
    ("graph.passes_ms", "ms"),
    ("graph.nodes", "count"),
    ("profiler.profile_ms", "ms"),
    ("profiler.measured", "count"),
    ("profiler.pruned", "count"),
    ("profiler.prune_frac", "frac"),
    ("compile.rest_ms", "ms"),
    ("compile.tuning_s", "s"),
    ("compile.sim_infer_ms", "ms"),
    ("kernels.count", "count"),
    ("kernels.sim_us.t4", "us"),
    ("kernels.sim_us.v100", "us"),
    ("kernels.sim_us.a100", "us"),
    // serve
    ("loadgen.lag_ms_p99", "ms"),
    ("cluster.submit_us_p50", "us"),
    ("cluster.submit_us_p99", "us"),
    ("server.queue_ms_p50", "ms"),
    ("server.queue_ms_p99", "ms"),
    ("server.kernel_us_p50", "us"),
    ("server.mean_batch", "count"),
    ("server.padding_frac", "frac"),
    ("server.shed", "count"),
    ("server.queue_full", "count"),
    ("plan.run_batched_us.mlp-small.b1", "us"),
    ("plan.run_batched_us.mlp-small.b8", "us"),
    ("plan.run_batched_us.mlp-large.b1", "us"),
    ("plan.run_batched_us.mlp-large.b8", "us"),
    ("plan.run_batched_us.cnn-small.b1", "us"),
    ("plan.run_batched_us.cnn-small.b8", "us"),
    // llm
    ("batcher.step_us_p50.decode", "us"),
    ("batcher.step_us_p99.decode", "us"),
    ("batcher.step_us_p50.prefill", "us"),
    ("batcher.step_us_p99.prefill", "us"),
    ("batcher.mean_live", "count"),
    ("batcher.padding_frac", "frac"),
    ("batcher.tokens_per_step", "count"),
    ("batcher.loop_overhead_frac", "frac"),
    ("batcher.sim_tokens_per_s", "1/s"),
    ("batcher.sim_ttft_p99_ms", "ms"),
    ("batcher.sim_repeat", "flag"),
    ("kv.preemptions", "count"),
    ("kv.recompute_tokens", "count"),
    ("kv.peak_blocks", "count"),
    ("kv.fresh_allocs", "count"),
    ("online.fallback_served", "count"),
    ("online.hot_swaps", "count"),
    ("online.tuning_s", "s"),
    ("decode_gemm.run_batched_us.qkv.m1", "us"),
    ("decode_gemm.run_batched_us.qkv.m2", "us"),
    ("decode_gemm.run_batched_us.qkv.m4", "us"),
    ("decode_gemm.run_batched_us.qkv.m8", "us"),
    ("decode_gemm.run_batched_us.post.m1", "us"),
    ("decode_gemm.run_batched_us.post.m2", "us"),
    ("decode_gemm.run_batched_us.post.m4", "us"),
    ("decode_gemm.run_batched_us.post.m8", "us"),
    ("decode_gemm.run_batched_us.lm_head.m1", "us"),
    ("decode_gemm.run_batched_us.lm_head.m2", "us"),
    ("decode_gemm.run_batched_us.lm_head.m4", "us"),
    ("decode_gemm.run_batched_us.lm_head.m8", "us"),
    ("attention.us.ctx16", "us"),
    ("attention.us.ctx32", "us"),
    ("attention.us.ctx48", "us"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `compile`, `serve` or `llm`.
    pub workload: String,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Run the traced passes and report per-layer metrics.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["compile", "serve", "llm"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (compile, serve, llm)"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

/// Peak resident set of this process so far, MB (`VmHWM`). Workloads
/// read it after a fixed amount of timed work (their first pass; for
/// `serve`, its rungs below the knee), so the figure does not depend on
/// how much work fits in the window, and report growth after that per
/// pass.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU jiffies from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else, a measure of
/// noise from neighbours.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// User and system CPU seconds and minor page faults of this process
/// (`/proc/self/stat`; CPU time in clock ticks of 1/100 s).
fn cpu_usage() -> Option<(f64, f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name: minflt, utime and
    // stime are the 10th, 14th and 15th fields overall.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((field(11)? / 100.0, field(12)? / 100.0, field(7)?))
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

/// The checked-out git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.find(' ').unwrap_or(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Median of `runs` timed set-ups; returns it with the last set-up's
/// product, which the timed passes use.
pub fn timed_setups<T>(runs: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(runs);
    let mut kept = None;
    for _ in 0..runs {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), kept.expect("at least one set-up"))
}

/// MB of peak-RSS growth per pass after the first of `passes`.
pub fn rss_growth_per_pass(first_mb: f64, passes: usize) -> f64 {
    (peak_rss_mb() - first_mb) / passes.saturating_sub(1).max(1) as f64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // No disk cache or bundle may leak into a cold compile.
    std::env::remove_var("BOLT_TUNE_CACHE");
    std::env::remove_var("BOLT_TUNE_BUNDLE");

    let steal0 = cpu_jiffies();
    let mut outcome = match args.workload.as_str() {
        "compile" => compile::run(&args),
        "serve" => serve::run(&args),
        _ => llm::run(&args),
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (steal0, cpu_jiffies()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        outcome.note("host.steal_frac", format!("{share:.4}"));
    }
    outcome.note("rss.end_peak_mb", format!("{:.1}", peak_rss_mb()));
    if let Some((user, sys, faults)) = cpu_usage() {
        outcome.note("host.cpu_user_s", format!("{user:.2}"));
        outcome.note("host.cpu_sys_s", format!("{sys:.2}"));
        outcome.note("host.minor_faults", faults);
    }

    let out_dir = repo_root().join("perfbench").join("out");
    let _ = std::fs::create_dir_all(&out_dir);
    let mut printed = String::new();
    printed.push_str(&report::table(
        &format!("{} end-to-end (descriptive names)", args.workload),
        &outcome.named,
    ));
    printed.push_str(&report::table(
        &format!("{} end-to-end (BENCHMARK.json names)", args.workload),
        &outcome.e2e,
    ));
    if args.trace {
        printed.push_str(&report::table(
            &format!("{} per-layer", args.workload),
            &outcome.layers,
        ));
    }
    if let Some(tracer) = &outcome.tracer {
        printed.push_str("== span table (count, total ms, self ms, p50 us, tail)\n");
        for row in tracer.table() {
            printed.push_str(&format!(
                "  {:<40} {:>8} {:>12.3} {:>12.3} {:>12.2}  p{}={:.2}us\n",
                row.name,
                row.count,
                row.total_us / 1e3,
                row.self_us / 1e3,
                row.p50_us,
                row.tail_p,
                row.tail_us
            ));
        }
        let spans = out_dir.join(format!("{}-spans.json", args.workload));
        if let Err(e) = tracer.write(&spans) {
            eprintln!("perfbench: writing {}: {e}", spans.display());
        }
    }
    printed.push_str("== checks\n");
    for c in &outcome.checks {
        printed.push_str(&format!(
            "  {:<28} checked {:>7} failed {:>4}  {}\n",
            c.name, c.checked, c.failed, c.detail
        ));
    }

    for m in &outcome.layers {
        assert!(
            LAYERS.iter().any(|&(name, _)| name == m.name),
            "{} is not a per-layer metric of BENCHMARK.json",
            m.name
        );
    }
    let reported: Vec<Metric> = if args.trace {
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                outcome
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(name, 0.0, unit, Clock::Count))
            })
            .collect()
    } else {
        E2E.iter()
            .map(|&(name, _)| {
                outcome
                    .e2e
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("{} did not report {name}", args.workload))
            })
            .collect()
    };
    for (m, &(name, unit)) in reported
        .iter()
        .zip(if args.trace { &LAYERS[..] } else { &E2E[..] })
    {
        assert_eq!(
            (m.name.as_str(), m.unit),
            (name, unit),
            "metric unit drifted"
        );
    }

    let mut all = outcome.named.clone();
    all.extend(outcome.e2e.iter().cloned());
    all.extend(outcome.layers.iter().cloned());
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"nproc\": {}, {}, \"metrics\": {}}}",
        json_str(&args.workload),
        args.seed,
        report::json_num(args.seconds),
        args.trace,
        json_str(&git_rev()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        notes.join(", "),
        report::provenance_json(&all)
    );
    printed.push_str(&format!("provenance {provenance}\n"));
    let _ = std::fs::write(
        out_dir.join(format!("{}-report.txt", args.workload)),
        &printed,
    );
    print!("{printed}");

    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        report::metrics_json(&reported)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this binary reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut ours: Vec<&str> = vec!["compile", "serve", "llm"];
        ours.extend(E2E.iter().map(|m| m.0));
        ours.extend(LAYERS.iter().map(|m| m.0));
        assert_eq!(listed, ours);
        for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    fn setups_report_the_median_and_keep_the_last() {
        let mut n = 0;
        let (median, last) = timed_setups(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(median >= 0.0);
    }
}
