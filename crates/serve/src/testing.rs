//! Test support shared by the serving and cluster test suites.
//!
//! Tests and benches that don't care *which* architecture they run on
//! should build their registries from [`test_arch`] instead of
//! hardcoding a preset, so the whole suite can be re-pointed at another
//! simulated GPU (`BOLT_TEST_ARCH=a100 cargo test`) to shake out
//! arch-dependent assumptions.
//!
//! Tests that need queued work to *stay* queued — gauges, backpressure,
//! abort, `batch_timeout` itself — first [`occupy_streams`]: batch
//! dispatch is work-conserving, so a partial batch waits out the timeout
//! only while every simulated stream is busy.

use std::sync::Mutex;

use bolt_gpu_sim::GpuArch;
use bolt_graph::GraphBuilder;
use bolt_tensor::{DType, Tensor};

use crate::{EngineRegistry, Outcome, RequestHandle, Result};

/// The architecture the test suite compiles for: the `BOLT_TEST_ARCH`
/// environment variable resolved through [`GpuArch::preset`] (`t4`,
/// `v100`, or `a100`), defaulting to Tesla T4.
///
/// # Panics
///
/// Panics when `BOLT_TEST_ARCH` is set to a name no preset matches —
/// silently falling back would run the suite on the wrong hardware
/// model.
pub fn test_arch() -> GpuArch {
    match std::env::var("BOLT_TEST_ARCH") {
        Ok(name) => GpuArch::preset(&name).unwrap_or_else(|| {
            panic!(
                "BOLT_TEST_ARCH={name:?} matches no preset (known: {})",
                GpuArch::PRESET_NAMES.join(", ")
            )
        }),
        Err(_) => GpuArch::tesla_t4(),
    }
}

/// The model [`occupy_streams`] loads the streams with.
const BALLAST_MODEL: &str = "stream-ballast";

/// The least simulated time one ballast batch occupies a stream, µs —
/// longer than any test that relies on held streams runs.
pub const BALLAST_MIN_US: f64 = 30e6;

/// Width of the ballast's square dense layers: at batch 1 each streams a
/// 4M × 4M f16 weight, tens of simulated seconds on every preset.
const BALLAST_WIDTH: usize = 1 << 22;

/// Registers [`BALLAST_MODEL`] on `registry` unless it is already there:
/// a shapes-only dense stack (priced, never computed) with one
/// heuristic batch-1 engine, so registering profiles nothing and leaves
/// the autotune cache untouched. Concurrent callers on one registry
/// all return once the engine is in place.
fn register_ballast(registry: &EngineRegistry) -> Result<()> {
    // The model is registered before its engine is inserted; serialize
    // so no caller sees it half-built.
    static REGISTERING: Mutex<()> = Mutex::new(());
    let _guard = REGISTERING.lock().unwrap_or_else(|e| e.into_inner());
    if registry.get(BALLAST_MODEL).is_some() {
        return Ok(());
    }
    registry.register_dynamic(BALLAST_MODEL, |batch| {
        let mut b = GraphBuilder::shapes_only(DType::F16);
        let mut h = b.input(&[batch, 8]);
        for layer in 0..3 {
            h = b.dense(h, BALLAST_WIDTH, &format!("ballast{layer}"));
        }
        b.finish(&[h])
    })?;
    let engine = registry.compile_heuristic_bucket(BALLAST_MODEL, 1)?;
    let sim_us = engine.price().total_us;
    assert!(
        sim_us >= BALLAST_MIN_US,
        "the ballast holds a {} stream for only {sim_us:.0} µs",
        registry.arch().name
    );
    registry.insert_bucket(BALLAST_MODEL, 1, engine)?;
    Ok(())
}

/// Occupies each of a server's `workers` simulated streams with a
/// ballast batch, so that for the next [`BALLAST_MIN_US`] no stream is
/// free and partial batches wait out `batch_timeout` as they do under
/// load. `submit` sends one request to the server (directly, or through
/// a cluster replica) and returns its handle.
///
/// Ballast requests go in one at a time, each awaited, until `workers`
/// of them have started on a free stream. One that a busy stream picked
/// up (possible when it times out before a free worker is back asking
/// for work) only lengthens that stream's backlog, so the loop needs no
/// sleeps and ends in a known state. Returns how many ballast requests
/// completed, for tests that count batches or completions.
///
/// # Panics
///
/// When the ballast cannot be registered or prices below
/// [`BALLAST_MIN_US`] on the registry's architecture, a ballast request
/// does not complete, or the streams are not all occupied after 64
/// tries each.
pub fn occupy_streams(
    registry: &EngineRegistry,
    workers: usize,
    mut submit: impl FnMut(&str, Vec<Tensor>) -> RequestHandle,
) -> u64 {
    register_ballast(registry).expect("the ballast registers");
    let (mut occupied, mut sent) = (0, 0u64);
    while occupied < workers {
        assert!(
            sent < 64 * workers as u64,
            "{sent} ballast requests occupied only {occupied} of {workers} streams"
        );
        sent += 1;
        let sample = vec![Tensor::randn(&[1, 8], DType::F16, 0)];
        match submit(BALLAST_MODEL, sample).wait() {
            // Started at once: this stream was free, and is busy now.
            Outcome::Completed(r) if r.latency.queue_us < BALLAST_MIN_US / 2.0 => occupied += 1,
            Outcome::Completed(_) => {}
            other => panic!("ballast request did not complete: {other:?}"),
        }
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_t4() {
        // The suite never sets BOLT_TEST_ARCH from inside a test (env
        // vars are process-global); this only checks the default path.
        if std::env::var_os("BOLT_TEST_ARCH").is_none() {
            assert_eq!(test_arch().name, "Tesla T4");
        }
    }
}
