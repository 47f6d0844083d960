//! The one launch path both batchers share: place a batch on an engine,
//! execute it in bucket-sized launches, and price it from the engine's
//! memoized [`bolt::ExecutionPlan::price`].

use std::sync::Arc;

use bolt_tensor::Tensor;

use crate::online::{Acquired, OnlineEngineManager};
use crate::registry::ModelEngines;
use crate::{Result, ServeError};

/// What one batch's launches did, for the caller to fold into its
/// metrics and clock.
pub(crate) struct Launch {
    /// Bucket, engine, launch count, and fallback/degraded flags.
    pub placed: Acquired,
    /// Simulated time of every launch together, µs.
    pub sim_us: f64,
    /// FLOPs spent on real rows (pad rows excluded).
    pub real_flops: f64,
    /// FLOPs the bucket-sized launches issued.
    pub launched_flops: f64,
    /// One output set per input sample, when the model runs
    /// functionally; `None` for timing-only models.
    pub outputs: Option<Vec<Vec<Tensor>>>,
}

/// Places `samples` — `real_rows` of them genuine, the rest resident
/// padding — on one of `model`'s engines, through `online` when set (a
/// fallback placement may trigger a background tune) else on the
/// precompiled buckets, and runs them in bucket-sized launches when the
/// model executes functionally.
///
/// # Errors
///
/// [`ServeError::NoEngine`] when the batch cannot be placed, or the
/// engine's error when a launch fails; nothing is charged either way.
pub(crate) fn launch(
    online: Option<&OnlineEngineManager>,
    model: &Arc<ModelEngines>,
    samples: &[Vec<Tensor>],
    real_rows: usize,
) -> Result<Launch> {
    let rows = samples.len();
    let placed = match online {
        Some(manager) => manager.acquire(model, rows)?,
        None => model
            .placement_for(rows)
            .ok_or_else(|| ServeError::NoEngine {
                model: model.name().to_string(),
                reason: "model has no compiled buckets".into(),
            })?,
    };
    let bucket = placed.bucket.max(1);
    let outputs = if model.functional() {
        let mut outs = Vec::with_capacity(rows);
        for chunk in samples.chunks(bucket) {
            outs.extend(placed.engine.run_batched(chunk)?);
        }
        Some(outs)
    } else {
        None
    };
    let price = placed.engine.price();
    let flops = placed.engine.flops();
    Ok(Launch {
        sim_us: price.total_us * placed.launches as f64,
        real_flops: flops * real_rows as f64 / bucket as f64,
        launched_flops: flops * placed.launches as f64,
        placed,
        outputs,
    })
}
