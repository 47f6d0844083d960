//! Lowering: optimized graph → executable steps.
//!
//! This is where Bolt's graph-level optimizations happen:
//!
//! * **Epilogue fusion** (Section 3.1): each Dense/Conv2d anchor absorbs
//!   its following BiasAdd, residual Add (GEMM only), and activation into
//!   a CUTLASS epilogue, so the whole pattern runs as one kernel.
//! * **Persistent-kernel fusion** (Section 3.1.1): back-to-back
//!   GEMM/GEMM and Conv/1×1-Conv step pairs that satisfy threadblock
//!   residence are merged into one persistent kernel — but only when the
//!   profiler says the fused kernel is actually faster (the paper's
//!   "fusing compute-bound operators could lead to performance drops").
//! * **Kernel padding** (Section 3.2.3): convolutions with channel counts
//!   not divisible by 8 are rebuilt over padded inputs/filters; the pad
//!   kernel's cost is charged unless it folds into the boundary layout
//!   transform.
//! * **Layout planning** (Section 3.2.3): one fused NCHW→NHWC transform
//!   at the first layer and one back at the last, instead of standalone
//!   transform kernels around every offloaded region.

use std::collections::HashSet;

use bolt_cutlass::{
    B2bConvKernel, B2bGemmKernel, BiasMode, Conv2dKernel, Epilogue, GemmKernel, GemmProblem,
    PersistentGemmChain,
};
use bolt_gpu_sim::GpuArch;
use bolt_graph::{Graph, Node, NodeId, OpKind};
use bolt_tensor::conv_ref::Conv2dProblem;
use bolt_tensor::{Activation, DType};

use crate::config::BoltConfig;
use crate::error::BoltError;
use crate::profiler::{BoltProfiler, ProfileTask};
use crate::runtime::{Step, StepKind};
use crate::Result;

/// Result of epilogue absorption starting at an anchor node.
#[derive(Debug, Clone)]
pub(crate) struct AbsorbedEpilogue {
    /// Bias constant node, if a BiasAdd was absorbed.
    pub bias: Option<NodeId>,
    /// Residual activation input, if an Add was absorbed.
    pub residual: Option<NodeId>,
    /// Absorbed activation (Identity if none).
    pub activation: Activation,
    /// The node whose value the fused kernel produces.
    pub output: NodeId,
    /// All nodes folded into the kernel (anchor first).
    pub covered: Vec<NodeId>,
}

/// Greedily absorbs the epilogue chain hanging off `anchor`:
/// `[BiasAdd] [Add] [Activation]`, each only when the intermediate value
/// has no other consumer.
pub(crate) fn absorb_epilogue(
    graph: &Graph,
    anchor: &Node,
    allow_residual: bool,
    enabled: bool,
) -> AbsorbedEpilogue {
    absorb_epilogue_ext(graph, anchor, allow_residual, false, enabled)
}

/// Like [`absorb_epilogue`], but optionally absorbing a residual Add even
/// after a BiasAdd. CUTLASS epilogues cannot combine a per-column bias
/// with a full-matrix residual, so Bolt's lowering never sets
/// `residual_with_bias`; TVM's injective output fusion can, so the Ansor
/// baseline does.
pub(crate) fn absorb_epilogue_ext(
    graph: &Graph,
    anchor: &Node,
    allow_residual: bool,
    residual_with_bias: bool,
    enabled: bool,
) -> AbsorbedEpilogue {
    let mut absorbed = AbsorbedEpilogue {
        bias: None,
        residual: None,
        activation: Activation::Identity,
        output: anchor.id,
        covered: vec![anchor.id],
    };
    if !enabled {
        return absorbed;
    }
    let mut cur = anchor.id;
    while let Some(next) = graph.single_consumer(cur) {
        let node = graph.node(next);
        match &node.kind {
            OpKind::BiasAdd
                if absorbed.bias.is_none()
                    && absorbed.residual.is_none()
                    && absorbed.activation == Activation::Identity =>
            {
                let bias_src = node.inputs[1];
                if !matches!(graph.node(bias_src).kind, OpKind::Constant { .. }) {
                    break;
                }
                absorbed.bias = Some(bias_src);
            }
            OpKind::Add
                if allow_residual
                    && (absorbed.bias.is_none() || residual_with_bias)
                    && absorbed.residual.is_none()
                    && absorbed.activation == Activation::Identity =>
            {
                let other = if node.inputs[0] == cur {
                    node.inputs[1]
                } else {
                    node.inputs[0]
                };
                // The residual operand must already be available when this
                // kernel runs: it has to precede the anchor in topo order.
                if other.index() >= anchor.id.index() {
                    break;
                }
                absorbed.residual = Some(other);
            }
            OpKind::Activation(act) if absorbed.activation == Activation::Identity => {
                absorbed.activation = *act;
                absorbed.covered.push(next);
                absorbed.output = next;
                break; // activation terminates the epilogue
            }
            _ => break,
        }
        absorbed.covered.push(next);
        absorbed.output = next;
        cur = next;
    }
    absorbed
}

/// Builds the CUTLASS epilogue for an absorption result.
fn build_epilogue(absorbed: &AbsorbedEpilogue, out_dtype: DType) -> Epilogue {
    let bias = if absorbed.residual.is_some() {
        BiasMode::Full
    } else if absorbed.bias.is_some() {
        BiasMode::PerColumn
    } else {
        BiasMode::None
    };
    Epilogue {
        alpha: 1.0,
        beta: if bias == BiasMode::None { 0.0 } else { 1.0 },
        bias,
        activation: absorbed.activation,
        out_dtype,
        column_reduction: false,
    }
}

/// A Dense anchor's derived profiling workload.
struct DenseWorkload {
    problem: GemmProblem,
    absorbed: AbsorbedEpilogue,
    epilogue: Epilogue,
}

fn dense_workload(graph: &Graph, node: &Node, config: &BoltConfig) -> DenseWorkload {
    let x = graph.node(node.inputs[0]);
    let w = graph.node(node.inputs[1]);
    let problem = GemmProblem {
        m: x.shape.dim(0),
        n: w.shape.dim(0),
        k: w.shape.dim(1),
        batch: 1,
        element: node.dtype,
        ..GemmProblem::fp16(1, 1, 1)
    };
    let absorbed = absorb_epilogue(graph, node, true, config.epilogue_fusion);
    let epilogue = build_epilogue(&absorbed, node.dtype);
    DenseWorkload {
        problem,
        absorbed,
        epilogue,
    }
}

/// A Conv2d anchor's derived profiling workload (post-padding).
struct ConvWorkload {
    problem: Conv2dProblem,
    pad_to: Option<usize>,
    pad_fused: bool,
    absorbed: AbsorbedEpilogue,
    epilogue: Epilogue,
}

fn conv_workload(graph: &Graph, node: &Node, config: &BoltConfig) -> ConvWorkload {
    let OpKind::Conv2d {
        stride,
        padding,
        dilation,
    } = node.kind
    else {
        unreachable!("conv_workload called on non-conv");
    };
    let x = graph.node(node.inputs[0]);
    let w = graph.node(node.inputs[1]);
    let mut problem = Conv2dProblem {
        n: x.shape.dim(0),
        h: x.shape.dim(2),
        w: x.shape.dim(3),
        c: x.shape.dim(1),
        k: w.shape.dim(0),
        r: w.shape.dim(2),
        s: w.shape.dim(3),
        stride,
        padding,
        dilation,
    };

    // ---- Automatic kernel padding -----------------------------------------
    let needs_pad = config.kernel_padding && !problem.c.is_multiple_of(8);
    let pad_to = if needs_pad {
        Some(problem.c.div_ceil(8) * 8)
    } else {
        None
    };
    if let Some(pc) = pad_to {
        problem.c = pc;
    }
    // The pad folds into the boundary layout transform when this conv reads
    // a graph input directly (the model's first layer).
    let pad_fused = matches!(graph.node(node.inputs[0]).kind, OpKind::Input { .. })
        && config.layout_transform_folding;

    let absorbed = absorb_epilogue(graph, node, false, config.epilogue_fusion);
    let epilogue = build_epilogue(&absorbed, node.dtype);
    ConvWorkload {
        problem,
        pad_to,
        pad_fused,
        absorbed,
        epilogue,
    }
}

/// Phase 1 of lowering: walk the graph and derive the profiling task of
/// every GEMM/Conv2D anchor, exactly as phase 2 will request them.
///
/// Anchors are never absorbed into other anchors' epilogues (only
/// BiasAdd/Add/Activation nodes are), so every anchor can be visited
/// unconditionally and the resulting task set matches the per-node
/// lookups of [`lower`] one-to-one. Duplicate workloads (e.g. the
/// repeated blocks of a ResNet) are left in — [`BoltProfiler::profile_batch`]
/// deduplicates by cache key.
pub(crate) fn collect_profile_tasks(graph: &Graph, config: &BoltConfig) -> Vec<ProfileTask> {
    let mut tasks = Vec::new();
    for node in graph.nodes() {
        if node.kind.is_data() {
            continue;
        }
        match &node.kind {
            OpKind::Dense => {
                let wl = dense_workload(graph, node, config);
                tasks.push(ProfileTask::Gemm {
                    problem: wl.problem,
                    epilogue: wl.epilogue,
                });
            }
            OpKind::Conv2d { .. } => {
                let wl = conv_workload(graph, node, config);
                tasks.push(ProfileTask::Conv2d {
                    problem: wl.problem,
                    epilogue: wl.epilogue,
                    element: node.dtype,
                });
            }
            _ => {}
        }
    }
    tasks
}

/// Lowers an optimized graph to steps.
///
/// Lowering is two-phase: first every unique GEMM/Conv2D workload in the
/// graph is profiled as one batch ([`collect_profile_tasks`] +
/// [`BoltProfiler::profile_batch`]), fanning measurements across worker
/// threads; then the per-node lowering below runs against the now-warm
/// cache, so graph rewriting never serializes behind measurement.
pub(crate) fn lower(
    graph: &Graph,
    arch: &GpuArch,
    config: &BoltConfig,
    profiler: &BoltProfiler,
) -> Result<Vec<Step>> {
    profiler.profile_batch(&collect_profile_tasks(graph, config));

    let mut steps: Vec<Step> = Vec::new();
    let mut covered: HashSet<NodeId> = HashSet::new();

    for node in graph.nodes() {
        if node.kind.is_data() || covered.contains(&node.id) {
            continue;
        }
        match &node.kind {
            OpKind::Dense => {
                let step = lower_dense(graph, node, config, profiler)?;
                covered.extend(step.covered.iter().copied());
                steps.push(step);
            }
            OpKind::Conv2d { .. } => {
                let (pad, step) = lower_conv(graph, node, config, profiler)?;
                covered.extend(step.covered.iter().copied());
                if let Some(pad) = pad {
                    steps.push(pad);
                }
                steps.push(step);
            }
            _ => {
                covered.insert(node.id);
                steps.push(Step {
                    name: format!("host_{}_{}", node.kind.name(), node.id.index()),
                    kind: StepKind::Host,
                    inputs: node.inputs.clone(),
                    output: node.id,
                    covered: vec![node.id],
                });
            }
        }
    }

    if config.persistent_kernels {
        steps = fuse_persistent(graph, arch, steps)?;
    }
    steps = fuse_host_chains(graph, steps);
    add_layout_steps(graph, config, &mut steps);
    Ok(steps)
}

/// TVM-style injective fusion of the *fallback* side: maximal chains of
/// elementwise host ops (Add, BiasAdd, activation, unfolded BatchNorm)
/// become one elementwise kernel. Both Bolt's fallback and the Ansor
/// baseline get this, so the comparison stays fair.
fn fuse_host_chains(graph: &Graph, steps: Vec<Step>) -> Vec<Step> {
    let mut steps = steps;
    'outer: loop {
        for i in 0..steps.len() {
            if !matches!(steps[i].kind, StepKind::Host)
                || !crate::runtime::is_injective(&graph.node(steps[i].output).kind)
            {
                continue;
            }
            let output = steps[i].output;
            if graph.consumers(output).len() != 1 || graph.outputs().contains(&output) {
                continue;
            }
            let Some(j) = steps.iter().position(|s| {
                matches!(s.kind, StepKind::Host)
                    && s.inputs.contains(&output)
                    && crate::runtime::is_injective(&graph.node(s.output).kind)
            }) else {
                continue;
            };
            let tail = steps.remove(j);
            let idx = if j < i { i - 1 } else { i };
            let head = &mut steps[idx];
            head.covered.extend(tail.covered.iter().copied());
            head.output = tail.output;
            head.name = format!("host_fused_eltwise_{}", tail.output.index());
            // External inputs of the merged group.
            let mut inputs = head.inputs.clone();
            for input in tail.inputs {
                if input != output && !inputs.contains(&input) {
                    inputs.push(input);
                }
            }
            head.inputs = inputs;
            continue 'outer;
        }
        return steps;
    }
}

fn lower_dense(
    graph: &Graph,
    node: &Node,
    config: &BoltConfig,
    profiler: &BoltProfiler,
) -> Result<Step> {
    let DenseWorkload {
        problem,
        absorbed,
        epilogue,
    } = dense_workload(graph, node, config);
    let profiled =
        profiler
            .profile_gemm(&problem, &epilogue)
            .ok_or_else(|| BoltError::NoKernel {
                workload: problem.to_string(),
            })?;
    let kernel = GemmKernel::new(problem, profiled.config, epilogue);

    let mut inputs = vec![node.inputs[0]];
    if let Some(r) = absorbed.residual {
        inputs.push(r);
    }
    Ok(Step {
        name: format!("bolt_{}_{}", kernel.name(), node.id.index()),
        kind: StepKind::Gemm {
            kernel,
            weight: node.inputs[1],
            bias: absorbed.bias,
            residual: absorbed.residual,
        },
        inputs,
        output: absorbed.output,
        covered: absorbed.covered,
    })
}

fn lower_conv(
    graph: &Graph,
    node: &Node,
    config: &BoltConfig,
    profiler: &BoltProfiler,
) -> Result<(Option<Step>, Step)> {
    let ConvWorkload {
        problem,
        pad_to,
        pad_fused,
        absorbed,
        epilogue,
    } = conv_workload(graph, node, config);
    let x = graph.node(node.inputs[0]);
    let profiled = profiler
        .best_conv_config(&problem, &epilogue, node.dtype)
        .ok_or_else(|| BoltError::NoKernel {
            workload: format!("{problem:?}"),
        })?;
    let kernel = Conv2dKernel::new(problem, profiled, epilogue, node.dtype);

    let pad_step = match (pad_to, pad_fused) {
        (Some(pc), false) => {
            let elt = node.dtype.size_bytes() as f64;
            let in_elems = (problem.n * problem.h * problem.w) as f64;
            let bytes = in_elems * (x.shape.dim(1) as f64 + pc as f64) * elt;
            Some(Step {
                name: format!(
                    "bolt_pad_channels_{}_{}to{}",
                    node.id.index(),
                    x.shape.dim(1),
                    pc
                ),
                kind: StepKind::PadChannels { bytes },
                inputs: vec![node.inputs[0]],
                output: node.inputs[0],
                covered: Vec::new(),
            })
        }
        _ => None,
    };

    let step = Step {
        name: format!("bolt_{}_{}", kernel.name(), node.id.index()),
        kind: StepKind::Conv2d {
            kernel,
            filter: node.inputs[1],
            bias: absorbed.bias,
            pad_to,
            pad_fused,
        },
        inputs: vec![node.inputs[0]],
        output: absorbed.output,
        covered: absorbed.covered,
    };
    Ok((pad_step, step))
}

/// Post-pass: merge profitable back-to-back kernel pairs into persistent
/// kernels.
fn fuse_persistent(graph: &Graph, arch: &GpuArch, steps: Vec<Step>) -> Result<Vec<Step>> {
    let mut steps = steps;
    loop {
        let Some((i, j, fused)) = find_fusion(graph, arch, &steps) else {
            return grow_chains(graph, arch, steps);
        };
        let second = steps.remove(j);
        let first = steps[i].clone();
        let mut covered = first.covered.clone();
        covered.extend(second.covered.iter().copied());
        steps[i] = Step {
            name: format!(
                "bolt_persistent_{}_{}",
                first.output.index(),
                second.output.index()
            ),
            kind: fused,
            inputs: first.inputs.clone(),
            output: second.output,
            covered,
        };
    }
}

/// Second fusion phase: extend fused `B2bGemm` pairs into `N >= 3`-stage
/// persistent chains when a following GEMM step continues the dataflow
/// (paper Section 3.1.1: "fusing multiple GEMMs ... by duplicating the
/// GEMM pipelines").
fn grow_chains(graph: &Graph, arch: &GpuArch, mut steps: Vec<Step>) -> Result<Vec<Step>> {
    'outer: loop {
        for i in 0..steps.len() {
            // Candidate head: an already-fused pair or an existing chain.
            let (mut problems, mut epilogues, mut weights, mut biases) = match &steps[i].kind {
                StepKind::B2bGemm {
                    kernel,
                    w0,
                    b0,
                    w1,
                    b1,
                } => (
                    vec![kernel.gemm0, kernel.gemm1],
                    vec![kernel.epilogue0, kernel.epilogue1],
                    vec![*w0, *w1],
                    vec![*b0, *b1],
                ),
                StepKind::GemmChain {
                    chain,
                    weights,
                    biases,
                } => (
                    chain.stages.iter().map(|s| s.problem).collect(),
                    chain.stages.iter().map(|s| s.epilogue).collect(),
                    weights.clone(),
                    biases.clone(),
                ),
                _ => continue,
            };
            // Find the single Gemm step consuming this step's output.
            let output = steps[i].output;
            if graph.consumers(output).len() != 1 || graph.outputs().contains(&output) {
                continue;
            }
            let Some(j) = steps.iter().position(|s| {
                s.inputs.first() == Some(&output)
                    && matches!(s.kind, StepKind::Gemm { residual: None, .. })
            }) else {
                continue;
            };
            let StepKind::Gemm {
                kernel: next,
                weight,
                bias,
                ..
            } = &steps[j].kind
            else {
                continue;
            };
            problems.push(next.problem);
            epilogues.push(next.epilogue);
            weights.push(*weight);
            biases.push(*bias);

            let Ok(chain) = PersistentGemmChain::auto(arch, &problems, &epilogues) else {
                continue;
            };
            // Profit check: the longer chain must beat head + tail.
            let head_us = match &steps[i].kind {
                StepKind::B2bGemm { kernel, .. } => kernel.time(arch).total_us,
                StepKind::GemmChain { chain, .. } => chain.time(arch).total_us,
                _ => unreachable!(),
            };
            let tail_us = next.time(arch).total_us;
            if chain.time(arch).total_us >= head_us + tail_us {
                continue;
            }

            let tail = steps.remove(j);
            let head = steps[i].clone();
            let mut covered = head.covered.clone();
            covered.extend(tail.covered.iter().copied());
            steps[i] = Step {
                name: format!(
                    "bolt_persistent_chain_x{}_{}",
                    chain.len(),
                    tail.output.index()
                ),
                kind: StepKind::GemmChain {
                    chain,
                    weights,
                    biases,
                },
                inputs: head.inputs.clone(),
                output: tail.output,
                covered,
            };
            continue 'outer;
        }
        return Ok(steps);
    }
}

/// Finds the first profitable fusible pair `(i, j)` and its fused kernel.
fn find_fusion(graph: &Graph, arch: &GpuArch, steps: &[Step]) -> Option<(usize, usize, StepKind)> {
    for i in 0..steps.len() {
        for j in (i + 1)..steps.len() {
            if steps[j].inputs.first() != Some(&steps[i].output) {
                continue;
            }
            // The intermediate must have no other consumers.
            if graph.consumers(steps[i].output).len() != 1
                || graph.outputs().contains(&steps[i].output)
            {
                break;
            }
            match (&steps[i].kind, &steps[j].kind) {
                (
                    StepKind::Gemm {
                        kernel: k0,
                        weight: w0,
                        bias: b0,
                        residual: None,
                    },
                    StepKind::Gemm {
                        kernel: k1,
                        weight: w1,
                        bias: b1,
                        residual: None,
                    },
                ) => {
                    let Ok(fused) =
                        B2bGemmKernel::auto(arch, k0.problem, k1.problem, k0.epilogue, k1.epilogue)
                    else {
                        break;
                    };
                    let fused_us = fused.time(arch).total_us;
                    let unfused_us = k0.time(arch).total_us + k1.time(arch).total_us;
                    if fused_us < unfused_us {
                        return Some((
                            i,
                            j,
                            StepKind::B2bGemm {
                                kernel: fused,
                                w0: *w0,
                                b0: *b0,
                                w1: *w1,
                                b1: *b1,
                            },
                        ));
                    }
                    break;
                }
                (
                    // The first conv may carry automatic padding (it only
                    // affects its own input channels); the second never
                    // needs it because its C equals the first conv's K.
                    StepKind::Conv2d {
                        kernel: k0,
                        filter: f0,
                        bias: b0,
                        pad_to: pad0,
                        ..
                    },
                    StepKind::Conv2d {
                        kernel: k1,
                        filter: f1,
                        bias: b1,
                        pad_to: None,
                        ..
                    },
                ) => {
                    if !k1.problem.is_pointwise_unit() {
                        break;
                    }
                    let Ok(fused) = B2bConvKernel::auto(
                        arch,
                        k0.problem,
                        k1.problem,
                        k0.epilogue,
                        k1.epilogue,
                        k0.element,
                    ) else {
                        break;
                    };
                    let fused_us = fused.time(arch).total_us;
                    let unfused_us = k0.time(arch).total_us + k1.time(arch).total_us;
                    if fused_us < unfused_us {
                        return Some((
                            i,
                            j,
                            StepKind::B2bConv {
                                kernel: fused,
                                f0: *f0,
                                b0: *b0,
                                f1: *f1,
                                b1: *b1,
                                pad_to: *pad0,
                            },
                        ));
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    None
}

/// Adds layout-transformation steps at region boundaries.
fn add_layout_steps(graph: &Graph, config: &BoltConfig, steps: &mut Vec<Step>) {
    let has_conv = steps
        .iter()
        .any(|s| matches!(s.kind, StepKind::Conv2d { .. } | StepKind::B2bConv { .. }));
    if !has_conv {
        return;
    }
    let elt = 2.0f64; // FP16
    let fused = config.layout_transform_folding;

    // Entry: every rank-4 graph input feeding the model.
    let mut entry = Vec::new();
    for id in graph.input_ids() {
        let node = graph.node(id);
        if node.shape.rank() == 4 {
            entry.push(Step {
                name: format!("layout_nchw_to_nhwc_input_{}", id.index()),
                kind: StepKind::LayoutTransform {
                    bytes: node.shape.numel() as f64 * elt,
                    fused,
                },
                inputs: vec![id],
                output: id,
                covered: Vec::new(),
            });
        }
    }
    // Exit: every rank-4 graph output.
    let mut exit = Vec::new();
    for &id in graph.outputs() {
        let node = graph.node(id);
        if node.shape.rank() == 4 {
            exit.push(Step {
                name: format!("layout_nhwc_to_nchw_output_{}", id.index()),
                kind: StepKind::LayoutTransform {
                    bytes: node.shape.numel() as f64 * elt,
                    fused,
                },
                inputs: vec![id],
                output: id,
                covered: Vec::new(),
            });
        }
    }

    // Without folding, every rank-4 crossing between a Bolt kernel and a
    // host op pays a standalone transform kernel (TVM's default BYOC
    // behaviour the paper improves on).
    let mut interior = Vec::new();
    if !fused {
        let kernel_outputs: HashSet<NodeId> = steps
            .iter()
            .filter(|s| !matches!(s.kind, StepKind::Host | StepKind::LayoutTransform { .. }))
            .map(|s| s.output)
            .collect();
        for step in steps.iter() {
            if !matches!(step.kind, StepKind::Host) {
                continue;
            }
            let node = graph.node(step.output);
            // Host op consuming a kernel output.
            for &input in &step.inputs {
                if kernel_outputs.contains(&input) && graph.node(input).shape.rank() == 4 {
                    interior.push(Step {
                        name: format!("layout_nhwc_to_nchw_{}", input.index()),
                        kind: StepKind::LayoutTransform {
                            bytes: graph.node(input).shape.numel() as f64 * elt,
                            fused: false,
                        },
                        inputs: vec![input],
                        output: input,
                        covered: Vec::new(),
                    });
                }
            }
            // Host op feeding a kernel.
            if node.shape.rank() == 4
                && graph
                    .consumers(step.output)
                    .iter()
                    .any(|c| matches!(graph.node(*c).kind, OpKind::Conv2d { .. }))
            {
                interior.push(Step {
                    name: format!("layout_nchw_to_nhwc_{}", step.output.index()),
                    kind: StepKind::LayoutTransform {
                        bytes: node.shape.numel() as f64 * elt,
                        fused: false,
                    },
                    inputs: vec![step.output],
                    output: step.output,
                    covered: Vec::new(),
                });
            }
        }
    }

    let mut result = entry;
    result.append(steps);
    result.extend(interior);
    result.extend(exit);
    *steps = result;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_graph::GraphBuilder;

    #[test]
    fn absorb_full_epilogue_chain() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[8, 16]);
        let d = b.dense_bias(x, 8, "fc"); // dense + bias_add
        let r = b.activation(d, Activation::Gelu, "gelu");
        let g = b.finish(&[r]);
        let anchor = g.nodes().iter().find(|n| n.kind == OpKind::Dense).unwrap();
        let a = absorb_epilogue(&g, anchor, true, true);
        assert!(a.bias.is_some());
        assert_eq!(a.activation, Activation::Gelu);
        assert_eq!(a.covered.len(), 3);
        assert_eq!(a.output, r);
    }

    #[test]
    fn absorption_respects_disable_flag() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[8, 16]);
        let d = b.dense_bias(x, 8, "fc");
        let g = b.finish(&[d]);
        let anchor = g.nodes().iter().find(|n| n.kind == OpKind::Dense).unwrap();
        let a = absorb_epilogue(&g, anchor, true, false);
        assert!(a.bias.is_none());
        assert_eq!(a.covered.len(), 1);
    }

    #[test]
    fn absorption_stops_at_multi_consumer() {
        let mut b = GraphBuilder::new(DType::F16);
        let x = b.input(&[8, 16]);
        let d = b.dense(x, 8, "fc");
        let r1 = b.activation(d, Activation::ReLU, "r1");
        let r2 = b.activation(d, Activation::Gelu, "r2");
        let g = b.finish(&[r1, r2]);
        let anchor = g.nodes().iter().find(|n| n.kind == OpKind::Dense).unwrap();
        let a = absorb_epilogue(&g, anchor, true, true);
        assert_eq!(a.covered.len(), 1, "dense output has two consumers");
    }
}
