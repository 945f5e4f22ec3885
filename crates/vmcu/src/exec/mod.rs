//! Schedule execution: one walk over a deployed [`Schedule`].
//!
//! The planner decides *what* runs — its [`Schedule`], memoized at
//! deploy time in the [`Deployment`](crate::Deployment) — and one walk,
//! `exec::infer`, runs it for every policy, one step per memory-plan
//! row: a graph node in its own pool window, a fused chain, a patched
//! front stage, or a link transfer between split stages. The only
//! per-policy choice left at run time is each node's kernel body, picked
//! from the [`PlannerKind`]:
//!
//! * segment-level vMCU kernels for every vMCU policy (`exec/vmcu.rs`);
//! * tensor-level baseline kernels for TinyEngine (`exec/tinyengine.rs`);
//! * the same baseline kernels for HMCOS, which is a scheduling policy
//!   and contributes no kernels of its own — it only lacks TinyEngine's
//!   in-place add.
//!
//! The walk runs against *deployed* state only: the graph, the memoized
//! plans and the weights already staged into device Flash
//! ([`StagedLayer`]). It never plans (the plan-call telemetry in
//! `vmcu_plan::telemetry` makes that checkable) and never programs Flash
//! (the session's reset assertions turn that into a typed
//! [`EngineError::StateLeak`]).

mod tinyengine;
mod vmcu;

pub(crate) use self::vmcu::infer_chained;

use crate::deploy::PlanSet;
use crate::engine::{InferenceReport, LayerReport, PlannerKind};
use crate::error::EngineError;
use vmcu_graph::{Graph, LayerDesc, LayerWeights, NodeInput};
use vmcu_kernels::fused_chain::run_fused_chain;
use vmcu_kernels::merge::{run_add, run_concat};
use vmcu_kernels::patched::{run_patched_front, PatchedFront};
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::IbScheme;
use vmcu_plan::fusion::FusedGroup;
use vmcu_plan::{FusionNode, LayerPlan, Schedule};
use vmcu_pool::SegmentPool;
use vmcu_sim::{Counters, Device, ExecSummary, LinkModel, Machine};
use vmcu_tensor::Tensor;

/// Flash addresses of one layer's weights, staged at deploy time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagedLayer {
    /// One contiguous weight image (pointwise, conv2d, depthwise, dense).
    Single(usize),
    /// The three images of a fused inverted bottleneck.
    Ib {
        /// Expand (1×1) weights.
        w1: usize,
        /// Depthwise weights.
        wdw: usize,
        /// Project (1×1) weights.
        w2: usize,
    },
    /// No weight image — merge layers (add, concat) carry no weights.
    None,
}

impl StagedLayer {
    /// The single image address, or a typed error for layers staged as
    /// multiple images or none (`executor` names the policy in the
    /// error).
    pub fn single(&self, executor: &'static str) -> Result<usize, EngineError> {
        match self {
            StagedLayer::Single(addr) => Ok(*addr),
            StagedLayer::Ib { .. } => Err(EngineError::Unsupported {
                kind: "inverted-bottleneck",
                executor,
            }),
            StagedLayer::None => Err(EngineError::Unsupported {
                kind: "merge",
                executor,
            }),
        }
    }
}

/// One layer's weight images in staging order: one image for
/// pointwise, conv2d, depthwise and dense layers, `w1`, `wdw`, `w2` for
/// an inverted bottleneck, none for merges. [`stage_layer`] programs
/// exactly these, so their byte lengths sum to the layer's share of the
/// firmware image.
///
/// # Errors
///
/// Returns [`EngineError::Unsupported`] for a layer/weights kind
/// mismatch.
pub fn weight_images<'w>(
    layer: &LayerDesc,
    weights: &'w LayerWeights,
) -> Result<Vec<&'w Tensor<i8>>, EngineError> {
    match (layer, weights) {
        (LayerDesc::Pointwise(_), LayerWeights::Pointwise(t))
        | (LayerDesc::Conv2d(_), LayerWeights::Conv2d(t))
        | (LayerDesc::Depthwise(_), LayerWeights::Depthwise(t))
        | (LayerDesc::Dense(_), LayerWeights::Dense(t)) => Ok(vec![t]),
        (LayerDesc::Ib(_), LayerWeights::Ib { w1, wdw, w2 }) => Ok(vec![w1, wdw, w2]),
        (LayerDesc::Add(_) | LayerDesc::Concat(_), LayerWeights::None) => Ok(Vec::new()),
        _ => Err(EngineError::Unsupported {
            kind: layer.kind(),
            executor: "staging",
        }),
    }
}

/// Programs one layer's [`weight_images`] into Flash, returning the
/// staged addresses (`w1`, `wdw`, `w2` in that order for inverted
/// bottlenecks).
///
/// # Errors
///
/// Returns [`EngineError::Unsupported`] for a layer/weights kind
/// mismatch and memory errors when the Flash capacity is exceeded.
pub fn stage_layer(
    m: &mut Machine,
    layer: &LayerDesc,
    weights: &LayerWeights,
) -> Result<StagedLayer, EngineError> {
    let addrs = weight_images(layer, weights)?
        .into_iter()
        .map(|t| m.host_program_flash(&t.as_bytes()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(match addrs[..] {
        [addr] => StagedLayer::Single(addr),
        [w1, wdw, w2] => StagedLayer::Ib { w1, wdw, w2 },
        _ => StagedLayer::None,
    })
}

/// Stages a whole graph's weights into Flash in layer order — the
/// deployment's firmware image.
///
/// # Errors
///
/// Same contract as [`stage_layer`], per layer.
pub fn stage_graph(
    m: &mut Machine,
    layers: &[LayerDesc],
    weights: &[LayerWeights],
) -> Result<Vec<StagedLayer>, EngineError> {
    layers
        .iter()
        .zip(weights)
        .map(|(l, w)| stage_layer(m, l, w))
        .collect()
}

/// The distance `kind`'s body for `layer` runs at: every vMCU body and
/// every merge overlaps its output with its input at the layer's
/// executable distance ([`LayerDesc::exec_distance`]; a merge has no
/// fused IB, so the scheme is moot); the baselines' single-input bodies
/// place tensors disjointly and take none.
pub(crate) fn node_distance(kind: PlannerKind, layer: &LayerDesc) -> i64 {
    match kind.scheme() {
        Some(scheme) => layer.exec_distance(scheme),
        None if layer.is_merge() => layer.exec_distance(IbScheme::RowBuffer),
        None => 0,
    }
}

/// The pool offsets a deployment's schedule executes at, derived once
/// per session instead of once per inference: the [`node_distance`] of
/// each node the schedule runs as a single-node step and each
/// patched-front stage's distance (fused groups memoize theirs at
/// deploy time, so the nodes they cover get none).
#[derive(Debug)]
pub(crate) struct ExecDistances {
    /// Per graph node; read only at the node's single-node step.
    nodes: Vec<i64>,
    front: Vec<Vec<i64>>,
}

impl ExecDistances {
    pub(crate) fn new(kind: PlannerKind, graph: &Graph, schedule: &Schedule) -> Self {
        let mut nodes = vec![0; graph.len()];
        let mut front = Vec::new();
        for step in steps(schedule, graph.len()) {
            match step {
                Step::Run(Work::Node(v)) => nodes[v] = node_distance(kind, &graph.layers()[v]),
                Step::Run(Work::Front { front: f, .. }) => front = f.stage_distances(),
                Step::Run(Work::Fused { .. }) | Step::Link(_) => {}
            }
        }
        Self { nodes, front }
    }
}

/// Everything an inference sees: deployed, immutable state prepared once
/// by `Engine::deploy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    /// The deployed policy (selects each node's kernel body).
    pub(crate) kind: PlannerKind,
    /// The target device.
    pub(crate) device: &'a Device,
    /// The deployed graph.
    pub(crate) graph: &'a Graph,
    /// Plan artifacts memoized at deploy time.
    pub(crate) plans: &'a PlanSet,
    /// Per-layer staged Flash addresses, in graph order.
    pub(crate) staged: &'a [StagedLayer],
    /// The schedule's pool offsets.
    pub(crate) distances: &'a ExecDistances,
}

impl ExecCtx<'_> {
    /// The memoized plan row for schedule step `row`, re-checking device
    /// fit defensively — a deployment constructed through the checked
    /// path can never hit the error.
    fn step_plan(&self, row: usize) -> Result<LayerPlan, EngineError> {
        let lp = self.plans.memory.layers[row].clone();
        if !lp.fits {
            return Err(EngineError::DoesNotFit {
                layer: lp.name,
                needed: lp.measured_bytes,
                available: self.device.ram_bytes,
            });
        }
        Ok(lp)
    }
}

/// How a merge kernel lays its output relative to its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeMode {
    /// Segment-level overlap: the output lands at `−d` where `d` is the
    /// kernel's executable distance, so it reuses the dying operand
    /// slots (vMCU policies, and TinyEngine's in-place add at `d = 0`).
    Overlap,
    /// Disjoint output after both operands (HMCOS, and TinyEngine's
    /// concat).
    Disjoint,
}

/// Shared merge-layer body: stages both operands consecutively in one
/// pool (`A` at logical 0, `B` right after), runs the segment-aware
/// merge kernel, and reads the output back. The window matches the
/// planners' pricing for each mode, so executed peaks equal planned
/// peaks byte for byte.
fn exec_merge(
    m: &mut Machine,
    layer: &LayerDesc,
    inputs: &[&Tensor<i8>],
    mode: MergeMode,
    d: i64,
) -> Result<Tensor<i8>, EngineError> {
    let [a, b] = inputs else {
        return Err(EngineError::Unsupported {
            kind: layer.kind(),
            executor: "merge",
        });
    };
    match layer {
        LayerDesc::Add(p) => {
            let (d, window) = merge_layout(mode, p.in_bytes(), p.out_bytes(), d);
            let mut pool = SegmentPool::new(m, 0, window)?;
            pool.host_fill_live(m, 0, &a.as_bytes())?;
            pool.host_fill_live(m, p.tensor_bytes() as i64, &b.as_bytes())?;
            run_add(m, &mut pool, p, 0, -d)?;
            let out = pool.host_read(m, -d, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.h, p.w, p.c], &out))
        }
        LayerDesc::Concat(p) => {
            let (d, window) = merge_layout(mode, p.in_bytes(), p.out_bytes(), d);
            let mut pool = SegmentPool::new(m, 0, window)?;
            pool.host_fill_live(m, 0, &a.as_bytes())?;
            pool.host_fill_live(m, p.a_bytes() as i64, &b.as_bytes())?;
            run_concat(m, &mut pool, p, 0, -d)?;
            let out = pool.host_read(m, -d, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.h, p.w, p.c_a + p.c_b], &out))
        }
        _ => Err(EngineError::Unsupported {
            kind: layer.kind(),
            executor: "merge",
        }),
    }
}

/// `(distance, window)` of a merge: the overlapped layout runs at the
/// kernel's executable distance `d`, the disjoint one parks the output
/// past both operands.
fn merge_layout(mode: MergeMode, in_bytes: usize, out_bytes: usize, d: i64) -> (i64, usize) {
    match mode {
        MergeMode::Overlap => (d, pool_window(in_bytes, out_bytes, d)),
        MergeMode::Disjoint => (-(in_bytes as i64), in_bytes + out_bytes),
    }
}

/// Executes one graph node given all of its input tensors in slot order,
/// with the kernel body the policy selects, at the node's
/// [`node_distance`] `d`. The machine's RAM is caller-cleared; Flash is
/// never touched.
pub(crate) fn exec_node(
    kind: PlannerKind,
    m: &mut Machine,
    layer: &LayerDesc,
    staged: StagedLayer,
    inputs: &[&Tensor<i8>],
    d: i64,
) -> Result<Tensor<i8>, EngineError> {
    match (kind.scheme(), inputs) {
        (Some(scheme), [input]) => vmcu::exec_layer(m, layer, staged, input, scheme, d),
        (Some(_), _) => exec_merge(m, layer, inputs, MergeMode::Overlap, d),
        (None, [input]) => tinyengine::exec_layer(m, layer, staged, input, kind.name()),
        // TinyEngine adds in place (one operand slot doubles as the
        // output); HMCOS has no in-place update, and neither baseline
        // overlaps a concat.
        (None, _) if kind == PlannerKind::TinyEngine && matches!(layer, LayerDesc::Add(_)) => {
            exec_merge(m, layer, inputs, MergeMode::Overlap, d)
        }
        (None, _) => exec_merge(m, layer, inputs, MergeMode::Disjoint, d),
    }
}

/// One step of a deployed schedule; step `k` is priced by memory-plan
/// row `k`.
enum Step<'a> {
    /// Kernel work on the machine.
    Run(Work<'a>),
    /// A cut tensor of this many bytes streamed to the next device.
    Link(usize),
}

/// The kernel work of one step.
enum Work<'a> {
    /// Graph node `v` in its own pool window.
    Node(usize),
    /// A fused chain over graph layers `offset + group.start ..
    /// offset + group.end`.
    Fused {
        group: &'a FusedGroup,
        offset: usize,
    },
    /// The patched front stage over graph layers `0..len`.
    Front { front: &'a PatchedFront, len: usize },
}

/// The steps of `nodes` (a fusion plan whose node indices are relative
/// to graph layer `offset`).
fn fusion_steps(nodes: &[FusionNode], offset: usize) -> impl Iterator<Item = Step<'_>> {
    nodes.iter().map(move |node| {
        Step::Run(match node {
            FusionNode::Single { index, .. } => Work::Node(offset + index),
            FusionNode::Fused(group) => Work::Fused { group, offset },
        })
    })
}

/// The schedule's steps in execution order.
fn steps(schedule: &Schedule, n: usize) -> Vec<Step<'_>> {
    match schedule {
        Schedule::Nodes(Some(order)) => order
            .order
            .iter()
            .map(|&v| Step::Run(Work::Node(v)))
            .collect(),
        Schedule::Nodes(None) => (0..n).map(|v| Step::Run(Work::Node(v))).collect(),
        Schedule::Fused(fusion) => fusion_steps(&fusion.nodes, 0).collect(),
        Schedule::Patched(patch) => patch
            .front
            .as_ref()
            .map(|front| {
                Step::Run(Work::Front {
                    front,
                    len: patch.front_len,
                })
            })
            .into_iter()
            .chain(fusion_steps(&patch.tail.nodes, 0))
            .collect(),
        Schedule::Split(split) => split
            .stages()
            .iter()
            .flat_map(|stage| {
                fusion_steps(&stage.fusion.nodes, stage.start)
                    .chain((stage.cut_bytes > 0).then_some(Step::Link(stage.cut_bytes)))
            })
            .collect(),
    }
}

/// Runs one step's kernel work, returning the graph node whose output
/// it produced and that output.
fn exec_work(
    ctx: &ExecCtx<'_>,
    m: &mut Machine,
    work: &Work<'_>,
    acts: &[Option<Tensor<i8>>],
    input: &Tensor<i8>,
) -> Result<(usize, Tensor<i8>), EngineError> {
    let graph = ctx.graph;
    let tensor = |edge: &NodeInput| match edge {
        NodeInput::GraphInput => input,
        NodeInput::Node(j) => acts[*j].as_ref().expect("schedules run producers first"),
    };
    match *work {
        Work::Node(v) => {
            let inputs: Vec<&Tensor<i8>> = graph.node_inputs(v).iter().map(tensor).collect();
            let out = exec_node(
                ctx.kind,
                m,
                &graph.layers()[v],
                ctx.staged[v],
                &inputs,
                ctx.distances.nodes[v],
            )?;
            Ok((v, out))
        }
        Work::Fused { group, offset } => {
            let (start, end) = (offset + group.start, offset + group.end);
            let flash = ctx.staged[start..end]
                .iter()
                .map(|s| s.single("vMCU-fused"))
                .collect::<Result<Vec<_>, _>>()?;
            let d = group.exec_distance;
            let mut pool = SegmentPool::new(m, 0, group.window)?;
            pool.host_fill_live(m, 0, &tensor(&graph.node_inputs(start)[0]).as_bytes())?;
            run_fused_chain(m, &mut pool, &group.chain, 0, -d, &flash, group.window)?;
            let out_layer = &graph.layers()[end - 1];
            let out = pool.host_read(m, -d, out_layer.out_bytes())?;
            Ok((end - 1, Tensor::from_bytes(&out_layer.out_shape(), &out)))
        }
        Work::Front { front, len } => {
            let flash = ctx.staged[..len]
                .iter()
                .map(|s| s.single("vMCU-patched"))
                .collect::<Result<Vec<_>, _>>()?;
            let distances = &ctx.distances.front;
            Ok((
                len - 1,
                run_patched_front(m, front, input, &flash, distances)?,
            ))
        }
    }
}

/// Executes the deployed schedule for one input: one step per plan row,
/// RAM reset to boot state before each step (counters keep accumulating;
/// reports use deltas; each row observes the RAM write mark its step
/// left), every activation held host-side for its consumers — the
/// host-side hand-off between split stages *is* the modelled network
/// hop, priced by the deterministic [`LinkModel`] with no machine
/// counters touched.
pub(crate) fn infer(
    ctx: &ExecCtx<'_>,
    m: &mut Machine,
    input: &Tensor<i8>,
) -> Result<InferenceReport, EngineError> {
    let n = ctx.graph.len();
    let link = LinkModel::default();
    let mut acts: Vec<Option<Tensor<i8>>> = vec![None; n];
    let mut layers = Vec::with_capacity(ctx.plans.memory.layers.len());
    for (row, step) in steps(&ctx.plans.schedule, n).iter().enumerate() {
        let plan = ctx.step_plan(row)?;
        let (exec, observed_peak_bytes) = match step {
            Step::Run(work) => {
                m.ram.clear();
                let before = m.snapshot();
                let (node, out) = exec_work(ctx, m, work, &acts, input)?;
                acts[node] = Some(out);
                (m.summarize_since(&before), m.ram.high_water())
            }
            Step::Link(bytes) => (
                ExecSummary {
                    counters: Counters::default(),
                    latency_ms: link.transfer_ms(*bytes as u64),
                    energy_mj: link.transfer_energy_mj(*bytes as u64),
                },
                0,
            ),
        };
        layers.push(LayerReport {
            name: plan.name.clone(),
            plan,
            exec,
            observed_peak_bytes,
        });
    }
    let output = acts
        .pop()
        .flatten()
        .expect("sessions reject empty graphs; the last node is the output");
    Ok(InferenceReport { output, layers })
}
