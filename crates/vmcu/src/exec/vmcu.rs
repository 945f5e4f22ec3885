//! Segment-level vMCU kernel bodies: one circular pool per layer —
//! plus the §4 whole-network chained mode.

use super::{ExecCtx, StagedLayer};
use crate::engine::{InferenceReport, LayerReport, PlannerKind};
use crate::error::EngineError;
use vmcu_graph::LayerDesc;
use vmcu_kernels::conv2d::run_conv2d;
use vmcu_kernels::depthwise::run_depthwise;
use vmcu_kernels::fc::run_fc;
use vmcu_kernels::fused_ib::{run_fused_ib, IbFlash};
use vmcu_kernels::pointwise::run_pointwise;
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::IbScheme;
use vmcu_plan::{ChainPlan, LayerPlan};
use vmcu_pool::SegmentPool;
use vmcu_sim::Machine;
use vmcu_tensor::Tensor;

/// Runs one layer's segment-level kernel in `pool`, reading its input at
/// logical `b_in` and writing its output at `b_out`; fused inverted
/// bottlenecks keep their workspace at RAM offset `ws_base`, past the
/// pool window.
#[allow(clippy::too_many_arguments)]
fn run_kernel(
    m: &mut Machine,
    pool: &mut SegmentPool,
    layer: &LayerDesc,
    staged: StagedLayer,
    scheme: IbScheme,
    b_in: i64,
    b_out: i64,
    ws_base: usize,
) -> Result<(), EngineError> {
    let w_base = || staged.single("vMCU");
    match layer {
        LayerDesc::Pointwise(p) => run_pointwise(m, pool, p, b_in, b_out, w_base()?),
        LayerDesc::Conv2d(p) => run_conv2d(m, pool, p, b_in, b_out, w_base()?),
        LayerDesc::Depthwise(p) => run_depthwise(m, pool, p, b_in, b_out, w_base()?),
        LayerDesc::Dense(p) => run_fc(m, pool, p, b_in, b_out, w_base()?),
        LayerDesc::Ib(p) => {
            let StagedLayer::Ib { w1, wdw, w2 } = staged else {
                return Err(EngineError::Unsupported {
                    kind: layer.kind(),
                    executor: "vMCU",
                });
            };
            let flash = IbFlash { w1, wdw, w2 };
            run_fused_ib(m, pool, p, scheme, b_in, b_out, &flash, ws_base)
        }
        // Merges take two inputs; they never reach the single-input
        // kernels.
        LayerDesc::Add(_) | LayerDesc::Concat(_) => {
            return Err(EngineError::Unsupported {
                kind: layer.kind(),
                executor: "vMCU",
            })
        }
    }?;
    Ok(())
}

/// The segment-level body of one single-input layer: input at logical
/// 0, output at `−d`, the pool window sized to the kernel's executable
/// `bIn − bOut` distance `d` ([`LayerDesc::exec_distance`]). Every vMCU
/// policy runs its per-node steps (and the singletons of its fused,
/// patched and split schedules) through it.
pub(super) fn exec_layer(
    m: &mut Machine,
    layer: &LayerDesc,
    staged: StagedLayer,
    input: &Tensor<i8>,
    scheme: IbScheme,
    d: i64,
) -> Result<Tensor<i8>, EngineError> {
    let window = pool_window(layer.in_bytes(), layer.out_bytes(), d);
    let mut pool = SegmentPool::new(m, 0, window)?;
    pool.host_fill_live(m, 0, &input.as_bytes())?;
    run_kernel(m, &mut pool, layer, staged, scheme, 0, -d, window)?;
    let out = pool.host_read(m, -d, layer.out_bytes())?;
    Ok(Tensor::from_bytes(&layer.out_shape(), &out))
}

/// Chained whole-network execution: each layer's input pointer is the
/// previous layer's output pointer, the whole network flows through
/// one circular pool window of `max(per-layer span)` bytes (§4's
/// multi-layer deployment model). Only the vMCU policy on a chain graph
/// memoizes a chain plan; everything else reports a typed
/// [`EngineError::Unsupported`].
pub(crate) fn infer_chained(
    ctx: &ExecCtx<'_>,
    m: &mut Machine,
    input: &Tensor<i8>,
) -> Result<(InferenceReport, ChainPlan), EngineError> {
    let (Some(plan), PlannerKind::Vmcu(scheme)) = (ctx.plans.chain.clone(), ctx.kind) else {
        return Err(EngineError::Unsupported {
            kind: if matches!(ctx.kind, PlannerKind::Vmcu(_)) {
                "chained DAG"
            } else {
                "chained graph"
            },
            executor: ctx.kind.name(),
        });
    };
    let graph = ctx.graph;
    let needed = plan.total_bytes() + ctx.device.runtime_overhead_bytes;
    if needed > ctx.device.ram_bytes {
        return Err(EngineError::DoesNotFit {
            layer: format!("chained {}", graph.name),
            needed,
            available: ctx.device.ram_bytes,
        });
    }
    let mut pool = SegmentPool::new(m, 0, plan.window)?;
    let ws_base = plan.window;
    pool.host_fill_live(m, plan.bases[0], &input.as_bytes())?;
    let mut layers = Vec::with_capacity(graph.len());
    for (i, layer) in graph.layers().iter().enumerate() {
        let name = format!("{}#{i}", layer.kind());
        let before = m.snapshot();
        let (b_in, b_out) = (plan.bases[i], plan.bases[i + 1]);
        run_kernel(
            m,
            &mut pool,
            layer,
            ctx.staged[i],
            scheme,
            b_in,
            b_out,
            ws_base,
        )?;
        let exec = m.summarize_since(&before);
        layers.push(LayerReport {
            name: name.clone(),
            plan: LayerPlan::new(name, layer.kind(), plan.window, plan.workspace, ctx.device),
            exec,
            observed_peak_bytes: m.ram.high_water(),
        });
    }
    let out_bytes = graph.layers().last().expect("non-empty graph").out_bytes();
    let out_base = *plan.bases.last().expect("bases non-empty");
    let out = pool.host_read(m, out_base, out_bytes)?;
    let output = Tensor::from_bytes(&graph.out_shape(), &out);
    Ok((InferenceReport { output, layers }, plan))
}
