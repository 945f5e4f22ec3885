//! Patch-based front-stage planning — the policy that opens the
//! spatial-bottleneck workload.
//!
//! MCUNetV2 observes that the first few high-resolution layers of a CNN
//! dominate peak RAM, and that executing them patch by patch (Pex's
//! partial execution of operator slices) trades a bounded halo-recompute
//! overhead for a peak that shrinks with the patch grid. [`plan`] applies
//! that here: the **front stage** — the maximal run of spatially
//! patchable layers (pointwise / depthwise / dense 2D convolution) from
//! the graph input — is split into a grid of output tiles, each tile's
//! receptive field is priced at its sliced per-layer vMCU footprint
//! (`vmcu_kernels::patched`), the front adds the output accumulator
//! that collects finished tiles (SRAM-resident until the tail consumes
//! it; the model input itself is streamed per patch, MCUNetV2-style,
//! and never billed), and the **tail** (everything after the front) is
//! planned by the multi-layer fusion pass unchanged. The grid
//! search picks the grid that minimizes peak demand subject to a
//! recompute-overhead cap, and keeps the plain fused plan whenever
//! patching does not strictly lower the peak — so a patched plan's
//! demand never exceeds the fused plan's, which never exceeds
//! single-layer vMCU's.
//!
//! [`VmcuPass::Patch`](crate::VmcuPass::Patch) runs the pass inside
//! [`VmcuPlanner`](crate::VmcuPlanner) at the [`MAX_HALO_OVERHEAD`] cap,
//! so [`crate::capacity::peak_demand_bytes`] and fleet placement pick
//! the patched pricing up unchanged.

use crate::fusion::{FusionPlan, FusionTable};
use crate::planner::LayerPlan;
use std::collections::HashMap;
use vmcu_graph::{Graph, LayerDesc};
use vmcu_kernels::patched::{PatchGrid, PatchedFront};
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::{ChainOp, IbScheme};
use vmcu_sim::Device;

/// Maps a spatially patchable layer to its operator; `None` ends the
/// front stage. Patchable layers are the fusable ones
/// ([`LayerDesc::chain_op`]) minus fully-connected layers, which have no
/// spatial axes.
pub fn patch_op(layer: &LayerDesc) -> Option<ChainOp> {
    layer
        .chain_op()
        .filter(|op| !matches!(op, ChainOp::Dense(_)))
}

/// Length of the patchable front stage: the maximal prefix of layers
/// [`patch_op`] accepts.
pub fn patchable_prefix(graph: &Graph) -> usize {
    graph
        .layers()
        .iter()
        .take_while(|l| patch_op(l).is_some())
        .count()
}

/// Grid sizes the search tries along each axis (clamped to the
/// front-stage output extent).
pub const GRID_CANDIDATES: [usize; 6] = [1, 2, 3, 4, 6, 8];

/// The halo-recompute cap every deployed patch plan is searched under:
/// at most 50% extra front MACs over the unpatched front.
pub const MAX_HALO_OVERHEAD: f64 = 0.5;

/// A whole-graph patched execution plan: the patched front stage (when
/// patching pays) plus the fused plan of the tail.
#[derive(Debug, Clone)]
pub struct PatchPlan {
    /// Number of graph layers in the patched front (0 = no patching,
    /// the plan is the plain fused plan).
    pub front_len: usize,
    /// The validated front, `None` when `front_len == 0`.
    pub front: Option<PatchedFront>,
    /// Peak SRAM of the patched front: the worst sliced per-layer
    /// footprint across all patches **plus** the front-output
    /// accumulator, which stays resident while later patches execute
    /// (the model input itself is streamed per patch, MCUNetV2-style,
    /// and is not SRAM-resident). 0 when unpatched.
    pub front_demand_bytes: usize,
    /// Fraction of extra front MACs the halo recompute costs.
    pub halo_overhead: f64,
    /// Fusion plan of the remaining layers; node indices are
    /// graph-absolute (already offset by `front_len`).
    pub tail: FusionPlan,
}

impl PatchPlan {
    /// Whether the plan actually patches a front stage.
    pub fn is_patched(&self) -> bool {
        self.front_len > 0
    }

    /// The patch grid (1×1 when unpatched).
    pub fn grid(&self) -> PatchGrid {
        self.front
            .as_ref()
            .map_or(PatchGrid { gy: 1, gx: 1 }, PatchedFront::grid)
    }

    /// Peak SRAM demand across the front and the tail (the patched
    /// analogue of [`crate::capacity::peak_demand_bytes`]).
    pub fn peak_demand_bytes(&self) -> usize {
        self.front_demand_bytes.max(self.tail.peak_demand_bytes())
    }

    /// Display label of the patched front, shared by plan reports and
    /// execution reports.
    pub fn label(&self) -> String {
        let g = self.grid();
        format!("patched[0..{}]@{g}", self.front_len)
    }

    /// The plan entry for the patched front on `device` (`None` when
    /// unpatched) — the single accounting source for the planning
    /// surface and the engine's execution report.
    pub fn front_layer_plan(&self, device: &Device) -> Option<LayerPlan> {
        self.front.as_ref()?;
        let measured = self.front_demand_bytes + device.runtime_overhead_bytes;
        Some(LayerPlan {
            name: self.label(),
            kind: "patched-front",
            activation_bytes: self.front_demand_bytes,
            workspace_bytes: 0,
            measured_bytes: measured,
            fits: measured <= device.ram_bytes,
        })
    }
}

/// Peak pool bytes of one sliced operator — exactly the window
/// `vmcu_kernels::patched::run_patched_front` executes it in.
fn sliced_footprint(op: &ChainOp) -> usize {
    pool_window(op.in_bytes(), op.out_bytes(), op.exec_distance())
}

/// Peak sliced per-layer footprint and total sliced MACs across every
/// patch of a front — one walk over the patch stages serves both, so
/// the grid search prices each candidate in a single pass.
/// `footprints` memoizes [`sliced_footprint`] across the candidates:
/// the same sliced operator recurs in many patches of many grids.
fn front_metrics(front: &PatchedFront, footprints: &mut HashMap<ChainOp, usize>) -> (usize, u64) {
    let grid = front.grid();
    let mut peak = 0usize;
    let mut macs = 0u64;
    for ty in 0..grid.gy {
        for tx in 0..grid.gx {
            for stage in front.patch_stages(ty, tx) {
                let footprint = *footprints
                    .entry(stage.op)
                    .or_insert_with(|| sliced_footprint(&stage.op));
                peak = peak.max(footprint);
                macs += vmcu_kernels::patched::op_macs(&stage.op);
            }
        }
    }
    (peak, macs)
}

/// The grid search over a patchable front `ops`: every candidate grid
/// within the recompute cap `max_overhead` is priced at its front demand
/// (worst sliced footprint plus the front-output accumulator) against
/// the tail's `tail_peak`, and the best grid is returned as `(front,
/// front demand, halo overhead)` — or `None` when no grid strictly
/// undercuts `unpatched_peak`.
fn search_grids(
    ops: &[ChainOp],
    tail_peak: usize,
    unpatched_peak: usize,
    max_overhead: f64,
    footprints: &mut HashMap<ChainOp, usize>,
) -> Option<(PatchedFront, usize, f64)> {
    let mut best = None;
    // (peak, overhead, patches): strictly lower peak wins; at equal peak
    // the cheaper recompute wins, then the coarser grid. The unpatched
    // plan's overhead of 0 means patching must *strictly* lower the peak.
    let mut best_key = (unpatched_peak, 0.0f64, 1usize);
    let probe = PatchedFront::new(ops.to_vec(), PatchGrid { gy: 1, gx: 1 })
        .expect("patchable prefix validates");
    let (out_h, out_w, out_c) = probe.out_dims();
    // Grid-independent, so computed once for the whole search. The
    // front-output accumulator collects finished tiles and must stay
    // SRAM-resident alongside the active slab window; the model input,
    // by contrast, is streamed per patch (MCUNetV2 re-decodes it) and
    // is not billed.
    let front_out_bytes = out_h * out_w * out_c;
    let unpatched_macs = probe.unpatched_macs();
    for gy in GRID_CANDIDATES {
        if gy > out_h {
            continue;
        }
        for gx in GRID_CANDIDATES {
            if gx > out_w {
                continue;
            }
            let front = PatchedFront::new(ops.to_vec(), PatchGrid { gy, gx })
                .expect("grid clamped to the output");
            let (slab_peak, patched_macs) = front_metrics(&front, footprints);
            let front_demand = slab_peak + front_out_bytes;
            let overhead = if unpatched_macs == 0 {
                0.0
            } else {
                patched_macs as f64 / unpatched_macs as f64 - 1.0
            };
            if overhead > max_overhead {
                continue;
            }
            let peak = front_demand.max(tail_peak);
            let key = (peak, overhead, gy * gx);
            let better = key.0 < best_key.0
                || (key.0 == best_key.0
                    && (key.1 < best_key.1 || (key.1 == best_key.1 && key.2 < best_key.2)));
            if better {
                best_key = key;
                best = Some((front, front_demand, overhead));
            }
        }
    }
    best
}

/// Plans patch-based execution for a linear graph: the maximal patchable
/// front stage is split over every candidate grid, each candidate is
/// priced at its worst sliced per-layer vMCU footprint, and the grid
/// that minimizes the whole-plan peak wins — subject to the
/// halo-recompute cap `max_overhead` (e.g. `0.5` = at most 50% extra
/// front MACs). When no grid strictly undercuts the plain fused plan,
/// the fused plan is returned unpatched, so patched demand never exceeds
/// fused demand.
///
/// # Examples
///
/// The high-resolution front stage of `zoo::hires_front_stage` carries a
/// 147 KB input activation no whole-tensor policy fits in 128 KB; the
/// patch grid shrinks the peak by an order of magnitude:
///
/// ```
/// use vmcu_plan::patch::plan;
/// use vmcu_plan::{peak_demand_bytes, VmcuPlanner};
/// use vmcu_graph::zoo;
/// use vmcu_kernels::IbScheme;
///
/// let g = zoo::hires_front_stage();
/// let p = plan(&g, IbScheme::RowBuffer, 0.5);
/// assert!(p.is_patched(), "the high-res front stage must patch");
/// assert!(p.halo_overhead <= 0.5, "the recompute cap holds");
/// let vmcu = peak_demand_bytes(&VmcuPlanner::default(), &g);
/// assert!(p.peak_demand_bytes() * 2 < vmcu);
/// ```
///
/// # Panics
///
/// Panics only if a layer inside the patchable prefix has no patch
/// lowering — unreachable, since `patchable_prefix` selected it.
pub fn plan(graph: &Graph, scheme: IbScheme, max_overhead: f64) -> PatchPlan {
    crate::telemetry::record_plan_call();
    let mut table = FusionTable::new(graph, scheme);
    let fallback = PatchPlan {
        front_len: 0,
        front: None,
        front_demand_bytes: 0,
        halo_overhead: 0.0,
        tail: table.plan(0, graph.len()),
    };
    // Patching slices a *chain* prefix; on a branchy DAG the tail slice
    // below would not be a valid graph, so the plan stays unpatched.
    let front_len = if graph.is_chain() {
        patchable_prefix(graph)
    } else {
        0
    };
    if front_len == 0 {
        return fallback;
    }
    let ops: Vec<ChainOp> = graph.layers()[..front_len]
        .iter()
        .map(|l| patch_op(l).expect("prefix is patchable"))
        .collect();
    let tail = table.plan(front_len, graph.len());
    let best = search_grids(
        &ops,
        tail.peak_demand_bytes(),
        fallback.peak_demand_bytes(),
        max_overhead,
        &mut HashMap::new(),
    );
    match best {
        Some((front, front_demand_bytes, halo_overhead)) => PatchPlan {
            front_len,
            front: Some(front),
            front_demand_bytes,
            halo_overhead,
            tail,
        },
        None => fallback,
    }
}

/// The patch pass under a workspace scheme, searched at the
/// [`MAX_HALO_OVERHEAD`] cap — the plan
/// [`VmcuPass::Patch`](crate::VmcuPass::Patch) deploys on chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchedPlanner {
    /// Workspace scheme for fused inverted-bottleneck singletons in the
    /// tail.
    pub scheme: IbScheme,
}

impl Default for PatchedPlanner {
    fn default() -> Self {
        Self {
            scheme: IbScheme::RowBuffer,
        }
    }
}

impl PatchedPlanner {
    /// Plans `graph` under this planner's scheme and the halo cap.
    pub fn patch_plan(&self, graph: &Graph) -> PatchPlan {
        plan(graph, self.scheme, MAX_HALO_OVERHEAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::peak_demand_bytes;
    use crate::planner::MemoryPlanner;
    use crate::vmcu_planner::{VmcuPass, VmcuPlanner};
    use vmcu_graph::zoo;

    fn planner(pass: VmcuPass) -> VmcuPlanner {
        VmcuPlanner::new(IbScheme::RowBuffer, pass)
    }

    #[test]
    fn unpatchable_front_falls_back_to_the_fused_plan() {
        // demo_linear_net opens with a pointwise, but an IB follows at
        // index 1 — the prefix is short; whatever the search decides, it
        // must never price above the fused plan.
        let g = zoo::demo_linear_net();
        assert_eq!(patchable_prefix(&g), 1);
        let patched = peak_demand_bytes(&planner(VmcuPass::Patch), &g);
        let fused = peak_demand_bytes(&planner(VmcuPass::Fuse), &g);
        assert!(patched <= fused);
    }

    #[test]
    fn patched_demand_never_exceeds_fused_on_random_nets() {
        // The structural guarantee fleet placement relies on, on the zoo
        // chains as well as the random nets.
        let zoo_chains = [
            zoo::demo_linear_net(),
            zoo::mbv2_block_unfused(),
            zoo::wide_expand_chain(),
            zoo::hires_front_stage(),
        ];
        let random_nets = (0..30).map(|seed| zoo::random_linear_net(seed, 5));
        for g in zoo_chains.into_iter().chain(random_nets) {
            assert!(
                peak_demand_bytes(&planner(VmcuPass::Patch), &g)
                    <= peak_demand_bytes(&planner(VmcuPass::Fuse), &g),
                "{}",
                g.name
            );
        }
    }

    #[test]
    fn hires_front_stage_patches_and_fits_128kb() {
        let g = zoo::hires_front_stage();
        let pplan = PatchedPlanner::default().patch_plan(&g);
        assert!(pplan.is_patched());
        assert_eq!(pplan.front_len, 4, "the four spatial layers patch");
        assert!(pplan.grid().patches() > 1, "a real grid is chosen");
        assert!(pplan.halo_overhead <= MAX_HALO_OVERHEAD);
        let device = Device::stm32_f411re();
        let plan = crate::capacity::plan_graph(&planner(VmcuPass::Patch), &g, &device);
        assert!(plan.deployable(), "patched hires must fit 128 KB");
        // Every whole-tensor policy pays the 147 KB input and OOMs.
        for planner in [
            &VmcuPlanner::default() as &dyn MemoryPlanner,
            &planner(VmcuPass::Fuse),
            &crate::TinyEnginePlanner,
            &crate::HmcosPlanner,
        ] {
            assert!(
                !crate::capacity::plan_graph(planner, &g, &device).deployable(),
                "{} must OOM on hires_front_stage at 128 KB",
                planner.name()
            );
        }
    }

    #[test]
    fn overhead_cap_constrains_the_grid() {
        // A zero cap only admits grids with no halo recompute at all;
        // for a padded front that is the 1x1 "grid" or nothing, so the
        // plan must fall back to fused pricing.
        let g = zoo::hires_front_stage();
        let capped = plan(&g, IbScheme::RowBuffer, 0.0);
        let relaxed = plan(&g, IbScheme::RowBuffer, 0.5);
        assert!(capped.halo_overhead <= 0.0 + f64::EPSILON);
        assert!(relaxed.is_patched());
        assert!(capped.peak_demand_bytes() >= relaxed.peak_demand_bytes());
    }

    #[test]
    fn plan_model_reports_the_patched_front_entry() {
        let g = zoo::hires_front_stage();
        let device = Device::stm32_f411re();
        let planner = planner(VmcuPass::Patch);
        let plan = planner.plan_model(&g, &device);
        assert_eq!(plan.layers[0].kind, "patched-front");
        assert!(plan.layers[0].name.starts_with("patched[0..4]@"));
        assert!(plan.deployable());
        // Demand surfaces agree.
        assert_eq!(
            plan.bottleneck_bytes() - device.runtime_overhead_bytes,
            planner.model_demand_bytes(&g)
        );
        // The tail entries carry graph-absolute indices.
        assert!(plan.layers.iter().any(|l| l.name.contains("#4")));
    }

    #[test]
    fn grid_search_dry_runs_each_distinct_sliced_op_once() {
        // Pins the work, not the wall clock: the 36 candidate grids slice
        // this chain's 3-layer front 1,728 times, but only 228 of the
        // sliced operators are distinct, and each is dry-run once.
        let g = zoo::wide_expand_chain();
        let front_len = patchable_prefix(&g);
        let ops: Vec<ChainOp> = g.layers()[..front_len]
            .iter()
            .map(|l| patch_op(l).unwrap())
            .collect();
        let patches: usize = GRID_CANDIDATES.iter().sum::<usize>().pow(2);
        assert_eq!(patches * front_len, 1_728, "sliced operators walked");
        let mut footprints = HashMap::new();
        search_grids(&ops, 0, usize::MAX, 0.5, &mut footprints);
        assert_eq!(footprints.len(), 228, "sliced_footprint dry runs");
    }

    #[test]
    fn empty_and_tailless_graphs_plan_cleanly() {
        let empty = Graph::linear("empty", vec![]).unwrap();
        assert_eq!(peak_demand_bytes(&planner(VmcuPass::Patch), &empty), 0);
        // A graph that is all front: the tail fusion plan is empty.
        let g = zoo::mbv2_block_unfused();
        let pplan = PatchedPlanner::default().patch_plan(&g);
        if pplan.is_patched() {
            assert_eq!(pplan.front_len, g.len());
            assert!(pplan.tail.nodes.is_empty());
        }
    }
}
