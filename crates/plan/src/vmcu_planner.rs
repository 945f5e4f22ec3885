//! The vMCU segment-level planner.
//!
//! Activation footprints come straight from the kernels' executable
//! traces ([`vmcu_kernels::trace`]): the planner reports exactly the pool
//! window each kernel implementation needs, so every number here is
//! *executable* — validated empirically by the checked pool in tests.
//!
//! Every vMCU policy prices single layers this way; they differ only in
//! the pass that shapes a whole model into a [`Schedule`], which
//! [`VmcuPass`] names: nodes one at a time, in the default or a searched
//! order ([`crate::order`]), fused chains ([`crate::fusion`]), a patched
//! front ([`crate::patch`]) or per-device split stages
//! ([`crate::split`]).

use crate::fusion::fuse_graph;
use crate::order::plan_order;
use crate::patch;
use crate::planner::MemoryPlanner;
use crate::schedule::Schedule;
use crate::split::plan_split;
use vmcu_graph::{Graph, LayerDesc};
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::IbScheme;

/// The pass that builds a vMCU deployment's [`Schedule`]. Each pass is
/// never worse than running the nodes one at a time in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmcuPass {
    /// Every node in its own pool window, in index order.
    Nodes,
    /// Every node in its own pool window, in the searched minimum-peak
    /// topological order ([`plan_order`]).
    Reorder,
    /// Runs of fusable layers as single fused chains ([`fuse_graph`]).
    Fuse,
    /// A patched spatial front stage and a fused tail ([`patch::plan`],
    /// halo recompute capped at [`patch::MAX_HALO_OVERHEAD`]).
    Patch,
    /// Contiguous per-device stages joined by link transfers
    /// ([`plan_split`]).
    Split {
        /// Maximum number of networked devices to cut across (clamped
        /// to 1..=8 by the partitioner).
        devices: u8,
    },
}

/// Segment-level planner (the paper's system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmcuPlanner {
    /// Fused inverted-bottleneck workspace scheme.
    pub scheme: IbScheme,
    /// The pass that builds whole-model schedules.
    pub(crate) pass: VmcuPass,
}

impl VmcuPlanner {
    /// The planner for a workspace scheme and a schedule pass.
    pub fn new(scheme: IbScheme, pass: VmcuPass) -> Self {
        Self { scheme, pass }
    }
}

impl Default for VmcuPlanner {
    fn default() -> Self {
        Self::new(IbScheme::RowBuffer, VmcuPass::Nodes)
    }
}

impl MemoryPlanner for VmcuPlanner {
    fn name(&self) -> &'static str {
        match self.pass {
            VmcuPass::Nodes => "vMCU",
            VmcuPass::Reorder => "vmcu-reorder",
            VmcuPass::Fuse => "vMCU-fused",
            VmcuPass::Patch => "vMCU-patched",
            VmcuPass::Split { .. } => "vMCU-split",
        }
    }

    /// Every kind — merges included, whose output overlaps the first
    /// operand's segments — runs in the pool window of its executable
    /// distance, beside its workspace.
    fn plan_layer(&self, layer: &LayerDesc) -> (usize, usize) {
        let d = layer.exec_distance(self.scheme);
        (
            pool_window(layer.in_bytes(), layer.out_bytes(), d),
            layer.workspace_bytes(self.scheme),
        )
    }

    fn schedule(&self, graph: &Graph) -> Schedule {
        let scheme = self.scheme;
        match self.pass {
            VmcuPass::Reorder => Schedule::Nodes(Some(plan_order(self, graph))),
            VmcuPass::Fuse if graph.is_chain() => Schedule::Fused(fuse_graph(graph, scheme)),
            VmcuPass::Patch if graph.is_chain() => {
                Schedule::Patched(patch::plan(graph, scheme, patch::MAX_HALO_OVERHEAD))
            }
            VmcuPass::Split { devices } if graph.is_chain() => {
                Schedule::Split(plan_split(graph, devices, scheme))
            }
            // Fused chains, patch grids and split stages thread one
            // activation stream, so branchy DAGs run node by node.
            _ => Schedule::Nodes(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::named_ib_layers;
    use vmcu_graph::zoo;
    use vmcu_sim::Device;

    #[test]
    fn vww_bottleneck_is_near_paper_13_9kb() {
        // Paper Figure 9: vMCU memory bottleneck 13.9 KB on F411RE.
        let device = Device::stm32_f411re();
        let plan = VmcuPlanner::default().plan(&named_ib_layers(&zoo::mcunet_5fps_vww()), &device);
        let kb = plan.bottleneck_bytes() as f64 / 1000.0;
        assert!(
            (10.0..=17.0).contains(&kb),
            "vMCU VWW bottleneck {kb:.1} KB out of expected band"
        );
        assert!(plan.deployable(), "VWW must deploy on F411RE under vMCU");
    }

    #[test]
    fn imagenet_bottleneck_is_near_paper_102_7kb() {
        // Paper Figure 10 / §7.3: vMCU bottleneck 102.7 KB (B1), enabling
        // deployment on the 128 KB F411RE.
        let device = Device::stm32_f411re();
        let plan =
            VmcuPlanner::default().plan(&named_ib_layers(&zoo::mcunet_320kb_imagenet()), &device);
        let b = plan.bottleneck();
        assert_eq!(plan.layers[b].name, "B1");
        let kb = plan.bottleneck_bytes() as f64 / 1000.0;
        assert!(
            (92.0..=112.0).contains(&kb),
            "vMCU ImageNet bottleneck {kb:.1} KB out of expected band"
        );
        assert!(
            plan.deployable(),
            "ImageNet must deploy on F411RE under vMCU"
        );
    }

    #[test]
    fn pixel_window_never_needs_more_workspace() {
        let pw = VmcuPlanner::new(IbScheme::PixelWindow, VmcuPass::Nodes);
        let rb = VmcuPlanner::default();
        for m in zoo::mcunet_5fps_vww() {
            let layer = vmcu_graph::LayerDesc::Ib(m.params);
            let (_, ws_pw) = pw.plan_layer(&layer);
            let (_, ws_rb) = rb.plan_layer(&layer);
            assert!(ws_pw <= ws_rb, "{}", m.name);
        }
    }
}
