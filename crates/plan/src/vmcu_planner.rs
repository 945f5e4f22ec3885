//! The vMCU segment-level planner.
//!
//! Activation footprints come straight from the kernels' executable
//! traces ([`vmcu_kernels::trace`]): the planner reports exactly the pool
//! window each kernel implementation needs, so every number here is
//! *executable* — validated empirically by the checked pool in tests.

use crate::planner::MemoryPlanner;
use vmcu_graph::LayerDesc;
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::IbScheme;

/// Segment-level planner (the paper's system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmcuPlanner {
    /// Fused inverted-bottleneck workspace scheme.
    pub scheme: IbScheme,
}

impl Default for VmcuPlanner {
    fn default() -> Self {
        Self {
            scheme: IbScheme::RowBuffer,
        }
    }
}

impl MemoryPlanner for VmcuPlanner {
    fn name(&self) -> &'static str {
        "vMCU"
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
        let pw = VmcuPlanner {
            scheme: IbScheme::PixelWindow,
        };
        let rb = VmcuPlanner::default();
        for m in zoo::mcunet_5fps_vww() {
            let layer = vmcu_graph::LayerDesc::Ib(m.params);
            let (_, ws_pw) = pw.plan_layer(&layer);
            let (_, ws_rb) = rb.plan_layer(&layer);
            assert!(ws_pw <= ws_rb, "{}", m.name);
        }
    }
}
