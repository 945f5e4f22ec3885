//! Capacity lookups: a whole model's plan under a policy.
//!
//! A model's *peak demand* is its plan's
//! [`MemoryPlan::peak_demand_bytes`]: the maximum per-step
//! `activations + workspace` bytes, without the device's fixed runtime
//! overhead. It is the SRAM a device commits to keep the model
//! resident, and the price fleet serving (`vmcu-serve`) places each
//! device's resident set by, read from the cached deployment plan.
//! Because vMCU's segment-level plans peak far below tensor-level plans
//! (§7), the same device holds more vMCU models at once — the paper's
//! RAM savings restated as serving capacity.

use crate::planner::{MemoryPlan, MemoryPlanner};
use vmcu_graph::Graph;
use vmcu_sim::Device;

/// Plans a whole model for a device — one plan entry per execution node
/// (per layer for per-layer planners, per fused group for the fusion
/// pass).
///
/// # Examples
///
/// ```
/// use vmcu_plan::{plan_graph, VmcuPlanner};
/// use vmcu_graph::zoo;
/// use vmcu_sim::Device;
///
/// let g = zoo::demo_linear_net();
/// let plan = plan_graph(&VmcuPlanner::default(), &g, &Device::stm32_f411re());
/// assert_eq!(plan.layers.len(), g.len());
/// assert!(plan.deployable());
/// ```
pub fn plan_graph(planner: &dyn MemoryPlanner, graph: &Graph, device: &Device) -> MemoryPlan {
    planner.plan_model(graph, device)
}

/// Test shorthand: `graph`'s peak demand under `planner`, planned on the
/// F411RE (demand carries no device term).
#[cfg(test)]
pub(crate) fn demand(planner: &dyn MemoryPlanner, graph: &Graph) -> usize {
    plan_graph(planner, graph, &Device::stm32_f411re()).peak_demand_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tinyengine_planner::TinyEnginePlanner;
    use crate::vmcu_planner::VmcuPlanner;
    use vmcu_graph::{zoo, LayerDesc};

    #[test]
    fn plan_graph_covers_every_layer() {
        let g = zoo::demo_linear_net();
        let device = Device::stm32_f411re();
        let plan = plan_graph(&VmcuPlanner::default(), &g, &device);
        assert_eq!(plan.layers.len(), g.len());
        assert!(plan.deployable());
    }

    #[test]
    fn peak_demand_is_the_bottleneck_layer() {
        let g = zoo::demo_linear_net();
        let device = Device::stm32_f411re();
        let plan = plan_graph(&VmcuPlanner::default(), &g, &device);
        assert_eq!(
            plan.peak_demand_bytes(),
            plan.bottleneck_bytes() - device.runtime_overhead_bytes
        );
    }

    #[test]
    fn vmcu_capacity_beats_tinyengine_on_fig7_case1() {
        // Figure 7 case 1 at 128 KB: vMCU's peak fits the device's usable
        // RAM, TinyEngine's does not — the deployability gap as a
        // capacity number.
        let case = &zoo::fig7_cases()[0];
        let g = Graph::linear(case.name.clone(), vec![LayerDesc::Pointwise(case.params)]).unwrap();
        let usable = Device::stm32_f411re().usable_ram_bytes();
        let vm = demand(&VmcuPlanner::default(), &g);
        let te = demand(&TinyEnginePlanner, &g);
        assert!(
            vm <= usable,
            "vMCU must fit Fig. 7 case 1 ({vm} > {usable})"
        );
        assert!(
            te > usable,
            "TinyEngine must not fit case 1 at 128 KB ({te})"
        );
    }

    #[test]
    fn small_modules_pack_more_densely_under_vmcu() {
        let s5 = &zoo::mcunet_5fps_vww()[4];
        let g = Graph::linear(s5.name, vec![LayerDesc::Ib(s5.params)]).unwrap();
        let vm = demand(&VmcuPlanner::default(), &g);
        let te = demand(&TinyEnginePlanner, &g);
        assert!(vm < te, "vMCU demand {vm} must undercut TinyEngine's {te}");
    }

    #[test]
    fn empty_capacity_is_zero_not_divide_by_zero() {
        let g = Graph::linear("empty", vec![]).unwrap();
        assert_eq!(demand(&VmcuPlanner::default(), &g), 0);
    }
}
