//! The deployed schedule: the one artifact a planner hands the engine.
//!
//! Every policy in this crate executes the same segment-level kernels;
//! what differs is the *shape* of the steps it runs them in. A
//! [`Schedule`] names that shape — graph nodes one at a time (in the
//! default or a searched order), fused chains, a patched front stage, or
//! per-device split stages — and [`Schedule::memory_plan`] prices it.
//! [`MemoryPlanner::plan_model`] derives from
//! [`MemoryPlanner::schedule`], and its plan's
//! [`peak_demand_bytes`](MemoryPlan::peak_demand_bytes) is the one RAM
//! price, so fleet placement and deployment can never disagree, and the
//! engine executes exactly the schedule it was priced by.
//!
//! # Examples
//!
//! ```
//! use vmcu_plan::{MemoryPlanner, Schedule, VmcuPass, VmcuPlanner};
//! use vmcu_graph::zoo;
//! use vmcu_kernels::IbScheme;
//! use vmcu_sim::Device;
//!
//! let g = zoo::mbv2_block_unfused();
//! let planner = VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse);
//! let schedule = planner.schedule(&g);
//! assert!(matches!(schedule, Schedule::Fused(_)));
//! let plan = schedule.memory_plan(&planner, &g, &Device::stm32_f411re());
//! assert_eq!(plan, planner.plan_model(&g, &Device::stm32_f411re()));
//! ```

use crate::fusion::FusionPlan;
use crate::order::{plan_model_for_order, OrderPlan};
use crate::patch::PatchPlan;
use crate::planner::{LayerPlan, MemoryPlan, MemoryPlanner};
use crate::split::SplitPlan;
use vmcu_graph::Graph;
use vmcu_sim::Device;

/// How a planner deploys a graph: the ordered steps the engine executes,
/// one [`MemoryPlan`] row per step.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Every graph node in its own pool window, tensors held until their
    /// last consumer: in index order (`None`) or in the searched
    /// minimum-peak order (`Some`).
    Nodes(Option<OrderPlan>),
    /// Runs of fusable layers as single fused chains (chain graphs).
    Fused(FusionPlan),
    /// A patched spatial front stage followed by a fused tail (chain
    /// graphs).
    Patched(PatchPlan),
    /// Contiguous per-device stages, each fused, joined by link
    /// transfers (chain graphs).
    Split(SplitPlan),
}

impl Schedule {
    /// The searched node order, for a `Nodes` schedule that has one.
    pub fn order(&self) -> Option<&OrderPlan> {
        match self {
            Schedule::Nodes(order) => order.as_ref(),
            _ => None,
        }
    }

    /// Prices the schedule on `device`: one row per executed step, in
    /// execution order (per node with last-consumer liveness for
    /// `Nodes`; per fusion node, patched front and link otherwise).
    pub fn memory_plan<P: MemoryPlanner + ?Sized>(
        &self,
        planner: &P,
        graph: &Graph,
        device: &Device,
    ) -> MemoryPlan {
        let layers = match self {
            Schedule::Nodes(order) => {
                let identity: Vec<usize>;
                let order = match order {
                    Some(plan) => &plan.order,
                    None => {
                        identity = (0..graph.len()).collect();
                        &identity
                    }
                };
                return plan_model_for_order(planner, graph, device, order);
            }
            Schedule::Fused(fusion) => fusion_rows(fusion, graph, device).collect(),
            Schedule::Patched(patch) => patch
                .front_layer_plan(device)
                .into_iter()
                .chain(fusion_rows(&patch.tail, graph, device))
                .collect(),
            Schedule::Split(split) => {
                let mut rows = Vec::new();
                for stage in split.stages() {
                    // Stage rows carry stage-local node names.
                    rows.extend(
                        fusion_rows(&stage.fusion, &stage.graph, device).map(|mut row| {
                            row.name = format!("dev{}:{}", stage.device, row.name);
                            row
                        }),
                    );
                    // The cut tensor shipped downstream; its measured
                    // size never exceeds the sending stage's peak (a
                    // fused window covers its own output), so the
                    // bottleneck stays at a stage.
                    if stage.cut_bytes > 0 {
                        rows.push(LayerPlan::new(
                            format!("link:dev{}->dev{}", stage.device, stage.device + 1),
                            "link",
                            stage.cut_bytes,
                            0,
                            device,
                        ));
                    }
                }
                rows
            }
        };
        MemoryPlan {
            planner: planner.name(),
            device: device.name.clone(),
            layers,
        }
    }
}

/// One row per fusion node of `fusion` over `graph`.
fn fusion_rows<'a>(
    fusion: &'a FusionPlan,
    graph: &'a Graph,
    device: &'a Device,
) -> impl Iterator<Item = LayerPlan> + 'a {
    fusion
        .nodes
        .iter()
        .map(move |node| node.layer_plan(graph, device))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VmcuPass, VmcuPlanner};
    use vmcu_graph::zoo;
    use vmcu_kernels::IbScheme;

    #[test]
    fn chain_only_schedules_fall_back_to_nodes_on_dags() {
        let g = zoo::mbv2_residual_dag();
        let vmcu = |pass| VmcuPlanner::new(IbScheme::RowBuffer, pass);
        for pass in [
            VmcuPass::Fuse,
            VmcuPass::Patch,
            VmcuPass::Split { devices: 4 },
            VmcuPass::Nodes,
        ] {
            assert!(
                matches!(vmcu(pass).schedule(&g), Schedule::Nodes(None)),
                "{pass:?}"
            );
        }
        assert!(vmcu(VmcuPass::Reorder).schedule(&g).order().is_some());
    }

    #[test]
    fn demand_matches_the_priced_bottleneck() {
        // Each pass searches by its own peak; the rows it deploys with
        // must peak exactly there.
        let device = Device::stm32_f767zi();
        let vmcu = |pass| VmcuPlanner::new(IbScheme::RowBuffer, pass);
        for g in [
            zoo::demo_linear_net(),
            zoo::mbv2_block_unfused(),
            zoo::hires_front_stage(),
            zoo::two_head_net(),
        ] {
            for planner in [
                &vmcu(VmcuPass::Nodes) as &dyn MemoryPlanner,
                &vmcu(VmcuPass::Fuse),
                &vmcu(VmcuPass::Patch),
                &vmcu(VmcuPass::Split { devices: 4 }),
                &vmcu(VmcuPass::Reorder),
                &crate::TinyEnginePlanner,
            ] {
                let schedule = planner.schedule(&g);
                let plan = schedule.memory_plan(planner, &g, &device);
                let what = format!("{} on {}", planner.name(), g.name);
                assert_eq!(
                    plan.peak_demand_bytes() + device.runtime_overhead_bytes,
                    plan.bottleneck_bytes(),
                    "{what}"
                );
                let pass_peak = match &schedule {
                    // Priced by its rows alone.
                    Schedule::Nodes(None) => continue,
                    Schedule::Nodes(Some(order)) => order.peak_bytes,
                    Schedule::Fused(fusion) => fusion.peak_demand_bytes(),
                    Schedule::Patched(patch) => patch.peak_demand_bytes(),
                    Schedule::Split(split) => split.max_stage_demand_bytes(),
                };
                assert_eq!(plan.peak_demand_bytes(), pass_peak, "{what}");
            }
        }
    }
}
