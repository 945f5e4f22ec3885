//! Planner interface and plan types.
//!
//! A memory planner decides how much RAM a layer (or fused module) needs
//! for activations and workspace. Planners differ only in *policy* —
//! segment-level overlap (vMCU), tensor-level with in-place depthwise
//! (TinyEngine), scheduling without in-place (HMCOS) — which is exactly
//! the comparison of §7.

use crate::schedule::Schedule;
use vmcu_graph::{Graph, LayerDesc};
use vmcu_sim::Device;

/// Per-layer planning result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    /// Layer name (e.g. `S1`, `B2`, `H/W80,C16,K16`).
    pub name: String,
    /// Layer kind.
    pub kind: &'static str,
    /// Activation bytes (inputs/outputs/intermediates under this policy).
    pub activation_bytes: usize,
    /// Workspace bytes (rings, im2col staging, fused-window buffers).
    pub workspace_bytes: usize,
    /// RAM as measured on device: activations + workspace + runtime
    /// overhead (stack, libc, vector table).
    pub measured_bytes: usize,
    /// Whether the layer fits the device RAM.
    pub fits: bool,
}

impl LayerPlan {
    /// Activation + workspace bytes (no runtime overhead).
    pub fn planned_bytes(&self) -> usize {
        self.activation_bytes + self.workspace_bytes
    }
}

/// A plan over a sequence of layers/modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Planner name.
    pub planner: &'static str,
    /// Target device name.
    pub device: String,
    /// Per-layer plans.
    pub layers: Vec<LayerPlan>,
}

impl MemoryPlan {
    /// Index of the bottleneck (maximum measured RAM) layer.
    ///
    /// # Panics
    ///
    /// Panics on an empty plan.
    pub fn bottleneck(&self) -> usize {
        assert!(!self.layers.is_empty(), "plan must not be empty");
        let mut best = 0;
        for (i, l) in self.layers.iter().enumerate() {
            // Strict comparison: ties resolve to the earliest layer (the
            // paper reports the *first* module as the VWW bottleneck).
            if l.measured_bytes > self.layers[best].measured_bytes {
                best = i;
            }
        }
        best
    }

    /// Measured RAM of the bottleneck layer.
    pub fn bottleneck_bytes(&self) -> usize {
        self.layers[self.bottleneck()].measured_bytes
    }

    /// Whether every layer fits the device.
    pub fn deployable(&self) -> bool {
        self.layers.iter().all(|l| l.fits)
    }
}

/// A memory-planning policy.
///
/// Planners are stateless policy objects (`Send + Sync`), so one
/// resolved planner can be cached in a deployment and shared across
/// worker threads instead of being re-boxed per call. There is one
/// implementor per policy of the paper's comparison:
/// [`VmcuPlanner`](crate::VmcuPlanner) (whose
/// [`VmcuPass`](crate::VmcuPass) picks the schedule),
/// [`TinyEnginePlanner`](crate::TinyEnginePlanner) and
/// [`HmcosPlanner`](crate::HmcosPlanner).
pub trait MemoryPlanner: Send + Sync {
    /// Planner name for reports.
    fn name(&self) -> &'static str;

    /// Plans one layer: returns `(activation_bytes, workspace_bytes)`.
    fn plan_layer(&self, layer: &LayerDesc) -> (usize, usize);

    /// The schedule this policy deploys `graph` with. The default runs
    /// every node in its own window in index order;
    /// [`VmcuPlanner`](crate::VmcuPlanner) overrides it with its pass.
    fn schedule(&self, graph: &Graph) -> Schedule {
        let _ = graph;
        Schedule::Nodes(None)
    }

    /// Peak SRAM demand of a whole model (activations + workspace at the
    /// bottleneck step, no runtime overhead), priced from
    /// [`schedule`](Self::schedule).
    fn model_demand_bytes(&self, graph: &Graph) -> usize {
        self.schedule(graph).demand_bytes(self, graph)
    }

    /// Plans a whole model for a device: one entry per step of
    /// [`schedule`](Self::schedule).
    fn plan_model(&self, graph: &Graph, device: &Device) -> MemoryPlan {
        self.schedule(graph).memory_plan(self, graph, device)
    }

    /// Plans a sequence of named layers for a device.
    fn plan(&self, layers: &[(String, LayerDesc)], device: &Device) -> MemoryPlan {
        crate::telemetry::record_plan_call();
        let plans = layers
            .iter()
            .map(|(name, layer)| {
                let (act, ws) = self.plan_layer(layer);
                let measured = act + ws + device.runtime_overhead_bytes;
                LayerPlan {
                    name: name.clone(),
                    kind: layer.kind(),
                    activation_bytes: act,
                    workspace_bytes: ws,
                    measured_bytes: measured,
                    fits: measured <= device.ram_bytes,
                }
            })
            .collect();
        MemoryPlan {
            planner: self.name(),
            device: device.name.clone(),
            layers: plans,
        }
    }
}

/// Convenience: wraps named modules into the `(name, layer)` form.
pub fn named_ib_layers(modules: &[vmcu_graph::zoo::NamedIb]) -> Vec<(String, LayerDesc)> {
    modules
        .iter()
        .map(|m| (m.name.to_owned(), LayerDesc::Ib(m.params)))
        .collect()
}

/// Convenience: wraps the Figure 7 pointwise cases.
pub fn named_pointwise_layers(
    cases: &[vmcu_graph::zoo::NamedPointwise],
) -> Vec<(String, LayerDesc)> {
    cases
        .iter()
        .map(|c| (c.name.clone(), LayerDesc::Pointwise(c.params)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_kernels::params::PointwiseParams;
    use vmcu_tensor::Requant;

    struct Disjoint;
    impl MemoryPlanner for Disjoint {
        fn name(&self) -> &'static str {
            "disjoint"
        }
        fn plan_layer(&self, layer: &LayerDesc) -> (usize, usize) {
            (layer.in_bytes() + layer.out_bytes(), 0)
        }
    }

    fn layer(hw: usize, c: usize, k: usize) -> LayerDesc {
        LayerDesc::Pointwise(PointwiseParams::new(hw, hw, c, k, Requant::identity()))
    }

    #[test]
    fn plan_reports_bottleneck_and_fit() {
        let device = Device::stm32_f411re();
        let layers = vec![
            ("small".to_owned(), layer(10, 8, 8)),
            ("big".to_owned(), layer(90, 16, 16)),
        ];
        let plan = Disjoint.plan(&layers, &device);
        assert_eq!(plan.bottleneck(), 1);
        // 90*90*16*2 = 259,200 + overhead > 128 KiB.
        assert!(!plan.layers[1].fits);
        assert!(plan.layers[0].fits);
        assert!(!plan.deployable());
    }

    #[test]
    fn measured_includes_runtime_overhead() {
        let device = Device::stm32_f411re();
        let layers = vec![("l".to_owned(), layer(4, 4, 4))];
        let plan = Disjoint.plan(&layers, &device);
        assert_eq!(
            plan.layers[0].measured_bytes,
            plan.layers[0].planned_bytes() + device.runtime_overhead_bytes
        );
    }
}
