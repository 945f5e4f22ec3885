//! Whole-network pointer chaining (§4's multi-layer deployment story).
//!
//! The paper sets each layer's input pointer to the previous layer's
//! output pointer: the entire network then flows through **one** circular
//! pool window, with every layer's output chasing its input. This module
//! plans that chain — per-layer executable distances from the kernel
//! traces, composed into absolute bases — and sizes the single window as
//! the maximum per-layer span.

use vmcu_graph::Graph;
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::IbScheme;

/// The planned chain: one pool window, one base pointer per tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPlan {
    /// Pool window in bytes (max per-layer span).
    pub window: usize,
    /// Workspace bytes beside the pool (max across fused layers).
    pub workspace: usize,
    /// Logical base address of every activation tensor: `bases[0]` is the
    /// graph input, `bases[i+1]` the output of layer `i`.
    pub bases: Vec<i64>,
    /// Executable `bIn − bOut` per layer.
    pub distances: Vec<i64>,
    /// Index of the layer that sets the window size.
    pub peak_layer: usize,
}

impl ChainPlan {
    /// Total RAM for the chained deployment (window + workspace).
    pub fn total_bytes(&self) -> usize {
        self.window + self.workspace
    }
}

/// Plans a linear graph into one circular pool.
///
/// # Panics
///
/// Panics only if internal bookkeeping breaks (the running `bases`
/// vector is seeded non-empty) — never for a well-formed graph.
pub fn plan_chain(graph: &Graph, scheme: IbScheme) -> ChainPlan {
    crate::telemetry::record_plan_call();
    let mut bases = vec![0i64];
    let mut distances = Vec::with_capacity(graph.len());
    let mut window = 0usize;
    let mut workspace = 0usize;
    let mut peak_layer = 0usize;
    for (i, layer) in graph.layers().iter().enumerate() {
        let d = layer.exec_distance(scheme);
        let span = pool_window(layer.in_bytes(), layer.out_bytes(), d);
        if span > window {
            window = span;
            peak_layer = i;
        }
        workspace = workspace.max(layer.workspace_bytes(scheme));
        distances.push(d);
        let b_in = *bases.last().expect("bases starts non-empty");
        bases.push(b_in - d);
    }
    ChainPlan {
        window,
        workspace,
        bases,
        distances,
        peak_layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryPlanner, VmcuPass, VmcuPlanner};
    use vmcu_graph::{zoo, LayerDesc};
    use vmcu_kernels::params::PointwiseParams;
    use vmcu_sim::Device;
    use vmcu_tensor::Requant;

    fn pw(h: usize, c: usize, k: usize) -> LayerDesc {
        LayerDesc::Pointwise(PointwiseParams::new(h, h, c, k, Requant::identity()))
    }

    #[test]
    fn chain_bases_compose_distances() {
        let g = Graph::linear("g", vec![pw(8, 4, 8), pw(8, 8, 4)]).unwrap();
        let plan = plan_chain(&g, IbScheme::RowBuffer);
        assert_eq!(plan.bases.len(), 3);
        assert_eq!(plan.bases[0], 0);
        assert_eq!(plan.bases[1], -plan.distances[0]);
        assert_eq!(plan.bases[2], plan.bases[1] - plan.distances[1]);
    }

    #[test]
    fn window_is_max_layer_span_not_sum() {
        let g = zoo::demo_linear_net();
        let plan = plan_chain(&g, IbScheme::RowBuffer);
        let sum: usize = g
            .layers()
            .iter()
            .map(|l| l.in_bytes() + l.out_bytes())
            .sum();
        assert!(plan.window < sum, "chained window must reuse memory");
        let max_tensor = g
            .layers()
            .iter()
            .map(|l| l.in_bytes().max(l.out_bytes()))
            .max()
            .unwrap();
        assert!(plan.window >= max_tensor);
        assert!(plan.peak_layer < g.len());
    }

    #[test]
    fn chain_total_covers_the_per_node_peak() {
        // The window is the largest layer span and the workspace the
        // largest layer workspace, so a chained deployment needs at least
        // the per-node plan's peak: no model the per-node fit gate
        // rejects fits chained.
        let one_layer = |name: String, layer| Graph::linear(name, vec![layer]).unwrap();
        let mut graphs = vec![
            zoo::demo_linear_net(),
            zoo::mbv2_block_unfused(),
            zoo::wide_expand_chain(),
            zoo::hires_front_stage(),
            zoo::hires_split_only(),
        ];
        graphs.extend((0..60).map(|seed| zoo::random_linear_net(seed, 6)));
        graphs.extend(
            zoo::mcunet_5fps_vww()
                .into_iter()
                .chain(zoo::mcunet_320kb_imagenet())
                .map(|m| one_layer(m.name.to_owned(), LayerDesc::Ib(m.params))),
        );
        graphs.extend(
            zoo::fig7_cases()
                .into_iter()
                .map(|c| one_layer(c.name, LayerDesc::Pointwise(c.params))),
        );
        let device = Device::stm32_f411re();
        for scheme in [
            IbScheme::RowBuffer,
            IbScheme::PixelWindow,
            IbScheme::SlidingWindow,
        ] {
            let per_node = VmcuPlanner::new(scheme, VmcuPass::Nodes);
            for g in &graphs {
                let chain = plan_chain(g, scheme).total_bytes();
                let peak = per_node.plan_model(g, &device).peak_demand_bytes();
                assert!(
                    chain >= peak,
                    "{scheme:?} {}: chain {chain} < per-node peak {peak}",
                    g.name
                );
            }
        }
    }

    #[test]
    fn workspace_tracks_fused_layers_only() {
        let g = Graph::linear("g", vec![pw(8, 4, 8), pw(8, 8, 4)]).unwrap();
        assert_eq!(plan_chain(&g, IbScheme::RowBuffer).workspace, 0);
        let g = zoo::demo_linear_net();
        assert!(plan_chain(&g, IbScheme::RowBuffer).workspace > 0);
    }
}
