//! Layer-wise graph partitioning for split inference across networked
//! MCUs.
//!
//! Some models fit on *no* single device: even the fused and patched
//! planners bottom out at the biggest single execution node. Following
//! the split-CNN line of work, [`plan_split`] cuts a linear graph into
//! at most `devices` (1–8) contiguous per-device sub-graphs, choosing
//! the cut points that **minimize the maximum per-device peak** — each
//! sub-graph is planned exactly as the fusion pass
//! ([`fuse_graph`](crate::fusion::fuse_graph)) plans it as a graph of
//! its own, so every stage inherits the single-device planners' savings.
//! Cut edges ship the boundary activation tensor over a board-to-board
//! link priced by `vmcu_sim::LinkModel`.
//!
//! The partitioner is exact: a dynamic program over contiguous
//! partitions (O(devices · n²) table over O(n²) fused sub-range
//! demands), deterministic under ties — fewest stages first, then
//! earliest cut — so the same graph always splits the same way on any
//! host. Every sub-range demand and every chosen stage's fusion plan
//! come from one per-graph fusion table, which builds each fused layer
//! range `[p, q)` at most once: at most n(n−1)/2 chain builds per
//! partition, where fusing each sub-graph from scratch made O(n⁴).
//!
//! # Examples
//!
//! ```
//! use vmcu_plan::split::plan_split;
//! use vmcu_plan::{MemoryPlanner, VmcuPass, VmcuPlanner};
//! use vmcu_graph::zoo;
//! use vmcu_kernels::IbScheme;
//! use vmcu_sim::Device;
//!
//! let g = zoo::hires_split_only();
//! let split = plan_split(&g, 4, IbScheme::RowBuffer);
//! assert!(split.stages().len() >= 2);
//! // Splitting strictly relieves the single-device fused bottleneck.
//! let fused = VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse)
//!     .plan_model(&g, &Device::stm32_f411re());
//! assert!(split.max_stage_demand_bytes() < fused.peak_demand_bytes());
//! ```

use crate::fusion::{FusionNode, FusionPlan, FusionTable};
use crate::vmcu_planner::{VmcuPass, VmcuPlanner};
use vmcu_graph::Graph;
use vmcu_kernels::IbScheme;

/// One per-device stage of a split plan: a contiguous layer range, the
/// memoized sub-graph and its fused execution plan, and the cut tensor
/// it ships downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitStage {
    /// Pipeline position — stage `k` runs on device `k`.
    pub device: usize,
    /// Index of the first layer in this stage.
    pub start: usize,
    /// One past the last layer in this stage.
    pub end: usize,
    /// The stage sub-graph (layers `[start, end)`; node indices inside
    /// [`Self::fusion`] are stage-local).
    pub graph: Graph,
    /// The stage's fused execution plan, memoized at partition time so
    /// deployments never re-run the fusion pass per inference.
    pub fusion: FusionPlan,
    /// Peak SRAM this stage demands (the fused plan's peak, no runtime
    /// overhead).
    pub demand_bytes: usize,
    /// Bytes shipped over the link to the next stage (the boundary
    /// activation tensor); `0` for the final stage.
    pub cut_bytes: usize,
}

impl SplitStage {
    /// Number of graph layers assigned to this stage.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the stage is empty (never true for plans built by
    /// [`plan_split`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A whole-model split plan: contiguous stages whose layer ranges tile
/// the graph, one device per stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    stages: Vec<SplitStage>,
}

impl SplitPlan {
    /// The stages in pipeline order.
    pub fn stages(&self) -> &[SplitStage] {
        &self.stages
    }

    /// Number of devices the plan occupies.
    pub fn device_count(&self) -> usize {
        self.stages.len()
    }

    /// The plan's bottleneck: the maximum per-stage peak demand (no
    /// runtime overhead). It is the split model's peak demand (its rows'
    /// [`MemoryPlan::peak_demand_bytes`](crate::MemoryPlan::peak_demand_bytes)):
    /// the SRAM a serving fleet holds for the whole model on one device.
    pub fn max_stage_demand_bytes(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.demand_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes crossing device boundaries for one inference — by
    /// construction exactly the sum of the cut-edge tensor sizes.
    pub fn transfer_bytes(&self) -> usize {
        self.stages.iter().map(|s| s.cut_bytes).sum()
    }
}

/// The stage sub-graph for layers `[start, end)` — a contiguous slice of
/// a validated chain, so re-validation cannot fail.
fn subgraph(graph: &Graph, start: usize, end: usize) -> Graph {
    Graph::linear(
        format!("{}[{start}..{end}]", graph.name),
        graph.layers()[start..end].to_vec(),
    )
    .expect("a contiguous slice of a validated chain chains")
}

/// Re-bases a graph-absolute fusion plan of layers `[start, ..)` onto
/// the stage sub-graph that starts at `start`.
fn stage_local(mut plan: FusionPlan, start: usize) -> FusionPlan {
    for node in &mut plan.nodes {
        match node {
            FusionNode::Single { index, .. } => *index -= start,
            FusionNode::Fused(g) => {
                g.start -= start;
                g.end -= start;
            }
        }
    }
    plan
}

/// Partitions a linear graph into at most `devices` (clamped to 1..=8)
/// contiguous stages minimizing the maximum per-stage fused peak.
///
/// Exact dynamic program over contiguous partitions; among optima it
/// prefers **fewest stages** (a model that fits one device is not split
/// needlessly), then the earliest cut points. Each candidate range is
/// priced exactly as the fusion pass prices it as a graph of its own, so
/// a 1-stage plan's demand equals the peak demand of the
/// [`VmcuPass::Fuse`] planner's plan exactly.
pub fn plan_split(graph: &Graph, devices: u8, scheme: IbScheme) -> SplitPlan {
    crate::telemetry::record_plan_call();
    partition(&mut FusionTable::new(graph, scheme), graph, devices, scheme)
}

/// [`plan_split`] with every range priced from `table`, which must be
/// `graph`'s own.
fn partition(table: &mut FusionTable, graph: &Graph, devices: u8, scheme: IbScheme) -> SplitPlan {
    let n = graph.len();
    if n == 0 {
        return SplitPlan { stages: Vec::new() };
    }
    // Split stages are contiguous *chain* slices; a branchy DAG does not
    // partition that way, so it stays whole on one device priced at its
    // DAG-aware default-order peak — splitting offers no relief here.
    if !graph.is_chain() {
        let fusion = table.plan(0, n);
        let order: Vec<usize> = (0..n).collect();
        let demand_bytes =
            crate::order::peak_for_order(&VmcuPlanner::new(scheme, VmcuPass::Nodes), graph, &order);
        return SplitPlan {
            stages: vec![SplitStage {
                device: 0,
                start: 0,
                end: n,
                graph: graph.clone(),
                fusion,
                demand_bytes,
                cut_bytes: 0,
            }],
        };
    }
    let max_stages = (devices.clamp(1, 8) as usize).min(n);

    // Fused peak demand of every contiguous layer range.
    let mut demand = vec![vec![0usize; n + 1]; n];
    for (i, row) in demand.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
            *slot = table.plan(i, j).peak_demand_bytes();
        }
    }

    // best[k][j]: minimal achievable max-stage demand partitioning
    // layers [0, j) into exactly k non-empty stages.
    let mut best = vec![vec![usize::MAX; n + 1]; max_stages + 1];
    let mut cut = vec![vec![0usize; n + 1]; max_stages + 1];
    best[0][0] = 0;
    for k in 1..=max_stages {
        for j in k..=n {
            for i in k - 1..j {
                if best[k - 1][i] == usize::MAX {
                    continue;
                }
                let cand = best[k - 1][i].max(demand[i][j]);
                // Strict improvement only: ascending i means ties keep
                // the earliest previous cut — deterministic.
                if cand < best[k][j] {
                    best[k][j] = cand;
                    cut[k][j] = i;
                }
            }
        }
    }

    // Fewest stages among the optima: ascending k with strict
    // improvement, so a model that already fits stays on one device.
    let mut stage_count = 1;
    for k in 2..=max_stages {
        if best[k][n] < best[stage_count][n] {
            stage_count = k;
        }
    }

    let mut bounds = vec![0usize; stage_count + 1];
    bounds[stage_count] = n;
    let mut j = n;
    for k in (1..=stage_count).rev() {
        j = cut[k][j];
        bounds[k - 1] = j;
    }

    let stages = (0..stage_count)
        .map(|k| {
            let (start, end) = (bounds[k], bounds[k + 1]);
            let fusion = stage_local(table.plan(start, end), start);
            let demand_bytes = fusion.peak_demand_bytes();
            let cut_bytes = if k + 1 < stage_count {
                graph.layers()[end - 1].out_bytes()
            } else {
                0
            };
            SplitStage {
                device: k,
                start,
                end,
                graph: subgraph(graph, start, end),
                fusion,
                demand_bytes,
                cut_bytes,
            }
        })
        .collect();
    SplitPlan { stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::demand;
    use crate::planner::MemoryPlanner;
    use crate::schedule::Schedule;
    use vmcu_graph::zoo;

    fn planner(pass: VmcuPass) -> VmcuPlanner {
        VmcuPlanner::new(IbScheme::RowBuffer, pass)
    }

    #[test]
    fn stages_tile_the_graph_and_respect_the_device_cap() {
        for seed in 0..20 {
            let g = zoo::random_linear_net(seed, 5);
            for devices in [2u8, 4, 8] {
                let split = plan_split(&g, devices, IbScheme::RowBuffer);
                assert!(split.device_count() <= devices as usize, "seed {seed}");
                let mut next = 0;
                for stage in split.stages() {
                    assert_eq!(stage.start, next, "seed {seed}");
                    assert!(!stage.is_empty(), "seed {seed}");
                    assert_eq!(stage.len(), stage.graph.len(), "seed {seed}");
                    next = stage.end;
                }
                assert_eq!(next, g.len(), "seed {seed}");
            }
        }
    }

    #[test]
    fn single_stage_prices_exactly_like_the_fused_planner() {
        // A model that fits one device must not be split needlessly:
        // the fewest-stages tie-break keeps k = 1 whenever one stage is
        // already optimal, and then the demand is the fused peak.
        let g = zoo::mbv2_block_unfused();
        let split = plan_split(&g, 8, IbScheme::RowBuffer);
        assert_eq!(split.device_count(), 1);
        assert_eq!(
            split.max_stage_demand_bytes(),
            demand(&planner(VmcuPass::Fuse), &g)
        );
        assert_eq!(split.transfer_bytes(), 0);
    }

    #[test]
    fn split_peak_never_exceeds_the_single_device_planners() {
        // Structural: k = 1 is always a DP candidate, so the chosen
        // partition's max stage demand is ≤ the fused peak ≤ vMCU's.
        for seed in 0..20 {
            let g = zoo::random_linear_net(seed, 4);
            let split = demand(&planner(VmcuPass::Split { devices: 4 }), &g);
            let fused = demand(&planner(VmcuPass::Fuse), &g);
            let vmcu = demand(&VmcuPlanner::default(), &g);
            assert!(split <= fused, "seed {seed}: split {split} > fused {fused}");
            assert!(fused <= vmcu, "seed {seed}");
        }
    }

    #[test]
    fn cut_bytes_are_the_boundary_tensors() {
        let g = zoo::hires_split_only();
        let split = plan_split(&g, 4, IbScheme::RowBuffer);
        assert!(split.device_count() >= 2);
        let mut total = 0;
        for w in split.stages().windows(2) {
            let sender = &w[0];
            assert_eq!(
                sender.cut_bytes,
                g.layers()[sender.end - 1].out_bytes(),
                "cut ships exactly the boundary activation"
            );
            total += sender.cut_bytes;
        }
        assert_eq!(split.stages().last().unwrap().cut_bytes, 0);
        assert_eq!(split.transfer_bytes(), total);
    }

    #[test]
    fn plan_model_orders_stage_nodes_then_links() {
        let g = zoo::hires_split_only();
        let device = vmcu_sim::Device::stm32_f411re();
        let planner = planner(VmcuPass::Split { devices: 4 });
        let schedule = planner.schedule(&g);
        let Schedule::Split(split) = &schedule else {
            panic!("a chain splits");
        };
        let plan = schedule.memory_plan(&planner, &g, &device);
        let links = plan.layers.iter().filter(|l| l.kind == "link").count();
        assert_eq!(links, split.device_count() - 1);
        // The bottleneck stays at a stage, never at a link, so the
        // deployment's peak-demand accessor reports the stage peak.
        assert_eq!(
            plan.bottleneck_bytes() - device.runtime_overhead_bytes,
            split.max_stage_demand_bytes()
        );
        assert!(plan.deployable(), "every stage must fit the 128 KB device");
    }

    #[test]
    fn partitioning_builds_each_fused_range_at_most_once() {
        // Pins the work, not the wall clock: one fusion table prices all
        // O(n²) sub-ranges, so the partition builds at most one chain per
        // range of two or more layers — n(n−1)/2 = 231 on this 22-layer
        // model, where fusing every sub-graph from scratch built 1,836.
        let g = zoo::hires_split_only();
        let n = g.len();
        assert_eq!(n, 22);
        let mut table = FusionTable::new(&g, IbScheme::RowBuffer);
        let split = partition(&mut table, &g, 4, IbScheme::RowBuffer);
        assert_eq!(split, plan_split(&g, 4, IbScheme::RowBuffer));
        assert!(
            table.chains_built() <= n * (n - 1) / 2,
            "{} chains built",
            table.chains_built()
        );
    }

    #[test]
    fn deterministic_across_calls() {
        let g = zoo::random_linear_net(7, 6);
        let a = plan_split(&g, 8, IbScheme::RowBuffer);
        let b = plan_split(&g, 8, IbScheme::RowBuffer);
        assert_eq!(a, b);
    }
}
