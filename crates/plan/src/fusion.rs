//! The multi-layer segment fusion pass — the step that turns the paper's
//! two halves (segment-level planning *and* kernel optimization) into one
//! coordinated system for whole graphs.
//!
//! [`fuse_graph`] walks a linear [`Graph`], greedily groups maximal runs
//! of fusable layers (pointwise / depthwise / dense 2D convolution /
//! fully-connected) into [`vmcu_kernels::fused_chain::FusedChain`]s, and
//! keeps a group fused only when its fused footprint (pool window + ring
//! workspace) undercuts the bottleneck of planning the same layers one at
//! a time. Unfusable layers (inverted bottlenecks, which are already
//! their own fused unit) break chains and become singleton nodes.
//!
//! The walk runs over a per-graph fusion table that prices each layer on
//! its own once and builds each fused layer range at most once. The split
//! partitioner and the patch search fuse many ranges of one graph, so
//! they share one table per call instead of re-fusing every sub-graph.
//!
//! Two distances describe every chain:
//!
//! * the **executable** distance from the kernel's dry-run trace
//!   ([`vmcu_kernels::fused_chain::chain_exec_distance`]) — what the plan
//!   stores and deploys with;
//! * the **solver lower bound** from [`vmcu_solver::multilayer`]'s
//!   read/write event analysis ([`chain_solver_distance`], computed on
//!   demand — it is diagnostic, not needed on the serving hot path) —
//!   the §5.2 optimum a finer-grained schedule could reach. Tests assert
//!   `solver ≤ executable`.
//!
//! [`VmcuPass::Fuse`] runs the pass inside [`VmcuPlanner`]: single
//! layers price as they do under every vMCU pass, whole models price at
//! the fused plan's peak, so [`crate::capacity::peak_demand_bytes`] (and
//! with it fleet placement) picks the fusion savings up for free.
//!
//! # Examples
//!
//! Fusing an unfused MobileNetV2-style block (expand → depthwise →
//! project as three separate layers) undercuts planning it layer by
//! layer, because the expanded intermediate never materializes:
//!
//! ```
//! use vmcu_plan::fusion::fuse_graph;
//! use vmcu_plan::{peak_demand_bytes, VmcuPass, VmcuPlanner};
//! use vmcu_graph::zoo;
//! use vmcu_kernels::IbScheme;
//!
//! let g = zoo::mbv2_block_unfused();
//! let plan = fuse_graph(&g, IbScheme::RowBuffer);
//! assert_eq!(plan.fused_groups(), 1); // all three layers fuse
//!
//! let fused = peak_demand_bytes(&VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse), &g);
//! let unfused = peak_demand_bytes(&VmcuPlanner::default(), &g);
//! assert!(fused < unfused);
//! ```

use crate::planner::{LayerPlan, MemoryPlanner};
use crate::vmcu_planner::{VmcuPass, VmcuPlanner};
use std::collections::HashMap;
use vmcu_graph::Graph;
use vmcu_kernels::fused_chain::{
    chain_exec_distance, chain_schedule, chain_workspace_bytes, ChainStep, FusedChain,
};
use vmcu_kernels::trace::pool_window;
use vmcu_kernels::{ChainOp, IbScheme};
use vmcu_sim::Device;
use vmcu_solver::multilayer::{min_distance_events, Event};

/// A fused run of consecutive graph layers.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGroup {
    /// Index of the first fused layer.
    pub start: usize,
    /// One past the last fused layer.
    pub end: usize,
    /// The executable chain.
    pub chain: FusedChain,
    /// Executable `bIn − bOut` from the kernel trace. (The §5.2 solver
    /// lower bound is deliberately *not* stored here — it is diagnostic
    /// only and the event scan is not free on the serving hot path;
    /// compute it on demand with [`chain_solver_distance`].)
    pub exec_distance: i64,
    /// Pool window bytes (input/output overlap).
    pub window: usize,
    /// Ring workspace bytes beside the pool.
    pub workspace: usize,
}

impl FusedGroup {
    /// Peak SRAM this group demands (window + workspace, no runtime
    /// overhead).
    pub fn demand_bytes(&self) -> usize {
        self.window + self.workspace
    }

    /// Display label, shared by plan reports and execution reports.
    pub fn label(&self) -> String {
        format!("fused[{}..{}]", self.start, self.end)
    }

    /// The plan entry for this group on `device` — the single source of
    /// the name/kind/measured/fits accounting behind
    /// [`Schedule::memory_plan`](crate::Schedule::memory_plan).
    pub fn layer_plan(&self, device: &Device) -> LayerPlan {
        let measured = self.demand_bytes() + device.runtime_overhead_bytes;
        LayerPlan {
            name: self.label(),
            kind: "fused-chain",
            activation_bytes: self.window,
            workspace_bytes: self.workspace,
            measured_bytes: measured,
            fits: measured <= device.ram_bytes,
        }
    }
}

/// One node of a fused execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FusionNode {
    /// A layer executed on its own (unfusable, or fusion did not pay).
    Single {
        /// Graph layer index.
        index: usize,
        /// Activation bytes under single-layer vMCU planning.
        activation_bytes: usize,
        /// Workspace bytes under single-layer vMCU planning.
        workspace_bytes: usize,
    },
    /// A run of layers executed as one fused chain.
    Fused(FusedGroup),
}

impl FusionNode {
    /// Peak SRAM demand of the node (activations + workspace).
    pub fn demand_bytes(&self) -> usize {
        match self {
            FusionNode::Single {
                activation_bytes,
                workspace_bytes,
                ..
            } => activation_bytes + workspace_bytes,
            FusionNode::Fused(g) => g.demand_bytes(),
        }
    }

    /// Graph layer range `[start, end)` this node covers.
    pub fn layer_range(&self) -> (usize, usize) {
        match self {
            FusionNode::Single { index, .. } => (*index, index + 1),
            FusionNode::Fused(g) => (g.start, g.end),
        }
    }

    /// The plan entry for this node on `device` — the fused, patched-tail
    /// and split-stage rows of [`Schedule::memory_plan`](crate::Schedule::memory_plan).
    pub fn layer_plan(&self, graph: &Graph, device: &Device) -> LayerPlan {
        match self {
            FusionNode::Single {
                index,
                activation_bytes,
                workspace_bytes,
            } => {
                let layer = &graph.layers()[*index];
                let measured = activation_bytes + workspace_bytes + device.runtime_overhead_bytes;
                LayerPlan {
                    name: format!("{}#{index}", layer.kind()),
                    kind: layer.kind(),
                    activation_bytes: *activation_bytes,
                    workspace_bytes: *workspace_bytes,
                    measured_bytes: measured,
                    fits: measured <= device.ram_bytes,
                }
            }
            FusionNode::Fused(g) => g.layer_plan(device),
        }
    }
}

/// A whole-graph fused execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionPlan {
    /// Nodes in execution order; their layer ranges tile the graph.
    pub nodes: Vec<FusionNode>,
}

impl FusionPlan {
    /// Peak SRAM demand across nodes (the fused analogue of
    /// [`crate::capacity::peak_demand_bytes`]).
    pub fn peak_demand_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(FusionNode::demand_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Number of fused (multi-layer) groups.
    pub fn fused_groups(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, FusionNode::Fused(_)))
            .count()
    }
}

/// Pool-level read/write events of a chain schedule, for the solver's
/// §5.2 `min (bIn − bOut)` analysis. Only the extreme byte of each
/// contiguous row range is emitted — the bound is linear in addresses, so
/// extremes are exact.
fn chain_rw_events(chain: &FusedChain) -> Vec<Event> {
    let n = chain.len();
    let heights = chain.heights();
    let op0 = chain.ops()[0];
    let irb = op0.in_row_bytes();
    let orb = chain.ops()[n - 1].out_row_bytes();
    let (r0, s0, p0) = op0.row_window();
    let mut events = Vec::new();
    // Reads of the pool input happen when the first intermediate row (or,
    // for single-op chains, the output row) is produced.
    let push_reads = |row: usize, events: &mut Vec<Event>| {
        let lo = (row * s0).saturating_sub(p0);
        let hi = ((row * s0 + r0 - 1) as i64 - p0 as i64).min(heights[0] as i64 - 1);
        if hi >= 0 && lo <= hi as usize {
            events.push(Event::Read((lo * irb) as i64));
            events.push(Event::Read(((hi as usize + 1) * irb) as i64 - 1));
        }
    };
    for step in chain_schedule(chain) {
        match step {
            ChainStep::ProduceRow { stage: 1, row } => push_reads(row, &mut events),
            ChainStep::ProduceRow { .. } => {}
            ChainStep::StoreOutRow(p) => {
                if n == 1 {
                    push_reads(p, &mut events);
                }
                events.push(Event::Write(((p + 1) * orb) as i64 - 1));
            }
            ChainStep::FreeInRows { .. } => {}
        }
    }
    events
}

/// §5.2 lower bound on the chain's `bIn − bOut` from the solver's
/// read/write event analysis. The executable distance can only be looser
/// (frees are row-granular, reads are not).
pub fn chain_solver_distance(chain: &FusedChain) -> Option<i64> {
    min_distance_events(chain_rw_events(chain))
}

/// Builds the fused group for a run of chain operators.
fn fused_group(start: usize, ops: Vec<ChainOp>) -> FusedGroup {
    let end = start + ops.len();
    let chain = FusedChain::new(ops).expect("graph-validated shapes chain");
    let exec_distance = chain_exec_distance(&chain);
    let window = pool_window(chain.in_bytes(), chain.out_bytes(), exec_distance);
    let workspace = chain_workspace_bytes(&chain);
    FusedGroup {
        start,
        end,
        chain,
        exec_distance,
        window,
        workspace,
    }
}

/// Per-graph memo of the fusion pass: each layer's single-layer
/// `(activation, workspace)` is computed once, and each fusable range
/// `[p, q)`'s [`FusedGroup`] is built at most once, however many layer
/// ranges [`FusionTable::plan`] fuses over it. [`fuse_graph`] plans
/// `[0, n)` from a fresh table; the split partitioner prices every
/// sub-range of one graph from one table, and the patch search plans
/// its fallback and its tail from one.
pub(crate) struct FusionTable {
    /// Chain operator per layer; `None` breaks a chain. Fusion threads
    /// one tensor through one window — a chain pass — so on a branchy
    /// DAG every layer is `None` and every node stays single (the
    /// DAG-aware planner default and the order search own the branch
    /// accounting).
    ops: Vec<Option<ChainOp>>,
    /// Single-layer vMCU `(activation, workspace)` per layer.
    single: Vec<(usize, usize)>,
    /// Fused groups built so far, keyed by graph-absolute `(start, end)`.
    groups: HashMap<(usize, usize), FusedGroup>,
}

impl FusionTable {
    /// Prices every layer of `graph` on its own under `scheme`; no
    /// chain is built until a range asks for it.
    pub(crate) fn new(graph: &Graph, scheme: IbScheme) -> Self {
        let single = VmcuPlanner::new(scheme, VmcuPass::Nodes);
        let chain = graph.is_chain();
        let layers = graph.layers();
        Self {
            ops: layers
                .iter()
                .map(|l| l.chain_op().filter(|_| chain))
                .collect(),
            single: layers.iter().map(|l| single.plan_layer(l)).collect(),
            groups: HashMap::new(),
        }
    }

    /// Fused chains built so far — one per distinct range ever tried.
    #[cfg(test)]
    pub(crate) fn chains_built(&self) -> usize {
        self.groups.len()
    }

    /// Fuses layers `[lo, hi)` exactly as [`fuse_graph`] fuses them as a
    /// graph of their own — this is its greedy. Node indices are
    /// graph-absolute and the nodes' layer ranges tile `[lo, hi)`.
    pub(crate) fn plan(&mut self, lo: usize, hi: usize) -> FusionPlan {
        let mut nodes = Vec::new();
        let mut i = lo;
        while i < hi {
            let run = self.ops[i..hi].iter().take_while(|op| op.is_some()).count();
            // Longest beneficial prefix: fuse only when it strictly beats
            // planning the same layers one at a time — so a fused plan's
            // demand never exceeds single-layer vMCU's.
            let mut fused = None;
            for end in (i + 2..=i + run).rev() {
                let unfused_peak = self.single[i..end]
                    .iter()
                    .map(|(a, w)| a + w)
                    .max()
                    .expect("non-empty prefix");
                let group = self.group(i, end);
                if group.demand_bytes() < unfused_peak {
                    fused = Some(group.clone());
                    break;
                }
            }
            match fused {
                Some(group) => {
                    i = group.end;
                    nodes.push(FusionNode::Fused(group));
                }
                None => {
                    // No beneficial chain starts here (unfusable layer,
                    // run of one, or no profitable prefix): emit one
                    // singleton and retry from the next layer — a suffix
                    // may still fuse.
                    let (activation_bytes, workspace_bytes) = self.single[i];
                    nodes.push(FusionNode::Single {
                        index: i,
                        activation_bytes,
                        workspace_bytes,
                    });
                    i += 1;
                }
            }
        }
        FusionPlan { nodes }
    }

    /// The fused group of layers `[start, end)`, built on first use.
    fn group(&mut self, start: usize, end: usize) -> &FusedGroup {
        let ops = &self.ops;
        self.groups.entry((start, end)).or_insert_with(|| {
            let run = ops[start..end].iter().map(|op| op.expect("a fusable run"));
            fused_group(start, run.collect())
        })
    }
}

/// Fuses a linear graph: within each maximal run of fusable layers, the
/// longest prefix whose fused footprint strictly undercuts planning those
/// same layers one at a time becomes a fused group; the search then
/// continues after it (so a profitable sub-chain is found even when the
/// whole run is not profitable). Everything else stays layer-at-a-time,
/// and the result's layer ranges tile the graph. A branchy DAG stays
/// node by node.
///
/// # Panics
///
/// Panics only if internal bookkeeping breaks (a fused group built
/// from a non-empty run) — never for a well-formed graph.
pub fn fuse_graph(graph: &Graph, scheme: IbScheme) -> FusionPlan {
    crate::telemetry::record_plan_call();
    FusionTable::new(graph, scheme).plan(0, graph.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::peak_demand_bytes;
    use vmcu_graph::{zoo, LayerDesc};
    use vmcu_kernels::params::{IbParams, PointwiseParams};
    use vmcu_tensor::Requant;

    fn fused() -> VmcuPlanner {
        VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse)
    }

    fn pw(h: usize, c: usize, k: usize) -> LayerDesc {
        LayerDesc::Pointwise(PointwiseParams::new(h, h, c, k, Requant::identity()))
    }

    #[test]
    fn single_layer_graph_is_a_noop_fusion() {
        let g = Graph::linear("one", vec![pw(8, 4, 8)]).unwrap();
        let plan = fuse_graph(&g, IbScheme::RowBuffer);
        assert_eq!(plan.fused_groups(), 0);
        assert_eq!(plan.nodes.len(), 1);
        assert_eq!(
            peak_demand_bytes(&fused(), &g),
            peak_demand_bytes(&VmcuPlanner::default(), &g),
            "no-op fusion must price exactly like single-layer vMCU"
        );
    }

    #[test]
    fn unfusable_op_breaks_the_chain() {
        // pw, pw, IB, pw: the IB splits the fusable layers into a front
        // run and a trailing singleton.
        let mut ib = IbParams::new(8, 16, 32, 16, 3, (1, 1, 1));
        ib.clamp1 = (0, 127);
        ib.clamp2 = (0, 127);
        let g = Graph::linear(
            "broken",
            vec![pw(8, 4, 64), pw(8, 64, 16), LayerDesc::Ib(ib), pw(8, 16, 8)],
        )
        .unwrap();
        let plan = fuse_graph(&g, IbScheme::RowBuffer);
        assert_eq!(plan.fused_groups(), 1);
        let ranges: Vec<_> = plan.nodes.iter().map(FusionNode::layer_range).collect();
        assert_eq!(ranges, vec![(0, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn ranges_tile_the_graph() {
        for seed in 0..20 {
            let g = zoo::random_linear_net(seed, 6);
            let plan = fuse_graph(&g, IbScheme::RowBuffer);
            let mut next = 0;
            for node in &plan.nodes {
                let (s, e) = node.layer_range();
                assert_eq!(s, next, "seed {seed}");
                assert!(e > s);
                next = e;
            }
            assert_eq!(next, g.len(), "seed {seed}");
        }
    }

    #[test]
    fn fused_demand_never_exceeds_single_layer_vmcu() {
        // The benefit check makes this structural; fleet placement's
        // "fused holds at least what vMCU holds" guarantee rests on it.
        let zoo_chains = [
            zoo::demo_linear_net(),
            zoo::mbv2_block_unfused(),
            zoo::wide_expand_chain(),
        ];
        let random_nets = (0..30).map(|seed| zoo::random_linear_net(seed, 5));
        for g in zoo_chains.into_iter().chain(random_nets) {
            assert!(
                peak_demand_bytes(&fused(), &g) <= peak_demand_bytes(&VmcuPlanner::default(), &g),
                "{}",
                g.name
            );
        }
    }

    #[test]
    fn fused_peak_is_strictly_below_vmcu_on_the_zoo_chain() {
        // The acceptance criterion: a zoo model where multi-layer fusion
        // strictly beats single-layer segment planning.
        let g = zoo::mbv2_block_unfused();
        let fused = peak_demand_bytes(&fused(), &g);
        let vmcu = peak_demand_bytes(&VmcuPlanner::default(), &g);
        assert!(
            fused < vmcu,
            "fused {fused} must be strictly below single-layer vMCU {vmcu}"
        );
    }

    #[test]
    fn profitable_prefix_fuses_even_when_the_whole_run_does_not() {
        // [expand 8→32, project 32→8, fat 8→64]: fusing all three drags
        // the fat output into the chain window (no savings — the fat
        // layer is the peak either way, and the rings only add), but the
        // expand/project prefix alone undercuts its unfused peak.
        let g = Graph::linear("prefix", vec![pw(12, 8, 32), pw(12, 32, 8), pw(12, 8, 64)]).unwrap();
        let whole = fused_group(
            0,
            g.layers().iter().map(|l| l.chain_op().unwrap()).collect(),
        );
        let unfused_peak = g
            .layers()
            .iter()
            .map(|l| {
                let (a, w) = VmcuPlanner::default().plan_layer(l);
                a + w
            })
            .max()
            .unwrap();
        assert!(
            whole.demand_bytes() >= unfused_peak,
            "test premise: whole-run fusion must not be profitable \
             ({} vs {unfused_peak})",
            whole.demand_bytes()
        );
        let plan = fuse_graph(&g, IbScheme::RowBuffer);
        let ranges: Vec<_> = plan.nodes.iter().map(FusionNode::layer_range).collect();
        assert_eq!(
            ranges,
            vec![(0, 2), (2, 3)],
            "prefix fuses, fat tail stays single"
        );
        assert!(
            plan.peak_demand_bytes() <= unfused_peak,
            "partial fusion must not raise the plan's peak"
        );
    }

    #[test]
    fn solver_bound_is_at_most_the_executable_distance() {
        let g = zoo::mbv2_block_unfused();
        let plan = fuse_graph(&g, IbScheme::RowBuffer);
        let FusionNode::Fused(group) = &plan.nodes[0] else {
            panic!("zoo chain must fuse");
        };
        let solver = chain_solver_distance(&group.chain).expect("writes precede reads");
        assert!(
            solver <= group.exec_distance,
            "solver bound {solver} must not exceed executable {}",
            group.exec_distance
        );
    }

    #[test]
    fn plan_model_reports_fused_nodes_with_fit() {
        let g = zoo::mbv2_block_unfused();
        let device = Device::stm32_f411re();
        let plan = fused().plan_model(&g, &device);
        assert_eq!(plan.layers.len(), 1);
        assert_eq!(plan.layers[0].kind, "fused-chain");
        assert_eq!(plan.layers[0].name, "fused[0..3]");
        assert!(plan.deployable());
        // Demand surfaces agree.
        assert_eq!(
            plan.bottleneck_bytes() - device.runtime_overhead_bytes,
            fused().model_demand_bytes(&g)
        );
    }

    #[test]
    fn wide_chain_only_fits_fused() {
        let g = zoo::wide_expand_chain();
        let device = Device::stm32_f411re();
        assert!(
            !crate::capacity::plan_graph(&VmcuPlanner::default(), &g, &device).deployable(),
            "layer-at-a-time vMCU must not fit the wide chain at 128 KB"
        );
        assert!(
            crate::capacity::plan_graph(&fused(), &g, &device).deployable(),
            "the fused pipeline must fit the wide chain at 128 KB"
        );
    }
}
