//! Execution-order search for branchy DAGs.
//!
//! On a straight chain there is nothing to reorder — §8.4's observation
//! that scheduling-based optimizers find no slack on the paper's
//! workloads. On a *branchy* graph the story flips (Liberis & Lane;
//! MCUNetV2): the default topological order may hold two fat branch
//! tensors co-resident, while another valid order retires one branch
//! before starting the next. This module prices an execution order
//! honestly — a tensor stays live until its **last** consumer, and a
//! step pays its executing node's pool window *plus* every other live
//! tensor held alongside — and searches for the cheapest valid
//! topological order:
//!
//! * exhaustive (bitmask DP over executed-node subsets, exact) up to
//!   [`EXHAUSTIVE_NODE_CUTOFF`] nodes;
//! * greedy memory-aware ready-set selection beyond it.
//!
//! The searched plan is **structurally** never worse than the default
//! order: if the search cannot beat the identity order it falls back to
//! it, the same ≤-fallback contract the patch and split passes honor.
//!
//! Per-step resident bytes for the step executing node `v`:
//!
//! ```text
//! resident(v) = window(v) + Σ bytes(t)   for live t not dying at v
//! ```
//!
//! where `window(v)` is the node's planned pool footprint (activations +
//! workspace — inputs consumed in-window included) and a tensor dies at
//! `v` when `v` is its last consumer. On a chain this reduces exactly to
//! the per-layer exec footprint, so chain graphs reorder to the identity
//! plan with an unchanged peak.

use crate::planner::{LayerPlan, MemoryPlan, MemoryPlanner};
use vmcu_graph::{Graph, NodeInput};
use vmcu_sim::Device;

/// Largest node count planned with the exact bitmask DP; larger graphs
/// use the greedy memory-aware order.
pub const EXHAUSTIVE_NODE_CUTOFF: usize = 14;

/// A searched execution order with its liveness-priced demand profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderPlan {
    /// Node indices in execution order (a valid topological order).
    pub order: Vec<usize>,
    /// Per-step demand bytes (window + held live tensors, no runtime
    /// overhead), parallel to `order`.
    pub step_demand_bytes: Vec<usize>,
    /// Peak demand of the searched order.
    pub peak_bytes: usize,
    /// Peak demand of the default (index) topological order.
    pub default_peak_bytes: usize,
}

impl OrderPlan {
    /// Whether the search found a strictly cheaper order.
    pub fn improved(&self) -> bool {
        self.peak_bytes < self.default_peak_bytes
    }
}

/// Tensor ids: 0 is the graph input, `1 + j` is node `j`'s output.
fn tensor_bytes(graph: &Graph) -> Vec<usize> {
    let mut tb = Vec::with_capacity(graph.len() + 1);
    tb.push(graph.in_shape().iter().product());
    tb.extend(graph.layers().iter().map(vmcu_graph::LayerDesc::out_bytes));
    tb
}

/// Tensor id of an input edge.
fn tensor_id(edge: &NodeInput) -> usize {
    match edge {
        NodeInput::GraphInput => 0,
        NodeInput::Node(j) => 1 + *j,
    }
}

/// Consumer node lists per tensor id.
fn consumers(graph: &Graph) -> Vec<Vec<usize>> {
    let mut cons = vec![Vec::new(); graph.len() + 1];
    for (i, ins) in graph.inputs().iter().enumerate() {
        for edge in ins {
            cons[tensor_id(edge)].push(i);
        }
    }
    cons
}

/// Distinct input tensors of node `v`, each with the number of input
/// slots it fills.
fn input_uses(graph: &Graph, v: usize) -> Vec<(usize, usize)> {
    let mut uses: Vec<(usize, usize)> = Vec::new();
    for edge in graph.node_inputs(v) {
        let t = tensor_id(edge);
        match uses.iter_mut().find(|(id, _)| *id == t) {
            Some((_, k)) => *k += 1,
            None => uses.push((t, 1)),
        }
    }
    uses
}

/// Bytes of the inputs whose last remaining consumer is this step —
/// consumed inside the executing node's window.
fn dying_bytes(uses: &[(usize, usize)], remaining: &[usize], tb: &[usize]) -> usize {
    uses.iter()
        .filter(|(t, k)| remaining[*t] == *k)
        .map(|(t, _)| tb[*t])
        .sum()
}

/// Per-node planned `(act, ws)` windows — one dry run per node.
fn node_windows<P: MemoryPlanner + ?Sized>(planner: &P, graph: &Graph) -> Vec<(usize, usize)> {
    graph
        .layers()
        .iter()
        .map(|l| planner.plan_layer(l))
        .collect()
}

/// Prices one execution order: per-step `(act + held, ws)` where `act`
/// is the node's planned activation window plus every live tensor held
/// alongside it.
///
/// # Panics
///
/// Panics if `order` is not a permutation in valid topological order.
pub fn price_order<P: MemoryPlanner + ?Sized>(
    planner: &P,
    graph: &Graph,
    order: &[usize],
) -> Vec<(usize, usize)> {
    price_with(graph, &node_windows(planner, graph), order)
}

/// [`price_order`] over precomputed per-node `(act, ws)` windows.
fn price_with(graph: &Graph, windows: &[(usize, usize)], order: &[usize]) -> Vec<(usize, usize)> {
    let n = graph.len();
    assert_eq!(order.len(), n, "order must cover every node");
    if n == 0 {
        return Vec::new();
    }
    let tb = tensor_bytes(graph);
    let cons = consumers(graph);
    let mut remaining: Vec<usize> = cons.iter().map(Vec::len).collect();
    let mut produced = vec![false; n];
    let mut live: Vec<bool> = vec![false; n + 1];
    live[0] = remaining[0] > 0;
    let mut live_bytes: usize = if live[0] { tb[0] } else { 0 };
    let mut out = Vec::with_capacity(n);
    for &v in order {
        assert!(!produced[v], "order repeats node {v}");
        let uses = input_uses(graph, v);
        for &(t, _) in &uses {
            assert!(
                t == 0 || produced[t - 1],
                "order runs node {v} before its input {}",
                t - 1
            );
        }
        // Inputs whose last consumer is v are consumed inside the
        // window; everything else live is held at full size beside it.
        let (act, ws) = windows[v];
        out.push((act + live_bytes - dying_bytes(&uses, &remaining, &tb), ws));
        for (t, k) in uses {
            remaining[t] -= k;
            if remaining[t] == 0 && live[t] {
                live[t] = false;
                live_bytes -= tb[t];
            }
        }
        produced[v] = true;
        let t_out = 1 + v;
        if remaining[t_out] > 0 {
            live[t_out] = true;
            live_bytes += tb[t_out];
        }
    }
    out
}

/// Peak demand (max per-step `act + held + ws`) of one order.
pub fn peak_for_order<P: MemoryPlanner + ?Sized>(
    planner: &P,
    graph: &Graph,
    order: &[usize],
) -> usize {
    peak_of(&price_order(planner, graph, order))
}

/// Peak of a priced order (0 for an empty graph).
fn peak_of(priced: &[(usize, usize)]) -> usize {
    priced.iter().map(|(act, ws)| act + ws).max().unwrap_or(0)
}

/// Builds a [`MemoryPlan`] whose rows follow `order` (one row per
/// execution step), priced with last-consumer liveness.
pub fn plan_model_for_order<P: MemoryPlanner + ?Sized>(
    planner: &P,
    graph: &Graph,
    device: &Device,
    order: &[usize],
) -> MemoryPlan {
    crate::telemetry::record_plan_call();
    let priced = price_order(planner, graph, order);
    let layers = order
        .iter()
        .zip(&priced)
        .map(|(&v, &(act, ws))| {
            let layer = &graph.layers()[v];
            let measured = act + ws + device.runtime_overhead_bytes;
            LayerPlan {
                name: format!("{}#{v}", layer.kind()),
                kind: layer.kind(),
                activation_bytes: act,
                workspace_bytes: ws,
                measured_bytes: measured,
                fits: measured <= device.ram_bytes,
            }
        })
        .collect();
    MemoryPlan {
        planner: planner.name(),
        device: device.name.clone(),
        layers,
    }
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Dependency bitmask per node (Node edges only).
fn dep_masks(graph: &Graph) -> Vec<u64> {
    graph
        .inputs()
        .iter()
        .map(|ins| {
            ins.iter()
                .filter_map(|e| match e {
                    NodeInput::Node(j) => Some(1u64 << *j),
                    NodeInput::GraphInput => None,
                })
                .fold(0, |m, b| m | b)
        })
        .collect()
}

/// Resident bytes of executing `v` on top of executed-set `s` — the
/// order-independent core both searches share. `cons_masks[t]` is the
/// bitmask of tensor `t`'s consumers.
fn resident(
    graph: &Graph,
    windows: &[(usize, usize)],
    tb: &[usize],
    cons_masks: &[u64],
    s: u64,
    v: usize,
) -> usize {
    let after = s | (1u64 << v);
    // Live tensors: produced, with a consumer outside s.
    let mut held = 0usize;
    if cons_masks[0] & !s != 0 {
        held += tb[0];
    }
    let mut it = s;
    while it != 0 {
        let j = it.trailing_zeros() as usize;
        it &= it - 1;
        if cons_masks[1 + j] & !s != 0 {
            held += tb[1 + j];
        }
    }
    // Inputs of v with no consumer after this step die in-window.
    let mut seen = 0u64;
    for edge in graph.node_inputs(v) {
        let t = tensor_id(edge);
        if seen & (1u64 << t) != 0 {
            continue;
        }
        seen |= 1u64 << t;
        if cons_masks[t] & !after == 0 {
            held -= tb[t];
        }
    }
    let (act, ws) = windows[v];
    act + ws + held
}

/// Exact minimum-peak topological order via DP over executed subsets,
/// over per-node `(act, ws)` windows.
fn search_exhaustive(graph: &Graph, windows: &[(usize, usize)]) -> Vec<usize> {
    let n = graph.len();
    let tb = tensor_bytes(graph);
    let cons = consumers(graph);
    let cons_masks: Vec<u64> = cons
        .iter()
        .map(|c| c.iter().fold(0u64, |m, &i| m | (1u64 << i)))
        .collect();
    let deps = dep_masks(graph);
    let full = (1u64 << n) - 1;
    let mut best = vec![usize::MAX; 1 << n];
    let mut choice = vec![u8::MAX; 1 << n];
    best[0] = 0;
    for s in 0..=full {
        let cur = best[s as usize];
        if cur == usize::MAX {
            continue;
        }
        for (v, &dep) in deps.iter().enumerate() {
            let bit = 1u64 << v;
            if s & bit != 0 || dep & !s != 0 {
                continue;
            }
            let peak = cur.max(resident(graph, windows, &tb, &cons_masks, s, v));
            let t = (s | bit) as usize;
            if peak < best[t] {
                best[t] = peak;
                choice[t] = v as u8;
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut s = full;
    while s != 0 {
        let v = choice[s as usize] as usize;
        order.push(v);
        s &= !(1u64 << v);
    }
    order.reverse();
    order
}

/// Greedy memory-aware topological order: at every step run the ready
/// node with the smallest resident bytes (ties to the lowest index —
/// deterministic, and reproducing the identity order on chains), over
/// per-node `(act, ws)` windows.
fn search_greedy(graph: &Graph, windows: &[(usize, usize)]) -> Vec<usize> {
    let n = graph.len();
    let tb = tensor_bytes(graph);
    let cons = consumers(graph);
    let mut remaining: Vec<usize> = cons.iter().map(Vec::len).collect();
    let mut produced = vec![false; n];
    let mut live_bytes: usize = if remaining[0] > 0 { tb[0] } else { 0 };
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pick: Option<(usize, usize)> = None; // (resident, node)
        for v in 0..n {
            if produced[v]
                || graph
                    .node_inputs(v)
                    .iter()
                    .any(|e| matches!(e, NodeInput::Node(j) if !produced[*j]))
            {
                continue;
            }
            let dying = dying_bytes(&input_uses(graph, v), &remaining, &tb);
            let (act, ws) = windows[v];
            let res = act + ws + live_bytes - dying;
            if pick.is_none() || (res, v) < pick.unwrap() {
                pick = Some((res, v));
            }
        }
        let (_, v) = pick.expect("a DAG always has a ready node");
        for edge in graph.node_inputs(v) {
            let t = tensor_id(edge);
            remaining[t] -= 1;
            if remaining[t] == 0 && (t == 0 || produced[t - 1]) {
                live_bytes -= tb[t];
            }
        }
        produced[v] = true;
        if remaining[1 + v] > 0 {
            live_bytes += tb[1 + v];
        }
        order.push(v);
    }
    order
}

/// Searches for the cheapest valid execution order of `graph` under
/// `planner`'s per-node windows. Chains return the identity order; the
/// result's peak is **never** above the default order's (falls back to
/// identity otherwise).
pub fn plan_order<P: MemoryPlanner + ?Sized>(planner: &P, graph: &Graph) -> OrderPlan {
    crate::telemetry::record_plan_call();
    let n = graph.len();
    // One dry run per node, shared by every pricing and search below.
    let windows = node_windows(planner, graph);
    let ident = identity(n);
    let default_peak = peak_of(&price_with(graph, &windows, &ident));
    let order = if graph.is_chain() || n < 2 {
        ident.clone()
    } else if n <= EXHAUSTIVE_NODE_CUTOFF {
        search_exhaustive(graph, &windows)
    } else {
        search_greedy(graph, &windows)
    };
    let peak = peak_of(&price_with(graph, &windows, &order));
    // Structural ≤-fallback: never ship an order worse than the default.
    let (order, peak) = if peak > default_peak {
        (ident, default_peak)
    } else {
        (order, peak)
    };
    let step_demand_bytes = price_with(graph, &windows, &order)
        .iter()
        .map(|(act, ws)| act + ws)
        .collect();
    OrderPlan {
        order,
        step_demand_bytes,
        peak_bytes: peak,
        default_peak_bytes: default_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmcu_planner::{VmcuPass, VmcuPlanner};
    use vmcu_graph::zoo;
    use vmcu_kernels::IbScheme;

    fn vmcu() -> VmcuPlanner {
        VmcuPlanner::default()
    }

    #[test]
    fn chains_price_like_the_per_layer_planner() {
        let g = zoo::demo_linear_net();
        let ident = identity(g.len());
        let priced = price_order(&vmcu(), &g, &ident);
        for (i, l) in g.layers().iter().enumerate() {
            assert_eq!(priced[i], vmcu().plan_layer(l), "layer {i}");
        }
    }

    #[test]
    fn chains_reorder_to_identity() {
        let g = zoo::demo_linear_net();
        let plan = plan_order(&vmcu(), &g);
        assert_eq!(plan.order, identity(g.len()));
        assert_eq!(plan.peak_bytes, plan.default_peak_bytes);
        assert!(!plan.improved());
    }

    #[test]
    fn residual_holds_the_input_until_the_merge() {
        let g = zoo::mbv2_residual_dag();
        let ident = identity(g.len());
        let priced = price_order(&vmcu(), &g, &ident);
        let input_bytes: usize = g.in_shape().iter().product();
        // Every step before the final add holds the graph input beside
        // its own window.
        for (i, l) in g.layers().iter().enumerate().take(g.len() - 1) {
            let (act, ws) = vmcu().plan_layer(l);
            assert_eq!(priced[i], (act + input_bytes, ws), "step {i}");
        }
        // The add consumes both inputs in-window: no held bytes.
        let (act, ws) = vmcu().plan_layer(&g.layers()[g.len() - 1]);
        assert_eq!(priced[g.len() - 1], (act, ws));
    }

    #[test]
    fn reorder_beats_default_on_the_oom_model() {
        let g = zoo::branchy_oom_net();
        let plan = plan_order(&vmcu(), &g);
        assert!(plan.improved(), "search must beat the interleaved order");
        // Depth-first per branch: expand A, reduce A, then branch B.
        assert_eq!(plan.order, vec![0, 2, 1, 3, 4]);
        assert!(plan.peak_bytes < 100_000, "got {}", plan.peak_bytes);
        assert!(plan.default_peak_bytes > 131_072);
    }

    #[test]
    fn greedy_matches_exact_on_small_graphs() {
        for seed in 0..40 {
            let g = zoo::random_dag_net(seed, 5);
            if g.len() > EXHAUSTIVE_NODE_CUTOFF {
                continue;
            }
            let windows = node_windows(&vmcu(), &g);
            let exact = search_exhaustive(&g, &windows);
            let greedy = search_greedy(&g, &windows);
            let pe = peak_for_order(&vmcu(), &g, &exact);
            let pg = peak_for_order(&vmcu(), &g, &greedy);
            assert!(pe <= pg, "seed {seed}: exact {pe} > greedy {pg}");
            assert!(
                pe <= peak_for_order(&vmcu(), &g, &identity(g.len())),
                "seed {seed}: exact worse than identity"
            );
        }
    }

    #[test]
    fn planner_rows_follow_the_searched_order() {
        let g = zoo::branchy_oom_net();
        let device = vmcu_sim::Device::stm32_f411re();
        let rp = VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Reorder);
        let plan = rp.plan_model(&g, &device);
        let order = plan_order(&rp, &g);
        assert_eq!(plan.layers.len(), g.len());
        assert_eq!(
            plan.bottleneck_bytes(),
            order.peak_bytes + device.runtime_overhead_bytes
        );
        assert_eq!(rp.model_demand_bytes(&g), order.peak_bytes);
    }
}
