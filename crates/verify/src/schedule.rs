//! Tensor-granular schedule audit: last-consumer liveness, re-derived.
//!
//! Where [`crate::replay`] proves byte-level safety *inside* one layer's
//! pool window, this module proves the *between*-layer property: every
//! activation tensor is produced before any consumer runs, freed exactly
//! once at its last consumer, and the per-step resident-set demand never
//! exceeds the device budget. The accounting deliberately re-implements
//! `vmcu_plan::order::price_order` from the graph alone so plan rows can
//! be cross-checked against an independent derivation.

use crate::violation::Violation;
use vmcu_graph::{Graph, NodeInput};
use vmcu_sim::Device;

/// Tensor ids: 0 is the graph input, `1 + j` is node `j`'s output.
fn tensor_id(edge: &NodeInput) -> usize {
    match edge {
        NodeInput::GraphInput => 0,
        NodeInput::Node(j) => 1 + *j,
    }
}

/// Byte size per tensor id.
fn tensor_bytes(graph: &Graph) -> Vec<usize> {
    let mut tb = Vec::with_capacity(graph.len() + 1);
    tb.push(graph.in_shape().iter().product());
    tb.extend(graph.layers().iter().map(vmcu_graph::LayerDesc::out_bytes));
    tb
}

/// Execution-step index of each tensor's last consumer under `order`
/// (`None` when nothing consumes it).
fn last_consumer_step(graph: &Graph, order: &[usize]) -> Vec<Option<usize>> {
    let mut last = vec![None; graph.len() + 1];
    for (step, &v) in order.iter().enumerate() {
        if v < graph.len() {
            for edge in graph.node_inputs(v) {
                last[tensor_id(edge)] = Some(step);
            }
        }
    }
    last
}

/// The free schedule a node walk implicitly executes: every tensor
/// is released at its last consumer's step; tensors nothing consumes are
/// released at their production step (the graph input at step 0). The
/// network output is the host's to read and is never freed.
pub fn canonical_frees(graph: &Graph, order: &[usize]) -> Vec<Vec<usize>> {
    let n = graph.len();
    let mut frees = vec![Vec::new(); n.max(1)];
    if n == 0 {
        return frees;
    }
    let last = last_consumer_step(graph, order);
    let output_tensor = 1 + order.last().map_or(n - 1, |&v| v);
    for (t, l) in last.iter().enumerate() {
        if t == output_tensor {
            continue;
        }
        let step = match l {
            Some(step) => *step,
            // Unconsumed: the graph input dies immediately; a node's
            // dead-end output dies at its own production step.
            None if t == 0 => 0,
            None => order.iter().position(|&v| 1 + v == t).unwrap_or(n - 1),
        };
        frees[step].push(t);
    }
    frees
}

/// Result of a schedule audit.
#[derive(Debug, Clone, Default)]
pub struct ScheduleAudit {
    /// Every hazard found.
    pub violations: Vec<Violation>,
    /// Independently derived per-step pool-side demand (activation
    /// window + held live tensors + workspace; no runtime overhead).
    pub step_demand_bytes: Vec<usize>,
}

/// Audits one execution order plus an explicit free schedule against
/// `graph`, with per-node `(activation, workspace)` windows from the
/// policy's planner and the `device` budget.
///
/// `frees[k]` lists tensor ids released after step `k` (see
/// [`canonical_frees`]); auditing a mutated schedule (dropped, early, or
/// duplicated frees) is exactly how the checker's non-vacuity is tested.
pub fn audit_schedule(
    graph: &Graph,
    order: &[usize],
    frees: &[Vec<usize>],
    node_costs: &[(usize, usize)],
    device: &Device,
) -> ScheduleAudit {
    let n = graph.len();
    let mut audit = ScheduleAudit::default();
    let v = &mut audit.violations;
    if order.len() != n {
        v.push(Violation::Leak {
            site: "execution order".into(),
            byte: order.len() as i64,
            len: n,
            detail: format!("order covers {} of {n} nodes", order.len()),
        });
        return audit;
    }
    let mut seen = vec![false; n];
    for &node in order {
        if node >= n {
            v.push(Violation::OutOfBounds {
                site: "execution order".into(),
                needed: node,
                budget: n,
            });
            return audit;
        }
        if seen[node] {
            v.push(Violation::DoubleFree {
                site: format!("execution order: node {node} scheduled twice"),
                byte: node as i64,
                len: 0,
            });
            return audit;
        }
        seen[node] = true;
    }

    let tb = tensor_bytes(graph);
    let last = last_consumer_step(graph, order);
    let output_tensor = 1 + order.last().copied().unwrap_or(0);

    // Tensor lifecycle state machine driven by the *given* free schedule.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        NotProduced,
        Live,
        Freed,
    }
    let mut state = vec![State::NotProduced; n + 1];
    state[0] = State::Live;

    // Independent price_order-style accounting (consumer counts drive
    // `held`/`dying`, not the free schedule, so a corrupted schedule
    // cannot skew the demand cross-check).
    let mut remaining: Vec<usize> = vec![0; n + 1];
    for ins in graph.inputs() {
        for edge in ins {
            remaining[tensor_id(edge)] += 1;
        }
    }
    let mut held = vec![false; n + 1];
    held[0] = remaining[0] > 0;
    let mut held_bytes: usize = if held[0] { tb[0] } else { 0 };

    for (step, &node) in order.iter().enumerate() {
        let site = format!("step {step}: node {node} ({})", graph.layers()[node].kind());
        // Distinct input tensors and their use counts at this node.
        let mut uses: Vec<(usize, usize)> = Vec::new();
        for edge in graph.node_inputs(node) {
            let t = tensor_id(edge);
            match state[t] {
                State::Live => {}
                State::NotProduced => v.push(Violation::UseAfterFree {
                    site: site.clone(),
                    tensor: t,
                    detail: "consumed before production".into(),
                }),
                State::Freed => v.push(Violation::UseAfterFree {
                    site: site.clone(),
                    tensor: t,
                    detail: "consumed after free".into(),
                }),
            }
            match uses.iter_mut().find(|(id, _)| *id == t) {
                Some((_, k)) => *k += 1,
                None => uses.push((t, 1)),
            }
        }
        // Inputs dying at this step are consumed inside the window;
        // everything else live is held beside it at full size.
        let dying: usize = uses
            .iter()
            .filter(|(t, k)| remaining[*t] == *k)
            .map(|(t, _)| tb[*t])
            .sum();
        let (act, ws) = node_costs.get(node).copied().unwrap_or((0, 0));
        let demand = act + held_bytes.saturating_sub(dying) + ws;
        audit.step_demand_bytes.push(demand);
        if demand + device.runtime_overhead_bytes > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: site.clone(),
                needed: demand + device.runtime_overhead_bytes,
                budget: device.ram_bytes,
            });
        }
        for (t, k) in uses {
            remaining[t] -= k.min(remaining[t]);
            if remaining[t] == 0 && held[t] {
                held[t] = false;
                held_bytes -= tb[t];
            }
        }
        let out_t = 1 + node;
        if state[out_t] == State::NotProduced {
            state[out_t] = State::Live;
        }
        if remaining[out_t] > 0 && !held[out_t] {
            held[out_t] = true;
            held_bytes += tb[out_t];
        }
        // Apply the declared frees for this step.
        for &t in frees.get(step).map_or(&[][..], Vec::as_slice) {
            let fsite = format!("{site}: free of tensor {t}");
            match state.get(t).copied() {
                None => v.push(Violation::OutOfBounds {
                    site: fsite,
                    needed: t,
                    budget: n + 1,
                }),
                Some(State::Freed) => {
                    v.push(Violation::DoubleFree {
                        site: fsite,
                        byte: t as i64,
                        len: *tb.get(t).unwrap_or(&0),
                    });
                }
                Some(State::NotProduced) => v.push(Violation::UseAfterFree {
                    site: fsite,
                    tensor: t,
                    detail: "freed before production".into(),
                }),
                Some(State::Live) => {
                    if last[t].is_some_and(|l| l > step) {
                        v.push(Violation::UseAfterFree {
                            site: fsite.clone(),
                            tensor: t,
                            detail: format!(
                                "freed before its last consumer (step {})",
                                last[t].unwrap_or(step)
                            ),
                        });
                    }
                    if t == output_tensor {
                        v.push(Violation::Leak {
                            site: fsite,
                            byte: t as i64,
                            len: tb[t],
                            detail: "network output freed before the host read it".into(),
                        });
                    }
                    state[t] = State::Freed;
                }
            }
        }
    }

    // End of schedule: the output must be live, nothing else may be.
    for (t, s) in state.iter().enumerate() {
        if t == output_tensor {
            if *s != State::Live {
                v.push(Violation::Leak {
                    site: "end of schedule".into(),
                    byte: t as i64,
                    len: tb[t],
                    detail: "network output not live for the host".into(),
                });
            }
        } else if *s == State::Live {
            v.push(Violation::Leak {
                site: "end of schedule".into(),
                byte: t as i64,
                len: tb[t],
                detail: "tensor never freed".into(),
            });
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_graph::zoo;

    fn vmcu_costs(graph: &Graph) -> Vec<(usize, usize)> {
        use vmcu_plan::planner::MemoryPlanner;
        graph
            .layers()
            .iter()
            .map(|l| vmcu_plan::VmcuPlanner::default().plan_layer(l))
            .collect()
    }

    #[test]
    fn canonical_schedule_is_clean_on_a_dag() {
        let g = zoo::mbv2_residual_dag();
        let order: Vec<usize> = (0..g.len()).collect();
        let frees = canonical_frees(&g, &order);
        let a = audit_schedule(
            &g,
            &order,
            &frees,
            &vmcu_costs(&g),
            &vmcu_sim::Device::mps3_an547(),
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn canonical_demands_match_price_order() {
        let g = zoo::two_head_net();
        let order: Vec<usize> = (0..g.len()).collect();
        let frees = canonical_frees(&g, &order);
        let a = audit_schedule(
            &g,
            &order,
            &frees,
            &vmcu_costs(&g),
            &vmcu_sim::Device::mps3_an547(),
        );
        let priced = vmcu_plan::order::price_order(&vmcu_plan::VmcuPlanner::default(), &g, &order);
        let expect: Vec<usize> = priced.iter().map(|(act, ws)| act + ws).collect();
        assert_eq!(a.step_demand_bytes, expect);
    }

    #[test]
    fn dropped_free_is_a_leak() {
        let g = zoo::mbv2_residual_dag();
        let order: Vec<usize> = (0..g.len()).collect();
        let mut frees = canonical_frees(&g, &order);
        let step = frees
            .iter()
            .position(|f| !f.is_empty())
            .expect("some free exists");
        frees[step].pop();
        let a = audit_schedule(
            &g,
            &order,
            &frees,
            &vmcu_costs(&g),
            &vmcu_sim::Device::mps3_an547(),
        );
        assert!(
            a.violations
                .iter()
                .any(|v| matches!(v, Violation::Leak { .. })),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn early_free_is_use_after_free() {
        let g = zoo::mbv2_residual_dag();
        let order: Vec<usize> = (0..g.len()).collect();
        let mut frees = canonical_frees(&g, &order);
        // The residual input (tensor of some node consumed late) freed at
        // step 0 instead of its last consumer.
        let (late_step, &t) = frees
            .iter()
            .enumerate()
            .rev()
            .find_map(|(s, f)| f.first().map(|t| (s, t)))
            .expect("some free exists");
        assert!(late_step > 0);
        frees[late_step].retain(|&x| x != t);
        frees[0].push(t);
        let a = audit_schedule(
            &g,
            &order,
            &frees,
            &vmcu_costs(&g),
            &vmcu_sim::Device::mps3_an547(),
        );
        assert!(
            a.violations
                .iter()
                .any(|v| matches!(v, Violation::UseAfterFree { .. })),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn duplicated_free_is_double_free() {
        let g = zoo::mbv2_residual_dag();
        let order: Vec<usize> = (0..g.len()).collect();
        let mut frees = canonical_frees(&g, &order);
        let step = frees
            .iter()
            .position(|f| !f.is_empty())
            .expect("some free exists");
        let t = frees[step][0];
        let last = frees.len() - 1;
        frees[last].push(t);
        let a = audit_schedule(
            &g,
            &order,
            &frees,
            &vmcu_costs(&g),
            &vmcu_sim::Device::mps3_an547(),
        );
        assert!(
            a.violations
                .iter()
                .any(|v| matches!(v, Violation::DoubleFree { .. })),
            "{:?}",
            a.violations
        );
    }
}
