//! Per-schedule audit dispatch: one entry point, [`audit`], that proves a
//! resolved [`Deployment`] hazard-free from plan arithmetic alone.
//!
//! The auditor never executes a kernel. It takes each kernel's dry-run
//! store/free trace (the same generator the planners consume), places it
//! at the plan's offsets, and replays the byte intervals through
//! [`crate::replay::PoolModel`]; at the graph level it re-derives
//! last-consumer liveness through [`crate::schedule`]; for every
//! overlapped segment it re-derives the minimum execution distance two
//! independent ways and cross-checks the plan against both.
//!
//! A layer often appears at many sites of one deployment: in the node
//! pass and again in the chained pass, in every tile of a patch grid, in
//! every repeated block. One audit derives what depends on the layer
//! alone once, into a table of certificates that lives for the call, and
//! every site checks its own planned distance, window and budget against
//! that certificate.

use crate::replay::{
    derive_min_distance, distance_violations, replay_into, replay_layer, solver_min_distance,
    LayerSpec, PoolModel,
};
use crate::schedule::{audit_schedule, canonical_frees};
use crate::violation::{AuditReport, Violation};
use std::collections::HashMap;
use vmcu::Deployment;
use vmcu_graph::{Graph, LayerDesc};
use vmcu_kernels::fused_chain::{chain_exec_trace, chain_workspace_bytes, FusedChain};
use vmcu_kernels::trace::{exec_distance, ExecEvent};
use vmcu_kernels::IbScheme;
use vmcu_plan::fusion::{chain_solver_distance, FusedGroup};
use vmcu_plan::{ChainPlan, FusionNode, FusionPlan, OrderPlan, PatchPlan, Schedule, SplitPlan};
use vmcu_sim::Device;

/// What one audit derives once per distinct layer: the segment kernel's
/// dry-run trace, the distance it runs the layer at, that distance's
/// minimum re-derived two independent ways, and the standalone replay.
struct LayerCert {
    /// The kernel's store/free trace.
    events: Vec<ExecEvent>,
    /// Executable `b_in − b_out` of the trace: the distance every node
    /// step and patch-tile stage runs the layer at.
    distance: i64,
    /// The per-node window `(in + max(D, 0)) ∨ out` at `distance`.
    window: usize,
    /// Minimum distance by interval replay ([`derive_min_distance`]).
    derived: i64,
    /// Minimum distance by the solver bound ([`solver_min_distance`]).
    solver: i64,
    /// [`replay_layer`]'s verdict at `distance` in `window`, unlabelled.
    replay: Vec<Violation>,
}

impl LayerCert {
    fn derive(layer: &LayerDesc, scheme: IbScheme) -> Self {
        let events = layer.exec_events(scheme);
        let (in_len, out_len) = (layer.in_bytes(), layer.out_bytes());
        let distance = exec_distance(in_len, events.iter().copied());
        let window = (in_len + distance.max(0) as usize).max(out_len).max(1);
        let replay = replay_layer(&LayerSpec {
            site: "",
            in_len,
            out_len,
            distance,
            window,
            events: &events,
        });
        LayerCert {
            derived: derive_min_distance(in_len, &events),
            solver: solver_min_distance(in_len, &events),
            events,
            distance,
            window,
            replay,
        }
    }
}

/// What one audit derives once per distinct fused group, keyed by
/// everything its replay reads (the chain, the planned distance and the
/// window): the chain's minimum distance re-derived two independent
/// ways, its §5.2 solver lower bound, the ring workspace it needs, and
/// the replay at the planned distance in the planned window.
struct GroupCert {
    derived: i64,
    solver: i64,
    lower: Option<i64>,
    workspace: usize,
    /// [`replay_layer`]'s verdict, unlabelled.
    replay: Vec<Violation>,
}

impl GroupCert {
    fn derive(group: &FusedGroup) -> Self {
        let chain = &group.chain;
        let events = chain_exec_trace(chain);
        let in_len = chain.in_bytes();
        GroupCert {
            derived: derive_min_distance(in_len, &events),
            solver: solver_min_distance(in_len, &events),
            lower: chain_solver_distance(chain),
            workspace: chain_workspace_bytes(chain),
            replay: replay_layer(&LayerSpec {
                site: "",
                in_len,
                out_len: chain.out_bytes(),
                distance: group.exec_distance,
                window: group.window.max(1),
                events: &events,
            }),
        }
    }
}

/// One audit's certificates: each distinct layer (under the audit's IB
/// scheme) and each distinct fused group, derived at the first site that
/// reads it. A table lives for one call; nothing carries over. Every
/// site that reads it checks one distance, so `distances_checked`
/// counts the sites.
pub(crate) struct Certificates {
    scheme: IbScheme,
    layers: HashMap<LayerDesc, LayerCert>,
    groups: HashMap<(FusedChain, i64, usize), GroupCert>,
}

impl Certificates {
    pub(crate) fn new(scheme: IbScheme) -> Self {
        Certificates {
            scheme,
            layers: HashMap::new(),
            groups: HashMap::new(),
        }
    }

    fn layer(&mut self, layer: &LayerDesc) -> &LayerCert {
        let scheme = self.scheme;
        self.layers
            .entry(layer.clone())
            .or_insert_with(|| LayerCert::derive(layer, scheme))
    }

    fn group(&mut self, group: &FusedGroup) -> &GroupCert {
        self.groups
            .entry((group.chain.clone(), group.exec_distance, group.window))
            .or_insert_with(|| GroupCert::derive(group))
    }
}

/// A certificate's replay verdict as found at `site`.
fn replay_at<'a>(replay: &'a [Violation], site: &'a str) -> impl Iterator<Item = Violation> + 'a {
    replay.iter().map(move |v| v.clone().at(site))
}

/// Audits one layer site in the overlapped per-node layout the vMCU
/// kernels run in: input at logical 0, output at `−D`, window
/// `(in+max(D,0)) ∨ out`, with `D` the layer's executable distance.
fn audit_node(site: &str, cert: &LayerCert) -> Vec<Violation> {
    let mut v = distance_violations(site, cert.distance, cert.derived, cert.solver);
    v.extend(replay_at(&cert.replay, site));
    v
}

/// Audits one fused group against its planned window, workspace, and
/// execution distance (including the §5.2 solver lower bound).
fn audit_fused_group(site: &str, group: &FusedGroup, certs: &mut Certificates) -> Vec<Violation> {
    let chain = &group.chain;
    let cert = certs.group(group);
    let mut v = distance_violations(site, group.exec_distance, cert.derived, cert.solver);
    if let Some(lower) = cert.lower {
        if group.exec_distance < lower {
            v.push(Violation::DistanceTooSmall {
                site: format!("{site} (below the §5.2 solver lower bound)"),
                planned: group.exec_distance,
                derived: lower,
            });
        }
    }
    let need_window =
        (chain.in_bytes() + group.exec_distance.max(0) as usize).max(chain.out_bytes());
    if group.window < need_window {
        v.push(Violation::OutOfBounds {
            site: site.into(),
            needed: need_window,
            budget: group.window,
        });
    }
    if group.workspace < cert.workspace {
        v.push(Violation::OutOfBounds {
            site: format!("{site} (workspace)"),
            needed: cert.workspace,
            budget: group.workspace,
        });
    }
    v.extend(replay_at(&cert.replay, site));
    v
}

/// Audits a whole-network chained deployment: every tensor base from the
/// plan, one persistent circular window, liveness carried across layers
/// exactly as `Session::infer_chained` executes it. Returns the
/// violations plus the number of distances cross-checked.
///
/// [`audit`] runs this check after its node pass, on the certificates
/// that pass derived; this entry derives its own.
pub fn audit_chain_plan(
    graph: &Graph,
    plan: &ChainPlan,
    scheme: IbScheme,
    device: &Device,
) -> (Vec<Violation>, usize) {
    audit_chain(graph, plan, device, &mut Certificates::new(scheme))
}

fn audit_chain(
    graph: &Graph,
    plan: &ChainPlan,
    device: &Device,
    certs: &mut Certificates,
) -> (Vec<Violation>, usize) {
    let n = graph.len();
    let mut v = Vec::new();
    let mut distances = 0usize;
    if n == 0 {
        return (v, 0);
    }
    if plan.bases.len() != n + 1 || plan.distances.len() != n {
        v.push(Violation::OutOfBounds {
            site: "chain plan shape".into(),
            needed: n + 1,
            budget: plan.bases.len(),
        });
        return (v, 0);
    }
    if plan.total_bytes() + device.runtime_overhead_bytes > device.ram_bytes {
        v.push(Violation::OutOfBounds {
            site: "chain plan total".into(),
            needed: plan.total_bytes() + device.runtime_overhead_bytes,
            budget: device.ram_bytes,
        });
    }
    if plan.window == 0 {
        v.push(Violation::OutOfBounds {
            site: "chain plan window".into(),
            needed: 1,
            budget: 0,
        });
        return (v, 0);
    }
    let mut pool = PoolModel::new(plan.window);
    let in_len = graph.layers()[0].in_bytes();
    pool.fill("chain input", plan.bases[0], in_len, &mut v);
    for (i, layer) in graph.layers().iter().enumerate() {
        let site = format!("chain layer {i} ({})", layer.kind());
        let cert = certs.layer(layer);
        let in_bytes = layer.in_bytes();
        // The base chaining identity: b_out = b_in − D.
        if plan.bases[i + 1] != plan.bases[i] - plan.distances[i] {
            v.push(Violation::DistanceTooSmall {
                site: format!(
                    "{site} (base does not compose: b[{}] ≠ b[{i}] − D[{i}])",
                    i + 1
                ),
                planned: plan.bases[i] - plan.bases[i + 1],
                derived: plan.distances[i],
            });
        }
        v.extend(distance_violations(
            &site,
            plan.distances[i],
            cert.derived,
            cert.solver,
        ));
        distances += 1;
        // The layer's span must fit the shared window.
        let span = (in_bytes + plan.distances[i].max(0) as usize).max(layer.out_bytes());
        if span > plan.window {
            v.push(Violation::OutOfBounds {
                site: site.clone(),
                needed: span,
                budget: plan.window,
            });
        }
        replay_into(
            &mut pool,
            &site,
            plan.bases[i],
            plan.bases[i + 1],
            &cert.events,
            &mut v,
        );
    }
    let out_len = graph.layers()[n - 1].out_bytes();
    pool.expect_exactly("chain output", plan.bases[n], out_len, &mut v);
    (v, distances)
}

/// Audits a fusion plan node-by-node: singles replay in their overlapped
/// per-node layout, fused groups replay their whole-chain trace, and
/// every node's demand must fit the device.
fn audit_fusion_plan(
    graph: &Graph,
    plan: &FusionPlan,
    device: &Device,
    certs: &mut Certificates,
) -> (Vec<Violation>, usize, usize) {
    let mut v = Vec::new();
    let mut nodes = 0usize;
    let mut distances = 0usize;
    for node in &plan.nodes {
        nodes += 1;
        match node {
            FusionNode::Single { index, .. } => {
                let Some(layer) = graph.layers().get(*index) else {
                    v.push(Violation::OutOfBounds {
                        site: "fusion plan node index".into(),
                        needed: *index,
                        budget: graph.len(),
                    });
                    continue;
                };
                let site = format!("node {index} ({})", layer.kind());
                v.extend(audit_node(&site, certs.layer(layer)));
                distances += 1;
            }
            FusionNode::Fused(group) => {
                let site = format!("fused[{}..={}]", group.start, group.end);
                v.extend(audit_fused_group(&site, group, certs));
                distances += 1;
            }
        }
        let demand = node.demand_bytes() + device.runtime_overhead_bytes;
        if demand > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: format!("fusion node demand ({})", node.layer_range().0),
                needed: demand,
                budget: device.ram_bytes,
            });
        }
    }
    (v, nodes, distances)
}

/// Audits a patched deployment: the output tiles must partition the
/// front-stage output exactly (a gap is a [`Violation::Leak`], an
/// overlap a [`Violation::Clobber`]), every sliced per-tile operator
/// replays hazard-free in its own slab window, the slab-peak accounting
/// behind `front_demand_bytes` is re-derived, and the tail audits as a
/// fusion plan.
fn audit_patch_plan(
    graph: &Graph,
    plan: &PatchPlan,
    device: &Device,
    certs: &mut Certificates,
) -> (Vec<Violation>, usize, usize) {
    let mut v = Vec::new();
    let mut nodes = 0usize;
    let mut distances = 0usize;
    if let Some(front) = &plan.front {
        nodes += 1;
        let (oh, ow, oc) = front.out_dims();
        let grid = front.grid();
        let mut covered = vec![0u32; oh * ow];
        let mut slab_peak = 0usize;
        for ty in 0..grid.gy {
            for tx in 0..grid.gx {
                let tile = front.out_tile(ty, tx);
                let site = format!("patch tile ({ty},{tx})");
                if tile.y0 < 0 || tile.x0 < 0 || tile.y1 > oh as i64 || tile.x1 > ow as i64 {
                    v.push(Violation::OutOfBounds {
                        site: site.clone(),
                        needed: tile.y1.max(tile.x1).max(0) as usize,
                        budget: oh.max(ow),
                    });
                    continue;
                }
                for y in tile.y0..tile.y1 {
                    for x in tile.x0..tile.x1 {
                        covered[y as usize * ow + x as usize] += 1;
                    }
                }
                for (si, stage) in front.patch_stages(ty, tx).iter().enumerate() {
                    let stage_site = format!("{site} stage {si} ({})", stage.op.kind());
                    let cert = certs.layer(&LayerDesc::from(stage.op));
                    slab_peak = slab_peak.max(cert.window);
                    v.extend(audit_node(&stage_site, cert));
                    distances += 1;
                }
            }
        }
        // Exact tiling of the front output.
        if let Some(first_gap) = covered.iter().position(|&c| c == 0) {
            let gaps = covered.iter().filter(|&&c| c == 0).count();
            v.push(Violation::Leak {
                site: "patch tiling".into(),
                byte: (first_gap * oc) as i64,
                len: gaps * oc,
                detail: "front output pixels no tile produces".into(),
            });
        }
        if let Some(first_dup) = covered.iter().position(|&c| c > 1) {
            let dups = covered.iter().filter(|&&c| c > 1).count();
            v.push(Violation::Clobber {
                site: "patch tiling".into(),
                byte: (first_dup * oc) as i64,
                len: dups * oc,
            });
        }
        // Slab-peak accounting: the plan's front demand must cover the
        // worst sliced window plus the front-output accumulator.
        let need = slab_peak + oh * ow * oc;
        if plan.front_demand_bytes < need {
            v.push(Violation::OutOfBounds {
                site: "patched front demand".into(),
                needed: need,
                budget: plan.front_demand_bytes,
            });
        }
        if plan.front_demand_bytes + device.runtime_overhead_bytes > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: "patched front demand".into(),
                needed: plan.front_demand_bytes + device.runtime_overhead_bytes,
                budget: device.ram_bytes,
            });
        }
    }
    let (tv, tn, td) = audit_fusion_plan(graph, &plan.tail, device, certs);
    v.extend(tv);
    (v, nodes + tn, distances + td)
}

/// Audits a split deployment: the stages must partition the chain
/// contiguously, boundary activations must agree byte-for-byte in size,
/// and every stage audits as its own fusion plan on its own device.
fn audit_split_plan(
    graph: &Graph,
    plan: &SplitPlan,
    device: &Device,
    certs: &mut Certificates,
) -> (Vec<Violation>, usize, usize) {
    let mut v = Vec::new();
    let mut nodes = 0usize;
    let mut distances = 0usize;
    let stages = plan.stages();
    if stages.is_empty() {
        return (v, 0, 0);
    }
    let mut expect_start = 0usize;
    for (k, stage) in stages.iter().enumerate() {
        let site = format!("split stage {k} (dev{})", stage.device);
        if stage.start != expect_start {
            v.push(Violation::Leak {
                site: format!("{site} boundary"),
                byte: expect_start as i64,
                len: stage.start.abs_diff(expect_start),
                detail: "stages do not partition the layer range contiguously".into(),
            });
        }
        expect_start = stage.end;
        let (sv, sn, sd) = audit_fusion_plan(&stage.graph, &stage.fusion, device, certs);
        v.extend(sv.into_iter().map(|viol| viol.prefixed(&site)));
        nodes += sn;
        distances += sd;
        if stage.demand_bytes + device.runtime_overhead_bytes > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: site.clone(),
                needed: stage.demand_bytes + device.runtime_overhead_bytes,
                budget: device.ram_bytes,
            });
        }
        // Boundary activation continuity: the cut tensor leaving this
        // stage must be exactly the next stage's input.
        if k + 1 < stages.len() {
            let out_bytes = graph
                .layers()
                .get(stage.end.wrapping_sub(1))
                .map_or(0, LayerDesc::out_bytes);
            let next_in: usize = stages[k + 1].graph.in_shape().iter().product();
            if stage.cut_bytes != out_bytes || next_in != out_bytes {
                v.push(Violation::OutOfBounds {
                    site: format!("{site} cut tensor"),
                    needed: out_bytes,
                    budget: stage.cut_bytes.min(next_in),
                });
            }
        }
    }
    if expect_start != graph.len() {
        v.push(Violation::Leak {
            site: "split coverage".into(),
            byte: expect_start as i64,
            len: graph.len().saturating_sub(expect_start),
            detail: "trailing layers no stage executes".into(),
        });
    }
    (v, nodes, distances)
}

/// Statically audits a resolved deployment, proving (or refuting) the
/// hazard-freedom of its memory plan without executing a kernel. The
/// audit follows the deployed [`Schedule`]: node schedules are checked
/// step by step against their plan rows (and, under vMCU kernels,
/// replayed node by node in the overlapped layout); fused, patched and
/// split schedules are audited artifact by artifact; a vMCU chain is
/// also replayed whole through its one shared window.
///
/// Each call certifies each distinct layer once: its trace, executable
/// distance, minimum distance by interval replay and by the solver
/// bound, and standalone replay verdict (each distinct fused group
/// likewise, per chain, planned distance and window). Every site the
/// layer appears at (node step, fusion-plan single, patch-tile stage,
/// chained layer) compares its own planned distance, window and budget
/// against that certificate and reports under its own label, so the
/// report equals the one a per-site derivation gives. Nothing is kept
/// between calls.
pub fn audit(dep: &Deployment) -> AuditReport {
    // Baselines replay no vMCU kernel; the scheme is unused for them.
    let scheme = dep.planner_kind().scheme().unwrap_or(IbScheme::RowBuffer);
    audit_with(dep, &mut Certificates::new(scheme))
}

/// [`audit`] on a fresh table `certs` of the deployment's scheme.
fn audit_with(dep: &Deployment, certs: &mut Certificates) -> AuditReport {
    let graph = dep.graph();
    let device = dep.device();
    let kind = dep.planner_kind();
    let n = graph.len();
    let mut report = AuditReport {
        planner: kind.name().to_string(),
        model: format!(
            "{n}-node {}",
            if graph.is_chain() { "chain" } else { "dag" }
        ),
        device: device.name.clone(),
        ..AuditReport::default()
    };
    if n == 0 {
        return report;
    }

    // 1. Schedule-level liveness audit (every schedule): producer-before-
    //    consumer, freed exactly once at the last consumer, per-step
    //    demand. Schedules that do not run every node in its own window
    //    (fused groups, patched tiles, split stages) enforce their budget
    //    at the artifact level instead, so the schedule pass only checks
    //    liveness for them.
    let order: Vec<usize> = dep
        .order_plan()
        .map_or_else(|| (0..n).collect(), |p| p.order.clone());
    let frees = canonical_frees(graph, &order);
    let costs: Vec<(usize, usize)> = graph
        .layers()
        .iter()
        .map(|l| dep.planner().plan_layer(l))
        .collect();
    let per_node = matches!(dep.schedule(), Schedule::Nodes(_));
    let budget_device = if per_node {
        device.clone()
    } else {
        Device {
            ram_bytes: usize::MAX / 2,
            ..device.clone()
        }
    };
    let sched = audit_schedule(graph, &order, &frees, &costs, &budget_device);
    report.violations.extend(sched.violations);
    report.nodes_checked += n;

    // 2. Schedule-specific audits.
    match dep.schedule() {
        Schedule::Nodes(order_plan) => {
            audit_node_rows(
                &dep.plan().layers,
                &sched.step_demand_bytes,
                device,
                &mut report,
            );
            // Overlapped replay of every node the vMCU kernels run in a
            // per-node window (baselines place whole disjoint tensors
            // instead, which this replay does not model).
            if kind.scheme().is_some() {
                for (i, layer) in graph.layers().iter().enumerate() {
                    let site = format!("node {i} ({})", layer.kind());
                    report
                        .violations
                        .extend(audit_node(&site, certs.layer(layer)));
                    report.distances_checked += 1;
                }
            }
            if let Some(order_plan) = order_plan {
                audit_order_plan(order_plan, &sched.step_demand_bytes, &mut report);
            }
        }
        Schedule::Fused(fusion) => {
            let (v, nodes, d) = audit_fusion_plan(graph, fusion, device, certs);
            report.violations.extend(v);
            report.nodes_checked += nodes;
            report.distances_checked += d;
        }
        Schedule::Patched(patch) => {
            let (v, nodes, d) = audit_patch_plan(graph, patch, device, certs);
            report.violations.extend(v);
            report.nodes_checked += nodes;
            report.distances_checked += d;
        }
        Schedule::Split(split) => {
            let (v, nodes, d) = audit_split_plan(graph, split, device, certs);
            report.violations.extend(v);
            report.nodes_checked += nodes;
            report.distances_checked += d;
        }
    }
    if let Some(chain) = dep.chain_plan() {
        let (v, d) = audit_chain(graph, chain, device, certs);
        report.violations.extend(v);
        report.distances_checked += d;
    }
    report
}

/// Plan-row cross-check for node schedules: rows are step-aligned, so
/// row `k` must price at least the independently derived demand of the
/// `k`-th executed node, and may only claim fit within the device.
fn audit_node_rows(
    rows: &[vmcu_plan::LayerPlan],
    step_demand_bytes: &[usize],
    device: &Device,
    report: &mut AuditReport,
) {
    if rows.len() != step_demand_bytes.len() {
        report.violations.push(Violation::OutOfBounds {
            site: "plan rows are not step-aligned".into(),
            needed: step_demand_bytes.len(),
            budget: rows.len(),
        });
        return;
    }
    for (k, (row, derived)) in rows.iter().zip(step_demand_bytes).enumerate() {
        let need = derived + device.runtime_overhead_bytes;
        if row.measured_bytes < need {
            report.violations.push(Violation::OutOfBounds {
                site: format!("plan row {k} ({}) under-prices the step", row.name),
                needed: need,
                budget: row.measured_bytes,
            });
        }
        if row.fits && row.measured_bytes > device.ram_bytes {
            report.violations.push(Violation::OutOfBounds {
                site: format!("plan row {k} ({}) claims fit", row.name),
                needed: row.measured_bytes,
                budget: device.ram_bytes,
            });
        }
    }
}

/// The searched order's per-step and peak demands must cover the
/// independently derived ones.
fn audit_order_plan(order_plan: &OrderPlan, step_demand_bytes: &[usize], report: &mut AuditReport) {
    if order_plan.step_demand_bytes.len() == step_demand_bytes.len() {
        for (k, (planned, derived)) in order_plan
            .step_demand_bytes
            .iter()
            .zip(step_demand_bytes)
            .enumerate()
        {
            if planned < derived {
                report.violations.push(Violation::OutOfBounds {
                    site: format!("order plan step {k} under-prices demand"),
                    needed: *derived,
                    budget: *planned,
                });
            }
        }
    }
    let peak = step_demand_bytes.iter().copied().max().unwrap_or(0);
    if order_plan.peak_bytes < peak {
        report.violations.push(Violation::OutOfBounds {
            site: "order plan peak under-prices demand".into(),
            needed: peak,
            budget: order_plan.peak_bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu::{Engine, PlannerKind};
    use vmcu_graph::zoo;

    /// Audits `dep` clean, returning the sites that read the audit's
    /// table (one checked distance each) and the certificates derived.
    fn counted(dep: &Deployment) -> (usize, usize) {
        let scheme = dep.planner_kind().scheme().expect("a vMCU kind");
        let mut certs = Certificates::new(scheme);
        let report = audit_with(dep, &mut certs);
        assert!(report.is_clean(), "{report}");
        let derived = certs.layers.len() + certs.groups.len();
        (report.distances_checked, derived)
    }

    fn deploy(graph: &Graph, kind: PlannerKind, device: Device) -> Deployment {
        Engine::new(device)
            .planner(kind)
            .deploy(graph, &graph.random_weights(7))
            .expect("deploys")
    }

    #[test]
    fn audit_certifies_each_distinct_layer_once() {
        // Pins the work, not the wall clock. `hires_split_only` repeats
        // one three-layer block seven times behind an inverted
        // bottleneck: 22 node sites and 22 chained sites name 4 layers.
        let dep = deploy(
            &zoo::hires_split_only(),
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            Device::stm32_f767zi(),
        );
        assert_eq!(counted(&dep), (44, 4), "layer sites, certificates");

        // An 8×8 patch grid runs the 3-layer front 64 times; the sliced
        // operators of interior and border tiles take 6 shapes.
        let dep = deploy(
            &zoo::wide_expand_chain(),
            PlannerKind::VmcuPatched(IbScheme::RowBuffer),
            Device::stm32_f411re(),
        );
        let front = dep.patch_plan().and_then(|p| p.front.as_ref());
        let grid = front.expect("the front is patched").grid();
        assert_eq!((grid.gy, grid.gx), (8, 8));
        assert_eq!(counted(&dep), (192, 6), "tile-stage sites, certificates");
    }
}
