//! The three phases every workload is built from — deploy and audit,
//! inference, online serving — each a sequence of calls into the public
//! API, timed per call and wrapped in spans when the tracer is on.

use crate::inputs::{item_id, item_key, policy_slug, Group, Item, Suite};
use crate::trace::{Handle, Tracer};
use std::collections::HashMap;
use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;
use vmcu::prelude::*;
use vmcu::vmcu_graph::exec::run_reference;
use vmcu::vmcu_plan;
use vmcu::vmcu_sim::Counters;
use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig, OnlineReport};

/// Offered load of the online fleet, requests per simulated second.
pub const RATE_PER_S: f64 = 150.0;
/// Latency limit on sojourn, simulated ms.
pub const SLO_MS: f64 = 250.0;
/// Fleet devices, each served by one host thread.
pub const WORKERS: usize = 2;

/// Attempted and failed operations, for `error_rate`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
}

impl Ops {
    /// Records one failed operation and says why on stderr.
    pub fn fail(&mut self, what: impl Display) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}");
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("call shorter than 500 years")
}

/// Result of deploying a suite once.
#[derive(Debug, Default)]
pub struct DeployPass {
    /// One slot per suite item; `None` when it does not fit.
    pub deps: Vec<Option<Deployment>>,
    /// Host ms of every timed `Engine::deploy` call.
    pub deploy_ms: Vec<f64>,
    /// Policy of each timed call, aligned with `deploy_ms`.
    pub kinds: Vec<PlannerKind>,
    /// Planning passes the timed deploy calls made.
    pub plan_calls: u64,
}

impl DeployPass {
    /// Appends the pass over another slice of the same suite.
    pub fn extend(&mut self, other: DeployPass) {
        self.deps.extend(other.deps);
        self.deploy_ms.extend(other.deploy_ms);
        self.kinds.extend(other.kinds);
        self.plan_calls += other.plan_calls;
    }

    /// Deployments keyed by [`item_key`], for reuse by another suite.
    pub fn by_key(&self, suite: &Suite) -> HashMap<String, Deployment> {
        suite
            .items
            .iter()
            .zip(&self.deps)
            .filter_map(|(item, dep)| Some((item_key(suite, item), dep.clone()?)))
            .collect()
    }
}

fn replay_one<T>(tr: &mut Tracer, name: &str, id: u64, of: Handle, f: impl FnOnce() -> T) {
    let h = tr.begin_replay(name, id, of);
    black_box(f());
    tr.end(h);
}

/// Re-runs, on the same inputs, the planning passes `Engine::deploy`
/// ran for `item`, each under its own replay span.
fn replay_plans(item: &Item, graph: &Graph, tr: &mut Tracer, id: u64, of: Handle) {
    let planner = item.kind.planner();
    let dev = &item.device;
    let chain = graph.is_chain();
    match item.kind {
        PlannerKind::VmcuFused(scheme) if chain => {
            replay_one(tr, "plan.fuse", id, of, || {
                vmcu_plan::fuse_graph(graph, scheme)
            });
        }
        PlannerKind::VmcuPatched(scheme) if chain => {
            let patched = PatchedPlanner {
                scheme,
                ..PatchedPlanner::default()
            };
            replay_one(tr, "plan.patch", id, of, || patched.patch_plan(graph));
        }
        PlannerKind::VmcuSplit { devices, scheme } if chain => {
            replay_one(tr, "plan.split", id, of, || {
                vmcu_plan::plan_split(graph, devices, scheme)
            });
        }
        PlannerKind::VmcuReorder(_) => {
            replay_one(tr, "plan.order", id, of, || {
                vmcu_plan::plan_order(&*planner, graph)
            });
        }
        kind => {
            replay_one(tr, "plan.graph", id, of, || {
                vmcu_plan::plan_graph(&*planner, graph, dev)
            });
            if let (PlannerKind::Vmcu(scheme), true) = (kind, chain) {
                replay_one(tr, "plan.chain", id, of, || {
                    vmcu_plan::plan_chain(graph, scheme)
                });
            }
        }
    }
}

/// Deploys every suite item. Items whose key is in `reuse` take that
/// deployment untimed. `DoesNotFit` is a verdict; any other error fails.
pub fn deploy_all(
    suite: &Suite,
    reuse: &HashMap<String, Deployment>,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> DeployPass {
    let mut pass = DeployPass::default();
    for item in &suite.items {
        if let Some(dep) = reuse.get(&item_key(suite, item)) {
            pass.deps.push(Some(dep.clone()));
            continue;
        }
        let graph = &suite.models[item.model].graph;
        let weights = &suite.models[item.model].weights;
        let engine = Engine::new(item.device.clone()).planner(item.kind);
        ops.attempted += 1;
        let calls = vmcu_plan::telemetry::plan_calls();
        let id = item_id(suite, item);
        let h = tr.begin("deploy", id);
        let t = Instant::now();
        let res = engine.deploy(graph, weights);
        let ns = elapsed_ns(t);
        tr.end(h);
        pass.plan_calls += vmcu_plan::telemetry::plan_calls() - calls;
        pass.deploy_ms.push(ns as f64 / 1e6);
        pass.kinds.push(item.kind);
        if tr.is_on() {
            replay_plans(item, graph, tr, id, h);
        }
        pass.deps.push(match res {
            Ok(dep) => Some(dep),
            Err(EngineError::DoesNotFit { .. }) => None,
            Err(e) => {
                ops.fail(format_args!("deploy {}: {e}", item_key(suite, item)));
                None
            }
        });
    }
    pass
}

/// Result of auditing every deployment once.
#[derive(Debug, Default)]
pub struct AuditPass {
    /// Host ms of every `vmcu_verify::audit` call.
    pub audit_ms: Vec<f64>,
    /// Graph nodes the auditor checked.
    pub nodes_checked: usize,
    /// Execution distances the auditor cross-checked.
    pub distances_checked: usize,
}

impl AuditPass {
    /// Appends the pass over another slice of the same suite.
    pub fn extend(&mut self, other: AuditPass) {
        self.audit_ms.extend(other.audit_ms);
        self.nodes_checked += other.nodes_checked;
        self.distances_checked += other.distances_checked;
    }
}

/// Audits every deployment; a report that is not clean fails.
pub fn audit_all(
    suite: &Suite,
    deps: &[Option<Deployment>],
    tr: &mut Tracer,
    ops: &mut Ops,
) -> AuditPass {
    let mut pass = AuditPass::default();
    for (item, dep) in suite.items.iter().zip(deps) {
        let Some(dep) = dep else { continue };
        ops.attempted += 1;
        let name = format!("verify.audit.{}", policy_slug(item.kind));
        let h = tr.begin(name, item_id(suite, item));
        let t = Instant::now();
        let report = vmcu_verify::audit(dep);
        let ns = elapsed_ns(t);
        tr.end(h);
        pass.audit_ms.push(ns as f64 / 1e6);
        pass.nodes_checked += report.nodes_checked;
        pass.distances_checked += report.distances_checked;
        if !report.is_clean() {
            ops.fail(format_args!(
                "audit {}: {} violations",
                item_key(suite, item),
                report.violations.len()
            ));
        }
    }
    pass
}

/// One inference to run per pass.
#[derive(Debug)]
pub struct Entry {
    /// Index into [`Suite::items`].
    pub item: usize,
    /// `Session::infer_chained` instead of `Session::infer`.
    pub chained: bool,
    session: Session,
}

/// Sessions plus the reference output of every model they serve.
#[derive(Debug)]
pub struct Prepared {
    /// Inferences of one pass, in order.
    pub entries: Vec<Entry>,
    refs: Vec<Option<Tensor<i8>>>,
}

/// Opens one session per deployment (plus a chained one for zoo chain
/// models under vMCU) and computes each model's reference output.
pub fn prepare_infer(suite: &Suite, deps: &[Option<Deployment>], tr: &mut Tracer) -> Prepared {
    let mut entries = Vec::new();
    let mut refs = vec![None; suite.models.len()];
    for (i, (item, dep)) in suite.items.iter().zip(deps).enumerate() {
        let Some(dep) = dep else { continue };
        let chained = matches!(item.kind, PlannerKind::Vmcu(_))
            && suite.models[item.model].group == Group::Zoo
            && dep.chain_plan().is_some();
        for chained in [false, true].into_iter().take(1 + usize::from(chained)) {
            let h = tr.begin("session.stage", item_id(suite, item));
            let session = dep.session();
            tr.end(h);
            entries.push(Entry {
                item: i,
                chained,
                session,
            });
        }
        let m = &suite.models[item.model];
        if refs[item.model].is_none() {
            let h = tr.begin("reference", item_id(suite, item));
            let acts = run_reference(&m.graph, &m.weights, &m.input);
            tr.end(h);
            refs[item.model] = acts.last().cloned();
        }
    }
    Prepared { entries, refs }
}

/// Simulated outcome of one inference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimRow {
    /// `InferenceReport::latency_ms`.
    pub latency_ms: f64,
    /// `InferenceReport::energy_mj`.
    pub energy_mj: f64,
    /// `InferenceReport::peak_ram_bytes`.
    pub peak_ram_bytes: usize,
    /// Counters summed over the report's layers.
    pub counters: Counters,
}

/// One pass over every entry.
#[derive(Debug, Default)]
pub struct InferPass {
    /// Host ns of each call, aligned with [`Prepared::entries`].
    pub call_ns: Vec<u64>,
    /// Simulated outcome of each call, aligned likewise.
    pub sim: Vec<SimRow>,
}

/// Runs every entry once; an output that differs from the reference
/// fails, as does any engine error.
pub fn infer_pass(suite: &Suite, prep: &mut Prepared, tr: &mut Tracer, ops: &mut Ops) -> InferPass {
    let mut pass = InferPass::default();
    for e in &mut prep.entries {
        let item = &suite.items[e.item];
        let m = &suite.models[item.model];
        let name = if e.chained {
            "exec.infer_chained".to_owned()
        } else {
            format!("exec.infer.{}", policy_slug(item.kind))
        };
        ops.attempted += 1;
        let h = tr.begin(name, item_id(suite, item));
        let t = Instant::now();
        let res = if e.chained {
            e.session.infer_chained(&m.input).map(|(r, _)| r)
        } else {
            e.session.infer(&m.input)
        };
        let ns = elapsed_ns(t);
        tr.end(h);
        pass.call_ns.push(ns);
        let row = match res {
            Ok(report) => {
                if Some(&report.output) != prep.refs[item.model].as_ref() {
                    ops.fail(format_args!(
                        "infer {} (chained {}): output differs from run_reference",
                        item_key(suite, item),
                        e.chained
                    ));
                }
                SimRow {
                    latency_ms: report.latency_ms(),
                    energy_mj: report.energy_mj(),
                    peak_ram_bytes: report.peak_ram_bytes(),
                    counters: report
                        .layers
                        .iter()
                        .fold(Counters::new(), |acc, l| acc + l.exec.counters),
                }
            }
            Err(err) => {
                ops.fail(format_args!("infer {}: {err}", item_key(suite, item)));
                SimRow::default()
            }
        };
        pass.sim.push(row);
    }
    pass
}

/// Builds the F411RE serving fleet under `Vmcu(RowBuffer)`.
pub fn new_fleet(tr: &mut Tracer) -> Fleet {
    let h = tr.begin("serve.fleet_new", 0);
    let fleet = Fleet::new(
        FleetConfig::new(
            Device::stm32_f411re(),
            WORKERS,
            PlannerKind::Vmcu(IbScheme::RowBuffer),
        ),
        ModelCatalog::standard(),
    );
    tr.end(h);
    fleet
}

/// One `run_online` over a seeded Poisson stream.
#[derive(Debug)]
pub struct ServePass {
    /// What the fleet reported.
    pub report: OnlineReport,
    /// Host seconds inside `run_online`.
    pub wall_s: f64,
}

/// Serves `requests` seeded Poisson arrivals; failed requests and any
/// planning while serving fail.
pub fn serve_pass(
    fleet: &Fleet,
    requests: usize,
    seed: u64,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> ServePass {
    let cfg = OnlineConfig::new(
        ArrivalProfile::Poisson {
            rate_per_sec: RATE_PER_S,
        },
        requests,
        seed,
    )
    .with_slo_ms(SLO_MS);
    let h = tr.begin("serve.run_online", 0);
    let t = Instant::now();
    let report = fleet.run_online(&cfg);
    let wall_s = t.elapsed().as_secs_f64();
    tr.end(h);
    let s = &report.stats;
    ops.attempted += s.offered as u64;
    for _ in 0..s.failed {
        ops.fail("serve: a request failed to execute");
    }
    if s.serve_plan_calls != 0 {
        ops.fail(format_args!("serve: {} plan calls", s.serve_plan_calls));
    }
    ServePass { report, wall_s }
}
