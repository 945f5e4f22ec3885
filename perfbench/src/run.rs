//! The three workloads, and the metrics they yield.
//!
//! Every workload runs all three phases so that every metric exists on
//! every workload. After set-up and one untimed warm-up pass of its own
//! phase, a workload repeats rounds for the run's seconds: one pass of
//! its own (timed) phase, then one pass of each companion phase.
//!
//! | workload | timed phase | companions |
//! |---|---|---|
//! | `compile_sweep` | deploy + audit of zoo × policy × ladder | infer pass over the mix (zoo deployments reused), short stream |
//! | `infer_mix` | `Session::infer` round-robin over the mix | audit of the mix, short stream, deploy of the mix less `vMCU-split` |
//! | `serve_poisson` | `Fleet::run_online` on a Poisson stream | audit + infer pass over the mix (deployed before the rounds), deploy of the mix less `vMCU-split` |

use crate::inputs::{self, Group, Suite};
use crate::metrics::{self, median, percentile, MAC_CLASSES, POLICY_SLUGS, WORKER_IDS};
use crate::phases::{self, AuditPass, DeployPass, InferPass, Ops, Prepared, ServePass, SimRow};
use crate::trace::{self, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu_serve::OnlineStats;

/// Set-up repetitions per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;
/// Requests per pass of `serve_poisson`'s timed loop.
pub const SERVE_REQUESTS: usize = 1_000_000;
/// Requests of the companion stream on the other workloads.
pub const COMPANION_REQUESTS: usize = 300_000;
/// Least number of rounds, however long a round takes. A
/// `compile_sweep` round deploys for over ten seconds, so it runs this
/// many: most of its deploy time is four `plan_split` calls whose host
/// time swings by half in spells of several seconds, and a third sample
/// of each, taken a round later, narrows the run-to-run spread of
/// `deploy_s` by about a fifth.
pub const MIN_ROUNDS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deploy and audit every zoo model under every policy on the ladder.
    CompileSweep,
    /// Inference round-robin over the paper modules and the zoo.
    InferMix,
    /// The online fleet serving a seeded Poisson stream.
    ServePoisson,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::CompileSweep,
        Workload::InferMix,
        Workload::ServePoisson,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileSweep => "compile_sweep",
            Workload::InferMix => "infer_mix",
            Workload::ServePoisson => "serve_poisson",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads the timed loop uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::ServePoisson => phases::WORKERS,
            _ => 1,
        }
    }

    /// How load is offered.
    pub fn load(self) -> String {
        match self {
            Workload::ServePoisson => format!(
                "open loop in simulated time: Poisson {} req/s, SLO {} ms, {} requests per pass",
                phases::RATE_PER_S,
                phases::SLO_MS,
                SERVE_REQUESTS
            ),
            _ => "closed loop: 1 client".to_owned(),
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Every end-to-end metric (untraced run) or per-layer metric
    /// (traced run), by name.
    pub metrics: BTreeMap<String, f64>,
    /// One-line JSON record of the run: workload shape, seed, error
    /// rate and, when traced, the anchor checks.
    pub record: String,
    /// Every recorded span, as JSON (empty when untraced).
    pub spans_json: String,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Keeps, per operation, the fastest time any pass measured.
fn keep_best(best: &mut Option<Vec<f64>>, pass: impl Iterator<Item = f64>) {
    match best {
        Some(b) => b.iter_mut().zip(pass).for_each(|(x, y)| *x = x.min(y)),
        None => *best = Some(pass.collect()),
    }
}

/// Measurements gathered across a run's passes. Host times are kept
/// per operation as the best over the passes: contention on a shared
/// host only ever slows a call down, so the fastest of several
/// time-separated samples is the steadiest estimate of its cost.
#[derive(Debug, Default)]
struct Run {
    setup_reps_s: Vec<f64>,
    warmup_s: f64,
    deploy_ms: Option<Vec<f64>>,
    verdicts: Option<Vec<bool>>,
    plan_calls: u64,
    audit_ms: Option<Vec<f64>>,
    audit_counts: Option<(usize, usize)>,
    infer_ms: Option<Vec<f64>>,
    infer_sim: Option<Vec<SimRow>>,
    serve_rate: f64,
    serve_first: Option<OnlineStats>,
    last_serve: Option<ServePass>,
    primary_s: Vec<f64>,
    round_s: f64,
    traced_s: f64,
    layer: BTreeMap<String, f64>,
    branchy_reorder_only: Option<bool>,
    /// Whether `vMCU-split` deploys count in the deploy metrics
    /// (`deploy_s`, `deploy_ms_p50`, `deployed`). Only where deploying is
    /// the workload's own phase: elsewhere one `plan_split` of
    /// `hires_split_only`, whose host time swings by half in spells of
    /// several seconds, would be most of `deploy_s` yet get a handful of
    /// samples; its cost shows in `setup_s` there instead.
    split_deploys_timed: bool,
}

impl Run {
    /// Records a deploy pass; `timed` passes feed the metrics, every
    /// pass is checked against the first. Only the deploys the metrics
    /// count are compared, so a pass may leave out the others.
    fn deploy(&mut self, p: &DeployPass, timed: bool, ops: &mut Ops) {
        debug_assert_eq!(
            p.deps.len(),
            p.kinds.len(),
            "a pass that reuses no deployment"
        );
        let split_timed = self.split_deploys_timed;
        let counted = |k: &PlannerKind| split_timed || !matches!(k, PlannerKind::VmcuSplit { .. });
        let verdicts: Vec<bool> = (p.deps.iter().zip(&p.kinds))
            .filter(|(_, k)| counted(k))
            .map(|(d, _)| d.is_some())
            .collect();
        match &self.verdicts {
            Some(first) if *first != verdicts => {
                ops.fail("deploy verdicts differ between passes of one run");
            }
            Some(_) => {}
            None => self.verdicts = Some(verdicts),
        }
        if timed {
            // The first timed pass deploys the whole list everywhere.
            if self.deploy_ms.is_none() {
                self.plan_calls = p.plan_calls;
            }
            let ms = (p.deploy_ms.iter().zip(&p.kinds))
                .filter(|(_, k)| counted(k))
                .map(|(ms, _)| *ms);
            keep_best(&mut self.deploy_ms, ms);
        }
    }

    fn audit(&mut self, p: &AuditPass, timed: bool, ops: &mut Ops) {
        let counts = (p.nodes_checked, p.distances_checked);
        match self.audit_counts {
            Some(first) if first != counts => ops.fail("audit counts differ between passes"),
            Some(_) => {}
            None => self.audit_counts = Some(counts),
        }
        if timed {
            keep_best(&mut self.audit_ms, p.audit_ms.iter().copied());
        }
    }

    fn infer(&mut self, p: &InferPass, timed: bool, ops: &mut Ops) {
        match &self.infer_sim {
            Some(first) if *first != p.sim => {
                ops.fail("simulated inference results differ between passes");
            }
            Some(_) => {}
            None => self.infer_sim = Some(p.sim.clone()),
        }
        if timed {
            keep_best(
                &mut self.infer_ms,
                p.call_ns.iter().map(|&ns| ns as f64 / 1e6),
            );
        }
    }

    fn serve(&mut self, p: ServePass, timed: bool, ops: &mut Ops) {
        let sim = p.report.stats.simulated();
        match &self.serve_first {
            Some(first) if *first != sim => ops.fail("simulated serving differs between passes"),
            Some(_) => {}
            None => self.serve_first = Some(sim),
        }
        if timed {
            let rate = p.report.stats.offered as f64 / p.wall_s;
            self.serve_rate = self.serve_rate.max(rate);
        }
        self.last_serve = Some(p);
    }

    /// Whether `branchy_oom_net` deploys on the F411RE under the reorder
    /// policy and no other.
    fn note_branchy(&mut self, suite: &Suite, deps: &[Option<Deployment>]) {
        let name = zoo::branchy_oom_net().name;
        let f411 = Device::stm32_f411re().name;
        let mut fits = suite
            .items
            .iter()
            .zip(deps)
            .filter(|(i, _)| suite.models[i.model].graph.name == name && i.device.name == f411)
            .map(|(i, d)| (matches!(i.kind, PlannerKind::VmcuReorder(_)), d.is_some()));
        self.branchy_reorder_only = Some(fits.all(|(reorder, fit)| reorder == fit));
    }
}

/// `suite` without its `vMCU-split` deploys: the companion deploy pass
/// of the workloads that do not count them.
fn without_split(suite: &Suite) -> Suite {
    Suite {
        models: suite.models.clone(),
        items: (suite.items.iter())
            .filter(|i| !matches!(i.kind, PlannerKind::VmcuSplit { .. }))
            .cloned()
            .collect(),
    }
}

/// Deploys `suite` untraced and records the pass as a timed sample.
fn companion_deploy(suite: &Suite, run: &mut Run, tr: &mut Tracer, ops: &mut Ops) {
    let traced = tr.is_on();
    tr.set_on(false);
    let d = phases::deploy_all(suite, &HashMap::new(), tr, ops);
    tr.set_on(traced);
    run.deploy(&d, true, ops);
}

/// Builds inputs `SETUP_REPS` times, recording each build's time.
fn timed_setup(run: &mut Run, mut build: impl FnMut() -> Suite) -> Suite {
    let mut suite = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        suite = Some(build());
        run.setup_reps_s.push(secs(t));
    }
    suite.expect("at least one set-up repetition")
}

/// Wall time of the traced span `h`, less the replayed plan passes
/// inside it.
fn traced_wall_s(tr: &Tracer, h: trace::Handle) -> f64 {
    let Some(root) = h else { return 0.0 };
    let spans = tr.spans();
    let replays: u64 = spans[root..]
        .iter()
        .filter(|s| s.replay)
        .map(trace::Span::dur_ns)
        .sum();
    (spans[root].dur_ns() - replays) as f64 / 1e9
}

/// Runs (part of) one pass of the timed phase under a span named
/// `name`, adding its wall time to the round's, or to the traced pass's
/// less its replayed plan passes.
fn primary<T>(
    run: &mut Run,
    tr: &mut Tracer,
    ops: &mut Ops,
    name: &str,
    pass: impl FnOnce(&mut Tracer, &mut Ops) -> T,
) -> T {
    let traced = tr.is_on();
    let h = tr.begin(name, 0);
    let t = Instant::now();
    let out = pass(tr, ops);
    let wall = secs(t);
    tr.end(h);
    if traced {
        run.traced_s += traced_wall_s(tr, h);
    } else {
        run.round_s += wall;
    }
    out
}

/// Repeats `round` — one pass of the timed phase, then one of each
/// companion — for `cfg.seconds` (at least `MIN_ROUNDS` times), so every
/// operation is sampled at times spread over the run; then, when
/// tracing, once more with spans on.
fn rounds(
    cfg: &Config,
    run: &mut Run,
    tr: &mut Tracer,
    ops: &mut Ops,
    mut round: impl FnMut(&mut Run, &mut Tracer, &mut Ops),
) {
    let start = Instant::now();
    while run.primary_s.len() < MIN_ROUNDS || secs(start) < cfg.seconds {
        run.round_s = 0.0;
        round(run, tr, ops);
        run.primary_s.push(run.round_s);
    }
    if cfg.trace {
        tr.set_on(true);
        round(run, tr, ops);
        tr.set_on(false);
    }
}

/// Records a timed inference pass; a traced pass also yields the
/// simulator's per-layer numbers.
fn record_infer(
    suite: &Suite,
    prep: &Prepared,
    p: &InferPass,
    run: &mut Run,
    tr: &Tracer,
    ops: &mut Ops,
) {
    if tr.is_on() {
        run.layer.extend(infer_layer_metrics(suite, prep, p));
    }
    run.infer(p, true, ops);
}

fn compile_sweep(cfg: &Config, run: &mut Run, tr: &mut Tracer, ops: &mut Ops) {
    run.split_deploys_timed = true;
    let suite = timed_setup(run, || inputs::sweep_suite(cfg.seed));
    let none = HashMap::new();
    let t = Instant::now();
    let warm = phases::deploy_all(&suite, &none, tr, ops);
    let a = phases::audit_all(&suite, &warm.deps, tr, ops);
    run.warmup_s = secs(t);
    run.deploy(&warm, false, ops);
    run.audit(&a, false, ops);
    run.note_branchy(&suite, &warm.deps);
    // Companions: the mix (its zoo deployments are the sweep's F411RE
    // ones; the paper modules deploy here, outside the metrics) and a
    // short stream.
    let mix = inputs::mix_suite(cfg.seed);
    let mix_deps = phases::deploy_all(&mix, &warm.by_key(&suite), tr, ops);
    drop(warm);
    tr.set_on(cfg.trace);
    let mut prep = phases::prepare_infer(&mix, &mix_deps.deps, tr);
    let fleet = phases::new_fleet(tr);
    tr.set_on(false);
    let seed = inputs::derive(cfg.seed, 500);
    // A round deploys and audits the sweep one ladder device at a time,
    // with a companion pass after each device's slice.
    let slices: Vec<Suite> = Device::simd_ladder()
        .into_iter()
        .map(|dev| Suite {
            models: suite.models.clone(),
            items: (suite.items.iter())
                .filter(|i| i.device.name == dev.name)
                .cloned()
                .collect(),
        })
        .collect();
    rounds(cfg, run, tr, ops, |run, tr, ops| {
        let mut d = DeployPass::default();
        let mut a = AuditPass::default();
        let traced = tr.is_on();
        for (k, slice) in slices.iter().enumerate() {
            let (sd, sa) = primary(run, tr, ops, "compile.slice", |tr, ops| {
                let sd = phases::deploy_all(slice, &none, tr, ops);
                let sa = phases::audit_all(slice, &sd.deps, tr, ops);
                (sd, sa)
            });
            d.extend(sd);
            a.extend(sa);
            // A traced round traces one pass of each companion.
            tr.set_on(traced && k == 0);
            let p = phases::infer_pass(&mix, &mut prep, tr, ops);
            record_infer(&mix, &prep, &p, run, tr, ops);
            let p = phases::serve_pass(&fleet, COMPANION_REQUESTS, seed, tr, ops);
            run.serve(p, true, ops);
            tr.set_on(traced);
        }
        run.deploy(&d, true, ops);
        run.audit(&a, true, ops);
    });
}

fn infer_mix(cfg: &Config, run: &mut Run, tr: &mut Tracer, ops: &mut Ops) {
    let none = HashMap::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        tr.set_on(cfg.trace && rep + 1 == SETUP_REPS);
        let t = Instant::now();
        let suite = inputs::mix_suite(cfg.seed);
        let d = phases::deploy_all(&suite, &none, tr, ops);
        let prep = phases::prepare_infer(&suite, &d.deps, tr);
        run.setup_reps_s.push(secs(t));
        run.deploy(&d, true, ops);
        state = Some((suite, d.deps, prep));
    }
    let (suite, deps, mut prep) = state.expect("at least one set-up repetition");
    let fleet = phases::new_fleet(tr);
    tr.set_on(false);
    run.note_branchy(&suite, &deps);
    let t = Instant::now();
    let p = phases::infer_pass(&suite, &mut prep, tr, ops);
    run.warmup_s = secs(t);
    run.infer(&p, false, ops);
    let seed = inputs::derive(cfg.seed, 500);
    let counted = without_split(&suite);
    rounds(cfg, run, tr, ops, |run, tr, ops| {
        let p = primary(run, tr, ops, "infer.pass", |tr, ops| {
            phases::infer_pass(&suite, &mut prep, tr, ops)
        });
        record_infer(&suite, &prep, &p, run, tr, ops);
        let a = phases::audit_all(&suite, &deps, tr, ops);
        run.audit(&a, true, ops);
        let p = phases::serve_pass(&fleet, COMPANION_REQUESTS, seed, tr, ops);
        run.serve(p, true, ops);
        companion_deploy(&counted, run, tr, ops);
    });
}

fn serve_poisson(cfg: &Config, run: &mut Run, tr: &mut Tracer, ops: &mut Ops) {
    let mut fleet = None;
    for rep in 0..SETUP_REPS {
        tr.set_on(cfg.trace && rep + 1 == SETUP_REPS);
        let t = Instant::now();
        fleet = Some(phases::new_fleet(tr));
        run.setup_reps_s.push(secs(t));
        tr.set_on(false);
    }
    let fleet = fleet.expect("at least one set-up repetition");
    // Companions: the mix, deployed here and audited and run once per
    // round, then deployed again (less what the deploy metrics leave
    // out) once per round.
    let mix = inputs::mix_suite(cfg.seed);
    let none = HashMap::new();
    tr.set_on(cfg.trace);
    let d = phases::deploy_all(&mix, &none, tr, ops);
    run.deploy(&d, true, ops);
    let deps = d.deps;
    let mut prep = phases::prepare_infer(&mix, &deps, tr);
    tr.set_on(false);
    run.note_branchy(&mix, &deps);
    let counted = without_split(&mix);
    let seed = inputs::derive(cfg.seed, 500);
    let t = Instant::now();
    let p = phases::serve_pass(&fleet, SERVE_REQUESTS, seed, tr, ops);
    run.warmup_s = secs(t);
    run.serve(p, false, ops);
    rounds(cfg, run, tr, ops, |run, tr, ops| {
        let p = primary(run, tr, ops, "serve.pass", |tr, ops| {
            phases::serve_pass(&fleet, SERVE_REQUESTS, seed, tr, ops)
        });
        run.serve(p, true, ops);
        let a = phases::audit_all(&mix, &deps, tr, ops);
        run.audit(&a, true, ops);
        let p = phases::infer_pass(&mix, &mut prep, tr, ops);
        record_infer(&mix, &prep, &p, run, tr, ops);
        companion_deploy(&counted, run, tr, ops);
    });
}

/// Per-layer numbers one inference pass yields: simulator counters,
/// host ns per simulated MAC of the single-layer deployments, and the
/// Table 3 latency ratio.
fn infer_layer_metrics(suite: &Suite, prep: &Prepared, p: &InferPass) -> Vec<(String, f64)> {
    let mut sum = vmcu::vmcu_sim::Counters::new();
    let mut per_class: HashMap<&str, (u64, u64)> = HashMap::new();
    let mut t3 = [(0.0, 0.0); 8];
    for ((e, ns), row) in prep.entries.iter().zip(&p.call_ns).zip(&p.sim) {
        sum += row.counters;
        let item = &suite.items[e.item];
        let m = &suite.models[item.model];
        if e.chained || m.group == Group::Zoo {
            continue;
        }
        let layer = match m.graph.layers()[0] {
            LayerDesc::Ib(_) => "ib",
            LayerDesc::Pointwise(_) => "pointwise",
            _ => continue,
        };
        let policy = match item.kind {
            PlannerKind::Vmcu(IbScheme::SlidingWindow) => "vmcu_sliding",
            PlannerKind::Vmcu(_) => "vmcu_rowbuffer",
            _ => "tinyengine",
        };
        if let Some(class) = MAC_CLASSES
            .into_iter()
            .find(|c| *c == format!("{layer}.{policy}"))
        {
            let acc = per_class.entry(class).or_default();
            acc.0 += ns;
            acc.1 += row.counters.macs;
        }
        if let Group::Table3(i) = m.group {
            if matches!(item.kind, PlannerKind::TinyEngine) {
                t3[i].1 = row.latency_ms;
            } else {
                t3[i].0 = row.latency_ms;
            }
        }
    }
    let log_mean = t3.iter().map(|(v, te)| (v / te).ln()).sum::<f64>() / t3.len() as f64;
    let mut out = vec![
        ("sim.cycles".to_owned(), sum.cycles as f64),
        ("sim.macs".to_owned(), sum.macs as f64),
        ("sim.ram_read_bytes".to_owned(), sum.ram_read_bytes as f64),
        ("sim.ram_write_bytes".to_owned(), sum.ram_write_bytes as f64),
        (
            "sim.flash_read_bytes".to_owned(),
            sum.flash_read_bytes as f64,
        ),
        ("sim.modulo_ops".to_owned(), sum.modulo_ops as f64),
        ("sim.branches".to_owned(), sum.branches as f64),
        ("sim.table3_ratio".to_owned(), log_mean.exp()),
    ];
    for (class, (ns, macs)) in per_class {
        out.push((
            format!("exec.ns_per_mac.{class}"),
            ns as f64 / macs.max(1) as f64,
        ));
    }
    out
}

fn end_to_end_values(run: &Run) -> BTreeMap<String, f64> {
    let sim = run.infer_sim.as_deref().unwrap_or_default();
    let deploy_ms = run.deploy_ms.as_deref().unwrap_or_default();
    let audit_ms = run.audit_ms.as_deref().unwrap_or_default();
    let infer_ms = run.infer_ms.as_deref().unwrap_or_default();
    let serve = run.serve_first.as_ref();
    let deployed = run
        .verdicts
        .as_ref()
        .map_or(0, |v| v.iter().filter(|d| **d).count());
    [
        ("setup_s", median(&run.setup_reps_s) + run.warmup_s),
        ("deploy_s", deploy_ms.iter().sum::<f64>() / 1e3),
        ("deploy_ms_p50", median(deploy_ms)),
        ("audit_s", audit_ms.iter().sum::<f64>() / 1e3),
        ("deployed", deployed as f64),
        ("infer_ms_p50", median(infer_ms)),
        ("infer_ms_p99", percentile(infer_ms, 0.99)),
        ("sim_latency_ms", sim.iter().map(|r| r.latency_ms).sum()),
        ("sim_energy_mj", sim.iter().map(|r| r.energy_mj).sum()),
        (
            "peak_ram_kb",
            sim.iter().map(|r| r.peak_ram_bytes as f64).sum::<f64>() / 1024.0,
        ),
        ("host_req_per_s", run.serve_rate),
        ("p99_sojourn_ms", serve.map_or(0.0, |s| s.p99_sojourn_ms)),
        ("shed_rate", serve.map_or(0.0, |s| s.shed_rate)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

fn per_layer_values(run: &Run, spans: &[trace::Span]) -> BTreeMap<String, f64> {
    let mut out = run.layer.clone();
    let mut put = |k: String, v: f64| {
        out.insert(k, v);
    };
    for pass in ["split", "fuse", "patch", "order", "graph", "chain"] {
        put(
            format!("plan.{pass}_ms"),
            trace::total_ms(spans, &format!("plan.{pass}")),
        );
    }
    put("plan.calls".into(), run.plan_calls as f64);
    put("deploy.self_ms".into(), trace::self_ms(spans, "deploy"));
    for p in POLICY_SLUGS {
        put(
            format!("verify.audit_ms.{p}"),
            trace::total_ms(spans, &format!("verify.audit.{p}")),
        );
        put(
            format!("exec.infer_ms.{p}"),
            trace::total_ms(spans, &format!("exec.infer.{p}")),
        );
    }
    let (nodes, distances) = run.audit_counts.unwrap_or_default();
    put("verify.nodes_checked".into(), nodes as f64);
    put("verify.distances_checked".into(), distances as f64);
    put(
        "exec.infer_chained_ms".into(),
        trace::total_ms(spans, "exec.infer_chained"),
    );
    put(
        "session.stage_ms".into(),
        trace::total_ms(spans, "session.stage"),
    );
    put("reference.ms".into(), trace::total_ms(spans, "reference"));
    put(
        "serve.fleet_new_ms".into(),
        trace::total_ms(spans, "serve.fleet_new"),
    );
    put(
        "serve.run_online_ms".into(),
        trace::total_ms(spans, "serve.run_online"),
    );
    if let Some(p) = &run.last_serve {
        let s = &p.report.stats;
        put("serve.stagings".into(), s.stagings as f64);
        put("serve.swaps".into(), s.swaps as f64);
        put("serve.evictions".into(), s.evictions as f64);
        put("serve.swap_ms".into(), s.swap_ms);
        put("serve.shed".into(), s.shed as f64);
        put("serve.rejected".into(), s.rejected as f64);
        put("serve.slo_violations".into(), s.slo_violations as f64);
        put("serve.p99_first_half_ms".into(), s.p99_first_half_ms);
        put("serve.p99_second_half_ms".into(), s.p99_second_half_ms);
        put("serve.plan_calls".into(), s.serve_plan_calls as f64);
        for (w, stats) in WORKER_IDS.iter().zip(&p.report.workers) {
            put(
                format!("serve.busy_ratio.{w}"),
                stats.busy_us as f64 / stats.clock_us.max(1) as f64,
            );
        }
    }
    put(
        "trace.overhead_ratio".into(),
        run.traced_s / median(&run.primary_s),
    );
    out
}

/// Runs one workload and gathers its metrics.
pub fn run(cfg: &Config) -> Outcome {
    let mut run = Run::default();
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    match cfg.workload {
        Workload::CompileSweep => compile_sweep(cfg, &mut run, &mut tr, &mut ops),
        Workload::InferMix => infer_mix(cfg, &mut run, &mut tr, &mut ops),
        Workload::ServePoisson => serve_poisson(cfg, &mut run, &mut tr, &mut ops),
    }
    let spans = tr.spans();
    if let Err(e) = trace::check_tree(spans) {
        ops.fail(format_args!("trace: {e}"));
    }
    let metrics = if cfg.trace {
        per_layer_values(&run, spans)
    } else {
        end_to_end_values(&run)
    };
    let mut record = vec![
        format!("\"workload\": \"{}\"", cfg.workload.name()),
        format!("\"seed\": {}", cfg.seed),
        format!("\"default_seed\": {}", inputs::DEFAULT_SEED),
        format!("\"held_out_seed\": {}", inputs::HELD_OUT_SEED),
        format!("\"load\": \"{}\"", cfg.workload.load()),
        format!("\"threads\": {}", cfg.workload.threads()),
        format!(
            "\"nproc\": {}",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        ),
        format!("\"timed_pass_s\": {:?}", run.primary_s),
        format!("\"setup_reps_s\": {:?}", run.setup_reps_s),
        format!("\"warmup_s\": {}", metrics::num(run.warmup_s)),
        format!(
            "\"error_rate\": {}",
            metrics::num(ops.failed as f64 / ops.attempted.max(1) as f64)
        ),
    ];
    if cfg.trace {
        let deploy_ms = trace::total_ms(spans, "deploy");
        let split_share = metrics.get("plan.split_ms").copied().unwrap_or(0.0) / deploy_ms;
        let ratio = metrics.get("sim.table3_ratio").copied().unwrap_or(0.0);
        record.push(format!(
            "\"anchors\": {{\"split_share_of_deploy\": {}, \"split_dominates_deploy\": {}, \"table3_ratio\": {}, \"table3_reads_1.18\": {}, \"branchy_oom_net_reorder_only_on_f411re\": {}}}",
            metrics::num(split_share),
            split_share > 0.5,
            metrics::num(ratio),
            (ratio * 100.0).round() == 118.0,
            run.branchy_reorder_only.unwrap_or(false)
        ));
    }
    Outcome {
        ops,
        metrics,
        record: format!("{{{}}}", record.join(", ")),
        spans_json: if cfg.trace {
            trace::to_json(spans)
        } else {
            String::new()
        },
    }
}
