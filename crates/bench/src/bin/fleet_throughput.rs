//! Fleet-serving experiment: batch admission capacity plus the online
//! serving simulator, per planning policy.
//!
//! Two sections land in `BENCH_fleet.json`:
//!
//! * **`planners`** — the legacy batch rows: the same seeded request
//!   batch, present at t = 0, offered to an N-device 128 KB fleet under
//!   vMCU, vMCU-fused, vMCU-patched, TinyEngine, HMCOS, vMCU-split, and
//!   vMCU-reorder planning (requests/sec, admission rate, p50/p99
//!   latency). A batch admits exactly the requests whose model deployed
//!   and dispatches them by the online path's `Router` rule. The split
//!   rows exercise the split schedule: the `hires-split-only` model OOMs
//!   every single device, deploys only under the split policy, and runs
//!   all its stages and link hops on the one device that holds it —
//!   checked deterministically every run.
//!   The reorder check (`reorder_peak_never_worse`) verifies the DAG
//!   order search's ≤-contract on the branchy zoo and that
//!   `branchy-oom-net` deploys only under the reorder policy.
//! * **`online`** — sustained online runs ([`Fleet::run_online`]): a
//!   seeded million-request arrival stream dispatched across the
//!   devices by their simulated clocks, served in deadline order with
//!   deadline shedding and LRU model hot-swap. Every
//!   planner serves the Poisson stream; the vMCU policy additionally
//!   serves the bursty and diurnal profiles, and the Poisson stream on
//!   a single device (`vMCU-1worker`), which cannot keep the catalog
//!   resident and so must hot-swap. Reported: p50/p99 sojourn, shed
//!   rate, swap counts and priced staging time, SLO violations, and
//!   host-side wall-clock throughput.
//!
//! All simulated metrics are bit-reproducible across machines — one
//! online row is re-run in-process and compared bit-for-bit as a check.
//! The CI bench gate (`bench_gate`) compares the emitted file, host time
//! aside, exactly with `ci/bench_baseline.json`.
//!
//! Flags: `--light` (shorter batch stream for CI), `--workers N`,
//! `--requests N` (batch), `--seed S`, `--out PATH`, `--online`
//! (online-only walkthrough mode), `--online-requests N` (default
//! 1,000,000), `--rate R` (nominal req/s, default 150), `--slo-ms F`
//! (default 250), `--profile poisson|bursty|diurnal` (restrict online
//! profiles).
//!
//! [`Fleet::run_online`]: vmcu_serve::Fleet::run_online

use vmcu::prelude::*;
use vmcu_bench::json::Json;
use vmcu_serve::{
    random_stream, ArrivalProfile, Fleet, FleetConfig, FleetStats, ModelCatalog, OnlineConfig,
    OnlineReport, OnlineStats,
};

struct Args {
    light: bool,
    workers: usize,
    requests: usize,
    seed: u64,
    out: String,
    online_only: bool,
    online_requests: usize,
    rate: f64,
    slo_ms: f64,
    profile: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        light: false,
        workers: 4,
        requests: 96,
        seed: 2024,
        out: "BENCH_fleet.json".to_owned(),
        online_only: false,
        online_requests: 1_000_000,
        rate: 150.0,
        slo_ms: 250.0,
        profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--light" => args.light = true,
            "--online" => args.online_only = true,
            "--workers" => args.workers = value("--workers").parse().expect("--workers: integer"),
            "--requests" => {
                args.requests = value("--requests").parse().expect("--requests: integer");
            }
            "--online-requests" => {
                args.online_requests = value("--online-requests")
                    .parse()
                    .expect("--online-requests: integer");
            }
            "--rate" => args.rate = value("--rate").parse().expect("--rate: req/s"),
            "--slo-ms" => args.slo_ms = value("--slo-ms").parse().expect("--slo-ms: ms"),
            "--profile" => args.profile = Some(value("--profile")),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--out" => args.out = value("--out"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    if args.light {
        args.requests = args.requests.min(32);
    }
    args
}

/// The three load shapes, parameterized by the nominal rate: steady
/// Poisson at `rate`, 200 ms bursts at 4x over a halved base, and a
/// one-simulated-minute diurnal swing around `rate`.
fn profiles(rate: f64) -> Vec<ArrivalProfile> {
    vec![
        ArrivalProfile::Poisson { rate_per_sec: rate },
        ArrivalProfile::Bursty {
            base_rate_per_sec: rate * 0.5,
            burst_rate_per_sec: rate * 4.0,
            burst_ms: 200.0,
            gap_ms: 800.0,
        },
        ArrivalProfile::Diurnal {
            trough_rate_per_sec: rate * 0.25,
            peak_rate_per_sec: rate * 2.0,
            period_ms: 60_000.0,
        },
    ]
}

fn stats_json(planner: &str, stats: &FleetStats) -> Json {
    Json::Object(vec![
        ("planner".into(), Json::str(planner)),
        ("offered".into(), Json::from(stats.offered)),
        ("admitted".into(), Json::from(stats.admitted)),
        ("completed".into(), Json::from(stats.completed)),
        ("rejected".into(), Json::from(stats.rejected)),
        ("failed".into(), Json::from(stats.failed)),
        ("admission_rate".into(), Json::from(stats.admission_rate)),
        (
            "requests_per_sec".into(),
            Json::from(stats.requests_per_sec),
        ),
        ("makespan_ms".into(), Json::from(stats.makespan_ms)),
        ("p50_latency_ms".into(), Json::from(stats.p50_latency_ms)),
        ("p99_latency_ms".into(), Json::from(stats.p99_latency_ms)),
        ("energy_mj".into(), Json::from(stats.energy_mj)),
        // Planning vs inference, separated: deploy-side plan calls are
        // paid once per fleet; serve-side calls (and their per-request
        // amortization) are the gated metric — 0 on the plan-once path.
        (
            "deploy_plan_calls".into(),
            Json::from(stats.deploy_plan_calls as usize),
        ),
        (
            "serve_plan_calls".into(),
            Json::from(stats.serve_plan_calls as usize),
        ),
        (
            "plan_calls_per_request".into(),
            Json::from(stats.plan_calls_per_request),
        ),
        ("planning_ms".into(), Json::from(stats.planning_ms)),
        ("host_wall_ms".into(), Json::from(stats.host_wall_ms)),
    ])
}

fn online_json(planner: &str, profile: &str, cfg: &OnlineConfig, s: &OnlineStats) -> Json {
    Json::Object(vec![
        ("planner".into(), Json::str(planner)),
        ("profile".into(), Json::str(profile)),
        ("requests".into(), Json::from(cfg.requests)),
        ("slo_ms".into(), Json::from(cfg.slo_ms)),
        ("offered".into(), Json::from(s.offered)),
        ("routed".into(), Json::from(s.routed)),
        ("rejected".into(), Json::from(s.rejected)),
        ("completed".into(), Json::from(s.completed)),
        ("shed".into(), Json::from(s.shed)),
        ("failed".into(), Json::from(s.failed)),
        ("shed_rate".into(), Json::from(s.shed_rate)),
        ("slo_violations".into(), Json::from(s.slo_violations)),
        ("p50_sojourn_ms".into(), Json::from(s.p50_sojourn_ms)),
        ("p99_sojourn_ms".into(), Json::from(s.p99_sojourn_ms)),
        ("p99_first_half_ms".into(), Json::from(s.p99_first_half_ms)),
        (
            "p99_second_half_ms".into(),
            Json::from(s.p99_second_half_ms),
        ),
        ("stagings".into(), Json::from(s.stagings as usize)),
        ("swaps".into(), Json::from(s.swaps as usize)),
        ("evictions".into(), Json::from(s.evictions as usize)),
        ("swap_ms".into(), Json::from(s.swap_ms)),
        ("makespan_ms".into(), Json::from(s.makespan_ms)),
        (
            "sim_requests_per_sec".into(),
            Json::from(s.sim_requests_per_sec),
        ),
        ("energy_mj".into(), Json::from(s.energy_mj)),
        (
            "deploy_plan_calls".into(),
            Json::from(s.deploy_plan_calls as usize),
        ),
        (
            "serve_plan_calls".into(),
            Json::from(s.serve_plan_calls as usize),
        ),
        ("planning_ms".into(), Json::from(s.planning_ms)),
        ("host_wall_ms".into(), Json::from(s.host_wall_ms)),
        (
            "host_requests_per_sec".into(),
            Json::from(s.host_requests_per_sec),
        ),
    ])
}

/// Serves one online stream on `fleet` and prints its line.
fn serve_online(name: &str, fleet: &Fleet, cfg: &OnlineConfig) -> OnlineReport {
    let report = fleet.run_online(cfg);
    let s = &report.stats;
    println!(
        "  online {name:<12} {:<8} completed {:>7}/{:<7}  shed {:>5.2}%  p50 {:>7.2} ms  p99 {:>7.2} ms  swaps {:>6} ({:>9.1} ms staged)  {:>9.0} req/s host",
        cfg.profile.name(),
        s.completed,
        s.offered,
        s.shed_rate * 100.0,
        s.p50_sojourn_ms,
        s.p99_sojourn_ms,
        s.swaps,
        s.swap_ms,
        s.host_requests_per_sec,
    );
    report
}

fn main() {
    let args = parse_args();
    let device = Device::stm32_f411re();
    let catalog = ModelCatalog::standard();
    let requests = random_stream(catalog.models(), args.requests, args.seed);

    let planners = [
        ("vMCU", PlannerKind::Vmcu(IbScheme::RowBuffer)),
        ("vMCU-fused", PlannerKind::VmcuFused(IbScheme::RowBuffer)),
        (
            "vMCU-patched",
            PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        ),
        ("TinyEngine", PlannerKind::TinyEngine),
        ("HMCOS", PlannerKind::Hmcos),
        (
            "vMCU-split",
            PlannerKind::VmcuSplit {
                devices: 4,
                scheme: IbScheme::RowBuffer,
            },
        ),
        (
            "vMCU-reorder",
            PlannerKind::VmcuReorder(IbScheme::RowBuffer),
        ),
    ];
    let mut rows = Vec::new();
    let mut per_planner = Vec::new();
    let mut online_rows = Vec::new();
    let mut online_stats: Vec<(String, String, OnlineStats)> = Vec::new();
    // The bit-reproducibility witness: the first online row is re-run
    // and its simulated projection must compare equal, bit for bit.
    let mut repro: Option<(String, bool)> = None;
    println!(
        "fleet_throughput: {} x {} | batch {} requests, online {} requests at {} req/s nominal, SLO {} ms, seed {}",
        args.workers, device, args.requests, args.online_requests, args.rate, args.slo_ms, args.seed
    );
    for (name, kind) in planners {
        let fleet = Fleet::new(
            FleetConfig::new(device.clone(), args.workers, kind),
            catalog.clone(),
        );
        if !args.online_only {
            let report = fleet.run_batch(&requests);
            let s = &report.stats;
            println!(
                "  batch  {name:<12} admitted {:>3}/{:<3} ({:>5.1}%)  {:>8.2} req/s  p50 {:>7.3} ms  p99 {:>7.3} ms  {:>7.2} mJ  plan {}+{} calls",
                s.admitted,
                s.offered,
                s.admission_rate * 100.0,
                s.requests_per_sec,
                s.p50_latency_ms,
                s.p99_latency_ms,
                s.energy_mj,
                s.deploy_plan_calls,
                s.serve_plan_calls
            );
            rows.push(stats_json(name, s));
            per_planner.push((name, s.clone()));
        }
        // Online: every planner serves the Poisson stream; the vMCU
        // policy also serves the bursty and diurnal shapes (load-shape
        // sensitivity is a property of the queueing policy, not of the
        // planner comparison).
        for profile in profiles(args.rate) {
            if name != "vMCU" && profile.name() != "poisson" {
                continue;
            }
            if args
                .profile
                .as_deref()
                .is_some_and(|want| want != profile.name())
            {
                continue;
            }
            let cfg = OnlineConfig::new(profile, args.online_requests, args.seed)
                .with_slo_ms(args.slo_ms);
            let report = serve_online(name, &fleet, &cfg);
            let s = &report.stats;
            if repro.is_none() {
                let again = fleet.run_online(&cfg);
                repro = Some((
                    format!("{name}/{}", cfg.profile.name()),
                    again.stats.simulated() == s.simulated() && again.workers == report.workers,
                ));
            }
            online_rows.push(online_json(name, cfg.profile.name(), &cfg, s));
            online_stats.push((name.to_owned(), cfg.profile.name().to_owned(), s.clone()));
        }
    }
    // The vMCU Poisson stream on a single device: the catalog cannot
    // all be resident there, so this row hot-swaps whatever the other
    // rows do, and every swap it makes must be priced.
    let poisson = ArrivalProfile::Poisson {
        rate_per_sec: args.rate,
    };
    if args
        .profile
        .as_deref()
        .map_or(true, |want| want == poisson.name())
    {
        let name = "vMCU-1worker";
        let fleet = Fleet::new(
            FleetConfig::new(device.clone(), 1, PlannerKind::Vmcu(IbScheme::RowBuffer)),
            catalog.clone(),
        );
        let cfg =
            OnlineConfig::new(poisson, args.online_requests, args.seed).with_slo_ms(args.slo_ms);
        let s = serve_online(name, &fleet, &cfg).stats;
        online_rows.push(online_json(name, cfg.profile.name(), &cfg, &s));
        online_stats.push((name.to_owned(), cfg.profile.name().to_owned(), s));
    }

    let mut checks: Vec<(String, bool, String)> = Vec::new();
    if !args.online_only {
        // The headline batch criteria: segment-level planning must admit
        // strictly more of the same offered load than both disjoint
        // baselines, and the fusion pass may only add capacity on top.
        let by_name = |wanted: &str| {
            &per_planner
                .iter()
                .find(|(name, _)| *name == wanted)
                .expect("planner ran")
                .1
        };
        let vmcu = by_name("vMCU");
        let fused = by_name("vMCU-fused");
        let patched = by_name("vMCU-patched");
        for name in ["TinyEngine", "HMCOS"] {
            let s = by_name(name);
            checks.push((
                format!("vmcu_admits_more_than_{}", name.to_lowercase()),
                vmcu.admitted > s.admitted,
                format!("vMCU {} vs {} {}", vmcu.admitted, name, s.admitted),
            ));
        }
        checks.push((
            "fused_admits_at_least_vmcu".to_owned(),
            fused.admitted >= vmcu.admitted,
            format!("vMCU-fused {} vs vMCU {}", fused.admitted, vmcu.admitted),
        ));
        checks.push((
            "patched_admits_at_least_vmcu".to_owned(),
            patched.admitted >= vmcu.admitted,
            format!(
                "vMCU-patched {} vs vMCU {}",
                patched.admitted, vmcu.admitted
            ),
        ));
        checks.push((
            "no_execution_failures".to_owned(),
            per_planner.iter().all(|(_, s)| s.failed == 0),
            "typed engine errors during admitted runs".to_owned(),
        ));
        checks.push((
            "planning_amortized".to_owned(),
            per_planner.iter().all(|(_, s)| s.serve_plan_calls == 0),
            format!(
                "serve-side plan calls per planner: {:?} (deploy-side: {:?})",
                per_planner
                    .iter()
                    .map(|(_, s)| s.serve_plan_calls)
                    .collect::<Vec<_>>(),
                per_planner
                    .iter()
                    .map(|(_, s)| s.deploy_plan_calls)
                    .collect::<Vec<_>>()
            ),
        ));
    }
    if !args.online_only {
        // The split tentpole, as a deterministic serving check: the
        // hires-split-only zoo model OOMs every single 128 KB device,
        // so a 2-worker fleet rejects its request under single-device
        // vMCU planning and completes it under the split policy, which
        // deploys it at its bottleneck stage's RAM and runs every stage
        // on the device that holds it.
        let hires = vec![vmcu_serve::RequestSpec {
            id: 0,
            model: "hires-split-only".into(),
            seed: args.seed,
        }];
        let single = Fleet::new(
            FleetConfig::new(device.clone(), 2, PlannerKind::Vmcu(IbScheme::RowBuffer)),
            catalog.clone(),
        )
        .run_batch(&hires);
        let split = Fleet::new(
            FleetConfig::new(
                device.clone(),
                2,
                PlannerKind::VmcuSplit {
                    devices: 2,
                    scheme: IbScheme::RowBuffer,
                },
            ),
            catalog.clone(),
        )
        .run_batch(&hires);
        checks.push((
            "split_serves_the_oversized_model".to_owned(),
            single.stats.rejected == 1 && split.stats.completed == 1 && split.stats.failed == 0,
            format!(
                "hires-split-only on 2x {}: vMCU rejected {}, vMCU-split completed {}",
                device.name, single.stats.rejected, split.stats.completed
            ),
        ));
    }
    if !args.online_only {
        // The reorder tentpole, deterministically: on every branchy zoo
        // DAG the searched execution order's liveness-priced peak is
        // never worse than the default topological order's (the
        // ≤-fallback contract), and the branchy-oom-net model — which
        // the default order cannot fit on the 128 KB device — deploys
        // under the reorder policy.
        let planner = VmcuPlanner::default();
        let zoo_plans: Vec<(String, vmcu::vmcu_plan::OrderPlan)> = vmcu_graph::zoo::branchy_zoo()
            .into_iter()
            .map(|g| {
                let plan = vmcu::vmcu_plan::plan_order(&planner, &g);
                (g.name, plan)
            })
            .collect();
        let never_worse = zoo_plans
            .iter()
            .all(|(_, p)| p.peak_bytes <= p.default_peak_bytes);
        let oom = vmcu_graph::zoo::branchy_oom_net();
        let oom_weights = oom.random_weights(args.seed);
        let default_oom = Engine::new(device.clone())
            .planner(PlannerKind::Vmcu(IbScheme::RowBuffer))
            .deploy(&oom, &oom_weights)
            .is_err();
        let reorder_fits = Engine::new(device.clone())
            .planner(PlannerKind::VmcuReorder(IbScheme::RowBuffer))
            .deploy(&oom, &oom_weights)
            .is_ok();
        checks.push((
            "reorder_peak_never_worse".to_owned(),
            never_worse && default_oom && reorder_fits,
            format!(
                "searched vs default peak per DAG: {:?}; branchy-oom-net on {}: default OOM {}, reordered fits {}",
                zoo_plans
                    .iter()
                    .map(|(n, p)| format!("{n} {} <= {}", p.peak_bytes, p.default_peak_bytes))
                    .collect::<Vec<_>>(),
                device.name,
                default_oom,
                reorder_fits
            ),
        ));
    }
    // Online criteria.
    if !online_stats.is_empty() {
        let total_swaps: u64 = online_stats.iter().map(|(_, _, s)| s.swaps).sum();
        let priced: bool = online_stats
            .iter()
            .all(|(_, _, s)| s.stagings == 0 || s.swap_ms > 0.0);
        checks.push((
            "online_hot_swaps_priced".to_owned(),
            total_swaps >= 1 && priced,
            format!("{total_swaps} hot swaps across online rows, every staging priced"),
        ));
        checks.push((
            "online_planning_amortized".to_owned(),
            online_stats.iter().all(|(_, _, s)| s.serve_plan_calls == 0),
            "online serving performs zero planning passes".to_owned(),
        ));
        checks.push((
            "online_no_execution_failures".to_owned(),
            online_stats.iter().all(|(_, _, s)| s.failed == 0),
            "typed engine errors during online serving".to_owned(),
        ));
        // Steady state: served in deadline order and shed, the
        // completion tail must not drift between the first and second
        // half of the run — a diverging queue would blow the second
        // half up.
        let stable = online_stats
            .iter()
            .filter(|(_, _, s)| s.completed >= 1_000)
            .all(|(_, _, s)| s.p99_second_half_ms <= 1.5 * s.p99_first_half_ms);
        checks.push((
            "online_p99_stable".to_owned(),
            stable,
            format!(
                "p99 halves per row: {:?}",
                online_stats
                    .iter()
                    .map(|(n, p, s)| format!(
                        "{n}/{p} {:.1}->{:.1}",
                        s.p99_first_half_ms, s.p99_second_half_ms
                    ))
                    .collect::<Vec<_>>()
            ),
        ));
        if let Some((row, passed)) = &repro {
            checks.push((
                "online_bit_reproducible".to_owned(),
                *passed,
                format!("row {row} re-run in-process compares bit-identical"),
            ));
        }
    }

    let doc = Json::Object(vec![
        ("id".into(), Json::str("fleet_throughput")),
        ("device".into(), Json::str(device.name.clone())),
        ("workers".into(), Json::from(args.workers)),
        ("requests".into(), Json::from(args.requests)),
        ("online_requests".into(), Json::from(args.online_requests)),
        ("rate_per_sec".into(), Json::from(args.rate)),
        ("slo_ms".into(), Json::from(args.slo_ms)),
        ("seed".into(), Json::from(args.seed)),
        ("light".into(), Json::from(args.light)),
        ("planners".into(), Json::Array(rows)),
        ("online".into(), Json::Array(online_rows)),
        (
            "checks".into(),
            Json::Array(
                checks
                    .iter()
                    .map(|(name, passed, detail)| {
                        Json::Object(vec![
                            ("name".into(), Json::str(name.clone())),
                            ("passed".into(), Json::Bool(*passed)),
                            ("detail".into(), Json::str(detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&args.out, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("wrote {}", args.out);

    let mut ok = true;
    for (name, passed, detail) in &checks {
        println!(
            "  [{}] {name} — {detail}",
            if *passed { "PASS" } else { "FAIL" }
        );
        ok &= *passed;
    }
    std::process::exit(i32::from(!ok));
}
