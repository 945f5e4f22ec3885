//! The online pass against the routed, per-staging session loop it
//! replaced.
//!
//! `Fleet::run_online` walks the arrival stream once. It dispatches each
//! request against the devices' simulated clocks, then sheds it or
//! stages and serves it on the chosen device at once, charging service
//! times the fleet calibrated once per model at construction. A staging
//! is a residency ledger entry plus the deployment's simulated staging
//! time. `OnlineStats::aggregate` merges the devices' completion-ordered
//! logs instead of re-sorting them, and `percentile_us` selects its
//! nearest rank instead of sorting a copy.
//!
//! The loop they replaced is kept here as `definition_run_online`, built
//! only from the crate's public parts and independent of its dispatch
//! code. It routes the seeded stream with its own placement
//! (`definition_holders`), rule (`definition_dispatch`) and FIFO clock
//! arithmetic, then drains each device's lane through an
//! earliest-deadline-first heap and a `ResidencyLedger`, with a
//! `Deployment::session()` opened on every staging and calibrated on at
//! a model's first service, and aggregates by sorting. The clock
//! arithmetic must predict every lane's drain — completions, sheds and
//! final clock — before anything is compared with the library. Then
//! every per-worker record and the whole simulated `OnlineStats` must
//! match it bit for bit across arrival profiles, policies, fleet sizes
//! and SLOs. This file is the gate for any edit to the online pass, the
//! `Router` or `OnlineStats`.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use vmcu::prelude::*;
use vmcu::vmcu_plan::telemetry;
use vmcu::vmcu_tensor::random;
use vmcu_serve::{
    percentile_us, Admit, ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig,
    OnlineStats, OnlineWorkerStats, PlanningStats, ResidencyLedger, Router,
};

// ---- oracles: the routed per-staging session loop, sorted statistics ----

/// The fleet's per-model weight seed (FNV-1a over the name); xored with
/// a constant it seeds the calibration input.
fn model_weight_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile by sorting a copy, in milliseconds.
fn definition_percentile_us(samples: &[u64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Fleet statistics with the whole log sorted up front and every
/// percentile sorting its own copy.
fn definition_aggregate(
    offered: usize,
    rejected: usize,
    completions: &mut [(u64, u64)],
    workers: &[OnlineWorkerStats],
    planning: &PlanningStats,
    host_wall_ms: f64,
) -> OnlineStats {
    completions.sort_unstable();
    let completed = completions.len();
    let sojourns: Vec<u64> = completions.iter().map(|&(_, s)| s).collect();
    let (first, second) = sojourns.split_at(completed / 2);
    let routed = offered - rejected;
    let shed = workers.iter().map(|w| w.shed).sum::<usize>();
    let clock_us = workers.iter().map(|w| w.clock_us).max().unwrap_or(0);
    let host_wall_sec = host_wall_ms / 1e3;
    OnlineStats {
        offered,
        routed,
        rejected,
        completed,
        shed,
        failed: workers.iter().map(|w| w.failed).sum(),
        shed_rate: if routed == 0 {
            0.0
        } else {
            shed as f64 / routed as f64
        },
        slo_violations: workers.iter().map(|w| w.slo_violations).sum(),
        p50_sojourn_ms: definition_percentile_us(&sojourns, 0.50),
        p99_sojourn_ms: definition_percentile_us(&sojourns, 0.99),
        p99_first_half_ms: definition_percentile_us(first, 0.99),
        p99_second_half_ms: definition_percentile_us(second, 0.99),
        stagings: workers.iter().map(|w| w.stagings).sum(),
        swaps: workers.iter().map(|w| w.swaps).sum(),
        evictions: workers.iter().map(|w| w.evictions).sum(),
        swap_ms: workers.iter().map(|w| w.staging_us).sum::<u64>() as f64 / 1e3,
        makespan_ms: clock_us as f64 / 1e3,
        sim_requests_per_sec: if clock_us > 0 {
            completed as f64 * 1e6 / clock_us as f64
        } else {
            0.0
        },
        energy_mj: workers.iter().map(|w| w.energy_mj).sum(),
        planning_ms: planning.deploy_ms,
        deploy_plan_calls: planning.deploy_plan_calls,
        serve_plan_calls: planning.serve_plan_calls
            + workers.iter().map(|w| w.plan_calls).sum::<u64>(),
        host_wall_ms,
        host_requests_per_sec: if host_wall_sec > 0.0 {
            completed as f64 / host_wall_sec
        } else {
            0.0
        },
    }
}

/// One queued request, ordered by urgency: the derived `Ord` compares
/// the deadline first, then the unique arrival sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedRequest {
    deadline_us: u64,
    seq: u64,
    at_us: u64,
    model: usize,
}

/// An earliest-deadline-first queue: pops the earliest deadline, ties
/// in arrival order.
#[derive(Debug, Default)]
struct EdfQueue {
    heap: BinaryHeap<Reverse<QueuedRequest>>,
}

impl EdfQueue {
    fn push(&mut self, request: QueuedRequest) {
        self.heap.push(Reverse(request));
    }

    fn pop(&mut self) -> Option<QueuedRequest> {
        self.heap.pop().map(|Reverse(r)| r)
    }
}

/// One deployed catalog model as a device sees it.
struct Served<'a> {
    name: &'static str,
    deployment: &'a Deployment,
    ram_bytes: usize,
    flash_bytes: usize,
    staging_us: u64,
}

/// One inference on a fresh session of `model` with the calibration
/// input: its service time (µs, at least 1) and energy, or `None` if it
/// fails.
fn calibrate(model: &Served, session: &mut Session) -> Option<(u64, f64)> {
    let input = random::tensor_i8(
        &model.deployment.graph().in_shape(),
        model_weight_seed(model.name) ^ 0xCA11_B7A7,
    );
    session.infer(&input).ok().map(|r| {
        (
            ((r.latency_ms() * 1e3).round() as u64).max(1),
            r.energy_mj(),
        )
    })
}

/// One device's lane through an EDF queue, with a session opened on
/// every staging, dropped on eviction, and calibrated on at a model's
/// first service.
fn definition_worker(
    models: &[Option<Served>],
    lane: &[QueuedRequest],
    ram_budget: usize,
    flash_budget: usize,
) -> (Vec<(u64, u64)>, OnlineWorkerStats) {
    let plan_calls_before = telemetry::plan_calls();
    let mut stats = OnlineWorkerStats {
        routed: lane.len(),
        ..Default::default()
    };
    let mut completions = Vec::new();
    let mut ledger = ResidencyLedger::new(ram_budget, flash_budget);
    let mut sessions: HashMap<usize, Session> = HashMap::new();
    let mut profiles: Vec<Option<Option<(u64, f64)>>> = vec![None; models.len()];
    let mut queue = EdfQueue::default();
    let mut next = 0usize;
    let mut now = 0u64;
    loop {
        while next < lane.len() && lane[next].at_us <= now {
            queue.push(lane[next]);
            next += 1;
        }
        let Some(job) = queue.pop() else {
            if next < lane.len() {
                now = now.max(lane[next].at_us);
                continue;
            }
            break;
        };
        if now >= job.deadline_us {
            stats.shed += 1;
            continue;
        }
        let model = models[job.model].as_ref().expect("routed models deployed");
        match ledger.request(job.model, model.ram_bytes, model.flash_bytes) {
            Admit::Hit => {}
            Admit::Staged { evicted } => {
                for e in evicted {
                    sessions.remove(&e);
                }
                sessions.insert(job.model, model.deployment.session());
                now += model.staging_us;
                stats.staging_us += model.staging_us;
            }
            Admit::TooLarge => panic!("a deployed model fits an empty device"),
        }
        let profile = *profiles[job.model].get_or_insert_with(|| {
            let session = sessions
                .get_mut(&job.model)
                .expect("a resident model has a session");
            calibrate(model, session)
        });
        let Some((service_us, energy_mj)) = profile else {
            stats.failed += 1;
            continue;
        };
        now += service_us;
        stats.served += 1;
        stats.busy_us += service_us;
        stats.energy_mj += energy_mj;
        if now > job.deadline_us {
            stats.slo_violations += 1;
        }
        completions.push((now, now - job.at_us));
    }
    stats.clock_us = now;
    stats.stagings = ledger.stagings();
    stats.swaps = ledger.swaps();
    stats.evictions = ledger.evictions();
    stats.plan_calls = telemetry::plan_calls() - plan_calls_before;
    (completions, stats)
}

/// Resident-set placement by its definition: each device holds its home
/// models (`model % workers`), then each other deployed model, in
/// catalog order, that fits both budgets beside what it holds so far.
/// Returns each model's holders in index order.
fn definition_holders(
    workers: usize,
    footprints: &[Option<(usize, usize)>],
    ram_budget: usize,
    flash_budget: usize,
) -> Vec<Vec<usize>> {
    let mut holders = vec![Vec::new(); footprints.len()];
    for device in 0..workers {
        let mut used = (0, 0);
        for (m, f) in footprints.iter().enumerate() {
            if let (true, Some((ram, flash))) = (m % workers == device, *f) {
                used = (used.0 + ram, used.1 + flash);
                holders[m].push(device);
            }
        }
        for (m, f) in footprints.iter().enumerate() {
            let Some((ram, flash)) = *f else { continue };
            let beside = (used.0 + ram, used.1 + flash);
            if m % workers != device && beside.0 <= ram_budget && beside.1 <= flash_budget {
                used = beside;
                holders[m].push(device);
            }
        }
    }
    holders
}

/// How a request picks among its model's holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// The fleet's rule: home, unless a holder starts it more than one
    /// service time sooner; then the earliest holder.
    OneServiceMargin,
    /// The earliest holder, whatever the home device.
    EarliestStart,
}

/// The holder of a request's model that `rule` picks, given when each
/// device could start it. `holders` is in index order and holds `home`.
fn definition_dispatch(
    rule: Dispatch,
    home: usize,
    holders: &[usize],
    start: impl Fn(usize) -> u64,
    service_us: u64,
) -> usize {
    assert!(holders.contains(&home), "a held model's home holds it");
    let soonest = holders.iter().map(|&d| start(d)).min().expect("held");
    // Holders are in index order: the first to start soonest is the
    // lowest index among them.
    let earliest = *holders
        .iter()
        .find(|&&d| start(d) == soonest)
        .expect("the minimum is attained");
    match rule {
        Dispatch::EarliestStart => earliest,
        Dispatch::OneServiceMargin if start(home) - soonest > service_us => earliest,
        Dispatch::OneServiceMargin => home,
    }
}

/// One device as the router's clock arithmetic sees it: requests served
/// in arrival order, each idling the device to its arrival, shed past
/// its deadline, staged and served otherwise.
struct Predicted {
    clock_us: u64,
    ledger: ResidencyLedger,
    shed: usize,
    completions: Vec<(u64, u64)>,
}

/// The whole online run, one device after another: route the seeded
/// stream by `rule` with the clock arithmetic, drain each lane through
/// the EDF loop, check that the arithmetic predicted every drain, and
/// aggregate. Host-time fields come out zero.
fn definition_run_online(
    fleet: &Fleet,
    cfg: &OnlineConfig,
    rule: Dispatch,
) -> (Vec<OnlineWorkerStats>, OnlineStats) {
    let models: Vec<Option<Served>> = fleet
        .catalog()
        .models()
        .iter()
        .map(|m| {
            fleet.deployment(m.name).map(|d| Served {
                name: m.name,
                deployment: d,
                ram_bytes: d.peak_demand_bytes(),
                flash_bytes: d.image_bytes(),
                staging_us: (d.staging_ms() * 1e3).round() as u64,
            })
        })
        .collect();
    let services: Vec<Option<u64>> = models
        .iter()
        .map(|m| {
            let m = m.as_ref()?;
            calibrate(m, &mut m.deployment.session()).map(|(service_us, _)| service_us)
        })
        .collect();
    let workers = fleet.config().workers;
    let (ram_budget, flash_budget) = (
        fleet.config().device.usable_ram_bytes(),
        fleet.config().device.flash_bytes,
    );
    let footprints: Vec<Option<(usize, usize)>> = models
        .iter()
        .map(|m| m.as_ref().map(|m| (m.ram_bytes, m.flash_bytes)))
        .collect();
    let holders = definition_holders(workers, &footprints, ram_budget, flash_budget);
    let slo_us = (cfg.slo_ms * 1e3).round() as u64;
    let mut devices: Vec<Predicted> = (0..workers)
        .map(|_| Predicted {
            clock_us: 0,
            ledger: ResidencyLedger::new(ram_budget, flash_budget),
            shed: 0,
            completions: Vec::new(),
        })
        .collect();
    let mut lanes = vec![Vec::new(); workers];
    let mut rejected = 0;
    let arrivals = if models.is_empty() {
        rejected = cfg.requests;
        Vec::new()
    } else {
        cfg.profile.stream(cfg.requests, models.len(), cfg.seed)
    };
    for (seq, a) in arrivals.iter().enumerate() {
        let Some(model) = &models[a.model] else {
            rejected += 1;
            continue;
        };
        let service_us = services[a.model].unwrap_or(0);
        let start = |d: usize| devices[d].clock_us.max(a.at_us);
        let d = definition_dispatch(
            rule,
            a.model % workers,
            &holders[a.model],
            start,
            service_us,
        );
        let deadline_us = a.at_us.saturating_add(slo_us);
        lanes[d].push(QueuedRequest {
            deadline_us,
            seq: seq as u64,
            at_us: a.at_us,
            model: a.model,
        });
        let device = &mut devices[d];
        let mut now = device.clock_us.max(a.at_us);
        if now >= deadline_us {
            device.shed += 1;
        } else {
            if let Admit::Staged { .. } =
                device
                    .ledger
                    .request(a.model, model.ram_bytes, model.flash_bytes)
            {
                now += model.staging_us;
            }
            if services[a.model].is_some() {
                now += service_us;
                device.completions.push((now, now - a.at_us));
            }
        }
        device.clock_us = now;
    }
    let mut completions = Vec::new();
    let mut worker_stats = Vec::new();
    for (d, (lane, predicted)) in lanes.iter().zip(devices).enumerate() {
        let (log, stats) = definition_worker(&models, lane, ram_budget, flash_budget);
        let case = format!("{rule:?}, device {d}");
        assert_eq!(log, predicted.completions, "{case}: completions");
        assert_eq!(stats.shed, predicted.shed, "{case}: shed");
        assert_eq!(stats.clock_us, predicted.clock_us, "{case}: clock");
        completions.extend(log);
        worker_stats.push(stats);
    }
    let planning = PlanningStats {
        deploy_ms: 0.0,
        deploy_plan_calls: fleet.planning().deploy_plan_calls,
        serve_plan_calls: 0,
    };
    let stats = definition_aggregate(
        cfg.requests,
        rejected,
        &mut completions,
        &worker_stats,
        &planning,
        0.0,
    );
    (worker_stats, stats)
}

// ---- the online pass against the oracle --------------------------------

fn profiles() -> [ArrivalProfile; 3] {
    [
        ArrivalProfile::Poisson {
            rate_per_sec: 150.0,
        },
        ArrivalProfile::Bursty {
            base_rate_per_sec: 75.0,
            burst_rate_per_sec: 600.0,
            burst_ms: 200.0,
            gap_ms: 800.0,
        },
        ArrivalProfile::Diurnal {
            trough_rate_per_sec: 40.0,
            peak_rate_per_sec: 300.0,
            period_ms: 5_000.0,
        },
    ]
}

/// Runs every profile at every SLO on 1–3 F411RE workers under
/// `planner` and compares each run with the oracle. Across the runs,
/// requests must be shed, models swapped and SLOs missed, so every
/// branch of the pass is compared.
fn assert_matches_definition(planner: PlannerKind) {
    let (mut shed, mut swaps, mut late) = (0, 0, 0);
    for workers in 1..=3 {
        let fleet = Fleet::new(
            FleetConfig::new(Device::stm32_f411re(), workers, planner),
            ModelCatalog::standard(),
        );
        for profile in profiles() {
            for slo_ms in [20.0, 60.0, 250.0] {
                let seed = 2024 + workers as u64;
                let cfg = OnlineConfig::new(profile, 2_500, seed).with_slo_ms(slo_ms);
                let report = fleet.run_online(&cfg);
                let (want_workers, want_stats) =
                    definition_run_online(&fleet, &cfg, Dispatch::OneServiceMargin);
                let case = format!(
                    "{planner:?}, {workers} worker(s), {}, SLO {slo_ms} ms",
                    profile.name()
                );
                assert_eq!(report.workers, want_workers, "{case}: per-worker stats");
                assert_eq!(report.stats.simulated(), want_stats, "{case}: fleet stats");
                shed += want_stats.shed;
                swaps += want_stats.swaps;
                late += want_stats.slo_violations;
            }
        }
    }
    assert!(
        shed > 0 && swaps > 0 && late > 0,
        "{planner:?}: {shed} shed, {swaps} swaps, {late} late"
    );
}

#[test]
fn vmcu_online_runs_match_the_per_staging_session_loop() {
    assert_matches_definition(PlannerKind::Vmcu(IbScheme::RowBuffer));
}

#[test]
fn tinyengine_online_runs_match_the_per_staging_session_loop() {
    assert_matches_definition(PlannerKind::TinyEngine);
}

#[test]
fn patched_online_runs_match_the_per_staging_session_loop() {
    assert_matches_definition(PlannerKind::VmcuPatched(IbScheme::RowBuffer));
}

/// Why the rule keeps a one-service margin. Two F411REs under
/// `VmcuPatched(RowBuffer)` are overloaded at 150 req/s: both hold
/// `hires-front-stage`, whose 112.8 ms requests alone need about 1.9
/// device-seconds per second. Sending every request to the holder that
/// starts it soonest spreads that model over both devices and crowds
/// their other models out; the margin keeps it home while home keeps
/// up, so the fleet completes at least as many requests.
#[test]
fn the_margin_completes_at_least_what_earliest_start_does_under_overload() {
    let fleet = Fleet::new(
        FleetConfig::new(
            Device::stm32_f411re(),
            2,
            PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        ),
        ModelCatalog::standard(),
    );
    let profile = ArrivalProfile::Poisson {
        rate_per_sec: 150.0,
    };
    for slo_ms in [20.0, 60.0, 250.0] {
        let cfg = OnlineConfig::new(profile, 20_000, 2024).with_slo_ms(slo_ms);
        let margin = fleet.run_online(&cfg).stats;
        let (_, earliest) = definition_run_online(&fleet, &cfg, Dispatch::EarliestStart);
        assert!(
            margin.completed >= earliest.completed,
            "SLO {slo_ms} ms: {} completed with the margin, {} by earliest start",
            margin.completed,
            earliest.completed
        );
    }
}

#[test]
fn edf_pops_in_deadline_order() {
    let mut q = EdfQueue::default();
    for (seq, deadline_us) in [500u64, 100, 900, 300, 700].into_iter().enumerate() {
        q.push(QueuedRequest {
            deadline_us,
            seq: seq as u64,
            at_us: 0,
            model: 0,
        });
    }
    let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
        .map(|r| r.deadline_us)
        .collect();
    assert_eq!(popped, [100, 300, 500, 700, 900]);
}

#[test]
fn deadline_ties_break_by_arrival_order() {
    let mut q = EdfQueue::default();
    for seq in [7, 3, 5] {
        q.push(QueuedRequest {
            deadline_us: 100,
            seq,
            at_us: 0,
            model: 0,
        });
    }
    let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|r| r.seq).collect();
    assert_eq!(popped, [3, 5, 7]);
}

// ---- the statistics against their sort-based definitions ---------------

/// Sojourn-like samples with heavy ties: most draws come from eight
/// values, the rest from a wide range.
fn tied_sample() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..8, 0u64..1_000_000).prop_map(
        |(kind, tie, wide)| {
            if kind < 3 {
                tie * 1_000
            } else {
                wide
            }
        },
    )
}

/// A completion log: one unsorted sequence (`runs == 0`) or 1–4
/// concatenated runs, each in strictly increasing completion order like
/// a worker's, whose times overlap and tie across runs.
fn completion_log() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (0usize..=4).prop_flat_map(|runs| {
        let parts = runs.max(1);
        let entry = (1u64..4, 0u64..50, 0u64..30);
        prop::collection::vec(prop::collection::vec(entry, 0..=60), parts..=parts).prop_map(
            move |parts| {
                let mut log = Vec::new();
                for part in parts {
                    let mut at = 0;
                    for (gap, anywhere, sojourn) in part {
                        // Unsorted logs jump around; sorted runs advance.
                        at = if runs == 0 { anywhere } else { at + gap };
                        log.push((at, sojourn * 1_000));
                    }
                }
                log
            },
        )
    })
}

fn worker_stats() -> impl Strategy<Value = OnlineWorkerStats> {
    (
        (0usize..500, 0usize..500, 0usize..100, 0usize..100),
        (0u64..50, 0u64..50, 0u64..80),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..2_000_000),
        (0u32..1_000_000, 0u64..3),
    )
        .prop_map(
            |(
                (served, shed, slo_violations, failed),
                (stagings, swaps, evictions),
                (busy_us, staging_us, clock_us),
                (energy, plan_calls),
            )| OnlineWorkerStats {
                routed: served + shed + failed,
                served,
                shed,
                slo_violations,
                failed,
                stagings,
                swaps,
                evictions,
                busy_us,
                staging_us,
                clock_us,
                energy_mj: f64::from(energy) / 1e3,
                plan_calls,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Nearest-rank selection against sort-then-index, at the fixed
    /// quantiles the stats report and one random quantile per case.
    #[test]
    fn percentile_us_matches_sort_then_index(
        samples in prop::collection::vec(tied_sample(), 0..=300),
        q_ppm in 0u32..=1_000_000,
    ) {
        let before = samples.clone();
        for q in [0.0, 0.5, 0.99, 1.0, f64::from(q_ppm) / 1e6] {
            let (got, want) = (percentile_us(&samples, q), definition_percentile_us(&samples, q));
            prop_assert!(got.to_bits() == want.to_bits(), "q = {q}: {got} vs {want}");
        }
        prop_assert_eq!(samples, before);
    }

    /// Aggregation against the sort-everything definition: every field,
    /// and the log left sorted the same way.
    #[test]
    fn aggregate_matches_the_sort_based_definition(
        log in completion_log(),
        workers in prop::collection::vec(worker_stats(), 0..=4),
        counts in (0usize..5_000).prop_flat_map(|offered| (Just(offered), 0..=offered)),
        host in (0u32..5_000, 0u64..100, 0u64..4),
    ) {
        let (offered, rejected) = counts;
        let (host_ms, deploy_plan_calls, serve_plan_calls) = host;
        let planning = PlanningStats {
            deploy_ms: 1.5,
            deploy_plan_calls,
            serve_plan_calls,
        };
        let host_wall_ms = f64::from(host_ms) / 10.0;
        let (mut got_log, mut want_log) = (log.clone(), log);
        let got = OnlineStats::aggregate(
            offered, rejected, &mut got_log, &workers, &planning, host_wall_ms,
        );
        let want = definition_aggregate(
            offered, rejected, &mut want_log, &workers, &planning, host_wall_ms,
        );
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_log, want_log);
    }
}

/// The generators reach the cases the properties are about: unsorted
/// logs, tied completion times, odd lengths (where the halves split
/// unevenly) and heavily tied samples.
#[test]
fn the_generators_cover_ties_and_uneven_halves() {
    let mut rng = proptest::TestRng::from_name("serve_props::coverage");
    let (mut unsorted, mut tied, mut odd) = (0, 0, 0);
    for _ in 0..200 {
        let log = completion_log().generate(&mut rng);
        unsorted += usize::from(log.windows(2).any(|w| w[0] > w[1]));
        let mut times: Vec<u64> = log.iter().map(|&(c, _)| c).collect();
        times.sort_unstable();
        times.dedup();
        tied += usize::from(times.len() < log.len());
        odd += log.len() % 2;
    }
    assert!(
        unsorted > 20 && tied > 20 && odd > 20,
        "{unsorted} {tied} {odd}"
    );
    let sample = prop::collection::vec(tied_sample(), 100..=100).generate(&mut rng);
    let mut distinct = sample.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() < 60, "{} distinct of 100", distinct.len());
}

// ---- routing: resident sets placed from footprints and budgets ----------

/// One routing case: device budgets, per-model `(ram, flash)`
/// footprints (`None` for a model that never deployed) and service
/// times, and an arrival sequence of `(gap_us, model)` pairs, one past
/// the catalog included.
#[derive(Debug, Clone)]
struct RoutingCase {
    workers: usize,
    ram_budget: usize,
    flash_budget: usize,
    footprints: Vec<Option<(usize, usize)>>,
    services: Vec<u64>,
    requests: Vec<(u64, usize)>,
}

/// 1–4 devices, 1–9 models of which about one in five never deployed,
/// footprints up to a per-case fraction of each budget (so home sets
/// both fit and overflow), and streams of up to 800 arrivals, two in
/// three to one hot model, arriving faster than they are served so
/// devices queue and the router spills.
fn routing_case() -> impl Strategy<Value = RoutingCase> {
    (
        1usize..=4,
        1usize..=4_000,
        1usize..=4_000,
        1usize..=9,
        1usize..=4,
    )
        .prop_flat_map(|(workers, ram_budget, flash_budget, models, spread)| {
            let footprint = (0u8..5, 0..=ram_budget / spread, 0..=flash_budget / spread)
                .prop_map(|(kind, ram, flash)| (kind > 0).then_some((ram, flash)));
            (
                prop::collection::vec(footprint, models..=models),
                prop::collection::vec(1u64..=100, models..=models),
                0..models,
                prop::collection::vec((0u8..3, 0..=models, 0u64..=40), 0..=800),
            )
                .prop_map(move |(footprints, services, hot, draws)| RoutingCase {
                    workers,
                    ram_budget,
                    flash_budget,
                    footprints,
                    services,
                    requests: draws
                        .into_iter()
                        .map(|(pick, m, gap)| (gap, if pick == 0 { m } else { hot }))
                        .collect(),
                })
        })
}

/// What routing one case did: the lanes, whether every device's home
/// set fits it, and how many requests left their home device.
struct Routed {
    lanes: Vec<Vec<usize>>,
    every_home_fits: bool,
    spilled: usize,
}

/// Checks the placement against its definition — every deployed model's
/// holders include its home, and a device whose home set fits holds a
/// set that fits — then dispatches the stream against device clocks
/// that advance by each request's service time, checking each request
/// lands on a device that holds its model.
fn route_case(case: &RoutingCase) -> Result<Routed, TestCaseError> {
    let RoutingCase {
        workers,
        ram_budget,
        flash_budget,
        ref footprints,
        ref services,
        ref requests,
    } = *case;
    let router = Router::new(workers, footprints, ram_budget, flash_budget);
    let holders = definition_holders(workers, footprints, ram_budget, flash_budget);
    for (m, f) in footprints.iter().enumerate() {
        prop_assert!(
            router.holders(m) == holders[m],
            "model {m}: {:?} placed on {:?}, by definition on {:?}",
            f,
            router.holders(m),
            holders[m]
        );
        prop_assert!(
            holders[m].contains(&(m % workers)) == f.is_some(),
            "model {m} {f:?}: holders {:?}",
            holders[m]
        );
    }
    let fits = |(ram, flash): (usize, usize)| ram <= ram_budget && flash <= flash_budget;
    let mut every_home_fits = true;
    for device in 0..workers {
        let sum = |held: &dyn Fn(usize) -> bool| {
            (footprints.iter().enumerate())
                .filter_map(|(m, f)| f.filter(|_| held(m)))
                .fold((0, 0), |(r, f), (ram, flash)| (r + ram, f + flash))
        };
        let home_fits = fits(sum(&|m| m % workers == device));
        every_home_fits &= home_fits;
        let placed = sum(&|m| holders[m].contains(&device));
        prop_assert!(
            !home_fits || fits(placed),
            "device {device}: home set fits but the placed set {placed:?} does not"
        );
    }
    let mut clocks = vec![0u64; workers];
    let mut lanes = vec![Vec::new(); workers];
    let (mut at_us, mut spilled) = (0, 0);
    for &(gap, m) in requests {
        at_us += gap;
        let deployed = footprints.get(m).is_some_and(Option::is_some);
        let service_us = services.get(m).copied().unwrap_or(1);
        match router.dispatch(m, at_us, service_us, &clocks) {
            Some(device) => {
                prop_assert!(deployed, "model {m} never deployed but was routed");
                prop_assert!(
                    holders[m].contains(&device),
                    "model {m} routed to device {device}, outside {:?}",
                    holders[m]
                );
                spilled += usize::from(device != m % workers);
                clocks[device] = clocks[device].max(at_us) + service_us;
                lanes[device].push(m);
            }
            None => prop_assert!(!deployed, "deployed model {m} was not routed"),
        }
    }
    Ok(Routed {
        lanes,
        every_home_fits,
        spilled,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every deployed model's holders include its home; a device whose
    /// home set fits holds a set that fits; requests only reach devices
    /// that hold their model; and when every home set fits, replaying
    /// each lane through a residency ledger evicts nothing.
    #[test]
    fn routing_stays_inside_resident_sets_that_fit(case in routing_case()) {
        let routed = route_case(&case)?;
        if routed.every_home_fits {
            for (device, lane) in routed.lanes.iter().enumerate() {
                let mut ledger = ResidencyLedger::new(case.ram_budget, case.flash_budget);
                for &m in lane {
                    let (ram, flash) = case.footprints[m].expect("routed models are deployed");
                    let admit = ledger.request(m, ram, flash);
                    prop_assert!(
                        matches!(admit, Admit::Hit | Admit::Staged { .. }),
                        "device {device}, model {m}: {admit:?}"
                    );
                }
                prop_assert_eq!(ledger.evictions(), 0);
            }
        }
    }
}

/// The routing generator reaches the cases the property is about: home
/// sets that fit and home sets that overflow, and streams that spill
/// off their home device.
#[test]
fn the_routing_generator_covers_fits_overflows_and_spills() {
    let mut rng = proptest::TestRng::from_name("serve_props::routing_coverage");
    let (mut fit, mut overflow, mut spill) = (0, 0, 0);
    for _ in 0..200 {
        let routed = route_case(&routing_case().generate(&mut rng)).expect("property holds");
        if routed.every_home_fits {
            fit += 1;
            spill += usize::from(routed.spilled > 0);
        } else {
            overflow += 1;
        }
    }
    assert!(
        fit > 50 && overflow > 25 && spill > 25,
        "{fit} fit, {overflow} overflow, {spill} spill"
    );
}

// ---- dispatch: the rule against its definition --------------------------

/// One dispatch decision: a placement of 1–6 models on 1–4 devices, the
/// request's model (one past the catalog included), its arrival and
/// service time, and the device clocks, all drawn from coarse grids so
/// that equal starts and starts exactly one service apart are common.
#[derive(Debug, Clone)]
struct DispatchCase {
    workers: usize,
    footprints: Vec<Option<(usize, usize)>>,
    model: usize,
    at_us: u64,
    service_us: u64,
    clocks: Vec<u64>,
}

/// The RAM budget of a dispatch case; each model takes up to two fifths
/// of it, so models are held by one device, several, or all.
const DISPATCH_RAM: usize = 100;

fn dispatch_case() -> impl Strategy<Value = DispatchCase> {
    (1usize..=4, 1usize..=6).prop_flat_map(|(workers, models)| {
        let footprint = (0u8..6, 0..=DISPATCH_RAM * 2 / 5)
            .prop_map(|(kind, ram)| (kind > 0).then_some((ram, 1)));
        (
            prop::collection::vec(footprint, models..=models),
            0..=models,
            0u64..=4,
            (0u64..=5).prop_map(|s| s * 10),
            prop::collection::vec(0u64..=8, workers..=workers),
        )
            .prop_map(
                move |(footprints, model, at, service_us, clocks)| DispatchCase {
                    workers,
                    footprints,
                    model,
                    at_us: at * 10,
                    service_us,
                    clocks: clocks.into_iter().map(|c| c * 10).collect(),
                },
            )
    })
}

/// Dispatches one case through the library and checks it against
/// `definition_dispatch`. Returns the holders and the chosen device
/// (`None` when no device holds the model).
fn dispatch_one(case: &DispatchCase) -> Result<(Vec<usize>, Option<usize>), TestCaseError> {
    let DispatchCase {
        workers,
        ref footprints,
        model,
        at_us,
        service_us,
        ref clocks,
    } = *case;
    let router = Router::new(workers, footprints, DISPATCH_RAM, usize::MAX);
    let holders = definition_holders(workers, footprints, DISPATCH_RAM, usize::MAX)
        .get(model)
        .cloned()
        .unwrap_or_default();
    let got = router.dispatch(model, at_us, service_us, clocks);
    if holders.is_empty() {
        prop_assert_eq!(got, None);
    } else {
        let start = |d: usize| clocks[d].max(at_us);
        let want = definition_dispatch(
            Dispatch::OneServiceMargin,
            model % workers,
            &holders,
            start,
            service_us,
        );
        prop_assert!(
            got == Some(want),
            "holders {holders:?}: {got:?}, want {want}"
        );
    }
    Ok((holders, got))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The result is the home device unless some holder starts the
    /// request more than one service time sooner; otherwise the holder
    /// that starts it soonest, lowest index on ties; never a device
    /// outside the holders, and none for a model no device holds.
    #[test]
    fn dispatch_goes_home_unless_a_holder_starts_a_service_sooner(case in dispatch_case()) {
        dispatch_one(&case)?;
    }
}

/// The dispatch generator reaches the cases the rule distinguishes:
/// requests that stay home though another holder starts sooner (within
/// the margin, the margin met exactly among them), requests that leave
/// home, ties for the earliest start among other holders, and models no
/// device holds.
#[test]
fn the_dispatch_generator_covers_margins_ties_and_strays() {
    let mut rng = proptest::TestRng::from_name("serve_props::dispatch_coverage");
    let (mut held_home, mut exact, mut spilled, mut tied, mut unheld) = (0, 0, 0, 0, 0);
    for _ in 0..2_000 {
        let case = dispatch_case().generate(&mut rng);
        let (holders, got) = dispatch_one(&case).expect("property holds");
        let Some(device) = got else {
            unheld += 1;
            continue;
        };
        let start = |d: usize| case.clocks[d].max(case.at_us);
        let home = case.model % case.workers;
        let soonest = holders.iter().map(|&d| start(d)).min().expect("held");
        if device == home && start(home) > soonest {
            held_home += 1;
            exact += usize::from(start(home) - soonest == case.service_us);
        }
        if device != home {
            spilled += 1;
            let earliest = holders.iter().filter(|&&d| start(d) == soonest).count();
            tied += usize::from(earliest > 1);
        }
    }
    assert!(
        held_home > 50 && exact > 20 && spilled > 100 && tied > 20 && unheld > 50,
        "{held_home} held home ({exact} exactly one service), {spilled} spilled \
         ({tied} tied), {unheld} unheld"
    );
}
