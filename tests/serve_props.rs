//! The online event loop against the per-staging session loop it
//! replaced.
//!
//! `Fleet::run_online` treats a staging as what it models: a residency
//! ledger entry plus the deployment's simulated staging time. The only
//! `Session` a device builds is the one that calibrates a model on its
//! first service. `OnlineStats::aggregate` merges the workers'
//! completion-ordered logs instead of re-sorting them, and
//! `percentile_us` selects its nearest rank instead of sorting a copy.
//! The loop they replaced is kept here as `definition_run_online`, built
//! only from the crate's public parts: the seeded arrival stream, the
//! `Router`, one `EdfQueue` and `ResidencyLedger` per device, a
//! `Deployment::session()` opened on every staging and calibrated on,
//! and the sort-based aggregation. Every per-worker record and the whole
//! simulated `OnlineStats` must match it bit for bit across arrival
//! profiles, policies, fleet sizes and SLOs. This file is the gate for
//! any edit to the online loop or to `OnlineStats`.

use proptest::prelude::*;
use std::collections::HashMap;
use vmcu::prelude::*;
use vmcu::vmcu_plan::telemetry;
use vmcu::vmcu_tensor::random;
use vmcu_serve::{
    percentile_us, Admit, ArrivalProfile, EdfQueue, Fleet, FleetConfig, ModelCatalog, OnlineConfig,
    OnlineStats, OnlineWorkerStats, PlanningStats, QueuedRequest, ResidencyLedger, Router,
};

// ---- oracles: the per-staging session loop and sort-based statistics ----

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

/// One deployed catalog model as a device sees it.
struct Served<'a> {
    name: &'static str,
    deployment: &'a Deployment,
    ram_bytes: usize,
    flash_bytes: usize,
    staging_us: u64,
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
    let mut queue = EdfQueue::new();
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
            let input = random::tensor_i8(
                &model.deployment.graph().in_shape(),
                model_weight_seed(model.name) ^ 0xCA11_B7A7,
            );
            sessions
                .get_mut(&job.model)
                .expect("a resident model has a session")
                .infer(&input)
                .ok()
                .map(|r| {
                    (
                        ((r.latency_ms() * 1e3).round() as u64).max(1),
                        r.energy_mj(),
                    )
                })
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

/// The whole online run, one device after another: route the seeded
/// stream, drain each lane, aggregate. Host-time fields come out zero.
fn definition_run_online(
    fleet: &Fleet,
    cfg: &OnlineConfig,
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
    let workers = fleet.config().workers;
    let slo_us = (cfg.slo_ms * 1e3).round() as u64;
    let mut router = Router::new(workers, cfg.requests);
    let mut lanes = vec![Vec::new(); workers];
    let mut rejected = 0;
    let arrivals = cfg.profile.stream(cfg.requests, models.len(), cfg.seed);
    for (seq, a) in arrivals.iter().enumerate() {
        if models[a.model].is_none() {
            rejected += 1;
            continue;
        }
        lanes[router.route(a.model)].push(QueuedRequest {
            deadline_us: a.at_us + slo_us,
            seq: seq as u64,
            at_us: a.at_us,
            model: a.model,
        });
    }
    let device = &fleet.config().device;
    let mut completions = Vec::new();
    let mut worker_stats = Vec::new();
    for lane in &lanes {
        let (log, stats) =
            definition_worker(&models, lane, device.usable_ram_bytes(), device.flash_bytes);
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

// ---- the event loop against the oracle ----------------------------------

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
/// branch of the loop is compared.
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
                let (want_workers, want_stats) = definition_run_online(&fleet, &cfg);
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
