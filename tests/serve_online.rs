//! Online-serving integration suite: the sustained simulator must be
//! seeded-deterministic per arrival profile, conserve every offered
//! request, shed under pressure exactly when the SLO says so, and price
//! each model hot-swap with the deployment's simulated Flash-staging
//! time. See `docs/SERVING.md` for the operational semantics under test.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_tensor::random;
use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig};

fn fleet_128kb(workers: usize) -> Fleet {
    Fleet::new(
        FleetConfig::new(
            Device::stm32_f411re(),
            workers,
            PlannerKind::Vmcu(IbScheme::RowBuffer),
        ),
        ModelCatalog::standard(),
    )
}

fn profiles() -> [ArrivalProfile; 3] {
    [
        ArrivalProfile::Poisson {
            rate_per_sec: 120.0,
        },
        ArrivalProfile::Bursty {
            base_rate_per_sec: 60.0,
            burst_rate_per_sec: 480.0,
            burst_ms: 200.0,
            gap_ms: 800.0,
        },
        ArrivalProfile::Diurnal {
            trough_rate_per_sec: 30.0,
            peak_rate_per_sec: 240.0,
            period_ms: 5_000.0,
        },
    ]
}

#[test]
fn online_runs_are_bit_reproducible_for_every_arrival_profile() {
    // The contract the CI bench gate stands on: same seed, same config
    // => bit-identical simulated stats (host wall-clock excluded via
    // `simulated()`), per worker and in aggregate, for every profile.
    let fleet = fleet_128kb(3);
    for profile in profiles() {
        let cfg = OnlineConfig::new(profile, 3_000, 2024);
        let a = fleet.run_online(&cfg);
        let b = fleet.run_online(&cfg);
        assert_eq!(
            a.stats.simulated(),
            b.stats.simulated(),
            "{} aggregate must be bit-identical across runs",
            profile.name()
        );
        assert_eq!(
            a.workers,
            b.workers,
            "{} per-worker stats must be bit-identical across runs",
            profile.name()
        );
    }
}

#[test]
fn distinct_seeds_produce_distinct_streams() {
    let fleet = fleet_128kb(2);
    let profile = ArrivalProfile::Poisson {
        rate_per_sec: 120.0,
    };
    let a = fleet.run_online(&OnlineConfig::new(profile, 2_000, 1));
    let b = fleet.run_online(&OnlineConfig::new(profile, 2_000, 2));
    assert_ne!(
        a.stats.simulated(),
        b.stats.simulated(),
        "different seeds must not replay the same stream"
    );
}

#[test]
fn sustained_run_conserves_every_offered_request() {
    // Accounting identities the handbook documents: every arrival is
    // rejected at routing or routed; every routed request is completed,
    // shed, or failed. Percentiles must be ordered and shed_rate a rate.
    let fleet = fleet_128kb(4);
    for profile in profiles() {
        let name = profile.name();
        let cfg = OnlineConfig::new(profile, 10_000, 7);
        let report = fleet.run_online(&cfg);
        let s = &report.stats;
        assert_eq!(s.offered, cfg.requests, "{name}: offered == stream length");
        assert_eq!(
            s.offered,
            s.routed + s.rejected,
            "{name}: routing splits offered"
        );
        assert_eq!(
            s.routed,
            s.completed + s.shed + s.failed,
            "{name}: every routed request ends exactly one way"
        );
        assert_eq!(s.failed, 0, "{name}: no typed engine errors");
        assert!(s.completed > 0, "{name}: sustained run must serve work");
        assert!(
            s.p50_sojourn_ms <= s.p99_sojourn_ms,
            "{name}: percentiles ordered"
        );
        assert!(
            (0.0..=1.0).contains(&s.shed_rate),
            "{name}: shed_rate is a rate"
        );
        assert_eq!(
            s.serve_plan_calls, 0,
            "{name}: online serving never replans"
        );
        let worker_routed: usize = report.workers.iter().map(|w| w.routed).sum();
        assert_eq!(s.routed, worker_routed);
    }
}

#[test]
fn tight_slo_sheds_what_a_generous_slo_serves() {
    // Deadline shedding is driven by the SLO alone: the same stream
    // under a 20 ms deadline must shed strictly more (and complete
    // strictly less) than under a 2-second deadline.
    let fleet = fleet_128kb(2);
    let profile = ArrivalProfile::Poisson {
        rate_per_sec: 200.0,
    };
    let tight = fleet.run_online(&OnlineConfig::new(profile, 5_000, 11).with_slo_ms(20.0));
    let generous = fleet.run_online(&OnlineConfig::new(profile, 5_000, 11).with_slo_ms(2_000.0));
    assert!(
        tight.stats.shed > generous.stats.shed,
        "20 ms SLO shed {} must exceed 2 s SLO shed {}",
        tight.stats.shed,
        generous.stats.shed
    );
    assert!(tight.stats.completed < generous.stats.completed);
    assert_eq!(tight.stats.offered, generous.stats.offered);
}

#[test]
fn hot_swaps_are_priced_with_flash_staging_time() {
    // One worker, the whole catalog: the models cannot all stay
    // resident, so serving a long mixed stream forces evict-and-restage
    // cycles. Every staging must be charged simulated Flash-programming
    // time, bounded by the catalog's own per-deployment prices.
    let fleet = fleet_128kb(1);
    let cfg = OnlineConfig::new(
        ArrivalProfile::Poisson {
            rate_per_sec: 100.0,
        },
        20_000,
        2024,
    );
    let report = fleet.run_online(&cfg);
    let s = &report.stats;
    assert!(
        s.swaps >= 1,
        "a single 128 KB device serving the whole catalog must swap (got {})",
        s.swaps
    );
    assert!(s.stagings > s.swaps, "first-time stagings are not swaps");
    assert!(
        s.evictions >= s.swaps,
        "each swap evicted at least one model"
    );
    assert!(s.swap_ms > 0.0, "staging time must be priced");
    // The aggregate price is exactly the per-worker staging clock...
    let staging_us: u64 = report.workers.iter().map(|w| w.staging_us).sum();
    assert_eq!(s.swap_ms, staging_us as f64 / 1e3);
    // ...and consistent with the deployments' own posted prices: every
    // staging charged between the cheapest and priciest catalog image.
    let prices: Vec<u64> = fleet
        .catalog()
        .models()
        .iter()
        .filter_map(|m| fleet.deployment(m.name))
        .map(|d| (d.staging_ms() * 1e3).round() as u64)
        .collect();
    let (min, max) = (*prices.iter().min().unwrap(), *prices.iter().max().unwrap());
    assert!(min > 0, "Flash programming is never free");
    assert!(staging_us >= s.stagings * min && staging_us <= s.stagings * max);
}

#[test]
fn two_devices_keep_every_model_they_serve_resident() {
    // The repository benchmark's fleet: each F411RE's home set fits it,
    // and the router sends a request only to a device whose resident
    // set holds its model, so no staging ever evicts. One device serving
    // the whole catalog still swaps (above).
    let fleet = fleet_128kb(2);
    let cfg = OnlineConfig::new(
        ArrivalProfile::Poisson {
            rate_per_sec: 150.0,
        },
        20_000,
        2024,
    );
    let report = fleet.run_online(&cfg);
    let s = &report.stats;
    assert_eq!((s.swaps, s.evictions), (0, 0));
    let deployed = fleet
        .catalog()
        .models()
        .iter()
        .filter(|m| fleet.deployment(m.name).is_some())
        .count() as u64;
    assert!(
        s.stagings >= deployed && s.stagings <= 2 * deployed,
        "each deployed model staged once on each device that serves it: {}",
        s.stagings
    );
    assert!(
        report.workers.iter().all(|w| w.served > 0),
        "both devices serve"
    );
}

#[test]
fn simulated_inference_latency_is_input_independent() {
    // The load-bearing fact behind the worker's one-probe-per-model
    // service calibration: the simulated cost model prices a layer from
    // shapes and plans, never from activation values, so two inferences
    // with different inputs report identical latency and energy.
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(0xDEB);
    let engine =
        Engine::new(Device::stm32_f411re()).planner(PlannerKind::Vmcu(IbScheme::RowBuffer));
    let mut session = engine.deploy(&g, &weights).expect("fits").session();
    let a = session
        .infer(&random::tensor_i8(&g.in_shape(), 1))
        .expect("infer");
    let b = session
        .infer(&random::tensor_i8(&g.in_shape(), 0xFFFF_FFFF))
        .expect("infer");
    assert_ne!(
        random::tensor_i8(&g.in_shape(), 1),
        random::tensor_i8(&g.in_shape(), 0xFFFF_FFFF),
        "the two inputs really differ"
    );
    assert_eq!(a.latency_ms(), b.latency_ms());
    assert_eq!(a.energy_mj(), b.energy_mj());
}
