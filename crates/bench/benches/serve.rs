//! Criterion micro-benchmarks for the online serving event loop: the
//! host time of one seeded stream through `Fleet::run_online`. A
//! staging is ledger bookkeeping plus a simulated charge, so a policy
//! that hot-swaps thousands of times should cost about as much host time
//! as one that never swaps.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vmcu::prelude::*;
use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig};

/// 100k Poisson requests at 150 req/s on 128 KB F411RE workers. On four
/// workers neither `Vmcu(RowBuffer)` nor `VmcuPatched(RowBuffer)` swaps:
/// each worker keeps the resident set the router placed on it. One
/// worker cannot hold the catalog, so `Vmcu(RowBuffer)` there hot-swaps
/// ~5.6k times.
fn bench_online(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve-online");
    g.sample_size(10);
    let cfg = OnlineConfig::new(
        ArrivalProfile::Poisson {
            rate_per_sec: 150.0,
        },
        100_000,
        2024,
    );
    for (name, workers, planner) in [
        ("vmcu-rowbuffer", 4, PlannerKind::Vmcu(IbScheme::RowBuffer)),
        (
            "vmcu-patched-rowbuffer",
            4,
            PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        ),
        (
            "vmcu-rowbuffer-1worker",
            1,
            PlannerKind::Vmcu(IbScheme::RowBuffer),
        ),
    ] {
        let fleet = Fleet::new(
            FleetConfig::new(Device::stm32_f411re(), workers, planner),
            ModelCatalog::standard(),
        );
        g.bench_function(format!("run_online/poisson-100k/{name}"), |b| {
            b.iter(|| fleet.run_online(black_box(&cfg)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
