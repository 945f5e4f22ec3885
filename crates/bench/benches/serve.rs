//! Criterion micro-benchmarks for the online serving event loop: the
//! host time of one seeded stream through `Fleet::run_online`. A
//! staging is ledger bookkeeping plus a simulated charge, so a policy
//! that hot-swaps thousands of times should cost about as much host time
//! as one that never swaps.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vmcu::prelude::*;
use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig};

/// 100k Poisson requests at 150 req/s on four 128 KB F411RE workers:
/// `Vmcu(RowBuffer)` hot-swaps ~2.7k times, while the patched prices keep
/// every model `VmcuPatched(RowBuffer)` deploys co-resident, so it never
/// swaps. (On two workers both policies swap.)
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
    for (name, planner) in [
        ("vmcu-rowbuffer", PlannerKind::Vmcu(IbScheme::RowBuffer)),
        (
            "vmcu-patched-rowbuffer",
            PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        ),
    ] {
        let fleet = Fleet::new(
            FleetConfig::new(Device::stm32_f411re(), 4, planner),
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
