//! Criterion micro-benchmarks for kernel simulation throughput: how fast
//! the simulator executes the segment-aware kernels versus the TinyEngine
//! baselines, and how fast the reference oracle checks them (host-side
//! speed of the reproduction, not MCU speed).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec::run_reference, zoo};
use vmcu::vmcu_tensor::random;

fn bench_pointwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("pointwise-sim");
    g.sample_size(10);
    let case = &zoo::fig7_cases()[6]; // H/W24,C16,K32 — mid-size
    let layer = LayerDesc::Pointwise(case.params);
    let w = LayerWeights::random(&layer, 1);
    let input = random::tensor_i8(&layer.in_shape(), 2);
    let dev = Device::stm32_f767zi();
    g.bench_function("vmcu", |b| {
        let engine = Engine::new(dev.clone());
        b.iter(|| {
            engine
                .run_layer(&case.name, black_box(&layer), &w, &input)
                .unwrap()
        });
    });
    g.bench_function("tinyengine", |b| {
        let engine = Engine::new(dev.clone()).planner(PlannerKind::TinyEngine);
        b.iter(|| {
            engine
                .run_layer(&case.name, black_box(&layer), &w, &input)
                .unwrap()
        });
    });
    g.finish();
}

fn bench_fused_ib(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused-ib-sim");
    g.sample_size(10);
    let m = &zoo::mcunet_5fps_vww()[4]; // S5: 5x5, 40->240->40
    let layer = LayerDesc::Ib(m.params);
    let w = LayerWeights::random(&layer, 3);
    let input = random::tensor_i8(&layer.in_shape(), 4);
    let dev = Device::stm32_f411re();
    for (name, kind) in [
        ("RowBuffer", PlannerKind::Vmcu(IbScheme::RowBuffer)),
        ("PixelWindow", PlannerKind::Vmcu(IbScheme::PixelWindow)),
        ("TinyEngine", PlannerKind::TinyEngine),
    ] {
        g.bench_function(name, |b| {
            let engine = Engine::new(dev.clone()).planner(kind);
            b.iter(|| {
                engine
                    .run_layer(m.name, black_box(&layer), &w, &input)
                    .unwrap()
            });
        });
    }
    g.finish();
}

/// The correctness oracle every `Session::infer` output is compared with:
/// the two heaviest `run_reference` calls of the repository benchmark's
/// inference mix.
fn bench_reference_oracle(c: &mut Criterion) {
    let mut g = c.benchmark_group("reference-oracle");
    g.sample_size(10);
    let b4 = &zoo::mcunet_320kb_imagenet()[3];
    let models = [
        zoo::hires_split_only(),
        Graph::linear(b4.name, vec![LayerDesc::Ib(b4.params)]).unwrap(),
    ];
    for graph in models {
        let weights = graph.random_weights(5);
        let input = random::tensor_i8(&graph.in_shape(), 6);
        g.bench_function(&graph.name, |b| {
            b.iter(|| run_reference(black_box(&graph), &weights, &input));
        });
    }
    g.finish();
}

/// The requantization epilogue every kernel and the oracle end with:
/// `Requant::apply_row` next to the per-element `apply_clamped` loop it
/// must equal, on rows of 16, 48 and 144 accumulators at the benchmark
/// models' scale 1/64 with a ReLU clamp. One iteration requantizes a
/// pool of 36,864 non-repeating accumulators row by row, so the branch
/// predictor cannot learn their sign pattern; about half are negative
/// and some saturate.
fn bench_requant_row(c: &mut Criterion) {
    let mut g = c.benchmark_group("requant-row");
    g.sample_size(20);
    let rq = Requant::from_scale(1.0 / 64.0, 0);
    let relu = (0, 127);
    let pool: Vec<i32> = random::bias_i32(144 * 256, 8)
        .into_iter()
        .map(|v| v * 16)
        .collect();
    let mut out = vec![0i8; pool.len()];
    for len in [16, 48, 144] {
        g.bench_function(format!("row/{len}"), |b| {
            b.iter(|| {
                let rq = black_box(rq);
                for (acc, o) in black_box(&pool)
                    .chunks_exact(len)
                    .zip(out.chunks_exact_mut(len))
                {
                    rq.apply_row(acc, relu, o, |v| v);
                }
            });
        });
        g.bench_function(format!("apply_clamped/{len}"), |b| {
            b.iter(|| {
                let rq = black_box(rq);
                for (acc, o) in black_box(&pool)
                    .chunks_exact(len)
                    .zip(out.chunks_exact_mut(len))
                {
                    for (v, &a) in o.iter_mut().zip(acc) {
                        *v = rq.apply_clamped(a, relu);
                    }
                }
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_pointwise,
    bench_fused_ib,
    bench_reference_oracle,
    bench_requant_row
);
criterion_main!(benches);
