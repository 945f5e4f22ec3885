//! Criterion micro-benchmarks for kernel simulation throughput: how fast
//! the simulator executes the segment-aware kernels versus the TinyEngine
//! baselines, how fast the reference oracle checks them, and the host-side
//! hot loops beneath them: the `Dot` core every host MAC runs through
//! (timed via `dot_tile_u8`, four rows deep over weights widened to `i16`
//! once, outside the timed loop, as the kernels widen each Flash image
//! once per call) and the fused-chain row schedule. All of it is host-side
//! speed of the reproduction, not MCU speed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec::run_reference, zoo};
use vmcu::vmcu_kernels::fused_chain::{
    chain_exec_distance, chain_workspace_bytes, run_fused_chain, FusedChain,
};
use vmcu::vmcu_kernels::intrinsics::{dot_tile_u8, widen};
use vmcu::vmcu_kernels::trace::pool_window;
use vmcu::vmcu_kernels::{ChainOp, PointwiseParams};
use vmcu::vmcu_pool::SegmentPool;
use vmcu::vmcu_sim::Machine;
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

/// The depthwise layer of `wide-expand-chain` (40×40×96, 3×3, stride 1),
/// the widest depthwise of the repository benchmark's inference mix, and
/// the first depthwise of `hires-front-stage` (96×96×16, 3×3, stride 2),
/// a narrow one, whose 16 channels make per-tap overhead count most,
/// under the vMCU segment kernel and the TinyEngine in-place kernel.
fn bench_depthwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("depthwise-sim");
    g.sample_size(10);
    let dev = Device::stm32_f767zi();
    for (model, label, layer) in [
        ("", "dw40", zoo::wide_expand_chain().layers()[1].clone()),
        (
            "hires-dw1/",
            "dw96",
            zoo::hires_front_stage().layers()[0].clone(),
        ),
    ] {
        let w = LayerWeights::random(&layer, 7);
        let input = random::tensor_i8(&layer.in_shape(), 8);
        for (name, kind) in [
            ("vmcu", PlannerKind::Vmcu(IbScheme::RowBuffer)),
            ("tinyengine", PlannerKind::TinyEngine),
        ] {
            g.bench_function(format!("{model}{name}"), |b| {
                let engine = Engine::new(dev.clone()).planner(kind);
                b.iter(|| {
                    engine
                        .run_layer(label, black_box(&layer), &w, &input)
                        .unwrap()
                });
            });
        }
    }
    g.finish();
}

/// One `Session::infer` of `wide-expand-chain` under `VmcuPatched` on
/// the F411RE: the slowest inference but one of the repository
/// benchmark's mix, so the one that sets its `infer_ms_p99`, a patched
/// front of pointwise, depthwise and pointwise slabs.
fn bench_patched_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("infer");
    g.sample_size(10);
    let graph = zoo::wide_expand_chain();
    let weights = graph.random_weights(9);
    let input = random::tensor_i8(&graph.in_shape(), 10);
    let mut session = Engine::new(Device::stm32_f411re())
        .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
        .deploy(&graph, &weights)
        .unwrap()
        .session();
    g.bench_function("wide-expand-chain/VmcuPatched", |b| {
        b.iter(|| session.infer(black_box(&input)).unwrap());
    });
    // ImageNet B4 on the F767ZI: the next slowest calls of the
    // repository benchmark's mix, most of their MACs in 7×7 depthwise
    // taps.
    let b4 = &zoo::mcunet_320kb_imagenet()[3];
    let graph = Graph::linear(b4.name, vec![LayerDesc::Ib(b4.params)]).unwrap();
    let weights = graph.random_weights(11);
    let input = random::tensor_i8(&graph.in_shape(), 12);
    for (name, kind) in [
        ("Vmcu(RowBuffer)", PlannerKind::Vmcu(IbScheme::RowBuffer)),
        ("TinyEngine", PlannerKind::TinyEngine),
    ] {
        let mut session = Engine::new(Device::stm32_f767zi())
            .planner(kind)
            .deploy(&graph, &weights)
            .unwrap()
            .session();
        g.bench_function(format!("B4/{name}"), |b| {
            b.iter(|| session.infer(black_box(&input)).unwrap());
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

fn bench_dot_tile(c: &mut Criterion) {
    let mut g = c.benchmark_group("dot-tile-host");
    g.sample_size(10);
    let a: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    let b_mat: Vec<u8> = (0..64 * 16u32).map(|i| (i * 91 + 5) as u8).collect();
    let b_mat = widen(&b_mat);
    let dev = Device::stm32_f767zi();
    g.bench_function("ki64-ni16-x256", |bch| {
        let mut m = Machine::new(dev.clone());
        bch.iter(|| {
            let mut acc = [0i32; 16];
            for _ in 0..256 {
                dot_tile_u8(&mut m, black_box(&a), black_box(&b_mat), 16, &mut acc, true);
            }
            acc
        });
    });
    g.finish();
}

fn bench_fused_chain_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused-chain-host");
    g.sample_size(10);
    // pw expand -> pw project: exercises the Pointwise compute_row arm,
    // the hottest path of the fused-chain inner loop.
    let rq = Requant::from_scale(1.0 / 32.0, 0);
    let chain = FusedChain::new(vec![
        ChainOp::Pointwise(PointwiseParams::new(16, 16, 8, 32, rq)),
        ChainOp::Pointwise(PointwiseParams::new(16, 16, 32, 8, rq)),
    ])
    .unwrap();
    let dev = Device::stm32_f767zi();
    let input = random::tensor_i8(&[16, 16, 8], 70);
    let weights = [
        random::tensor_i8(&[8, 32], 90),
        random::tensor_i8(&[32, 8], 91),
    ];
    g.bench_function("pw-expand-project-16x16", |bch| {
        bch.iter(|| {
            let mut m = Machine::new(dev.clone());
            let flash: Vec<usize> = weights
                .iter()
                .map(|w| m.host_program_flash(&w.as_bytes()).unwrap())
                .collect();
            let d = chain_exec_distance(&chain);
            let window = pool_window(chain.in_bytes(), chain.out_bytes(), d);
            let mut pool = SegmentPool::new(&m, 0, window).unwrap();
            pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
            run_fused_chain(&mut m, &mut pool, &chain, 0, -d, &flash, window).unwrap();
            black_box(m.counters.cycles);
            let _ = chain_workspace_bytes(&chain);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pointwise,
    bench_fused_ib,
    bench_depthwise,
    bench_patched_inference,
    bench_reference_oracle,
    bench_requant_row,
    bench_dot_tile,
    bench_fused_chain_rows
);
criterion_main!(benches);
