//! Criterion micro-benchmarks for the simulator's host-side hot loops:
//! the `Dot` core every host MAC runs through (timed via `dot_tile_u8`,
//! four rows deep over weights widened to `i16` once, outside the timed
//! loop, as the kernels widen each Flash image once per call) and the
//! fused-chain row schedule. These measure how fast the *simulator*
//! executes on the host — the Rust-level cost of one simulated inference
//! — not simulated MCU cycles.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vmcu::prelude::*;
use vmcu::vmcu_kernels::fused_chain::{
    chain_exec_distance, chain_workspace_bytes, run_fused_chain, FusedChain,
};
use vmcu::vmcu_kernels::intrinsics::{dot_tile_u8, widen};
use vmcu::vmcu_kernels::trace::pool_window;
use vmcu::vmcu_kernels::{ChainOp, PointwiseParams};
use vmcu::vmcu_pool::SegmentPool;
use vmcu::vmcu_sim::Machine;
use vmcu::vmcu_tensor::random;

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

criterion_group!(benches, bench_dot_tile, bench_fused_chain_rows);
criterion_main!(benches);
