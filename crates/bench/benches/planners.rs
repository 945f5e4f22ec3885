//! Criterion micro-benchmarks for the planners: planning a whole network
//! must stay interactive (the paper's planning is an offline compile step;
//! ours should still be snappy enough for NAS-in-the-loop use).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_kernels::fc::fc_exec_trace;
use vmcu::vmcu_kernels::merge::add_exec_trace;
use vmcu::vmcu_kernels::params::{AddParams, DepthwiseParams};
use vmcu::vmcu_kernels::trace::{exec_distance, ExecEvent};
use vmcu::vmcu_kernels::ChainOp;
use vmcu::vmcu_plan::headroom::{max_image_scale, tinyengine_budget};
use vmcu::vmcu_plan::planner::named_ib_layers;
use vmcu::vmcu_plan::{fuse_graph, plan_order, plan_split};

fn bench_planning(c: &mut Criterion) {
    let device = Device::stm32_f767zi();
    let layers = named_ib_layers(&zoo::mcunet_320kb_imagenet());
    let mut g = c.benchmark_group("plan-imagenet-17-modules");
    g.bench_function("vmcu", |b| {
        let p = VmcuPlanner::default();
        b.iter(|| p.plan(black_box(&layers), &device));
    });
    g.bench_function("tinyengine", |b| {
        b.iter(|| TinyEnginePlanner.plan(black_box(&layers), &device));
    });
    g.bench_function("hmcos", |b| {
        b.iter(|| HmcosPlanner.plan(black_box(&layers), &device));
    });
    g.finish();
}

fn bench_headroom(c: &mut Criterion) {
    let mut g = c.benchmark_group("headroom");
    g.sample_size(10);
    let p = zoo::mcunet_5fps_vww()[0].params;
    let budget = tinyengine_budget(&p);
    g.bench_function("image-scale-S1", |b| {
        let planner = VmcuPlanner::default();
        b.iter(|| max_image_scale(black_box(&p), &planner, budget));
    });
    g.finish();
}

/// The graph planning passes a deploy runs, one zoo model each: if a
/// pass goes back to re-fusing every layer range, this group shows it
/// within seconds.
fn bench_plan_passes(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan-passes");
    g.sample_size(10);
    let split_only = zoo::hires_split_only();
    g.bench_function("plan_split/hires-split-only/4", |b| {
        b.iter(|| plan_split(black_box(&split_only), 4, IbScheme::RowBuffer));
    });
    let front = zoo::hires_front_stage();
    g.bench_function("patch_plan/hires-front-stage", |b| {
        let p = PatchedPlanner::default();
        b.iter(|| p.patch_plan(black_box(&front)));
    });
    g.bench_function("fuse_graph/hires-split-only", |b| {
        b.iter(|| fuse_graph(black_box(&split_only), IbScheme::RowBuffer));
    });
    let branchy = zoo::branchy_oom_net();
    g.bench_function("plan_order/branchy-oom-net", |b| {
        let p = VmcuPlanner::default();
        b.iter(|| plan_order(&p, black_box(&branchy)));
    });
    g.finish();
}

/// The byte-liveness bookkeeping behind certification and planning: the
/// static auditor on three deployments, and the kernels'
/// executable-distance bound over one layer's store/free trace: a
/// pointwise and a depthwise layer, which free in address order, and a
/// residual add, which frees its second operand above the frontier. The
/// audited deployments are a repeated block in its node and chained
/// passes, an 8×8 patch grid, and one inverted bottleneck whose layer
/// appears at one node and one chained site.
fn bench_audit(c: &mut Criterion) {
    let mut g = c.benchmark_group("audit");
    g.sample_size(10);
    let s1 = zoo::mcunet_5fps_vww()[0].params;
    let deployments = [
        (
            "hires-split-only/vmcu-rowbuffer/f767zi",
            zoo::hires_split_only(),
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            Device::stm32_f767zi(),
        ),
        (
            "wide-expand-chain/vmcu-patched/f411re",
            zoo::wide_expand_chain(),
            PlannerKind::VmcuPatched(IbScheme::RowBuffer),
            Device::stm32_f411re(),
        ),
        (
            "table3-s1/vmcu-slidingwindow/f411re",
            Graph::linear("S1", vec![LayerDesc::Ib(s1)]).expect("one layer chains"),
            PlannerKind::Vmcu(IbScheme::SlidingWindow),
            Device::stm32_f411re(),
        ),
    ];
    for (name, graph, kind, device) in deployments {
        let dep = Engine::new(device)
            .planner(kind)
            .deploy(&graph, &graph.random_weights(7))
            .expect("every audited deployment fits its device");
        g.bench_function(format!("audit/{name}"), |b| {
            b.iter(|| vmcu_verify::audit(black_box(&dep)));
        });
    }
    let fc = PointwiseParams::new(40, 40, 16, 96, Requant::identity()).as_fc();
    let dw = DepthwiseParams::new(40, 40, 96, 3, 3, 1, 1, Requant::identity());
    let add = AddParams::new(40, 40, 16);
    let traces: [(&str, usize, Vec<ExecEvent>); 3] = [
        ("pointwise-40x40-16-96", fc.in_bytes(), fc_exec_trace(&fc)),
        (
            "depthwise-40x40x96",
            dw.in_bytes(),
            ChainOp::Depthwise(dw).exec_events(),
        ),
        ("add-40x40x16", add.in_bytes(), add_exec_trace(&add)),
    ];
    for (name, in_bytes, trace) in &traces {
        g.bench_function(format!("exec_distance/{name}"), |b| {
            b.iter(|| exec_distance(*in_bytes, black_box(trace).iter().copied()));
        });
    }
    g.finish();
}

/// One whole `Engine::deploy` per ladder device: planning plus the
/// firmware-image check, which sizes the image without allocating the
/// device's Flash, so a deploy to a 4 MB-Flash device costs what one to
/// a 128 KB one does.
fn bench_deploy(c: &mut Criterion) {
    let mut g = c.benchmark_group("deploy");
    let graph = zoo::mbv2_block_unfused();
    let weights = graph.random_weights(7);
    for device in Device::simd_ladder() {
        let engine = Engine::new(device.clone()).planner(PlannerKind::Vmcu(IbScheme::RowBuffer));
        g.bench_function(
            format!("deploy/mbv2-block-unfused/vmcu-rowbuffer/{}", device.name),
            |b| b.iter(|| engine.deploy(black_box(&graph), &weights)),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_planning,
    bench_headroom,
    bench_plan_passes,
    bench_audit,
    bench_deploy
);
criterion_main!(benches);
