//! Patch-based front-stage execution, end to end: the MCUNetV2-style
//! spatial bottleneck (`zoo::hires_front_stage`) must OOM under every
//! whole-tensor policy and deploy — bit-exact against the reference —
//! only under `PlannerKind::VmcuPatched`, with the halo recompute
//! charged honestly and the planning surfaces agreeing with execution.

use proptest::prelude::*;
use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo};
use vmcu::vmcu_kernels::patched::{PatchGrid, PatchedFront};
use vmcu::vmcu_plan::patch;
use vmcu::vmcu_plan::peak_demand_bytes;
use vmcu::vmcu_plan::{fuse_graph, FusionNode, FusionPlan};
use vmcu::vmcu_tensor::random;

/// Deploy-once/infer-once through the new Session API.
fn run(
    engine: &Engine,
    g: &Graph,
    weights: &[LayerWeights],
    input: &Tensor<i8>,
) -> Result<InferenceReport, EngineError> {
    engine.deploy(g, weights)?.session().infer(input)
}

#[test]
fn hires_front_stage_ooms_under_every_whole_tensor_planner() {
    // The acceptance criterion: the first-stage activation (96·96·16 =
    // 147,456 bytes) exceeds the 128 KB device outright.
    let g = zoo::hires_front_stage();
    assert!(g.layers()[0].in_bytes() > 128 * 1024);
    let dev = Device::stm32_f411re();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ] {
        let err = Engine::new(dev.clone())
            .planner(kind)
            .check_fit(&g)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::DoesNotFit { .. }),
            "{kind:?} must report the paper's fails-to-run outcome"
        );
    }
    assert!(
        Engine::new(dev)
            .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
            .check_fit(&g)
            .is_ok(),
        "patch-based execution must admit the spatial model"
    );
}

#[test]
fn patched_output_is_bit_identical_to_the_unpatched_reference() {
    let g = zoo::hires_front_stage();
    let weights = g.random_weights(101);
    let input = random::tensor_i8(&g.in_shape(), 102);
    let reference = exec::run_reference(&g, &weights, &input);
    let report = run(
        &Engine::new(Device::stm32_f411re()).planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer)),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    assert_eq!(&report.output, reference.last().unwrap());
    assert!(report.peak_ram_bytes() <= 128 * 1024);
}

#[test]
fn patched_plan_prices_execution_exactly() {
    // The fleet placement price and the engine's execution report come
    // from the same accounting; they can never disagree.
    let g = zoo::hires_front_stage();
    let dev = Device::stm32_f411re();
    let demand = peak_demand_bytes(
        &*PlannerKind::VmcuPatched(IbScheme::RowBuffer).planner(),
        &g,
    );
    let weights = g.random_weights(111);
    let input = random::tensor_i8(&g.in_shape(), 112);
    let report = run(
        &Engine::new(dev.clone()).planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer)),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    assert_eq!(report.peak_ram_bytes(), demand + dev.runtime_overhead_bytes);
}

#[test]
fn halo_recompute_is_charged_and_capped() {
    let g = zoo::hires_front_stage();
    let pplan = patch::plan(&g, IbScheme::RowBuffer, 0.5);
    assert!(pplan.is_patched());
    let front = pplan.front.as_ref().unwrap();
    assert!(
        front.patched_macs() > front.unpatched_macs(),
        "patching a padded front must recompute halo rows"
    );
    assert!(pplan.halo_overhead > 0.0);
    assert!(pplan.halo_overhead <= 0.5, "the overhead cap must hold");
}

#[test]
fn zoo_chain_demands_and_halo_recompute_are_pinned() {
    // docs/PLANNERS.md's peak-demand table (bytes, runtime overhead
    // excluded), one column per policy.
    let kinds = [
        PlannerKind::Hmcos,
        PlannerKind::TinyEngine,
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
    ];
    let table = [
        (
            zoo::mbv2_block_unfused(),
            [38_400, 26_560, 21_120, 11_520, 8_224],
        ),
        (
            zoo::wide_expand_chain(),
            [307_200, 183_040, 161_280, 45_440, 30_784],
        ),
        (
            zoo::hires_front_stage(),
            [184_320, 148_992, 148_224, 148_224, 23_904],
        ),
    ];
    for (g, expected) in &table {
        let measured = kinds.map(|kind| peak_demand_bytes(&*kind.planner(), g));
        assert_eq!(&measured, expected, "{}: {kinds:?}", g.name);
    }

    // The price of hires_front_stage's 23,904 bytes: the 6x8 grid
    // recomputes 330,632 halo MACs, 18.6% of the unpatched front.
    let pplan = PatchedPlanner::default().patch_plan(&zoo::hires_front_stage());
    let front = pplan.front.as_ref().expect("hires_front_stage patches");
    assert_eq!(front.grid(), PatchGrid { gy: 6, gx: 8 });
    assert_eq!(front.patched_macs() - front.unpatched_macs(), 330_632);
    assert_eq!(pplan.halo_overhead, front.halo_overhead());
    assert_eq!(format!("{:.1}%", pplan.halo_overhead * 100.0), "18.6%");
}

#[test]
fn finer_grids_trade_cycles_for_peak_ram() {
    // The patch trade-off, measured: a finer grid must not raise the
    // front's peak slab footprint, and must cost at least as many MACs.
    let g = zoo::hires_front_stage();
    let ops: Vec<_> = g.layers()[..4]
        .iter()
        .map(|l| patch::patch_op(l).unwrap())
        .collect();
    let coarse = PatchedFront::new(ops.clone(), PatchGrid { gy: 2, gx: 2 }).unwrap();
    let fine = PatchedFront::new(ops, PatchGrid { gy: 4, gx: 4 }).unwrap();
    assert!(fine.patched_macs() > coarse.patched_macs());
    let slab_rows = |f: &PatchedFront| {
        let mut worst = 0usize;
        for ty in 0..f.grid().gy {
            for tx in 0..f.grid().gx {
                for s in f.patch_stages(ty, tx) {
                    worst = worst.max(s.slab.rows() * s.slab.cols());
                }
            }
        }
        worst
    };
    assert!(slab_rows(&fine) < slab_rows(&coarse));
}

#[test]
fn patched_falls_back_to_fused_pricing_when_patching_does_not_pay() {
    // demo_linear_net's front prefix is one small pointwise; no grid can
    // undercut the fused plan, so the patched planner must price (and
    // execute) identically to the fused planner.
    let g = zoo::demo_linear_net();
    let pplan = patch::plan(&g, IbScheme::RowBuffer, 0.5);
    assert!(!pplan.is_patched(), "tiny fronts must not patch");
    assert_eq!(
        peak_demand_bytes(
            &*PlannerKind::VmcuPatched(IbScheme::RowBuffer).planner(),
            &g
        ),
        peak_demand_bytes(&*PlannerKind::VmcuFused(IbScheme::RowBuffer).planner(), &g),
    );
    let weights = g.random_weights(121);
    let input = random::tensor_i8(&g.in_shape(), 122);
    let dev = Device::stm32_f411re();
    let patched = run(
        &Engine::new(dev.clone()).planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer)),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    let fused = run(
        &Engine::new(dev).planner(PlannerKind::VmcuFused(IbScheme::RowBuffer)),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    assert_eq!(patched.output, fused.output);
    assert_eq!(patched.peak_ram_bytes(), fused.peak_ram_bytes());
}

#[test]
fn seeded_random_fronts_stay_bit_exact_under_forced_grids() {
    // Force patching on small random nets (bypassing the benefit check)
    // to exercise border patches, strides, and odd extents beyond what
    // the planner would choose on its own.
    use vmcu::vmcu_kernels::patched::run_patched_front;
    use vmcu::vmcu_sim::Machine;
    for seed in 0..8 {
        let g = zoo::random_linear_net(seed, 4);
        let front_len = patch::patchable_prefix(&g);
        if front_len == 0 {
            continue;
        }
        let ops: Vec<_> = g.layers()[..front_len]
            .iter()
            .map(|l| patch::patch_op(l).unwrap())
            .collect();
        let weights = g.random_weights(seed ^ 0x5A);
        let input = random::tensor_i8(&g.in_shape(), seed ^ 0xA5);
        let reference = exec::run_reference(&g, &weights, &input);
        let expected_front = &reference[front_len - 1];
        for grid in [PatchGrid { gy: 2, gx: 2 }, PatchGrid { gy: 1, gx: 3 }] {
            let Ok(front) = PatchedFront::new(ops.clone(), grid) else {
                continue; // grid finer than this net's output
            };
            let mut m = Machine::new(Device::stm32_f767zi());
            let flash: Vec<usize> = g.layers()[..front_len]
                .iter()
                .zip(&weights)
                .map(|(_, w)| {
                    let bytes = match w {
                        LayerWeights::Pointwise(t)
                        | LayerWeights::Depthwise(t)
                        | LayerWeights::Conv2d(t) => t.as_bytes(),
                        _ => unreachable!("patchable prefix"),
                    };
                    m.host_program_flash(&bytes).unwrap()
                })
                .collect();
            let distances = front.stage_distances();
            let got = run_patched_front(&mut m, &front, &input, &flash, &distances).unwrap();
            assert_eq!(
                &got, expected_front,
                "seed {seed} grid {grid} front diverges"
            );
        }
    }
}

/// A patch plan's tail next to the fusion pass's plan of the suffix
/// after its front, shifted to graph-absolute indices — the two must be
/// equal.
fn tail_and_fused_suffix(g: &Graph, scheme: IbScheme) -> (bool, FusionPlan, FusionPlan) {
    let p = patch::plan(g, scheme, 0.5);
    let suffix = Graph::linear("suffix", g.layers()[p.front_len..].to_vec()).unwrap();
    let mut expected = fuse_graph(&suffix, scheme);
    for node in &mut expected.nodes {
        match node {
            FusionNode::Single { index, .. } => *index += p.front_len,
            FusionNode::Fused(group) => {
                group.start += p.front_len;
                group.end += p.front_len;
            }
        }
    }
    (p.is_patched(), p.tail, expected)
}

#[test]
fn patched_tail_is_the_fused_suffix_on_the_zoo_chains() {
    let mut patched = 0;
    for g in [
        zoo::hires_front_stage(),
        zoo::wide_expand_chain(),
        zoo::hires_split_only(),
        zoo::mbv2_block_unfused(),
        zoo::demo_linear_net(),
    ] {
        let (is_patched, tail, expected) = tail_and_fused_suffix(&g, IbScheme::RowBuffer);
        assert_eq!(tail, expected, "{}", g.name);
        patched += usize::from(is_patched && !tail.nodes.is_empty());
    }
    assert!(
        patched > 0,
        "some zoo chain patches a front ahead of a tail"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn patched_tail_is_the_fused_suffix(seed in 0u64..1_000_000, layers in 1usize..12) {
        let g = zoo::random_linear_net(seed, layers);
        let (_, tail, expected) = tail_and_fused_suffix(&g, IbScheme::RowBuffer);
        prop_assert_eq!(tail, expected);
    }
}
