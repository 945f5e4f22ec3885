//! Integration suite for the multi-layer segment fusion pipeline: the
//! fusion pass, the fused chain executor, and their edge cases, end to
//! end through the engine.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo, Graph};
use vmcu::vmcu_kernels::params::{DepthwiseParams, IbParams, PointwiseParams};
use vmcu::vmcu_plan::fusion::{fuse_graph, FusionNode};
use vmcu::vmcu_plan::peak_demand_bytes;
use vmcu::vmcu_tensor::random;

fn fused_planner() -> VmcuPlanner {
    VmcuPlanner::new(IbScheme::RowBuffer, VmcuPass::Fuse)
}

fn fused_kind() -> PlannerKind {
    PlannerKind::VmcuFused(IbScheme::RowBuffer)
}

/// Deploy-once/infer-once through the new Session API.
fn run(
    engine: &Engine,
    g: &Graph,
    weights: &[LayerWeights],
    input: &Tensor<i8>,
) -> Result<InferenceReport, EngineError> {
    engine.deploy(g, weights)?.session().infer(input)
}

fn rq() -> Requant {
    Requant::from_scale(1.0 / 64.0, 0)
}

#[test]
fn single_layer_chain_is_a_noop_fusion_end_to_end() {
    // One layer: the fusion pass emits a singleton, plans and runs
    // exactly like single-layer vMCU.
    let g = Graph::linear(
        "one",
        vec![LayerDesc::Pointwise(PointwiseParams::new(8, 8, 4, 8, rq()))],
    )
    .unwrap();
    let plan = fuse_graph(&g, IbScheme::RowBuffer);
    assert_eq!(plan.fused_groups(), 0);
    assert_eq!(
        peak_demand_bytes(&fused_planner(), &g),
        peak_demand_bytes(&VmcuPlanner::default(), &g)
    );
    let weights = g.random_weights(1);
    let input = random::tensor_i8(&g.in_shape(), 2);
    let dev = Device::stm32_f411re();
    let fused = run(
        &Engine::new(dev.clone()).planner(fused_kind()),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    let vmcu = run(&Engine::new(dev), &g, &weights, &input).unwrap();
    assert_eq!(fused.output, vmcu.output);
    assert_eq!(fused.peak_ram_bytes(), vmcu.peak_ram_bytes());
}

#[test]
fn unfusable_op_breaks_the_chain_but_execution_still_matches() {
    // pw → IB → pw: the inverted bottleneck is its own fused unit and
    // splits the run; the graph still executes bit-exactly.
    let mut ib = IbParams::new(10, 8, 24, 8, 3, (1, 1, 1));
    ib.clamp1 = (0, 127);
    ib.clamp2 = (0, 127);
    let g = Graph::linear(
        "broken-chain",
        vec![
            LayerDesc::Pointwise(PointwiseParams::new(10, 10, 4, 8, rq())),
            LayerDesc::Ib(ib),
            LayerDesc::Pointwise(PointwiseParams::new(10, 10, 8, 12, rq())),
        ],
    )
    .unwrap();
    let plan = fuse_graph(&g, IbScheme::RowBuffer);
    assert_eq!(plan.fused_groups(), 0, "singletons on both sides of the IB");
    assert_eq!(plan.nodes.len(), 3);
    assert!(plan
        .nodes
        .iter()
        .all(|n| matches!(n, FusionNode::Single { .. })));
    let weights = g.random_weights(3);
    let input = random::tensor_i8(&g.in_shape(), 4);
    let report = run(
        &Engine::new(Device::stm32_f767zi()).planner(fused_kind()),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    let expected = exec::run_reference(&g, &weights, &input);
    assert_eq!(&report.output, expected.last().unwrap());
}

#[test]
fn chain_that_only_fits_fused_deploys_and_matches_reference() {
    // The wide expand chain's 153.6 KB intermediate exceeds the 128 KB
    // device outright; only the fused pipeline deploys it.
    let g = zoo::wide_expand_chain();
    let dev = Device::stm32_f411re();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ] {
        assert!(
            matches!(
                Engine::new(dev.clone()).planner(kind).check_fit(&g),
                Err(EngineError::DoesNotFit { .. })
            ),
            "{kind:?} must not fit the wide chain"
        );
    }
    let engine = Engine::new(dev).planner(fused_kind());
    let weights = g.random_weights(5);
    let input = random::tensor_i8(&g.in_shape(), 6);
    let report = run(&engine, &g, &weights, &input).unwrap();
    let expected = exec::run_reference(&g, &weights, &input);
    assert_eq!(&report.output, expected.last().unwrap());
    assert!(report.peak_ram_bytes() <= 128 * 1024);
}

#[test]
fn fused_peak_ram_strictly_below_vmcu_on_a_zoo_model() {
    // Acceptance criterion: planning surface and measured execution both
    // show the fused plan strictly below single-layer vMCU planning.
    let g = zoo::mbv2_block_unfused();
    let fused_demand = peak_demand_bytes(&fused_planner(), &g);
    let vmcu_demand = peak_demand_bytes(&VmcuPlanner::default(), &g);
    assert!(fused_demand < vmcu_demand);
    let weights = g.random_weights(7);
    let input = random::tensor_i8(&g.in_shape(), 8);
    let dev = Device::stm32_f411re();
    let fused = run(
        &Engine::new(dev.clone()).planner(fused_kind()),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    let vmcu = run(&Engine::new(dev), &g, &weights, &input).unwrap();
    assert_eq!(fused.output, vmcu.output);
    assert!(fused.peak_ram_bytes() < vmcu.peak_ram_bytes());
}

#[test]
fn fused_execution_is_bit_identical_across_seeded_random_nets() {
    // Differential acceptance: seeded random mixed nets (pointwise /
    // depthwise / inverted bottlenecks, strides included) must agree
    // bit-for-bit with the unfused reference executor.
    for seed in 100..112 {
        let g = zoo::random_linear_net(seed, 5);
        let weights = g.random_weights(seed ^ 0x5EED);
        let input = random::tensor_i8(&g.in_shape(), seed ^ 0xF00D);
        let expected = exec::run_reference(&g, &weights, &input);
        let report = run(
            &Engine::new(Device::stm32_f767zi()).planner(fused_kind()),
            &g,
            &weights,
            &input,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: fused execution failed: {e}"));
        assert_eq!(
            &report.output,
            expected.last().unwrap(),
            "seed {seed}: fused output diverges from reference"
        );
    }
}

#[test]
fn deep_pointwise_tower_fuses_into_one_group() {
    // A four-layer expansion tower: one fused group, priced below the
    // per-layer bottleneck.
    let mut mid1 = PointwiseParams::new(12, 12, 8, 32, rq());
    mid1.clamp = (0, 127);
    let mut mid2 = PointwiseParams::new(12, 12, 32, 48, rq());
    mid2.clamp = (0, 127);
    let mut mid3 = PointwiseParams::new(12, 12, 48, 32, rq());
    mid3.clamp = (0, 127);
    let g = Graph::linear(
        "tower",
        vec![
            LayerDesc::Pointwise(mid1),
            LayerDesc::Pointwise(mid2),
            LayerDesc::Pointwise(mid3),
            LayerDesc::Pointwise(PointwiseParams::new(12, 12, 32, 8, rq())),
        ],
    )
    .unwrap();
    let plan = fuse_graph(&g, IbScheme::RowBuffer);
    assert_eq!(plan.fused_groups(), 1);
    assert_eq!(plan.nodes.len(), 1);
    assert!(
        peak_demand_bytes(&fused_planner(), &g) < peak_demand_bytes(&VmcuPlanner::default(), &g)
    );
    let weights = g.random_weights(9);
    let input = random::tensor_i8(&g.in_shape(), 10);
    let report = run(
        &Engine::new(Device::stm32_f411re()).planner(fused_kind()),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    let expected = exec::run_reference(&g, &weights, &input);
    assert_eq!(&report.output, expected.last().unwrap());
}

#[test]
fn strided_depthwise_chain_fuses_and_matches() {
    // Stride-2 depthwise inside a fused chain: the line-buffer rings
    // advance by two rows per output row.
    let mut expand = PointwiseParams::new(16, 16, 8, 32, rq());
    expand.clamp = (0, 127);
    let mut dw = DepthwiseParams::new(16, 16, 32, 3, 3, 2, 1, rq());
    dw.clamp = (0, 127);
    let g = Graph::linear(
        "strided",
        vec![
            LayerDesc::Pointwise(expand),
            LayerDesc::Depthwise(dw),
            LayerDesc::Pointwise(PointwiseParams::new(8, 8, 32, 8, rq())),
        ],
    )
    .unwrap();
    let plan = fuse_graph(&g, IbScheme::RowBuffer);
    assert_eq!(plan.fused_groups(), 1);
    let weights = g.random_weights(11);
    let input = random::tensor_i8(&g.in_shape(), 12);
    let report = run(
        &Engine::new(Device::stm32_f767zi()).planner(fused_kind()),
        &g,
        &weights,
        &input,
    )
    .unwrap();
    let expected = exec::run_reference(&g, &weights, &input);
    assert_eq!(&report.output, expected.last().unwrap());
}
