//! Malformed input and weights are rejected with a typed
//! [`EngineError::ShapeMismatch`] under every policy — before any kernel
//! runs, so they never panic and never yield an output.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_tensor::random;

fn all_kinds() -> [PlannerKind; 7] {
    [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
        PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        },
        PlannerKind::VmcuReorder(IbScheme::RowBuffer),
    ]
}

/// An input 8× the expected size (every axis doubled) and one with half
/// the channels.
fn wrong_inputs(shape: &[usize]) -> [Tensor<i8>; 2] {
    let oversized: Vec<usize> = shape.iter().map(|d| 2 * d).collect();
    let mut undersized = shape.to_vec();
    *undersized.last_mut().expect("non-empty shape") /= 2;
    [
        random::tensor_i8(&oversized, 1),
        random::tensor_i8(&undersized, 2),
    ]
}

fn assert_shape_mismatch<T: std::fmt::Debug>(what: &str, result: Result<T, EngineError>) {
    match result {
        Err(EngineError::ShapeMismatch { .. }) => {}
        other => panic!("{what}: expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn wrong_input_shapes_are_typed_errors_under_every_policy() {
    let dev = Device::stm32_f767zi();
    for g in [zoo::demo_linear_net(), zoo::mbv2_residual_dag()] {
        let weights = g.random_weights(3);
        for kind in all_kinds() {
            let mut session = Engine::new(dev.clone())
                .planner(kind)
                .deploy(&g, &weights)
                .unwrap_or_else(|e| panic!("{}/{kind:?} deploys: {e}", g.name))
                .session();
            for input in wrong_inputs(&g.in_shape()) {
                let what = format!("{}/{kind:?} input {:?}", g.name, input.shape());
                assert_shape_mismatch(&what, session.infer(&input));
                assert_shape_mismatch(&what, session.infer_chained(&input));
            }
            // Rejected inputs leave the session usable and count nothing.
            assert_eq!(session.inferences(), 0);
            let good = random::tensor_i8(&g.in_shape(), 4);
            session.infer(&good).unwrap();
            assert_eq!(session.inferences(), 1);
        }
    }
}

#[test]
fn run_layer_rejects_wrong_inputs_and_weights_under_every_policy() {
    let g = zoo::demo_linear_net();
    let layer = &g.layers()[0];
    let weights = LayerWeights::random(layer, 5);
    let other = LayerWeights::random(&g.layers()[1], 6);
    for kind in all_kinds() {
        let engine = Engine::new(Device::stm32_f767zi()).planner(kind);
        for input in wrong_inputs(&layer.in_shape()) {
            let what = format!("{kind:?} input {:?}", input.shape());
            assert_shape_mismatch(&what, engine.run_layer("l0", layer, &weights, &input));
        }
        let input = random::tensor_i8(&layer.in_shape(), 7);
        assert_shape_mismatch(
            &format!("{kind:?} weights"),
            engine.run_layer("l0", layer, &other, &input),
        );
    }
}

#[test]
fn wrong_weights_are_typed_errors_at_deploy_under_every_policy() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(8);
    // Too few weight tensors, and layer 0 carrying layer 1's weights.
    let too_few = weights[..weights.len() - 1].to_vec();
    let mut wrong_size = weights.clone();
    wrong_size[0] = weights[1].clone();
    assert_ne!(wrong_size[0].bytes(), g.layers()[0].weight_bytes());
    for kind in all_kinds() {
        let engine = Engine::new(Device::stm32_f767zi()).planner(kind);
        for (what, w) in [("too few", &too_few), ("wrong size", &wrong_size)] {
            assert_shape_mismatch(
                &format!("{kind:?} deploy, {what} weights"),
                engine.deploy(&g, w),
            );
            assert_shape_mismatch(
                &format!("{kind:?} deploy_unchecked, {what} weights"),
                engine.deploy_unchecked(&g, w),
            );
        }
    }
}

/// Weights with the right byte total in the wrong shapes: the demo net's
/// layer 0 pointwise weight transposed to `[K, C]` (C ≠ K), and its
/// layer 2 IB with `w1` and `w2` swapped — a wrong split of the right
/// total. Each case carries the bad layer and the image the error names.
fn misshaped_weights(g: &Graph) -> [(&'static str, usize, Vec<LayerWeights>, &'static str); 2] {
    let weights = g.random_weights(11);
    let LayerDesc::Pointwise(pw) = &g.layers()[0] else {
        panic!("demo net layer 0 is a pointwise conv");
    };
    assert_ne!(pw.c, pw.k);
    let mut transposed = weights.clone();
    transposed[0] = LayerWeights::Pointwise(random::tensor_i8(&[pw.k, pw.c], 12));
    let LayerWeights::Ib { w1, wdw, w2 } = &weights[2] else {
        panic!("demo net layer 2 is an IB");
    };
    assert_ne!(w1.len(), w2.len());
    let mut mis_split = weights.clone();
    mis_split[2] = LayerWeights::Ib {
        w1: w2.clone(),
        wdw: wdw.clone(),
        w2: w1.clone(),
    };
    let cases = [
        ("transposed pointwise", 0, transposed, "`pointwise`"),
        ("mis-split IB", 2, mis_split, "`w1`"),
    ];
    for (what, _, w, _) in &cases {
        for (layer, lw) in g.layers().iter().zip(w) {
            assert_eq!(
                lw.bytes(),
                layer.weight_bytes(),
                "{what}: byte totals match"
            );
        }
    }
    cases
}

/// Asserts a `ShapeMismatch` whose message contains every one of `names`.
fn assert_names<T: std::fmt::Debug>(what: &str, names: &[&str], result: Result<T, EngineError>) {
    match result {
        Err(e @ EngineError::ShapeMismatch { .. }) => {
            let msg = e.to_string();
            assert!(names.iter().all(|n| msg.contains(n)), "{what}: {msg}");
        }
        other => panic!("{what}: expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn misshaped_weights_of_the_right_size_are_typed_errors_under_every_policy() {
    let g = zoo::demo_linear_net();
    let cases = misshaped_weights(&g);
    for kind in all_kinds() {
        let engine = Engine::new(Device::stm32_f767zi()).planner(kind);
        for (what, layer, weights, image) in &cases {
            let at = format!("layer {layer}");
            let what = format!("{kind:?} {what}");
            assert_names(&what, &[image, &at], engine.deploy(&g, weights));
            assert_names(&what, &[image, &at], engine.deploy_unchecked(&g, weights));
            let l = &g.layers()[*layer];
            let input = random::tensor_i8(&l.in_shape(), 13);
            assert_names(
                &what,
                &[image],
                engine.run_layer("bad", l, &weights[*layer], &input),
            );
        }
    }
}

#[test]
fn a_mis_split_ib_names_the_image_and_both_shapes() {
    let g = zoo::demo_linear_net();
    let [_, (_, layer, weights, _)] = misshaped_weights(&g);
    let LayerDesc::Ib(p) = &g.layers()[layer] else {
        panic!("demo net layer 2 is an IB");
    };
    let err = Engine::new(Device::stm32_f767zi())
        .deploy(&g, &weights)
        .unwrap_err();
    let EngineError::ShapeMismatch {
        what,
        expected,
        found,
    } = &err
    else {
        panic!("expected ShapeMismatch, got {err}");
    };
    assert!(what.contains("`w1` of layer 2"), "{err}");
    assert_eq!(expected, &vec![p.c_in, p.c_mid]);
    assert_eq!(found, &vec![p.c_mid, p.c_out]);
}

#[test]
fn shape_mismatch_names_what_was_expected() {
    let g = zoo::demo_linear_net();
    let dep = Engine::new(Device::stm32_f767zi())
        .deploy(&g, &g.random_weights(9))
        .unwrap();
    let [oversized, _] = wrong_inputs(&g.in_shape());
    let err = dep.session().infer(&oversized).unwrap_err();
    let EngineError::ShapeMismatch {
        expected, found, ..
    } = &err
    else {
        panic!("expected ShapeMismatch, got {err}");
    };
    assert_eq!(expected, &g.in_shape());
    assert_eq!(found, &oversized.shape().to_vec());
    assert!(err.to_string().contains("input shape"), "{err}");
}

#[test]
fn an_empty_graph_deploys_but_infers_a_typed_error() {
    let g = Graph::linear("empty", vec![]).unwrap();
    let input = random::tensor_i8(&[4, 4, 4], 10);
    for kind in all_kinds() {
        let mut session = Engine::new(Device::stm32_f767zi())
            .planner(kind)
            .deploy(&g, &[])
            .unwrap_or_else(|e| panic!("{kind:?}: an empty graph deploys: {e}"))
            .session();
        for result in [
            session.infer(&input).map(|_| ()),
            session.infer_chained(&input).map(|_| ()),
        ] {
            assert!(
                matches!(
                    result,
                    Err(EngineError::Unsupported {
                        kind: "empty graph",
                        ..
                    })
                ),
                "{kind:?}: {result:?}"
            );
        }
    }
}
