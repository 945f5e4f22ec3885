//! Malformed input and weights are rejected with a typed
//! [`EngineError::ShapeMismatch`], out-of-range requantization
//! epilogues with [`EngineError::BadEpilogue`], and degenerate layer
//! parameters with [`GraphBuildError::Degenerate`] at graph construction
//! and [`EngineError::DegenerateLayer`] in `Engine::run_layer`, under
//! every policy — before any kernel runs, so they never panic and never
//! yield an output.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec::run_reference, zoo, GraphBuildError, NodeInput};
use vmcu::vmcu_kernels::{Conv2dParams, DepthwiseParams, FcParams};
use vmcu::vmcu_tensor::random;
use vmcu_verify::audit;

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

/// `g` with the `(rq, clamp)` pair of layer `index`'s epilogue `stage`
/// (1–3 in an IB, 1 otherwise) passed through `edit`.
fn with_epilogue(
    g: &Graph,
    index: usize,
    stage: usize,
    edit: impl FnOnce(&mut Requant, &mut (i8, i8)),
) -> Graph {
    let mut layers = g.layers().to_vec();
    let (rq, clamp) = match (&mut layers[index], stage) {
        (LayerDesc::Pointwise(p), 1) => (&mut p.rq, &mut p.clamp),
        (LayerDesc::Conv2d(p), 1) => (&mut p.rq, &mut p.clamp),
        (LayerDesc::Depthwise(p), 1) => (&mut p.rq, &mut p.clamp),
        (LayerDesc::Dense(p), 1) => (&mut p.rq, &mut p.clamp),
        (LayerDesc::Ib(p), 1) => (&mut p.rq1, &mut p.clamp1),
        (LayerDesc::Ib(p), 2) => (&mut p.rq2, &mut p.clamp2),
        (LayerDesc::Ib(p), 3) => (&mut p.rq3, &mut p.clamp3),
        (l, _) => panic!("{} has no epilogue stage {stage}", l.kind()),
    };
    edit(rq, clamp);
    Graph::linear(&g.name, layers).expect("an epilogue edit keeps the shapes")
}

/// Graphs with one epilogue field out of range, as `(graph, layer,
/// field)`: the reversed pointwise clamp that used to panic inside
/// `infer`, every IB stage, each other layer kind, and both sides of the
/// multiplier and total-shift domains.
fn bad_epilogues() -> Vec<(Graph, usize, &'static str)> {
    type Edit = fn(&mut Requant, &mut (i8, i8));
    let demo = zoo::demo_linear_net();
    let unfused = zoo::mbv2_block_unfused();
    let rq = Requant::from_scale(1.0 / 64.0, 0);
    let fc = Graph::linear("fc", vec![LayerDesc::Dense(FcParams::new(4, 8, 8, rq))]).unwrap();
    let conv = Conv2dParams::new(7, 7, 3, 5, 3, 3, 1, 0, rq);
    let conv = Graph::linear("conv", vec![LayerDesc::Conv2d(conv)]).unwrap();
    let cases: [(&Graph, usize, usize, &str, Edit); 8] = [
        (&demo, 0, 1, "clamp", |_, c| *c = (10, -10)),
        (&demo, 1, 2, "clamp2", |_, c| *c = (5, 4)),
        (&demo, 2, 1, "rq1.mult", |rq, _| rq.mult = (1 << 30) - 1),
        (&demo, 2, 3, "rq3.shift", |rq, _| rq.shift = 33), // total shift 64
        (&demo, 3, 1, "rq.mult", |rq, _| rq.mult = -(1 << 30)),
        (&unfused, 1, 1, "rq.shift", |rq, _| rq.shift = -31), // total shift 0
        (&fc, 0, 1, "rq.mult", |rq, _| rq.mult = 0),
        (&conv, 0, 1, "clamp", |_, c| *c = (1, 0)),
    ];
    cases
        .into_iter()
        .map(|(g, layer, stage, field, edit)| (with_epilogue(g, layer, stage, edit), layer, field))
        .collect()
}

/// Asserts a `BadEpilogue` naming `want`'s layer and field.
fn assert_bad_epilogue<T: std::fmt::Debug>(
    what: &str,
    want: (usize, &str),
    result: Result<T, EngineError>,
) {
    match &result {
        Err(e @ EngineError::BadEpilogue { layer, field, .. }) => {
            assert_eq!((*layer, field.as_str()), want, "{what}: {e}");
            let msg = e.to_string();
            let named = [format!("layer {layer}"), format!("`{field}`")];
            assert!(named.iter().all(|n| msg.contains(n)), "{what}: {msg}");
        }
        other => panic!("{what}: expected BadEpilogue, got {other:?}"),
    }
}

#[test]
fn bad_epilogues_are_typed_errors_at_every_entry_point_under_every_policy() {
    let dev = Device::stm32_f411re();
    for (g, layer, field) in bad_epilogues() {
        let weights = g.random_weights(14);
        let l = &g.layers()[layer];
        let input = random::tensor_i8(&l.in_shape(), 15);
        for kind in all_kinds() {
            let engine = Engine::new(dev.clone()).planner(kind);
            let what = format!("{}/{kind:?} {field}", g.name);
            assert_bad_epilogue(&what, (layer, field), engine.deploy(&g, &weights));
            assert_bad_epilogue(
                &what,
                (0, field),
                engine.run_layer("bad", l, &weights[layer], &input),
            );
        }
    }
}

/// The edges of the epilogue domain deploy and infer bit-exact against
/// the reference: total shifts 1 and 63, the largest multiplier, a
/// single-value clamp.
#[test]
fn epilogues_at_the_domain_edges_deploy_and_infer() {
    let g = with_epilogue(&zoo::demo_linear_net(), 0, 1, |rq, clamp| {
        *rq = Requant {
            mult: 1 << 30,
            shift: -30,
            zp: 0,
        };
        *clamp = (3, 3);
    });
    let g = with_epilogue(&g, 1, 2, |rq, _| {
        *rq = Requant {
            mult: i32::MAX,
            shift: 32,
            zp: 5,
        };
    });
    let weights = g.random_weights(16);
    let input = random::tensor_i8(&g.in_shape(), 17);
    let expect = run_reference(&g, &weights, &input).pop().unwrap();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
    ] {
        let report = Engine::new(Device::stm32_f767zi())
            .planner(kind)
            .deploy(&g, &weights)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
            .session()
            .infer(&input)
            .unwrap();
        assert_eq!(report.output, expect, "{kind:?}");
    }
}

/// A depthwise that pads by more than its window (`r = 1`, pad 2) leads
/// a chain whose first two and last two depthwise rows see padding
/// only, so the next input row a fused chain needs runs past the input
/// end. Freeing rows up to it used to panic ("free past input end")
/// inside `Engine::deploy` under every policy that fuses the chain.
/// Every policy now deploys it or returns a typed error; each
/// deployment audits clean and infers bit-exact against the reference.
#[test]
fn a_chain_led_by_padding_wider_than_its_window_never_panics() {
    let rq = Requant::from_scale(1.0 / 64.0, 0);
    let g = Graph::linear(
        "pad-past-window-chain",
        vec![
            LayerDesc::Depthwise(DepthwiseParams::new(8, 6, 3, 1, 4, 1, 2, rq)),
            LayerDesc::Pointwise(PointwiseParams::new(12, 7, 3, 3, rq)),
        ],
    )
    .expect("valid layers");
    let weights = g.random_weights(23);
    let input = random::tensor_i8(&g.in_shape(), 24);
    let expect = run_reference(&g, &weights, &input).pop().unwrap();
    let mut deployed = 0;
    for kind in all_kinds() {
        let Ok(dep) = Engine::new(Device::stm32_f411re())
            .planner(kind)
            .deploy(&g, &weights)
        else {
            continue;
        };
        let report = audit(&dep);
        assert!(report.is_clean(), "{kind:?}: {report}");
        let out = dep
            .session()
            .infer(&input)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(out.output, expect, "{kind:?}");
        deployed += 1;
    }
    assert_eq!(deployed, all_kinds().len());
}

/// Layers no kernel is defined for, each with the parameter the error
/// names: an IB projection stride of 2 (used to panic in `deploy` under
/// vMCU and in `infer` under TinyEngine), zero strides (a division by
/// zero in `deploy`), even IB kernels with a residual (an output one
/// pixel short, its residual added from misaligned pixels), a depthwise
/// kernel larger than its unpadded input (an output size that wrapped
/// in release builds), and zero dimensions and segments.
fn degenerate_layers() -> Vec<(LayerDesc, &'static str)> {
    let rq = Requant::from_scale(1.0 / 64.0, 0);
    let ib = |rs, strides| LayerDesc::Ib(IbParams::new(8, 4, 12, 4, rs, strides));
    let dw = |hw, rs, stride, pad| {
        LayerDesc::Depthwise(DepthwiseParams::new(hw, hw, 4, rs, rs, stride, pad, rq))
    };
    let mut no_seg = PointwiseParams::new(4, 4, 8, 8, rq);
    no_seg.seg = 0;
    vec![
        (ib(3, (1, 1, 2)), "s3"),
        (ib(3, (0, 1, 1)), "s1"),
        (ib(3, (1, 0, 1)), "s2"),
        (ib(2, (1, 1, 1)), "rs"),
        (ib(4, (1, 1, 1)), "rs"),
        (dw(8, 3, 0, 1), "stride"),
        (dw(2, 5, 1, 0), "r"),
        (
            LayerDesc::Conv2d(Conv2dParams::new(6, 6, 3, 4, 3, 3, 0, 1, rq)),
            "stride",
        ),
        (
            LayerDesc::Conv2d(Conv2dParams::new(6, 2, 3, 4, 3, 5, 1, 1, rq)),
            "s",
        ),
        (
            LayerDesc::Pointwise(PointwiseParams::new(4, 4, 0, 8, rq)),
            "c",
        ),
        (LayerDesc::Pointwise(no_seg), "seg"),
        (LayerDesc::Dense(FcParams::new(4, 8, 0, rq)), "n"),
    ]
}

#[test]
fn degenerate_layers_are_rejected_at_graph_construction() {
    let rq = Requant::from_scale(1.0 / 64.0, 0);
    let head = LayerDesc::Pointwise(PointwiseParams::new(8, 8, 4, 4, rq));
    for (layer, field) in degenerate_layers() {
        let names = |err: &GraphBuildError, node: usize| matches!(err, GraphBuildError::Degenerate { node: n, error } if *n == node && error.field == field);
        let err = Graph::linear("bad", vec![layer.clone()]).unwrap_err();
        assert!(names(&err, 0), "{layer:?}: {err}");
        assert!(err.to_string().contains(field), "{err}");
        // Behind a valid node, in a DAG: rejected before its shapes are
        // matched.
        let err = Graph::dag(
            "bad",
            vec![
                (head.clone(), vec![NodeInput::GraphInput]),
                (layer.clone(), vec![NodeInput::Node(0)]),
            ],
        )
        .unwrap_err();
        assert!(names(&err, 1), "{layer:?}: {err}");
    }
}

/// The parameters are checked first, so neither the input nor the
/// weights (which a zero dimension could not even shape) matter.
#[test]
fn run_layer_rejects_degenerate_layers_under_every_policy() {
    let dev = Device::stm32_f767zi();
    let input = random::tensor_i8(&[2, 2, 2], 19);
    let weights = [
        LayerWeights::None,
        LayerWeights::Dense(random::tensor_i8(&[8, 8], 18)),
    ];
    for (layer, field) in degenerate_layers() {
        for kind in all_kinds() {
            for w in &weights {
                let result = Engine::new(dev.clone())
                    .planner(kind)
                    .run_layer("bad", &layer, w, &input);
                match result {
                    Err(EngineError::DegenerateLayer { layer: 0, error })
                        if error.field == field => {}
                    other => panic!(
                        "{kind:?} {layer:?}: expected DegenerateLayer `{field}`, got {other:?}"
                    ),
                }
            }
        }
    }
}
