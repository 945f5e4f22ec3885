//! Tensor-level baseline kernel bodies (in-place depthwise, im2col
//! staging) — TinyEngine, the paper's strongest baseline, and HMCOS.

use super::StagedLayer;
use crate::error::EngineError;
use vmcu_graph::LayerDesc;
use vmcu_kernels::tinyengine::{
    run_depthwise_te_inplace, run_ib_te, run_pointwise_te, TeIbLayout, TePointwiseLayout,
};
use vmcu_kernels::PointwiseParams;
use vmcu_sim::Machine;
use vmcu_tensor::Tensor;

/// The tensor-level body of one single-input layer — TinyEngine's, and
/// HMCOS's too (HMCOS is a scheduling policy and contributes no kernels
/// of its own, §7). `executor` names the policy in typed errors.
pub(super) fn exec_layer(
    m: &mut Machine,
    layer: &LayerDesc,
    staged: StagedLayer,
    input: &Tensor<i8>,
    executor: &'static str,
) -> Result<Tensor<i8>, EngineError> {
    match layer {
        LayerDesc::Pointwise(_) | LayerDesc::Dense(_) => {
            // Dense is pointwise over M "pixels" of one column.
            let p = match *layer {
                LayerDesc::Pointwise(p) => p,
                LayerDesc::Dense(p) => PointwiseParams {
                    h: p.m,
                    w: 1,
                    c: p.k,
                    k: p.n,
                    seg: p.seg,
                    rq: p.rq,
                    clamp: p.clamp,
                },
                _ => unreachable!("the arm matches pointwise and dense layers"),
            };
            let w_base = staged.single(executor)?;
            let layout = TePointwiseLayout {
                input: 0,
                output: p.in_bytes(),
                im2col: p.in_bytes() + p.out_bytes(),
            };
            m.host_write_ram(layout.input, &input.as_bytes())?;
            run_pointwise_te(m, &p, 1, layout, w_base)?;
            let out = m.host_read_ram(layout.output, p.out_bytes())?;
            Ok(Tensor::from_bytes(&layer.out_shape(), &out))
        }
        LayerDesc::Depthwise(p) => {
            let w_base = staged.single(executor)?;
            m.host_write_ram(0, &input.as_bytes())?;
            // The ring sits past the whole buffer the output overwrites.
            let ring = p.in_bytes().max(p.out_bytes());
            run_depthwise_te_inplace(m, p, 0, ring, w_base)?;
            let out = m.host_read_ram(0, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.out_h(), p.out_w(), p.c], &out))
        }
        LayerDesc::Ib(p) => {
            let StagedLayer::Ib { w1, wdw, w2 } = staged else {
                return Err(EngineError::Unsupported {
                    kind: layer.kind(),
                    executor,
                });
            };
            let (layout, _end) = TeIbLayout::packed(p, 0);
            m.host_write_ram(layout.a, &input.as_bytes())?;
            run_ib_te(m, p, layout, w1, wdw, w2)?;
            let out = m.host_read_ram(layout.d, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.hw2(), p.hw2(), p.c_out], &out))
        }
        // Merges take two inputs; they never reach the single-input
        // layer body.
        LayerDesc::Conv2d(_) | LayerDesc::Add(_) | LayerDesc::Concat(_) => {
            Err(EngineError::Unsupported {
                kind: layer.kind(),
                executor,
            })
        }
    }
}
