//! Layer descriptors and per-layer weights.
//!
//! A [`LayerDesc`] is the graph-level view of one kernel invocation; it
//! wraps the parameter blocks from `vmcu-kernels` so planners, executors,
//! and the facade all agree on geometry and quantization. Merge layers
//! (residual add, channel concat) take two inputs and carry no weights.

use std::fmt;
use vmcu_kernels::fused_ib::{ib_exec_trace, ib_workspace_bytes};
use vmcu_kernels::merge::{add_exec_trace, concat_exec_trace};
use vmcu_kernels::params::{
    AddParams, ConcatParams, Conv2dParams, DepthwiseParams, FcParams, IbParams, PointwiseParams,
};
use vmcu_kernels::trace::{exec_distance, ExecEvent};
use vmcu_kernels::{ChainOp, IbScheme};
use vmcu_tensor::{random, Tensor};

/// One layer of a model graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerDesc {
    /// Pointwise (1×1) convolution.
    Pointwise(PointwiseParams),
    /// Dense 2D convolution.
    Conv2d(Conv2dParams),
    /// Depthwise convolution.
    Depthwise(DepthwiseParams),
    /// Fully-connected layer.
    Dense(FcParams),
    /// Fused inverted-bottleneck module.
    Ib(IbParams),
    /// Elementwise residual add (two same-shape inputs, no weights).
    Add(AddParams),
    /// Channel concatenation (two inputs, no weights).
    Concat(ConcatParams),
}

/// A layer parameter no kernel and no size formula is defined for,
/// found by [`LayerDesc::check_params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DegenerateLayer {
    /// The parameter (`h`, `stride`, `r`, `s3`, …).
    pub field: &'static str,
    /// Why it is rejected.
    pub reason: &'static str,
}

impl fmt::Display for DegenerateLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer parameter `{}` {}", self.field, self.reason)
    }
}

impl std::error::Error for DegenerateLayer {}

/// The layer a fused-chain or patch-stage operator runs as.
impl From<ChainOp> for LayerDesc {
    fn from(op: ChainOp) -> Self {
        match op {
            ChainOp::Pointwise(p) => LayerDesc::Pointwise(p),
            ChainOp::Depthwise(p) => LayerDesc::Depthwise(p),
            ChainOp::Conv2d(p) => LayerDesc::Conv2d(p),
            ChainOp::Dense(p) => LayerDesc::Dense(p),
        }
    }
}

impl LayerDesc {
    /// Human-readable kind.
    pub fn kind(&self) -> &'static str {
        match self {
            LayerDesc::Pointwise(_) => "pointwise",
            LayerDesc::Conv2d(_) => "conv2d",
            LayerDesc::Depthwise(_) => "depthwise",
            LayerDesc::Dense(_) => "dense",
            LayerDesc::Ib(_) => "inverted-bottleneck",
            LayerDesc::Add(_) => "add",
            LayerDesc::Concat(_) => "concat",
        }
    }

    /// Number of input tensors (2 for merges, 1 otherwise).
    pub fn arity(&self) -> usize {
        match self {
            LayerDesc::Add(_) | LayerDesc::Concat(_) => 2,
            _ => 1,
        }
    }

    /// Checks the geometry every kernel and every size formula assumes,
    /// computing no size itself: no zero dimension, segment or stride,
    /// no kernel larger than its padded input, and an inverted
    /// bottleneck with a unit projection stride (the only one its fused
    /// kernel runs) and an odd depthwise kernel (an even one shrinks the
    /// map by a pixel, so its residual add would pair misaligned
    /// pixels).
    ///
    /// # Errors
    ///
    /// Returns the first [`DegenerateLayer`] in field order.
    pub fn check_params(&self) -> Result<(), DegenerateLayer> {
        let bad = |field, reason| Err(DegenerateLayer { field, reason });
        let nonzero = |fields: &[(&'static str, usize)]| match fields.iter().find(|f| f.1 == 0) {
            Some(&(field, _)) => bad(field, "is zero"),
            None => Ok(()),
        };
        // A kernel extent `k` over `dim` input pixels padded by `pad` on
        // each side.
        let window = |field, k: usize, dim: usize, pad: usize| match pad
            .checked_mul(2)
            .and_then(|p| p.checked_add(dim))
        {
            None => bad("pad", "overflows the padded input"),
            Some(padded) if k > padded => bad(field, "is larger than its padded input"),
            Some(_) => Ok(()),
        };
        match self {
            LayerDesc::Pointwise(p) => nonzero(&[
                ("h", p.h),
                ("w", p.w),
                ("c", p.c),
                ("k", p.k),
                ("seg", p.seg),
            ]),
            LayerDesc::Dense(p) => nonzero(&[("m", p.m), ("k", p.k), ("n", p.n), ("seg", p.seg)]),
            LayerDesc::Conv2d(p) => {
                nonzero(&[
                    ("h", p.h),
                    ("w", p.w),
                    ("c", p.c),
                    ("k", p.k),
                    ("r", p.r),
                    ("s", p.s),
                    ("stride", p.stride),
                    ("seg", p.seg),
                ])?;
                window("r", p.r, p.h, p.pad)?;
                window("s", p.s, p.w, p.pad)
            }
            LayerDesc::Depthwise(p) => {
                nonzero(&[
                    ("h", p.h),
                    ("w", p.w),
                    ("c", p.c),
                    ("r", p.r),
                    ("s", p.s),
                    ("stride", p.stride),
                ])?;
                window("r", p.r, p.h, p.pad)?;
                window("s", p.s, p.w, p.pad)
            }
            LayerDesc::Ib(p) => {
                nonzero(&[
                    ("hw", p.hw),
                    ("c_in", p.c_in),
                    ("c_mid", p.c_mid),
                    ("c_out", p.c_out),
                    ("rs", p.rs),
                    ("s1", p.s1),
                    ("s2", p.s2),
                ])?;
                if p.s3 != 1 {
                    return bad("s3", "is not 1 (the fused kernel projects at unit stride)");
                }
                if p.rs % 2 == 0 {
                    return bad("rs", "is even (the depthwise output would lose a pixel)");
                }
                Ok(())
            }
            LayerDesc::Add(p) => nonzero(&[("h", p.h), ("w", p.w), ("c", p.c), ("seg", p.seg)]),
            LayerDesc::Concat(p) => {
                nonzero(&[("h", p.h), ("w", p.w), ("c_a", p.c_a), ("c_b", p.c_b)])
            }
        }
    }

    /// Whether this is a branch-merging layer.
    pub fn is_merge(&self) -> bool {
        self.arity() == 2
    }

    /// The fused-chain operator this layer runs as; `None` for inverted
    /// bottlenecks (already their own fused unit) and merges (a chain
    /// threads exactly one tensor).
    pub fn chain_op(&self) -> Option<ChainOp> {
        match self {
            LayerDesc::Pointwise(p) => Some(ChainOp::Pointwise(*p)),
            LayerDesc::Depthwise(p) => Some(ChainOp::Depthwise(*p)),
            LayerDesc::Conv2d(p) => Some(ChainOp::Conv2d(*p)),
            LayerDesc::Dense(p) => Some(ChainOp::Dense(*p)),
            LayerDesc::Ib(_) | LayerDesc::Add(_) | LayerDesc::Concat(_) => None,
        }
    }

    /// The dry-run store/free trace the layer's segment kernel emits
    /// (`scheme` picks an inverted bottleneck's workspace scheme): what
    /// the planners place its output by and `vmcu_verify` replays.
    pub fn exec_events(&self, scheme: IbScheme) -> Vec<ExecEvent> {
        if let Some(op) = self.chain_op() {
            return op.exec_events();
        }
        match self {
            LayerDesc::Ib(p) => ib_exec_trace(p, scheme),
            LayerDesc::Add(p) => add_exec_trace(p),
            LayerDesc::Concat(p) => concat_exec_trace(p),
            _ => unreachable!("chain operators return above"),
        }
    }

    /// The executable `bIn − bOut` distance the segment kernel runs the
    /// layer at: [`exec_distance`] of [`Self::exec_events`].
    pub fn exec_distance(&self, scheme: IbScheme) -> i64 {
        exec_distance(self.in_bytes(), self.exec_events(scheme))
    }

    /// Workspace bytes the segment kernel keeps beside its pool window:
    /// an inverted bottleneck's expanded rows or window under `scheme`,
    /// none for every other kind.
    pub fn workspace_bytes(&self, scheme: IbScheme) -> usize {
        match self {
            LayerDesc::Ib(p) => ib_workspace_bytes(p, scheme),
            _ => 0,
        }
    }

    /// Input activation bytes (summed over all inputs for merges).
    pub fn in_bytes(&self) -> usize {
        match self {
            LayerDesc::Pointwise(p) => p.in_bytes(),
            LayerDesc::Conv2d(p) => p.in_bytes(),
            LayerDesc::Depthwise(p) => p.in_bytes(),
            LayerDesc::Dense(p) => p.in_bytes(),
            LayerDesc::Ib(p) => p.in_bytes(),
            LayerDesc::Add(p) => p.in_bytes(),
            LayerDesc::Concat(p) => p.in_bytes(),
        }
    }

    /// Output activation bytes.
    pub fn out_bytes(&self) -> usize {
        match self {
            LayerDesc::Pointwise(p) => p.out_bytes(),
            LayerDesc::Conv2d(p) => p.out_bytes(),
            LayerDesc::Depthwise(p) => p.out_bytes(),
            LayerDesc::Dense(p) => p.out_bytes(),
            LayerDesc::Ib(p) => p.out_bytes(),
            LayerDesc::Add(p) => p.out_bytes(),
            LayerDesc::Concat(p) => p.out_bytes(),
        }
    }

    /// Input tensor shape (first input for merges; see
    /// [`LayerDesc::in_shapes`] for all of them).
    pub fn in_shape(&self) -> Vec<usize> {
        match self {
            LayerDesc::Pointwise(p) => vec![p.h, p.w, p.c],
            LayerDesc::Conv2d(p) => vec![p.h, p.w, p.c],
            LayerDesc::Depthwise(p) => vec![p.h, p.w, p.c],
            LayerDesc::Dense(p) => vec![p.m, p.k],
            LayerDesc::Ib(p) => vec![p.hw, p.hw, p.c_in],
            LayerDesc::Add(p) => vec![p.h, p.w, p.c],
            LayerDesc::Concat(p) => vec![p.h, p.w, p.c_a],
        }
    }

    /// Expected shape of every input, in slot order.
    pub fn in_shapes(&self) -> Vec<Vec<usize>> {
        match self {
            LayerDesc::Add(p) => vec![vec![p.h, p.w, p.c], vec![p.h, p.w, p.c]],
            LayerDesc::Concat(p) => {
                vec![vec![p.h, p.w, p.c_a], vec![p.h, p.w, p.c_b]]
            }
            _ => vec![self.in_shape()],
        }
    }

    /// Output tensor shape.
    pub fn out_shape(&self) -> Vec<usize> {
        match self {
            LayerDesc::Pointwise(p) => vec![p.h, p.w, p.k],
            LayerDesc::Conv2d(p) => vec![p.out_h(), p.out_w(), p.k],
            LayerDesc::Depthwise(p) => vec![p.out_h(), p.out_w(), p.c],
            LayerDesc::Dense(p) => vec![p.m, p.n],
            LayerDesc::Ib(p) => vec![p.hw2(), p.hw2(), p.c_out],
            LayerDesc::Add(p) => vec![p.h, p.w, p.c],
            LayerDesc::Concat(p) => vec![p.h, p.w, p.c_a + p.c_b],
        }
    }

    /// Weight bytes (resident in Flash).
    pub fn weight_bytes(&self) -> usize {
        match self {
            LayerDesc::Pointwise(p) => p.c * p.k,
            LayerDesc::Conv2d(p) => p.r * p.s * p.c * p.k,
            LayerDesc::Depthwise(p) => p.r * p.s * p.c,
            LayerDesc::Dense(p) => p.weight_bytes(),
            LayerDesc::Ib(p) => p.c_in * p.c_mid + p.rs * p.rs * p.c_mid + p.c_mid * p.c_out,
            LayerDesc::Add(_) | LayerDesc::Concat(_) => 0,
        }
    }

    /// The weight images this layer stages into Flash, in staging order:
    /// each image's name and shape. [`LayerWeights::random`] builds
    /// exactly these, and [`LayerWeights::shapes`] names a tensor's
    /// images the same way, so the two compare directly.
    pub fn weight_shapes(&self) -> Vec<(&'static str, Vec<usize>)> {
        match self {
            LayerDesc::Pointwise(p) => vec![("pointwise", vec![p.c, p.k])],
            LayerDesc::Conv2d(p) => vec![("conv2d", vec![p.r, p.s, p.c, p.k])],
            LayerDesc::Depthwise(p) => vec![("depthwise", vec![p.r, p.s, p.c])],
            LayerDesc::Dense(p) => vec![("dense", vec![p.k, p.n])],
            LayerDesc::Ib(p) => vec![
                ("w1", vec![p.c_in, p.c_mid]),
                ("wdw", vec![p.rs, p.rs, p.c_mid]),
                ("w2", vec![p.c_mid, p.c_out]),
            ],
            LayerDesc::Add(_) | LayerDesc::Concat(_) => Vec::new(),
        }
    }
}

/// Synthetic weights for one layer (deterministic per seed).
#[derive(Debug, Clone, PartialEq)]
pub enum LayerWeights {
    /// Pointwise `[C, K]`.
    Pointwise(Tensor<i8>),
    /// Conv2d `[R, S, C, K]`.
    Conv2d(Tensor<i8>),
    /// Depthwise `[R, S, C]`.
    Depthwise(Tensor<i8>),
    /// Dense `[K, N]`.
    Dense(Tensor<i8>),
    /// Inverted bottleneck: expand `[Cin, Cmid]`, depthwise
    /// `[R, S, Cmid]`, project `[Cmid, Cout]`.
    Ib {
        /// Expand weights.
        w1: Tensor<i8>,
        /// Depthwise weights.
        wdw: Tensor<i8>,
        /// Project weights.
        w2: Tensor<i8>,
    },
    /// No weights (merge layers).
    None,
}

impl LayerWeights {
    /// Generates deterministic weights for a layer: one tensor per
    /// [`LayerDesc::weight_shapes`] image, image `i` seeded `seed + i`.
    pub fn random(layer: &LayerDesc, seed: u64) -> Self {
        let shapes = layer.weight_shapes();
        let image = |i: usize| random::tensor_i8(&shapes[i].1, seed.wrapping_add(i as u64));
        match layer {
            LayerDesc::Pointwise(_) => LayerWeights::Pointwise(image(0)),
            LayerDesc::Conv2d(_) => LayerWeights::Conv2d(image(0)),
            LayerDesc::Depthwise(_) => LayerWeights::Depthwise(image(0)),
            LayerDesc::Dense(_) => LayerWeights::Dense(image(0)),
            LayerDesc::Ib(_) => LayerWeights::Ib {
                w1: image(0),
                wdw: image(1),
                w2: image(2),
            },
            LayerDesc::Add(_) | LayerDesc::Concat(_) => LayerWeights::None,
        }
    }

    /// Each weight image's name and shape, in staging order, named as
    /// [`LayerDesc::weight_shapes`] names them.
    pub fn shapes(&self) -> Vec<(&'static str, &[usize])> {
        match self {
            LayerWeights::Pointwise(t) => vec![("pointwise", t.shape())],
            LayerWeights::Conv2d(t) => vec![("conv2d", t.shape())],
            LayerWeights::Depthwise(t) => vec![("depthwise", t.shape())],
            LayerWeights::Dense(t) => vec![("dense", t.shape())],
            LayerWeights::Ib { w1, wdw, w2 } => {
                vec![("w1", w1.shape()), ("wdw", wdw.shape()), ("w2", w2.shape())]
            }
            LayerWeights::None => Vec::new(),
        }
    }

    /// Total weight bytes.
    pub fn bytes(&self) -> usize {
        match self {
            LayerWeights::Pointwise(t)
            | LayerWeights::Conv2d(t)
            | LayerWeights::Depthwise(t)
            | LayerWeights::Dense(t) => t.len(),
            LayerWeights::Ib { w1, wdw, w2 } => w1.len() + wdw.len() + w2.len(),
            LayerWeights::None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_tensor::Requant;

    #[test]
    fn shapes_are_consistent() {
        let l = LayerDesc::Pointwise(PointwiseParams::new(8, 8, 16, 24, Requant::identity()));
        assert_eq!(l.in_bytes(), 8 * 8 * 16);
        assert_eq!(l.out_bytes(), 8 * 8 * 24);
        assert_eq!(l.in_shape(), vec![8, 8, 16]);
        assert_eq!(l.out_shape(), vec![8, 8, 24]);
        assert_eq!(l.weight_bytes(), 16 * 24);
        assert_eq!(l.arity(), 1);
    }

    #[test]
    fn ib_weight_accounting() {
        let p = IbParams::new(20, 16, 48, 16, 3, (1, 1, 1));
        let l = LayerDesc::Ib(p);
        assert_eq!(l.weight_bytes(), 16 * 48 + 9 * 48 + 48 * 16);
        let w = LayerWeights::random(&l, 3);
        assert_eq!(w.bytes(), l.weight_bytes());
    }

    #[test]
    fn random_weights_have_the_layer_weight_shapes() {
        let rq = Requant::identity();
        let layers = [
            LayerDesc::Pointwise(PointwiseParams::new(8, 8, 16, 24, rq)),
            LayerDesc::Conv2d(Conv2dParams::new(8, 8, 3, 5, 3, 3, 1, 1, rq)),
            LayerDesc::Depthwise(DepthwiseParams::new(8, 8, 6, 3, 3, 1, 1, rq)),
            LayerDesc::Dense(FcParams::new(4, 8, 10, rq)),
            LayerDesc::Ib(IbParams::new(20, 16, 48, 24, 3, (1, 1, 1))),
            LayerDesc::Add(AddParams::new(8, 8, 4)),
            LayerDesc::Concat(ConcatParams::new(8, 8, 6, 10)),
        ];
        for l in &layers {
            let w = LayerWeights::random(l, 5);
            let shapes: Vec<(&str, Vec<usize>)> = w
                .shapes()
                .into_iter()
                .map(|(name, shape)| (name, shape.to_vec()))
                .collect();
            assert_eq!(shapes, l.weight_shapes(), "{}", l.kind());
            assert_eq!(w.bytes(), l.weight_bytes(), "{}", l.kind());
        }
        // Image `i` is seeded `seed + i`.
        let LayerDesc::Ib(p) = &layers[4] else {
            unreachable!()
        };
        let LayerWeights::Ib { w1, wdw, w2 } = LayerWeights::random(&layers[4], 5) else {
            unreachable!()
        };
        assert_eq!(w1, random::tensor_i8(&[p.c_in, p.c_mid], 5));
        assert_eq!(wdw, random::tensor_i8(&[p.rs, p.rs, p.c_mid], 6));
        assert_eq!(w2, random::tensor_i8(&[p.c_mid, p.c_out], 7));
    }

    #[test]
    fn weights_are_deterministic() {
        let l = LayerDesc::Dense(FcParams::new(4, 8, 8, Requant::identity()));
        assert_eq!(LayerWeights::random(&l, 9), LayerWeights::random(&l, 9));
        assert_ne!(LayerWeights::random(&l, 9), LayerWeights::random(&l, 10));
    }

    #[test]
    fn merge_layers_have_two_inputs_and_no_weights() {
        let add = LayerDesc::Add(AddParams::new(8, 8, 4));
        assert_eq!(add.arity(), 2);
        assert!(add.is_merge());
        assert_eq!(add.weight_bytes(), 0);
        assert_eq!(add.in_bytes(), 2 * 8 * 8 * 4);
        assert_eq!(add.out_shape(), vec![8, 8, 4]);
        assert_eq!(LayerWeights::random(&add, 1), LayerWeights::None);

        let cat = LayerDesc::Concat(ConcatParams::new(8, 8, 6, 10));
        assert_eq!(cat.in_shapes(), vec![vec![8, 8, 6], vec![8, 8, 10]]);
        assert_eq!(cat.out_shape(), vec![8, 8, 16]);
        assert_eq!(cat.out_bytes(), 8 * 8 * 16);
    }
}
