//! # vmcu-kernels — segment-aware kernels and baselines
//!
//! The §5/§6 layer of the vMCU reproduction:
//!
//! * [`intrinsics`] — the compute intrinsics (`Dot`, `Broadcast`,
//!   requantization epilogue) executing real int8 arithmetic on the
//!   simulated machine while charging modelled costs;
//! * [`fc`], [`pointwise`], [`conv2d`], [`depthwise`] — single-layer
//!   segment-aware kernels (Figures 4 and 5) running against the circular
//!   [`vmcu_pool::SegmentPool`], each paired with a dry-run trace that
//!   tells the planner the exact pointer distance the implementation
//!   needs ([`ChainOp::exec_events`] picks it);
//! * [`fused_ib`] — the fused inverted-bottleneck kernel (Figure 6) in
//!   both workspace schemes;
//! * [`fused_chain`] — the generalized multi-layer fused chain kernel
//!   (line-buffer rings per intermediate, one pool window end to end);
//! * [`merge`] — branch-merging kernels (elementwise residual add,
//!   channel concat) that free operand slices as they are consumed so
//!   the fused output overlaps the dying inputs;
//! * [`patched`] — patch-based front-stage execution: spatial tiles of
//!   the output run through the single-layer kernels slice by slice,
//!   with receptive-field halos recomputed (and charged) honestly;
//! * [`tinyengine`] — the TinyEngine-policy baseline kernels (tensor-level
//!   memory, im2col, fixed-depth unrolling, in-place depthwise);
//! * [`trace`] — the executable-schedule trace machinery, the
//!   free-based distance bound and the pool window it implies;
//! * [`params`] — shared layer parameter blocks.
//!
//! Every kernel is tested bit-exact against `vmcu_tensor::reference`, and
//! every planner distance is validated empirically: kernels run clean at
//! the planned offset, and one byte closer they clobber deterministically
//! when the distance is tight — when the store that sets it lands on the
//! first unfreed input byte. A distance set by a store after the last
//! free only keeps the output inside the window (see [`trace`]).

pub mod conv2d;
pub mod depthwise;
pub mod fc;
pub mod fused_chain;
pub mod fused_ib;
pub mod intrinsics;
pub mod merge;
pub mod params;
pub mod patched;
pub mod pointwise;
pub mod tinyengine;
pub mod trace;

pub use fused_chain::{ChainOp, FusedChain};
pub use fused_ib::{IbFlash, IbScheme};
pub use merge::{run_add, run_concat};
pub use params::{
    AddParams, ConcatParams, Conv2dParams, DepthwiseParams, FcParams, IbParams, PointwiseParams,
};
pub use patched::{PatchGrid, PatchedFront};
