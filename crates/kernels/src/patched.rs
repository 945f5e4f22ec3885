//! Patch-based front-stage execution — the MCUNetV2/Pex idea applied to
//! the segment pool.
//!
//! The memory bottleneck of CNN front stages is *spatial*: the first few
//! high-resolution layers carry activations larger than the whole device
//! SRAM, and no amount of pointer overlap or chain fusion helps when the
//! **input tensor itself** exceeds RAM. Patch-based execution splits the
//! front stage's output into a grid of spatial tiles and computes each
//! tile independently: the tile's receptive field is propagated backward
//! through the front layers ([`input_region`]) to find the input slab it
//! needs — the slab extends past the tile by a *halo* of rows/columns
//! that neighboring tiles recompute. Each per-patch layer slice runs
//! through the **existing** segment-aware kernels ([`crate::pointwise`],
//! [`crate::depthwise`], [`crate::conv2d`]) with the layer's implicit
//! zero padding materialized as explicit zeros in the slab (bit-exact:
//! a zero contribution is a zero contribution either way), so the peak
//! pool window shrinks from the full-tensor footprint to the largest
//! *slab* footprint.
//!
//! The price is honesty-charged recompute: halo rows are computed once
//! per neighboring patch, and every extra MAC runs on the simulated
//! machine — [`PatchedFront::halo_overhead`] reports the exact ratio the
//! planner's overhead cap (`vmcu_plan::patch`) constrains.

use crate::conv2d::run_conv2d;
use crate::depthwise::run_depthwise;
use crate::fused_chain::ChainOp;
use crate::pointwise::run_pointwise;
use crate::trace::pool_window;
use std::fmt;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::Machine;
use vmcu_tensor::Tensor;

/// Number of patches along each spatial axis of the front-stage output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatchGrid {
    /// Patch rows.
    pub gy: usize,
    /// Patch columns.
    pub gx: usize,
}

impl PatchGrid {
    /// Total number of patches.
    pub fn patches(&self) -> usize {
        self.gy * self.gx
    }
}

impl fmt::Display for PatchGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.gy, self.gx)
    }
}

/// A half-open 2-D region `[y0, y1) × [x0, x1)` in row/column
/// coordinates of one tensor. Coordinates may run past the tensor (or
/// below zero): out-of-range rows/columns stand for the layer's implicit
/// zero padding, which patch execution materializes as explicit zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First row.
    pub y0: i64,
    /// One past the last row.
    pub y1: i64,
    /// First column.
    pub x0: i64,
    /// One past the last column.
    pub x1: i64,
}

impl Region {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        (self.y1 - self.y0) as usize
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        (self.x1 - self.x0) as usize
    }

    /// The in-range part of the region for an `h × w` tensor.
    pub fn clamp(&self, h: usize, w: usize) -> Region {
        Region {
            y0: self.y0.max(0),
            y1: self.y1.min(h as i64),
            x0: self.x0.max(0),
            x1: self.x1.min(w as i64),
        }
    }
}

/// Spatial sliding-window geometry of an operator:
/// `(window rows, window cols, stride, pad)`. `None` for operators with
/// no spatial axes (fully-connected).
fn spatial_window(op: &ChainOp) -> Option<(usize, usize, usize, usize)> {
    match op {
        ChainOp::Pointwise(_) => Some((1, 1, 1, 0)),
        ChainOp::Depthwise(p) => Some((p.r, p.s, p.stride, p.pad)),
        ChainOp::Conv2d(p) => Some((p.r, p.s, p.stride, p.pad)),
        ChainOp::Dense(_) => None,
    }
}

/// Input `(rows, cols, channels)` of a spatial operator.
fn in_dims(op: &ChainOp) -> (usize, usize, usize) {
    match op {
        ChainOp::Pointwise(p) => (p.h, p.w, p.c),
        ChainOp::Depthwise(p) => (p.h, p.w, p.c),
        ChainOp::Conv2d(p) => (p.h, p.w, p.c),
        ChainOp::Dense(_) => unreachable!("patched fronts hold spatial operators only"),
    }
}

/// Output `(rows, cols, channels)` of a spatial operator.
fn out_dims(op: &ChainOp) -> (usize, usize, usize) {
    match op {
        ChainOp::Pointwise(p) => (p.h, p.w, p.k),
        ChainOp::Depthwise(p) => (p.out_h(), p.out_w(), p.c),
        ChainOp::Conv2d(p) => (p.out_h(), p.out_w(), p.k),
        ChainOp::Dense(_) => unreachable!("patched fronts hold spatial operators only"),
    }
}

/// The **halo computation**: the (unclamped) input region an operator
/// reads to produce the output region `out`. Coordinates below zero or
/// past the input extent stand for the operator's implicit zero padding.
///
/// # Examples
///
/// ```
/// use vmcu_kernels::patched::{input_region, Region};
/// use vmcu_kernels::{ChainOp, DepthwiseParams};
/// use vmcu_tensor::Requant;
///
/// // A 3×3 stride-2 pad-1 depthwise window: output rows [0, 12) read
/// // input rows [-1, 24) — one zero-halo row above, 23 real rows below.
/// let dw = ChainOp::Depthwise(DepthwiseParams::new(
///     48, 48, 8, 3, 3, 2, 1, Requant::identity(),
/// ));
/// let need = input_region(&dw, &Region { y0: 0, y1: 12, x0: 0, x1: 12 });
/// assert_eq!((need.y0, need.y1), (-1, 24));
/// assert_eq!((need.x0, need.x1), (-1, 24));
/// ```
///
/// # Panics
///
/// Panics for operators with no spatial axes (fully-connected).
pub fn input_region(op: &ChainOp, out: &Region) -> Region {
    let (r, s, stride, pad) = spatial_window(op).expect("spatial operator");
    let (r, s, stride, pad) = (r as i64, s as i64, stride as i64, pad as i64);
    Region {
        y0: out.y0 * stride - pad,
        y1: (out.y1 - 1) * stride + r - pad,
        x0: out.x0 * stride - pad,
        x1: (out.x1 - 1) * stride + s - pad,
    }
}

/// Slices an operator to a patch whose (zero-materialized) input slab
/// covers `rows × cols`: geometry shrinks, padding folds into the slab
/// (`pad = 0`), channels / stride / quantization stay untouched.
///
/// # Panics
///
/// Panics for operators with no spatial axes (fully-connected).
pub fn slice_to_slab(op: &ChainOp, rows: usize, cols: usize) -> ChainOp {
    match op {
        ChainOp::Pointwise(p) => {
            let mut s = *p;
            s.h = rows;
            s.w = cols;
            ChainOp::Pointwise(s)
        }
        ChainOp::Depthwise(p) => {
            let mut s = *p;
            s.h = rows;
            s.w = cols;
            s.pad = 0;
            ChainOp::Depthwise(s)
        }
        ChainOp::Conv2d(p) => {
            let mut s = *p;
            s.h = rows;
            s.w = cols;
            s.pad = 0;
            ChainOp::Conv2d(s)
        }
        ChainOp::Dense(_) => unreachable!("patched fronts hold spatial operators only"),
    }
}

/// MACs the segment kernels charge for `op` (implicit-padding taps
/// skipped, exactly as the kernel loops skip them). Sliced operators
/// have `pad = 0`, so every tap — including taps on materialized zero
/// halo — counts, which is precisely what executes.
pub fn op_macs(op: &ChainOp) -> u64 {
    match op {
        ChainOp::Pointwise(p) => p.macs(),
        ChainOp::Conv2d(p) => p.macs(),
        ChainOp::Dense(p) => p.macs(),
        ChainOp::Depthwise(p) => p.macs(),
    }
}

/// Error from patched-front construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The operator at `index` has no spatial axes to patch over.
    NotSpatial {
        /// Operator index within the front.
        index: usize,
        /// Operator kind.
        kind: &'static str,
    },
    /// Consecutive operators whose `(rows, cols, channels)` do not
    /// compose.
    ShapeMismatch {
        /// Index of the operator whose input does not match.
        index: usize,
        /// Dims the predecessor produces.
        produced: (usize, usize, usize),
        /// Dims this operator expects.
        expected: (usize, usize, usize),
    },
    /// More patches than output rows/columns along some axis.
    GridTooFine {
        /// The requested grid.
        grid: PatchGrid,
        /// Front-stage output rows.
        out_h: usize,
        /// Front-stage output columns.
        out_w: usize,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotSpatial { index, kind } => {
                write!(f, "front op {index} ({kind}) has no spatial axes to patch")
            }
            PatchError::ShapeMismatch {
                index,
                produced,
                expected,
            } => write!(
                f,
                "front op {index} expects {expected:?} (rows, cols, channels) \
                 but predecessor produces {produced:?}"
            ),
            PatchError::GridTooFine { grid, out_h, out_w } => write!(
                f,
                "grid {grid} exceeds the {out_h}x{out_w} front-stage output"
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// One per-patch stage: a sliced operator plus where its slab and
/// produced block sit in the original tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchStage {
    /// The sliced operator (padding folded into the slab).
    pub op: ChainOp,
    /// Input slab extent in the stage-input tensor (unclamped;
    /// out-of-range rows/columns are materialized zeros).
    pub slab: Region,
    /// Output region this stage produces, in the stage-output tensor
    /// (always in range).
    pub out: Region,
}

/// A validated front stage (a run of spatial operators from the graph
/// input) and the patch grid it executes under.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchedFront {
    ops: Vec<ChainOp>,
    grid: PatchGrid,
}

impl PatchedFront {
    /// Builds a patched front, validating that every operator is spatial,
    /// consecutive shapes compose, and the grid is no finer than the
    /// front-stage output.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError`] naming the offending operator or grid.
    ///
    /// # Panics
    ///
    /// Panics on an empty operator list.
    pub fn new(ops: Vec<ChainOp>, grid: PatchGrid) -> Result<Self, PatchError> {
        assert!(!ops.is_empty(), "a patched front needs at least one op");
        for (i, op) in ops.iter().enumerate() {
            if spatial_window(op).is_none() {
                return Err(PatchError::NotSpatial {
                    index: i,
                    kind: op.kind(),
                });
            }
        }
        for i in 1..ops.len() {
            let produced = out_dims(&ops[i - 1]);
            let expected = in_dims(&ops[i]);
            if produced != expected {
                return Err(PatchError::ShapeMismatch {
                    index: i,
                    produced,
                    expected,
                });
            }
        }
        let (out_h, out_w, _) = out_dims(ops.last().expect("non-empty front"));
        if grid.gy == 0 || grid.gx == 0 || grid.gy > out_h || grid.gx > out_w {
            return Err(PatchError::GridTooFine { grid, out_h, out_w });
        }
        Ok(Self { ops, grid })
    }

    /// The front operators in execution order.
    pub fn ops(&self) -> &[ChainOp] {
        &self.ops
    }

    /// The patch grid.
    pub fn grid(&self) -> PatchGrid {
        self.grid
    }

    /// Front input `(rows, cols, channels)`.
    pub fn in_dims(&self) -> (usize, usize, usize) {
        in_dims(&self.ops[0])
    }

    /// Front output `(rows, cols, channels)`.
    ///
    /// # Panics
    ///
    /// Panics if the front is empty — construction requires at least
    /// one op.
    pub fn out_dims(&self) -> (usize, usize, usize) {
        out_dims(self.ops.last().expect("non-empty front"))
    }

    /// Output tile of patch `(ty, tx)`; the tiles partition the
    /// front-stage output exactly.
    pub fn out_tile(&self, ty: usize, tx: usize) -> Region {
        let (oh, ow, _) = self.out_dims();
        Region {
            y0: (ty * oh / self.grid.gy) as i64,
            y1: ((ty + 1) * oh / self.grid.gy) as i64,
            x0: (tx * ow / self.grid.gx) as i64,
            x1: ((tx + 1) * ow / self.grid.gx) as i64,
        }
    }

    /// The per-stage slices of patch `(ty, tx)`: receptive-field regions
    /// are propagated backward from the output tile, then each operator
    /// is sliced to its (zero-materialized) input slab.
    pub fn patch_stages(&self, ty: usize, tx: usize) -> Vec<PatchStage> {
        let k = self.ops.len();
        // outs[i] = in-range region of tensor i+1 that stage i produces.
        let mut outs = vec![self.out_tile(ty, tx); k];
        for i in (0..k - 1).rev() {
            let raw = input_region(&self.ops[i + 1], &outs[i + 1]);
            let (h, w, _) = in_dims(&self.ops[i + 1]);
            outs[i] = raw.clamp(h, w);
        }
        (0..k)
            .map(|i| {
                let slab = input_region(&self.ops[i], &outs[i]);
                PatchStage {
                    op: slice_to_slab(&self.ops[i], slab.rows(), slab.cols()),
                    slab,
                    out: outs[i],
                }
            })
            .collect()
    }

    /// MACs of the unpatched front (what a whole-tensor execution
    /// charges).
    pub fn unpatched_macs(&self) -> u64 {
        self.ops.iter().map(op_macs).sum()
    }

    /// MACs the patched execution charges: every patch's sliced
    /// operators, halo rows and materialized-zero taps included.
    pub fn patched_macs(&self) -> u64 {
        let mut total = 0u64;
        for ty in 0..self.grid.gy {
            for tx in 0..self.grid.gx {
                total += self
                    .patch_stages(ty, tx)
                    .iter()
                    .map(|s| op_macs(&s.op))
                    .sum::<u64>();
            }
        }
        total
    }

    /// Fraction of extra MACs the halo recompute costs over the
    /// unpatched front (`0.04` = 4% more work).
    pub fn halo_overhead(&self) -> f64 {
        let unpatched = self.unpatched_macs();
        if unpatched == 0 {
            return 0.0;
        }
        self.patched_macs() as f64 / unpatched as f64 - 1.0
    }
}

/// Extracts region `r` of an `h × w × c` row-major byte tensor,
/// materializing zeros where `r` runs past the tensor.
fn extract_region(src: &[u8], h: usize, w: usize, c: usize, r: &Region) -> Vec<u8> {
    let (rh, rw) = (r.rows(), r.cols());
    let mut out = vec![0u8; rh * rw * c];
    let x_lo = r.x0.max(0);
    let x_hi = r.x1.min(w as i64);
    if x_lo >= x_hi {
        return out;
    }
    let span = (x_hi - x_lo) as usize * c;
    for dy in 0..rh {
        let sy = r.y0 + dy as i64;
        if sy < 0 || sy >= h as i64 {
            continue;
        }
        let src_off = (sy as usize * w + x_lo as usize) * c;
        let dst_off = (dy * rw + (x_lo - r.x0) as usize) * c;
        out[dst_off..dst_off + span].copy_from_slice(&src[src_off..src_off + span]);
    }
    out
}

/// Pastes a `bh × bw × c` block into a destination of row width `dw`
/// at `(y_off, x_off)`.
fn paste_block(
    dst: &mut [u8],
    dw: usize,
    c: usize,
    block: &[u8],
    (bh, bw): (usize, usize),
    (y_off, x_off): (usize, usize),
) {
    for by in 0..bh {
        let src_off = by * bw * c;
        let dst_off = ((y_off + by) * dw + x_off) * c;
        dst[dst_off..dst_off + bw * c].copy_from_slice(&block[src_off..src_off + bw * c]);
    }
}

/// Runs one sliced operator through its segment-aware kernel on a fresh
/// pool window (the same window the planner prices) at executable
/// distance `d`, returning the produced bytes.
fn run_sliced(
    m: &mut Machine,
    op: &ChainOp,
    d: i64,
    input: &[u8],
    w_base: usize,
) -> Result<Vec<u8>, PoolError> {
    let mut pool = SegmentPool::new(m, 0, pool_window(op.in_bytes(), op.out_bytes(), d))?;
    pool.host_fill_live(m, 0, input)?;
    match op {
        ChainOp::Pointwise(p) => run_pointwise(m, &mut pool, p, 0, -d, w_base)?,
        ChainOp::Depthwise(p) => run_depthwise(m, &mut pool, p, 0, -d, w_base)?,
        ChainOp::Conv2d(p) => run_conv2d(m, &mut pool, p, 0, -d, w_base)?,
        ChainOp::Dense(_) => unreachable!("patched fronts hold spatial operators only"),
    }
    pool.host_read(m, -d, op.out_bytes())
}

impl PatchedFront {
    /// The executable distance each sliced operator runs at
    /// ([`ChainOp::exec_distance`]): `[t][i]` for stage `i` of patch
    /// `t = ty·gx + tx` — what [`run_patched_front`] takes, so a
    /// deployment derives them once instead of per inference.
    pub fn stage_distances(&self) -> Vec<Vec<i64>> {
        (0..self.grid.gy)
            .flat_map(|ty| (0..self.grid.gx).map(move |tx| (ty, tx)))
            .map(|(ty, tx)| {
                self.patch_stages(ty, tx)
                    .iter()
                    .map(|s| s.op.exec_distance())
                    .collect()
            })
            .collect()
    }
}

/// Runs the patched front: each output tile's receptive field is staged
/// (zero halo included), pushed through the existing segment kernels
/// slice by slice, and stitched into the front output — bit-exact
/// against the unpatched execution, with every halo-recompute MAC
/// charged to the machine.
///
/// * model input as a host tensor (re-staged per patch, matching the
///   engine's layer-at-a-time convention),
/// * per-operator weights in Flash at `flash[i]` (programmed once,
///   shared by every patch),
/// * every sliced operator's executable distance, as
///   [`PatchedFront::stage_distances`] lists them.
///
/// # Errors
///
/// Propagates pool violations (planner/kernel disagreement, including a
/// distance too small for its slice) and memory errors.
///
/// # Panics
///
/// Panics when `flash` does not name one base per operator, the input
/// shape does not match the front, or `distances` does not name one
/// distance per patch stage.
pub fn run_patched_front(
    m: &mut Machine,
    front: &PatchedFront,
    input: &Tensor<i8>,
    flash: &[usize],
    distances: &[Vec<i64>],
) -> Result<Tensor<i8>, PoolError> {
    assert_eq!(
        flash.len(),
        front.ops.len(),
        "one flash base per front operator"
    );
    assert_eq!(
        distances.len(),
        front.grid.patches(),
        "one distance list per patch"
    );
    let (ih, iw, ic) = front.in_dims();
    assert_eq!(input.shape(), [ih, iw, ic], "front input shape mismatch");
    let (oh, ow, oc) = front.out_dims();
    let in_bytes = input.as_bytes();
    let mut out = vec![0u8; oh * ow * oc];
    for ty in 0..front.grid.gy {
        for tx in 0..front.grid.gx {
            let stages = front.patch_stages(ty, tx);
            let stage_d = &distances[ty * front.grid.gx + tx];
            assert_eq!(stage_d.len(), stages.len(), "one distance per stage");
            let mut cur = extract_region(&in_bytes, ih, iw, ic, &stages[0].slab);
            for (i, stage) in stages.iter().enumerate() {
                let block = run_sliced(m, &stage.op, stage_d[i], &cur, flash[i])?;
                let (_, _, c) = out_dims(&stage.op);
                match stages.get(i + 1) {
                    Some(next) => {
                        // Re-stage: the produced block becomes the
                        // in-range part of the next stage's slab, zeros
                        // fill the halo that crosses the tensor border.
                        let mut slab = vec![0u8; next.slab.rows() * next.slab.cols() * c];
                        paste_block(
                            &mut slab,
                            next.slab.cols(),
                            c,
                            &block,
                            (stage.out.rows(), stage.out.cols()),
                            (
                                (stage.out.y0 - next.slab.y0) as usize,
                                (stage.out.x0 - next.slab.x0) as usize,
                            ),
                        );
                        cur = slab;
                    }
                    None => paste_block(
                        &mut out,
                        ow,
                        oc,
                        &block,
                        (stage.out.rows(), stage.out.cols()),
                        (stage.out.y0 as usize, stage.out.x0 as usize),
                    ),
                }
            }
        }
    }
    Ok(Tensor::from_bytes(&[oh, ow, oc], &out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Conv2dParams, DepthwiseParams, FcParams, PointwiseParams};
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant};

    fn rq() -> Requant {
        Requant::from_scale(1.0 / 32.0, 0)
    }

    fn pw(h: usize, c: usize, k: usize, relu: bool) -> ChainOp {
        let mut p = PointwiseParams::new(h, h, c, k, rq());
        if relu {
            p.clamp = (0, 127);
        }
        ChainOp::Pointwise(p)
    }

    fn dw(h: usize, c: usize, rs: usize, stride: usize, relu: bool) -> ChainOp {
        let mut p = DepthwiseParams::new(h, h, c, rs, rs, stride, (rs - 1) / 2, rq());
        if relu {
            p.clamp = (0, 127);
        }
        ChainOp::Depthwise(p)
    }

    fn weights_for(ops: &[ChainOp]) -> Vec<Tensor<i8>> {
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let seed = 140 + i as u64;
                match op {
                    ChainOp::Pointwise(p) => random::tensor_i8(&[p.c, p.k], seed),
                    ChainOp::Depthwise(p) => random::tensor_i8(&[p.r, p.s, p.c], seed),
                    ChainOp::Conv2d(p) => random::tensor_i8(&[p.r, p.s, p.c, p.k], seed),
                    ChainOp::Dense(p) => random::tensor_i8(&[p.k, p.n], seed),
                }
            })
            .collect()
    }

    /// Oracle: the unpatched front through the reference operators.
    fn front_reference(ops: &[ChainOp], weights: &[Tensor<i8>], input: &Tensor<i8>) -> Tensor<i8> {
        let mut cur = input.clone();
        for (op, w) in ops.iter().zip(weights) {
            cur = match op {
                ChainOp::Pointwise(p) => reference::pointwise(&cur, w, None, 1, p.rq, p.clamp),
                ChainOp::Depthwise(p) => {
                    reference::depthwise(&cur, w, None, p.stride, p.pad, p.rq, p.clamp)
                }
                ChainOp::Conv2d(p) => {
                    reference::conv2d(&cur, w, None, p.stride, p.pad, p.rq, p.clamp)
                }
                ChainOp::Dense(p) => reference::dense(&cur, w, None, p.rq, p.clamp),
            };
        }
        cur
    }

    fn run_case(ops: Vec<ChainOp>, grid: PatchGrid) -> (Tensor<i8>, Tensor<i8>, Machine) {
        let front = PatchedFront::new(ops, grid).unwrap();
        let (ih, iw, ic) = front.in_dims();
        let input = random::tensor_i8(&[ih, iw, ic], 77);
        let weights = weights_for(front.ops());
        let mut m = Machine::new(Device::stm32_f767zi());
        let flash: Vec<usize> = weights
            .iter()
            .map(|w| m.host_program_flash(&w.as_bytes()).unwrap())
            .collect();
        let distances = front.stage_distances();
        let got = run_patched_front(&mut m, &front, &input, &flash, &distances).unwrap();
        let want = front_reference(front.ops(), &weights, &input);
        (got, want, m)
    }

    #[test]
    fn single_pointwise_patch_matches_reference() {
        let (got, want, _) = run_case(vec![pw(12, 4, 8, false)], PatchGrid { gy: 3, gx: 2 });
        assert_eq!(got, want);
    }

    #[test]
    fn padded_depthwise_front_matches_reference_on_border_patches() {
        // pad 1 with a 2x2 grid: every patch touches two image borders,
        // exercising the materialized zero halo.
        let (got, want, _) = run_case(
            vec![pw(10, 4, 12, true), dw(10, 12, 3, 1, true)],
            PatchGrid { gy: 2, gx: 2 },
        );
        assert_eq!(got, want);
    }

    #[test]
    fn strided_downsampling_front_matches_reference() {
        // The MCUNetV2 shape: strided depthwise + pointwise, twice.
        let ops = vec![
            dw(16, 4, 3, 2, true),
            pw(8, 4, 8, true),
            dw(8, 8, 3, 2, true),
            pw(4, 8, 6, false),
        ];
        for grid in [
            PatchGrid { gy: 1, gx: 1 },
            PatchGrid { gy: 2, gx: 2 },
            PatchGrid { gy: 4, gx: 2 },
            PatchGrid { gy: 3, gx: 4 },
        ] {
            let (got, want, _) = run_case(ops.clone(), grid);
            assert_eq!(got, want, "grid {grid}");
        }
    }

    #[test]
    fn conv2d_front_matches_reference() {
        let mut conv = Conv2dParams::new(9, 9, 3, 6, 3, 3, 2, 1, rq());
        conv.clamp = (0, 127);
        let (got, want, _) = run_case(
            vec![ChainOp::Conv2d(conv), pw(5, 6, 4, false)],
            PatchGrid { gy: 2, gx: 3 },
        );
        assert_eq!(got, want);
    }

    #[test]
    fn large_window_depthwise_matches_reference() {
        // 7x7 window, pad 3: the halo spans several rows in every
        // direction and dominates small patches.
        let (got, want, _) = run_case(vec![dw(11, 3, 7, 1, false)], PatchGrid { gy: 3, gx: 3 });
        assert_eq!(got, want);
    }

    #[test]
    fn halo_recompute_macs_are_charged_to_the_machine() {
        let ops = vec![pw(12, 4, 8, true), dw(12, 8, 3, 1, true)];
        let fine = PatchedFront::new(ops.clone(), PatchGrid { gy: 4, gx: 4 }).unwrap();
        let (_, _, m_coarse) = run_case(ops.clone(), PatchGrid { gy: 1, gx: 1 });
        let (_, _, m_fine) = run_case(ops, PatchGrid { gy: 4, gx: 4 });
        assert!(
            m_fine.counters.macs > m_coarse.counters.macs,
            "finer grids must charge the halo recompute"
        );
        // The accounting surface and the machine agree exactly.
        assert_eq!(m_fine.counters.macs, fine.patched_macs());
        assert!(fine.halo_overhead() > 0.0);
    }

    #[test]
    fn tiles_partition_the_output() {
        let front =
            PatchedFront::new(vec![dw(10, 4, 3, 2, false)], PatchGrid { gy: 3, gx: 2 }).unwrap();
        let (oh, ow, _) = front.out_dims();
        let mut covered = vec![false; oh * ow];
        for ty in 0..3 {
            for tx in 0..2 {
                let t = front.out_tile(ty, tx);
                for y in t.y0..t.y1 {
                    for x in t.x0..t.x1 {
                        let cell = &mut covered[y as usize * ow + x as usize];
                        assert!(!*cell, "tile overlap at ({y}, {x})");
                        *cell = true;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "tiles must cover the output");
    }

    #[test]
    fn stages_compose_regions_consistently() {
        let front = PatchedFront::new(
            vec![
                dw(16, 4, 3, 2, true),
                pw(8, 4, 8, true),
                dw(8, 8, 3, 1, false),
            ],
            PatchGrid { gy: 2, gx: 2 },
        )
        .unwrap();
        for ty in 0..2 {
            for tx in 0..2 {
                let stages = front.patch_stages(ty, tx);
                for (i, stage) in stages.iter().enumerate() {
                    // Sliced output dims equal the produced region.
                    let (sh, sw, _) = out_dims(&stage.op);
                    assert_eq!((sh, sw), (stage.out.rows(), stage.out.cols()));
                    // The produced region is the in-range part of the
                    // next stage's slab (what the halo zeros wrap).
                    if let Some(next) = stages.get(i + 1) {
                        let (h, w, _) = out_dims(&front.ops()[i]);
                        assert_eq!(stage.out, next.slab.clamp(h, w));
                    }
                }
                // Last stage produces the tile exactly.
                assert_eq!(stages.last().unwrap().out, front.out_tile(ty, tx));
            }
        }
    }

    #[test]
    fn dense_ops_are_rejected() {
        let err = PatchedFront::new(
            vec![ChainOp::Dense(FcParams::new(4, 8, 8, rq()))],
            PatchGrid { gy: 1, gx: 1 },
        )
        .unwrap_err();
        assert!(matches!(err, PatchError::NotSpatial { index: 0, .. }));
        assert!(err.to_string().contains("no spatial axes"));
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let err = PatchedFront::new(
            vec![pw(8, 4, 8, false), pw(8, 16, 4, false)],
            PatchGrid { gy: 1, gx: 1 },
        )
        .unwrap_err();
        assert!(matches!(err, PatchError::ShapeMismatch { index: 1, .. }));
    }

    #[test]
    fn too_fine_grids_are_rejected() {
        let err =
            PatchedFront::new(vec![dw(8, 4, 3, 2, false)], PatchGrid { gy: 5, gx: 1 }).unwrap_err();
        assert!(matches!(err, PatchError::GridTooFine { .. }));
    }

    #[test]
    fn grid_one_by_one_charges_no_halo() {
        // A padless front at 1x1 is the unpatched execution.
        let front =
            PatchedFront::new(vec![pw(6, 4, 8, false)], PatchGrid { gy: 1, gx: 1 }).unwrap();
        assert_eq!(front.patched_macs(), front.unpatched_macs());
        assert_eq!(front.halo_overhead(), 0.0);
    }
}
