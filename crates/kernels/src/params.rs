//! Kernel parameter blocks shared across implementations.
//!
//! Each struct fixes a layer's geometry plus quantization; both the
//! segment-aware vMCU kernels and the TinyEngine-policy baselines take the
//! same parameters, so comparisons are apples-to-apples.

use vmcu_solver::closed_form;
use vmcu_tensor::{Requant, NO_CLAMP};

/// Fully-connected layer `In[M,K] × W[K,N] → Out[M,N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcParams {
    /// Batch/rows.
    pub m: usize,
    /// Reduction size.
    pub k: usize,
    /// Output features.
    pub n: usize,
    /// Segment size in elements (the §5.3 rule picks `min(K, N)`).
    pub seg: usize,
    /// Requantization of the int32 accumulator.
    pub rq: Requant,
    /// Fused activation clamp.
    pub clamp: (i8, i8),
}

impl FcParams {
    /// Creates parameters with the §5.3 default segment size.
    pub fn new(m: usize, k: usize, n: usize, rq: Requant) -> Self {
        Self {
            m,
            k,
            n,
            seg: closed_form::fc_segment_elems(k as i64, n as i64) as usize,
            rq,
            clamp: NO_CLAMP,
        }
    }

    /// Input size in bytes.
    pub fn in_bytes(&self) -> usize {
        self.m * self.k
    }

    /// Output size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.m * self.n
    }

    /// Weight size in bytes (resident in Flash).
    pub fn weight_bytes(&self) -> usize {
        self.k * self.n
    }

    /// MAC count.
    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }
}

/// Pointwise (1×1) convolution `In[H,W,C] × W[C,K] → Out[H,W,K]`,
/// stride 1 (strided pointwise appears only inside fused modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointwiseParams {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input channels.
    pub c: usize,
    /// Output channels.
    pub k: usize,
    /// Segment size in elements (§5.3: `min(C, K)`).
    pub seg: usize,
    /// Requantization.
    pub rq: Requant,
    /// Fused activation clamp.
    pub clamp: (i8, i8),
}

impl PointwiseParams {
    /// Creates parameters with the §5.3 default segment size.
    pub fn new(h: usize, w: usize, c: usize, k: usize, rq: Requant) -> Self {
        Self {
            h,
            w,
            c,
            k,
            seg: closed_form::conv_segment_elems(c as i64, k as i64) as usize,
            rq,
            clamp: NO_CLAMP,
        }
    }

    /// Spatial positions.
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Input size in bytes.
    pub fn in_bytes(&self) -> usize {
        self.pixels() * self.c
    }

    /// Output size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.pixels() * self.k
    }

    /// MAC count.
    pub fn macs(&self) -> u64 {
        (self.pixels() * self.c * self.k) as u64
    }

    /// The equivalent fully-connected view (`M = H·W`).
    pub fn as_fc(&self) -> FcParams {
        FcParams {
            m: self.pixels(),
            k: self.c,
            n: self.k,
            seg: self.seg,
            rq: self.rq,
            clamp: self.clamp,
        }
    }
}

/// Dense 2D convolution `In[H,W,C] ⊛ W[R,S,C,K] → Out[P,Q,K]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input channels.
    pub c: usize,
    /// Output channels.
    pub k: usize,
    /// Kernel height.
    pub r: usize,
    /// Kernel width.
    pub s: usize,
    /// Stride (equal in both axes).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Segment size in elements (§5.3: `min(C, K)`).
    pub seg: usize,
    /// Requantization.
    pub rq: Requant,
    /// Fused activation clamp.
    pub clamp: (i8, i8),
}

impl Conv2dParams {
    /// Creates parameters with the §5.3 default segment size.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        stride: usize,
        pad: usize,
        rq: Requant,
    ) -> Self {
        Self {
            h,
            w,
            c,
            k,
            r,
            s,
            stride,
            pad,
            seg: closed_form::conv_segment_elems(c as i64, k as i64) as usize,
            rq,
            clamp: NO_CLAMP,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.s) / self.stride + 1
    }

    /// Input size in bytes.
    pub fn in_bytes(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Output size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.out_h() * self.out_w() * self.k
    }

    /// MAC count (padding taps skipped, counted exactly).
    pub fn macs(&self) -> u64 {
        let mut taps = 0u64;
        for p in 0..self.out_h() {
            for r in 0..self.r {
                let y = (p * self.stride + r) as isize - self.pad as isize;
                if y < 0 || y >= self.h as isize {
                    continue;
                }
                for q in 0..self.out_w() {
                    for s in 0..self.s {
                        let x = (q * self.stride + s) as isize - self.pad as isize;
                        if x >= 0 && x < self.w as isize {
                            taps += 1;
                        }
                    }
                }
            }
        }
        taps * (self.c * self.k) as u64
    }
}

/// Depthwise convolution `In[H,W,C] ⊛ W[R,S,C] → Out[P,Q,C]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepthwiseParams {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Channels.
    pub c: usize,
    /// Kernel height.
    pub r: usize,
    /// Kernel width.
    pub s: usize,
    /// Stride (equal in both axes).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Requantization.
    pub rq: Requant,
    /// Fused activation clamp.
    pub clamp: (i8, i8),
}

impl DepthwiseParams {
    /// Creates parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        h: usize,
        w: usize,
        c: usize,
        r: usize,
        s: usize,
        stride: usize,
        pad: usize,
        rq: Requant,
    ) -> Self {
        Self {
            h,
            w,
            c,
            r,
            s,
            stride,
            pad,
            rq,
            clamp: NO_CLAMP,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.s) / self.stride + 1
    }

    /// Input size in bytes.
    pub fn in_bytes(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Output size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.out_h() * self.out_w() * self.c
    }

    /// MAC count (padding taps skipped, counted exactly — the same skip
    /// logic `run_depthwise` executes). Row and column tap validity are
    /// independent, so the count is separable.
    pub fn macs(&self) -> u64 {
        let valid = |out: usize, k: usize, dim: usize| -> u64 {
            let mut taps = 0u64;
            for o in 0..out {
                for i in 0..k {
                    let y = (o * self.stride + i) as isize - self.pad as isize;
                    if y >= 0 && y < dim as isize {
                        taps += 1;
                    }
                }
            }
            taps
        };
        valid(self.out_h(), self.r, self.h) * valid(self.out_w(), self.s, self.w) * self.c as u64
    }
}

/// Inverted bottleneck module (Figure 6 / Table 2): pointwise expand →
/// depthwise → pointwise project (+ residual add when shapes allow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbParams {
    /// Input height/width (square images throughout Table 2).
    pub hw: usize,
    /// Input channels.
    pub c_in: usize,
    /// Expanded (middle) channels.
    pub c_mid: usize,
    /// Output channels.
    pub c_out: usize,
    /// Depthwise kernel size (R = S).
    pub rs: usize,
    /// Stride of the expand pointwise conv.
    pub s1: usize,
    /// Stride of the depthwise conv.
    pub s2: usize,
    /// Stride of the project pointwise conv (always 1 in Table 2).
    pub s3: usize,
    /// Requantization after each of the three convolutions.
    pub rq1: Requant,
    /// Requantization after the depthwise stage.
    pub rq2: Requant,
    /// Requantization after the projection stage.
    pub rq3: Requant,
    /// Activation clamp after the expand stage (ReLU6 in MobileNetV2).
    pub clamp1: (i8, i8),
    /// Activation clamp after the depthwise stage.
    pub clamp2: (i8, i8),
    /// Activation clamp after the projection stage (linear bottleneck).
    pub clamp3: (i8, i8),
}

impl IbParams {
    /// Creates a module with shared default quantization (suitable for the
    /// shape-driven experiments; tests override per-stage scales).
    pub fn new(
        hw: usize,
        c_in: usize,
        c_mid: usize,
        c_out: usize,
        rs: usize,
        strides: (usize, usize, usize),
    ) -> Self {
        let rq = Requant::from_scale(1.0 / 64.0, 0);
        Self {
            hw,
            c_in,
            c_mid,
            c_out,
            rs,
            s1: strides.0,
            s2: strides.1,
            s3: strides.2,
            rq1: rq,
            rq2: rq,
            rq3: rq,
            clamp1: NO_CLAMP,
            clamp2: NO_CLAMP,
            clamp3: NO_CLAMP,
        }
    }

    /// Depthwise padding (SAME-style).
    pub fn pad(&self) -> usize {
        (self.rs - 1) / 2
    }

    /// Spatial size after the expand conv.
    pub fn hw1(&self) -> usize {
        (self.hw - 1) / self.s1 + 1
    }

    /// Spatial size after the depthwise conv.
    pub fn hw2(&self) -> usize {
        (self.hw1() + 2 * self.pad() - self.rs) / self.s2 + 1
    }

    /// Output spatial size (s3 = 1 in all Table 2 modules).
    pub fn out_hw(&self) -> usize {
        (self.hw2() - 1) / self.s3 + 1
    }

    /// Whether the residual add applies (stride 1 throughout and matching
    /// channels, as in MobileNetV2).
    pub fn has_residual(&self) -> bool {
        self.s1 * self.s2 * self.s3 == 1 && self.c_in == self.c_out
    }

    /// Input tensor size in bytes.
    pub fn in_bytes(&self) -> usize {
        self.hw * self.hw * self.c_in
    }

    /// Expanded tensor (B) size in bytes.
    pub fn mid_bytes(&self) -> usize {
        self.hw1() * self.hw1() * self.c_mid
    }

    /// Post-depthwise tensor (C) size in bytes.
    pub fn dw_out_bytes(&self) -> usize {
        self.hw2() * self.hw2() * self.c_mid
    }

    /// Output tensor size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.out_hw() * self.out_hw() * self.c_out
    }
}

/// Elementwise residual add `A[H,W,C] + B[H,W,C] → Out[H,W,C]` with int8
/// saturation. The two operands are staged consecutively in the pool
/// (`A` at the base, `B` right behind it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddParams {
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Channels (both operands and the output).
    pub c: usize,
    /// Segment size in elements.
    pub seg: usize,
}

impl AddParams {
    /// Creates parameters; the segment is one channel vector (§5.3's
    /// `min(C, K)` rule with `K = C`).
    pub fn new(h: usize, w: usize, c: usize) -> Self {
        Self { h, w, c, seg: c }
    }

    /// Bytes of one operand (and of the output).
    pub fn tensor_bytes(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Input size in bytes — both operands.
    pub fn in_bytes(&self) -> usize {
        2 * self.tensor_bytes()
    }

    /// Output size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.tensor_bytes()
    }
}

/// Channel concatenation `A[H,W,Ca] ⧺ B[H,W,Cb] → Out[H,W,Ca+Cb]`.
/// Operands are staged consecutively (`A` then `B`); the output
/// interleaves their channel vectors per pixel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcatParams {
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Channels of the first operand.
    pub c_a: usize,
    /// Channels of the second operand.
    pub c_b: usize,
}

impl ConcatParams {
    /// Creates parameters.
    pub fn new(h: usize, w: usize, c_a: usize, c_b: usize) -> Self {
        Self { h, w, c_a, c_b }
    }

    /// Spatial positions.
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Bytes of the first operand.
    pub fn a_bytes(&self) -> usize {
        self.pixels() * self.c_a
    }

    /// Bytes of the second operand.
    pub fn b_bytes(&self) -> usize {
        self.pixels() * self.c_b
    }

    /// Input size in bytes — both operands.
    pub fn in_bytes(&self) -> usize {
        self.a_bytes() + self.b_bytes()
    }

    /// Output size in bytes.
    pub fn out_bytes(&self) -> usize {
        self.pixels() * (self.c_a + self.c_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_sizes() {
        let p = FcParams::new(4, 8, 6, Requant::identity());
        assert_eq!(p.seg, 6);
        assert_eq!(p.in_bytes(), 32);
        assert_eq!(p.out_bytes(), 24);
        assert_eq!(p.weight_bytes(), 48);
        assert_eq!(p.macs(), 192);
    }

    #[test]
    fn pointwise_matches_fc_view() {
        let p = PointwiseParams::new(8, 8, 16, 8, Requant::identity());
        assert_eq!(p.seg, 8);
        let fc = p.as_fc();
        assert_eq!(fc.m, 64);
        assert_eq!(fc.k, 16);
        assert_eq!(fc.n, 8);
        assert_eq!(p.macs(), fc.macs());
    }

    #[test]
    fn depthwise_macs_match_the_kernel_skip_logic() {
        // Brute-force the run_depthwise tap loop and compare with the
        // separable closed form, across strides and window sizes.
        for (h, r, stride, pad) in [(6, 3, 1, 1), (8, 3, 2, 1), (9, 7, 1, 3), (7, 5, 2, 2)] {
            let p = DepthwiseParams::new(h, h, 4, r, r, stride, pad, Requant::identity());
            let mut taps = 0u64;
            for pi in 0..p.out_h() {
                for qi in 0..p.out_w() {
                    for ri in 0..p.r {
                        let y = (pi * p.stride + ri) as isize - p.pad as isize;
                        if y < 0 || y >= p.h as isize {
                            continue;
                        }
                        for si in 0..p.s {
                            let x = (qi * p.stride + si) as isize - p.pad as isize;
                            if x >= 0 && x < p.w as isize {
                                taps += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(
                p.macs(),
                taps * p.c as u64,
                "h={h} r={r} s={stride} p={pad}"
            );
        }
    }

    #[test]
    fn conv2d_geometry_and_macs() {
        let p = Conv2dParams::new(8, 8, 4, 8, 3, 3, 1, 1, Requant::identity());
        assert_eq!(p.out_h(), 8);
        assert_eq!(p.out_w(), 8);
        // Interior pixels have 9 taps; corners 4; edges 6.
        let full: u64 = 8 * 8 * 9;
        let missing: u64 = 4 * 5 + (8 - 2) * 4 * 3;
        assert_eq!(p.macs(), (full - missing) * 32);
        let strided = Conv2dParams::new(8, 8, 4, 8, 3, 3, 2, 1, Requant::identity());
        assert_eq!(strided.out_h(), 4);
    }

    #[test]
    fn ib_s1_matches_paper_shapes() {
        // Table 2 S1: 20x20, 16 -> 48 -> 16, 3x3, strides 1,1,1.
        let ib = IbParams::new(20, 16, 48, 16, 3, (1, 1, 1));
        assert!(ib.has_residual());
        assert_eq!(ib.in_bytes(), 6400);
        assert_eq!(ib.mid_bytes(), 19200);
        assert_eq!(ib.out_bytes(), 6400);
        assert_eq!(ib.out_hw(), 20);
    }

    #[test]
    fn ib_b1_strided_shapes() {
        // Table 2 B1: 176x176, 3 -> 16 -> 8, 3x3, strides 2,1,1.
        let ib = IbParams::new(176, 3, 16, 8, 3, (2, 1, 1));
        assert!(!ib.has_residual());
        assert_eq!(ib.hw1(), 88);
        assert_eq!(ib.hw2(), 88);
        assert_eq!(ib.in_bytes(), 92_928);
        assert_eq!(ib.out_bytes(), 88 * 88 * 8);
    }

    #[test]
    fn ib_b2_dw_stride() {
        // Table 2 B2: 88x88, 8 -> 24 -> 16, 7x7, strides 1,2,1.
        let ib = IbParams::new(88, 8, 24, 16, 7, (1, 2, 1));
        assert_eq!(ib.pad(), 3);
        assert_eq!(ib.hw1(), 88);
        assert_eq!(ib.hw2(), 44);
        assert_eq!(ib.mid_bytes(), 88 * 88 * 24); // 185,856 = paper's 185.9 KB
        assert_eq!(ib.out_bytes(), 44 * 44 * 16);
    }
}
