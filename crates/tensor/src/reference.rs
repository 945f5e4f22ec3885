//! Reference (oracle) operators.
//!
//! Straightforward nested-loop implementations of every layer the paper's
//! workloads use: dense/fully-connected, 2D convolution, pointwise
//! convolution, depthwise convolution, elementwise add and channel
//! concatenation — int8 with int32 accumulation and shared [`Requant`]
//! arithmetic. Segment-aware kernels and baselines are tested bit-exact
//! against these.
//!
//! # Loop order
//!
//! The four MAC operators ([`dense`], [`conv2d`], [`pointwise`],
//! [`depthwise`]) walk contiguous rows. Per output pixel (per input row
//! for [`dense`]) they fill one `i32` accumulator row with the bias or
//! zero; for each tap and input channel they add `x · w` across the
//! contiguous weight row of the output channels (for [`depthwise`], the
//! input pixel's channel row times the tap's weight row); then they
//! requantize the row. Each output element adds its products in the
//! per-element definition's order — bias, then taps `(r, s)` and
//! channels `c` ascending — so every output, and every debug-build
//! overflow panic, is that definition's bit for bit
//! (`tests/reference_props.rs` keeps the definition and checks it).
//!
//! The oracle shares no code with the kernels it checks: `vmcu-tensor`
//! depends on no other `vmcu-*` crate, so nothing here comes from
//! `vmcu_kernels`.

use crate::quant::{sat8, Requant};
use crate::tensor::Tensor;

/// Resets an accumulator row to the bias (or zero).
fn fill_acc(acc: &mut [i32], bias: Option<&[i32]>) {
    match bias {
        Some(b) => acc.copy_from_slice(b),
        None => acc.fill(0),
    }
}

/// Adds `x · w[j]` to `acc[j]` for every `j` of one weight row.
fn mac_row(acc: &mut [i32], x: i8, w: &[i8]) {
    for (a, &wv) in acc.iter_mut().zip(w) {
        *a += i32::from(x) * i32::from(wv);
    }
}

/// Requantizes an accumulator row into an output row.
fn requantize_row(out: &mut [i8], acc: &[i32], rq: Requant, clamp: (i8, i8)) {
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = rq.apply_clamped(a, clamp);
    }
}

/// Output extent of a window of size `r` over `h` inputs padded by `pad`
/// on both sides.
fn out_extent(h: usize, r: usize, pad: usize, stride: usize) -> usize {
    (h + 2 * pad)
        .checked_sub(r)
        .expect("window larger than padded input")
        / stride
        + 1
}

/// Fully-connected layer: `In[M,K] × W[K,N] → Out[M,N]`.
///
/// # Panics
///
/// Panics unless `input` and `weight` are both rank 2, and on shape
/// mismatches.
pub fn dense(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 2, "dense expects an [M,K] input");
    assert_eq!(weight.shape().len(), 2, "dense expects a [K,N] weight");
    let (m, k) = (input.shape()[0], input.shape()[1]);
    let (wk, n) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(k, wk, "dense K mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "dense bias length mismatch");
    }
    let mut out = Tensor::<i8>::zeros(&[m, n]);
    let mut acc = vec![0i32; n];
    for (x_row, out_row) in input
        .data()
        .chunks_exact(k)
        .zip(out.data_mut().chunks_exact_mut(n))
    {
        fill_acc(&mut acc, bias);
        for (&x, w_row) in x_row.iter().zip(weight.data().chunks_exact(n)) {
            mac_row(&mut acc, x, w_row);
        }
        requantize_row(out_row, &acc, rq, clamp);
    }
    out
}

/// 2D convolution: `In[H,W,C] ⊛ W[R,S,C,K] → Out[P,Q,K]` with symmetric
/// zero padding (`pad`) and equal strides.
///
/// # Panics
///
/// Panics unless `input` is rank 3, `weight` is rank 4 and
/// `stride >= 1`, and on shape mismatches or empty output geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    stride: usize,
    pad: usize,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 3, "conv2d expects an [H,W,C] input");
    assert_eq!(
        weight.shape().len(),
        4,
        "conv2d expects an [R,S,C,K] weight"
    );
    let (h, w, c) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (r, s, wc, k) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "conv2d channel mismatch");
    assert!(stride >= 1, "stride must be >= 1");
    let p = out_extent(h, r, pad, stride);
    let q = out_extent(w, s, pad, stride);
    if let Some(b) = bias {
        assert_eq!(b.len(), k, "conv2d bias length mismatch");
    }
    let (x, wt) = (input.data(), weight.data());
    let mut out = Tensor::<i8>::zeros(&[p, q, k]);
    let mut acc = vec![0i32; k];
    for (px, out_row) in out.data_mut().chunks_exact_mut(k).enumerate() {
        let (pi, qi) = (px / q, px % q);
        fill_acc(&mut acc, bias);
        for ri in 0..r {
            for si in 0..s {
                let hy = (pi * stride + ri) as isize - pad as isize;
                let wx = (qi * stride + si) as isize - pad as isize;
                if hy < 0 || wx < 0 || hy >= h as isize || wx >= w as isize {
                    continue; // zero padding
                }
                let x_row = &x[(hy as usize * w + wx as usize) * c..][..c];
                let w_tap = &wt[(ri * s + si) * c * k..][..c * k];
                for (&xv, w_row) in x_row.iter().zip(w_tap.chunks_exact(k)) {
                    mac_row(&mut acc, xv, w_row);
                }
            }
        }
        requantize_row(out_row, &acc, rq, clamp);
    }
    out
}

/// Pointwise (1×1) convolution: `In[H,W,C] × W[C,K] → Out[H,W,K]` with
/// equal strides (stride subsamples the input).
///
/// # Panics
///
/// Panics unless `input` is rank 3, `weight` is rank 2 and
/// `stride >= 1`, and on shape mismatches.
pub fn pointwise(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    stride: usize,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 3, "pointwise expects an [H,W,C] input");
    assert_eq!(weight.shape().len(), 2, "pointwise expects a [C,K] weight");
    assert!(stride >= 1, "stride must be >= 1");
    let (h, w, c) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (wc, k) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(c, wc, "pointwise channel mismatch");
    let p = (h - 1) / stride + 1;
    let q = (w - 1) / stride + 1;
    if let Some(b) = bias {
        assert_eq!(b.len(), k, "pointwise bias length mismatch");
    }
    let (x, wt) = (input.data(), weight.data());
    let mut out = Tensor::<i8>::zeros(&[p, q, k]);
    let mut acc = vec![0i32; k];
    for (px, out_row) in out.data_mut().chunks_exact_mut(k).enumerate() {
        let (pi, qi) = (px / q, px % q);
        let x_row = &x[(pi * stride * w + qi * stride) * c..][..c];
        fill_acc(&mut acc, bias);
        for (&xv, w_row) in x_row.iter().zip(wt.chunks_exact(k)) {
            mac_row(&mut acc, xv, w_row);
        }
        requantize_row(out_row, &acc, rq, clamp);
    }
    out
}

/// Depthwise convolution: `In[H,W,C] ⊛ W[R,S,C] → Out[P,Q,C]`.
///
/// # Panics
///
/// Panics unless `input` is rank 3, `weight` is rank 3 and
/// `stride >= 1`, and on shape mismatches or empty output geometry.
#[allow(clippy::too_many_arguments)]
pub fn depthwise(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    stride: usize,
    pad: usize,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    assert_eq!(input.shape().len(), 3, "depthwise expects an [H,W,C] input");
    assert_eq!(
        weight.shape().len(),
        3,
        "depthwise expects an [R,S,C] weight"
    );
    assert!(stride >= 1, "stride must be >= 1");
    let (h, w, c) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (r, s, wc) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    assert_eq!(c, wc, "depthwise channel mismatch");
    let p = out_extent(h, r, pad, stride);
    let q = out_extent(w, s, pad, stride);
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "depthwise bias length mismatch");
    }
    let (x, wt) = (input.data(), weight.data());
    let mut out = Tensor::<i8>::zeros(&[p, q, c]);
    let mut acc = vec![0i32; c];
    for (px, out_row) in out.data_mut().chunks_exact_mut(c).enumerate() {
        let (pi, qi) = (px / q, px % q);
        fill_acc(&mut acc, bias);
        for ri in 0..r {
            for si in 0..s {
                let hy = (pi * stride + ri) as isize - pad as isize;
                let wx = (qi * stride + si) as isize - pad as isize;
                if hy < 0 || wx < 0 || hy >= h as isize || wx >= w as isize {
                    continue; // zero padding
                }
                let x_row = &x[(hy as usize * w + wx as usize) * c..][..c];
                let w_row = &wt[(ri * s + si) * c..][..c];
                for ((a, &xv), &wv) in acc.iter_mut().zip(x_row).zip(w_row) {
                    *a += i32::from(xv) * i32::from(wv);
                }
            }
        }
        requantize_row(out_row, &acc, rq, clamp);
    }
    out
}

/// Elementwise residual add with int8 saturation.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| sat8(i64::from(x) + i64::from(y)))
        .collect();
    Tensor::from_vec(a.shape(), data)
}

/// Channel concatenation: `A[H,W,Ca] ⧺ B[H,W,Cb] → Out[H,W,Ca+Cb]`.
///
/// # Panics
///
/// Panics if the spatial shapes differ or either tensor is not rank 3.
pub fn concat(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i8> {
    assert_eq!(a.shape().len(), 3, "concat expects [H,W,C] operands");
    assert_eq!(b.shape().len(), 3, "concat expects [H,W,C] operands");
    assert_eq!(a.shape()[..2], b.shape()[..2], "concat spatial mismatch");
    let (h, w) = (a.shape()[0], a.shape()[1]);
    let (ca, cb) = (a.shape()[2], b.shape()[2]);
    let mut data = Vec::with_capacity(h * w * (ca + cb));
    for px in 0..h * w {
        data.extend_from_slice(&a.data()[px * ca..(px + 1) * ca]);
        data.extend_from_slice(&b.data()[px * cb..(px + 1) * cb]);
    }
    Tensor::from_vec(&[h, w, ca + cb], data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::NO_CLAMP;

    fn t(shape: &[usize], v: Vec<i8>) -> Tensor<i8> {
        Tensor::from_vec(shape, v)
    }

    #[test]
    fn dense_identity_weight() {
        let input = t(&[2, 3], vec![1, 2, 3, 4, 5, 6]);
        let eye = t(&[3, 3], vec![1, 0, 0, 0, 1, 0, 0, 0, 1]);
        let out = dense(&input, &eye, None, Requant::identity(), NO_CLAMP);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn dense_bias_and_clamp() {
        let input = t(&[1, 2], vec![10, -10]);
        let weight = t(&[2, 1], vec![1, 1]);
        let out = dense(&input, &weight, Some(&[5]), Requant::identity(), (0, 127));
        assert_eq!(out.data(), &[5]); // 10 - 10 + 5 = 5, ReLU keeps it
        let out = dense(&input, &weight, Some(&[-9]), Requant::identity(), (0, 127));
        assert_eq!(out.data(), &[0]); // clamped
    }

    #[test]
    fn pointwise_equals_conv2d_1x1() {
        let input = t(&[3, 3, 2], (0..18).map(|v| v as i8 - 9).collect());
        let w_pw = t(&[2, 4], (0..8).map(|v| v as i8 - 4).collect());
        let w_conv = t(&[1, 1, 2, 4], w_pw.data().to_vec());
        let rq = Requant::from_scale(0.5, 1);
        let a = pointwise(&input, &w_pw, None, 1, rq, NO_CLAMP);
        let b = conv2d(&input, &w_conv, None, 1, 0, rq, NO_CLAMP);
        assert_eq!(a, b);
    }

    #[test]
    fn conv2d_same_padding_geometry() {
        let input = Tensor::<i8>::zeros(&[8, 8, 3]);
        let weight = Tensor::<i8>::zeros(&[3, 3, 3, 5]);
        let out = conv2d(&input, &weight, None, 1, 1, Requant::identity(), NO_CLAMP);
        assert_eq!(out.shape(), &[8, 8, 5]);
        let out = conv2d(&input, &weight, None, 2, 1, Requant::identity(), NO_CLAMP);
        assert_eq!(out.shape(), &[4, 4, 5]);
    }

    #[test]
    fn conv2d_counts_padding_as_zero() {
        // All-ones 3x3 kernel over all-ones input: corner output touches
        // only 4 real pixels, center touches 9.
        let input = t(&[3, 3, 1], vec![1; 9]);
        let weight = t(&[3, 3, 1, 1], vec![1; 9]);
        let out = conv2d(&input, &weight, None, 1, 1, Requant::identity(), NO_CLAMP);
        assert_eq!(out.at(&[0, 0, 0]), 4);
        assert_eq!(out.at(&[1, 1, 0]), 9);
        assert_eq!(out.at(&[0, 1, 0]), 6);
    }

    #[test]
    fn depthwise_keeps_channels_independent() {
        // Channel 0 kernel = identity (center tap), channel 1 kernel = 2x.
        let input = t(&[2, 2, 2], vec![1, 10, 2, 20, 3, 30, 4, 40]);
        let mut wdata = vec![0i8; 9 * 2];
        wdata[4 * 2] = 1; // center tap, channel 0
        wdata[4 * 2 + 1] = 2; // center tap, channel 1
        let weight = t(&[3, 3, 2], wdata);
        let out = depthwise(&input, &weight, None, 1, 1, Requant::identity(), NO_CLAMP);
        assert_eq!(out.shape(), &[2, 2, 2]);
        assert_eq!(out.at(&[0, 0, 0]), 1);
        assert_eq!(out.at(&[0, 0, 1]), 20);
        assert_eq!(out.at(&[1, 1, 0]), 4);
        assert_eq!(out.at(&[1, 1, 1]), 80);
    }

    #[test]
    fn add_saturates() {
        let a = t(&[3], vec![100, -100, 1]);
        let b = t(&[3], vec![100, -100, 2]);
        assert_eq!(add(&a, &b).data(), &[127, -128, 3]);
    }

    #[test]
    fn strided_pointwise_subsamples() {
        let input = t(&[4, 4, 1], (0..16).map(|v| v as i8).collect());
        let weight = t(&[1, 1], vec![1]);
        let out = pointwise(&input, &weight, None, 2, Requant::identity(), NO_CLAMP);
        assert_eq!(out.shape(), &[2, 2, 1]);
        assert_eq!(out.data(), &[0, 2, 8, 10]);
    }

    // Slice indexing would read a wrong-rank operand as a prefix of its
    // shape; every operator must refuse it instead.

    fn zeros(shape: &[usize]) -> Tensor<i8> {
        Tensor::zeros(shape)
    }

    #[test]
    #[should_panic(expected = "dense expects an [M,K] input")]
    fn dense_rejects_rank3_input() {
        dense(
            &zeros(&[1, 2, 1]),
            &zeros(&[2, 1]),
            None,
            Requant::identity(),
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "dense expects a [K,N] weight")]
    fn dense_rejects_rank3_weight() {
        dense(
            &zeros(&[1, 2]),
            &zeros(&[2, 1, 3]),
            None,
            Requant::identity(),
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "conv2d expects an [H,W,C] input")]
    fn conv2d_rejects_rank2_input() {
        let rq = Requant::identity();
        conv2d(
            &zeros(&[4, 4]),
            &zeros(&[1, 1, 4, 2]),
            None,
            1,
            0,
            rq,
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "conv2d expects an [R,S,C,K] weight")]
    fn conv2d_rejects_rank3_weight() {
        let rq = Requant::identity();
        conv2d(
            &zeros(&[4, 4, 2]),
            &zeros(&[1, 1, 2]),
            None,
            1,
            0,
            rq,
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "pointwise expects an [H,W,C] input")]
    fn pointwise_rejects_rank2_input() {
        let rq = Requant::identity();
        pointwise(&zeros(&[4, 4]), &zeros(&[4, 2]), None, 1, rq, NO_CLAMP);
    }

    #[test]
    #[should_panic(expected = "pointwise expects a [C,K] weight")]
    fn pointwise_rejects_rank3_weight() {
        let rq = Requant::identity();
        pointwise(
            &zeros(&[2, 2, 3]),
            &zeros(&[3, 1, 4]),
            None,
            1,
            rq,
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "stride must be >= 1")]
    fn pointwise_rejects_stride_zero() {
        let rq = Requant::identity();
        pointwise(&zeros(&[2, 2, 3]), &zeros(&[3, 4]), None, 0, rq, NO_CLAMP);
    }

    #[test]
    #[should_panic(expected = "depthwise expects an [H,W,C] input")]
    fn depthwise_rejects_rank4_input() {
        let rq = Requant::identity();
        depthwise(
            &zeros(&[1, 4, 4, 2]),
            &zeros(&[3, 3, 2]),
            None,
            1,
            1,
            rq,
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "depthwise expects an [R,S,C] weight")]
    fn depthwise_rejects_rank4_weight() {
        let rq = Requant::identity();
        depthwise(
            &zeros(&[4, 4, 2]),
            &zeros(&[3, 3, 2, 1]),
            None,
            1,
            1,
            rq,
            NO_CLAMP,
        );
    }

    #[test]
    #[should_panic(expected = "stride must be >= 1")]
    fn depthwise_rejects_stride_zero() {
        let rq = Requant::identity();
        depthwise(
            &zeros(&[4, 4, 2]),
            &zeros(&[3, 3, 2]),
            None,
            0,
            1,
            rq,
            NO_CLAMP,
        );
    }
}
