//! The reference operators against their per-element definition.
//!
//! `vmcu_tensor::reference` walks contiguous accumulator and weight rows.
//! Its contract is the per-element definition kept here: one `Tensor::at`
//! per operand per MAC, each output summed as bias, then taps `(r, s)`
//! and channels `c` ascending. Every output must equal the definition bit
//! for bit over random geometry, stride, padding, bias, requantization
//! and clamp. This file is the gate for any edit to
//! `vmcu_tensor::reference`.

use proptest::prelude::*;
use vmcu::vmcu_tensor::{random, reference, Requant, Tensor};

/// `reference::dense`, one `Tensor::at` per operand per MAC.
fn definition_dense(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    let (m, k) = (input.shape()[0], input.shape()[1]);
    let (wk, n) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(k, wk, "dense K mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "dense bias length mismatch");
    }
    let mut out = Tensor::<i8>::zeros(&[m, n]);
    for mi in 0..m {
        for ni in 0..n {
            let mut acc: i32 = bias.map_or(0, |b| b[ni]);
            for ki in 0..k {
                acc += i32::from(input.at(&[mi, ki])) * i32::from(weight.at(&[ki, ni]));
            }
            *out.at_mut(&[mi, ni]) = rq.apply_clamped(acc, clamp);
        }
    }
    out
}

/// `reference::conv2d`, one `Tensor::at` per operand per MAC.
#[allow(clippy::too_many_arguments)]
fn definition_conv2d(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    stride: usize,
    pad: usize,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    let (h, w, c) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (r, s, wc, k) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "conv2d channel mismatch");
    assert!(stride >= 1, "stride must be >= 1");
    let p = (h + 2 * pad)
        .checked_sub(r)
        .expect("window larger than padded input")
        / stride
        + 1;
    let q = (w + 2 * pad)
        .checked_sub(s)
        .expect("window larger than padded input")
        / stride
        + 1;
    if let Some(b) = bias {
        assert_eq!(b.len(), k, "conv2d bias length mismatch");
    }
    let mut out = Tensor::<i8>::zeros(&[p, q, k]);
    for pi in 0..p {
        for qi in 0..q {
            for ki in 0..k {
                let mut acc: i32 = bias.map_or(0, |b| b[ki]);
                for ri in 0..r {
                    for si in 0..s {
                        let hy = (pi * stride + ri) as isize - pad as isize;
                        let wx = (qi * stride + si) as isize - pad as isize;
                        if hy < 0 || wx < 0 || hy >= h as isize || wx >= w as isize {
                            continue; // zero padding
                        }
                        for ci in 0..c {
                            acc += i32::from(input.at(&[hy as usize, wx as usize, ci]))
                                * i32::from(weight.at(&[ri, si, ci, ki]));
                        }
                    }
                }
                *out.at_mut(&[pi, qi, ki]) = rq.apply_clamped(acc, clamp);
            }
        }
    }
    out
}

/// `reference::pointwise`, one `Tensor::at` per operand per MAC.
fn definition_pointwise(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    stride: usize,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    let (h, w, c) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (wc, k) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(c, wc, "pointwise channel mismatch");
    let p = (h - 1) / stride + 1;
    let q = (w - 1) / stride + 1;
    if let Some(b) = bias {
        assert_eq!(b.len(), k, "pointwise bias length mismatch");
    }
    let mut out = Tensor::<i8>::zeros(&[p, q, k]);
    for pi in 0..p {
        for qi in 0..q {
            for ki in 0..k {
                let mut acc: i32 = bias.map_or(0, |b| b[ki]);
                for ci in 0..c {
                    acc += i32::from(input.at(&[pi * stride, qi * stride, ci]))
                        * i32::from(weight.at(&[ci, ki]));
                }
                *out.at_mut(&[pi, qi, ki]) = rq.apply_clamped(acc, clamp);
            }
        }
    }
    out
}

/// `reference::depthwise`, one `Tensor::at` per operand per MAC.
#[allow(clippy::too_many_arguments)]
fn definition_depthwise(
    input: &Tensor<i8>,
    weight: &Tensor<i8>,
    bias: Option<&[i32]>,
    stride: usize,
    pad: usize,
    rq: Requant,
    clamp: (i8, i8),
) -> Tensor<i8> {
    let (h, w, c) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (r, s, wc) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    assert_eq!(c, wc, "depthwise channel mismatch");
    let p = (h + 2 * pad)
        .checked_sub(r)
        .expect("window larger than padded input")
        / stride
        + 1;
    let q = (w + 2 * pad)
        .checked_sub(s)
        .expect("window larger than padded input")
        / stride
        + 1;
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "depthwise bias length mismatch");
    }
    let mut out = Tensor::<i8>::zeros(&[p, q, c]);
    for pi in 0..p {
        for qi in 0..q {
            for ci in 0..c {
                let mut acc: i32 = bias.map_or(0, |b| b[ci]);
                for ri in 0..r {
                    for si in 0..s {
                        let hy = (pi * stride + ri) as isize - pad as isize;
                        let wx = (qi * stride + si) as isize - pad as isize;
                        if hy < 0 || wx < 0 || hy >= h as isize || wx >= w as isize {
                            continue;
                        }
                        acc += i32::from(input.at(&[hy as usize, wx as usize, ci]))
                            * i32::from(weight.at(&[ri, si, ci]));
                    }
                }
                *out.at_mut(&[pi, qi, ci]) = rq.apply_clamped(acc, clamp);
            }
        }
    }
    out
}

/// Convolution geometry: input `[h, w, c]`, `k` output channels, an
/// `r × s` window with `stride` and symmetric zero padding `pad`.
#[derive(Debug, Clone, Copy)]
struct Window {
    h: usize,
    w: usize,
    c: usize,
    k: usize,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
}

/// Non-square inputs up to 9×9×17, windows up to 4×4 that fit the padded
/// input, strides 1–3 and padding 0–2.
fn window() -> impl Strategy<Value = Window> {
    (
        1usize..=9,
        1usize..=9,
        1usize..=17,
        1usize..=17,
        1usize..=3,
        0usize..=2,
    )
        .prop_flat_map(|(h, w, c, k, stride, pad)| {
            (1..=(h + 2 * pad).min(4), 1..=(w + 2 * pad).min(4)).prop_map(move |(r, s)| Window {
                h,
                w,
                c,
                k,
                r,
                s,
                stride,
                pad,
            })
        })
}

/// A random requantization (scale `2^-20`–`16`, zero point ±20) and a
/// random activation clamp `lo <= hi`.
fn epilogue() -> impl Strategy<Value = (Requant, (i8, i8))> {
    (
        1u32..=4096,
        8i32..=20,
        -20i32..=20,
        -128i8..=127,
        -128i8..=127,
    )
        .prop_map(|(num, shift, zp, a, b)| {
            let rq = Requant::from_scale(f64::from(num) / 2f64.powi(shift), zp);
            (rq, (a.min(b), a.max(b)))
        })
}

/// A full-range int8 operand (`random::tensor_i8` stays within
/// `[-64, 63]`, which never multiplies `-128` by `-128`).
fn operand(shape: &[usize], seed: u64) -> Tensor<i8> {
    let mut state = seed;
    let data = (0..shape.iter().product::<usize>())
        .map(|_| {
            // SplitMix64; the top byte is the value.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 56) as u8 as i8
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// The bias of `len` channels, or none.
fn bias(with_bias: bool, len: usize, seed: u64) -> Option<Vec<i32>> {
    with_bias.then(|| random::bias_i32(len, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn conv2d_matches_definition(
        g in window(),
        ep in epilogue(),
        with_bias in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let (rq, clamp) = ep;
        let input = operand(&[g.h, g.w, g.c], seed);
        let weight = operand(&[g.r, g.s, g.c, g.k], seed + 1);
        let b = bias(with_bias == 1, g.k, seed);
        let b = b.as_deref();
        prop_assert_eq!(
            reference::conv2d(&input, &weight, b, g.stride, g.pad, rq, clamp),
            definition_conv2d(&input, &weight, b, g.stride, g.pad, rq, clamp)
        );
    }

    #[test]
    fn pointwise_matches_definition(
        g in window(),
        ep in epilogue(),
        with_bias in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let (rq, clamp) = ep;
        let input = operand(&[g.h, g.w, g.c], seed);
        let weight = operand(&[g.c, g.k], seed + 1);
        let b = bias(with_bias == 1, g.k, seed);
        let b = b.as_deref();
        prop_assert_eq!(
            reference::pointwise(&input, &weight, b, g.stride, rq, clamp),
            definition_pointwise(&input, &weight, b, g.stride, rq, clamp)
        );
    }

    #[test]
    fn depthwise_matches_definition(
        g in window(),
        ep in epilogue(),
        with_bias in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let (rq, clamp) = ep;
        let input = operand(&[g.h, g.w, g.c], seed);
        let weight = operand(&[g.r, g.s, g.c], seed + 1);
        let b = bias(with_bias == 1, g.c, seed);
        let b = b.as_deref();
        prop_assert_eq!(
            reference::depthwise(&input, &weight, b, g.stride, g.pad, rq, clamp),
            definition_depthwise(&input, &weight, b, g.stride, g.pad, rq, clamp)
        );
    }

    #[test]
    fn dense_matches_definition(
        mkn in (1usize..=6, 1usize..=33, 1usize..=33),
        ep in epilogue(),
        with_bias in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let ((m, k, n), (rq, clamp)) = (mkn, ep);
        let input = operand(&[m, k], seed);
        let weight = operand(&[k, n], seed + 1);
        let b = bias(with_bias == 1, n, seed);
        let b = b.as_deref();
        prop_assert_eq!(
            reference::dense(&input, &weight, b, rq, clamp),
            definition_dense(&input, &weight, b, rq, clamp)
        );
    }
}
