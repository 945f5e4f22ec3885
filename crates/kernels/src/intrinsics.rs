//! The vMCU intrinsic layer (§6.1), executing on the simulated machine.
//!
//! The paper exposes seven intrinsics to kernel developers; their data
//! movement (`RAMLoad`, `FlashLoad`, `RAMStore`, `RAMFree`) maps to
//! [`vmcu_pool::SegmentPool`] / [`vmcu_sim::Machine`] operations. This
//! module implements the compute intrinsics:
//!
//! * [`dot_tile_u8`] — the `Dot` fixed-size int8 matmul micro-kernel
//!   (`SXTB16` + `SMLAD` on ARM, 2 MACs per instruction);
//! * [`broadcast`] — register splat (`PKHBT` on ARM);
//! * [`requant_row`] — the int32→int8 epilogue shared with the reference
//!   operators, charged at the device's per-element requant cost.
//!
//! Every host MAC runs through two uncharged cores: the `Dot` core
//! behind [`dot_tile_u8`], and the window core [`window_accumulate`],
//! all of one depthwise output pixel's taps ([`tap_accumulate`] is its
//! one-tap case). Both take weights already sign-extended to `i16`
//! ([`widen`]) — as `SXTB16` widens int8 to 16-bit lanes once before
//! `SMLAD` streams them — so the kernels widen each weight image once
//! per call, where they read it from Flash.

use vmcu_sim::{Machine, MemError};
use vmcu_tensor::Requant;

/// Sign-extends an int8 image stored as `u8` bytes to `i16` lanes — the
/// `SXTB16` half of `Dot`, done once per weight image so that every MAC
/// after it streams ready 16-bit operands.
pub fn widen(bytes: &[u8]) -> Vec<i16> {
    bytes.iter().map(|&v| i16::from(v as i8)).collect()
}

/// Reads the `len`-byte weight image at Flash address `base`, widened
/// ([`widen`]); charges nothing. Kernels read each image once per call —
/// Flash is immutable during an inference — and price the device's
/// per-tile `FlashLoad`s themselves.
pub(crate) fn read_weights(m: &Machine, base: usize, len: usize) -> Result<Vec<i16>, MemError> {
    Ok(widen(&m.flash.read(base, len)?))
}

/// The one host `Dot` core: `acc[n] += Σ_k a[k] · b[k·b_stride + n]`,
/// with `a` int8 values in `u8` registers and `b` int8 weights widened
/// to `i16` ([`widen`]); charges nothing. The lanes are register-blocked
/// (16, then 8, 4 and single lanes): a block's accumulators stay in
/// registers for the whole reduction, and each lane adds its products in
/// ascending `k` exactly as a scalar loop does. An int8 product is exact
/// in `i16`; nothing saturates: the `i32` adds wrap in release builds and
/// panic on overflow in debug ones, as the scalar loop's do.
pub(crate) fn dot_accumulate(a: &[u8], b: &[i16], b_stride: usize, acc: &mut [i32]) {
    let ki = a.len();
    let ni = acc.len();
    if ki == 0 || ni == 0 {
        return;
    }
    assert!(
        (ki - 1) * b_stride + ni <= b.len(),
        "weight tile too small: need {} have {}",
        (ki - 1) * b_stride + ni,
        b.len()
    );
    let mut n0 = 0;
    let rest = dot_blocks::<16>(a, b, b_stride, &mut n0, acc);
    let rest = dot_blocks::<8>(a, b, b_stride, &mut n0, rest);
    let rest = dot_blocks::<4>(a, b, b_stride, &mut n0, rest);
    dot_blocks::<1>(a, b, b_stride, &mut n0, rest);
}

/// Runs [`dot_accumulate`] over every whole `L`-lane block of `acc`,
/// whose first lane is lane `n0` of the tile, advancing `n0`; returns
/// the lanes left over.
#[inline(always)]
fn dot_blocks<'a, const L: usize>(
    a: &[u8],
    b: &[i16],
    b_stride: usize,
    n0: &mut usize,
    acc: &'a mut [i32],
) -> &'a mut [i32] {
    let mut blocks = acc.chunks_exact_mut(L);
    for block in &mut blocks {
        let mut s: [i32; L] = (&*block).try_into().expect("an L-lane block");
        for (k, &av) in a.iter().enumerate() {
            let av = i16::from(av as i8);
            let row: &[i16; L] = b[k * b_stride + *n0..][..L]
                .try_into()
                .expect("an L-lane row");
            for (s, &w) in s.iter_mut().zip(row) {
                *s += i32::from(av * w);
            }
        }
        block.copy_from_slice(&s);
        *n0 += L;
    }
    blocks.into_remainder()
}

/// One depthwise tap: `acc[c] += a[c] · w[c]` for every channel — the
/// one-tap case of [`window_accumulate`].
///
/// # Panics
///
/// Panics unless `acc`, `a` and `w` have the same length.
pub fn tap_accumulate(acc: &mut [i32], a: &[u8], w: &[i16]) {
    assert!(
        a.len() == acc.len() && w.len() == acc.len(),
        "tap lengths differ: acc {} a {} w {}",
        acc.len(),
        a.len(),
        w.len()
    );
    window_accumulate(acc, &[a], &[w]);
}

/// The one host window core: `acc[c] += Σ_t a_t[c] · w_t[c]` over the
/// in-bounds taps `t` of one depthwise output pixel; charges nothing
/// (the kernels price each tap). The taps come as runs, as a window row
/// lies in memory: `a[i]` holds run `i`'s pixels back to back, int8
/// values in `u8` registers, `acc.len()` channels each, and `w[i]`
/// those taps' weight rows widened by [`widen`]. The channels are
/// register-blocked like the `Dot` core's lanes (16, then 8, 4 and
/// single channels): a block's accumulators stay in registers across
/// every tap of the window, and each channel adds its products in
/// ascending tap order exactly as a loop of [`tap_accumulate`] does, so
/// release builds wrap and debug builds panic on overflow where that
/// loop would.
///
/// # Panics
///
/// Panics unless `a` and `w` list the same number of runs and each run's
/// pixels and weight rows are the same whole number of taps long.
pub fn window_accumulate(acc: &mut [i32], a: &[&[u8]], w: &[&[i16]]) {
    assert!(
        a.len() == w.len(),
        "tap lists differ: {} pixel runs, {} weight runs",
        a.len(),
        w.len()
    );
    let c = acc.len();
    let whole = |n: usize| n.checked_rem(c).map_or(n == 0, |r| r == 0);
    for (a, w) in a.iter().zip(w) {
        assert!(
            a.len() == w.len() && whole(a.len()),
            "tap lengths differ: acc {c} a {} w {}",
            a.len(),
            w.len()
        );
    }
    let mut c0 = 0;
    let rest = window_blocks::<16>(a, w, c, &mut c0, acc);
    let rest = window_blocks::<8>(a, w, c, &mut c0, rest);
    let rest = window_blocks::<4>(a, w, c, &mut c0, rest);
    window_blocks::<1>(a, w, c, &mut c0, rest);
}

/// Runs [`window_accumulate`] over every whole `L`-channel block of
/// `acc`, whose first channel is channel `c0` of the pixel's `c`,
/// advancing `c0`; returns the channels left over.
#[inline(always)]
fn window_blocks<'a, const L: usize>(
    a: &[&[u8]],
    w: &[&[i16]],
    c: usize,
    c0: &mut usize,
    acc: &'a mut [i32],
) -> &'a mut [i32] {
    let mut blocks = acc.chunks_exact_mut(L);
    for block in &mut blocks {
        let mut s: [i32; L] = (&*block).try_into().expect("an L-channel block");
        for (a, w) in a.iter().zip(w) {
            // The block's channels of each tap of the run, `c` apart.
            let mut at = *c0;
            while at < a.len() {
                let a: &[u8; L] = a[at..][..L].try_into().expect("an L-channel pixel");
                let w: &[i16; L] = w[at..][..L].try_into().expect("an L-channel row");
                for ((s, &a), &w) in s.iter_mut().zip(a).zip(w) {
                    *s += i32::from(i16::from(a as i8) * w);
                }
                at += c;
            }
        }
        block.copy_from_slice(&s);
        *c0 += L;
    }
    blocks.into_remainder()
}

/// Hands back `runs`' buffer, emptied, for borrows of another lifetime,
/// reusing its allocation (the in-place `collect`): a kernel gathers
/// each pixel's tap runs, borrowed from memory that the pixel's store
/// then writes, into one buffer for the whole call.
pub(crate) fn reuse_runs<'b, T: ?Sized>(mut runs: Vec<&T>) -> Vec<&'b T> {
    runs.clear();
    runs.into_iter()
        .map(|_| -> &'b T { unreachable!("the buffer is empty") })
        .collect()
}

/// `Dot`: `acc[n] += Σ_k a[k] · b[k·b_stride + n]` for `n < acc.len()`,
/// `k < a.len()` — an `a.len()`-deep reduction into `acc.len()` lanes
/// over `u8` activation registers (the kernels' staging format) and
/// widened weights ([`widen`]), charged as packed-SIMD MACs. `b` holds
/// int8 values, as [`widen`] returns them: each product is taken in
/// `i16`, where a wider weight could overflow.
///
/// `fully_unrolled` selects the pipeline-stall model: vMCU kernels fully
/// unroll their innermost reduction loops, the TinyEngine baseline unrolls
/// to a fixed depth (§7.2).
///
/// # Panics
///
/// Panics if `b` is too short for the access pattern.
pub fn dot_tile_u8(
    m: &mut Machine,
    a: &[u8],
    b: &[i16],
    b_stride: usize,
    acc: &mut [i32],
    fully_unrolled: bool,
) {
    let (ki, ni) = (a.len(), acc.len());
    if ki == 0 || ni == 0 {
        return;
    }
    dot_accumulate(a, b, b_stride, acc);
    m.charge_macs((ki * ni) as u64, fully_unrolled);
}

/// `Broadcast`: fills a register row with a value (PKHBT-style splat),
/// charged one cycle per 4 lanes.
pub fn broadcast(m: &mut Machine, dst: &mut [i32], value: i32) {
    dst.fill(value);
    m.charge_cycles(broadcast_cycles(dst.len()));
}

/// Cycles a [`broadcast`] of `lanes` registers costs: one per 4 lanes.
pub(crate) fn broadcast_cycles(lanes: usize) -> u64 {
    (lanes as u64).div_ceil(4)
}

/// The segment tiling of a `total`-element dimension: `(start, width)`
/// of each `seg`-wide tile in order, the last one ragged.
pub(crate) fn tiles(total: usize, seg: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    (0..total)
        .step_by(seg)
        .map(move |s| (s, seg.min(total - s)))
}

/// Requantizes a row of int32 accumulators to int8 with a fused
/// activation clamp, charging the epilogue cost.
///
/// # Panics
///
/// Panics if `acc` and `out` have different lengths, and, on a
/// non-empty row, if `clamp.0 > clamp.1`.
pub fn requant_row(m: &mut Machine, acc: &[i32], rq: Requant, clamp: (i8, i8), out: &mut [u8]) {
    requant_into(acc, rq, clamp, out);
    m.charge_requant(acc.len() as u64);
}

/// The functional part of [`requant_row`], charging nothing: the
/// reference operators' [`Requant::apply_row`], stored as `u8` registers.
pub(crate) fn requant_into(acc: &[i32], rq: Requant, clamp: (i8, i8), out: &mut [u8]) {
    rq.apply_row(acc, clamp, out, |v| v as u8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_sim::Device;

    fn machine() -> Machine {
        Machine::new(Device::stm32_f767zi())
    }

    #[test]
    fn dot_tile_computes_gemm_tile() {
        let mut m = machine();
        // a = [1, 2], b = [[3, 4], [5, 6]] (stride 2): acc = [13, 16]
        let b = widen(&[3, 4, 5, 6]);
        let mut acc = [0i32; 2];
        dot_tile_u8(&mut m, &[1, 2], &b, 2, &mut acc, true);
        assert_eq!(acc, [13, 16]);
        assert_eq!(m.counters.macs, 4);
    }

    #[test]
    fn dot_tile_accumulates() {
        let mut m = machine();
        let mut acc = [10i32];
        dot_tile_u8(&mut m, &[2], &widen(&[3]), 1, &mut acc, true);
        assert_eq!(acc, [16]);
    }

    #[test]
    fn dot_tile_respects_stride() {
        let mut m = machine();
        // b laid out with stride 3 but only 2 used lanes.
        let b = widen(&[1, 2, 99, 4, 5, 99]);
        let mut acc = [0i32; 2];
        dot_tile_u8(&mut m, &[1, 1], &b, 3, &mut acc, false);
        assert_eq!(acc, [5, 7]);
    }

    #[test]
    #[should_panic(expected = "weight tile too small")]
    fn dot_tile_bounds_checked() {
        let mut m = machine();
        let mut acc = [0i32; 4];
        dot_tile_u8(&mut m, &[1, 1], &[0; 4], 4, &mut acc, true);
    }

    #[test]
    fn partial_unroll_charges_more() {
        let mut m1 = machine();
        let mut m2 = machine();
        let a = [1u8; 32];
        let b = [1i16; 64];
        let mut acc = [0i32; 2];
        dot_tile_u8(&mut m1, &a, &b, 2, &mut acc, true);
        let mut acc = [0i32; 2];
        dot_tile_u8(&mut m2, &a, &b, 2, &mut acc, false);
        assert!(m2.counters.cycles > m1.counters.cycles);
        assert_eq!(m1.counters.macs, m2.counters.macs);
    }

    #[test]
    fn broadcast_fills_and_charges() {
        let mut m = machine();
        let mut regs = [0i32; 8];
        broadcast(&mut m, &mut regs, -7);
        assert!(regs.iter().all(|&v| v == -7));
        assert_eq!(m.counters.cycles, 2);
    }

    #[test]
    fn requant_row_matches_scalar_path() {
        let mut m = machine();
        let rq = Requant::from_scale(0.25, 3);
        let acc = [100, -100, 0, 1000];
        let mut out = [0u8; 4];
        requant_row(&mut m, &acc, rq, (-128, 127), &mut out);
        for (i, &a) in acc.iter().enumerate() {
            assert_eq!(out[i] as i8, rq.apply(a));
        }
        assert_eq!(m.counters.cycles, m.device.cost.requant_cost(4));
    }
}
