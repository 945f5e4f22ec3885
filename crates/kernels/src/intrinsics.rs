//! The vMCU intrinsic layer (§6.1), executing on the simulated machine.
//!
//! The paper exposes seven intrinsics to kernel developers; their data
//! movement (`RAMLoad`, `FlashLoad`, `RAMStore`, `RAMFree`) maps to
//! [`vmcu_pool::SegmentPool`] / [`vmcu_sim::Machine`] operations. This
//! module implements the compute intrinsics:
//!
//! * [`dot_tile`] — the `Dot` fixed-size int8 matmul micro-kernel
//!   (`SXTB16` + `SMLAD` on ARM, 2 MACs per instruction);
//! * [`broadcast`] — register splat (`PKHBT` on ARM);
//! * [`requant_row`] — the int32→int8 epilogue shared with the reference
//!   operators, charged at a few cycles per element.

use vmcu_sim::Machine;
use vmcu_tensor::Requant;

/// Cycles per element the requantization epilogue costs on the original
/// evaluation platforms (M4/M7). The live cost now comes from the device
/// model ([`vmcu_sim::CostModel::requant_cycles_x100`], which kernels
/// charge through [`Machine::charge_requant`]); this constant remains as
/// the documented M4/M7 value that model reproduces.
pub const REQUANT_CYCLES_PER_ELEM: u64 = 3;

/// `Dot`: `acc[n] += Σ_k a[k] · b[k·b_stride + n]` for `n < acc.len()`,
/// `k < a.len()` — an `a.len()`-deep reduction into `acc.len()` lanes,
/// charged as packed-SIMD MACs.
///
/// `fully_unrolled` selects the pipeline-stall model: vMCU kernels fully
/// unroll their innermost reduction loops, the TinyEngine baseline unrolls
/// to a fixed depth (§7.2).
///
/// # Panics
///
/// Panics if `b` is too short for the access pattern.
pub fn dot_tile(
    m: &mut Machine,
    a: &[i8],
    b: &[i8],
    b_stride: usize,
    acc: &mut [i32],
    fully_unrolled: bool,
) {
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
    for (k, &av) in a.iter().enumerate() {
        let row = &b[k * b_stride..k * b_stride + ni];
        for (n, accv) in acc.iter_mut().enumerate() {
            *accv += i32::from(av) * i32::from(row[n]);
        }
    }
    m.charge_macs((ki * ni) as u64, fully_unrolled);
}

/// Functional core of the byte-slice `Dot` variants: accumulates
/// `acc[n] += Σ_k a[k] · b[k·b_stride + n]` reading int8 values straight
/// from `u8` storage, charging nothing. The reduction is register-tiled
/// four rows deep (`chunks_exact`), keeping each accumulator lane's
/// addition order identical to the scalar `dot_tile` loop — bit-exact,
/// just without the per-tile `Vec` conversions and per-element bounds
/// checks the naive loop pays on the host. Kernels that price their dots
/// separately (the TinyEngine baseline) call it directly.
pub(crate) fn dot_accumulate_u8(a: &[u8], b: &[u8], b_stride: usize, acc: &mut [i32]) {
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
    let mut chunks = a.chunks_exact(4);
    let mut k = 0;
    for ch in &mut chunks {
        let a0 = i32::from(ch[0] as i8);
        let a1 = i32::from(ch[1] as i8);
        let a2 = i32::from(ch[2] as i8);
        let a3 = i32::from(ch[3] as i8);
        let r0 = &b[k * b_stride..k * b_stride + ni];
        let r1 = &b[(k + 1) * b_stride..(k + 1) * b_stride + ni];
        let r2 = &b[(k + 2) * b_stride..(k + 2) * b_stride + ni];
        let r3 = &b[(k + 3) * b_stride..(k + 3) * b_stride + ni];
        for (n, accv) in acc.iter_mut().enumerate() {
            // In-order per-lane adds: identical arithmetic to the scalar
            // k-loop. Nothing saturates: the `i32` adds wrap in release
            // builds and panic on overflow in debug ones, exactly as the
            // scalar loop's do.
            let mut s = *accv;
            s += a0 * i32::from(r0[n] as i8);
            s += a1 * i32::from(r1[n] as i8);
            s += a2 * i32::from(r2[n] as i8);
            s += a3 * i32::from(r3[n] as i8);
            *accv = s;
        }
        k += 4;
    }
    for &av in chunks.remainder() {
        let av = i32::from(av as i8);
        let row = &b[k * b_stride..k * b_stride + ni];
        for (n, accv) in acc.iter_mut().enumerate() {
            *accv += av * i32::from(row[n] as i8);
        }
        k += 1;
    }
}

/// `Dot` over raw `u8` register buffers (the kernels' staging format):
/// identical semantics and charging to [`dot_tile`], without the
/// `Vec<i8>` conversion copies the hot loops used to pay per tile.
pub fn dot_tile_u8(
    m: &mut Machine,
    a: &[u8],
    b: &[u8],
    b_stride: usize,
    acc: &mut [i32],
    fully_unrolled: bool,
) {
    let (ki, ni) = (a.len(), acc.len());
    if ki == 0 || ni == 0 {
        return;
    }
    dot_accumulate_u8(a, b, b_stride, acc);
    m.charge_macs((ki * ni) as u64, fully_unrolled);
}

/// Lane-blocked `Dot`: the same bit-exact accumulation as
/// [`dot_tile_u8`], charged at `lanes_used` SIMD lanes per instruction
/// ([`Machine::charge_macs_lanes`]): a GEMM micro-kernel priced as a
/// lowering would issue it — `lanes_used = 1` prices the scalar lowering
/// a capability-unaware compiler emits, `lanes_used = device lanes` the
/// fully vectorized one.
pub fn dot_tile_lanes(
    m: &mut Machine,
    a: &[u8],
    b: &[u8],
    b_stride: usize,
    acc: &mut [i32],
    fully_unrolled: bool,
    lanes_used: u64,
) {
    let (ki, ni) = (a.len(), acc.len());
    if ki == 0 || ni == 0 {
        return;
    }
    dot_accumulate_u8(a, b, b_stride, acc);
    m.charge_macs_lanes((ki * ni) as u64, fully_unrolled, lanes_used);
    if lanes_used > 1 {
        // Fixed per-tile register packing setup (SXTB16 widening /
        // predication), explicit here because a lowered matmul issues
        // one packed tile per call; the direct kernels fold steady-state
        // packing into `mac_cycles_x100`.
        m.charge_cycles(m.device.cost.simd.packing_cycles);
    }
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
        let a = [1i8, 2];
        let b = [3i8, 4, 5, 6];
        let mut acc = [0i32; 2];
        dot_tile(&mut m, &a, &b, 2, &mut acc, true);
        assert_eq!(acc, [13, 16]);
        assert_eq!(m.counters.macs, 4);
    }

    #[test]
    fn dot_tile_accumulates() {
        let mut m = machine();
        let mut acc = [10i32];
        dot_tile(&mut m, &[2], &[3], 1, &mut acc, true);
        assert_eq!(acc, [16]);
    }

    #[test]
    fn dot_tile_respects_stride() {
        let mut m = machine();
        // b laid out with stride 3 but only 2 used lanes.
        let b = [1i8, 2, 99, 4, 5, 99];
        let mut acc = [0i32; 2];
        dot_tile(&mut m, &[1, 1], &b, 3, &mut acc, false);
        assert_eq!(acc, [5, 7]);
    }

    #[test]
    #[should_panic(expected = "weight tile too small")]
    fn dot_tile_bounds_checked() {
        let mut m = machine();
        let mut acc = [0i32; 4];
        dot_tile(&mut m, &[1, 1], &[0; 4], 4, &mut acc, true);
    }

    #[test]
    fn partial_unroll_charges_more() {
        let mut m1 = machine();
        let mut m2 = machine();
        let a = [1i8; 32];
        let b = [1i8; 64];
        let mut acc = [0i32; 2];
        dot_tile(&mut m1, &a, &b, 2, &mut acc, true);
        let mut acc = [0i32; 2];
        dot_tile(&mut m2, &a, &b, 2, &mut acc, false);
        assert!(m2.counters.cycles > m1.counters.cycles);
        assert_eq!(m1.counters.macs, m2.counters.macs);
    }

    #[test]
    fn dot_tile_u8_is_bit_exact_and_cycle_identical_to_dot_tile() {
        // Deterministic pseudo-random contents; ragged ki exercises the
        // chunks_exact remainder path.
        for (ki, ni) in [(1, 1), (3, 2), (4, 4), (7, 5), (16, 2), (37, 3)] {
            let a: Vec<u8> = (0..ki).map(|i| (i * 37 + 11) as u8).collect();
            let b: Vec<u8> = (0..ki * ni).map(|i| (i * 91 + 5) as u8).collect();
            let a_i8: Vec<i8> = a.iter().map(|&v| v as i8).collect();
            let b_i8: Vec<i8> = b.iter().map(|&v| v as i8).collect();
            let mut m1 = machine();
            let mut m2 = machine();
            let mut acc1 = vec![7i32; ni];
            let mut acc2 = vec![7i32; ni];
            dot_tile(&mut m1, &a_i8, &b_i8, ni, &mut acc1, true);
            dot_tile_u8(&mut m2, &a, &b, ni, &mut acc2, true);
            assert_eq!(acc1, acc2, "ki={ki} ni={ni}");
            assert_eq!(m1.counters, m2.counters, "ki={ki} ni={ni}");
        }
    }

    #[test]
    fn dot_tile_lanes_native_width_matches_dot_tile_u8_plus_packing() {
        let a: Vec<u8> = (0..16u8).collect();
        let b: Vec<u8> = (0..32u8).collect();
        let mut base = machine();
        let mut lanes = machine();
        let mut acc1 = [0i32; 2];
        let mut acc2 = [0i32; 2];
        dot_tile_u8(&mut base, &a, &b, 2, &mut acc1, true);
        let native = base.device.cost.simd.lanes;
        dot_tile_lanes(&mut lanes, &a, &b, 2, &mut acc2, true, native);
        assert_eq!(acc1, acc2);
        assert_eq!(
            lanes.counters.cycles,
            base.counters.cycles + base.device.cost.simd.packing_cycles
        );
        assert_eq!(lanes.counters.macs, base.counters.macs);
    }

    #[test]
    fn scalar_lane_charging_costs_roughly_the_lane_ratio_more() {
        let a = [1u8; 64];
        let b = [2u8; 128];
        let mut scalar = machine();
        let mut vector = machine();
        let mut acc = [0i32; 2];
        dot_tile_lanes(&mut scalar, &a, &b, 2, &mut acc, true, 1);
        let mut acc = [0i32; 2];
        let native = vector.device.cost.simd.lanes;
        dot_tile_lanes(&mut vector, &a, &b, 2, &mut acc, true, native);
        let ratio = scalar.counters.cycles as f64 / vector.counters.cycles as f64;
        assert!(ratio >= 1.8, "scalar/vector cycle ratio {ratio} < 1.8");
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
        assert_eq!(m.counters.cycles, 4 * REQUANT_CYCLES_PER_ELEM);
    }
}
