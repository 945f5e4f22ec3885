//! Segment-aware dense 2D convolution — Figure 5 of the paper.
//!
//! Same two-level tiling as the fully-connected kernel, with the filter
//! window loops (`r`, `s`) between the outer spatial loops and the channel
//! segment loops. Input pixel rows are freed as soon as no later output
//! row's window can touch them, which is what lets the output chase the
//! input through the circular pool.

use crate::intrinsics::{broadcast_cycles, dot_accumulate_u8, requant_into, tiles};
use crate::params::Conv2dParams;
use crate::trace::{free_upto, ExecEvent};
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::{Counters, Machine};

/// Dry-run of the kernel's store/free schedule (byte addresses).
pub fn conv2d_exec_trace(p: &Conv2dParams) -> Vec<ExecEvent> {
    let (q_out, k) = (p.out_w(), p.k);
    let row_bytes = p.w * p.c;
    let mut ev = Vec::new();
    let mut next_free = 0usize;
    for pi in 0..p.out_h() {
        for qi in 0..q_out {
            let mut k0 = 0;
            while k0 < k {
                let kw = p.seg.min(k - k0);
                ev.push(ExecEvent::Store {
                    addr: ((pi * q_out + qi) * k + k0) as i64,
                    len: kw,
                });
                k0 += kw;
            }
        }
        let upto = free_upto(p.h, p.out_h(), p.stride, p.pad, pi);
        if upto > next_free {
            ev.push(ExecEvent::Free {
                addr: (next_free * row_bytes) as i64,
                len: (upto - next_free) * row_bytes,
            });
            next_free = upto;
        }
    }
    ev
}

/// Runs the 2D convolution kernel. Input `[H,W,C]` at pool address `b_in`,
/// output `[P,Q,K]` at `b_out`, weights `[R,S,C,K]` in Flash at `w_base`.
///
/// The device computes each output pixel one `seg`-lane tile at a time,
/// loading every in-bounds tap's input segments through the pool and the
/// matching weight rows from Flash per tile; the counters charge exactly
/// that. The host reads the weights once per call — Flash is immutable
/// during an inference — and per pixel does one checked pool read per
/// tap, one `K`-lane dot per tap, one requant and one checked store,
/// then adds the pixel's price: the fixed part, `tap * taps`, and each
/// segment access at its own wrap split.
///
/// # Errors
///
/// Propagates pool violations and memory errors, including a weight
/// image that does not fit in Flash.
///
/// # Panics
///
/// Panics if `bias` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn run_conv2d(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &Conv2dParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
    bias: Option<&[i32]>,
) -> Result<(), PoolError> {
    if let Some(b) = bias {
        assert_eq!(b.len(), p.k, "bias length mismatch");
    }
    let (p_out, q_out) = (p.out_h(), p.out_w());
    let tap_bytes = p.c * p.k;
    let weights = m.flash.read(w_base, p.r * p.s * tap_bytes)?;
    let cost = m.device.cost;
    // Per in-bounds tap, apart from its pool loads: for every output
    // tile and input segment, one FlashLoad per weight row, a fully
    // unrolled `Dot` and its back-edge.
    let mut tap = Counters::new();
    // Per output pixel, apart from its taps and pool stores: each output
    // tile's splat, requant epilogue and back-edge.
    let mut pixel = Counters::new();
    for (_, kw) in tiles(p.k, p.seg) {
        for (_, cw) in tiles(p.c, p.seg) {
            let mut weight_row = Counters::new();
            weight_row.charge_flash_load(&cost, kw as u64);
            tap += weight_row * cw as u64;
            tap.charge_macs(&cost, (cw * kw) as u64, true);
            tap.charge_branches(&cost, 1);
        }
        pixel.cycles += broadcast_cycles(kw);
        pixel.charge_requant(&cost, kw as u64);
        pixel.charge_branches(&cost, 1);
    }
    // Every output tile reloads each tap's input segments.
    let reloads = p.k.div_ceil(p.seg) as u64;
    let mut a_reg = vec![0u8; p.c];
    let mut acc = vec![0i32; p.k];
    let mut out_reg = vec![0u8; p.k];
    let mut next_free = 0usize;
    for pi in 0..p_out {
        for qi in 0..q_out {
            match bias {
                Some(b) => acc.copy_from_slice(b),
                None => acc.fill(0),
            }
            let mut loads = Counters::new();
            let mut taps = 0u64;
            for ri in 0..p.r {
                let y = (pi * p.stride + ri) as isize - p.pad as isize;
                if y < 0 || y >= p.h as isize {
                    continue;
                }
                for si in 0..p.s {
                    let x = (qi * p.stride + si) as isize - p.pad as isize;
                    if x < 0 || x >= p.w as isize {
                        continue;
                    }
                    let in_addr = b_in + ((y as usize * p.w + x as usize) * p.c) as i64;
                    let a = pool.read_span(m, in_addr, &mut a_reg)?;
                    let w = &weights[(ri * p.s + si) * tap_bytes..][..tap_bytes];
                    dot_accumulate_u8(a, w, p.k, &mut acc);
                    for (c0, cw) in tiles(p.c, p.seg) {
                        loads += pool.price_load(&cost, in_addr + c0 as i64, cw);
                    }
                    taps += 1;
                }
            }
            requant_into(&acc, p.rq, p.clamp, &mut out_reg);
            let out_addr = b_out + ((pi * q_out + qi) * p.k) as i64;
            pool.store_span(m, &out_reg, out_addr)?;
            let mut price = pixel + tap * taps + loads * reloads;
            for (k0, kw) in tiles(p.k, p.seg) {
                price += pool.price_store(&cost, out_addr + k0 as i64, kw);
            }
            m.counters += price;
        }
        let upto = free_upto(p.h, p_out, p.stride, p.pad, pi);
        if upto > next_free {
            pool.free(
                b_in + (next_free * p.w * p.c) as i64,
                (upto - next_free) * p.w * p.c,
            )?;
            next_free = upto;
        }
        m.charge_branches(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pool_window;
    use crate::ChainOp;
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant, Tensor};

    fn footprint(p: &Conv2dParams) -> usize {
        pool_window(
            p.in_bytes(),
            p.out_bytes(),
            ChainOp::Conv2d(*p).exec_distance(),
        )
    }

    fn run_case(p: &Conv2dParams, extra: i64) -> Result<(Tensor<i8>, Machine), PoolError> {
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 31);
        let weight = random::tensor_i8(&[p.r, p.s, p.c, p.k], 32);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let d = ChainOp::Conv2d(*p).exec_distance() + extra;
        let window = pool_window(p.in_bytes(), p.out_bytes(), d);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_conv2d(&mut m, &mut pool, p, 0, -d, w_base, None)?;
        let out = pool.host_read(&m, -d, p.out_bytes())?;
        Ok((Tensor::from_bytes(&[p.out_h(), p.out_w(), p.k], &out), m))
    }

    fn expected(p: &Conv2dParams) -> Tensor<i8> {
        let input = random::tensor_i8(&[p.h, p.w, p.c], 31);
        let weight = random::tensor_i8(&[p.r, p.s, p.c, p.k], 32);
        reference::conv2d(&input, &weight, None, p.stride, p.pad, p.rq, p.clamp)
    }

    #[test]
    fn matches_reference_same_padding() {
        let p = Conv2dParams::new(6, 6, 4, 4, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0));
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, expected(&p));
    }

    #[test]
    fn matches_reference_valid_padding() {
        let p = Conv2dParams::new(7, 7, 3, 5, 3, 3, 1, 0, Requant::from_scale(1.0 / 32.0, 2));
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, expected(&p));
    }

    #[test]
    fn matches_reference_stride_two() {
        let p = Conv2dParams::new(8, 8, 4, 6, 3, 3, 2, 1, Requant::from_scale(1.0 / 64.0, -3));
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, expected(&p));
    }

    #[test]
    fn matches_reference_ragged_segments() {
        // seg = min(C,K) = 3 does not divide K = 5.
        let p = Conv2dParams::new(5, 5, 3, 5, 3, 3, 1, 1, Requant::from_scale(1.0 / 16.0, 1));
        let (out, _) = run_case(&p, 0).unwrap();
        assert_eq!(out, expected(&p));
    }

    #[test]
    fn exec_distance_is_tight_empirically() {
        let p = Conv2dParams::new(6, 6, 4, 4, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0));
        assert!(run_case(&p, 0).is_ok());
        assert!(matches!(
            run_case(&p, -1).unwrap_err(),
            PoolError::Clobber { .. }
        ));
    }

    #[test]
    fn footprint_beats_disjoint_for_equal_channels() {
        let p = Conv2dParams::new(16, 16, 8, 8, 3, 3, 1, 1, Requant::identity());
        let fp = footprint(&p);
        assert!(fp < p.in_bytes() + p.out_bytes());
    }

    #[test]
    fn stride_two_overlap_is_cheap() {
        // Output shrinks 4x; the writer never catches the reader, so the
        // footprint stays close to the input size.
        let p = Conv2dParams::new(16, 16, 8, 8, 3, 3, 2, 1, Requant::identity());
        let fp = footprint(&p);
        assert!(fp < p.in_bytes() + p.in_bytes() / 4);
    }

    #[test]
    fn mac_counters_match_exact_tap_count() {
        let p = Conv2dParams::new(5, 5, 2, 3, 3, 3, 1, 1, Requant::from_scale(0.05, 0));
        let (_, m) = run_case(&p, 0).unwrap();
        assert_eq!(m.counters.macs, p.macs());
    }
}
