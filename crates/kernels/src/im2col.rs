//! im2col + matmul lowering for conv2d and fully-connected layers.
//!
//! The TinyEngine-style alternative to the direct segment-aware kernels:
//! each output pixel's receptive field is first *gathered* into a dense
//! staging patch in workspace RAM (charged as real RAM-to-RAM copy
//! traffic — the cost §7.2 of the paper attributes the baselines' energy
//! gap to), then the layer reduces to a plain GEMM driven through the
//! lane-blocked [`dot_tile_lanes`] micro-kernel. Padding positions are
//! zero-filled in the patch, so the GEMM is unconditional: no boundary
//! branches in the inner loop, which is exactly what lets a compiler keep
//! the SIMD pipeline full.
//!
//! The lowering keeps the **same pool store/free order** as the direct
//! kernels — output segments are produced pixel-major and input rows are
//! retired by the shared [`free_upto`](crate::conv2d) schedule — so the
//! planner offsets [`conv2d_exec_distance`](crate::conv2d::conv2d_exec_distance)
//! and [`fc_exec_distance`](crate::fc::fc_exec_distance) apply unchanged,
//! and outputs are bit-exact with the direct kernels (integer accumulation
//! commutes; zero-filled taps contribute nothing).
//!
//! `lanes_used` selects the pricing of the GEMM: `1` is the scalar
//! lowering a capability-unaware compiler emits, `device.cost.simd.lanes`
//! the fully vectorized one. [`native_lanes`] picks the latter.

use crate::conv2d::free_upto;
use crate::intrinsics::{broadcast, dot_tile_lanes, requant_row};
use crate::params::{Conv2dParams, FcParams};
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::Machine;

/// Workspace bytes the conv2d im2col lowering stages one patch in
/// (`R·S·C`: the dense receptive field of one output pixel).
pub fn conv2d_im2col_workspace_bytes(p: &Conv2dParams) -> usize {
    p.r * p.s * p.c
}

/// Workspace bytes the fc im2col lowering stages one input row in (`K`).
pub fn fc_im2col_workspace_bytes(p: &FcParams) -> usize {
    p.k
}

/// The device's full SIMD width — the lane count the vectorized lowering
/// drives [`dot_tile_lanes`] at.
pub fn native_lanes(m: &Machine) -> u64 {
    m.device.cost.simd.lanes
}

/// Runs conv2d as im2col + matmul. Same tensor layout and pool contract
/// as [`run_conv2d`](crate::conv2d::run_conv2d); `ws_base` names
/// [`conv2d_im2col_workspace_bytes`] bytes of staging RAM outside the
/// pool window.
///
/// MACs counted include the zero-filled padding taps (the GEMM is dense),
/// so they exceed [`Conv2dParams::macs`] whenever `pad > 0`.
///
/// # Errors
///
/// Propagates pool violations and memory errors.
///
/// # Panics
///
/// Panics if `bias` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn run_conv2d_im2col(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &Conv2dParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
    bias: Option<&[i32]>,
    ws_base: usize,
    lanes_used: u64,
) -> Result<(), PoolError> {
    if let Some(b) = bias {
        assert_eq!(b.len(), p.k, "bias length mismatch");
    }
    let seg = p.seg;
    let (p_out, q_out) = (p.out_h(), p.out_w());
    let patch_len = p.r * p.s * p.c;
    let zeros = vec![0u8; p.c];
    let mut chan = vec![0u8; p.c];
    let mut a_reg = vec![0u8; seg];
    let mut w_tile = vec![0u8; seg * seg];
    let mut acc = vec![0i32; seg];
    let mut out_reg = vec![0u8; seg];
    let mut next_free = 0usize;
    for pi in 0..p_out {
        for qi in 0..q_out {
            // im2col gather: copy the receptive field into the staging
            // patch, zero-filling taps that fall into the padding halo.
            // Every byte is real RAM-to-RAM traffic (pool read + RAM
            // write), which is the cost this lowering pays for its
            // branch-free GEMM.
            for ri in 0..p.r {
                let y = (pi * p.stride + ri) as isize - p.pad as isize;
                for si in 0..p.s {
                    let x = (qi * p.stride + si) as isize - p.pad as isize;
                    let dst = ws_base + (ri * p.s + si) * p.c;
                    if y < 0 || y >= p.h as isize || x < 0 || x >= p.w as isize {
                        m.ram_store(dst, &zeros)?;
                    } else {
                        let src = ((y as usize * p.w + x as usize) * p.c) as i64;
                        pool.load(m, b_in + src, &mut chan)?;
                        m.ram_store(dst, &chan)?;
                    }
                }
            }
            m.charge_branches(1);
            // Matmul over the dense patch: weights `[R,S,C,K]` are row-for-
            // row the patch's layout, so full-width output tiles stream the
            // weight rows as one burst.
            let mut k0 = 0;
            while k0 < p.k {
                let kw = seg.min(p.k - k0);
                broadcast(m, &mut acc[..kw], 0);
                if let Some(b) = bias {
                    for (a, &bv) in acc[..kw].iter_mut().zip(&b[k0..k0 + kw]) {
                        *a = bv;
                    }
                }
                let mut j0 = 0;
                while j0 < patch_len {
                    let jw = seg.min(patch_len - j0);
                    m.ram_load(ws_base + j0, &mut a_reg[..jw])?;
                    if kw == p.k {
                        m.flash_load(w_base + j0 * p.k, &mut w_tile[..jw * kw])?;
                    } else {
                        for jj in 0..jw {
                            let row = w_base + (j0 + jj) * p.k + k0;
                            m.flash_load(row, &mut w_tile[jj * kw..jj * kw + kw])?;
                        }
                    }
                    dot_tile_lanes(
                        m,
                        &a_reg[..jw],
                        &w_tile[..jw * kw],
                        kw,
                        &mut acc[..kw],
                        true,
                        lanes_used,
                    );
                    m.charge_branches(1);
                    j0 += jw;
                }
                requant_row(m, &acc[..kw], p.rq, p.clamp, &mut out_reg[..kw]);
                pool.store(
                    m,
                    &out_reg[..kw],
                    b_out + ((pi * q_out + qi) * p.k + k0) as i64,
                )?;
                m.charge_branches(1);
                k0 += kw;
            }
        }
        let upto = free_upto(p, pi);
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

/// Runs the fully-connected layer with its input row staged through
/// workspace RAM and the GEMM driven through [`dot_tile_lanes`]. Same
/// tensor layout and pool contract as [`run_fc`](crate::fc::run_fc);
/// `ws_base` names [`fc_im2col_workspace_bytes`] bytes of staging RAM.
///
/// # Errors
///
/// Propagates pool violations and memory errors.
///
/// # Panics
///
/// Panics if `bias` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn run_fc_im2col(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &FcParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
    bias: Option<&[i32]>,
    ws_base: usize,
    lanes_used: u64,
) -> Result<(), PoolError> {
    if let Some(b) = bias {
        assert_eq!(b.len(), p.n, "bias length mismatch");
    }
    let seg = p.seg;
    let mut a_reg = vec![0u8; seg];
    let mut w_tile = vec![0u8; seg * seg];
    let mut acc = vec![0i32; seg];
    let mut out_reg = vec![0u8; seg];
    for mi in 0..p.m {
        // Stage the input row once per row (RAM-to-RAM), instead of
        // re-loading it from the pool per output tile.
        let mut off = 0;
        while off < p.k {
            let kw = seg.min(p.k - off);
            pool.load(m, b_in + (mi * p.k + off) as i64, &mut a_reg[..kw])?;
            m.ram_store(ws_base + off, &a_reg[..kw])?;
            off += kw;
        }
        m.charge_branches(1);
        let mut n0 = 0;
        while n0 < p.n {
            let nw = seg.min(p.n - n0);
            broadcast(m, &mut acc[..nw], 0);
            if let Some(b) = bias {
                for (a, &bv) in acc[..nw].iter_mut().zip(&b[n0..n0 + nw]) {
                    *a = bv;
                }
            }
            let mut k0 = 0;
            while k0 < p.k {
                let kw = seg.min(p.k - k0);
                m.ram_load(ws_base + k0, &mut a_reg[..kw])?;
                if nw == p.n {
                    m.flash_load(w_base + k0 * p.n, &mut w_tile[..kw * nw])?;
                } else {
                    for kk in 0..kw {
                        let row = w_base + (k0 + kk) * p.n + n0;
                        m.flash_load(row, &mut w_tile[kk * nw..kk * nw + nw])?;
                    }
                }
                dot_tile_lanes(
                    m,
                    &a_reg[..kw],
                    &w_tile[..kw * nw],
                    nw,
                    &mut acc[..nw],
                    true,
                    lanes_used,
                );
                m.charge_branches(1);
                k0 += kw;
            }
            requant_row(m, &acc[..nw], p.rq, p.clamp, &mut out_reg[..nw]);
            pool.store(m, &out_reg[..nw], b_out + (mi * p.n + n0) as i64)?;
            m.charge_branches(1);
            n0 += nw;
        }
        pool.free(b_in + (mi * p.k) as i64, p.k)?;
        m.charge_branches(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv2d::{conv2d_exec_distance, run_conv2d};
    use crate::fc::{fc_exec_distance, run_fc};
    use vmcu_sim::Device;
    use vmcu_tensor::{random, Requant, Tensor};

    fn conv_case(d: Device, p: &Conv2dParams, lanes: u64) -> (Tensor<i8>, Machine) {
        let mut m = Machine::new(d);
        let input = random::tensor_i8(&[p.h, p.w, p.c], 31);
        let weight = random::tensor_i8(&[p.r, p.s, p.c, p.k], 32);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let dist = conv2d_exec_distance(p);
        let used = dist.max(0) as usize;
        let window = (p.in_bytes() + used).max(p.out_bytes());
        let ws = window; // staging patch right after the pool window
        let mut pool = SegmentPool::new(&m, 0, window, p.seg).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_conv2d_im2col(&mut m, &mut pool, p, 0, -dist, w_base, None, ws, lanes).unwrap();
        let out = pool.host_read(&m, -dist, p.out_bytes()).unwrap();
        (Tensor::from_bytes(&[p.out_h(), p.out_w(), p.k], &out), m)
    }

    fn conv_direct(p: &Conv2dParams) -> (Tensor<i8>, Machine) {
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 31);
        let weight = random::tensor_i8(&[p.r, p.s, p.c, p.k], 32);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let dist = conv2d_exec_distance(p);
        let window = (p.in_bytes() + dist.max(0) as usize).max(p.out_bytes());
        let mut pool = SegmentPool::new(&m, 0, window, p.seg).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_conv2d(&mut m, &mut pool, p, 0, -dist, w_base, None).unwrap();
        let out = pool.host_read(&m, -dist, p.out_bytes()).unwrap();
        (Tensor::from_bytes(&[p.out_h(), p.out_w(), p.k], &out), m)
    }

    #[test]
    fn conv2d_im2col_is_bit_exact_with_the_direct_kernel() {
        for p in [
            Conv2dParams::new(6, 6, 4, 4, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0)),
            Conv2dParams::new(7, 7, 3, 5, 3, 3, 1, 0, Requant::from_scale(1.0 / 32.0, 2)),
            Conv2dParams::new(8, 8, 4, 6, 3, 3, 2, 1, Requant::from_scale(1.0 / 64.0, -3)),
        ] {
            let (direct, _) = conv_direct(&p);
            for d in Device::simd_ladder() {
                let lanes = d.cost.simd.lanes;
                let (scalar, _) = conv_case(d.clone(), &p, 1);
                let (vector, _) = conv_case(d, &p, lanes);
                assert_eq!(scalar, direct);
                assert_eq!(vector, direct);
            }
        }
    }

    #[test]
    fn vectorized_im2col_beats_scalar_on_dsp_cores() {
        let p = Conv2dParams::new(8, 8, 8, 8, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0));
        for d in [
            Device::stm32_f411re(),
            Device::stm32_f767zi(),
            Device::mps3_an547(),
        ] {
            let lanes = d.cost.simd.lanes;
            let (_, scalar) = conv_case(d.clone(), &p, 1);
            let (_, vector) = conv_case(d, &p, lanes);
            assert_eq!(scalar.counters.macs, vector.counters.macs);
            assert!(
                scalar.counters.cycles > vector.counters.cycles,
                "vectorization must win cycles"
            );
        }
    }

    #[test]
    fn im2col_pays_ram_traffic_the_direct_kernel_avoids() {
        let p = Conv2dParams::new(8, 8, 8, 8, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0));
        let (_, direct) = conv_direct(&p);
        let (_, im2col) = conv_case(Device::stm32_f411re(), &p, 2);
        assert!(im2col.counters.ram_write_bytes > direct.counters.ram_write_bytes);
    }

    #[test]
    fn dense_gemm_counts_padding_taps() {
        let p = Conv2dParams::new(6, 6, 4, 4, 3, 3, 1, 1, Requant::from_scale(1.0 / 64.0, 0));
        let (_, m) = conv_case(Device::stm32_f411re(), &p, 2);
        let dense = (p.out_h() * p.out_w() * p.r * p.s * p.c * p.k) as u64;
        assert_eq!(m.counters.macs, dense);
        assert!(dense > p.macs());
    }

    fn fc_case(d: Device, p: &FcParams, lanes: u64) -> (Tensor<i8>, Machine) {
        let mut m = Machine::new(d);
        let input = random::tensor_i8(&[p.m, p.k], 11);
        let weight = random::tensor_i8(&[p.k, p.n], 22);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let dist = fc_exec_distance(p);
        let window = (p.in_bytes() + dist.max(0) as usize).max(p.out_bytes());
        let mut pool = SegmentPool::new(&m, 0, window, p.seg).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_fc_im2col(&mut m, &mut pool, p, 0, -dist, w_base, None, window, lanes).unwrap();
        let out = pool.host_read(&m, -dist, p.out_bytes()).unwrap();
        (Tensor::from_bytes(&[p.m, p.n], &out), m)
    }

    #[test]
    fn fc_im2col_is_bit_exact_with_the_direct_kernel() {
        for p in [
            FcParams::new(6, 8, 8, Requant::from_scale(1.0 / 32.0, 0)),
            FcParams::new(3, 12, 5, Requant::from_scale(1.0 / 64.0, -2)),
        ] {
            let mut m = Machine::new(Device::stm32_f411re());
            let input = random::tensor_i8(&[p.m, p.k], 11);
            let weight = random::tensor_i8(&[p.k, p.n], 22);
            let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
            let dist = fc_exec_distance(&p);
            let window = (p.in_bytes() + dist.max(0) as usize).max(p.out_bytes());
            let mut pool = SegmentPool::new(&m, 0, window, p.seg).unwrap();
            pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
            run_fc(&mut m, &mut pool, &p, 0, -dist, w_base, None).unwrap();
            let direct = Tensor::from_bytes(
                &[p.m, p.n],
                &pool.host_read(&m, -dist, p.out_bytes()).unwrap(),
            );
            for d in Device::simd_ladder() {
                let lanes = d.cost.simd.lanes;
                let (out, _) = fc_case(d, &p, lanes);
                assert_eq!(out, direct);
            }
        }
    }

    #[test]
    fn fc_staging_cuts_pool_reloads() {
        // The direct kernel re-loads the input row from the (modulo-
        // checked) pool once per output tile; the staged GEMM touches the
        // pool exactly once per row, so it performs fewer boundary checks.
        // N spans four segment tiles, so the direct kernel re-loads each
        // input row four times where the staged GEMM loads it once.
        let p = FcParams::new(4, 8, 32, Requant::from_scale(1.0 / 32.0, 0));
        let mut m = Machine::new(Device::stm32_f411re());
        let input = random::tensor_i8(&[p.m, p.k], 11);
        let weight = random::tensor_i8(&[p.k, p.n], 22);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let dist = fc_exec_distance(&p);
        let window = (p.in_bytes() + dist.max(0) as usize).max(p.out_bytes());
        let mut pool = SegmentPool::new(&m, 0, window, p.seg).unwrap();
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_fc(&mut m, &mut pool, &p, 0, -dist, w_base, None).unwrap();
        let (_, staged) = fc_case(Device::stm32_f411re(), &p, 2);
        assert!(staged.counters.modulo_ops < m.counters.modulo_ops);
    }
}
