//! The vMCU segment kernels against the per-segment loops they model.
//!
//! `run_fc` (and so `run_pointwise`), `run_depthwise`, `run_conv2d`,
//! `run_fused_ib` and `run_fused_chain` compute a whole pixel (a whole
//! row for fc) per host step: one checked pool read of the input, one
//! dot over all output lanes against weights read from Flash once per
//! call, one requant and one checked store. They charge what the device
//! does: every `RAMLoad`, `FlashLoad` and `RAMStore` of the modelled
//! segment loop, each pool access at its own wrap split. Those loops are
//! kept here verbatim as `definition_*` oracles. Every case runs on the
//! F411RE, F767ZI and G071RB (whose cost constants differ in per-call
//! rounding), with segment sizes that do not divide the channel counts
//! and pool bases that make accesses wrap the window, and must end with
//! the same `Result`; a run that succeeds must also leave the same
//! counters, live and peak pool bytes and RAM image. At the planned
//! distance minus one, and in a window one byte short, both must fail
//! with the same error (or both succeed as above). This file is the gate
//! for any edit to these kernels or to the pool's span and price
//! helpers.
//!
//! The depthwise loops read each window row's run of in-bounds taps with
//! one checked read; a dead byte inside a tap must still fail them with
//! the `DeadRead` the per-tap reads report, wherever the window wraps.
//!
//! Every host MAC of those kernels runs through two intrinsics, the
//! `Dot` core (behind `dot_tile_u8`) and the window core
//! `window_accumulate` (whose one-tap case is `tap_accumulate`),
//! over weights widened to `i16` once per call. The last properties hold
//! both to the per-element definitions `acc[n] += Σ_k a[k]·b[k·stride + n]`,
//! `k` ascending, on every block and remainder shape up to 40 lanes deep
//! and wide, and `acc[c] += Σ_t a_t[c]·w_t[c]`, `t` ascending, over up
//! to 100 channels and 49 taps.

use proptest::prelude::*;
use proptest::TestCaseError;
use vmcu::vmcu_graph::LayerDesc;
use vmcu::vmcu_kernels::conv2d::run_conv2d;
use vmcu::vmcu_kernels::depthwise::run_depthwise;
use vmcu::vmcu_kernels::fc::run_fc;
use vmcu::vmcu_kernels::fused_chain::{
    chain_exec_distance, chain_schedule, chain_workspace_bytes, run_fused_chain, ChainOp,
    ChainStep, FusedChain,
};
use vmcu::vmcu_kernels::fused_ib::{
    ib_schedule, ib_workspace_bytes, run_fused_ib, IbFlash, IbScheme, IbStep,
};
use vmcu::vmcu_kernels::intrinsics::{
    broadcast, dot_tile_u8, requant_row, tap_accumulate, widen, window_accumulate,
};
use vmcu::vmcu_kernels::params::{
    Conv2dParams, DepthwiseParams, FcParams, IbParams, PointwiseParams,
};
use vmcu::vmcu_kernels::trace::pool_window;
use vmcu::vmcu_pool::{PoolError, SegmentPool};
use vmcu::vmcu_sim::{Device, Machine};
use vmcu::vmcu_tensor::{quant::sat8, random, Requant};

// ---- oracles: the per-segment loops -------------------------------------

/// The modelled device loop of `run_fc`: per output tile, every input
/// segment reloaded through the pool and its weight tile streamed from
/// Flash (one burst when the tile spans whole weight rows).
fn definition_fc(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &FcParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
) -> Result<(), PoolError> {
    let seg = p.seg;
    let mut a_reg = vec![0u8; seg];
    let mut w_tile = vec![0u8; seg * seg];
    let mut acc = vec![0i32; seg];
    let mut out_reg = vec![0u8; seg];
    for mi in 0..p.m {
        let mut n0 = 0;
        while n0 < p.n {
            let nw = seg.min(p.n - n0);
            // Accumulator initialisation (RegAlloc + broadcast).
            broadcast(m, &mut acc[..nw], 0);
            let mut k0 = 0;
            while k0 < p.k {
                let kw = seg.min(p.k - k0);
                // RAMLoad of the input segment (modulo-checked).
                pool.load(m, b_in + (mi * p.k + k0) as i64, &mut a_reg[..kw])?;
                // FlashLoad of the weight tile rows W[k0..k0+kw, n0..n0+nw];
                // a tile spanning full rows streams as one long burst.
                if nw == p.n {
                    m.flash_load(w_base + k0 * p.n, &mut w_tile[..kw * nw])?;
                } else {
                    for kk in 0..kw {
                        let row = w_base + (k0 + kk) * p.n + n0;
                        m.flash_load(row, &mut w_tile[kk * nw..kk * nw + nw])?;
                    }
                }
                dot_tile_u8(
                    m,
                    &a_reg[..kw],
                    &widen(&w_tile[..kw * nw]),
                    nw,
                    &mut acc[..nw],
                    true,
                );
                m.charge_branches(1);
                k0 += kw;
            }
            requant_row(m, &acc[..nw], p.rq, p.clamp, &mut out_reg[..nw]);
            // RAMStore of the output segment.
            pool.store(m, &out_reg[..nw], b_out + (mi * p.n + n0) as i64)?;
            m.charge_branches(1);
            n0 += nw;
        }
        // RAMFree of the fully consumed input row.
        pool.free(m, b_in + (mi * p.k) as i64, p.k)?;
        m.charge_branches(1);
    }
    Ok(())
}

/// Exclusive upper bound of input rows dead after output row `row` of a
/// sliding-window layer with `out_h` rows over `h`.
fn free_upto(h: usize, out_h: usize, stride: usize, pad: usize, row: usize) -> usize {
    if row + 1 == out_h {
        h
    } else {
        h.min(((row + 1) * stride).saturating_sub(pad))
    }
}

/// The modelled device loop of `run_depthwise`: one pool load of the
/// input pixel and one `FlashLoad` of the weight row per in-bounds tap.
fn definition_depthwise(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &DepthwiseParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
) -> Result<(), PoolError> {
    let (p_out, q_out) = (p.out_h(), p.out_w());
    let mut a_reg = vec![0u8; p.c];
    let mut w_reg = vec![0u8; p.c];
    let mut acc = vec![0i32; p.c];
    let mut out_reg = vec![0u8; p.c];
    let mut next_free = 0usize;
    for pi in 0..p_out {
        for qi in 0..q_out {
            broadcast(m, &mut acc, 0);
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
                    let in_addr = ((y as usize * p.w + x as usize) * p.c) as i64;
                    pool.load(m, b_in + in_addr, &mut a_reg)?;
                    m.flash_load(w_base + (ri * p.s + si) * p.c, &mut w_reg)?;
                    for c in 0..p.c {
                        acc[c] += i32::from(a_reg[c] as i8) * i32::from(w_reg[c] as i8);
                    }
                    m.charge_macs(p.c as u64, true);
                }
            }
            requant_row(m, &acc, p.rq, p.clamp, &mut out_reg);
            pool.store(m, &out_reg, b_out + ((pi * q_out + qi) * p.c) as i64)?;
            m.charge_branches(1);
        }
        let upto = free_upto(p.h, p_out, p.stride, p.pad, pi);
        if upto > next_free {
            pool.free(
                m,
                b_in + (next_free * p.w * p.c) as i64,
                (upto - next_free) * p.w * p.c,
            )?;
            next_free = upto;
        }
        m.charge_branches(1);
    }
    Ok(())
}

/// The modelled device loop of `run_conv2d`: per output tile, every
/// in-bounds tap's input segments reloaded through the pool, each with
/// one `FlashLoad` per weight row.
fn definition_conv2d(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &Conv2dParams,
    b_in: i64,
    b_out: i64,
    w_base: usize,
) -> Result<(), PoolError> {
    let seg = p.seg;
    let (p_out, q_out) = (p.out_h(), p.out_w());
    let mut a_reg = vec![0u8; seg];
    let mut w_tile = vec![0u8; seg * seg];
    let mut acc = vec![0i32; seg];
    let mut out_reg = vec![0u8; seg];
    let mut next_free = 0usize;
    for pi in 0..p_out {
        for qi in 0..q_out {
            let mut k0 = 0;
            while k0 < p.k {
                let kw = seg.min(p.k - k0);
                broadcast(m, &mut acc[..kw], 0);
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
                        let mut c0 = 0;
                        while c0 < p.c {
                            let cw = seg.min(p.c - c0);
                            let in_addr = ((y as usize * p.w + x as usize) * p.c + c0) as i64;
                            pool.load(m, b_in + in_addr, &mut a_reg[..cw])?;
                            for cc in 0..cw {
                                let row = w_base + ((ri * p.s + si) * p.c + c0 + cc) * p.k + k0;
                                m.flash_load(row, &mut w_tile[cc * kw..cc * kw + kw])?;
                            }
                            dot_tile_u8(
                                m,
                                &a_reg[..cw],
                                &widen(&w_tile[..cw * kw]),
                                kw,
                                &mut acc[..kw],
                                true,
                            );
                            m.charge_branches(1);
                            c0 += cw;
                        }
                    }
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
        let upto = free_upto(p.h, p_out, p.stride, p.pad, pi);
        if upto > next_free {
            pool.free(
                m,
                b_in + (next_free * p.w * p.c) as i64,
                (upto - next_free) * p.w * p.c,
            )?;
            next_free = upto;
        }
        m.charge_branches(1);
    }
    Ok(())
}

/// pw1 of one `A` pixel as the device runs it: the pool load, the whole
/// `[C_in, C_mid]` tile streamed from Flash, the `Dot` and the requant.
#[allow(clippy::too_many_arguments)]
fn definition_expand_pixel(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &IbParams,
    b_in: i64,
    y: usize,
    x: usize,
    flash: &IbFlash,
    w1_tile: &mut [u8],
    out: &mut [u8],
) -> Result<(), PoolError> {
    let mut a_reg = vec![0u8; p.c_in];
    pool.load(m, b_in + ((y * p.hw + x) * p.c_in) as i64, &mut a_reg)?;
    m.flash_load(flash.w1, w1_tile)?;
    let mut acc = vec![0i32; p.c_mid];
    broadcast(m, &mut acc, 0);
    dot_tile_u8(m, &a_reg, &widen(w1_tile), p.c_mid, &mut acc, true);
    requant_row(m, &acc, p.rq1, p.clamp1, out);
    Ok(())
}

/// The modelled device loop of `run_fused_ib`: per depthwise tap one
/// workspace `RAMLoad` and one weight-row `FlashLoad`, the projection
/// tile streamed per output pixel.
#[allow(clippy::too_many_arguments)]
fn definition_fused_ib(
    m: &mut Machine,
    pool: &mut SegmentPool,
    p: &IbParams,
    scheme: IbScheme,
    b_in: i64,
    b_out: i64,
    flash: &IbFlash,
    ws_base: usize,
) -> Result<(), PoolError> {
    let (h1, h2) = (p.hw1(), p.hw2());
    let (w1_w, w2_w) = (h1, h2);
    let pad = p.pad();
    let mut w1_tile = vec![0u8; p.c_in * p.c_mid];
    let mut w2_tile = vec![0u8; p.c_mid * p.c_out];
    let mut wdw_reg = vec![0u8; p.c_mid];
    let mut b_pixel = vec![0u8; p.c_mid];
    let mut c_pixel = vec![0u8; p.c_mid];
    let mut d_pixel = vec![0u8; p.c_out];
    let mut acc_mid = vec![0i32; p.c_mid];
    let mut acc_out = vec![0i32; p.c_out];
    let row_bytes = p.hw * p.c_in;

    for step in ib_schedule(p, scheme) {
        match step {
            IbStep::BRow(b) => {
                let slot = b % p.rs.min(h1);
                for x1 in 0..w1_w {
                    definition_expand_pixel(
                        m,
                        pool,
                        p,
                        b_in,
                        b * p.s1,
                        x1 * p.s1,
                        flash,
                        &mut w1_tile,
                        &mut b_pixel,
                    )?;
                    m.ram_store(ws_base + (slot * w1_w + x1) * p.c_mid, &b_pixel)?;
                }
                m.charge_branches(1);
            }
            IbStep::OutPixel(pi, qi) => {
                if scheme != IbScheme::RowBuffer {
                    let col_lo = (qi * p.s2) as isize - pad as isize;
                    let new_from = if scheme == IbScheme::SlidingWindow && qi > 0 {
                        ((qi - 1) * p.s2 + p.rs) as isize - pad as isize
                    } else {
                        col_lo
                    };
                    for r in 0..p.rs {
                        let b = (pi * p.s2 + r) as isize - pad as isize;
                        if b < 0 || b >= h1 as isize {
                            continue;
                        }
                        for s in 0..p.rs {
                            let x1 = col_lo + s as isize;
                            if x1 < 0 || x1 >= w1_w as isize || x1 < new_from {
                                continue;
                            }
                            definition_expand_pixel(
                                m,
                                pool,
                                p,
                                b_in,
                                b as usize * p.s1,
                                x1 as usize * p.s1,
                                flash,
                                &mut w1_tile,
                                &mut b_pixel,
                            )?;
                            let slot = match scheme {
                                IbScheme::SlidingWindow => x1 as usize % p.rs,
                                _ => s,
                            };
                            m.ram_store(ws_base + (r * p.rs + slot) * p.c_mid, &b_pixel)?;
                        }
                    }
                }
                broadcast(m, &mut acc_mid, 0);
                let mut taps = 0u64;
                for r in 0..p.rs {
                    let b = (pi * p.s2 + r) as isize - pad as isize;
                    if b < 0 || b >= h1 as isize {
                        continue;
                    }
                    for s in 0..p.rs {
                        let x1 = (qi * p.s2 + s) as isize - pad as isize;
                        if x1 < 0 || x1 >= w1_w as isize {
                            continue;
                        }
                        let ws_addr = match scheme {
                            IbScheme::RowBuffer => {
                                ws_base
                                    + ((b as usize % p.rs.min(h1)) * w1_w + x1 as usize) * p.c_mid
                            }
                            IbScheme::PixelWindow => ws_base + (r * p.rs + s) * p.c_mid,
                            IbScheme::SlidingWindow => {
                                ws_base + (r * p.rs + x1 as usize % p.rs) * p.c_mid
                            }
                        };
                        m.ram_load(ws_addr, &mut b_pixel)?;
                        m.flash_load(flash.wdw + (r * p.rs + s) * p.c_mid, &mut wdw_reg)?;
                        for c in 0..p.c_mid {
                            acc_mid[c] += i32::from(b_pixel[c] as i8) * i32::from(wdw_reg[c] as i8);
                        }
                        taps += 1;
                    }
                }
                m.charge_macs_batched(p.c_mid as u64, taps, true);
                requant_row(m, &acc_mid, p.rq2, p.clamp2, &mut c_pixel);
                broadcast(m, &mut acc_out, 0);
                m.flash_load(flash.w2, &mut w2_tile)?;
                dot_tile_u8(m, &c_pixel, &widen(&w2_tile), p.c_out, &mut acc_out, true);
                requant_row(m, &acc_out, p.rq3, p.clamp3, &mut d_pixel);
                if p.has_residual() {
                    let mut a_reg = vec![0u8; p.c_in];
                    pool.load(m, b_in + ((pi * p.hw + qi) * p.c_in) as i64, &mut a_reg)?;
                    for c in 0..p.c_out {
                        d_pixel[c] =
                            sat8(i64::from(d_pixel[c] as i8) + i64::from(a_reg[c] as i8)) as u8;
                    }
                    m.charge_cycles(p.c_out as u64);
                }
                pool.store(m, &d_pixel, b_out + ((pi * w2_w + qi) * p.c_out) as i64)?;
                m.charge_branches(1);
            }
            IbStep::FreeRows { from, to } => {
                pool.free(m, b_in + (from * row_bytes) as i64, (to - from) * row_bytes)?;
                m.charge_branches(1);
            }
        }
    }
    Ok(())
}

/// Ring placement of one chain intermediate.
struct Ring {
    base: usize,
    rows: usize,
    row_bytes: usize,
}

/// Loads `dst.len()` bytes at `offset` of row `row` of chain tensor
/// `stage` as the device does: through the pool for the chain input, a
/// `RAMLoad` from the workspace ring otherwise.
#[allow(clippy::too_many_arguments)]
fn definition_chain_load(
    m: &mut Machine,
    pool: &mut SegmentPool,
    chain: &FusedChain,
    rings: &[Ring],
    b_in: i64,
    stage: usize,
    row: usize,
    offset: usize,
    dst: &mut [u8],
) -> Result<(), PoolError> {
    if stage == 0 {
        let irb = chain.ops()[0].in_row_bytes();
        pool.load(m, b_in + (row * irb + offset) as i64, dst)
    } else {
        let ring = &rings[stage - 1];
        let addr = ring.base + (row % ring.rows) * ring.row_bytes + offset;
        m.ram_load(addr, dst)?;
        Ok(())
    }
}

/// One chain row as the device computes it: each operator's weights
/// streamed from Flash per row (per tap for depthwise and conv2d).
#[allow(clippy::too_many_arguments)]
fn definition_chain_row(
    m: &mut Machine,
    pool: &mut SegmentPool,
    chain: &FusedChain,
    rings: &[Ring],
    flash: &[usize],
    b_in: i64,
    op_idx: usize,
    row: usize,
    out: &mut [u8],
) -> Result<(), PoolError> {
    let w_base = flash[op_idx];
    let load = |m: &mut Machine, pool: &mut SegmentPool, row, offset, dst: &mut [u8]| {
        definition_chain_load(m, pool, chain, rings, b_in, op_idx, row, offset, dst)
    };
    match chain.ops()[op_idx] {
        ChainOp::Pointwise(p) => {
            let mut w_tile = vec![0u8; p.c * p.k];
            m.flash_load(w_base, &mut w_tile)?;
            let mut a = vec![0u8; p.c];
            let mut acc = vec![0i32; p.k];
            for x in 0..p.w {
                load(m, pool, row, x * p.c, &mut a)?;
                broadcast(m, &mut acc, 0);
                dot_tile_u8(m, &a, &widen(&w_tile), p.k, &mut acc, true);
                requant_row(m, &acc, p.rq, p.clamp, &mut out[x * p.k..(x + 1) * p.k]);
            }
        }
        ChainOp::Dense(p) => {
            let mut w_tile = vec![0u8; p.k * p.n];
            m.flash_load(w_base, &mut w_tile)?;
            let mut a = vec![0u8; p.k];
            let mut acc = vec![0i32; p.n];
            load(m, pool, row, 0, &mut a)?;
            broadcast(m, &mut acc, 0);
            dot_tile_u8(m, &a, &widen(&w_tile), p.n, &mut acc, true);
            requant_row(m, &acc, p.rq, p.clamp, out);
        }
        ChainOp::Depthwise(p) => {
            let mut a = vec![0u8; p.c];
            let mut w_row = vec![0u8; p.c];
            let mut acc = vec![0i32; p.c];
            for q in 0..p.out_w() {
                broadcast(m, &mut acc, 0);
                let mut taps = 0u64;
                for ri in 0..p.r {
                    let y = (row * p.stride + ri) as isize - p.pad as isize;
                    if y < 0 || y >= p.h as isize {
                        continue;
                    }
                    for si in 0..p.s {
                        let x = (q * p.stride + si) as isize - p.pad as isize;
                        if x < 0 || x >= p.w as isize {
                            continue;
                        }
                        load(m, pool, y as usize, x as usize * p.c, &mut a)?;
                        m.flash_load(w_base + (ri * p.s + si) * p.c, &mut w_row)?;
                        for c in 0..p.c {
                            acc[c] += i32::from(a[c] as i8) * i32::from(w_row[c] as i8);
                        }
                        taps += 1;
                    }
                }
                m.charge_macs_batched(p.c as u64, taps, true);
                requant_row(m, &acc, p.rq, p.clamp, &mut out[q * p.c..(q + 1) * p.c]);
            }
        }
        ChainOp::Conv2d(p) => {
            let mut a = vec![0u8; p.c];
            let mut w_tile = vec![0u8; p.c * p.k];
            let mut acc = vec![0i32; p.k];
            for q in 0..p.out_w() {
                broadcast(m, &mut acc, 0);
                for ri in 0..p.r {
                    let y = (row * p.stride + ri) as isize - p.pad as isize;
                    if y < 0 || y >= p.h as isize {
                        continue;
                    }
                    for si in 0..p.s {
                        let x = (q * p.stride + si) as isize - p.pad as isize;
                        if x < 0 || x >= p.w as isize {
                            continue;
                        }
                        load(m, pool, y as usize, x as usize * p.c, &mut a)?;
                        m.flash_load(w_base + (ri * p.s + si) * p.c * p.k, &mut w_tile)?;
                        dot_tile_u8(m, &a, &widen(&w_tile), p.k, &mut acc, true);
                    }
                }
                requant_row(m, &acc, p.rq, p.clamp, &mut out[q * p.k..(q + 1) * p.k]);
            }
        }
    }
    m.charge_branches(1);
    Ok(())
}

/// The modelled device loop of `run_fused_chain`.
fn definition_fused_chain(
    m: &mut Machine,
    pool: &mut SegmentPool,
    chain: &FusedChain,
    b_in: i64,
    b_out: i64,
    flash: &[usize],
    ws_base: usize,
) -> Result<(), PoolError> {
    let ops = chain.ops();
    let n = ops.len();
    let irb = ops[0].in_row_bytes();
    let orb = ops[n - 1].out_row_bytes();
    let mut rings = Vec::new();
    let mut base = ws_base;
    for (i, op) in ops.iter().enumerate().skip(1) {
        let rows = chain.ring_rows(i);
        let row_bytes = op.in_row_bytes();
        rings.push(Ring {
            base,
            rows,
            row_bytes,
        });
        base += rows * row_bytes;
    }
    let widest = ops.iter().map(ChainOp::out_row_bytes).max().unwrap_or(0);
    let mut row_buf = vec![0u8; widest];
    for step in chain_schedule(chain) {
        match step {
            ChainStep::ProduceRow { stage, row } => {
                let rb = ops[stage].in_row_bytes();
                definition_chain_row(
                    m,
                    pool,
                    chain,
                    &rings,
                    flash,
                    b_in,
                    stage - 1,
                    row,
                    &mut row_buf[..rb],
                )?;
                let ring = &rings[stage - 1];
                let addr = ring.base + (row % ring.rows) * ring.row_bytes;
                m.ram_store(addr, &row_buf[..rb])?;
            }
            ChainStep::StoreOutRow(p) => {
                definition_chain_row(
                    m,
                    pool,
                    chain,
                    &rings,
                    flash,
                    b_in,
                    n - 1,
                    p,
                    &mut row_buf[..orb],
                )?;
                pool.store(m, &row_buf[..orb], b_out + (p * orb) as i64)?;
            }
            ChainStep::FreeInRows { from, to } => {
                pool.free(m, b_in + (from * irb) as i64, (to - from) * irb)?;
                m.charge_branches(1);
            }
        }
    }
    Ok(())
}

// ---- harness ------------------------------------------------------------

/// The three cost models the cases run under.
fn devices() -> [Device; 3] {
    [
        Device::stm32_f411re(),
        Device::stm32_f767zi(),
        Device::stm32_g071rb(),
    ]
}

/// A per-case requantization and activation clamp.
fn requant(pick: usize) -> (Requant, (i8, i8)) {
    match pick % 4 {
        0 => (Requant::from_scale(1.0 / 16.0, 0), (-128, 127)),
        1 => (Requant::from_scale(1.0 / 64.0, 3), (0, 127)),
        2 => (Requant::from_scale(1.0 / 256.0, -5), (-20, 90)),
        _ => (Requant::identity(), (-128, 127)),
    }
}

/// Seeded noise bytes.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    random::tensor_i8(&[len], seed).as_bytes()
}

/// Where a kernel runs: a pool window of `window` bytes at RAM
/// `ram_base`, the input at logical `b_in` (which decides where accesses
/// wrap) and the output `d` bytes below it; a workspace, if any, right
/// after the window.
#[derive(Debug, Clone, Copy)]
struct Layout {
    window: usize,
    ram_base: usize,
    b_in: i64,
    d: i64,
}

impl Layout {
    fn b_out(&self) -> i64 {
        self.b_in - self.d
    }

    fn ws_base(&self) -> usize {
        self.ram_base + self.window
    }

    /// The same placement at distance `d − 1`.
    fn one_closer(self) -> Self {
        Self {
            d: self.d - 1,
            ..self
        }
    }

    /// The same placement in a window one byte short, if the input still
    /// fits it.
    fn one_short(self, in_bytes: usize) -> Option<Self> {
        (self.window > in_bytes.max(1)).then_some(Self {
            window: self.window - 1,
            ..self
        })
    }
}

/// The planned layout of a kernel with `in_bytes` of input, `out_bytes`
/// of output and executable distance `d`, widened by `slack` and with
/// the input placed `shift` bytes into the window.
fn planned(in_bytes: usize, out_bytes: usize, d: i64, slack: usize, shift: usize) -> Layout {
    let window = pool_window(in_bytes, out_bytes, d).max(1) + slack;
    Layout {
        window,
        ram_base: 8 + shift % 13,
        b_in: (shift % window) as i64,
        d,
    }
}

/// A `device` machine with the weight images programmed behind a 3-byte
/// image, and a pool at `layout` holding `input`; returns the images'
/// Flash bases too.
fn boot(
    device: &Device,
    layout: Layout,
    input: &[u8],
    images: &[&[u8]],
) -> (Machine, SegmentPool, Vec<usize>) {
    let mut m = Machine::new(device.clone());
    m.host_program_flash(&[0xA5; 3]).unwrap();
    let bases = images
        .iter()
        .map(|w| m.host_program_flash(w).unwrap())
        .collect();
    let mut pool = SegmentPool::new(&m, layout.ram_base, layout.window).unwrap();
    pool.host_fill_live(&mut m, layout.b_in, input).unwrap();
    (m, pool, bases)
}

/// A kernel (or its definition) run at a layout on a booted machine,
/// given the weight images' Flash bases.
type Run<'a> =
    &'a dyn Fn(&mut Machine, &mut SegmentPool, &[usize], Layout) -> Result<(), PoolError>;

/// Runs the kernel and its definition on twin machines booted at
/// `layout`: the results must be equal, and a clean run must leave the
/// same counters, live and peak pool bytes and RAM image. Returns the
/// error both failed with, if any.
fn assert_same(
    case: &Case<'_>,
    device: &Device,
    layout: Layout,
    kernel: Run<'_>,
    definition: Run<'_>,
) -> Result<Option<PoolError>, TestCaseError> {
    let (mut got, mut got_pool, bases) = boot(device, layout, case.input, case.images);
    let (mut want, mut want_pool, _) = boot(device, layout, case.input, case.images);
    let got_result = kernel(&mut got, &mut got_pool, &bases, layout);
    let want_result = definition(&mut want, &mut want_pool, &bases, layout);
    prop_assert!(
        got_result == want_result,
        "{got_result:?} != {want_result:?} at {layout:?} on {}",
        device.name
    );
    if want_result.is_ok() {
        prop_assert!(
            got.counters == want.counters,
            "counters {} != {} at {layout:?} on {}",
            got.counters,
            want.counters,
            device.name
        );
        prop_assert_eq!(
            (got_pool.live_bytes(), got_pool.peak_live_bytes()),
            (want_pool.live_bytes(), want_pool.peak_live_bytes())
        );
        let used = got.ram.high_water().max(want.ram.high_water());
        let (got_ram, want_ram) = (
            got.ram.read(0, used).unwrap(),
            want.ram.read(0, used).unwrap(),
        );
        prop_assert!(
            got_ram == want_ram,
            "RAM images differ first at byte {:?}",
            got_ram.iter().zip(want_ram).position(|(a, b)| a != b)
        );
    }
    Ok(want_result.err())
}

/// What a kernel case stages: the input bytes and the weight images in
/// Flash order.
struct Case<'a> {
    input: &'a [u8],
    images: &'a [&'a [u8]],
}

/// [`assert_same`] on every device at the planned layout (which must run
/// clean), one byte closer and in a window one byte short. A distance is
/// tight when some store lands on the first unfreed input byte, which
/// then clobbers one byte closer; a distance set by a store after the
/// last free only keeps the output inside the window, and one byte
/// closer runs clean.
fn assert_same_at_every_layout(
    case: &Case<'_>,
    layout: Layout,
    kernel: Run<'_>,
    definition: Run<'_>,
) -> Result<(), TestCaseError> {
    for device in devices() {
        let error = assert_same(case, &device, layout, kernel, definition)?;
        prop_assert!(
            error.is_none(),
            "{error:?} at {layout:?} on {}",
            device.name
        );
        assert_same(case, &device, layout.one_closer(), kernel, definition)?;
        if let Some(short) = layout.one_short(case.input.len()) {
            assert_same(case, &device, short, kernel, definition)?;
        }
    }
    Ok(())
}

/// A segment size that may or may not divide `c` and `k`.
fn pick_seg(raw: usize, c: usize, k: usize) -> usize {
    1 + raw % (c.max(k) + 2)
}

/// The three fused-module workspace schemes.
const SCHEMES: [IbScheme; 3] = [
    IbScheme::RowBuffer,
    IbScheme::PixelWindow,
    IbScheme::SlidingWindow,
];

// ---- properties ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fully-connected (pointwise is its `M = H·W` view) over ragged
    /// segment tilings.
    #[test]
    fn fc_matches_the_per_segment_loop(
        dims in (1usize..=7, 1usize..=24, 1usize..=24, 0usize..64),
        knobs in (0usize..4, 0usize..=9, 0usize..1000),
        seed in 0u64..1_000_000,
    ) {
        let (rows, k, n, raw_seg) = dims;
        let (pick, slack, shift) = knobs;
        let (rq, clamp) = requant(pick);
        let mut p = FcParams::new(rows, k, n, rq);
        p.clamp = clamp;
        p.seg = pick_seg(raw_seg, k, n);
        let input = noise(p.in_bytes(), seed);
        let weights = noise(k * n, seed + 1);
        let layout = planned(p.in_bytes(), p.out_bytes(), ChainOp::Dense(p).exec_distance(), slack, shift);
        let case = Case { input: &input, images: &[&weights] };
        assert_same_at_every_layout(
            &case,
            layout,
            &|m, pool, w, at| run_fc(m, pool, &p, at.b_in, at.b_out(), w[0]),
            &|m, pool, w, at| definition_fc(m, pool, &p, at.b_in, at.b_out(), w[0]),
        )?;
    }

    /// Pointwise layers as the graphs deploy them (the §5.3 segment
    /// rule), through `run_pointwise`.
    #[test]
    fn pointwise_matches_the_per_segment_loop(
        dims in (1usize..=6, 1usize..=6, 1usize..=33, 1usize..=33),
        knobs in (0usize..4, 0usize..=9, 0usize..1000),
        seed in 0u64..1_000_000,
    ) {
        let (h, w, c, k) = dims;
        let (pick, slack, shift) = knobs;
        let (rq, clamp) = requant(pick);
        let mut p = PointwiseParams::new(h, w, c, k, rq);
        p.clamp = clamp;
        let fc = p.as_fc();
        let input = noise(p.in_bytes(), seed);
        let weights = noise(c * k, seed + 1);
        let layout = planned(p.in_bytes(), p.out_bytes(), ChainOp::Pointwise(p).exec_distance(), slack, shift);
        let case = Case { input: &input, images: &[&weights] };
        assert_same_at_every_layout(
            &case,
            layout,
            &|m, pool, wb, at| {
                vmcu::vmcu_kernels::pointwise::run_pointwise(m, pool, &p, at.b_in, at.b_out(), wb[0])
            },
            &|m, pool, wb, at| definition_fc(m, pool, &fc, at.b_in, at.b_out(), wb[0]),
        )?;
    }

    /// Depthwise over kernels 1–5 (square or not), strides 1–3 and pads
    /// 0–2, including pads that leave border pixels with no in-bounds tap.
    #[test]
    fn depthwise_matches_the_per_tap_loop(
        dims in (1usize..=8, 1usize..=8, 1usize..=20),
        kernel in (1usize..=5, 1usize..=5, 1usize..=3, 0usize..=2),
        knobs in (0usize..4, 0usize..=9, 0usize..1000),
        seed in 0u64..1_000_000,
    ) {
        let (h, w, c) = dims;
        let (r, s, stride, pad) = kernel;
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= s);
        let (pick, slack, shift) = knobs;
        let (rq, clamp) = requant(pick);
        let mut p = DepthwiseParams::new(h, w, c, r, s, stride, pad, rq);
        p.clamp = clamp;
        let input = noise(p.in_bytes(), seed);
        let weights = noise(r * s * c, seed + 1);
        let d = ChainOp::Depthwise(p).exec_distance();
        let layout = planned(p.in_bytes(), p.out_bytes(), d, slack, shift);
        let case = Case { input: &input, images: &[&weights] };
        assert_same_at_every_layout(
            &case,
            layout,
            &|m, pool, wb, at| run_depthwise(m, pool, &p, at.b_in, at.b_out(), wb[0]),
            &|m, pool, wb, at| definition_depthwise(m, pool, &p, at.b_in, at.b_out(), wb[0]),
        )?;
    }

    /// Dense 2D convolutions over ragged segment tilings of both channel
    /// counts.
    #[test]
    fn conv2d_matches_the_per_segment_loop(
        dims in (1usize..=6, 1usize..=6, 1usize..=9, 1usize..=9, 0usize..64),
        kernel in (1usize..=3, 1usize..=3, 1usize..=2, 0usize..=1),
        knobs in (0usize..4, 0usize..=9, 0usize..1000),
        seed in 0u64..1_000_000,
    ) {
        let (h, w, c, k, raw_seg) = dims;
        let (r, s, stride, pad) = kernel;
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= s);
        let (pick, slack, shift) = knobs;
        let (rq, clamp) = requant(pick);
        let mut p = Conv2dParams::new(h, w, c, k, r, s, stride, pad, rq);
        p.clamp = clamp;
        p.seg = pick_seg(raw_seg, c, k);
        let input = noise(p.in_bytes(), seed);
        let weights = noise(r * s * c * k, seed + 1);
        let d = ChainOp::Conv2d(p).exec_distance();
        let layout = planned(p.in_bytes(), p.out_bytes(), d, slack, shift);
        let case = Case { input: &input, images: &[&weights] };
        assert_same_at_every_layout(
            &case,
            layout,
            &|m, pool, wb, at| run_conv2d(m, pool, &p, at.b_in, at.b_out(), wb[0]),
            &|m, pool, wb, at| definition_conv2d(m, pool, &p, at.b_in, at.b_out(), wb[0]),
        )?;
    }

    /// Whole fused inverted bottlenecks under all three workspace
    /// schemes, with the residual add (unit strides, `c_in == c_out`)
    /// and without.
    #[test]
    fn fused_ib_matches_the_per_tap_loop(
        dims in (1usize..=7, 1usize..=9, 1usize..=17, 1usize..=9),
        knobs in (0usize..3, 1usize..=2, 1usize..=2, 0u8..2, 0usize..4),
        place in (0usize..=9, 0usize..1000, 0usize..3),
        seed in 0u64..1_000_000,
    ) {
        let (hw, c_in, c_mid, c_out) = dims;
        let (rs_pick, s1, s2, residual, pick) = knobs;
        let (slack, shift, scheme_pick) = place;
        let rs = [1, 3, 5][rs_pick];
        let mut p = if residual == 1 {
            IbParams::new(hw, c_in, c_mid, c_in, rs, (1, 1, 1))
        } else {
            IbParams::new(hw, c_in, c_mid, c_out, rs, (s1, s2, 1))
        };
        (p.rq1, p.clamp1) = requant(pick);
        (p.rq2, p.clamp2) = requant(pick + 1);
        (p.rq3, p.clamp3) = requant(pick + 2);
        let scheme = SCHEMES[scheme_pick];
        let input = noise(p.in_bytes(), seed);
        let w1 = noise(p.c_in * p.c_mid, seed + 1);
        let wdw = noise(p.rs * p.rs * p.c_mid, seed + 2);
        let w2 = noise(p.c_mid * p.c_out, seed + 3);
        let d = LayerDesc::Ib(p).exec_distance(scheme);
        let layout = planned(p.in_bytes(), p.out_bytes(), d, slack, shift);
        prop_assert!(layout.ws_base() + ib_workspace_bytes(&p, scheme) < 36 * 1024);
        let case = Case { input: &input, images: &[&w1, &wdw, &w2] };
        let flash = |w: &[usize]| IbFlash { w1: w[0], wdw: w[1], w2: w[2] };
        assert_same_at_every_layout(
            &case,
            layout,
            &|m, pool, w, at| {
                run_fused_ib(m, pool, &p, scheme, at.b_in, at.b_out(), &flash(w), at.ws_base())
            },
            &|m, pool, w, at| {
                definition_fused_ib(m, pool, &p, scheme, at.b_in, at.b_out(), &flash(w), at.ws_base())
            },
        )?;
    }

    /// Fused chains of every operator kind: an inverted bottleneck as
    /// three layers (strided depthwise included), conv2d into pointwise,
    /// dense into dense, and single depthwise and conv2d layers.
    #[test]
    fn fused_chain_matches_the_per_row_loop(
        dims in (2usize..=7, 1usize..=8, 1usize..=12, 1usize..=8),
        knobs in (0usize..5, 1usize..=2, 0usize..4),
        place in (0usize..=9, 0usize..1000),
        seed in 0u64..1_000_000,
    ) {
        let (h, c, mid, k) = dims;
        let (template, stride, pick) = knobs;
        let (slack, shift) = place;
        let (rq, clamp) = requant(pick);
        let pw = |h: usize, c: usize, k: usize| {
            let mut p = PointwiseParams::new(h, h, c, k, rq);
            p.clamp = clamp;
            ChainOp::Pointwise(p)
        };
        let dw = DepthwiseParams::new(h, h, mid, 3, 3, stride, 1, rq);
        let conv = Conv2dParams::new(h, h, c, mid, 3, 3, stride, 1, rq);
        let ops = match template {
            0 => vec![pw(h, c, mid), ChainOp::Depthwise(dw), pw(dw.out_h(), mid, k)],
            1 => vec![ChainOp::Conv2d(conv), pw(conv.out_h(), mid, k)],
            2 => vec![
                ChainOp::Dense(FcParams::new(h, c, mid, rq)),
                ChainOp::Dense(FcParams::new(h, mid, k, rq)),
            ],
            3 => vec![ChainOp::Depthwise(dw)],
            _ => vec![ChainOp::Conv2d(conv)],
        };
        let chain = FusedChain::new(ops).unwrap();
        let input = noise(chain.in_bytes(), seed);
        let images: Vec<Vec<u8>> = chain
            .ops()
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let len = match op {
                    ChainOp::Pointwise(p) => p.c * p.k,
                    ChainOp::Dense(p) => p.k * p.n,
                    ChainOp::Depthwise(p) => p.r * p.s * p.c,
                    ChainOp::Conv2d(p) => p.r * p.s * p.c * p.k,
                };
                noise(len, seed + 1 + i as u64)
            })
            .collect();
        let images: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let d = chain_exec_distance(&chain);
        let layout = planned(chain.in_bytes(), chain.out_bytes(), d, slack, shift);
        prop_assert!(layout.ws_base() + chain_workspace_bytes(&chain) < 36 * 1024);
        let case = Case { input: &input, images: &images };
        assert_same_at_every_layout(
            &case,
            layout,
            &|m, pool, w, at| run_fused_chain(m, pool, &chain, at.b_in, at.b_out(), w, at.ws_base()),
            &|m, pool, w, at| {
                definition_fused_chain(m, pool, &chain, at.b_in, at.b_out(), w, at.ws_base())
            },
        )?;
    }
}

// ---- error paths ----------------------------------------------------------

/// At a tight distance minus one the kernels and their definitions fail
/// with the same clobber, wherever the window wraps: shapes whose last
/// store before a free sets the distance, one per kernel.
#[test]
fn tight_distances_fail_alike_one_byte_closer() {
    let rq = Requant::from_scale(1.0 / 32.0, 0);
    let fc = FcParams::new(4, 6, 6, rq);
    let dw = DepthwiseParams::new(6, 6, 4, 3, 3, 1, 1, rq);
    let mut conv = Conv2dParams::new(6, 6, 4, 5, 3, 3, 1, 1, rq);
    conv.seg = 3;
    let ib = IbParams::new(8, 4, 12, 4, 3, (1, 1, 1));
    let chain = FusedChain::new(vec![
        ChainOp::Pointwise(PointwiseParams::new(8, 8, 4, 16, rq)),
        ChainOp::Pointwise(PointwiseParams::new(8, 8, 16, 4, rq)),
    ])
    .unwrap();
    let w = |len: usize| noise(len, 5);
    let (w_fc, w_dw, w_conv) = (w(36), w(36), w(180));
    let (w1, wdw, w2) = (w(48), w(108), w(48));
    let (c1, c2) = (w(64), w(64));
    let mut failures = 0;
    for shift in [0, 1, 7, 50, 333] {
        let mut check = |case: &Case<'_>, layout: Layout, kernel: Run<'_>, definition: Run<'_>| {
            for device in devices() {
                let error = assert_same(case, &device, layout.one_closer(), kernel, definition)
                    .unwrap_or_else(|e| panic!("{e:?}"));
                assert!(
                    matches!(error, Some(PoolError::Clobber { .. })),
                    "{layout:?}: {error:?}"
                );
                failures += 1;
            }
        };
        let input = noise(fc.in_bytes(), 1);
        let case = Case {
            input: &input,
            images: &[&w_fc],
        };
        check(
            &case,
            planned(
                fc.in_bytes(),
                fc.out_bytes(),
                ChainOp::Dense(fc).exec_distance(),
                3,
                shift,
            ),
            &|m, pool, wb, at| run_fc(m, pool, &fc, at.b_in, at.b_out(), wb[0]),
            &|m, pool, wb, at| definition_fc(m, pool, &fc, at.b_in, at.b_out(), wb[0]),
        );
        let input = noise(dw.in_bytes(), 2);
        let case = Case {
            input: &input,
            images: &[&w_dw],
        };
        check(
            &case,
            planned(
                dw.in_bytes(),
                dw.out_bytes(),
                ChainOp::Depthwise(dw).exec_distance(),
                3,
                shift,
            ),
            &|m, pool, wb, at| run_depthwise(m, pool, &dw, at.b_in, at.b_out(), wb[0]),
            &|m, pool, wb, at| definition_depthwise(m, pool, &dw, at.b_in, at.b_out(), wb[0]),
        );
        let input = noise(conv.in_bytes(), 3);
        let case = Case {
            input: &input,
            images: &[&w_conv],
        };
        check(
            &case,
            planned(
                conv.in_bytes(),
                conv.out_bytes(),
                ChainOp::Conv2d(conv).exec_distance(),
                3,
                shift,
            ),
            &|m, pool, wb, at| run_conv2d(m, pool, &conv, at.b_in, at.b_out(), wb[0]),
            &|m, pool, wb, at| definition_conv2d(m, pool, &conv, at.b_in, at.b_out(), wb[0]),
        );
        let input = noise(ib.in_bytes(), 4);
        let case = Case {
            input: &input,
            images: &[&w1, &wdw, &w2],
        };
        for scheme in SCHEMES {
            let flash = |w: &[usize]| IbFlash {
                w1: w[0],
                wdw: w[1],
                w2: w[2],
            };
            check(
                &case,
                planned(
                    ib.in_bytes(),
                    ib.out_bytes(),
                    LayerDesc::Ib(ib).exec_distance(scheme),
                    3,
                    shift,
                ),
                &|m, pool, w, at| {
                    run_fused_ib(
                        m,
                        pool,
                        &ib,
                        scheme,
                        at.b_in,
                        at.b_out(),
                        &flash(w),
                        at.ws_base(),
                    )
                },
                &|m, pool, w, at| {
                    let flash = flash(w);
                    definition_fused_ib(
                        m,
                        pool,
                        &ib,
                        scheme,
                        at.b_in,
                        at.b_out(),
                        &flash,
                        at.ws_base(),
                    )
                },
            );
        }
        let input = noise(chain.in_bytes(), 5);
        let case = Case {
            input: &input,
            images: &[&c1, &c2],
        };
        let d = chain_exec_distance(&chain);
        check(
            &case,
            planned(chain.in_bytes(), chain.out_bytes(), d, 3, shift),
            &|m, pool, w, at| {
                run_fused_chain(m, pool, &chain, at.b_in, at.b_out(), w, at.ws_base())
            },
            &|m, pool, w, at| {
                definition_fused_chain(m, pool, &chain, at.b_in, at.b_out(), w, at.ws_base())
            },
        );
    }
    assert_eq!(failures, 5 * 7 * 3);
}

/// A dead byte inside a tap fails each depthwise loop that reads it from
/// the pool — `run_depthwise`, and the fused chain's stage-0 read — with
/// the same `DeadRead { logical, phys }` as its per-tap definition, both
/// when the window wraps inside the row run that holds the byte (before
/// it) and when it does not: one checked read per row run still names
/// the first dead byte in logical order.
#[test]
fn dead_reads_name_the_same_first_byte() {
    let rq = Requant::from_scale(1.0 / 32.0, 0);
    let dw = DepthwiseParams::new(6, 6, 4, 3, 3, 1, 1, rq);
    let chain = FusedChain::new(vec![
        ChainOp::Depthwise(dw),
        ChainOp::Pointwise(PointwiseParams::new(6, 6, 4, 8, rq)),
    ])
    .unwrap();
    // Row 1, column 1, channel 2: inside the second tap of the row run
    // `[24, 32)` that the first output pixel reads second.
    let dead = (6 + 1) * 4 + 2usize;
    let input = noise(dw.in_bytes(), 9);
    let (w_dw, w_pw) = (noise(36, 10), noise(32, 11));
    let mut checked = 0;
    for wraps in [false, true] {
        // Either the window wraps between input bytes 25 and 26, inside
        // that run and before the dead byte, or the input sits at its
        // start.
        let layout = |in_bytes: usize, out_bytes: usize, d: i64| {
            let window = pool_window(in_bytes, out_bytes, d) + 3;
            Layout {
                window,
                ram_base: 8,
                b_in: if wraps { (window - 26) as i64 } else { 0 },
                d,
            }
        };
        let mut fails_alike =
            |images: &[&[u8]], at: Layout, kernel: Run<'_>, definition: Run<'_>| {
                let logical = at.b_in + dead as i64;
                let want = Err(PoolError::DeadRead {
                    logical,
                    phys: logical.rem_euclid(at.window as i64) as usize,
                });
                for device in devices() {
                    for run in [kernel, definition] {
                        let (mut m, mut pool, bases) = boot(&device, at, &input, images);
                        pool.free(&mut m, logical, 1).unwrap();
                        assert_eq!(run(&mut m, &mut pool, &bases, at), want, "{at:?}");
                        checked += 1;
                    }
                }
            };
        fails_alike(
            &[&w_dw],
            layout(
                dw.in_bytes(),
                dw.out_bytes(),
                ChainOp::Depthwise(dw).exec_distance(),
            ),
            &|m, pool, wb, at| run_depthwise(m, pool, &dw, at.b_in, at.b_out(), wb[0]),
            &|m, pool, wb, at| definition_depthwise(m, pool, &dw, at.b_in, at.b_out(), wb[0]),
        );
        fails_alike(
            &[&w_dw, &w_pw],
            layout(
                chain.in_bytes(),
                chain.out_bytes(),
                chain_exec_distance(&chain),
            ),
            &|m, pool, w, at| {
                run_fused_chain(m, pool, &chain, at.b_in, at.b_out(), w, at.ws_base())
            },
            &|m, pool, w, at| {
                definition_fused_chain(m, pool, &chain, at.b_in, at.b_out(), w, at.ws_base())
            },
        );
    }
    assert_eq!(checked, 2 * 2 * 3 * 2);
}

// ---- the host MAC intrinsics --------------------------------------------

/// `len` int8 bytes in which the edges −128, −1, 0 and 127 each come up
/// about one time in eight; the rest is seeded noise.
fn mac_bytes(len: usize, seed: u64) -> Vec<u8> {
    // `noise` needs a non-empty tensor, so both draw one byte more.
    let pick = noise(len + 1, seed ^ 0x5EED);
    noise(len + 1, seed)
        .into_iter()
        .zip(pick)
        .take(len)
        .map(|(v, pick)| match pick % 8 {
            0 => 0x80,
            1 => 0xFF,
            2 => 0,
            3 => 0x7F,
            _ => v,
        })
        .collect()
}

/// Starting accumulators in `[−2^30, 2^30)`: far enough from the `i32`
/// edges that 40 int8 products cannot overflow them.
fn accumulators(len: usize, seed: u64) -> Vec<i32> {
    // One byte more than needed, as in `mac_bytes`; `chunks_exact` drops it.
    noise(4 * len + 1, seed)
        .chunks_exact(4)
        .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]) >> 1)
        .collect()
}

/// The per-element definition of `Dot`: `acc[n] += Σ_k a[k]·b[k·stride + n]`
/// with `k` ascending, one int8 product at a time.
fn definition_dot(a: &[u8], b: &[u8], stride: usize, acc: &mut [i32]) {
    for (n, acc) in acc.iter_mut().enumerate() {
        for (k, &a) in a.iter().enumerate() {
            *acc += i32::from(a as i8) * i32::from(b[k * stride + n] as i8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The `Dot` core, through its charged entry point, over every
    /// depth and width from 0 to 40 (so every mix of 16-, 8-, 4- and
    /// 1-lane blocks), row strides above the width and non-zero starting
    /// accumulators: the definition's sums, and exactly the MAC charge.
    #[test]
    fn dot_core_matches_the_per_element_definition(
        dims in (0usize..=40, 0usize..=40, 0usize..=8),
        unrolled in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (k, n, pad) = dims;
        let fully_unrolled = unrolled == 1;
        let stride = n + pad;
        let b_len = if k == 0 { 0 } else { (k - 1) * stride + n };
        let a = mac_bytes(k, seed);
        let b = mac_bytes(b_len, seed + 1);
        let mut expected = accumulators(n, seed + 2);
        let start = expected.clone();
        definition_dot(&a, &b, stride, &mut expected);
        let device = Device::stm32_f767zi();

        let mut m = Machine::new(device.clone());
        let mut acc = start;
        dot_tile_u8(&mut m, &a, &widen(&b), stride, &mut acc, fully_unrolled);
        prop_assert_eq!(&acc, &expected);
        let mut charged = Machine::new(device);
        if k * n > 0 {
            charged.charge_macs((k * n) as u64, fully_unrolled);
        }
        prop_assert_eq!(m.counters, charged.counters);
    }

    /// One depthwise tap over 0 to 40 channels from non-zero starting
    /// accumulators: `acc[c] += a[c]·w[c]`, the definition at depth one.
    #[test]
    fn tap_matches_the_per_element_definition(
        c in 0usize..=40,
        seed in 0u64..1_000_000,
    ) {
        let a = mac_bytes(c, seed);
        let w = mac_bytes(c, seed + 1);
        let mut expected = accumulators(c, seed + 2);
        let mut acc = expected.clone();
        for (acc, (&a, &w)) in expected.iter_mut().zip(a.iter().zip(&w)) {
            *acc += i32::from(a as i8) * i32::from(w as i8);
        }
        tap_accumulate(&mut acc, &a, &widen(&w));
        prop_assert_eq!(acc, expected);
    }
}

/// `n` seeded picks in `0..bound`.
fn picks(n: usize, bound: usize, seed: u64) -> Vec<usize> {
    noise(4 * n + 1, seed)
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize % bound)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The window core over 0 to 100 channels (every mix of 16-, 8-, 4-
    /// and 1-channel blocks) and 0 to 49 taps in runs of 1 to 7, each
    /// run's pixels at a distinct offset into one source and its weight
    /// rows at any start row of a 9-row image, so rows repeat and come
    /// in no particular order, from non-zero starting accumulators: the
    /// per-element definition's sums, and those of a `tap_accumulate`
    /// loop over the same taps.
    #[test]
    fn window_core_matches_the_per_element_definition(
        dims in (0usize..=100, 0usize..=49),
        seed in 0u64..1_000_000,
    ) {
        let (c, taps) = dims;
        let mut lens = Vec::new();
        let mut left = taps;
        for pick in picks(taps, 7, seed) {
            if left == 0 {
                break;
            }
            let n = (pick + 1).min(left);
            lens.push(n);
            left -= n;
        }
        // Distinct run offsets: a seeded shuffle of every offset that
        // leaves room for a 7-tap run.
        let src = mac_bytes((taps + 7) * c + 64, seed + 1);
        let mut offsets: Vec<usize> = (0..=src.len() - 7 * c).collect();
        let len = offsets.len();
        for (i, j) in picks(len, usize::MAX, seed + 2).into_iter().enumerate() {
            offsets.swap(i, i + j % (len - i));
        }
        let rows = 9;
        let w_bytes = mac_bytes(rows * c, seed + 3);
        let w_img = widen(&w_bytes);
        let starts = picks(lens.len(), usize::MAX, seed + 4);
        let runs: Vec<(usize, usize, usize)> = lens
            .iter()
            .zip(&offsets)
            .zip(&starts)
            .map(|((&n, &off), &start)| (n, off, start % (rows + 1 - n)))
            .collect();
        let start = accumulators(c, seed + 5);

        let mut expected = start.clone();
        for &(n, off, row) in &runs {
            for t in 0..n {
                for (ch, acc) in expected.iter_mut().enumerate() {
                    let a = src[off + t * c + ch] as i8;
                    let w = w_bytes[(row + t) * c + ch] as i8;
                    *acc += i32::from(a) * i32::from(w);
                }
            }
        }
        let mut tap_loop = start.clone();
        for &(n, off, row) in &runs {
            for t in 0..n {
                let a = &src[off + t * c..][..c];
                tap_accumulate(&mut tap_loop, a, &w_img[(row + t) * c..][..c]);
            }
        }
        prop_assert_eq!(&tap_loop, &expected);

        let a: Vec<&[u8]> = runs.iter().map(|&(n, off, _)| &src[off..][..n * c]).collect();
        let w: Vec<&[i16]> = runs.iter().map(|&(n, _, row)| &w_img[row * c..][..n * c]).collect();
        let mut acc = start;
        window_accumulate(&mut acc, &a, &w);
        prop_assert_eq!(acc, expected);
    }
}

/// A window whose pixel and weight runs differ in number, or whose runs
/// are not the same whole number of taps long, panics instead of
/// reducing what it can.
#[test]
fn window_tap_lists_must_agree() {
    let (a, w) = ([1u8; 40], [1i16; 40]);
    let message = |a: &[&[u8]], w: &[&[i16]], c: usize| {
        let err = std::panic::catch_unwind(|| window_accumulate(&mut vec![0; c], a, w))
            .expect_err("mismatched tap lists must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    for msg in [
        message(&[&a[..4], &a[..4]], &[&w[..4]], 4),
        message(&[&a[..4]], &[&w[..4], &w[..4]], 4),
        message(&[], &[&w[..0]], 0),
    ] {
        assert!(msg.contains("tap lists differ"), "{msg}");
    }
    // Runs of different lengths, and runs that end inside a tap: at 20
    // channels the 16-channel block would read a 36-byte run whole.
    for msg in [
        message(&[&a[..8]], &[&w[..4]], 4),
        message(&[&a[..6]], &[&w[..6]], 4),
        message(&[&a[..36]], &[&w[..36]], 20),
        message(&[&a[..1]], &[&w[..1]], 0),
    ] {
        assert!(msg.contains("tap lengths differ"), "{msg}");
    }
}

/// A tap whose pixel, weight row and accumulators differ in length
/// panics instead of computing the shortest of them.
#[test]
fn tap_lengths_must_agree() {
    for (acc, a, w) in [(4, 4, 3), (4, 3, 4), (3, 4, 4), (0, 0, 1)] {
        let err = std::panic::catch_unwind(|| {
            tap_accumulate(&mut vec![0; acc], &vec![1; a], &vec![1; w]);
        })
        .expect_err("mismatched tap lengths must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("tap lengths differ"), "{acc} {a} {w}: {msg}");
    }
}
