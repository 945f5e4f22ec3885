//! TinyEngine-policy baseline kernels (§2.3, §7.1).
//!
//! The paper's main comparator. Its *policies*, faithfully reproduced:
//!
//! * tensor-level memory management — input and output live in disjoint
//!   RAM regions (no partial overlap, no circular pool, no modulo);
//! * im2col pre-processing for convolutions, **including** pointwise
//!   convolutions where it is a pure copy (§7.2 attributes extra RAM
//!   traffic and energy to this);
//! * inner loops unrolled to a fixed depth (cost model's partial-unroll
//!   stall penalty) rather than vMCU's full unrolling;
//! * in-place depthwise convolution (the one overlap tensor-level
//!   management can do), using a small ring of original input rows;
//! * in-place residual add.
//!
//! Functional results are bit-exact with the reference operators — the
//! baselines differ from vMCU only in memory layout and cost.
//!
//! # Modelled loops, host loops
//!
//! [`TE_COL_TILE`] is the *modelled* tile: the device runs the CMSIS-NN
//! 2-column GEMM loop, and the counters charge every access that loop
//! makes at its modelled size, one call at a time. The host loop shape
//! is free as long as that holds. [`run_pointwise_te`] computes a whole
//! pixel's `K` outputs in one pass and adds the pixel's tile sequence,
//! priced once per layer, per pixel; [`run_depthwise_te_inplace`] reads
//! each window row's ring taps in place as one run, reduces the whole
//! window in the window core and adds the per-tap and per-pixel charges.
//! Both read their weights once per layer, widened to `i16`, so no MAC
//! sign-extends a weight byte again. `tests/tinyengine_props.rs` holds this:
//! it keeps the per-tile and per-tap loops as oracles and requires the
//! same RAM image and the same `Counters` from both.

use crate::intrinsics::{
    broadcast_cycles, dot_accumulate, read_weights, requant_into, reuse_runs, window_accumulate,
};
use crate::params::{tap_range, DepthwiseParams, IbParams, PointwiseParams};
use vmcu_sim::{CostModel, Counters, Machine, MemError};
use vmcu_tensor::quant::sat8;

/// Output channels per inner-loop pass of the *modelled* baseline GEMM
/// (CMSIS-NN processes 2 columns at a time; §8.1). The host computes a
/// whole pixel at once; this is the tile the counters charge.
pub const TE_COL_TILE: usize = 2;

/// Disjoint RAM layout of a TinyEngine pointwise convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TePointwiseLayout {
    /// Input tensor base.
    pub input: usize,
    /// Output tensor base.
    pub output: usize,
    /// im2col staging buffer base (one image row: `W·C` bytes).
    pub im2col: usize,
}

/// Counters one output pixel of [`run_pointwise_te`] charges on the
/// device: the whole `[C, K]` weight matrix streamed from Flash, then per
/// [`TE_COL_TILE`]-column tile a reload of the `C`-byte im2col row (the
/// extra RAM traffic §7.2 attributes the energy gap to), the accumulator
/// splat, a `C`-deep dot at fixed-depth unrolling (the stall penalty
/// applies), the requant epilogue, the tile's store and the back-edge.
fn pointwise_pixel_charge(cost: &CostModel, c: usize, k: usize) -> Counters {
    let mut pixel = Counters::new();
    pixel.charge_flash_load(cost, (c * k) as u64);
    let mut k0 = 0;
    while k0 < k {
        let kw = TE_COL_TILE.min(k - k0);
        pixel.charge_ram_load(cost, c as u64);
        pixel.cycles += broadcast_cycles(kw);
        pixel.charge_macs(cost, (c * kw) as u64, false);
        pixel.charge_requant(cost, kw as u64);
        pixel.charge_ram_store(cost, kw as u64);
        pixel.charge_branches(cost, 1);
        k0 += kw;
    }
    pixel
}

/// Runs the TinyEngine-style pointwise convolution (stride supported for
/// fused-module use).
///
/// The device streams the weights and reloads the im2col row per column
/// tile; the counters charge exactly that ([`TE_COL_TILE`]). The host
/// reads the weights once per layer — Flash is immutable during an
/// inference — widened to `i16`, and computes each pixel's `K` outputs
/// in one dot.
///
/// # Errors
///
/// Returns memory errors on layout mistakes, including a weight image
/// that does not fit in Flash.
pub fn run_pointwise_te(
    m: &mut Machine,
    p: &PointwiseParams,
    stride: usize,
    layout: TePointwiseLayout,
    w_base: usize,
) -> Result<(), MemError> {
    let (h_out, w_out) = ((p.h - 1) / stride + 1, (p.w - 1) / stride + 1);
    let weights = read_weights(m, w_base, p.c * p.k)?;
    let pixel = pointwise_pixel_charge(&m.device.cost, p.c, p.k);
    let mut acc = vec![0i32; p.k];
    let mut out_reg = vec![0u8; p.k];
    for pi in 0..h_out {
        // im2col: stage the (subsampled) input row even though a pointwise
        // conv does not need it — TinyEngine does not bypass this step.
        for qi in 0..w_out {
            m.ram_copy(
                layout.input + (pi * stride * p.w + qi * stride) * p.c,
                layout.im2col + qi * p.c,
                p.c,
            )?;
        }
        for qi in 0..w_out {
            let a = m.ram.read(layout.im2col + qi * p.c, p.c)?;
            acc.fill(0);
            dot_accumulate(a, &weights, p.k, &mut acc);
            requant_into(&acc, p.rq, p.clamp, &mut out_reg);
            m.ram
                .write(layout.output + (pi * w_out + qi) * p.k, &out_reg)?;
            m.counters += pixel;
        }
        m.charge_branches(1);
    }
    Ok(())
}

/// Rows of original input [`run_depthwise_te_inplace`] has staged once
/// it starts output row `pi`: every row up to the last one that row's
/// window reads (at least row 0).
fn dw_staged_rows(p: &DepthwiseParams, pi: usize) -> usize {
    (pi * p.stride + p.r - 1).saturating_sub(p.pad).min(p.h - 1) + 1
}

/// Whether [`run_depthwise_te_inplace`] stages its whole input before
/// the first output row. Staging each row just before the first window
/// that reads it is only sound while every output row ends at or before
/// the rows staged so far; padding wider than the window (an output
/// wider or taller than the input) breaks that, and an output row
/// would overwrite an original row a later window still reads.
pub fn dw_stages_whole_input(p: &DepthwiseParams) -> bool {
    let last = dw_staged_rows(p, p.out_h().saturating_sub(1));
    (0..p.out_h()).any(|pi| {
        let staged = dw_staged_rows(p, pi);
        staged < last && (pi + 1) * p.out_w() > staged * p.w
    })
}

/// Runs the TinyEngine-style in-place depthwise convolution: the output
/// overwrites the input buffer at `buf`; a ring at `ring` keeps the
/// original values of the last `R` input rows (of all `H` rows when
/// [`dw_stages_whole_input`]).
///
/// The device loads each in-bounds tap's ring pixel and `C` weights; the
/// counters charge exactly that. The host reads the `R·S·C` weights once
/// per layer — Flash is immutable during an inference — widened to
/// `i16`. Per output pixel it reads each window row's run of in-bounds
/// taps in place from its ring row with one checked RAM read and
/// reduces all the window's taps in the window core
/// ([`window_accumulate`]).
///
/// # Errors
///
/// Returns memory errors on layout mistakes, including a weight image
/// that does not fit in Flash.
pub fn run_depthwise_te_inplace(
    m: &mut Machine,
    p: &DepthwiseParams,
    buf: usize,
    ring: usize,
    w_base: usize,
) -> Result<(), MemError> {
    let (h_out, w_out) = (p.out_h(), p.out_w());
    let row_bytes = p.w * p.c;
    let weights = read_weights(m, w_base, p.r * p.s * p.c)?;
    let (cost, c) = (m.device.cost, p.c as u64);
    // Per in-bounds tap: the ring RAMLoad, the weight FlashLoad and one
    // `C`-lane MAC tile at fixed-depth unrolling. `tap * taps` keeps each
    // tap's own rounding, never a merged `mac_cost(C · taps)`.
    let mut tap = Counters::new();
    tap.charge_ram_load(&cost, c);
    tap.charge_flash_load(&cost, c);
    tap.charge_macs(&cost, c, false);
    // Per output pixel: the accumulator splat, the requant epilogue, the
    // store and the back-edge.
    let mut pixel = Counters::new();
    pixel.cycles += broadcast_cycles(p.c);
    pixel.charge_requant(&cost, c);
    pixel.charge_ram_store(&cost, c);
    pixel.charge_branches(&cost, 1);
    let (mut runs, mut w_runs) = (Vec::new(), Vec::new());
    let mut acc = vec![0i32; p.c];
    let mut out_reg = vec![0u8; p.c];
    let whole = dw_stages_whole_input(p);
    // The ring never exceeds the image height.
    let ring_rows = if whole { p.h } else { p.r.min(p.h) };
    let mut copied_upto = 0usize; // rows [0, copied_upto) staged in the ring
    for pi in 0..h_out {
        // Stage the original rows this output row's window needs.
        let staged = if whole { p.h } else { dw_staged_rows(p, pi) };
        while copied_upto < staged {
            m.ram_copy(
                buf + copied_upto * row_bytes,
                ring + (copied_upto % ring_rows) * row_bytes,
                row_bytes,
            )?;
            copied_upto += 1;
        }
        let rows = tap_range(pi, p.r, p.stride, p.pad, p.h);
        for qi in 0..w_out {
            let cols = tap_range(qi, p.s, p.stride, p.pad, p.w);
            // A window with no in-bounds column reads no row.
            let rows = if cols.is_empty() { 0..0 } else { rows.clone() };
            let run = cols.len() * p.c;
            let taps = (rows.len() * cols.len()) as u64;
            let mut a = reuse_runs(runs);
            w_runs.clear();
            for ri in rows {
                let (y, x) = (
                    pi * p.stride + ri - p.pad,
                    qi * p.stride + cols.start - p.pad,
                );
                a.push(m.ram.read(ring + ((y % ring_rows) * p.w + x) * p.c, run)?);
                w_runs.push(&weights[(ri * p.s + cols.start) * p.c..][..run]);
            }
            acc.fill(0);
            window_accumulate(&mut acc, &a, &w_runs);
            runs = reuse_runs(a);
            requant_into(&acc, p.rq, p.clamp, &mut out_reg);
            m.ram.write(buf + (pi * w_out + qi) * p.c, &out_reg)?;
            m.counters += pixel + tap * taps;
        }
        m.charge_branches(1);
    }
    Ok(())
}

/// In-place residual add: `d[i] = sat8(d[i] + a[i])` over `len` bytes.
///
/// # Errors
///
/// Returns memory errors on layout mistakes.
pub fn run_add_te_inplace(
    m: &mut Machine,
    a_base: usize,
    d_base: usize,
    len: usize,
) -> Result<(), MemError> {
    let chunk = 64;
    let mut a_reg = vec![0u8; chunk];
    let mut d_reg = vec![0u8; chunk];
    let mut off = 0;
    while off < len {
        let n = chunk.min(len - off);
        m.ram_load(a_base + off, &mut a_reg[..n])?;
        m.ram_load(d_base + off, &mut d_reg[..n])?;
        for i in 0..n {
            d_reg[i] = sat8(i64::from(d_reg[i] as i8) + i64::from(a_reg[i] as i8)) as u8;
        }
        m.charge_cycles(n as u64);
        m.ram_store(d_base + off, &d_reg[..n])?;
        m.charge_branches(1);
        off += n;
    }
    Ok(())
}

/// Disjoint RAM layout of a TinyEngine inverted-bottleneck module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TeIbLayout {
    /// Input tensor `A` base.
    pub a: usize,
    /// Expanded tensor `B` base (depthwise runs in place here).
    pub b: usize,
    /// Projected tensor `D` base (the residual add runs in place here).
    pub d: usize,
    /// Depthwise original-row ring base (`R` rows of `B`).
    pub ring: usize,
    /// im2col staging row base.
    pub im2col: usize,
}

impl TeIbLayout {
    /// Packs the module's buffers sequentially from `base`, returning the
    /// layout and one-past-the-end.
    pub fn packed(p: &IbParams, base: usize) -> (Self, usize) {
        let a = base;
        let b = a + p.in_bytes();
        let d = b + p.mid_bytes();
        let ring = d + p.out_bytes();
        let im2col = ring + p.rs.min(p.hw1()) * p.hw1() * p.c_mid;
        let end = im2col + p.hw * p.c_in.max(p.c_mid);
        (
            Self {
                a,
                b,
                d,
                ring,
                im2col,
            },
            end,
        )
    }
}

/// Runs a full inverted-bottleneck module with TinyEngine policies:
/// pw-expand into `B`, depthwise in place over `B`, pw-project into `D`,
/// residual add in place over `D`. The result lives at `layout.d`.
///
/// # Errors
///
/// Returns memory errors on layout mistakes.
pub fn run_ib_te(
    m: &mut Machine,
    p: &IbParams,
    layout: TeIbLayout,
    w1_base: usize,
    wdw_base: usize,
    w2_base: usize,
) -> Result<(), MemError> {
    // Expand: A[H,H,Cin] -> B[H1,H1,Cmid].
    let pw1 = PointwiseParams {
        h: p.hw,
        w: p.hw,
        c: p.c_in,
        k: p.c_mid,
        seg: p.c_in.min(p.c_mid),
        rq: p.rq1,
        clamp: p.clamp1,
    };
    run_pointwise_te(
        m,
        &pw1,
        p.s1,
        TePointwiseLayout {
            input: layout.a,
            output: layout.b,
            im2col: layout.im2col,
        },
        w1_base,
    )?;
    // Depthwise in place over B.
    let dw = DepthwiseParams {
        h: p.hw1(),
        w: p.hw1(),
        c: p.c_mid,
        r: p.rs,
        s: p.rs,
        stride: p.s2,
        pad: p.pad(),
        rq: p.rq2,
        clamp: p.clamp2,
    };
    run_depthwise_te_inplace(m, &dw, layout.b, layout.ring, wdw_base)?;
    // Project: C[H2,H2,Cmid] (in the B buffer) -> D.
    let pw2 = PointwiseParams {
        h: p.hw2(),
        w: p.hw2(),
        c: p.c_mid,
        k: p.c_out,
        seg: p.c_mid.min(p.c_out),
        rq: p.rq3,
        clamp: p.clamp3,
    };
    run_pointwise_te(
        m,
        &pw2,
        p.s3,
        TePointwiseLayout {
            input: layout.b,
            output: layout.d,
            im2col: layout.im2col,
        },
        w2_base,
    )?;
    if p.has_residual() {
        run_add_te_inplace(m, layout.a, layout.d, p.out_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused_ib::ib_reference;
    use vmcu_sim::Device;
    use vmcu_tensor::{random, reference, Requant, Tensor};

    #[test]
    fn te_pointwise_matches_reference() {
        let p = PointwiseParams::new(6, 6, 8, 4, Requant::from_scale(1.0 / 32.0, 0));
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 1);
        let weight = random::tensor_i8(&[p.c, p.k], 2);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let layout = TePointwiseLayout {
            input: 0,
            output: p.in_bytes(),
            im2col: p.in_bytes() + p.out_bytes(),
        };
        m.host_write_ram(0, &input.as_bytes()).unwrap();
        run_pointwise_te(&mut m, &p, 1, layout, w_base).unwrap();
        let out = m.host_read_ram(layout.output, p.out_bytes()).unwrap();
        let out = Tensor::from_bytes(&[p.h, p.w, p.k], &out);
        assert_eq!(
            out,
            reference::pointwise(&input, &weight, None, 1, p.rq, p.clamp)
        );
    }

    #[test]
    fn te_pointwise_pays_im2col_traffic() {
        let p = PointwiseParams::new(8, 8, 8, 8, Requant::identity());
        let mut m = Machine::new(Device::stm32_f767zi());
        let weight = random::tensor_i8(&[p.c, p.k], 2);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        let layout = TePointwiseLayout {
            input: 0,
            output: p.in_bytes(),
            im2col: p.in_bytes() + p.out_bytes(),
        };
        run_pointwise_te(&mut m, &p, 1, layout, w_base).unwrap();
        // im2col copies the input once (read+write) on top of the GEMM's
        // own reads.
        assert!(m.counters.ram_write_bytes >= (p.in_bytes() + p.out_bytes()) as u64);
    }

    #[test]
    fn te_depthwise_inplace_matches_reference() {
        let p = DepthwiseParams::new(7, 7, 6, 3, 3, 1, 1, Requant::from_scale(1.0 / 16.0, 0));
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 3);
        let weight = random::tensor_i8(&[p.r, p.s, p.c], 4);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        m.host_write_ram(0, &input.as_bytes()).unwrap();
        let ring = p.in_bytes();
        run_depthwise_te_inplace(&mut m, &p, 0, ring, w_base).unwrap();
        let out = m.host_read_ram(0, p.out_bytes()).unwrap();
        let out = Tensor::from_bytes(&[p.out_h(), p.out_w(), p.c], &out);
        assert_eq!(
            out,
            reference::depthwise(&input, &weight, None, p.stride, p.pad, p.rq, p.clamp)
        );
    }

    #[test]
    fn te_depthwise_inplace_strided_matches_reference() {
        let p = DepthwiseParams::new(8, 8, 4, 5, 5, 2, 2, Requant::from_scale(1.0 / 64.0, 1));
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 5);
        let weight = random::tensor_i8(&[p.r, p.s, p.c], 6);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        m.host_write_ram(0, &input.as_bytes()).unwrap();
        run_depthwise_te_inplace(&mut m, &p, 0, p.in_bytes(), w_base).unwrap();
        let out = m.host_read_ram(0, p.out_bytes()).unwrap();
        let out = Tensor::from_bytes(&[p.out_h(), p.out_w(), p.c], &out);
        assert_eq!(
            out,
            reference::depthwise(&input, &weight, None, p.stride, p.pad, p.rq, p.clamp)
        );
    }

    #[test]
    fn te_depthwise_inplace_stages_what_a_wide_padding_would_overwrite() {
        // Pad 2 around a 1-row window: the output (12×7) outruns the
        // input (8×6), so row-by-row staging would read clobbered rows.
        let p = DepthwiseParams::new(8, 6, 3, 1, 4, 1, 2, Requant::from_scale(1.0 / 64.0, 0));
        assert!(dw_stages_whole_input(&p));
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.h, p.w, p.c], 7);
        let weight = random::tensor_i8(&[p.r, p.s, p.c], 8);
        let w_base = m.host_program_flash(&weight.as_bytes()).unwrap();
        m.host_write_ram(0, &input.as_bytes()).unwrap();
        let ring = p.in_bytes().max(p.out_bytes());
        run_depthwise_te_inplace(&mut m, &p, 0, ring, w_base).unwrap();
        let out = m.host_read_ram(0, p.out_bytes()).unwrap();
        let out = Tensor::from_bytes(&[p.out_h(), p.out_w(), p.c], &out);
        assert_eq!(
            out,
            reference::depthwise(&input, &weight, None, p.stride, p.pad, p.rq, p.clamp)
        );
        // Same-size and strided outputs keep the R-row ring.
        for (r, stride, pad) in [(3, 1, 1), (5, 2, 2), (1, 2, 0)] {
            let q = DepthwiseParams::new(8, 8, 4, r, r, stride, pad, p.rq);
            assert!(!dw_stages_whole_input(&q), "{q:?}");
        }
    }

    #[test]
    fn te_ib_module_matches_fused_reference() {
        let mut p = IbParams::new(8, 4, 12, 4, 3, (1, 1, 1));
        p.rq1 = Requant::from_scale(1.0 / 32.0, 0);
        p.clamp1 = (0, 127);
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.hw, p.hw, p.c_in], 70);
        let w1 = random::tensor_i8(&[p.c_in, p.c_mid], 71);
        let wdw = random::tensor_i8(&[p.rs, p.rs, p.c_mid], 72);
        let w2 = random::tensor_i8(&[p.c_mid, p.c_out], 73);
        let w1b = m.host_program_flash(&w1.as_bytes()).unwrap();
        let wdwb = m.host_program_flash(&wdw.as_bytes()).unwrap();
        let w2b = m.host_program_flash(&w2.as_bytes()).unwrap();
        let (layout, _end) = TeIbLayout::packed(&p, 0);
        m.host_write_ram(layout.a, &input.as_bytes()).unwrap();
        run_ib_te(&mut m, &p, layout, w1b, wdwb, w2b).unwrap();
        let out = m.host_read_ram(layout.d, p.out_bytes()).unwrap();
        let out = Tensor::from_bytes(&[p.hw2(), p.hw2(), p.c_out], &out);
        assert_eq!(out, ib_reference(&p, &input, &w1, &wdw, &w2));
    }

    #[test]
    fn te_ib_strided_matches_reference() {
        let p = IbParams::new(9, 3, 8, 6, 3, (2, 1, 1));
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.hw, p.hw, p.c_in], 70);
        let w1 = random::tensor_i8(&[p.c_in, p.c_mid], 71);
        let wdw = random::tensor_i8(&[p.rs, p.rs, p.c_mid], 72);
        let w2 = random::tensor_i8(&[p.c_mid, p.c_out], 73);
        let w1b = m.host_program_flash(&w1.as_bytes()).unwrap();
        let wdwb = m.host_program_flash(&wdw.as_bytes()).unwrap();
        let w2b = m.host_program_flash(&w2.as_bytes()).unwrap();
        let (layout, _) = TeIbLayout::packed(&p, 0);
        m.host_write_ram(layout.a, &input.as_bytes()).unwrap();
        run_ib_te(&mut m, &p, layout, w1b, wdwb, w2b).unwrap();
        let out = m.host_read_ram(layout.d, p.out_bytes()).unwrap();
        let out = Tensor::from_bytes(&[p.hw2(), p.hw2(), p.c_out], &out);
        assert_eq!(out, ib_reference(&p, &input, &w1, &wdw, &w2));
    }

    #[test]
    fn add_saturates_in_place() {
        let mut m = Machine::new(Device::stm32_f767zi());
        m.host_write_ram(0, &[100u8, 0x9C /* -100 */, 1]).unwrap(); // a
        m.host_write_ram(16, &[100u8, 0x9C, 2]).unwrap(); // d
        run_add_te_inplace(&mut m, 0, 16, 3).unwrap();
        let out = m.host_read_ram(16, 3).unwrap();
        assert_eq!(out[0] as i8, 127);
        assert_eq!(out[1] as i8, -128);
        assert_eq!(out[2] as i8, 3);
    }
}
