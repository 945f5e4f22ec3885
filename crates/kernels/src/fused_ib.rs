//! Fused inverted-bottleneck kernel — Figure 6 of the paper (§5.2).
//!
//! The module `A →(pw expand)→ B →(dw)→ C →(pw project)→ D →(+A)→ E`
//! executes as one kernel: intermediate tensors `B`, `C`, `D` never
//! materialize; only a small workspace lives beside the circular pool, and
//! output segments of `E` replace freed input segments of `A`, pushing the
//! footprint reduction past the 50% single-layer bound.
//!
//! Three workspace schemes are implemented (see [`IbScheme`] and the
//! `vmcu-kernels` section of `docs/ARCHITECTURE.md`):
//!
//! * [`IbScheme::PixelWindow`] — the paper's literal 11-segment workspace
//!   (`3×3 + 1 + 1`): the expanded window is recomputed for every output
//!   pixel (minimum memory, extra MACs);
//! * [`IbScheme::SlidingWindow`] — the same window with only its entering
//!   column recomputed as it slides: the scheme behind the paper's
//!   measured latency parity with TinyEngine (Table 3 runs it);
//! * [`IbScheme::RowBuffer`] — a ring of `R` expanded rows: every `B`
//!   pixel is computed exactly once (the planners' default; lowest
//!   latency, a few extra KB of workspace).
//!
//! The kernel, its dry-run trace, and the free rules all derive from one
//! shared schedule ([`ib_schedule`]), so the planner's offsets are correct
//! by construction and verified empirically by the checked pool.

use crate::intrinsics::{broadcast_cycles, dot_accumulate_u8, requant_into};
use crate::params::IbParams;
use crate::trace::ExecEvent;
use vmcu_pool::{PoolError, SegmentPool};
use vmcu_sim::{Counters, Machine};
use vmcu_tensor::{quant::sat8, reference, Tensor};

/// Workspace scheme of the fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IbScheme {
    /// `R×S` window of expanded pixels, fully recomputed per output pixel
    /// (the paper's 11-segment accounting, upper-bound compute).
    PixelWindow,
    /// `R×S` window of expanded pixels with only the entering column
    /// recomputed as the window slides — the paper's workspace with its
    /// measured latency parity (each expanded pixel is computed about
    /// `R/s2` times).
    SlidingWindow,
    /// Ring buffer of `R` expanded rows, no recomputation (lowest
    /// latency, a few extra KB of workspace).
    RowBuffer,
}

/// Flash addresses of the module's three weight tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IbFlash {
    /// Expand pointwise weights `[C_in, C_mid]`.
    pub w1: usize,
    /// Depthwise weights `[R, S, C_mid]`.
    pub wdw: usize,
    /// Project pointwise weights `[C_mid, C_out]`.
    pub w2: usize,
}

/// One step of the fused schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IbStep {
    /// Compute expanded row `b` into the ring (RowBuffer only).
    BRow(usize),
    /// Produce output pixel `(p, q)`.
    OutPixel(usize, usize),
    /// Free input rows `[from, to)`.
    FreeRows {
        /// First row to free.
        from: usize,
        /// One past the last row to free.
        to: usize,
    },
}

/// Exclusive upper bound of input rows freeable after output row `pi`.
fn free_upto(p: &IbParams, scheme: IbScheme, pi: usize) -> usize {
    let (h, h1, h2) = (p.hw, p.hw1(), p.hw2());
    if pi + 1 == h2 {
        return h;
    }
    let pw1_upto = match scheme {
        IbScheme::RowBuffer => {
            let bmax = (pi * p.s2 + p.rs - 1 - p.pad()).min(h1 - 1);
            (bmax + 1) * p.s1
        }
        IbScheme::PixelWindow | IbScheme::SlidingWindow => {
            let b_upto = ((pi + 1) * p.s2).saturating_sub(p.pad()).min(h1);
            b_upto * p.s1
        }
    };
    let upto = if p.has_residual() {
        pw1_upto.min(pi + 1)
    } else {
        pw1_upto
    };
    upto.min(h)
}

/// The shared fused schedule: the kernel executes it, the trace mirrors
/// it, and tests assert their agreement.
///
/// # Panics
///
/// Panics if the projection stride `s3` is not 1 (all Table 2 modules
/// use a unit projection stride).
pub fn ib_schedule(p: &IbParams, scheme: IbScheme) -> Vec<IbStep> {
    assert_eq!(p.s3, 1, "all Table 2 modules have a unit projection stride");
    let (h1, h2) = (p.hw1(), p.hw2());
    let w2 = h2;
    let mut steps = Vec::new();
    let mut next_b = 0usize;
    let mut next_free = 0usize;
    for pi in 0..h2 {
        if scheme == IbScheme::RowBuffer {
            let bmax = (pi * p.s2 + p.rs - 1 - p.pad()).min(h1 - 1);
            while next_b <= bmax {
                steps.push(IbStep::BRow(next_b));
                next_b += 1;
            }
        }
        for qi in 0..w2 {
            steps.push(IbStep::OutPixel(pi, qi));
        }
        let upto = free_upto(p, scheme, pi);
        if upto > next_free {
            steps.push(IbStep::FreeRows {
                from: next_free,
                to: upto,
            });
            next_free = upto;
        }
    }
    steps
}

/// Dry-run store/free trace (byte addresses relative to tensor bases).
pub fn ib_exec_trace(p: &IbParams, scheme: IbScheme) -> Vec<ExecEvent> {
    let w2 = p.hw2();
    let row_bytes = p.hw * p.c_in;
    ib_schedule(p, scheme)
        .into_iter()
        .filter_map(|step| match step {
            IbStep::BRow(_) => None,
            IbStep::OutPixel(pi, qi) => Some(ExecEvent::Store {
                addr: ((pi * w2 + qi) * p.c_out) as i64,
                len: p.c_out,
            }),
            IbStep::FreeRows { from, to } => Some(ExecEvent::Free {
                addr: (from * row_bytes) as i64,
                len: (to - from) * row_bytes,
            }),
        })
        .collect()
}

/// Workspace bytes beside the pool: the expanded-row ring (RowBuffer) or
/// the `R×S` expanded window (PixelWindow — the paper's `3×3` segments),
/// plus one post-depthwise pixel and one projected pixel (the `+1+1`).
pub fn ib_workspace_bytes(p: &IbParams, scheme: IbScheme) -> usize {
    let buf = match scheme {
        IbScheme::RowBuffer => p.rs.min(p.hw1()) * p.hw1() * p.c_mid,
        IbScheme::PixelWindow | IbScheme::SlidingWindow => p.rs * p.rs * p.c_mid,
    };
    buf + p.c_mid + p.c_out
}

/// Reference implementation of the whole module from oracle operators.
pub fn ib_reference(
    p: &IbParams,
    input: &Tensor<i8>,
    w1: &Tensor<i8>,
    wdw: &Tensor<i8>,
    w2: &Tensor<i8>,
) -> Tensor<i8> {
    let b = reference::pointwise(input, w1, None, p.s1, p.rq1, p.clamp1);
    let c = reference::depthwise(&b, wdw, None, p.s2, p.pad(), p.rq2, p.clamp2);
    let d = reference::pointwise(&c, w2, None, p.s3, p.rq3, p.clamp3);
    if p.has_residual() {
        reference::add(&d, input)
    } else {
        d
    }
}

/// Host state of one fused-module run: the three weight images, read
/// once per call (Flash is immutable during an inference), the pw1
/// registers and the per-pixel prices apart from pool accesses.
struct IbHost {
    w1: Vec<u8>,
    wdw: Vec<u8>,
    w2: Vec<u8>,
    a_reg: Vec<u8>,
    acc_mid: Vec<i32>,
    /// One expanded pixel: the `[C_in, C_mid]` tile's FlashLoad, the
    /// splat, the `Dot`, the requant and the workspace `RAMStore`.
    expand: Counters,
    /// One in-bounds depthwise tap: the workspace `RAMLoad`, the weight
    /// row's FlashLoad and one `C_mid`-lane MAC tile.
    tap: Counters,
    /// One output pixel apart from its taps: the depthwise splat and
    /// requant, the projection's FlashLoad, splat, `Dot` and requant, the
    /// residual add and the back-edge.
    out: Counters,
}

impl IbHost {
    fn new(m: &Machine, p: &IbParams, flash: &IbFlash) -> Result<Self, PoolError> {
        let cost = m.device.cost;
        let (c_in, c_mid, c_out) = (p.c_in as u64, p.c_mid as u64, p.c_out as u64);
        let mut expand = Counters::new();
        expand.charge_flash_load(&cost, c_in * c_mid);
        expand.cycles += broadcast_cycles(p.c_mid);
        expand.charge_macs(&cost, c_in * c_mid, true);
        expand.charge_requant(&cost, c_mid);
        expand.charge_ram_store(&cost, c_mid);
        let mut tap = Counters::new();
        tap.charge_ram_load(&cost, c_mid);
        tap.charge_flash_load(&cost, c_mid);
        tap.charge_macs(&cost, c_mid, true);
        let mut out = Counters::new();
        out.cycles += broadcast_cycles(p.c_mid);
        out.charge_requant(&cost, c_mid);
        out.cycles += broadcast_cycles(p.c_out);
        out.charge_flash_load(&cost, c_mid * c_out);
        out.charge_macs(&cost, c_mid * c_out, true);
        out.charge_requant(&cost, c_out);
        if p.has_residual() {
            out.cycles += c_out;
        }
        out.charge_branches(&cost, 1);
        Ok(Self {
            w1: m.flash.read(flash.w1, p.c_in * p.c_mid)?,
            wdw: m.flash.read(flash.wdw, p.rs * p.rs * p.c_mid)?,
            w2: m.flash.read(flash.w2, p.c_mid * p.c_out)?,
            a_reg: vec![0u8; p.c_in],
            acc_mid: vec![0i32; p.c_mid],
            expand,
            tap,
            out,
        })
    }

    /// pw1 of one `A` pixel: reads it through the pool, expands it to
    /// `C_mid` int8 values and stores them at workspace address `ws`.
    #[allow(clippy::too_many_arguments)]
    fn expand_pixel(
        &mut self,
        m: &mut Machine,
        pool: &SegmentPool,
        p: &IbParams,
        b_in: i64,
        y: usize,
        x: usize,
        ws: usize,
        b_pixel: &mut [u8],
    ) -> Result<(), PoolError> {
        let addr = b_in + ((y * p.hw + x) * p.c_in) as i64;
        let a = pool.read_span(m, addr, &mut self.a_reg)?;
        self.acc_mid.fill(0);
        dot_accumulate_u8(a, &self.w1, p.c_mid, &mut self.acc_mid);
        requant_into(&self.acc_mid, p.rq1, p.clamp1, b_pixel);
        m.ram.write(ws, b_pixel)?;
        m.counters += self.expand + pool.price_load(&m.device.cost, addr, p.c_in);
        Ok(())
    }
}

/// Runs the fused inverted-bottleneck kernel.
///
/// * input `A[H,H,C_in]` at pool logical address `b_in`,
/// * output `E[H2,H2,C_out]` at pool logical address `b_out`,
/// * weights in Flash per [`IbFlash`],
/// * workspace at RAM address `ws_base`
///   (≥ [`ib_workspace_bytes`] minus the two register pixels).
///
/// The device streams the `[C_in, C_mid]` tile per expanded pixel, one
/// workspace pixel and one weight row per depthwise tap and the
/// `[C_mid, C_out]` tile per output pixel; the counters charge exactly
/// that. The host reads the three weight images once per call and the
/// taps in place, and adds `tap * taps` per output pixel.
///
/// # Errors
///
/// Propagates pool violations (offset too tight) and memory errors,
/// including a weight image that does not fit in Flash.
// Bases and offsets stay unbundled to mirror the on-device kernel ABI
// (§6.1), where each lands in its own register-passed argument.
#[allow(clippy::too_many_arguments)]
pub fn run_fused_ib(
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
    let mut host = IbHost::new(m, p, flash)?;
    let cost = m.device.cost;
    let mut b_pixel = vec![0u8; p.c_mid];
    let mut c_pixel = vec![0u8; p.c_mid];
    let mut d_pixel = vec![0u8; p.c_out];
    let mut acc_mid = vec![0i32; p.c_mid];
    let mut acc_out = vec![0i32; p.c_out];
    let mut a_reg = vec![0u8; p.c_in];
    let row_bytes = p.hw * p.c_in;

    for step in ib_schedule(p, scheme) {
        match step {
            IbStep::BRow(b) => {
                // RowBuffer: expand row b of B into its ring slot (the
                // ring never exceeds the image height).
                let slot = b % p.rs.min(h1);
                for x1 in 0..w1_w {
                    let ws = ws_base + (slot * w1_w + x1) * p.c_mid;
                    host.expand_pixel(m, pool, p, b_in, b * p.s1, x1 * p.s1, ws, &mut b_pixel)?;
                }
                m.charge_branches(1);
            }
            IbStep::OutPixel(pi, qi) => {
                // Window schemes: (re)compute expanded pixels into the
                // workspace window slots first. PixelWindow refreshes the
                // whole window; SlidingWindow only the columns that enter
                // it at this step.
                if scheme != IbScheme::RowBuffer {
                    // Columns of B this window covers.
                    let col_lo = (qi * p.s2) as isize - pad as isize;
                    // First *new* column: SlidingWindow reuses everything
                    // up to the previous window's right edge (except at
                    // the start of each row sweep).
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
                            // Column-ring slot so the window slides without
                            // copies.
                            let slot = match scheme {
                                IbScheme::SlidingWindow => x1 as usize % p.rs,
                                _ => s,
                            };
                            let ws = ws_base + (r * p.rs + slot) * p.c_mid;
                            host.expand_pixel(
                                m,
                                pool,
                                p,
                                b_in,
                                b as usize * p.s1,
                                x1 as usize * p.s1,
                                ws,
                                &mut b_pixel,
                            )?;
                        }
                    }
                }
                // Depthwise over the window, each tap read in place.
                acc_mid.fill(0);
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
                        let bv = m.ram.read(ws_addr, p.c_mid)?;
                        let w = &host.wdw[(r * p.rs + s) * p.c_mid..][..p.c_mid];
                        for ((acc, &bv), &w) in acc_mid.iter_mut().zip(bv).zip(w) {
                            *acc += i32::from(bv as i8) * i32::from(w as i8);
                        }
                        taps += 1;
                    }
                }
                requant_into(&acc_mid, p.rq2, p.clamp2, &mut c_pixel);
                // Project (pw2).
                acc_out.fill(0);
                dot_accumulate_u8(&c_pixel, &host.w2, p.c_out, &mut acc_out);
                requant_into(&acc_out, p.rq3, p.clamp3, &mut d_pixel);
                let mut price = host.out + host.tap * taps;
                // Residual add with the original A pixel.
                if p.has_residual() {
                    let addr = b_in + ((pi * p.hw + qi) * p.c_in) as i64;
                    let a = pool.read_span(m, addr, &mut a_reg)?;
                    for (d, &a) in d_pixel.iter_mut().zip(a) {
                        *d = sat8(i64::from(*d as i8) + i64::from(a as i8)) as u8;
                    }
                    price += pool.price_load(&cost, addr, p.c_in);
                }
                // Store E — the segment goes back into the pool, possibly
                // replacing a freed A segment.
                let out_addr = b_out + ((pi * w2_w + qi) * p.c_out) as i64;
                pool.store_span(m, &d_pixel, out_addr)?;
                m.counters += price + pool.price_store(&cost, out_addr, p.c_out);
            }
            IbStep::FreeRows { from, to } => {
                pool.free(b_in + (from * row_bytes) as i64, (to - from) * row_bytes)?;
                m.charge_branches(1);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{exec_distance, pool_window};
    use vmcu_sim::Device;
    use vmcu_tensor::{random, Requant};

    /// The module's executable distance and the pool window it runs in.
    fn layout(p: &IbParams, scheme: IbScheme) -> (i64, usize) {
        let d = exec_distance(p.in_bytes(), ib_exec_trace(p, scheme));
        (d, pool_window(p.in_bytes(), p.out_bytes(), d))
    }

    fn weights(p: &IbParams) -> (Tensor<i8>, Tensor<i8>, Tensor<i8>) {
        (
            random::tensor_i8(&[p.c_in, p.c_mid], 71),
            random::tensor_i8(&[p.rs, p.rs, p.c_mid], 72),
            random::tensor_i8(&[p.c_mid, p.c_out], 73),
        )
    }

    fn run_case(p: &IbParams, scheme: IbScheme, extra: i64) -> Result<Tensor<i8>, PoolError> {
        let mut m = Machine::new(Device::stm32_f767zi());
        let input = random::tensor_i8(&[p.hw, p.hw, p.c_in], 70);
        let (w1, wdw, w2) = weights(p);
        let flash = IbFlash {
            w1: m.host_program_flash(&w1.as_bytes()).unwrap(),
            wdw: m.host_program_flash(&wdw.as_bytes()).unwrap(),
            w2: m.host_program_flash(&w2.as_bytes()).unwrap(),
        };
        let d = layout(p, scheme).0 + extra;
        let window = pool_window(p.in_bytes(), p.out_bytes(), d);
        let ws = ib_workspace_bytes(p, scheme);
        let mut pool = SegmentPool::new(&m, 0, window).unwrap();
        let ws_base = window; // workspace right after the pool window
        assert!(ws_base + ws < m.ram.capacity());
        pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
        run_fused_ib(&mut m, &mut pool, p, scheme, 0, -d, &flash, ws_base)?;
        let out = pool.host_read(&m, -d, p.out_bytes())?;
        Ok(Tensor::from_bytes(&[p.hw2(), p.hw2(), p.c_out], &out))
    }

    fn expected(p: &IbParams) -> Tensor<i8> {
        let input = random::tensor_i8(&[p.hw, p.hw, p.c_in], 70);
        let (w1, wdw, w2) = weights(p);
        ib_reference(p, &input, &w1, &wdw, &w2)
    }

    fn small_residual() -> IbParams {
        let mut p = IbParams::new(8, 4, 12, 4, 3, (1, 1, 1));
        p.rq1 = Requant::from_scale(1.0 / 32.0, 0);
        p.rq2 = Requant::from_scale(1.0 / 16.0, 0);
        p.rq3 = Requant::from_scale(1.0 / 32.0, 0);
        p.clamp1 = (0, 127);
        p.clamp2 = (0, 127);
        p
    }

    #[test]
    fn residual_module_matches_reference_row_buffer() {
        let p = small_residual();
        assert!(p.has_residual());
        assert_eq!(run_case(&p, IbScheme::RowBuffer, 0).unwrap(), expected(&p));
    }

    #[test]
    fn residual_module_matches_reference_pixel_window() {
        let p = small_residual();
        assert_eq!(
            run_case(&p, IbScheme::PixelWindow, 0).unwrap(),
            expected(&p)
        );
    }

    #[test]
    fn strided_expand_matches_reference() {
        // B1-style: pw1 stride 2, no residual.
        let mut p = IbParams::new(9, 3, 8, 6, 3, (2, 1, 1));
        p.rq1 = Requant::from_scale(1.0 / 16.0, 0);
        assert!(!p.has_residual());
        for scheme in [
            IbScheme::RowBuffer,
            IbScheme::PixelWindow,
            IbScheme::SlidingWindow,
        ] {
            assert_eq!(run_case(&p, scheme, 0).unwrap(), expected(&p), "{scheme:?}");
        }
    }

    #[test]
    fn strided_depthwise_matches_reference() {
        // B2-style: dw stride 2 with a large 5x5 window.
        let mut p = IbParams::new(10, 4, 8, 6, 5, (1, 2, 1));
        p.rq2 = Requant::from_scale(1.0 / 64.0, 1);
        for scheme in [
            IbScheme::RowBuffer,
            IbScheme::PixelWindow,
            IbScheme::SlidingWindow,
        ] {
            assert_eq!(run_case(&p, scheme, 0).unwrap(), expected(&p), "{scheme:?}");
        }
    }

    #[test]
    fn channel_change_without_residual_matches_reference() {
        // S3-style: stride 1 everywhere but C_in != C_out -> no residual.
        let p = IbParams::new(6, 6, 18, 4, 3, (1, 1, 1));
        assert!(!p.has_residual());
        for scheme in [
            IbScheme::RowBuffer,
            IbScheme::PixelWindow,
            IbScheme::SlidingWindow,
        ] {
            assert_eq!(run_case(&p, scheme, 0).unwrap(), expected(&p), "{scheme:?}");
        }
    }

    #[test]
    fn exec_distance_is_tight_for_both_schemes() {
        let p = small_residual();
        for scheme in [
            IbScheme::RowBuffer,
            IbScheme::PixelWindow,
            IbScheme::SlidingWindow,
        ] {
            assert!(run_case(&p, scheme, 0).is_ok(), "{scheme:?}");
            assert!(
                matches!(
                    run_case(&p, scheme, -1).unwrap_err(),
                    PoolError::Clobber { .. }
                ),
                "{scheme:?} must clobber one byte closer"
            );
        }
    }

    #[test]
    fn fused_footprint_beats_materializing_b() {
        // Table 2 S1: fused pool window + workspace must be far below the
        // A+B peak that tensor-level managers pay.
        let p = IbParams::new(20, 16, 48, 16, 3, (1, 1, 1));
        for scheme in [
            IbScheme::RowBuffer,
            IbScheme::PixelWindow,
            IbScheme::SlidingWindow,
        ] {
            let total = layout(&p, scheme).1 + ib_workspace_bytes(&p, scheme);
            assert!(
                total < p.in_bytes() + p.mid_bytes(),
                "{scheme:?}: {total} vs A+B {}",
                p.in_bytes() + p.mid_bytes()
            );
        }
    }

    #[test]
    fn pixel_window_uses_less_workspace_but_more_macs() {
        let p = small_residual();
        assert!(
            ib_workspace_bytes(&p, IbScheme::PixelWindow)
                < ib_workspace_bytes(&p, IbScheme::RowBuffer)
        );
        let mac = |scheme| {
            let mut m = Machine::new(Device::stm32_f767zi());
            let input = random::tensor_i8(&[p.hw, p.hw, p.c_in], 70);
            let (w1, wdw, w2) = weights(&p);
            let flash = IbFlash {
                w1: m.host_program_flash(&w1.as_bytes()).unwrap(),
                wdw: m.host_program_flash(&wdw.as_bytes()).unwrap(),
                w2: m.host_program_flash(&w2.as_bytes()).unwrap(),
            };
            let (d, window) = layout(&p, scheme);
            let mut pool = SegmentPool::new(&m, 0, window).unwrap();
            pool.host_fill_live(&mut m, 0, &input.as_bytes()).unwrap();
            run_fused_ib(&mut m, &mut pool, &p, scheme, 0, -d, &flash, window).unwrap();
            m.counters.macs
        };
        assert!(mac(IbScheme::PixelWindow) > mac(IbScheme::RowBuffer));
    }

    #[test]
    fn workspace_accounting_matches_paper_segments() {
        // The paper: 11 segments = 3x3 + 1 + 1 for PixelWindow.
        let p = IbParams::new(20, 16, 48, 16, 3, (1, 1, 1));
        let ws = ib_workspace_bytes(&p, IbScheme::PixelWindow);
        assert_eq!(ws, 9 * 48 + 48 + 16);
    }
}
