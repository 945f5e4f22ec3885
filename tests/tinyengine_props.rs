//! The TinyEngine baseline kernels against the device loops they model.
//!
//! `run_pointwise_te` computes a whole output pixel in one pass and
//! `run_depthwise_te_inplace` reads its weights once per layer and each
//! ring tap in place; both add per-pixel charges priced once per layer
//! with the charge-only `Counters` helpers. Their contract is the loop the
//! cost model describes: the CMSIS-NN 2-column tile (`TE_COL_TILE`) that
//! reloads the im2col row per tile and streams the weight matrix per
//! pixel, and the depthwise loop that loads one ring pixel and one weight
//! row per tap. Those loops are kept here verbatim as `definition_*`
//! oracles. Every case runs on the F411RE, F767ZI and G071RB, whose cost
//! constants differ in per-call rounding, and must leave the same whole
//! RAM image and the same `Counters`. This file is the gate for any edit
//! to the TinyEngine kernels or to the helpers they price with.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::mem::discriminant;
use vmcu::vmcu_kernels::intrinsics::{broadcast, dot_tile_u8, requant_row, widen};
use vmcu::vmcu_kernels::params::{DepthwiseParams, IbParams, PointwiseParams};
use vmcu::vmcu_kernels::tinyengine::{
    dw_stages_whole_input, run_add_te_inplace, run_depthwise_te_inplace, run_ib_te,
    run_pointwise_te, TeIbLayout, TePointwiseLayout, TE_COL_TILE,
};
use vmcu::vmcu_sim::{Device, Machine, MemError};
use vmcu::vmcu_tensor::{random, Requant};

// ---- oracles: the per-tile and per-tap loops ----------------------------

/// The modelled device loop of `run_pointwise_te`: the weight matrix
/// streamed per pixel, then one `TE_COL_TILE`-column tile per step.
fn definition_pointwise_te(
    m: &mut Machine,
    p: &PointwiseParams,
    stride: usize,
    layout: TePointwiseLayout,
    w_base: usize,
) -> Result<(), MemError> {
    let (h_out, w_out) = ((p.h - 1) / stride + 1, (p.w - 1) / stride + 1);
    let mut a_reg = vec![0u8; p.c];
    let mut w_full = vec![0u8; p.c * p.k];
    let mut acc = [0i32; TE_COL_TILE];
    let mut out_reg = [0u8; TE_COL_TILE];
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
            // Whole weight matrix streamed from Flash per pixel.
            m.flash_load(w_base, &mut w_full)?;
            let w_full = widen(&w_full);
            let mut k0 = 0;
            while k0 < p.k {
                let kw = TE_COL_TILE.min(p.k - k0);
                // CMSIS-NN/TinyEngine templates compute 2 output channels
                // at a time (§8.1) and re-read the input row per column
                // pair — the extra RAM traffic §7.2 attributes the energy
                // gap to.
                m.ram_load(layout.im2col + qi * p.c, &mut a_reg)?;
                broadcast(m, &mut acc[..kw], 0);
                // Fixed-depth unrolling: the stall penalty applies.
                dot_tile_u8(m, &a_reg, &w_full[k0..], p.k, &mut acc[..kw], false);
                requant_row(m, &acc[..kw], p.rq, p.clamp, &mut out_reg[..kw]);
                m.ram_store(layout.output + (pi * w_out + qi) * p.k + k0, &out_reg[..kw])?;
                m.charge_branches(1);
                k0 += kw;
            }
        }
        m.charge_branches(1);
    }
    Ok(())
}

/// The modelled device loop of `run_depthwise_te_inplace`: one ring
/// pixel and one weight row loaded per in-bounds tap.
fn definition_depthwise_te_inplace(
    m: &mut Machine,
    p: &DepthwiseParams,
    buf: usize,
    ring: usize,
    w_base: usize,
) -> Result<(), MemError> {
    let (h_out, w_out) = (p.out_h(), p.out_w());
    let row_bytes = p.w * p.c;
    let mut a_reg = vec![0u8; p.c];
    let mut w_reg = vec![0u8; p.c];
    let mut acc = vec![0i32; p.c];
    let mut out_reg = vec![0u8; p.c];
    // All rows up front when padding lets the output outrun them.
    let whole = dw_stages_whole_input(p);
    let ring_rows = if whole { p.h } else { p.r.min(p.h) };
    let mut copied_upto = 0usize; // rows [0, copied_upto) staged in the ring
    for pi in 0..h_out {
        // Stage the original rows this output row's window needs.
        let hi_row = if whole {
            p.h - 1
        } else {
            (pi * p.stride + p.r - 1).saturating_sub(p.pad).min(p.h - 1)
        };
        while copied_upto <= hi_row {
            m.ram_copy(
                buf + copied_upto * row_bytes,
                ring + (copied_upto % ring_rows) * row_bytes,
                row_bytes,
            )?;
            copied_upto += 1;
        }
        for qi in 0..w_out {
            broadcast(m, &mut acc, 0);
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
                    m.ram_load(
                        ring + ((y as usize % ring_rows) * p.w + x as usize) * p.c,
                        &mut a_reg,
                    )?;
                    m.flash_load(w_base + (ri * p.s + si) * p.c, &mut w_reg)?;
                    for c in 0..p.c {
                        acc[c] += i32::from(a_reg[c] as i8) * i32::from(w_reg[c] as i8);
                    }
                    taps += 1;
                }
            }
            // Counter-identical to the per-tap charges this loop used to
            // make (tiles × mac_cost, never a merged rounding).
            m.charge_macs_batched(p.c as u64, taps, false);
            requant_row(m, &acc, p.rq, p.clamp, &mut out_reg);
            m.ram_store(buf + (pi * w_out + qi) * p.c, &out_reg)?;
            m.charge_branches(1);
        }
        m.charge_branches(1);
    }
    Ok(())
}

/// `run_ib_te` over the two oracles.
fn definition_ib_te(
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
    definition_pointwise_te(
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
    definition_depthwise_te_inplace(m, &dw, layout.b, layout.ring, wdw_base)?;
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
    definition_pointwise_te(
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

/// A `device` machine whose RAM holds `ram` from address 0 and whose
/// Flash holds `weights` behind a `gap`-byte image; returns the machine
/// and the weights' base.
fn machine(device: &Device, ram: &[u8], gap: usize, weights: &[u8]) -> (Machine, usize) {
    let mut m = Machine::new(device.clone());
    m.host_write_ram(0, ram).unwrap();
    m.host_program_flash(&vec![0xA5; gap]).unwrap();
    let w_base = m.host_program_flash(weights).unwrap();
    (m, w_base)
}

/// Runs the kernel and its definition on twin machines built by `boot`;
/// both must succeed and leave the same whole RAM image and counters.
fn assert_same_as_definition(
    boot: impl Fn() -> (Machine, usize),
    kernel: impl Fn(&mut Machine, usize) -> Result<(), MemError>,
    definition: impl Fn(&mut Machine, usize) -> Result<(), MemError>,
) -> Result<(), TestCaseError> {
    let (mut got, w_base) = boot();
    let (mut want, _) = boot();
    let (got_result, want_result) = (kernel(&mut got, w_base), definition(&mut want, w_base));
    prop_assert_eq!(want_result, Ok(()));
    prop_assert_eq!(got_result, Ok(()));
    prop_assert_eq!(got.counters, want.counters);
    let cap = got.ram.capacity();
    let (got_ram, want_ram) = (
        got.ram.read(0, cap).unwrap(),
        want.ram.read(0, cap).unwrap(),
    );
    prop_assert!(
        got_ram == want_ram,
        "RAM images differ first at byte {:?}",
        got_ram.iter().zip(want_ram).position(|(a, b)| a != b)
    );
    Ok(())
}

// ---- properties ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pointwise over odd and even `K` (an odd `K` ends in a 1-column
    /// tile), strides 1–3, at a Flash base and RAM layout that vary per
    /// case.
    #[test]
    fn pointwise_matches_the_per_tile_loop(
        dims in (1usize..=9, 1usize..=9, 1usize..=33, 1usize..=33),
        knobs in (1usize..=3, 0usize..4, 0usize..=40, 0usize..=24),
        seed in 0u64..1_000_000,
    ) {
        let (h, w, c, k) = dims;
        let (stride, pick, gap, offset) = knobs;
        let (rq, clamp) = requant(pick);
        let mut p = PointwiseParams::new(h, w, c, k, rq);
        p.clamp = clamp;
        let (h_out, w_out) = ((h - 1) / stride + 1, (w - 1) / stride + 1);
        let layout = TePointwiseLayout {
            input: offset,
            output: offset + p.in_bytes() + gap,
            im2col: offset + p.in_bytes() + gap + h_out * w_out * k + gap,
        };
        let ram = noise(layout.im2col + w_out * c + 16, seed);
        let weights = noise(c * k, seed + 1);
        for device in devices() {
            assert_same_as_definition(
                || machine(&device, &ram, gap, &weights),
                |m, w_base| run_pointwise_te(m, &p, stride, layout, w_base),
                |m, w_base| definition_pointwise_te(m, &p, stride, layout, w_base),
            )?;
        }
    }

    /// In-place depthwise over kernels 1–7 (square or not), strides 1–3
    /// and pads 0–3, including pads that leave border pixels with no
    /// in-bounds tap.
    #[test]
    fn depthwise_matches_the_per_tap_loop(
        dims in (1usize..=9, 1usize..=9, 1usize..=33),
        kernel in (1usize..=7, 1usize..=7, 1usize..=3, 0usize..=3),
        knobs in (0usize..4, 0usize..=40, 0usize..=24),
        seed in 0u64..1_000_000,
    ) {
        let (h, w, c) = dims;
        let (r, s, stride, pad) = kernel;
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= s);
        let (pick, gap, offset) = knobs;
        let (rq, clamp) = requant(pick);
        let mut p = DepthwiseParams::new(h, w, c, r, s, stride, pad, rq);
        p.clamp = clamp;
        let buf_bytes = p.in_bytes().max(p.out_bytes());
        let ring = offset + buf_bytes + gap;
        let ring_rows = if dw_stages_whole_input(&p) { h } else { r.min(h) };
        let ram = noise(ring + ring_rows * w * c + 16, seed);
        let weights = noise(r * s * c, seed + 1);
        for device in devices() {
            assert_same_as_definition(
                || machine(&device, &ram, gap, &weights),
                |m, w_base| run_depthwise_te_inplace(m, &p, offset, ring, w_base),
                |m, w_base| definition_depthwise_te_inplace(m, &p, offset, ring, w_base),
            )?;
        }
    }

    /// Whole inverted-bottleneck modules, with the residual add (stride 1
    /// throughout, `c_in == c_out`) and without.
    #[test]
    fn ib_module_matches_the_definition(
        dims in (1usize..=9, 1usize..=17, 1usize..=33, 1usize..=17),
        knobs in (1usize..=7, 1usize..=2, 1usize..=2, 1usize..=2, 0u8..2, 0usize..4),
        seed in 0u64..1_000_000,
    ) {
        let (hw, c_in, c_mid, c_out) = dims;
        let (rs, s1, s2, s3, residual, pick) = knobs;
        let mut p = if residual == 1 {
            IbParams::new(hw, c_in, c_mid, c_in, rs, (1, 1, 1))
        } else {
            IbParams::new(hw, c_in, c_mid, c_out, rs, (s1, s2, s3))
        };
        prop_assume!(p.hw1() + 2 * p.pad() >= p.rs);
        prop_assert_eq!(p.has_residual(), residual == 1 || (s1 * s2 * s3 == 1 && c_in == c_out));
        (p.rq1, p.clamp1) = requant(pick);
        (p.rq2, p.clamp2) = requant(pick + 1);
        (p.rq3, p.clamp3) = requant(pick + 2);
        let (layout, end) = TeIbLayout::packed(&p, 8);
        let ram = noise(end + 16, seed);
        let (w1, wdw, w2) = (p.c_in * p.c_mid, p.rs * p.rs * p.c_mid, p.c_mid * p.c_out);
        let weights = noise(w1 + wdw + w2, seed + 1);
        for device in devices() {
            assert_same_as_definition(
                || machine(&device, &ram, 3, &weights),
                |m, w| run_ib_te(m, &p, layout, w, w + w1, w + w1 + wdw),
                |m, w| definition_ib_te(m, &p, layout, w, w + w1, w + w1 + wdw),
            )?;
        }
    }
}

// ---- layout errors ------------------------------------------------------

/// Runs the kernel and its definition on twin `device` machines; both
/// must fail with the same kind of `MemError`.
fn assert_both_fail(
    what: &str,
    device: &Device,
    kernel: impl Fn(&mut Machine) -> Result<(), MemError>,
    definition: impl Fn(&mut Machine) -> Result<(), MemError>,
) {
    let (mut got, _) = machine(device, &[], 0, &[1; 64]);
    let (mut want, _) = machine(device, &[], 0, &[1; 64]);
    let got = kernel(&mut got).expect_err(what);
    let want = definition(&mut want).expect_err(what);
    assert_eq!(
        discriminant(&got),
        discriminant(&want),
        "{what}: {got} vs {want}"
    );
}

#[test]
fn out_of_range_layouts_still_fail_with_a_mem_error() {
    let pw = PointwiseParams::new(3, 3, 4, 5, Requant::identity());
    let dw = DepthwiseParams::new(4, 4, 3, 3, 3, 1, 1, Requant::identity());
    let ok = TePointwiseLayout {
        input: 0,
        output: 64,
        im2col: 128,
    };
    for device in devices() {
        let (cap, flash_cap) = (device.ram_bytes, device.flash_bytes);
        for (what, layout, w_base) in [
            (
                "input past RAM",
                TePointwiseLayout {
                    input: cap - 8,
                    ..ok
                },
                0,
            ),
            (
                "output past RAM",
                TePointwiseLayout {
                    output: cap - 8,
                    ..ok
                },
                0,
            ),
            (
                "im2col past RAM",
                TePointwiseLayout {
                    im2col: cap - 2,
                    ..ok
                },
                0,
            ),
            ("weights past Flash", ok, flash_cap - 8),
        ] {
            assert_both_fail(
                what,
                &device,
                |m| run_pointwise_te(m, &pw, 1, layout, w_base),
                |m| definition_pointwise_te(m, &pw, 1, layout, w_base),
            );
        }
        for (what, buf, ring, w_base) in [
            ("buffer past RAM", cap - 8, 0, 0),
            ("ring past RAM", 0, cap - 8, 0),
            ("weights past Flash", 0, 64, flash_cap - 8),
        ] {
            assert_both_fail(
                what,
                &device,
                |m| run_depthwise_te_inplace(m, &dw, buf, ring, w_base),
                |m| definition_depthwise_te_inplace(m, &dw, buf, ring, w_base),
            );
        }
    }
}

/// The oracles really model 2-column tiles: an odd `K` pays one more
/// tile than `K - 1`, the pixel's im2col reload included.
#[test]
fn the_definition_charges_one_im2col_reload_per_tile() {
    let run = |k: usize| {
        let p = PointwiseParams::new(1, 1, 8, k, Requant::identity());
        let (mut m, w_base) = machine(&Device::stm32_f411re(), &[0; 64], 0, &[1; 8 * 9]);
        let layout = TePointwiseLayout {
            input: 0,
            output: 16,
            im2col: 32,
        };
        definition_pointwise_te(&mut m, &p, 1, layout, w_base).unwrap();
        m.counters
    };
    let tiles = |k: usize| k.div_ceil(TE_COL_TILE) as u64;
    // One im2col copy plus one reload per tile, each of C = 8 bytes.
    for k in [1, 2, 7, 8, 9] {
        assert_eq!(run(k).ram_read_bytes, 8 * (1 + tiles(k)), "K = {k}");
    }
}
