//! Property tests for the quantization substrate: the requantization
//! arithmetic every executor shares must be monotone, saturating, and
//! scale-faithful for arbitrary parameters — a wrong epilogue would
//! silently skew every accuracy-preservation claim.
//!
//! `Requant::apply_clamped` is the per-element definition; the row
//! function `Requant::apply_row` that the reference operators (`i8`
//! rows) and the kernels (`u8` registers) requantize through must equal
//! it bit for bit, in its branch-free `i32` lanes and in its fallback.

use proptest::prelude::*;
use vmcu::vmcu_kernels::intrinsics::requant_row;
use vmcu::vmcu_sim::{Device, Machine};
use vmcu::vmcu_tensor::{quant::sat8, random, reference, Requant, Tensor, NO_CLAMP};

/// The largest zero point the row function's `i32` lanes admit.
const ZP_EDGE: i32 = 1 << 30;

/// An exact rounding tie of `rq` built from `raw`, when one fits in
/// `i32`: `|acc| · mult` is an odd multiple of `2^(30 + shift)` exactly
/// when `acc` is an odd multiple of `2^e`, `e = 30 + shift −
/// trailing_zeros(mult)`.
fn tie(rq: Requant, raw: i32) -> Option<i32> {
    let e = i64::from(rq.shift) + 30 - i64::from(rq.mult.trailing_zeros());
    (rq.mult != 0 && (0..=30).contains(&e)).then(|| ((raw >> e) | 1) << e)
}

/// One accumulator of a drawn row: uniform `i32`, a small value, an
/// extreme (`i32::MIN`, `i32::MAX`, 0, ±1) or a rounding tie of `rq`.
fn accumulator(rq: Requant, (kind, raw, small): (u8, i32, i32)) -> i32 {
    match kind {
        0 | 1 => raw,
        2 | 3 => small,
        4 | 5 => [i32::MIN, i32::MAX, 0, 1, -1][raw.rem_euclid(5) as usize],
        _ => tie(rq, raw).unwrap_or(small),
    }
}

/// `from_scale` requantizations over `[2^-33, 1e9)`: log-uniform, or
/// (one in four) an exact power of two, whose multiplier `2^30` makes
/// rounding ties common. Zero points are small, at the edge of the
/// `i32` lanes (`±2^30`, `±(2^30 + 1)`) or anywhere in `i32`.
fn requants() -> impl Strategy<Value = Requant> {
    (0u32..1 << 20, 0u8..4, 0u8..3, i32::MIN..=i32::MAX).prop_map(|(u, kind, zp_kind, raw)| {
        let (lo, hi) = (-33.0, 1e9f64.log2());
        let log2 = lo + (hi - lo) * f64::from(u) / f64::from(1u32 << 20);
        let scale = 2f64.powf(if kind == 0 { log2.floor() } else { log2 });
        let zp = match zp_kind {
            0 => raw % 128,
            1 => [ZP_EDGE, -ZP_EDGE, ZP_EDGE + 1, -ZP_EDGE - 1][raw.rem_euclid(4) as usize],
            _ => raw,
        };
        Requant::from_scale(scale, zp)
    })
}

/// Activation clamps: none, ReLU, quantized ReLU6, or any `lo <= hi`.
fn clamps() -> impl Strategy<Value = (i8, i8)> {
    (0u8..4, i8::MIN..=i8::MAX, i8::MIN..=i8::MAX).prop_map(|(kind, a, b)| match kind {
        0 => NO_CLAMP,
        1 => (0, 127),
        2 => (0, 6),
        _ => (a.min(b), a.max(b)),
    })
}

/// Requantizes `acc` through both callers of the row function — the
/// reference operators' `i8` rows (a dense layer over one zero input,
/// whose bias is the row) and the kernels' `u8` registers — and
/// compares each element with `apply_clamped`. Returns the first
/// mismatch.
fn row_mismatch(rq: Requant, clamp: (i8, i8), acc: &[i32]) -> Option<String> {
    let expect: Vec<i8> = acc.iter().map(|&a| rq.apply_clamped(a, clamp)).collect();
    let mut regs = vec![0u8; acc.len()];
    requant_row(
        &mut Machine::new(Device::stm32_f411re()),
        acc,
        rq,
        clamp,
        &mut regs,
    );
    let kernel: Vec<i8> = regs.iter().map(|&r| r as i8).collect();
    let oracle = if acc.is_empty() {
        Vec::new()
    } else {
        let zero_in = Tensor::from_vec(&[1, 1], vec![0i8]);
        let zero_w = Tensor::from_vec(&[1, acc.len()], vec![0i8; acc.len()]);
        reference::dense(&zero_in, &zero_w, Some(acc), rq, clamp)
            .data()
            .to_vec()
    };
    for (caller, got) in [("kernel u8", &kernel), ("reference i8", &oracle)] {
        if let Some(i) = (0..acc.len()).find(|&i| got[i] != expect[i]) {
            return Some(format!(
                "{caller} row, {rq:?} clamp {clamp:?}: acc[{i}] = {} gave {}, apply_clamped {}",
                acc[i], got[i], expect[i]
            ));
        }
    }
    None
}

/// Every combination of total shift `31 + shift` in {1, 30, 31, 32, 63},
/// `mult` in {−1, 0, 1, 2^30, 2^31 − 1} and `zp` in {0, ±2^30,
/// ±(2^30 + 1)} — each side of every bound of the `i32` lanes' domain —
/// against the edge accumulators and the rounding ties each one has.
#[test]
fn apply_row_matches_apply_clamped_on_the_edge_grid() {
    let edges = [
        i32::MIN,
        i32::MIN + 1,
        i32::MAX,
        i32::MAX - 1,
        0,
        1,
        -1,
        2,
        -2,
        77,
        -4096,
    ];
    for total_shift in [1, 30, 31, 32, 63] {
        for mult in [-1, 0, 1, 1 << 30, i32::MAX] {
            for zp in [0, ZP_EDGE, -ZP_EDGE, ZP_EDGE + 1, -ZP_EDGE - 1] {
                let rq = Requant {
                    mult,
                    shift: total_shift - 31,
                    zp,
                };
                let ties = edges.iter().filter_map(|&raw| tie(rq, raw));
                let acc: Vec<i32> = edges.iter().copied().chain(ties).collect();
                for clamp in [NO_CLAMP, (0, 127), (0, 6), (-5, 3)] {
                    assert_eq!(row_mismatch(rq, clamp, &acc), None);
                }
            }
        }
    }
}

/// At the benchmark models' scale 1/64 (`mult = 2^30`, total shift 36,
/// the `i32` lanes) halves round away from zero.
#[test]
fn fast_path_ties_round_half_away_from_zero() {
    let rq = Requant::from_scale(1.0 / 64.0, 0);
    assert_eq!((rq.mult, 31 + rq.shift), (1 << 30, 36));
    let mut out = [0i8; 4];
    rq.apply_row(&[-96, -32, 32, 96], NO_CLAMP, &mut out, |v| v);
    assert_eq!(out, [-2, -1, 1, 2]);
    assert_eq!(row_mismatch(rq, NO_CLAMP, &[-96, -32, 32, 96]), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Requantization is monotone non-decreasing in the accumulator.
    #[test]
    fn requant_is_monotone(
        scale_num in 1u32..4096,
        zp in -32i32..32,
        a in -100_000i32..100_000,
        b in -100_000i32..100_000,
    ) {
        let rq = Requant::from_scale(f64::from(scale_num) / 4096.0, zp);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(rq.apply(lo) <= rq.apply(hi));
    }

    /// The fixed-point approximation tracks the real scale to within one
    /// output step.
    #[test]
    fn requant_tracks_real_scale(
        scale_num in 1u32..4096,
        acc in -50_000i32..50_000,
    ) {
        let scale = f64::from(scale_num) / 4096.0;
        let rq = Requant::from_scale(scale, 0);
        let ideal = sat8((f64::from(acc) * scale).round() as i64);
        let got = rq.apply(acc);
        prop_assert!(
            (i32::from(got) - i32::from(ideal)).abs() <= 1,
            "acc {acc} scale {scale}: got {got}, ideal {ideal}"
        );
    }

    /// Saturation clamps exactly at the int8 boundary.
    #[test]
    fn sat8_is_a_clamp(v in -1_000_000i64..1_000_000) {
        let s = sat8(v);
        prop_assert_eq!(i64::from(s), v.clamp(-128, 127));
    }

    /// Zero weights reduce every operator to its (clamped) zero point —
    /// the reference operators share one epilogue.
    #[test]
    fn zero_weights_yield_zero_point(
        h in 2usize..6,
        c in 1usize..5,
        k in 1usize..5,
        zp in -20i32..20,
    ) {
        let rq = Requant::from_scale(0.5, zp);
        let input = random::tensor_i8(&[h, h, c], 1);
        let w = Tensor::from_vec(&[c, k], vec![0i8; c * k]);
        let out = reference::pointwise(&input, &w, None, 1, rq, NO_CLAMP);
        let expect = rq.apply(0);
        prop_assert!(out.data().iter().all(|&v| v == expect));
    }

    /// The row function equals `apply_clamped` element for element, bit
    /// for bit, through both of its callers.
    #[test]
    fn apply_row_is_apply_clamped_per_element(
        rq in requants(),
        clamp in clamps(),
        cells in prop::collection::vec((0u8..8, i32::MIN..=i32::MAX, -300i32..300), 0..=300),
    ) {
        let acc: Vec<i32> = cells.into_iter().map(|c| accumulator(rq, c)).collect();
        let mismatch = row_mismatch(rq, clamp, &acc);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    /// The residual add commutes and saturates symmetrically.
    #[test]
    fn add_commutes(len in 1usize..64, s1 in 0u64..50, s2 in 50u64..100) {
        let a = random::tensor_i8(&[len], s1);
        let b = random::tensor_i8(&[len], s2);
        prop_assert_eq!(reference::add(&a, &b), reference::add(&b, &a));
    }
}
