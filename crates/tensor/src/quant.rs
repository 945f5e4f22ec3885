//! Fixed-point requantization.
//!
//! Quantized inference accumulates int8×int8 products in int32 and rescales
//! back to int8 with a fixed-point multiplier, in the style of TFLite /
//! CMSIS-NN: `out = sat8(round(acc · mult / 2^(31+shift)) + zero_point)`.
//! Rounding is half-away-from-zero. [`Requant::apply`] (with
//! [`Requant::apply_clamped`] adding the activation clamp) is the
//! per-element definition; the IR interpreter calls it directly.
//!
//! The reference operators, the segment-aware kernels and the baseline
//! kernels requantize whole rows through the **same**
//! [`Requant::apply_row`], so functional equivalence between them is
//! bit-exact by construction. It equals `apply_clamped` on every element:
//! when `mult > 0`, `32 <= 31 + shift <= 63` and `|zp| <= 2^30` (what
//! [`Requant::from_scale`] builds for a scale in `[2^-33, 0.5)` that does
//! not round up to 0.5, with such a zero point) it runs branch-free in
//! `i32` lanes, which is exact there; any other requantization falls back
//! to `apply_clamped` element by element.

/// Saturates an integer to int8.
pub fn sat8(v: i64) -> i8 {
    v.clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i8
}

/// A requantization: fixed-point multiplier, right shift, output zero
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Requant {
    /// Multiplier in `[2^30, 2^31)` (Q31 fixed point).
    pub mult: i32,
    /// Extra right shift; the total shift `31 + shift` must lie in
    /// `[1, 63]`.
    pub shift: i32,
    /// Output zero point.
    pub zp: i32,
}

impl Requant {
    /// Builds the requantization closest to a real `scale` factor
    /// (`out ≈ acc · scale + zp`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale < 1e9` (all DNN rescales are tiny), and
    /// for a scale below 2^-33, whose total shift `31 + shift` would
    /// exceed 63.
    pub fn from_scale(scale: f64, zp: i32) -> Self {
        assert!(scale > 0.0 && scale < 1e9, "unreasonable scale {scale}");
        let mut shift = 0i32;
        let mut s = scale;
        while s < 0.5 {
            s *= 2.0;
            shift += 1;
        }
        while s >= 1.0 {
            s /= 2.0;
            shift -= 1;
        }
        // s in [0.5, 1): mult = s · 2^31 in [2^30, 2^31]; a mantissa that
        // rounds up to 2^31 is 2^30 with one bit less of shift.
        let mult = (s * (1u64 << 31) as f64).round() as i64;
        let (mult, shift) = if mult == 1 << 31 {
            (1i64 << 30, shift - 1)
        } else {
            (mult, shift)
        };
        assert!(31 + shift >= 1, "scale too large for Q31 requantization");
        assert!(31 + shift <= 63, "scale too small for Q31 requantization");
        Self {
            mult: mult as i32,
            shift,
            zp,
        }
    }

    /// The real scale this requantization approximates.
    pub fn scale(&self) -> f64 {
        f64::from(self.mult) / 2f64.powi(31 + self.shift)
    }

    /// An identity-ish rescale (scale 1.0, zero point 0) for tests.
    pub fn identity() -> Self {
        Self::from_scale(1.0, 0)
    }

    /// Applies the requantization to an int32 accumulator.
    pub fn apply(&self, acc: i32) -> i8 {
        let prod = i64::from(acc) * i64::from(self.mult);
        let total_shift = 31 + self.shift;
        debug_assert!(total_shift >= 1);
        let half = 1i64 << (total_shift - 1);
        let rounded = if prod >= 0 {
            (prod + half) >> total_shift
        } else {
            -((-prod + half) >> total_shift)
        };
        sat8(rounded + i64::from(self.zp))
    }

    /// Applies the requantization followed by an activation clamp
    /// (fused ReLU/ReLU6 in quantized form).
    pub fn apply_clamped(&self, acc: i32, clamp: (i8, i8)) -> i8 {
        self.apply(acc).clamp(clamp.0, clamp.1)
    }

    /// Requantizes a row of accumulators with an activation clamp,
    /// storing `put(v)` for each int8 result `v`: element for element,
    /// [`apply_clamped`](Requant::apply_clamped) bit for bit. `put` picks
    /// the output type (the reference operators store `i8`, the kernels
    /// `u8` registers).
    ///
    /// When `mult > 0`, `32 <= 31 + shift <= 63` and `|zp| <= 2^30`, the
    /// row runs branch-free in `i32` lanes the compiler vectorizes: the
    /// product has the accumulator's sign, so the magnitude
    /// `(|acc| · mult + 2^(30+shift)) >> (31+shift)` rounds as `apply`
    /// does (at most `2^30`, since `|acc| · mult < 2^62`), the sign goes
    /// back on, and `± magnitude + zp` stays inside `i32`. Saturation
    /// to int8 and the clamp are one `max(lo).min(hi)`. Every other
    /// requantization applies `apply_clamped` element by element.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `out` differ in length, and, on a non-empty
    /// row, if `clamp.0 > clamp.1`.
    #[inline]
    pub fn apply_row<T>(&self, acc: &[i32], clamp: (i8, i8), out: &mut [T], put: impl Fn(i8) -> T) {
        assert_eq!(acc.len(), out.len(), "requant row length mismatch");
        if acc.is_empty() {
            return;
        }
        assert!(
            clamp.0 <= clamp.1,
            "activation clamp {clamp:?} has min > max"
        );
        if self.mult > 0 && (1..=32).contains(&self.shift) && self.zp.unsigned_abs() <= 1 << 30 {
            let total_shift = 31 + self.shift.unsigned_abs();
            let mult = u64::from(self.mult.unsigned_abs());
            let half = 1u64 << (total_shift - 1);
            let (lo, hi) = (i32::from(clamp.0), i32::from(clamp.1));
            for (o, &a) in out.iter_mut().zip(acc) {
                let mag = ((u64::from(a.unsigned_abs()) * mult + half) >> total_shift) as i32;
                let sign = a >> 31;
                *o = put(((mag ^ sign) - sign + self.zp).max(lo).min(hi) as i8);
            }
        } else {
            for (o, &a) in out.iter_mut().zip(acc) {
                *o = put(self.apply_clamped(a, clamp));
            }
        }
    }
}

/// No activation: the full int8 range.
pub const NO_CLAMP: (i8, i8) = (i8::MIN, i8::MAX);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat8_clamps() {
        assert_eq!(sat8(1000), 127);
        assert_eq!(sat8(-1000), -128);
        assert_eq!(sat8(5), 5);
    }

    #[test]
    fn identity_scale_is_one() {
        let rq = Requant::identity();
        assert!((rq.scale() - 1.0).abs() < 1e-6);
        for v in [-100, -1, 0, 1, 100] {
            assert_eq!(rq.apply(v), v as i8);
        }
    }

    #[test]
    fn from_scale_round_trips() {
        // The last three round their mantissa up to 2^31, which carries
        // into the shift; 2^-33 needs the largest total shift, 63.
        for scale in [
            0.5,
            0.003,
            0.999,
            1.5,
            2.0,
            1e-4,
            2f64.powi(-33),
            1.0 - 1e-12,
            0.5 - 1e-13,
            2f64.powi(-33) * (1.0 - 1e-12),
        ] {
            let rq = Requant::from_scale(scale, 0);
            assert!(
                (rq.scale() - scale).abs() / scale < 1e-6,
                "scale {scale} -> {}",
                rq.scale()
            );
            assert!(rq.mult >= 1 << 30);
        }
    }

    #[test]
    fn the_smallest_scale_is_2_pow_minus_33() {
        let rq = Requant::from_scale(2f64.powi(-33), 0);
        assert_eq!((rq.mult, 31 + rq.shift), (1 << 30, 63));
        assert_eq!(rq.apply(i32::MAX), 0);
        assert_eq!(rq.apply(i32::MIN), 0);
    }

    #[test]
    #[should_panic(expected = "scale too small")]
    fn scales_below_2_pow_minus_33_are_rejected() {
        let _ = Requant::from_scale(2f64.powi(-34), 0);
    }

    #[test]
    fn rounding_is_half_away_from_zero() {
        let rq = Requant::from_scale(0.5, 0);
        assert_eq!(rq.apply(3), 2); // 1.5 -> 2
        assert_eq!(rq.apply(-3), -2); // -1.5 -> -2
        assert_eq!(rq.apply(2), 1);
        assert_eq!(rq.apply(-2), -1);
    }

    #[test]
    fn zero_point_offsets_output() {
        let rq = Requant::from_scale(1.0, 10);
        assert_eq!(rq.apply(5), 15);
        assert_eq!(rq.apply(120), 127); // saturates after offset
    }

    #[test]
    fn clamped_apply_applies_activation() {
        let rq = Requant::identity();
        assert_eq!(rq.apply_clamped(-5, (0, 127)), 0); // ReLU
        assert_eq!(rq.apply_clamped(100, (0, 6)), 6); // quantized ReLU6
    }

    #[test]
    fn tiny_scales_preserve_monotonicity() {
        let rq = Requant::from_scale(1.0 / 4096.0, 0);
        let mut last = i8::MIN;
        for acc in (-600_000..600_000).step_by(9973) {
            let v = rq.apply(acc);
            assert!(v >= last, "requantization must be monotone");
            last = v;
        }
    }
}
