//! Seeded arrival processes for the online serving simulator.
//!
//! An [`ArrivalProfile`] turns a seed into a deterministic stream of
//! [`Arrival`]s — request timestamps in **microseconds of simulated
//! time** plus a catalog model index and an input seed. Three profiles
//! cover the load shapes a fleet operator cares about:
//!
//! * [`ArrivalProfile::Poisson`] — memoryless steady-state traffic at a
//!   constant rate;
//! * [`ArrivalProfile::Bursty`] — alternating burst/gap windows (a
//!   sensor-network duty cycle, or a thundering herd every few seconds);
//! * [`ArrivalProfile::Diurnal`] — a day/night swing, rate ramping
//!   linearly between a trough and a peak over a fixed period.
//!
//! Non-homogeneous profiles are sampled by **Lewis thinning**: candidate
//! arrivals are drawn from a homogeneous process at the profile's peak
//! rate and accepted with probability `rate(t) / peak_rate`. Everything
//! — including the exponential inter-arrival draws — is computed with
//! IEEE-deterministic arithmetic only (no `libm` calls — the natural
//! log is a private bit-decomposition implementation, `det_ln`),
//! so a seeded stream is **bit-identical across hosts**, which is what
//! lets CI gate on the simulated metrics downstream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request arrival in a seeded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arrival {
    /// Arrival timestamp, microseconds of simulated time.
    pub at_us: u64,
    /// Catalog model index this request addresses.
    pub model: usize,
    /// Seed for the request's input tensor.
    pub seed: u64,
}

/// A seeded arrival process: how simulated load reaches the fleet.
///
/// All rates are requests per simulated second; all windows are
/// simulated milliseconds. The same profile + seed produces a
/// bit-identical stream on every host.
///
/// # Examples
///
/// ```
/// use vmcu_serve::ArrivalProfile;
///
/// let profile = ArrivalProfile::Poisson { rate_per_sec: 200.0 };
/// let a = profile.stream(100, 4, 42);
/// let b = profile.stream(100, 4, 42);
/// assert_eq!(a, b); // seeded => bit-identical
/// assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us));
/// assert!(a.iter().all(|arr| arr.model < 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProfile {
    /// Homogeneous Poisson traffic: exponential inter-arrival times at a
    /// constant rate.
    Poisson {
        /// Mean arrival rate, requests per simulated second.
        rate_per_sec: f64,
    },
    /// Alternating burst/gap windows: `burst_rate_per_sec` for
    /// `burst_ms`, then `base_rate_per_sec` for `gap_ms`, repeating.
    Bursty {
        /// Rate outside bursts, requests per simulated second.
        base_rate_per_sec: f64,
        /// Rate inside bursts, requests per simulated second.
        burst_rate_per_sec: f64,
        /// Burst window length, simulated milliseconds.
        burst_ms: f64,
        /// Gap between bursts, simulated milliseconds.
        gap_ms: f64,
    },
    /// A day/night swing: the rate ramps linearly from `trough` up to
    /// `peak` and back over each `period_ms` (a triangle wave — chosen
    /// over a sinusoid because it needs no `libm` trigonometry, keeping
    /// the stream bit-reproducible across hosts).
    Diurnal {
        /// Minimum rate (the "night"), requests per simulated second.
        trough_rate_per_sec: f64,
        /// Maximum rate (the "peak hour"), requests per simulated second.
        peak_rate_per_sec: f64,
        /// Length of one full day/night cycle, simulated milliseconds.
        period_ms: f64,
    },
}

impl ArrivalProfile {
    /// Short stable name, used as the profile key in bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Poisson { .. } => "poisson",
            Self::Bursty { .. } => "bursty",
            Self::Diurnal { .. } => "diurnal",
        }
    }

    /// The maximum instantaneous rate (thinning envelope).
    fn peak_rate(&self) -> f64 {
        match *self {
            Self::Poisson { rate_per_sec } => rate_per_sec,
            Self::Bursty {
                base_rate_per_sec,
                burst_rate_per_sec,
                ..
            } => base_rate_per_sec.max(burst_rate_per_sec),
            Self::Diurnal {
                trough_rate_per_sec,
                peak_rate_per_sec,
                ..
            } => trough_rate_per_sec.max(peak_rate_per_sec),
        }
    }

    /// The instantaneous rate at simulated time `t_us` (requests/sec).
    fn rate_at(&self, t_us: u64) -> f64 {
        match *self {
            Self::Poisson { rate_per_sec } => rate_per_sec,
            Self::Bursty {
                base_rate_per_sec,
                burst_rate_per_sec,
                burst_ms,
                gap_ms,
            } => {
                let burst_us = ms_to_us(burst_ms);
                let cycle_us = burst_us + ms_to_us(gap_ms);
                if t_us % cycle_us < burst_us {
                    burst_rate_per_sec
                } else {
                    base_rate_per_sec
                }
            }
            Self::Diurnal {
                trough_rate_per_sec,
                peak_rate_per_sec,
                period_ms,
            } => {
                let period_us = ms_to_us(period_ms);
                let frac = (t_us % period_us) as f64 / period_us as f64;
                // Triangle wave: 0 at the trough, 1 at mid-period.
                let tri = if frac < 0.5 {
                    2.0 * frac
                } else {
                    2.0 * (1.0 - frac)
                };
                trough_rate_per_sec + (peak_rate_per_sec - trough_rate_per_sec) * tri
            }
        }
    }

    fn validate(&self) {
        let peak = self.peak_rate();
        assert!(
            peak.is_finite() && peak > 0.0,
            "arrival rates must be positive and finite"
        );
        match *self {
            Self::Poisson { .. } => {}
            Self::Bursty {
                base_rate_per_sec,
                burst_ms,
                gap_ms,
                ..
            } => {
                assert!(base_rate_per_sec > 0.0, "base rate must be positive");
                assert!(burst_ms > 0.0 && gap_ms > 0.0, "windows must be positive");
            }
            Self::Diurnal {
                trough_rate_per_sec,
                peak_rate_per_sec,
                period_ms,
            } => {
                assert!(trough_rate_per_sec > 0.0, "trough rate must be positive");
                assert!(
                    peak_rate_per_sec >= trough_rate_per_sec,
                    "peak rate must be at least the trough rate"
                );
                assert!(period_ms > 0.0, "period must be positive");
            }
        }
    }

    /// Generates a seeded stream of `requests` arrivals over `models`
    /// catalog entries (model indices drawn uniformly).
    ///
    /// Timestamps are non-decreasing `u64` microseconds; the stream is a
    /// pure function of `(self, requests, models, seed)`.
    ///
    /// # Panics
    ///
    /// Panics when `models == 0` or a profile parameter is non-positive.
    pub fn stream(&self, requests: usize, models: usize, seed: u64) -> Vec<Arrival> {
        self.arrivals(requests, models, seed).collect()
    }

    /// The arrivals of [`stream`](Self::stream), drawn one at a time as
    /// the caller consumes them, so a pass over the stream holds none of
    /// it in memory.
    pub(crate) fn arrivals(
        &self,
        requests: usize,
        models: usize,
        seed: u64,
    ) -> impl ExactSizeIterator<Item = Arrival> {
        assert!(models > 0, "cannot draw requests over an empty catalog");
        self.validate();
        let profile = *self;
        let peak = self.peak_rate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t_us: u64 = 0;
        (0..requests).map(move |_| loop {
            // Candidate from the homogeneous envelope process at the
            // peak rate; at least 1µs so the clock always advances.
            let dt_sec = -det_ln(unit_open(&mut rng)) / peak;
            t_us += ((dt_sec * 1e6).round() as u64).max(1);
            // Lewis thinning: keep the candidate with probability
            // rate(t)/peak. Homogeneous profiles skip the accept draw so
            // the Poisson stream costs one draw per arrival.
            let rate = profile.rate_at(t_us);
            if rate < peak && unit_open(&mut rng) >= rate / peak {
                continue;
            }
            break Arrival {
                at_us: t_us,
                model: rng.gen_range(0..models),
                seed: rng.next_u64(),
            };
        })
    }
}

fn ms_to_us(ms: f64) -> u64 {
    ((ms * 1e3).round() as u64).max(1)
}

/// A uniform draw in the open interval (0, 1) — never 0, so its log is
/// finite.
fn unit_open(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Deterministic natural logarithm over `(0, 1]`-ish inputs (any
/// positive normal `f64`).
///
/// `f64::ln` routes through the platform's `libm`, whose last-bit
/// rounding differs across hosts — poison for a bit-reproducible
/// simulation. This implementation uses only IEEE-754-deterministic
/// operations (`+ - * /` and bit manipulation): decompose
/// `x = m·2^e` with `m ∈ [√½, √2)`, then evaluate the atanh series
/// `ln(m) = 2s(1 + s²/3 + s⁴/5 + …)` with `s = (m−1)/(m+1)`, `|s| ≤
/// 0.172`, truncated at `s¹³` (relative error below 1e-12).
fn det_ln(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0 && x.is_normal());
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let series = 1.0
        + s2 * (1.0 / 3.0
            + s2 * (1.0 / 5.0
                + s2 * (1.0 / 7.0 + s2 * (1.0 / 9.0 + s2 * (1.0 / 11.0 + s2 / 13.0)))));
    2.0 * s * series + e as f64 * std::f64::consts::LN_2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(rate: f64) -> ArrivalProfile {
        ArrivalProfile::Poisson { rate_per_sec: rate }
    }

    fn bursty() -> ArrivalProfile {
        ArrivalProfile::Bursty {
            base_rate_per_sec: 20.0,
            burst_rate_per_sec: 2000.0,
            burst_ms: 50.0,
            gap_ms: 450.0,
        }
    }

    fn diurnal() -> ArrivalProfile {
        ArrivalProfile::Diurnal {
            trough_rate_per_sec: 20.0,
            peak_rate_per_sec: 2000.0,
            period_ms: 10_000.0,
        }
    }

    #[test]
    fn det_ln_matches_std_ln_closely() {
        // std's ln is platform libm (accurate to ~1 ulp); ours must agree
        // to ~1e-12 relative — it is the *deterministic definition* used
        // by the sampler, accuracy just needs to be sane.
        for &x in &[1e-16, 1e-9, 0.001, 0.3, 0.5, 0.999, 1.0, 1.5, 2.0, 1e6] {
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "ln({x}): got {got}, want {want}"
            );
        }
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn streams_are_seed_deterministic_and_monotone() {
        for profile in [poisson(500.0), bursty(), diurnal()] {
            let a = profile.stream(2_000, 9, 0xA11CE);
            let b = profile.stream(2_000, 9, 0xA11CE);
            assert_eq!(a, b, "{} must be seed-deterministic", profile.name());
            assert!(
                a.windows(2).all(|w| w[0].at_us <= w[1].at_us),
                "{} timestamps must be non-decreasing",
                profile.name()
            );
            assert!(a.iter().all(|arr| arr.model < 9));
            let c = profile.stream(2_000, 9, 0xA11CF);
            assert_ne!(a, c, "a different seed must move the stream");
        }
    }

    #[test]
    fn poisson_hits_its_mean_rate() {
        let rate = 1000.0;
        let n = 50_000;
        let stream = poisson(rate).stream(n, 3, 7);
        let span_sec = stream.last().unwrap().at_us as f64 / 1e6;
        let observed = n as f64 / span_sec;
        assert!(
            (observed - rate).abs() / rate < 0.05,
            "observed {observed} req/s vs nominal {rate}"
        );
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let stream = bursty().stream(20_000, 3, 11);
        let burst_us = 50_000u64;
        let cycle_us = 500_000u64;
        let in_burst = stream
            .iter()
            .filter(|a| a.at_us % cycle_us < burst_us)
            .count();
        // Bursts cover 10% of the timeline but a 100x rate: nearly all
        // arrivals land inside them.
        assert!(
            in_burst as f64 > 0.8 * stream.len() as f64,
            "only {in_burst}/{} arrivals in bursts",
            stream.len()
        );
    }

    #[test]
    fn diurnal_peak_outdraws_the_trough() {
        let stream = diurnal().stream(20_000, 3, 13);
        let period_us = 10_000_000u64;
        let phase = |a: &Arrival| (a.at_us % period_us) as f64 / period_us as f64;
        let near_peak = stream
            .iter()
            .filter(|a| (0.4..0.6).contains(&phase(a)))
            .count();
        let near_trough = stream
            .iter()
            .filter(|a| {
                let p = phase(a);
                !(0.1..0.9).contains(&p)
            })
            .count();
        assert!(
            near_peak > 5 * near_trough.max(1),
            "peak window {near_peak} vs trough window {near_trough}"
        );
    }

    #[test]
    fn input_seeds_are_not_degenerate() {
        let stream = poisson(100.0).stream(64, 4, 3);
        let mut seeds: Vec<u64> = stream.iter().map(|a| a.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "input seeds must be distinct");
    }

    #[test]
    #[should_panic(expected = "empty catalog")]
    fn zero_models_panics() {
        let _ = poisson(10.0).stream(1, 0, 0);
    }
}
