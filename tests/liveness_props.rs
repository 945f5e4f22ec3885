//! Byte liveness against the per-byte code it replaced.
//!
//! `SegmentPool`, `vmcu_kernels::trace::exec_distance` and
//! `vmcu_verify::replay` (`PoolModel`, `replay_layer`,
//! `derive_min_distance`, `solver_min_distance`) keep byte liveness in a
//! word-packed `vmcu_sim::ByteSet` and check and mark whole spans. Their
//! contract is the per-byte code kept here as oracles: one `bool` per
//! byte, walked one byte at a time, with one `rem_euclid` per byte in the
//! replay model. Every result must match bit for bit: errors and
//! violations (variant, first offending byte, count), side effects on
//! error paths, live and peak byte counts, RAM bytes, counters, distances
//! and panic messages. This file is the gate for any edit to
//! byte-liveness code.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vmcu::vmcu_kernels::trace::{exec_distance, ExecEvent};
use vmcu::vmcu_solver::multilayer::min_distance_events;
use vmcu::vmcu_solver::Event;
use vmcu_verify::{
    derive_min_distance, replay_layer, solver_min_distance, LayerSpec, PoolModel, Violation,
};

// ---- oracles: the per-byte code -----------------------------------------

/// `PoolModel` with one `bool` per byte and one `rem_euclid` per byte.
struct OracleModel {
    window: usize,
    live: Vec<bool>,
}

impl OracleModel {
    fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be non-empty");
        OracleModel {
            window,
            live: vec![false; window],
        }
    }

    fn live_bytes(&self) -> usize {
        self.live.iter().filter(|&&b| b).count()
    }

    fn phys(&self, logical: i64) -> usize {
        logical.rem_euclid(self.window as i64) as usize
    }

    fn fill(&mut self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        self.store(site, base, len, out);
    }

    fn store(&mut self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        if len > self.window {
            out.push(Violation::OutOfBounds {
                site: site.into(),
                needed: len,
                budget: self.window,
            });
            return;
        }
        let mut clobbered: Option<(i64, usize)> = None;
        for off in 0..len {
            let p = self.phys(base + off as i64);
            if self.live[p] {
                match &mut clobbered {
                    Some((_, n)) => *n += 1,
                    None => clobbered = Some((base + off as i64, 1)),
                }
            }
            self.live[p] = true;
        }
        if let Some((byte, n)) = clobbered {
            out.push(Violation::Clobber {
                site: site.into(),
                byte,
                len: n,
            });
        }
    }

    fn free(&mut self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        if len > self.window {
            out.push(Violation::OutOfBounds {
                site: site.into(),
                needed: len,
                budget: self.window,
            });
            return;
        }
        let mut dead: Option<(i64, usize)> = None;
        for off in 0..len {
            let p = self.phys(base + off as i64);
            if !self.live[p] {
                match &mut dead {
                    Some((_, n)) => *n += 1,
                    None => dead = Some((base + off as i64, 1)),
                }
            }
            self.live[p] = false;
        }
        if let Some((byte, n)) = dead {
            out.push(Violation::DoubleFree {
                site: site.into(),
                byte,
                len: n,
            });
        }
    }

    fn expect_exactly(&self, site: &str, base: i64, len: usize, out: &mut Vec<Violation>) {
        let mut expected = vec![false; self.window];
        for off in 0..len.min(self.window) {
            expected[self.phys(base + off as i64)] = true;
        }
        let stray = self
            .live
            .iter()
            .zip(&expected)
            .filter(|(l, e)| **l && !**e)
            .count();
        if stray > 0 {
            let first = (0..self.window)
                .find(|&p| self.live[p] && !expected[p])
                .unwrap_or(0);
            out.push(Violation::Leak {
                site: site.into(),
                byte: first as i64,
                len: stray,
                detail: "bytes still live that are not part of the output".into(),
            });
        }
        let missing = self
            .live
            .iter()
            .zip(&expected)
            .filter(|(l, e)| !**l && **e)
            .count();
        if missing > 0 {
            let first = (0..self.window)
                .find(|&p| !self.live[p] && expected[p])
                .unwrap_or(0);
            out.push(Violation::Leak {
                site: site.into(),
                byte: first as i64,
                len: missing,
                detail: "output bytes never produced".into(),
            });
        }
    }
}

/// `replay_layer` over [`OracleModel`].
fn oracle_replay_layer(spec: &LayerSpec<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    if spec.window == 0 {
        out.push(Violation::OutOfBounds {
            site: spec.site.into(),
            needed: spec.in_len.max(spec.out_len),
            budget: 0,
        });
        return out;
    }
    let mut pool = OracleModel::new(spec.window);
    pool.fill(spec.site, 0, spec.in_len, &mut out);
    oracle_replay_into(
        &mut pool,
        spec.site,
        0,
        -spec.distance,
        spec.events,
        &mut out,
    );
    pool.expect_exactly(spec.site, -spec.distance, spec.out_len, &mut out);
    out
}

/// `replay_into` over [`OracleModel`].
fn oracle_replay_into(
    pool: &mut OracleModel,
    site: &str,
    in_base: i64,
    out_base: i64,
    events: &[ExecEvent],
    out: &mut Vec<Violation>,
) {
    for ev in events {
        match *ev {
            ExecEvent::Store { addr, len } => {
                if len > 0 {
                    pool.store(site, out_base + addr, len, out);
                }
            }
            ExecEvent::Free { addr, len } => {
                if len > 0 {
                    pool.free(site, in_base + addr, len, out);
                }
            }
        }
    }
}

/// `exec_distance` with one `bool` per input byte.
fn oracle_exec_distance(in_size: usize, events: impl IntoIterator<Item = ExecEvent>) -> i64 {
    let mut freed = vec![false; in_size];
    let mut frontier: usize = 0; // first unfreed input byte
    let mut d = i64::MIN;
    for ev in events {
        match ev {
            ExecEvent::Free { addr, len } => {
                assert!(addr >= 0, "free below input base");
                let start = addr as usize;
                assert!(start + len <= in_size, "free past input end");
                for (b, f) in freed.iter_mut().enumerate().skip(start).take(len) {
                    assert!(!*f, "double free at input byte {b}");
                    *f = true;
                }
                while frontier < in_size && freed[frontier] {
                    frontier += 1;
                }
            }
            ExecEvent::Store { addr, len } => {
                if len == 0 {
                    continue;
                }
                let last = addr + len as i64 - 1;
                d = d.max(last - frontier as i64 + 1);
            }
        }
    }
    if d == i64::MIN {
        -(in_size as i64)
    } else {
        d
    }
}

/// `derive_min_distance` with one `bool` per input byte.
fn oracle_derive_min_distance(in_len: usize, events: &[ExecEvent]) -> i64 {
    let mut live = vec![true; in_len];
    let mut lowest = 0usize;
    let mut d: Option<i64> = None;
    for ev in events {
        match *ev {
            ExecEvent::Free { addr, len } => {
                if addr < 0 {
                    continue;
                }
                let start = addr as usize;
                for slot in live.iter_mut().take((start + len).min(in_len)).skip(start) {
                    *slot = false;
                }
                while lowest < in_len && !live[lowest] {
                    lowest += 1;
                }
            }
            ExecEvent::Store { addr, len } => {
                if len == 0 {
                    continue;
                }
                let last = addr + len as i64 - 1;
                let need = last - lowest as i64 + 1;
                d = Some(d.map_or(need, |v| v.max(need)));
            }
        }
    }
    d.unwrap_or(-(in_len as i64))
}

/// `solver_min_distance` with one `bool` per input byte.
fn oracle_solver_min_distance(in_len: usize, events: &[ExecEvent]) -> i64 {
    let mut ev = Vec::new();
    let mut freed = vec![false; in_len];
    let mut any_store = false;
    for e in events {
        match *e {
            ExecEvent::Store { addr, len } => {
                if len > 0 {
                    any_store = true;
                    ev.push(Event::Write(addr + len as i64 - 1));
                }
            }
            ExecEvent::Free { addr, len } => {
                if addr >= 0 {
                    let start = addr as usize;
                    for slot in freed.iter_mut().take((start + len).min(in_len)).skip(start) {
                        *slot = true;
                    }
                }
                ev.push(Event::Read(addr));
            }
        }
    }
    if !any_store {
        return -(in_len as i64);
    }
    for (b, f) in freed.iter().enumerate() {
        if !*f {
            ev.push(Event::Read(b as i64));
        }
    }
    ev.push(Event::Read(in_len as i64));
    match min_distance_events(ev) {
        Some(d_star) => d_star + 1,
        None => -(in_len as i64),
    }
}

// ---- generators ---------------------------------------------------------

/// One trace event: free when `kind == 0`, else store.
fn event(kind: u8, addr: i64, len: usize) -> ExecEvent {
    if kind == 0 {
        ExecEvent::Free { addr, len }
    } else {
        ExecEvent::Store { addr, len }
    }
}

/// A valid trace over `in_len` input bytes: the input cut into chunks
/// freed in a seeded order, each free followed by random stores.
fn valid_trace(
    in_len: usize,
    cuts: &[usize],
    stores: &[(i64, usize)],
    seed: u64,
) -> Vec<ExecEvent> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (in_len + 1)).collect();
    bounds.extend([0, in_len]);
    bounds.sort_unstable();
    bounds.dedup();
    let mut chunks: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
    // Seeded Fisher-Yates (SplitMix64 steps).
    let mut state = seed;
    for i in (1..chunks.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        chunks.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    let mut stores = stores.iter();
    let mut events = Vec::new();
    for &(addr, len) in &chunks {
        events.push(ExecEvent::Free {
            addr: addr as i64,
            len,
        });
        if let Some(&(a, n)) = stores.next() {
            events.push(ExecEvent::Store { addr: a, len: n });
        }
    }
    events.extend(stores.map(|&(addr, len)| ExecEvent::Store { addr, len }));
    events
}

/// The panic message of `f`, or its value.
fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    })
}

// ---- the pool -----------------------------------------------------------

/// The pool against its oracle. Under the `shadow` feature the RAM shadow
/// map adds errors of its own, which the oracle does not model;
/// `shadow::ram_shadow_matches_oracle` covers that map.
#[cfg(not(feature = "shadow"))]
mod pool {
    use super::*;
    use proptest::TestCaseError;
    use vmcu::vmcu_pool::{PoolError, SegmentPool};
    use vmcu::vmcu_sim::{Device, Machine};

    /// `SegmentPool`'s liveness with one `bool` per byte. The one change from
    /// the per-byte original: a `DoubleFree` in the wrapped span of a free
    /// names its logical address counting the first span's length, as
    /// `load` and `store` always did.
    struct OraclePool {
        base: usize,
        len: usize,
        live: Vec<bool>,
        live_count: usize,
        peak_live: usize,
        checked: bool,
    }

    impl OraclePool {
        fn new(base: usize, len: usize) -> Self {
            Self {
                base,
                len,
                live: vec![false; len],
                live_count: 0,
                peak_live: 0,
                checked: true,
            }
        }

        fn phys(&self, logical: i64) -> usize {
            logical.rem_euclid(self.len as i64) as usize
        }

        fn set_live(&mut self, phys: usize, live: bool) {
            if self.live[phys] != live {
                self.live[phys] = live;
                if live {
                    self.live_count += 1;
                    self.peak_live = self.peak_live.max(self.live_count);
                } else {
                    self.live_count -= 1;
                }
            }
        }

        fn spans(&self, logical: i64, len: usize) -> [(usize, usize); 2] {
            assert!(
                len <= self.len,
                "access of {len} bytes exceeds pool window {}",
                self.len
            );
            let start = self.phys(logical);
            let first = len.min(self.len - start);
            [(start, first), (0, len - first)]
        }

        fn load(&mut self, m: &mut Machine, logical: i64, dst: &mut [u8]) -> Result<(), PoolError> {
            m.charge_modulo(1);
            let mut off = 0usize;
            for (phys, n) in self.spans(logical, dst.len()) {
                if n == 0 {
                    continue;
                }
                if self.checked {
                    for p in phys..phys + n {
                        if !self.live[p] {
                            return Err(PoolError::DeadRead {
                                logical: logical + (off + (p - phys)) as i64,
                                phys: p,
                            });
                        }
                    }
                }
                m.ram_load(self.base + phys, &mut dst[off..off + n])?;
                off += n;
            }
            Ok(())
        }

        fn store(&mut self, m: &mut Machine, src: &[u8], logical: i64) -> Result<(), PoolError> {
            m.charge_modulo(1);
            let mut off = 0usize;
            for (phys, n) in self.spans(logical, src.len()) {
                if n == 0 {
                    continue;
                }
                if self.checked {
                    for p in phys..phys + n {
                        if self.live[p] {
                            return Err(PoolError::Clobber {
                                logical: logical + (off + (p - phys)) as i64,
                                phys: p,
                            });
                        }
                    }
                }
                m.ram_store(self.base + phys, &src[off..off + n])?;
                for p in phys..phys + n {
                    self.set_live(p, true);
                }
                off += n;
            }
            Ok(())
        }

        fn free(&mut self, logical: i64, len: usize) -> Result<(), PoolError> {
            let mut off = 0usize;
            for (phys, n) in self.spans(logical, len) {
                for p in phys..phys + n {
                    if self.checked && !self.live[p] {
                        return Err(PoolError::DoubleFree {
                            logical: logical + (off + (p - phys)) as i64,
                        });
                    }
                    self.set_live(p, false);
                }
                off += n;
            }
            Ok(())
        }

        fn host_fill_live(
            &mut self,
            m: &mut Machine,
            logical: i64,
            data: &[u8],
        ) -> Result<(), PoolError> {
            let mut off = 0usize;
            for (phys, n) in self.spans(logical, data.len()) {
                if n == 0 {
                    continue;
                }
                m.host_write_ram(self.base + phys, &data[off..off + n])?;
                for p in phys..phys + n {
                    self.set_live(p, true);
                }
                off += n;
            }
            Ok(())
        }
    }

    /// One pool operation: kind (store, load, free, fill), logical address,
    /// and a raw length reduced modulo `window + 1`.
    type PoolOp = (u8, i64, usize);

    fn pool_ops() -> impl Strategy<Value = (usize, Vec<PoolOp>)> {
        (
            1usize..=200,
            prop::collection::vec((0u8..4, -450i64..=450, 0usize..=200), 1..=60),
        )
    }

    /// Runs `ops` through a `SegmentPool` and the oracle side by side, each
    /// on its own machine, comparing every result and the state after it.
    fn pool_matches_oracle(
        window: usize,
        ops: &[PoolOp],
        checked: bool,
    ) -> Result<(), TestCaseError> {
        let device = Device::stm32_f411re();
        let base = 24;
        let (mut m, mut o) = (Machine::new(device.clone()), Machine::new(device));
        let mut pool = SegmentPool::new(&m, base, window).unwrap();
        pool.set_checked(checked);
        let mut oracle = OraclePool::new(base, window);
        oracle.checked = checked;
        for (i, &(kind, addr, raw_len)) in ops.iter().enumerate() {
            let len = raw_len % (window + 1);
            let data: Vec<u8> = (0..len).map(|b| (i * 31 + b) as u8).collect();
            let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
            let (a, b) = match kind {
                0 => (
                    pool.store(&mut m, &data, addr),
                    oracle.store(&mut o, &data, addr),
                ),
                1 => (
                    pool.load(&mut m, addr, &mut got),
                    oracle.load(&mut o, addr, &mut want),
                ),
                2 => (pool.free(addr, len), oracle.free(addr, len)),
                _ => (
                    pool.host_fill_live(&mut m, addr, &data),
                    oracle.host_fill_live(&mut o, addr, &data),
                ),
            };
            prop_assert_eq!(
                (
                    i,
                    a,
                    got,
                    pool.live_bytes(),
                    pool.peak_live_bytes(),
                    m.counters
                ),
                (i, b, want, oracle.live_count, oracle.peak_live, o.counters)
            );
            prop_assert_eq!(
                (i, m.host_read_ram(base, window).unwrap()),
                (i, o.host_read_ram(base, window).unwrap())
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Checked mode: clobbers, dead reads and double frees surface with
        /// the same address, after the same partial side effects.
        #[test]
        fn checked_pool_matches_oracle(case in pool_ops()) {
            pool_matches_oracle(case.0, &case.1, true)?;
        }

        /// Unchecked mode: every access succeeds and liveness still counts.
        #[test]
        fn unchecked_pool_matches_oracle(case in pool_ops()) {
            pool_matches_oracle(case.0, &case.1, false)?;
        }

        /// Frees of a whole wrapping window after streaming through it: a
        /// dense pattern that ends every span on or near a word edge.
        #[test]
        fn streaming_pool_matches_oracle(window in 60usize..=140, step in 1usize..=70, rounds in 1usize..=12) {
            let step = step.min(window);
            let mut ops = Vec::new();
            for r in 0..rounds as i64 {
                let at = r * step as i64;
                ops.extend([(0u8, at, step), (1, at, step), (2, at, step)]);
            }
            ops.push((2, 0, window));
            pool_matches_oracle(window, &ops, true)?;
        }
    }
}

// ---- the shadow map -----------------------------------------------------

#[cfg(feature = "shadow")]
mod shadow {
    use super::*;
    use vmcu::vmcu_sim::{MemError, Ram};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Ram`'s shadow map against one `bool` per byte: marks clip at the
        /// end of RAM, and a store over live bytes reports the first one and
        /// how many there are.
        #[test]
        fn ram_shadow_matches_oracle(
            ops in prop::collection::vec((0u8..3, 0usize..=300, 0usize..=150), 1..=60),
        ) {
            const CAP: usize = 260;
            let mut ram = Ram::new(CAP);
            let mut live = vec![false; CAP];
            for (i, &(kind, addr, len)) in ops.iter().enumerate() {
                match kind {
                    0 | 1 => {
                        let end = (addr + len).min(CAP);
                        live[addr.min(end)..end].fill(kind == 0);
                        if kind == 0 {
                            ram.shadow_mark_live(addr, len);
                        } else {
                            ram.shadow_mark_dead(addr, len);
                        }
                    }
                    _ => {
                        let want = if addr + len > CAP {
                            Err(MemError::RamOutOfRange { addr, len, capacity: CAP })
                        } else {
                            let span = &live[addr..addr + len];
                            match span.iter().position(|&l| l) {
                                Some(p) => Err(MemError::ShadowClobber {
                                    addr: addr + p,
                                    len: span.iter().filter(|&&l| l).count(),
                                }),
                                None => Ok(()),
                            }
                        };
                        prop_assert_eq!((i, ram.write(addr, &vec![7; len])), (i, want));
                    }
                }
                prop_assert_eq!(
                    (i, ram.shadow_live_bytes()),
                    (i, live.iter().filter(|&&l| l).count())
                );
            }
        }
    }
}

// ---- the replay model ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PoolModel` reports the same violations, event by event, including
    /// overlong accesses and the leak check at arbitrary bases.
    #[test]
    fn pool_model_matches_oracle(
        window in 1usize..=200,
        ops in prop::collection::vec((0u8..4, -450i64..=450, 0usize..=210), 1..=40),
    ) {
        let mut model = PoolModel::new(window);
        let mut oracle = OracleModel::new(window);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, &(kind, base, raw)) in ops.iter().enumerate() {
            // Mostly in-window lengths; a few overlong ones.
            let len = if raw > 200 { window + raw - 200 } else { raw % (window + 1) };
            match kind {
                0 => {
                    model.store("s", base, len, &mut got);
                    oracle.store("s", base, len, &mut want);
                }
                1 => {
                    model.free("f", base, len, &mut got);
                    oracle.free("f", base, len, &mut want);
                }
                2 => {
                    model.fill("i", base, len, &mut got);
                    oracle.fill("i", base, len, &mut want);
                }
                _ => {
                    model.expect_exactly("x", base, len, &mut got);
                    oracle.expect_exactly("x", base, len, &mut want);
                }
            }
            prop_assert_eq!((i, &got, model.live_bytes()), (i, &want, oracle.live_bytes()));
        }
    }

    /// `replay_layer` over random, often malformed, traces.
    #[test]
    fn replay_layer_matches_oracle(
        sizes in (0usize..=150, 0usize..=150, -80i64..=80, 0usize..=260),
        raw in prop::collection::vec((0u8..3, -40i64..=200, 0usize..=90), 0..=40),
    ) {
        let (in_len, out_len, distance, window) = sizes;
        let events: Vec<ExecEvent> = raw.iter().map(|&(k, a, n)| event(k, a, n)).collect();
        let spec = LayerSpec { site: "L", in_len, out_len, distance, window, events: &events };
        prop_assert_eq!(replay_layer(&spec), oracle_replay_layer(&spec));
    }
}

// ---- the distance functions ---------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid traces: every input byte freed once, in seeded chunk order,
    /// with stores in between.
    #[test]
    fn distances_match_oracles_on_valid_traces(
        in_len in 1usize..=300,
        cuts in prop::collection::vec(0usize..=300, 0..=12),
        stores in prop::collection::vec((-100i64..=400, 0usize..=80), 0..=16),
        seed in 0u64..1_000_000,
    ) {
        let events = valid_trace(in_len, &cuts, &stores, seed);
        let want = oracle_exec_distance(in_len, events.iter().copied());
        prop_assert_eq!(exec_distance(in_len, events.iter().copied()), want);
        prop_assert_eq!(derive_min_distance(in_len, &events), oracle_derive_min_distance(in_len, &events));
        prop_assert_eq!(solver_min_distance(in_len, &events), oracle_solver_min_distance(in_len, &events));
    }

    /// Malformed frees (negative, past the end, overlapping): the replay
    /// bounds skip or clip them as before, and `exec_distance` panics
    /// with the same message.
    #[test]
    fn distances_match_oracles_on_malformed_traces(
        in_len in 0usize..=200,
        raw in prop::collection::vec((0u8..2, -30i64..=230, 0usize..=70), 0..=24),
    ) {
        let events: Vec<ExecEvent> = raw.iter().map(|&(k, a, n)| event(k, a, n)).collect();
        prop_assert_eq!(derive_min_distance(in_len, &events), oracle_derive_min_distance(in_len, &events));
        prop_assert_eq!(solver_min_distance(in_len, &events), oracle_solver_min_distance(in_len, &events));
        prop_assert_eq!(
            outcome(|| exec_distance(in_len, events.iter().copied())),
            outcome(|| oracle_exec_distance(in_len, events.iter().copied()))
        );
    }
}
