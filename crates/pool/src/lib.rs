//! # vmcu-pool — the virtualized circular memory pool
//!
//! vMCU's central idea (§3–§4): treat the MCU's scarce SRAM as a circular
//! buffer of segments. Kernels address the pool with *logical* addresses
//! that grow without bound; a modulo operation (the boundary check every
//! vMCU kernel performs on `RAMLoad`/`RAMStore`) wraps them into the
//! physical window. Output segments are stored into slots whose input
//! segments have already been freed, which is what lets input and output
//! tensors overlap.
//!
//! [`SegmentPool`] tracks liveness at byte granularity in a word-packed
//! [`ByteSet`]: every access is split into at most two physical spans
//! (one modulo), and each span is checked and marked whole. The pool
//! turns any violation — a store clobbering live data, a read of dead
//! bytes, a double free — into a typed [`PoolError`] instead of a silent
//! wrong answer. The planners' minimality claims are validated
//! empirically against this: a kernel runs clean at its planned offset,
//! and where that offset is tight (`vmcu_kernels::trace`) one byte closer
//! clobbers.
//!
//! # Examples
//!
//! ```
//! use vmcu_pool::SegmentPool;
//! use vmcu_sim::{Device, Machine};
//!
//! let mut m = Machine::new(Device::stm32_f411re());
//! // An 8-byte pool holding a 6-byte input that we stream over.
//! let mut pool = SegmentPool::new(&m, 0, 8).unwrap();
//! pool.host_fill_live(&mut m, 0, &[1, 2, 3, 4, 5, 6]).unwrap();
//! let mut reg = [0u8; 2];
//! pool.load(&mut m, 0, &mut reg).unwrap();   // read segment 0
//! pool.free(&mut m, 0, 2).unwrap();          // retire it
//! pool.store(&mut m, &reg.clone(), 6).unwrap(); // reuse the slot via wrap
//! assert_eq!(pool.live_bytes(), 6);
//! ```

use std::fmt;
use vmcu_sim::{ByteSet, CostModel, Counters, Machine, MemError};

/// A pool-access failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolError {
    /// A store targeted a byte that is still live (the silent-corruption
    /// case of §2.4, surfaced as an error).
    Clobber {
        /// Logical byte address of the store.
        logical: i64,
        /// Physical offset within the pool window.
        phys: usize,
    },
    /// A load touched a byte that is not live (reading garbage).
    DeadRead {
        /// Logical byte address of the load.
        logical: i64,
        /// Physical offset within the pool window.
        phys: usize,
    },
    /// A free targeted a byte that was already free.
    DoubleFree {
        /// Logical byte address of the first byte that was already free.
        logical: i64,
    },
    /// The pool window does not fit in device RAM.
    WindowOutOfRam {
        /// Window base address.
        base: usize,
        /// Window length in bytes.
        len: usize,
        /// RAM capacity.
        ram: usize,
    },
    /// Underlying memory error.
    Mem(MemError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Clobber { logical, phys } => write!(
                f,
                "store at logical {logical} would clobber live byte at pool offset {phys}"
            ),
            PoolError::DeadRead { logical, phys } => write!(
                f,
                "load at logical {logical} reads dead byte at pool offset {phys}"
            ),
            PoolError::DoubleFree { logical } => {
                write!(f, "double free at logical address {logical}")
            }
            PoolError::WindowOutOfRam { base, len, ram } => write!(
                f,
                "pool window [{base}, {}) exceeds RAM capacity {ram}",
                base + len
            ),
            PoolError::Mem(e) => write!(f, "pool memory error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for PoolError {
    fn from(e: MemError) -> Self {
        PoolError::Mem(e)
    }
}

/// The circular segment pool over a RAM window.
///
/// The pool mirrors its byte liveness into the machine's RAM shadow map
/// ([`vmcu_sim::Ram`]): stores and host fills mark bytes live, frees mark
/// them dead at once, and `Ram::write` itself rejects any store over a
/// live byte. This is the memory-layer backstop: it catches raw
/// `Machine` stores that bypass the pool, such as a fused chain's row
/// rings or a workspace.
#[derive(Debug, Clone)]
pub struct SegmentPool {
    base: usize,
    len: usize,
    live: ByteSet,
    live_count: usize,
    peak_live: usize,
    /// Whether the shadow map for this window has been claimed (reset)
    /// yet. A fresh pool owns its window outright, so stale liveness from
    /// a previous pool over the same bytes is cleared on first use.
    shadow_claimed: bool,
}

impl SegmentPool {
    /// Creates a pool over RAM bytes `[base, base + len)`. Liveness is
    /// tracked per byte; a kernel's segment size only shapes the
    /// accesses it makes and what they are charged.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::WindowOutOfRam`] when the window exceeds the
    /// machine's RAM.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(m: &Machine, base: usize, len: usize) -> Result<Self, PoolError> {
        assert!(len > 0, "pool window must be non-empty");
        if base + len > m.ram.capacity() {
            return Err(PoolError::WindowOutOfRam {
                base,
                len,
                ram: m.ram.capacity(),
            });
        }
        Ok(Self {
            base,
            len,
            live: ByteSet::new(len),
            live_count: 0,
            peak_live: 0,
            shadow_claimed: false,
        })
    }

    /// Claims the window in the RAM shadow map on first use, before a
    /// write-side pool operation touches memory. A free needs no claim:
    /// it retires only bytes a store or fill has made live.
    fn claim_shadow(&mut self, m: &mut Machine) {
        if !self.shadow_claimed {
            m.ram.shadow_mark_dead(self.base, self.len);
            self.shadow_claimed = true;
        }
    }

    /// Currently live bytes.
    pub fn live_bytes(&self) -> usize {
        self.live_count
    }

    /// High-water mark of live bytes (empirical footprint).
    pub fn peak_live_bytes(&self) -> usize {
        self.peak_live
    }

    /// Physical offset of a logical address (the modulo boundary check).
    pub fn phys(&self, logical: i64) -> usize {
        logical.rem_euclid(self.len as i64) as usize
    }

    /// Marks the physical span `[phys, phys + n)` live.
    fn mark_live(&mut self, phys: usize, n: usize) {
        self.live_count += self.live.set(phys, n, true);
        self.peak_live = self.peak_live.max(self.live_count);
    }

    /// The first byte of the span `[phys, phys + n)` whose liveness is
    /// `live`, as `(logical, phys)`; `off` is the span's offset into an
    /// access that starts at `logical`.
    fn offending(
        &self,
        logical: i64,
        off: usize,
        phys: usize,
        n: usize,
        live: bool,
    ) -> Option<(i64, usize)> {
        let p = self.live.first(phys, n, live)?;
        Some((logical + (off + p - phys) as i64, p))
    }

    /// Splits a possibly-wrapping range into at most two physical spans.
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

    /// Copies the access's physical spans into `dst` in logical order,
    /// checking each whole before it is read; returns how many bytes were
    /// copied before the first span that failed.
    fn copy_out(
        &self,
        m: &Machine,
        logical: i64,
        dst: &mut [u8],
    ) -> (usize, Result<(), PoolError>) {
        let mut off = 0usize;
        for (phys, n) in self.spans(logical, dst.len()) {
            if n == 0 {
                continue;
            }
            if let Some((logical, phys)) = self.offending(logical, off, phys, n, false) {
                return (off, Err(PoolError::DeadRead { logical, phys }));
            }
            match m.ram.read(self.base + phys, n) {
                Ok(bytes) => dst[off..off + n].copy_from_slice(bytes),
                Err(e) => return (off, Err(e.into())),
            }
            off += n;
        }
        (off, Ok(()))
    }

    /// Writes `src`'s physical spans in logical order, checking each
    /// whole before it is written and marking it live after; returns how
    /// many bytes were written before the first span that failed.
    fn copy_in(
        &mut self,
        m: &mut Machine,
        src: &[u8],
        logical: i64,
    ) -> (usize, Result<(), PoolError>) {
        self.claim_shadow(m);
        let mut off = 0usize;
        for (phys, n) in self.spans(logical, src.len()) {
            if n == 0 {
                continue;
            }
            if let Some((logical, phys)) = self.offending(logical, off, phys, n, true) {
                return (off, Err(PoolError::Clobber { logical, phys }));
            }
            if let Err(e) = m.ram.write(self.base + phys, &src[off..off + n]) {
                return (off, Err(e.into()));
            }
            m.ram.shadow_mark_live(self.base + phys, n);
            self.mark_live(phys, n);
            off += n;
        }
        (off, Ok(()))
    }

    // ---- costed kernel operations -----------------------------------------

    /// The modelled price of one `RAMLoad` of `len` bytes at `logical`:
    /// one modulo, plus one RAM load per physical span of its wrap split.
    /// [`load`](Self::load) charges exactly this; a kernel that moves a
    /// whole pixel with [`read_span`](Self::read_span) adds it per
    /// segment access it models.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the window, like [`load`](Self::load).
    pub fn price_load(&self, cost: &CostModel, logical: i64, len: usize) -> Counters {
        self.price(cost, logical, len, Counters::charge_ram_load)
    }

    /// The modelled price of `taps` consecutive `len`-byte `RAMLoad`s
    /// from `logical` on: the sum of their [`price_load`](Self::price_load)s,
    /// each at its own wrap split, priced once for all of them when the
    /// run does not wrap the window. A kernel that reads a row run of
    /// taps with one [`read_span`](Self::read_span) charges its per-tap
    /// loads with this.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the window, like [`load`](Self::load).
    pub fn price_loads(&self, cost: &CostModel, logical: i64, taps: usize, len: usize) -> Counters {
        if self.phys(logical) + taps * len <= self.len {
            return self.price_load(cost, logical, len) * taps as u64;
        }
        let mut c = Counters::new();
        for t in 0..taps {
            c += self.price_load(cost, logical + (t * len) as i64, len);
        }
        c
    }

    /// The modelled price of one `RAMStore` of `len` bytes at `logical`:
    /// one modulo, plus one RAM store per physical span of its wrap split
    /// (what [`store`](Self::store) charges).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the window, like [`store`](Self::store).
    pub fn price_store(&self, cost: &CostModel, logical: i64, len: usize) -> Counters {
        self.price(cost, logical, len, Counters::charge_ram_store)
    }

    fn price(
        &self,
        cost: &CostModel,
        logical: i64,
        len: usize,
        span: fn(&mut Counters, &CostModel, u64),
    ) -> Counters {
        let mut c = Counters::new();
        c.charge_modulo(cost, 1);
        for (_, n) in self.spans(logical, len) {
            if n > 0 {
                span(&mut c, cost, n as u64);
            }
        }
        c
    }

    /// `RAMLoad` through the pool: reads `dst.len()` logical bytes starting
    /// at `logical`, charging [`price_load`](Self::price_load). A load
    /// that fails in its wrapped span keeps (and is charged for) the
    /// first span.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::DeadRead`] when any byte is not live, or a
    /// memory error from the machine.
    pub fn load(&mut self, m: &mut Machine, logical: i64, dst: &mut [u8]) -> Result<(), PoolError> {
        let (done, res) = self.copy_out(m, logical, dst);
        m.counters += self.price_load(&m.device.cost, logical, done);
        res
    }

    /// `RAMStore` through the pool: writes `src` at `logical`, charging
    /// [`price_store`](Self::price_store), and marks the bytes live. A
    /// store that fails in its wrapped span keeps (and is charged for)
    /// the first span.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Clobber`] when any target byte is still live,
    /// or a memory error from the machine.
    pub fn store(&mut self, m: &mut Machine, src: &[u8], logical: i64) -> Result<(), PoolError> {
        let (done, res) = self.copy_in(m, src, logical);
        m.counters += self.price_store(&m.device.cost, logical, done);
        res
    }

    // ---- uncharged whole-span operations ------------------------------------

    /// The checked read of a [`load`](Self::load), uncharged: the
    /// `scratch.len()` logical bytes at `logical`, borrowed straight from
    /// RAM when they do not wrap the window and copied into `scratch`
    /// when they do. A kernel that reads a whole pixel at once charges
    /// the segment loads it models with [`price_load`](Self::price_load).
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError::DeadRead`] naming the first dead byte in
    /// logical order, as `load` would.
    ///
    /// # Panics
    ///
    /// Panics if the read exceeds the window, like [`load`](Self::load).
    pub fn read_span<'a>(
        &self,
        m: &'a Machine,
        logical: i64,
        scratch: &'a mut [u8],
    ) -> Result<&'a [u8], PoolError> {
        let len = scratch.len();
        match self.spans(logical, len) {
            [(phys, n), (_, 0)] => {
                if let Some((logical, phys)) = self.offending(logical, 0, phys, n, false) {
                    return Err(PoolError::DeadRead { logical, phys });
                }
                Ok(m.ram.read(self.base + phys, n)?)
            }
            _ => {
                self.copy_out(m, logical, scratch).1?;
                Ok(scratch)
            }
        }
    }

    /// The checked store of a [`store`](Self::store), uncharged: writes
    /// `src` at `logical` span by span, marks it live (peak, shadow map
    /// and RAM write mark included) and reports the first live byte in
    /// logical order as the [`PoolError::Clobber`] `store` would. A store
    /// longer than the window is written window by window, so its wrap
    /// onto its own first bytes is that clobber. A kernel that stores a
    /// whole pixel at once charges the segment stores it models with
    /// [`price_store`](Self::price_store).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Clobber`] when any target byte is still live
    /// (the bytes before its span stay written), or a memory error from
    /// the machine.
    pub fn store_span(
        &mut self,
        m: &mut Machine,
        src: &[u8],
        logical: i64,
    ) -> Result<(), PoolError> {
        for (i, part) in src.chunks(self.len).enumerate() {
            self.copy_in(m, part, logical + (i * self.len) as i64).1?;
        }
        Ok(())
    }

    /// `RAMFree`: retires `len` logical bytes starting at `logical`
    /// (bookkeeping only — on hardware this is a pointer bump, so no cost
    /// is charged).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::DoubleFree`] when any byte is already free.
    /// The bytes before the first free one are retired, in the shadow map
    /// too, before the error returns.
    pub fn free(&mut self, m: &mut Machine, logical: i64, len: usize) -> Result<(), PoolError> {
        let mut off = 0usize;
        for (phys, n) in self.spans(logical, len) {
            let dead = self.offending(logical, off, phys, n, false);
            let retired = dead.map_or(n, |(_, p)| p - phys);
            self.live_count -= self.live.set(phys, retired, false);
            m.ram.shadow_mark_dead(self.base + phys, retired);
            if let Some((logical, _)) = dead {
                return Err(PoolError::DoubleFree { logical });
            }
            off += n;
        }
        Ok(())
    }

    // ---- host-side (uncosted) setup ---------------------------------------

    /// Writes input data at `logical` and marks it live without charging
    /// cycles (test-bench input staging).
    ///
    /// # Errors
    ///
    /// Returns a memory error on RAM failures.
    pub fn host_fill_live(
        &mut self,
        m: &mut Machine,
        logical: i64,
        data: &[u8],
    ) -> Result<(), PoolError> {
        self.claim_shadow(m);
        let mut off = 0usize;
        for (phys, n) in self.spans(logical, data.len()) {
            if n == 0 {
                continue;
            }
            m.host_write_ram(self.base + phys, &data[off..off + n])?;
            m.ram.shadow_mark_live(self.base + phys, n);
            self.mark_live(phys, n);
            off += n;
        }
        Ok(())
    }

    /// Reads back `len` bytes at `logical` without charging cycles
    /// (test-bench output readback).
    ///
    /// # Errors
    ///
    /// Returns a memory error on RAM failures.
    pub fn host_read(&self, m: &Machine, logical: i64, len: usize) -> Result<Vec<u8>, PoolError> {
        let mut out = Vec::with_capacity(len);
        for (phys, n) in self.spans(logical, len) {
            if n == 0 {
                continue;
            }
            out.extend_from_slice(&m.host_read_ram(self.base + phys, n)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_sim::Device;

    fn setup(pool_len: usize) -> (Machine, SegmentPool) {
        let m = Machine::new(Device::stm32_f411re());
        let pool = SegmentPool::new(&m, 0, pool_len).unwrap();
        (m, pool)
    }

    #[test]
    fn modulo_addressing_wraps() {
        let (_, pool) = setup(10);
        assert_eq!(pool.phys(0), 0);
        assert_eq!(pool.phys(10), 0);
        assert_eq!(pool.phys(13), 3);
        assert_eq!(pool.phys(-1), 9);
    }

    #[test]
    fn load_store_round_trip_and_costs() {
        let (mut m, mut pool) = setup(16);
        pool.store(&mut m, &[9, 8, 7, 6], 4).unwrap();
        let mut buf = [0u8; 4];
        pool.load(&mut m, 4, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7, 6]);
        assert_eq!(m.counters.modulo_ops, 2);
        assert_eq!(m.counters.ram_write_bytes, 4);
    }

    #[test]
    fn a_run_of_loads_prices_each_at_its_own_wrap_split() {
        let (m, pool) = setup(10);
        let cost = m.device.cost;
        for logical in [-13, -3, 0, 1, 4, 7, 9, 23] {
            for taps in 0..=3 {
                for len in 0..=3 {
                    let mut each = Counters::new();
                    for t in 0..taps {
                        each += pool.price_load(&cost, logical + (t * len) as i64, len);
                    }
                    assert_eq!(
                        pool.price_loads(&cost, logical, taps, len),
                        each,
                        "logical {logical} taps {taps} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn wrapping_store_splits_across_boundary() {
        let (mut m, mut pool) = setup(8);
        pool.store(&mut m, &[1, 2, 3, 4], 6).unwrap(); // bytes 6,7,0,1
        assert_eq!(m.host_read_ram(6, 2).unwrap(), vec![1, 2]);
        assert_eq!(m.host_read_ram(0, 2).unwrap(), vec![3, 4]);
        let mut buf = [0u8; 4];
        pool.load(&mut m, 6, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn clobber_is_detected() {
        let (mut m, mut pool) = setup(8);
        pool.store(&mut m, &[1; 4], 0).unwrap();
        // Same physical slot via wrap-around: logical 8 maps to offset 0.
        let err = pool.store(&mut m, &[2; 4], 8).unwrap_err();
        assert!(matches!(err, PoolError::Clobber { phys: 0, .. }));
    }

    #[test]
    fn free_then_reuse_is_legal() {
        let (mut m, mut pool) = setup(8);
        pool.store(&mut m, &[1; 4], 0).unwrap();
        pool.free(&mut m, 0, 4).unwrap();
        pool.store(&mut m, &[2; 4], 8).unwrap(); // same slot, now free
        assert_eq!(pool.live_bytes(), 4);
        assert_eq!(pool.peak_live_bytes(), 4);
    }

    #[test]
    fn dead_read_is_detected() {
        let (mut m, mut pool) = setup(8);
        let mut buf = [0u8; 2];
        let err = pool.load(&mut m, 0, &mut buf).unwrap_err();
        assert!(matches!(err, PoolError::DeadRead { .. }));
    }

    #[test]
    fn double_free_is_detected() {
        let (mut m, mut pool) = setup(8);
        pool.store(&mut m, &[1; 4], 0).unwrap();
        pool.free(&mut m, 0, 4).unwrap();
        assert!(matches!(
            pool.free(&mut m, 0, 4),
            Err(PoolError::DoubleFree { .. })
        ));
        // A free that runs past the live bytes retires them before the
        // error, in the RAM shadow map too, so a store over them is legal.
        pool.store(&mut m, &[2; 4], 0).unwrap();
        assert_eq!(
            pool.free(&mut m, 0, 6),
            Err(PoolError::DoubleFree { logical: 4 })
        );
        assert_eq!(pool.live_bytes(), 0);
        pool.store(&mut m, &[3; 4], 0).unwrap();
    }

    /// A free that wraps the window names the first dead byte by its
    /// logical address, counting the first span's length like `load`.
    #[test]
    fn wrapping_double_free_reports_the_dead_byte() {
        let (mut m, mut pool) = setup(8);
        pool.host_fill_live(&mut m, 4, &[1; 4]).unwrap(); // phys 4..8
        let mut buf = [0u8; 4];
        assert_eq!(
            pool.load(&mut m, 6, &mut buf),
            Err(PoolError::DeadRead {
                logical: 8,
                phys: 0
            })
        );
        assert_eq!(
            pool.free(&mut m, 6, 4),
            Err(PoolError::DoubleFree { logical: 8 })
        );
        // The live first span (logical 6, 7) was retired before the error.
        assert_eq!(pool.live_bytes(), 2);
    }

    /// A fresh pool claims its window: stale liveness left by a previous
    /// pool over the same bytes does not poison the new one.
    #[test]
    fn shadow_fresh_pool_claims_window() {
        let (mut m, mut pool) = setup(8);
        pool.store(&mut m, &[1; 4], 0).unwrap();
        drop(pool);
        let mut pool2 = SegmentPool::new(&m, 0, 8).unwrap();
        pool2.store(&mut m, &[2; 4], 0).unwrap();
        assert_eq!(m.ram.shadow_live_bytes(), 4);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let (mut m, mut pool) = setup(16);
        pool.store(&mut m, &[1; 4], 0).unwrap();
        pool.store(&mut m, &[1; 4], 4).unwrap();
        pool.free(&mut m, 0, 8).unwrap();
        pool.store(&mut m, &[1; 4], 8).unwrap();
        assert_eq!(pool.live_bytes(), 4);
        assert_eq!(pool.peak_live_bytes(), 8);
    }

    #[test]
    fn host_fill_and_read_are_free_of_cost() {
        let (mut m, mut pool) = setup(8);
        pool.host_fill_live(&mut m, 6, &[1, 2, 3, 4]).unwrap(); // wraps
        assert_eq!(pool.host_read(&m, 6, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(m.counters.cycles, 0);
        assert_eq!(pool.live_bytes(), 4);
    }

    #[test]
    fn window_must_fit_in_ram() {
        let m = Machine::new(Device::stm32_f411re());
        let cap = m.ram.capacity();
        assert!(matches!(
            SegmentPool::new(&m, cap - 4, 8),
            Err(PoolError::WindowOutOfRam { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds pool window")]
    fn oversized_access_panics() {
        let (mut m, mut pool) = setup(8);
        let mut buf = [0u8; 16];
        let _ = pool.load(&mut m, 0, &mut buf);
    }

    #[test]
    fn error_display_mentions_addresses() {
        let e = PoolError::Clobber {
            logical: 42,
            phys: 2,
        };
        assert!(e.to_string().contains("42"));
    }
}
