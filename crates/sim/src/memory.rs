//! Simulated MCU memories.
//!
//! An MCU has no MMU and no OS (§2.1): programs address raw SRAM and
//! execute/read constants from Flash. [`Ram`] and [`Flash`] are
//! bounds-checked byte arrays; all higher layers (segment pool, kernels)
//! go through them, so out-of-range addressing is a typed error rather
//! than silent corruption.

use crate::ByteSet;
use std::fmt;

/// Memory access failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// Access past the end of RAM.
    RamOutOfRange {
        /// First byte of the access.
        addr: usize,
        /// Length of the access.
        len: usize,
        /// RAM capacity.
        capacity: usize,
    },
    /// Access past the end of Flash.
    FlashOutOfRange {
        /// First byte of the access.
        addr: usize,
        /// Length of the access.
        len: usize,
        /// Flash capacity.
        capacity: usize,
    },
    /// A store hit a byte that [`Ram`]'s shadow liveness map says is
    /// still live.
    ShadowClobber {
        /// First live byte the store would overwrite.
        addr: usize,
        /// Number of live bytes inside the store range.
        len: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::RamOutOfRange {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "RAM access [{addr}, {}) exceeds capacity {capacity}",
                addr + len
            ),
            MemError::FlashOutOfRange {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "flash access [{addr}, {}) exceeds capacity {capacity}",
                addr + len
            ),
            MemError::ShadowClobber { addr, len } => write!(
                f,
                "shadow liveness: store overwrites {len} live byte(s) starting at RAM {addr}"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Simulated SRAM.
///
/// RAM carries a shadow byte-liveness map (a word-packed
/// [`ByteSet`]) mirrored from the segment pool: every store first checks
/// that no target byte is still live, so an executor that drifts from its
/// certified plan (double store, store before free, a raw store into a
/// pool's live bytes) is caught at the memory layer.
#[derive(Debug, Clone)]
pub struct Ram {
    data: Vec<u8>,
    /// One past the highest byte written since the last clear; every
    /// byte at or above it is zero.
    high_water: usize,
    /// The shadow liveness map, one bit per byte.
    live: ByteSet,
    /// One past the highest byte marked live since the last clear; no
    /// byte at or above it is live.
    live_mark: usize,
}

impl Ram {
    /// Allocates `capacity` zeroed bytes of RAM.
    pub fn new(capacity: usize) -> Self {
        Self {
            data: vec![0; capacity],
            high_water: 0,
            live: ByteSet::new(capacity),
            live_mark: 0,
        }
    }

    /// RAM capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// One past the highest byte that [`write`](Self::write),
    /// [`fill`](Self::fill) or a RAM-to-RAM copy
    /// ([`Machine::ram_copy`](crate::Machine::ram_copy)) touched since the last
    /// [`clear`](Self::clear) (0 when nothing was written): the RAM a
    /// run observably used. A failed access leaves it unchanged.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Raises the write mark over the in-range `[addr, addr + len)`; an
    /// empty access touches no byte.
    fn touch(&mut self, addr: usize, len: usize) {
        if len > 0 {
            self.high_water = self.high_water.max(addr + len);
        }
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), MemError> {
        if addr
            .checked_add(len)
            .is_some_and(|end| end <= self.data.len())
        {
            Ok(())
        } else {
            Err(MemError::RamOutOfRange {
                addr,
                len,
                capacity: self.data.len(),
            })
        }
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RamOutOfRange`] when the range exceeds capacity.
    pub fn read(&self, addr: usize, len: usize) -> Result<&[u8], MemError> {
        self.check(addr, len)?;
        Ok(&self.data[addr..addr + len])
    }

    /// Writes `bytes` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RamOutOfRange`] when the range exceeds
    /// capacity, or [`MemError::ShadowClobber`] when a target byte is
    /// still live in the shadow map.
    pub fn write(&mut self, addr: usize, bytes: &[u8]) -> Result<(), MemError> {
        self.check(addr, bytes.len())?;
        self.shadow_check(addr, bytes.len())?;
        self.touch(addr, bytes.len());
        self.data[addr..addr + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` in place; the two ranges may
    /// overlap (`copy_within` semantics).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RamOutOfRange`] when either range exceeds
    /// capacity (`src` is checked first), or [`MemError::ShadowClobber`]
    /// when a `dst` byte is still live in the shadow map. RAM is unchanged
    /// on error.
    pub(crate) fn copy(&mut self, src: usize, dst: usize, len: usize) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        self.shadow_check(dst, len)?;
        self.touch(dst, len);
        self.data.copy_within(src..src + len, dst);
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `value`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RamOutOfRange`] when the range exceeds
    /// capacity, or [`MemError::ShadowClobber`] when a target byte is
    /// still live in the shadow map.
    pub fn fill(&mut self, addr: usize, len: usize, value: u8) -> Result<(), MemError> {
        self.check(addr, len)?;
        self.shadow_check(addr, len)?;
        self.touch(addr, len);
        self.data[addr..addr + len].fill(value);
        Ok(())
    }

    /// Returns RAM to its boot state (all zero, nothing written, nothing
    /// live) in place, keeping the allocation, so a long-lived worker
    /// reuses its simulated SRAM across inferences. Only the prefix below
    /// [`high_water`](Self::high_water) can hold a nonzero byte, so only
    /// that prefix is zeroed: a step that wrote 20 KB of a 512 KB RAM
    /// clears 20 KB. Likewise only the shadow map below
    /// [`shadow_live_mark`](Self::shadow_live_mark) can hold a live byte,
    /// so only that prefix of the map is reset.
    pub fn clear(&mut self) {
        self.data[..self.high_water].fill(0);
        self.high_water = 0;
        self.live.set(0, self.live_mark, false);
        self.live_mark = 0;
    }

    /// Fails when a byte of the in-range `[addr, addr + len)` is live;
    /// only the part below the liveness mark can be.
    fn shadow_check(&self, addr: usize, len: usize) -> Result<(), MemError> {
        let end = (addr + len).min(self.live_mark);
        if addr >= end {
            return Ok(());
        }
        match self.live.first(addr, end - addr, true) {
            Some(a) => Err(MemError::ShadowClobber {
                addr: a,
                len: self.live.count(a, end - a),
            }),
            None => Ok(()),
        }
    }

    /// Marks `[addr, addr + len)` live in the shadow map (pool mirror;
    /// called after a pool store or host fill). The part past the end of
    /// RAM is ignored.
    pub fn shadow_mark_live(&mut self, addr: usize, len: usize) {
        let end = addr.saturating_add(len).min(self.live.capacity());
        if addr < end {
            self.live.set(addr, end - addr, true);
            self.live_mark = self.live_mark.max(end);
        }
    }

    /// Marks `[addr, addr + len)` dead in the shadow map (pool mirror;
    /// called when the pool frees those bytes). Only the part below the
    /// liveness mark can be live, so only that part is touched.
    pub fn shadow_mark_dead(&mut self, addr: usize, len: usize) {
        let end = addr.saturating_add(len).min(self.live_mark);
        if addr < end {
            self.live.set(addr, end - addr, false);
        }
    }

    /// Number of bytes currently live in the shadow map.
    pub fn shadow_live_bytes(&self) -> usize {
        self.live.count(0, self.live.capacity())
    }

    /// One past the highest byte marked live since the last
    /// [`clear`](Self::clear) (0 when none was): no byte at or above it
    /// is live, and a clear resets the shadow map below it only.
    pub fn shadow_live_mark(&self) -> usize {
        self.live_mark
    }
}

/// Simulated Flash: written once while building the firmware image,
/// read-only afterwards (weights live here; §4 excludes them from RAM
/// management).
///
/// Only the programmed prefix is stored: every byte at or past
/// [`used`](Self::used) reads as erased (0xFF), so booting a device with
/// megabytes of Flash to stage a few KB of weights allocates a few KB.
#[derive(Debug, Clone)]
pub struct Flash {
    /// The programmed images, back to back from address 0.
    data: Vec<u8>,
    capacity: usize,
}

impl Flash {
    /// A `capacity`-byte flash, all erased (0xFF).
    pub fn new(capacity: usize) -> Self {
        Self {
            data: Vec::new(),
            capacity,
        }
    }

    /// Flash capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes consumed by programmed images.
    pub fn used(&self) -> usize {
        self.data.len()
    }

    /// The Flash capacity rule: the base address of a `len`-byte image
    /// appended after `used` programmed bytes of a `capacity`-byte Flash.
    /// [`Flash::program`] places every image by it, so a firmware image
    /// can be sized and checked without allocating a Flash.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::FlashOutOfRange`] when the image would end past
    /// `capacity`.
    pub fn place(used: usize, len: usize, capacity: usize) -> Result<usize, MemError> {
        if used + len > capacity {
            return Err(MemError::FlashOutOfRange {
                addr: used,
                len,
                capacity,
            });
        }
        Ok(used)
    }

    /// Appends an image to flash, returning its base address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::FlashOutOfRange`] when the image does not fit.
    pub fn program(&mut self, bytes: &[u8]) -> Result<usize, MemError> {
        let addr = Self::place(self.data.len(), bytes.len(), self.capacity)?;
        self.data.extend_from_slice(bytes);
        Ok(addr)
    }

    fn check(&self, addr: usize, len: usize) -> Result<usize, MemError> {
        addr.checked_add(len)
            .filter(|&end| end <= self.capacity)
            .ok_or(MemError::FlashOutOfRange {
                addr,
                len,
                capacity: self.capacity,
            })
    }

    /// Copies the `dst.len()` bytes at `addr` into `dst`; erased bytes
    /// read 0xFF.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::FlashOutOfRange`] when the range exceeds
    /// capacity, leaving `dst` unchanged.
    pub fn read_into(&self, addr: usize, dst: &mut [u8]) -> Result<(), MemError> {
        let end = self.check(addr, dst.len())?;
        let programmed = self.data.get(addr..end.min(self.data.len())).unwrap_or(&[]);
        dst[..programmed.len()].copy_from_slice(programmed);
        dst[programmed.len()..].fill(0xFF);
        Ok(())
    }

    /// Reads `len` bytes at `addr` into a new buffer; erased bytes read
    /// 0xFF.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::FlashOutOfRange`] when the range exceeds
    /// capacity.
    pub fn read(&self, addr: usize, len: usize) -> Result<Vec<u8>, MemError> {
        self.check(addr, len)?;
        let mut out = vec![0; len];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_round_trip() {
        let mut ram = Ram::new(64);
        ram.write(10, &[1, 2, 3]).unwrap();
        assert_eq!(ram.read(10, 3).unwrap(), &[1, 2, 3]);
        assert_eq!(ram.read(9, 1).unwrap(), &[0]);
    }

    #[test]
    fn ram_bounds_are_enforced() {
        let mut ram = Ram::new(16);
        assert!(matches!(
            ram.write(15, &[0, 0]),
            Err(MemError::RamOutOfRange {
                addr: 15,
                len: 2,
                capacity: 16
            })
        ));
        assert!(ram.read(16, 1).is_err());
        assert!(ram.read(usize::MAX, 2).is_err()); // overflow-safe
        assert!(ram.read(16, 0).is_ok()); // empty access at end is fine
    }

    #[test]
    fn ram_fill() {
        let mut ram = Ram::new(8);
        ram.fill(2, 4, 0xAB).unwrap();
        assert_eq!(
            ram.read(0, 8).unwrap(),
            &[0, 0, 0xAB, 0xAB, 0xAB, 0xAB, 0, 0]
        );
        assert!(ram.fill(6, 4, 0).is_err());
    }

    #[test]
    fn ram_copy_handles_overlap_in_both_directions() {
        let mut ram = Ram::new(16);
        ram.write(0, &[1, 2, 3, 4, 5, 6]).unwrap();
        // Forward overlap: dst above src.
        ram.copy(0, 2, 6).unwrap();
        assert_eq!(ram.read(0, 8).unwrap(), &[1, 2, 1, 2, 3, 4, 5, 6]);
        // Backward overlap: dst below src.
        ram.copy(2, 1, 6).unwrap();
        assert_eq!(ram.read(0, 8).unwrap(), &[1, 1, 2, 3, 4, 5, 6, 6]);
        // Self-copy and empty copy at the end are no-ops.
        ram.copy(3, 3, 4).unwrap();
        ram.copy(16, 0, 0).unwrap();
        assert_eq!(ram.read(0, 8).unwrap(), &[1, 1, 2, 3, 4, 5, 6, 6]);
    }

    #[test]
    fn ram_copy_bounds_checks_both_ranges() {
        let mut ram = Ram::new(16);
        ram.write(0, &[7; 16]).unwrap();
        let before = ram.read(0, 16).unwrap().to_vec();
        assert_eq!(
            ram.copy(12, 0, 8),
            Err(MemError::RamOutOfRange {
                addr: 12,
                len: 8,
                capacity: 16
            })
        );
        assert_eq!(
            ram.copy(0, 10, 8),
            Err(MemError::RamOutOfRange {
                addr: 10,
                len: 8,
                capacity: 16
            })
        );
        // `src` is checked first, and overflow is an error, not a panic.
        assert!(matches!(
            ram.copy(usize::MAX, 20, 2),
            Err(MemError::RamOutOfRange {
                addr: usize::MAX,
                ..
            })
        ));
        assert_eq!(ram.read(0, 16).unwrap(), &before[..]);
    }

    #[test]
    fn ram_clear_restores_boot_state() {
        let mut ram = Ram::new(32);
        ram.write(5, &[9; 10]).unwrap();
        ram.clear();
        assert_eq!(ram.read(0, 32).unwrap(), &[0; 32]);
        assert_eq!(ram.capacity(), 32);
    }

    #[test]
    fn high_water_marks_the_highest_byte_written_since_clear() {
        let mut ram = Ram::new(32);
        assert_eq!(ram.high_water(), 0);
        ram.fill(4, 6, 1).unwrap();
        assert_eq!(ram.high_water(), 10);
        // Lower writes and empty accesses do not move it; failed ones
        // neither.
        ram.write(0, &[2; 3]).unwrap();
        ram.write(31, &[]).unwrap();
        assert!(ram.write(30, &[3; 4]).is_err());
        assert_eq!(ram.high_water(), 10);
        ram.copy(0, 20, 5).unwrap();
        assert_eq!(ram.high_water(), 25);
        ram.clear();
        assert_eq!(ram.high_water(), 0);
        assert_eq!(ram.read(0, 32).unwrap(), &[0; 32]);
    }

    #[test]
    fn flash_place_is_the_program_capacity_rule() {
        assert_eq!(Flash::place(3, 5, 8), Ok(3));
        assert_eq!(
            Flash::place(3, 6, 8),
            Err(MemError::FlashOutOfRange {
                addr: 3,
                len: 6,
                capacity: 8
            })
        );
        let mut flash = Flash::new(8);
        flash.program(&[0; 3]).unwrap();
        assert_eq!(flash.program(&[0; 6]), Flash::place(3, 6, 8));
        assert_eq!(flash.program(&[0; 5]), Flash::place(3, 5, 8));
    }

    #[test]
    fn flash_programs_sequentially() {
        let mut flash = Flash::new(32);
        let a = flash.program(&[1, 2, 3]).unwrap();
        let b = flash.program(&[4, 5]).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 3);
        assert_eq!(flash.used(), 5);
        assert_eq!(flash.read(3, 2).unwrap(), &[4, 5]);
    }

    #[test]
    fn flash_capacity_enforced() {
        let mut flash = Flash::new(4);
        flash.program(&[0; 3]).unwrap();
        assert!(flash.program(&[0; 2]).is_err());
        assert!(flash.read(3, 2).is_err());
    }

    #[test]
    fn erased_flash_reads_ff() {
        let flash = Flash::new(4);
        assert_eq!(flash.read(0, 4).unwrap(), &[0xFF; 4]);
    }

    #[test]
    fn reads_straddling_the_programmed_end_see_erased_bytes() {
        let mut flash = Flash::new(16);
        flash.program(&[1, 2, 3]).unwrap();
        assert_eq!(flash.read(1, 5).unwrap(), &[2, 3, 0xFF, 0xFF, 0xFF]);
        assert_eq!(flash.read(10, 6).unwrap(), &[0xFF; 6]);
        let mut dst = [0u8; 4];
        flash.read_into(2, &mut dst).unwrap();
        assert_eq!(dst, [3, 0xFF, 0xFF, 0xFF]);
        // Out-of-range reads leave the destination untouched.
        assert_eq!(
            flash.read_into(14, &mut dst),
            Err(MemError::FlashOutOfRange {
                addr: 14,
                len: 4,
                capacity: 16
            })
        );
        assert_eq!(dst, [3, 0xFF, 0xFF, 0xFF]);
        assert!(flash.read(usize::MAX, 2).is_err());
        // Only the programmed prefix is stored.
        assert_eq!(flash.data.len(), 3);
    }

    #[test]
    fn shadow_catches_store_over_live_bytes() {
        let mut ram = Ram::new(16);
        ram.write(4, &[1, 2, 3, 4]).unwrap();
        ram.shadow_mark_live(4, 4);
        assert_eq!(ram.shadow_live_bytes(), 4);
        // Overlapping store: bytes 6..8 are live.
        assert_eq!(
            ram.write(6, &[9, 9, 9]),
            Err(MemError::ShadowClobber { addr: 6, len: 2 })
        );
        assert!(ram.fill(4, 2, 0).is_err());
        // Freeing the bytes makes the store legal again.
        ram.shadow_mark_dead(4, 4);
        ram.write(6, &[9, 9, 9]).unwrap();
    }

    #[test]
    fn shadow_catches_copy_over_live_bytes() {
        let mut ram = Ram::new(16);
        ram.write(0, &[1, 2, 3, 4]).unwrap();
        ram.shadow_mark_live(8, 4);
        // Live source bytes may be read; only the destination is checked.
        ram.shadow_mark_live(0, 4);
        assert_eq!(
            ram.copy(0, 6, 4),
            Err(MemError::ShadowClobber { addr: 8, len: 2 })
        );
        assert_eq!(ram.read(6, 4).unwrap(), &[0; 4]);
        ram.copy(0, 12, 4).unwrap();
        assert_eq!(ram.read(12, 4).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn shadow_map_resets_with_clear() {
        let mut ram = Ram::new(8);
        ram.shadow_mark_live(0, 8);
        ram.clear();
        assert_eq!(ram.shadow_live_bytes(), 0);
        ram.write(0, &[1; 8]).unwrap();
    }

    #[test]
    fn error_messages_mention_ranges() {
        let e = MemError::RamOutOfRange {
            addr: 8,
            len: 4,
            capacity: 10,
        };
        let s = e.to_string();
        assert!(s.contains('8') && s.contains("10"));
    }
}
