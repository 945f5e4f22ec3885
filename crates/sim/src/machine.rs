//! The execution context kernels run against.
//!
//! A [`Machine`] bundles a device model with its simulated RAM/Flash and a
//! live [`Counters`] instance. Kernels perform all data movement and
//! arithmetic through it, so functional results and modelled costs come
//! from the same code path.
//!
//! Host-side helpers (`host_*`) move data without charging cycles — they
//! model the test bench (loading an input image, reading back results),
//! not on-device work.

use crate::counters::Counters;
use crate::device::Device;
use crate::memory::{Flash, MemError, Ram};

/// Simulated MCU executing one firmware image.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Device model (cost/energy tables, capacities).
    pub device: Device,
    /// Simulated SRAM.
    pub ram: Ram,
    /// Simulated Flash.
    pub flash: Flash,
    /// Accumulated work counters.
    pub counters: Counters,
}

/// Latency/energy summary of a counted execution window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecSummary {
    /// Raw counters of the window.
    pub counters: Counters,
    /// Wall-clock latency at the device clock, in milliseconds.
    pub latency_ms: f64,
    /// Energy in millijoules.
    pub energy_mj: f64,
}

impl Machine {
    /// Boots a machine for `device` with zeroed RAM and erased Flash.
    pub fn new(device: Device) -> Self {
        let ram = Ram::new(device.ram_bytes);
        let flash = Flash::new(device.flash_bytes);
        Self {
            device,
            ram,
            flash,
            counters: Counters::new(),
        }
    }

    /// Resets the volatile state only — zeroed RAM, zeroed counters —
    /// while keeping the programmed Flash image intact. This is the
    /// between-inference reset of a deployed session: weights are flashed
    /// once at deploy time and stay resident across inferences, exactly
    /// like a real MCU deployment.
    pub fn reset_volatile(&mut self) {
        self.ram.clear();
        self.counters = Counters::new();
    }

    // ---- costed on-device operations -------------------------------------

    /// `RAMLoad` data path: copies `dst.len()` bytes of RAM into registers,
    /// charging copy cycles and traffic.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on out-of-range addresses.
    pub fn ram_load(&mut self, addr: usize, dst: &mut [u8]) -> Result<(), MemError> {
        dst.copy_from_slice(self.ram.read(addr, dst.len())?);
        self.counters
            .charge_ram_load(&self.device.cost, dst.len() as u64);
        Ok(())
    }

    /// `RAMStore` data path: copies registers into RAM.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on out-of-range addresses.
    pub fn ram_store(&mut self, addr: usize, src: &[u8]) -> Result<(), MemError> {
        self.ram.write(addr, src)?;
        self.counters
            .charge_ram_store(&self.device.cost, src.len() as u64);
        Ok(())
    }

    /// RAM-to-RAM copy (the im2col pre-processing path of the TinyEngine
    /// baseline): charges both read and write traffic.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on out-of-range addresses or a store over
    /// bytes live in the shadow map, charging nothing.
    pub fn ram_copy(&mut self, src: usize, dst: usize, len: usize) -> Result<(), MemError> {
        self.ram.copy(src, dst, len)?;
        self.counters.charge_ram_copy(&self.device.cost, len as u64);
        Ok(())
    }

    /// `FlashLoad` data path.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on out-of-range addresses.
    pub fn flash_load(&mut self, addr: usize, dst: &mut [u8]) -> Result<(), MemError> {
        self.flash.read_into(addr, dst)?;
        self.counters
            .charge_flash_load(&self.device.cost, dst.len() as u64);
        Ok(())
    }

    /// Charges `n` 8-bit MACs (`fully_unrolled` selects the stall model).
    pub fn charge_macs(&mut self, n: u64, fully_unrolled: bool) {
        self.counters
            .charge_macs(&self.device.cost, n, fully_unrolled);
    }

    /// Charges `tiles` dot tiles of `n_per_tile` MACs each in one call —
    /// counter-identical to calling [`Machine::charge_macs`] `tiles`
    /// times (the per-call `div_ceil` rounding is applied per tile, so
    /// hoisting the accounting out of a hot loop cannot drift cycles).
    pub fn charge_macs_batched(&mut self, n_per_tile: u64, tiles: u64, fully_unrolled: bool) {
        self.counters.macs += n_per_tile * tiles;
        self.counters.cycles += tiles * self.device.cost.mac_cost(n_per_tile, fully_unrolled);
    }

    /// Charges an `n`-element requantization epilogue at the device's
    /// [`requant_cycles_x100`](crate::cost::CostModel::requant_cycles_x100).
    pub fn charge_requant(&mut self, n: u64) {
        self.counters.charge_requant(&self.device.cost, n);
    }

    /// Charges `n` address-modulo operations (circular-buffer boundary
    /// checks).
    pub fn charge_modulo(&mut self, n: u64) {
        self.counters.charge_modulo(&self.device.cost, n);
    }

    /// Charges `n` taken branches (loop back-edges).
    pub fn charge_branches(&mut self, n: u64) {
        self.counters.charge_branches(&self.device.cost, n);
    }

    /// Charges `n` generic ALU cycles (requantization epilogues etc.).
    pub fn charge_cycles(&mut self, n: u64) {
        self.counters.cycles += n;
    }

    // ---- host-side (uncosted) helpers ------------------------------------

    /// Writes bytes into RAM without charging cycles (test-bench input
    /// loading).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on out-of-range addresses.
    pub fn host_write_ram(&mut self, addr: usize, bytes: &[u8]) -> Result<(), MemError> {
        self.ram.write(addr, bytes)
    }

    /// Reads bytes from RAM without charging cycles (test-bench output
    /// readback).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on out-of-range addresses.
    pub fn host_read_ram(&self, addr: usize, len: usize) -> Result<Vec<u8>, MemError> {
        Ok(self.ram.read(addr, len)?.to_vec())
    }

    /// Programs a constant image (weights) into Flash, returning its base
    /// address. Uncosted: flashing happens at deploy time.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when flash capacity is exceeded.
    pub fn host_program_flash(&mut self, bytes: &[u8]) -> Result<usize, MemError> {
        self.flash.program(bytes)
    }

    // ---- reporting --------------------------------------------------------

    /// Snapshot of the current counters.
    pub fn snapshot(&self) -> Counters {
        self.counters
    }

    /// Summary of work done since `since` (latency and energy at this
    /// machine's device models).
    pub fn summarize_since(&self, since: &Counters) -> ExecSummary {
        let delta = self.counters.since(since);
        ExecSummary {
            counters: delta,
            latency_ms: self.device.cycles_to_ms(delta.cycles),
            energy_mj: self.device.energy.energy_mj(&delta),
        }
    }

    /// Summary of all work since boot.
    pub fn summarize(&self) -> ExecSummary {
        self.summarize_since(&Counters::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(Device::stm32_f411re())
    }

    #[test]
    fn ram_load_store_round_trip_with_costs() {
        let mut m = machine();
        m.host_write_ram(100, &[7, 8, 9, 10]).unwrap();
        let mut buf = [0u8; 4];
        m.ram_load(100, &mut buf).unwrap();
        assert_eq!(buf, [7, 8, 9, 10]);
        m.ram_store(200, &buf).unwrap();
        assert_eq!(m.host_read_ram(200, 4).unwrap(), vec![7, 8, 9, 10]);
        let c = m.snapshot();
        assert_eq!(c.ram_read_bytes, 4);
        assert_eq!(c.ram_write_bytes, 4);
        assert!(c.cycles > 0);
    }

    #[test]
    fn host_helpers_are_free() {
        let mut m = machine();
        m.host_write_ram(0, &[1; 64]).unwrap();
        let _ = m.host_read_ram(0, 64).unwrap();
        assert_eq!(m.snapshot(), Counters::new());
    }

    #[test]
    fn reset_volatile_keeps_the_flash_image() {
        let mut m = machine();
        let base = m.host_program_flash(&[7; 64]).unwrap();
        m.host_write_ram(0, &[9; 128]).unwrap();
        m.charge_macs(1000, true);
        m.reset_volatile();
        assert_eq!(m.snapshot(), Counters::new());
        assert_eq!(m.host_read_ram(0, 128).unwrap(), vec![0; 128]);
        // The deployed weights survive the reset.
        assert_eq!(m.flash.used(), 64);
        assert_eq!(m.flash.read(base, 64).unwrap(), &[7; 64]);
    }

    #[test]
    fn flash_load_counts_traffic() {
        let mut m = machine();
        let base = m.host_program_flash(&[5; 32]).unwrap();
        let mut buf = [0u8; 32];
        m.flash_load(base, &mut buf).unwrap();
        assert_eq!(buf, [5; 32]);
        assert_eq!(m.snapshot().flash_read_bytes, 32);
    }

    #[test]
    fn mac_charging_tracks_unrolling() {
        let mut m = machine();
        m.charge_macs(1000, true);
        let unrolled = m.snapshot().cycles;
        let mut m2 = machine();
        m2.charge_macs(1000, false);
        assert!(m2.snapshot().cycles > unrolled);
        assert_eq!(m.snapshot().macs, 1000);
    }

    #[test]
    fn ram_copy_charges_both_directions() {
        let mut m = machine();
        m.host_write_ram(0, &[3; 16]).unwrap();
        m.ram_copy(0, 64, 16).unwrap();
        assert_eq!(m.host_read_ram(64, 16).unwrap(), vec![3; 16]);
        assert_eq!(m.snapshot().ram_read_bytes, 16);
        assert_eq!(m.snapshot().ram_write_bytes, 16);
        let cost = m.device.cost;
        assert_eq!(
            m.snapshot().cycles,
            2 * cost.ram_move_cost(16) + cost.call_overhead_cycles
        );
        // A failed copy charges nothing.
        let cap = m.ram.capacity();
        assert!(m.ram_copy(cap - 8, 0, 16).is_err());
        assert_eq!(m.snapshot().ram_read_bytes, 16);
    }

    #[test]
    fn costed_operations_charge_through_the_counter_helpers() {
        // One formula per access kind: a delta priced with the
        // charge-only helpers equals what the data paths charge.
        let mut m = Machine::new(Device::stm32_f767zi());
        let base = m.host_program_flash(&[1; 40]).unwrap();
        let mut regs = [0u8; 13];
        m.ram_load(3, &mut regs).unwrap();
        m.flash_load(base, &mut regs[..11]).unwrap();
        m.ram_store(100, &regs[..5]).unwrap();
        m.ram_copy(0, 200, 9).unwrap();
        m.charge_macs(26, false);
        m.charge_requant(3);
        m.charge_branches(2);
        m.charge_modulo(4);
        let cost = m.device.cost;
        let mut priced = Counters::new();
        priced.charge_ram_load(&cost, 13);
        priced.charge_flash_load(&cost, 11);
        priced.charge_ram_store(&cost, 5);
        priced.charge_ram_copy(&cost, 9);
        priced.charge_macs(&cost, 26, false);
        priced.charge_requant(&cost, 3);
        priced.charge_branches(&cost, 2);
        priced.charge_modulo(&cost, 4);
        assert_eq!(m.snapshot(), priced);
    }

    #[test]
    fn summaries_convert_units() {
        let mut m = machine();
        let before = m.snapshot();
        m.charge_macs(100_000, true);
        let s = m.summarize_since(&before);
        assert!(s.latency_ms > 0.0);
        assert!(s.energy_mj > 0.0);
        assert_eq!(s.counters.macs, 100_000);
    }

    #[test]
    fn out_of_range_propagates() {
        let mut m = machine();
        let cap = m.ram.capacity();
        let mut buf = [0u8; 8];
        assert!(m.ram_load(cap, &mut buf).is_err());
        assert!(m.ram_store(cap - 4, &buf).is_err());
    }

    #[test]
    fn batched_charging_is_counter_identical_to_per_tile_calls() {
        // 9 tiles of 24 MACs on the M7 model: per-call div_ceil rounding
        // makes 9 * cost(24) != cost(216), so the batched path must
        // round per tile to stay identical.
        let mut per_call = Machine::new(Device::stm32_f767zi());
        for _ in 0..9 {
            per_call.charge_macs(24, true);
        }
        let mut batched = Machine::new(Device::stm32_f767zi());
        batched.charge_macs_batched(24, 9, true);
        assert_eq!(batched.snapshot(), per_call.snapshot());
        // And the naive merge really would have drifted:
        let mut merged = Machine::new(Device::stm32_f767zi());
        merged.charge_macs(216, true);
        assert_ne!(merged.snapshot().cycles, per_call.snapshot().cycles);
    }

    #[test]
    fn requant_charges_model_cycles() {
        let mut m = machine();
        m.charge_requant(10);
        assert_eq!(m.snapshot().cycles, m.device.cost.requant_cost(10));
    }

    #[test]
    fn modulo_and_branch_charges() {
        let mut m = machine();
        m.charge_modulo(10);
        m.charge_branches(5);
        let c = m.snapshot();
        assert_eq!(c.modulo_ops, 10);
        assert_eq!(c.branches, 5);
        assert_eq!(
            c.cycles,
            10 * m.device.cost.modulo_cycles + 5 * m.device.cost.branch_cycles
        );
    }
}
