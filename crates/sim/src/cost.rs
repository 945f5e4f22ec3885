//! Instruction-class cost model for Cortex-M cores.
//!
//! Absolute cycle counts on real silicon depend on flash wait states,
//! bus arbitration, and compiler quality; this model instead captures the
//! *relative* costs the paper's evaluation hinges on:
//!
//! * int8 MACs execute through packed SIMD (`SXTB16` + `SMLAD`,
//!   2 MACs/instruction) — faster on the dual-issue M7;
//! * partially-unrolled inner loops (TinyEngine unrolls to a fixed depth
//!   of 16) pay a per-MAC pipeline-stall penalty that fully-unrolled vMCU
//!   loops avoid (§7.2);
//! * every segment load/store in vMCU pays one address-modulo operation
//!   (circular buffer boundary check, §5.3);
//! * im2col pre-processing is pure RAM-to-RAM copy traffic.
//!
//! All fractional costs use ×100 fixed point to keep the simulator purely
//! integral and deterministic.

/// Per-operation cycle costs (fixed point: `_x100` fields are cycles×100).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Cycles ×100 per 8-bit MAC in a fully unrolled loop at the core's
    /// native SIMD width: packed `SMLAD` pairs on M4/M7, scalar MACs on
    /// M0+, quad int8 lanes on M55. Every kernel charges MACs at this
    /// one rate ([`CostModel::mac_cost`]).
    pub mac_cycles_x100: u64,
    /// Extra multiplier ×100 applied to MAC cycles when the inner loop is
    /// only partially unrolled (pipeline stalls + loop upkeep); `100`
    /// means no penalty.
    pub partial_unroll_penalty_x100: u64,
    /// Cycles ×100 per byte moved between RAM and registers (memcpy-style
    /// word copies).
    pub ram_byte_cycles_x100: u64,
    /// Cycles ×100 per byte read from Flash (includes wait states
    /// amortized by prefetch).
    pub flash_byte_cycles_x100: u64,
    /// Cycles ×100 per byte *programmed* into Flash. Writing NOR flash is
    /// orders of magnitude slower than reading it (erase + word-program
    /// sequences through the flash controller), which is what makes
    /// hot-swapping a model image onto a device a priceable decision
    /// rather than a free one.
    pub flash_write_byte_cycles_x100: u64,
    /// Cycles per address modulo (circular-buffer boundary check).
    pub modulo_cycles: u64,
    /// Cycles per taken branch.
    pub branch_cycles: u64,
    /// Cycles of fixed overhead per intrinsic call (address setup).
    pub call_overhead_cycles: u64,
    /// Cycles ×100 per element of the requantization epilogue
    /// (multiply-high + rounding shift + saturate).
    pub requant_cycles_x100: u64,
}

impl CostModel {
    /// Cortex-M4 cost model (single-issue, DSP extension).
    pub fn cortex_m4() -> Self {
        Self {
            mac_cycles_x100: 100,             // SMLAD 1/cycle, packing overhead folded in
            partial_unroll_penalty_x100: 150, // stalls every unroll boundary
            ram_byte_cycles_x100: 50,         // ~2 cycles per 32-bit word
            flash_byte_cycles_x100: 75,       // ART accelerator hides most waits
            flash_write_byte_cycles_x100: 40_000, // erase+program, ~4µs/byte at 100MHz
            modulo_cycles: 3,
            branch_cycles: 3,
            call_overhead_cycles: 6,
            requant_cycles_x100: 300,
        }
    }

    /// Cortex-M7 cost model (dual-issue, faster buses).
    pub fn cortex_m7() -> Self {
        Self {
            mac_cycles_x100: 55,
            partial_unroll_penalty_x100: 165, // dual-issue pipeline suffers more from short dependent chains
            ram_byte_cycles_x100: 30,
            flash_byte_cycles_x100: 55,
            flash_write_byte_cycles_x100: 30_000, // wider program words, faster controller
            modulo_cycles: 2,
            branch_cycles: 2,
            call_overhead_cycles: 5,
            requant_cycles_x100: 300,
        }
    }

    /// Cortex-M0+-class cost model (no DSP extension: scalar MACs, slow
    /// single-cycle-bus memories). The capability floor of the hardware
    /// landscape — every MAC is a `LDRB`/`MUL`/`ADD` sequence.
    pub fn cortex_m0() -> Self {
        Self {
            mac_cycles_x100: 400, // scalar widen+mul+add, no dual-issue
            partial_unroll_penalty_x100: 140,
            ram_byte_cycles_x100: 75,
            flash_byte_cycles_x100: 100,
            flash_write_byte_cycles_x100: 50_000, // byte-wide programming, busy-wait per word
            modulo_cycles: 4,
            branch_cycles: 4,
            call_overhead_cycles: 8,
            requant_cycles_x100: 500, // no SSAT, branchy saturation
        }
    }

    /// Cortex-M55-class cost model (Helium/MVE: quad int8 lanes,
    /// low-overhead loops).
    pub fn cortex_m55() -> Self {
        Self {
            mac_cycles_x100: 30,              // VMLADAVA: 4 int8 MACs per beat-pair
            partial_unroll_penalty_x100: 120, // LE/LETP loops stall little
            ram_byte_cycles_x100: 25,
            flash_byte_cycles_x100: 40,
            flash_write_byte_cycles_x100: 20_000, // row-buffer programming
            modulo_cycles: 2,
            branch_cycles: 1,
            call_overhead_cycles: 4,
            requant_cycles_x100: 200, // VQRDMULH + VQSHRNB vectorize it
        }
    }

    /// Cycles for `n` MACs; `fully_unrolled` selects whether the stall
    /// penalty applies.
    pub fn mac_cost(&self, n: u64, fully_unrolled: bool) -> u64 {
        let base = n * self.mac_cycles_x100;
        let scaled = if fully_unrolled {
            base
        } else {
            base * self.partial_unroll_penalty_x100 / 100
        };
        scaled.div_ceil(100)
    }

    /// Cycles for an `n`-element requantization epilogue.
    pub fn requant_cost(&self, n: u64) -> u64 {
        (n * self.requant_cycles_x100).div_ceil(100)
    }

    /// Cycles to move `n` bytes between RAM and registers.
    pub fn ram_move_cost(&self, n: u64) -> u64 {
        (n * self.ram_byte_cycles_x100).div_ceil(100)
    }

    /// Cycles to read `n` bytes from Flash.
    pub fn flash_read_cost(&self, n: u64) -> u64 {
        (n * self.flash_byte_cycles_x100).div_ceil(100)
    }

    /// Cycles to *program* `n` bytes into Flash (staging a model image).
    ///
    /// This is the simulated price of a model hot-swap: re-staging a
    /// deployment's weights onto a device charges
    /// `flash_write_cost(image_bytes)` cycles of device time, hundreds of
    /// times the cost of reading the same bytes back.
    pub fn flash_write_cost(&self, n: u64) -> u64 {
        (n * self.flash_write_byte_cycles_x100).div_ceil(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m7_is_faster_per_mac_than_m4() {
        let m4 = CostModel::cortex_m4();
        let m7 = CostModel::cortex_m7();
        assert!(m7.mac_cost(1000, true) < m4.mac_cost(1000, true));
    }

    #[test]
    fn partial_unroll_costs_more() {
        let m = CostModel::cortex_m4();
        assert!(m.mac_cost(1000, false) > m.mac_cost(1000, true));
        // penalty is multiplicative: 50% here
        assert_eq!(m.mac_cost(1000, false), 1500);
    }

    #[test]
    fn move_costs_round_up() {
        let m = CostModel::cortex_m4();
        assert_eq!(m.ram_move_cost(1), 1); // 0.5 cycles rounds up
        assert_eq!(m.ram_move_cost(8), 4);
        assert_eq!(m.flash_read_cost(4), 3);
    }

    #[test]
    fn zero_work_is_free() {
        let m = CostModel::cortex_m7();
        assert_eq!(m.mac_cost(0, false), 0);
        assert_eq!(m.ram_move_cost(0), 0);
        assert_eq!(m.flash_read_cost(0), 0);
        assert_eq!(m.requant_cost(0), 0);
    }

    #[test]
    fn requant_cost_matches_the_historic_constant_on_m4_m7() {
        // The epilogue used to be a free constant of 3 cycles/element in
        // the kernels crate; folding it into the model must not move
        // existing devices.
        for m in [CostModel::cortex_m4(), CostModel::cortex_m7()] {
            for n in [1u64, 4, 17, 256] {
                assert_eq!(m.requant_cost(n), 3 * n);
            }
        }
        assert_eq!(CostModel::cortex_m0().requant_cost(4), 20);
        assert_eq!(CostModel::cortex_m55().requant_cost(4), 8);
    }

    #[test]
    fn flash_writes_dwarf_flash_reads() {
        // Programming flash must cost orders of magnitude more than
        // reading it on every core, or hot-swap decisions are free.
        for m in [
            CostModel::cortex_m4(),
            CostModel::cortex_m7(),
            CostModel::cortex_m0(),
            CostModel::cortex_m55(),
        ] {
            assert!(m.flash_write_cost(1024) >= 100 * m.flash_read_cost(1024));
        }
        // M4: 400 cycles/byte, rounding up.
        let m4 = CostModel::cortex_m4();
        assert_eq!(m4.flash_write_cost(1), 400);
        assert_eq!(m4.flash_write_cost(0), 0);
    }

    #[test]
    fn capability_ladder_is_ordered() {
        let per_mac = |m: CostModel| m.mac_cost(10_000, true);
        assert!(per_mac(CostModel::cortex_m0()) > per_mac(CostModel::cortex_m4()));
        assert!(per_mac(CostModel::cortex_m4()) > per_mac(CostModel::cortex_m7()));
        assert!(per_mac(CostModel::cortex_m7()) > per_mac(CostModel::cortex_m55()));
    }
}
