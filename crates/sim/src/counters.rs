//! Execution counters: the simulator's observable outputs.
//!
//! Every kernel action is accounted here; latency and energy are pure
//! functions of these counters plus the device models, which is what makes
//! the reproduction's performance claims auditable.

use crate::cost::CostModel;
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// Counted work of a (partial) kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Counters {
    /// Total modelled clock cycles.
    pub cycles: u64,
    /// 8-bit multiply-accumulate operations.
    pub macs: u64,
    /// Bytes read from RAM.
    pub ram_read_bytes: u64,
    /// Bytes written to RAM.
    pub ram_write_bytes: u64,
    /// Bytes read from Flash.
    pub flash_read_bytes: u64,
    /// Address modulo operations (circular-buffer boundary checks).
    pub modulo_ops: u64,
    /// Taken branches (loop back-edges, calls).
    pub branches: u64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total RAM traffic in bytes (reads + writes).
    pub fn ram_bytes(&self) -> u64 {
        self.ram_read_bytes + self.ram_write_bytes
    }

    /// Difference since an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not actually earlier (any field larger).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let sub = |a: u64, b: u64| {
            a.checked_sub(b)
                .expect("counter snapshot is not earlier than self")
        };
        Counters {
            cycles: sub(self.cycles, earlier.cycles),
            macs: sub(self.macs, earlier.macs),
            ram_read_bytes: sub(self.ram_read_bytes, earlier.ram_read_bytes),
            ram_write_bytes: sub(self.ram_write_bytes, earlier.ram_write_bytes),
            flash_read_bytes: sub(self.flash_read_bytes, earlier.flash_read_bytes),
            modulo_ops: sub(self.modulo_ops, earlier.modulo_ops),
            branches: sub(self.branches, earlier.branches),
        }
    }
}

/// Charge-only pricing: each helper adds one access kind's modelled
/// price to `self` without touching memory. [`Machine`](crate::Machine)'s
/// costed operations charge through them, and a kernel that prices a
/// repeated access sequence once (into a delta it adds per repetition)
/// uses the same ones, so there is one formula per access kind and the
/// per-call `div_ceil` rounding is the same either way.
impl Counters {
    /// A `RAMLoad` of `n` bytes.
    pub fn charge_ram_load(&mut self, cost: &CostModel, n: u64) {
        self.ram_read_bytes += n;
        self.cycles += cost.ram_move_cost(n) + cost.call_overhead_cycles;
    }

    /// A `RAMStore` of `n` bytes.
    pub fn charge_ram_store(&mut self, cost: &CostModel, n: u64) {
        self.ram_write_bytes += n;
        self.cycles += cost.ram_move_cost(n) + cost.call_overhead_cycles;
    }

    /// A RAM-to-RAM copy of `n` bytes: read and write traffic, one call.
    pub fn charge_ram_copy(&mut self, cost: &CostModel, n: u64) {
        self.ram_read_bytes += n;
        self.ram_write_bytes += n;
        self.cycles += 2 * cost.ram_move_cost(n) + cost.call_overhead_cycles;
    }

    /// A `FlashLoad` of `n` bytes.
    pub fn charge_flash_load(&mut self, cost: &CostModel, n: u64) {
        self.flash_read_bytes += n;
        self.cycles += cost.flash_read_cost(n) + cost.call_overhead_cycles;
    }

    /// `n` 8-bit MACs in one dot call (`fully_unrolled` selects the stall
    /// model).
    pub fn charge_macs(&mut self, cost: &CostModel, n: u64, fully_unrolled: bool) {
        self.macs += n;
        self.cycles += cost.mac_cost(n, fully_unrolled);
    }

    /// An `n`-element requantization epilogue.
    pub fn charge_requant(&mut self, cost: &CostModel, n: u64) {
        self.cycles += cost.requant_cost(n);
    }

    /// `n` taken branches.
    pub fn charge_branches(&mut self, cost: &CostModel, n: u64) {
        self.branches += n;
        self.cycles += n * cost.branch_cycles;
    }

    /// `n` address-modulo operations (circular-buffer boundary checks).
    pub fn charge_modulo(&mut self, cost: &CostModel, n: u64) {
        self.modulo_ops += n;
        self.cycles += n * cost.modulo_cycles;
    }
}

impl Add for Counters {
    type Output = Counters;

    fn add(self, rhs: Counters) -> Counters {
        Counters {
            cycles: self.cycles + rhs.cycles,
            macs: self.macs + rhs.macs,
            ram_read_bytes: self.ram_read_bytes + rhs.ram_read_bytes,
            ram_write_bytes: self.ram_write_bytes + rhs.ram_write_bytes,
            flash_read_bytes: self.flash_read_bytes + rhs.flash_read_bytes,
            modulo_ops: self.modulo_ops + rhs.modulo_ops,
            branches: self.branches + rhs.branches,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        *self = *self + rhs;
    }
}

/// `n` repetitions of the same charges.
impl Mul<u64> for Counters {
    type Output = Counters;

    fn mul(self, n: u64) -> Counters {
        Counters {
            cycles: self.cycles * n,
            macs: self.macs * n,
            ram_read_bytes: self.ram_read_bytes * n,
            ram_write_bytes: self.ram_write_bytes * n,
            flash_read_bytes: self.flash_read_bytes * n,
            modulo_ops: self.modulo_ops * n,
            branches: self.branches * n,
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} macs={} ram_r={}B ram_w={}B flash_r={}B mod={} br={}",
            self.cycles,
            self.macs,
            self.ram_read_bytes,
            self.ram_write_bytes,
            self.flash_read_bytes,
            self.modulo_ops,
            self.branches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_add_assign_agree() {
        let a = Counters {
            cycles: 10,
            macs: 4,
            ram_read_bytes: 2,
            ram_write_bytes: 1,
            flash_read_bytes: 8,
            modulo_ops: 1,
            branches: 3,
        };
        let mut b = a;
        b += a;
        assert_eq!(b, a + a);
        assert_eq!(b.cycles, 20);
        assert_eq!(b.ram_bytes(), 6);
    }

    #[test]
    fn since_computes_deltas() {
        let early = Counters {
            cycles: 5,
            ..Counters::new()
        };
        let late = Counters {
            cycles: 12,
            macs: 3,
            ..Counters::new()
        };
        let d = late.since(&early);
        assert_eq!(d.cycles, 7);
        assert_eq!(d.macs, 3);
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn since_rejects_non_monotone_snapshots() {
        let early = Counters {
            cycles: 12,
            ..Counters::new()
        };
        let late = Counters {
            cycles: 5,
            ..Counters::new()
        };
        let _ = late.since(&early);
    }

    #[test]
    fn repeated_charges_scale_every_field() {
        let cost = CostModel::cortex_m7();
        let mut once = Counters::new();
        once.charge_ram_load(&cost, 7);
        once.charge_flash_load(&cost, 7);
        once.charge_macs(&cost, 7, false);
        let mut looped = Counters::new();
        for _ in 0..5 {
            looped += once;
        }
        assert_eq!(once * 5, looped);
        let none = 0;
        assert_eq!(once * none, Counters::new());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Counters::new().to_string().is_empty());
    }
}
