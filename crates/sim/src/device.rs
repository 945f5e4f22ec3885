//! Device models for the evaluation platforms (§7.1) and the Table 1
//! hardware-landscape comparison.

use crate::cost::CostModel;
use crate::energy::EnergyModel;
use std::fmt;

/// Processor core of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Core {
    /// ARM Cortex-M0+ (scalar, no DSP extension).
    CortexM0Plus,
    /// ARM Cortex-M4 (single-issue, DSP extension).
    CortexM4,
    /// ARM Cortex-M7 (dual-issue, DSP extension).
    CortexM7,
    /// ARM Cortex-M55 (Helium/MVE vector extension).
    CortexM55,
}

impl fmt::Display for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Core::CortexM0Plus => f.write_str("Cortex-M0+"),
            Core::CortexM4 => f.write_str("Cortex-M4"),
            Core::CortexM7 => f.write_str("Cortex-M7"),
            Core::CortexM55 => f.write_str("Cortex-M55"),
        }
    }
}

/// A concrete MCU target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Device {
    /// Marketing name.
    pub name: String,
    /// Core kind.
    pub core: Core,
    /// SRAM capacity in bytes.
    pub ram_bytes: usize,
    /// Flash capacity in bytes.
    pub flash_bytes: usize,
    /// Core clock in Hz.
    pub clock_hz: u64,
    /// RAM permanently consumed by the runtime (stack, libc, vector
    /// table): 4 KiB on every preset device. On-device measurements
    /// include it; set to 0 for pure algorithmic footprints.
    pub runtime_overhead_bytes: usize,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Device {
    /// STM32-F411RE: Cortex-M4, 128 KB RAM, 512 KB Flash, 100 MHz.
    pub fn stm32_f411re() -> Self {
        Self {
            name: "STM32-F411RE".to_owned(),
            core: Core::CortexM4,
            ram_bytes: 128 * 1024,
            flash_bytes: 512 * 1024,
            clock_hz: 100_000_000,
            runtime_overhead_bytes: 4 * 1024,
            cost: CostModel::cortex_m4(),
            energy: EnergyModel::stm32_f4(),
        }
    }

    /// STM32-F767ZI: Cortex-M7, 512 KB RAM, 2 MB Flash, 216 MHz.
    pub fn stm32_f767zi() -> Self {
        Self {
            name: "STM32-F767ZI".to_owned(),
            core: Core::CortexM7,
            ram_bytes: 512 * 1024,
            flash_bytes: 2 * 1024 * 1024,
            clock_hz: 216_000_000,
            runtime_overhead_bytes: 4 * 1024,
            cost: CostModel::cortex_m7(),
            energy: EnergyModel::stm32_f7(),
        }
    }

    /// STM32-G071RB: Cortex-M0+, 36 KB RAM, 128 KB Flash, 64 MHz — the
    /// scalar (no-DSP) floor of the SIMD capability ladder.
    pub fn stm32_g071rb() -> Self {
        Self {
            name: "STM32-G071RB".to_owned(),
            core: Core::CortexM0Plus,
            ram_bytes: 36 * 1024,
            flash_bytes: 128 * 1024,
            clock_hz: 64_000_000,
            runtime_overhead_bytes: 4 * 1024,
            cost: CostModel::cortex_m0(),
            energy: EnergyModel::stm32_g0(),
        }
    }

    /// MPS3-AN547 (Corstone-300): Cortex-M55, 1 MB SRAM, 4 MB Flash,
    /// 400 MHz — the quad-lane MVE-style top of the capability ladder.
    pub fn mps3_an547() -> Self {
        Self {
            name: "MPS3-AN547".to_owned(),
            core: Core::CortexM55,
            ram_bytes: 1024 * 1024,
            flash_bytes: 4 * 1024 * 1024,
            clock_hz: 400_000_000,
            runtime_overhead_bytes: 4 * 1024,
            cost: CostModel::cortex_m55(),
            energy: EnergyModel::corstone_m55(),
        }
    }

    /// The SIMD capability ladder, ordered by per-MAC cost, dearest
    /// first: the scalar M0+, the dual-lane M4 and M7, the quad-lane M55.
    pub fn simd_ladder() -> Vec<Self> {
        vec![
            Self::stm32_g071rb(),
            Self::stm32_f411re(),
            Self::stm32_f767zi(),
            Self::mps3_an547(),
        ]
    }

    /// RAM available to tensor data after runtime overhead.
    pub fn usable_ram_bytes(&self) -> usize {
        self.ram_bytes.saturating_sub(self.runtime_overhead_bytes)
    }

    /// Converts cycles to milliseconds at the device clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e3 / self.clock_hz as f64
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} KB RAM, {} KB Flash, {} MHz)",
            self.name,
            self.core,
            self.ram_bytes / 1024,
            self.flash_bytes / 1024,
            self.clock_hz / 1_000_000
        )
    }
}

/// One row of the Table 1 hardware-landscape comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlatformSummary {
    /// Hardware name.
    pub hardware: &'static str,
    /// Memory capacity description.
    pub memory: &'static str,
    /// Storage capacity description.
    pub storage: &'static str,
    /// Software support description.
    pub sw_support: &'static str,
}

/// The three platform classes of Table 1.
pub const TABLE1_PLATFORMS: [PlatformSummary; 3] = [
    PlatformSummary {
        hardware: "A100",
        memory: "40GB",
        storage: "TB-PB",
        sw_support: "CUDA runtime",
    },
    PlatformSummary {
        hardware: "Kirin-990",
        memory: "8GB",
        storage: "256GB",
        sw_support: "OS (Linux)",
    },
    PlatformSummary {
        hardware: "F411RE",
        memory: "128KB",
        storage: "512KB",
        sw_support: "None",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f411re_matches_paper_specs() {
        let d = Device::stm32_f411re();
        assert_eq!(d.ram_bytes, 131_072);
        assert_eq!(d.flash_bytes, 524_288);
        assert_eq!(d.core, Core::CortexM4);
        assert!(d.usable_ram_bytes() < d.ram_bytes);
    }

    #[test]
    fn f767zi_matches_paper_specs() {
        let d = Device::stm32_f767zi();
        assert_eq!(d.ram_bytes, 524_288);
        assert_eq!(d.core, Core::CortexM7);
        assert_eq!(d.clock_hz, 216_000_000);
    }

    #[test]
    fn simd_ladder_is_ordered_by_lanes() {
        // Scalar M0+, dual-lane (SMLAD) M4 and M7, quad-lane (MVE) M55:
        // per-MAC cost falls along the ladder.
        let ladder = Device::simd_ladder();
        let cores: Vec<Core> = ladder.iter().map(|d| d.core).collect();
        assert_eq!(
            cores,
            [
                Core::CortexM0Plus,
                Core::CortexM4,
                Core::CortexM7,
                Core::CortexM55
            ]
        );
        for pair in ladder.windows(2) {
            assert!(pair[0].cost.mac_cycles_x100 > pair[1].cost.mac_cycles_x100);
        }
    }

    #[test]
    fn g071rb_is_the_scalar_floor() {
        let d = Device::stm32_g071rb();
        assert_eq!(d.core, Core::CortexM0Plus);
        assert_eq!(d.cost.mac_cycles_x100, 400);
        assert!(d.ram_bytes < Device::stm32_f411re().ram_bytes);
        assert!(d.to_string().contains("Cortex-M0+"));
    }

    #[test]
    fn an547_is_the_quad_lane_top() {
        let d = Device::mps3_an547();
        assert_eq!(d.core, Core::CortexM55);
        assert_eq!(d.cost.mac_cycles_x100, 30);
        assert!(d.to_string().contains("Cortex-M55"));
    }

    #[test]
    fn cycles_to_ms_at_clock() {
        let d = Device::stm32_f411re();
        assert!((d.cycles_to_ms(100_000_000) - 1000.0).abs() < 1e-9);
        assert!((d.cycles_to_ms(1_000_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn table1_spans_five_orders_of_magnitude() {
        assert_eq!(TABLE1_PLATFORMS.len(), 3);
        assert_eq!(TABLE1_PLATFORMS[0].hardware, "A100");
        assert_eq!(TABLE1_PLATFORMS[2].sw_support, "None");
    }

    #[test]
    fn display_is_informative() {
        let s = Device::stm32_f411re().to_string();
        assert!(s.contains("128 KB RAM") && s.contains("Cortex-M4"));
    }
}
