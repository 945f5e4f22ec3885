//! # vmcu-sim — simulated MCU substrate
//!
//! The vMCU paper evaluates on STM32 boards (Cortex-M4/M7); this crate is
//! the hardware substitution: byte-accurate simulated [RAM](memory::Ram)
//! and [`Flash`], [device models](device::Device) for the two
//! evaluation platforms, an instruction-class [cost model](cost::CostModel)
//! (packed-SIMD MACs, memcpy traffic, modulo boundary checks, unrolling
//! stalls) and an [energy model](energy::EnergyModel)
//! (`E = core·cycles + ram·bytes + flash·bytes`).
//!
//! Kernels execute against a [`Machine`], which performs real data
//! movement on the simulated memories while charging modelled costs, so
//! functional correctness and performance accounting share one code path.
//!
//! # Examples
//!
//! ```
//! use vmcu_sim::{Device, Machine};
//!
//! let mut m = Machine::new(Device::stm32_f411re());
//! let weights = m.host_program_flash(&[1, 2, 3, 4])?;
//! let mut regs = [0u8; 4];
//! m.flash_load(weights, &mut regs)?;
//! m.charge_macs(4, true);
//! let summary = m.summarize();
//! assert_eq!(summary.counters.macs, 4);
//! assert!(summary.latency_ms > 0.0);
//! # Ok::<(), vmcu_sim::MemError>(())
//! ```

pub mod byteset;
pub mod cost;
pub mod counters;
pub mod device;
pub mod energy;
pub mod link;
pub mod machine;
pub mod memory;

pub use byteset::ByteSet;
pub use cost::CostModel;
pub use counters::Counters;
pub use device::{Core, Device, PlatformSummary, TABLE1_PLATFORMS};
pub use energy::EnergyModel;
pub use link::LinkModel;
pub use machine::{ExecSummary, Machine};
pub use memory::{Flash, MemError, Ram};
