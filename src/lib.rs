//! # vmcu-repro — workspace root for the vMCU (MLSys 2024) reproduction
//!
//! This crate exists to host the repository-level `examples/` and `tests/`
//! directories; all functionality lives in the workspace crates and is
//! re-exported through the [`vmcu`] facade.
//!
//! See `README.md` for a tour and `docs/ARCHITECTURE.md` for the system
//! inventory.

pub use vmcu;

/// The README, included as rustdoc so its code blocks (the engine
/// quickstart and the fleet-serving example, which uses the
/// `vmcu-serve` dev-dependency) compile and run under
/// `cargo test --doc` — the README cannot drift from the API.
#[doc = include_str!("../README.md")]
mod readme_doctests {}
