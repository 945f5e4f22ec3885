//! # vmcu-tensor — quantized tensors and reference operators
//!
//! The data substrate of the vMCU reproduction: dense row-major
//! [`Tensor`]s (int8 activations/weights, int32 accumulators),
//! TFLite-style fixed-point [requantization](quant::Requant), seeded
//! [synthetic data](random), and nested-loop [reference
//! operators](mod@reference) that act as the correctness oracle for every
//! optimized kernel in the workspace.
//!
//! The MAC operators walk contiguous rows: per output pixel they fill
//! an `i32` accumulator row with the bias, add `x · w` across each
//! contiguous weight row of the output channels, tap by tap and input
//! channel by input channel, and requantize the row. Each output keeps
//! the per-element summation order (bias, then taps and channels
//! ascending), so it is bit-identical to the textbook definition. The
//! oracle shares no code with `vmcu_kernels`: this crate depends on no
//! other `vmcu-*` crate.
//!
//! # Examples
//!
//! ```
//! use vmcu_tensor::{quant::{Requant, NO_CLAMP}, random, reference};
//!
//! let input = random::tensor_i8(&[8, 8, 4], 1);
//! let weight = random::tensor_i8(&[4, 8], 2);
//! let rq = Requant::from_scale(1.0 / 64.0, 0);
//! let out = reference::pointwise(&input, &weight, None, 1, rq, NO_CLAMP);
//! assert_eq!(out.shape(), &[8, 8, 8]);
//! ```

pub mod quant;
pub mod random;
pub mod reference;
pub mod tensor;

pub use quant::{Requant, NO_CLAMP};
pub use tensor::Tensor;
