//! Facade error type.

use std::fmt;
use vmcu_graph::DegenerateLayer;
use vmcu_pool::PoolError;
use vmcu_sim::MemError;

/// An engine failure.
#[derive(Debug)]
pub enum EngineError {
    /// The layer does not fit the device RAM under the selected planner —
    /// the paper's "fails to run" outcome (e.g. TinyEngine on Figure 7
    /// cases 1, 2, 4 at 128 KB).
    DoesNotFit {
        /// Layer name.
        layer: String,
        /// Bytes the plan needs (including runtime overhead).
        needed: usize,
        /// Device RAM bytes.
        available: usize,
    },
    /// The selected policy does not support this layer kind.
    Unsupported {
        /// Layer kind.
        kind: &'static str,
        /// Policy (or stage) that rejected it.
        executor: &'static str,
    },
    /// An input or weight tensor does not match the graph it is run
    /// against — rejected before any kernel runs, so malformed data never
    /// panics and never yields an output.
    ShapeMismatch {
        /// What was checked (e.g. `input shape`, `weight tensors`).
        what: String,
        /// The shape (or count / byte size) the graph requires.
        expected: Vec<usize>,
        /// What the caller supplied.
        found: Vec<usize>,
    },
    /// A layer's requantization epilogue is outside the domain every
    /// kernel computes: an activation clamp with `min > max`, a
    /// multiplier outside `[2^30, 2^31)` or a total shift `31 + shift`
    /// outside `[1, 63]`. Rejected before any kernel runs.
    BadEpilogue {
        /// Index of the layer in its graph (0 for
        /// [`Engine::run_layer`](crate::Engine::run_layer)).
        layer: usize,
        /// The field: `clamp`, `rq.mult` or `rq.shift`, numbered by stage
        /// in an inverted bottleneck (`clamp2`, `rq3.shift`).
        field: String,
        /// The value found.
        found: String,
    },
    /// A layer's parameters are degenerate (a zero dimension or stride,
    /// a kernel larger than its padded input, an inverted bottleneck
    /// with a non-unit projection stride or an even kernel): rejected
    /// before any of its sizes is computed. Graphs refuse such layers at
    /// construction; this is how
    /// [`Engine::run_layer`](crate::Engine::run_layer) refuses a bare
    /// one.
    DegenerateLayer {
        /// Index of the layer (0 for `run_layer`).
        layer: usize,
        /// The rejected parameter.
        error: DegenerateLayer,
    },
    /// Deployed session state leaked between inferences — an invariant
    /// staged at deploy time (e.g. the flash firmware image) changed
    /// during `infer`. Indicates an execution bug; surfaced as a typed
    /// error on the next inference, never silently absorbed.
    StateLeak {
        /// The deployed invariant that changed.
        what: &'static str,
        /// Bytes the invariant held at deploy time.
        expected: usize,
        /// Bytes found before the next inference.
        found: usize,
    },
    /// Pool violation during execution (indicates a planner/kernel bug —
    /// surfaced, never silent).
    Pool(PoolError),
    /// Raw memory violation.
    Mem(MemError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DoesNotFit {
                layer,
                needed,
                available,
            } => write!(
                f,
                "layer `{layer}` needs {needed} bytes but the device has {available}"
            ),
            EngineError::Unsupported { kind, executor } => {
                write!(f, "{executor} executor does not support {kind} layers")
            }
            EngineError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what} mismatch: expected {expected:?}, found {found:?}"),
            EngineError::BadEpilogue {
                layer,
                field,
                found,
            } => write!(
                f,
                "layer {layer}: epilogue `{field}` = {found} is out of range (a clamp needs \
                 min <= max, a multiplier [2^30, 2^31), a total shift 31 + shift in [1, 63])"
            ),
            EngineError::DegenerateLayer { layer, error } => write!(f, "layer {layer}: {error}"),
            EngineError::StateLeak {
                what,
                expected,
                found,
            } => write!(
                f,
                "session state leak: {what} was {expected} bytes at deploy but {found} before \
                 the next inference"
            ),
            EngineError::Pool(e) => write!(f, "pool violation: {e}"),
            EngineError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Pool(e) => Some(e),
            EngineError::Mem(e) => Some(e),
            EngineError::DegenerateLayer { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<PoolError> for EngineError {
    fn from(e: PoolError) -> Self {
        EngineError::Pool(e)
    }
}

impl From<MemError> for EngineError {
    fn from(e: MemError) -> Self {
        EngineError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_numbers() {
        let e = EngineError::DoesNotFit {
            layer: "B2".into(),
            needed: 253_000,
            available: 131_072,
        };
        let s = e.to_string();
        assert!(s.contains("B2") && s.contains("253000") && s.contains("131072"));
    }

    #[test]
    fn conversions_wrap_sources() {
        let e: EngineError = MemError::RamOutOfRange {
            addr: 0,
            len: 1,
            capacity: 0,
        }
        .into();
        assert!(matches!(e, EngineError::Mem(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
